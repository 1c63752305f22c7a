// Direct unit tests for tools/cli.h: the strict value parsers and the
// declarative cli::Table every tool parses its command line with. All of it
// runs in process against the parser, so no tool (and no thread pool) is
// ever started, whatever the flag values.
//
// parseSize backs byte-sized flags (--cache-bytes, --max-resident) whose
// misparse turns a fat-fingered budget into a silent huge/tiny one, so the
// hostile cases matter: overflow must be rejected both at the digit level
// (strtoll ERANGE) and at the suffix multiply (a wrapping `* 1G`).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cli.h"

namespace cati::cli {
namespace {

TEST(ParseSize, BareBytes) {
  EXPECT_EQ(parseSize("--x", "0"), 0ULL);
  EXPECT_EQ(parseSize("--x", "123"), 123ULL);
  EXPECT_EQ(parseSize("--x", "9007199254740993"), 9007199254740993ULL);
}

TEST(ParseSize, BinarySuffixesBothCases) {
  EXPECT_EQ(parseSize("--x", "1K"), 1024ULL);
  EXPECT_EQ(parseSize("--x", "64k"), 64ULL << 10);
  EXPECT_EQ(parseSize("--x", "2M"), 2ULL << 20);
  EXPECT_EQ(parseSize("--x", "7m"), 7ULL << 20);
  EXPECT_EQ(parseSize("--x", "3G"), 3ULL << 30);
  EXPECT_EQ(parseSize("--x", "5g"), 5ULL << 30);
  EXPECT_EQ(parseSize("--x", "0K"), 0ULL);
}

TEST(ParseSize, GarbageRejected) {
  EXPECT_THROW(parseSize("--x", ""), UsageError);
  EXPECT_THROW(parseSize("--x", "abc"), UsageError);
  EXPECT_THROW(parseSize("--x", "K"), UsageError);
  EXPECT_THROW(parseSize("--x", "12X"), UsageError);
  EXPECT_THROW(parseSize("--x", "12KB"), UsageError);  // only one suffix char
  EXPECT_THROW(parseSize("--x", "12 K"), UsageError);
  EXPECT_THROW(parseSize("--x", "1.5G"), UsageError);
}

TEST(ParseSize, NegativeRejected) {
  EXPECT_THROW(parseSize("--x", "-1"), UsageError);
  EXPECT_THROW(parseSize("--x", "-64M"), UsageError);
}

TEST(ParseSize, DigitOverflowRejected) {
  // > LLONG_MAX: strtoll clamps and sets ERANGE; must not be accepted as
  // "some huge budget that happens to equal LLONG_MAX".
  EXPECT_THROW(parseSize("--x", "99999999999999999999"), UsageError);
  // Way past even unsigned range.
  EXPECT_THROW(parseSize("--x", "340282366920938463463374607431768211456"),
               UsageError);
}

TEST(ParseSize, SuffixMultiplyOverflowRejected) {
  // Digits fit in long long but the binary multiplier wraps u64.
  EXPECT_THROW(parseSize("--x", "99999999999999999G"), UsageError);
  EXPECT_THROW(parseSize("--x", "18446744073709551615K"), UsageError);
  // The largest value that does NOT wrap with G must still parse.
  EXPECT_EQ(parseSize("--x", "17179869183G"), 17179869183ULL << 30);
  EXPECT_THROW(parseSize("--x", "17179869184G"), UsageError);
}

TEST(ParseInt, StrictWholeToken) {
  EXPECT_EQ(parseInt("--n", "12"), 12L);
  EXPECT_EQ(parseInt("--n", "-3"), -3L);
  EXPECT_EQ(parseInt("--n", "0"), 0L);
  EXPECT_THROW(parseInt("--n", ""), UsageError);
  EXPECT_THROW(parseInt("--n", "x"), UsageError);
  EXPECT_THROW(parseInt("--n", "12x"), UsageError);
  EXPECT_THROW(parseInt("--n", "1 2"), UsageError);
}

/// A table shaped like a real tool's: two positionals (one optional),
/// ranged integers, a seed, a switch, free text and a choice.
struct Args {
  enum class Dialect { Gcc, Clang };
  std::string model;
  std::string out;
  int jobs = 0;
  int opt = 2;
  uint64_t seed = 1;
  bool quiet = false;
  std::string name = "app";
  Dialect dialect = Dialect::Gcc;
  Table table{"cati-tool",
              {positional("MODEL.bin", &model),
               positional("OUT.img", &out, /*required=*/false),
               integer("--jobs", "N", &jobs, 1, par::kMaxJobs),
               integer("--opt", "0..3", &opt, 0, 3),
               cli::seed("--seed", &seed),
               flag("--quiet", &quiet),
               text("--name", "N", &name),
               choice("--dialect", &dialect,
                      {{"gcc", Dialect::Gcc}, {"clang", Dialect::Clang}})}};

  void parse(const std::vector<std::string>& args) {
    std::vector<const char*> argv{"cati-tool"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    table.parse(static_cast<int>(argv.size()), argv.data());
  }
};

/// Parses `args` into a fresh table; true when it is a usage error.
bool rejects(const std::vector<std::string>& args) {
  Args a;
  try {
    a.parse(args);
  } catch (const UsageError&) {
    return true;
  }
  return false;
}

TEST(CliTable, ParsesEveryRowKind) {
  Args a;
  a.parse({"m.bin", "--jobs", "4", "--opt=3", "--seed", "0x1f", "--quiet",
           "--name", "-dash-is-a-value", "--dialect", "clang", "o.img"});
  EXPECT_EQ(a.model, "m.bin");
  EXPECT_EQ(a.out, "o.img");
  EXPECT_EQ(a.jobs, 4);
  EXPECT_EQ(a.opt, 3);
  EXPECT_EQ(a.seed, 0x1FU);
  EXPECT_TRUE(a.quiet);
  EXPECT_EQ(a.name, "-dash-is-a-value");
  EXPECT_EQ(a.dialect, Args::Dialect::Clang);
  EXPECT_TRUE(a.table.given("--jobs"));
  EXPECT_FALSE(a.table.given("--verbose"));
}

TEST(CliTable, DefaultsSurviveAnEmptyParse) {
  Args a;
  a.parse({"m.bin"});
  EXPECT_EQ(a.out, "");
  EXPECT_EQ(a.jobs, 0);
  EXPECT_EQ(a.seed, 1U);
  EXPECT_FALSE(a.quiet);
  EXPECT_FALSE(a.table.given("--seed"));
  const Common& c = a.table.common();
  EXPECT_FALSE(c.verbose);
  EXPECT_FALSE(c.metrics);
  EXPECT_EQ(c.batch, 0);
  EXPECT_FALSE(c.kernel.has_value());
}

TEST(CliTable, PositionalsMayComeAnywhere) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"m.bin", "o.img", "--jobs", "2"},
        {"--jobs", "2", "m.bin", "o.img"},
        {"m.bin", "--jobs", "2", "o.img"},
        {"--jobs=2", "m.bin", "o.img"}}) {
    Args a;
    a.parse(args);
    EXPECT_EQ(a.model, "m.bin");
    EXPECT_EQ(a.out, "o.img");
    EXPECT_EQ(a.jobs, 2);
  }
}

TEST(CliTable, DuplicateIsUsageError) {
  EXPECT_TRUE(rejects({"m.bin", "--seed", "1", "--seed", "2"}));
  EXPECT_TRUE(rejects({"m.bin", "--seed", "1", "--seed=2"}));
  EXPECT_TRUE(rejects({"m.bin", "--quiet", "--quiet"}));
  EXPECT_TRUE(rejects({"m.bin", "--verbose", "--verbose"}));
  EXPECT_TRUE(rejects({"m.bin", "--metrics", "--metrics=m.json"}));
}

TEST(CliTable, UnknownFlagIsUsageError) {
  EXPECT_TRUE(rejects({"m.bin", "--no-such-flag"}));
  EXPECT_TRUE(rejects({"m.bin", "--jobsx", "2"}));
  // A dash token is never a positional: --help cannot become MODEL.bin.
  EXPECT_TRUE(rejects({"--help"}));
  EXPECT_TRUE(rejects({"-h", "m.bin"}));
  EXPECT_FALSE(rejects({"-"}));  // a lone dash is a positional
}

TEST(CliTable, MissingValueIsUsageError) {
  EXPECT_TRUE(rejects({"m.bin", "--jobs"}));
  EXPECT_TRUE(rejects({"m.bin", "--batch"}));
  EXPECT_TRUE(rejects({"m.bin", "--kernel"}));
  EXPECT_TRUE(rejects({"m.bin", "--jobs="}));
  EXPECT_TRUE(rejects({"m.bin", "--quiet=1"}));  // a switch takes no value
}

TEST(CliTable, MalformedNumbersAreUsageErrors) {
  EXPECT_TRUE(rejects({"m.bin", "--jobs", "two"}));
  EXPECT_TRUE(rejects({"m.bin", "--jobs", "2x"}));
  EXPECT_TRUE(rejects({"m.bin", "--seed", "abc"}));
  EXPECT_TRUE(rejects({"m.bin", "--seed", "12abc"}));
  EXPECT_TRUE(rejects({"m.bin", "--seed", "99999999999999999999999"}));
  EXPECT_TRUE(rejects({"m.bin", "--batch=eight"}));
}

TEST(CliTable, OutOfRangeIsUsageError) {
  // --jobs and --batch share par::kMaxJobs / par::kMaxBatch with CATI_JOBS
  // and CATI_BATCH; both ends of each range are inclusive.
  EXPECT_TRUE(rejects({"m.bin", "--jobs", "0"}));
  EXPECT_TRUE(rejects({"m.bin", "--jobs", "-3"}));
  EXPECT_TRUE(rejects({"m.bin", "--jobs", std::to_string(par::kMaxJobs + 1)}));
  EXPECT_TRUE(rejects({"m.bin", "--jobs", "99999999999999999999"}));
  EXPECT_FALSE(rejects({"m.bin", "--jobs", "1"}));
  EXPECT_FALSE(rejects({"m.bin", "--jobs", std::to_string(par::kMaxJobs)}));
  EXPECT_TRUE(rejects({"m.bin", "--batch", "0"}));
  EXPECT_TRUE(
      rejects({"m.bin", "--batch", std::to_string(par::kMaxBatch + 1)}));
  EXPECT_FALSE(rejects({"m.bin", "--batch", std::to_string(par::kMaxBatch)}));
  EXPECT_TRUE(rejects({"m.bin", "--opt", "4"}));
  EXPECT_FALSE(rejects({"m.bin", "--opt", "0"}));
}

TEST(CliTable, BadChoiceIsUsageError) {
  EXPECT_TRUE(rejects({"m.bin", "--dialect", "foo"}));
  EXPECT_TRUE(rejects({"m.bin", "--dialect", "GCC"}));
  EXPECT_TRUE(rejects({"m.bin", "--kernel", "bogus"}));
  EXPECT_TRUE(rejects({"m.bin", "--kernel=avx"}));
}

TEST(CliTable, PositionalCountIsChecked) {
  EXPECT_TRUE(rejects({}));                              // MODEL.bin missing
  EXPECT_TRUE(rejects({"--jobs", "2"}));                 // still missing
  EXPECT_TRUE(rejects({"m.bin", "o.img", "stray.img"}));  // one too many
}

TEST(CliTable, SharedFlagsTakeBothForms) {
  Args a;
  a.parse({"m.bin", "--verbose", "--metrics", "--batch=8", "--kernel=scalar"});
  EXPECT_TRUE(a.table.common().verbose);
  EXPECT_TRUE(a.table.common().metrics);
  EXPECT_EQ(a.table.common().metricsPath, "");  // bare --metrics: stderr
  EXPECT_EQ(a.table.common().batch, 8);
  EXPECT_EQ(a.table.common().kernel, cpu::Isa::kScalar);

  Args b;
  b.parse({"--metrics=m.json", "--batch", "16", "--kernel", "avx2", "m.bin"});
  EXPECT_TRUE(b.table.common().metrics);
  EXPECT_EQ(b.table.common().metricsPath, "m.json");
  EXPECT_EQ(b.table.common().batch, 16);
  EXPECT_EQ(b.table.common().kernel, cpu::Isa::kAvx2);
  // --metrics takes its file only attached: the next token is a positional.
  Args c;
  c.parse({"--metrics", "m.bin"});
  EXPECT_EQ(c.model, "m.bin");
  EXPECT_EQ(c.table.common().metricsPath, "");
}

TEST(CliTable, RequiredFlag) {
  std::string listen;
  Table t("cati-daemon", {required(text("--listen", "ADDR", &listen))});
  const char* none[] = {"cati-daemon"};
  EXPECT_THROW(t.parse(1, none), UsageError);
  const char* given[] = {"cati-daemon", "--listen", "unix:/s"};
  Table t2("cati-daemon", {required(text("--listen", "ADDR", &listen))});
  t2.parse(3, given);
  EXPECT_EQ(listen, "unix:/s");
}

TEST(CliTable, SetterInvalidArgumentBecomesUsageError) {
  Table t("cati-daemon",
          {{"--listen", "ADDR", Opt::Kind::kValue, [](const std::string& v) {
              throw std::invalid_argument("bad address " + v);
            }}});
  const char* argv[] = {"cati-daemon", "--listen", "ftp:1"};
  try {
    t.parse(3, argv);
    FAIL() << "no usage error";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "--listen: bad address ftp:1");
  }
}

TEST(CliTable, RendersUsageFromTheRows) {
  const Args a;
  EXPECT_EQ(a.table.usage(),
            "usage: cati-tool MODEL.bin [OUT.img] [--jobs N] [--opt 0..3] "
            "[--seed S] [--quiet] [--name N] [--dialect gcc|clang] "
            "[--verbose] [--metrics[=FILE]] [--batch N] "
            "[--kernel scalar|avx2|avx512]\n");
  std::string listen;
  const Table t("cati-daemon", {required(text("--listen", "ADDR", &listen))},
                "  ADDR is unix:PATH\n");
  EXPECT_EQ(t.usage(),
            "usage: cati-daemon --listen ADDR [--verbose] [--metrics[=FILE]] "
            "[--batch N] [--kernel scalar|avx2|avx512]\n  ADDR is "
            "unix:PATH\n");
}

}  // namespace
}  // namespace cati::cli
