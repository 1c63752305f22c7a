// perfbench — the native half of the repository benchmark (README.md).
// run.py builds it, times the set-up subcommand, runs one workload and turns
// the raw measurements printed here into the benchmark's metrics.
//
//   perfbench setup WORKLOAD DIR key=value...   write the workload's inputs
//   perfbench run   WORKLOAD DIR key=value...   measure, print raw results
//   perfbench selftest                          check the benchmark's inputs
//
// Each command prints one JSON object on stdout. WORKLOAD is one of
// infer-fp32, serve-int8, train-sharded; the key=value parameters come from
// workloads.json plus seed, seconds and trace.
#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"
#include "common/cpu.h"

namespace perfbench {
namespace {

std::string selftest() {
  bool ok = true;
  Json checks;
  const auto check = [&](const char* name, bool pass) {
    checks.boolean(name, pass);
    ok = ok && pass;
  };

  const auto a = makeImageSet(7, 3, 4, 12, 4);
  const auto b = makeImageSet(7, 3, 4, 12, 4);
  const auto c = makeImageSet(8, 3, 4, 12, 4);
  bool same = a.size() == b.size();
  bool differs = false;
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].bytes == b[i].bytes && a[i].truth == b[i].truth;
    differs = differs || a[i].bytes != c[i].bytes;
  }
  check("same_seed_same_image_bytes", same);
  check("other_seed_other_image_bytes", differs);

  const ScheduleSpec spec{50.0, 4.0, 0.3, 0.2, 5};
  const auto s1 = makeSchedule(7, spec);
  const auto s2 = makeSchedule(7, spec);
  const auto s3 = makeSchedule(8, spec);
  bool schedSame = s1.size() == s2.size() && !s1.empty();
  for (size_t i = 0; schedSame && i < s1.size(); ++i) {
    schedSame = s1[i].dueS == s2[i].dueS && s1[i].kind == s2[i].kind &&
                s1[i].image == s2[i].image && s1[i].confMin == s2[i].confMin;
  }
  bool ordered = true;
  for (size_t i = 1; i < s1.size(); ++i) {
    ordered = ordered && s1[i - 1].dueS < s1[i].dueS && s1[i].dueS < 4.0;
  }
  check("same_seed_same_schedule", schedSame);
  check("other_seed_other_schedule",
        s3.size() != s1.size() || s3.front().dueS != s1.front().dueS);
  check("schedule_ordered_in_window", ordered);
  check("schedule_has_every_kind",
        novelCount(s1) > 0 && novelCount(s1) < s1.size());

  // Scoring reads rows printed with the renderer's own format string.
  ImageCase truth;
  truth.truth[{0x401000, -24}] = cati::TypeLabel::Int;
  truth.truth[{0x401000, -32}] = cati::TypeLabel::Float;
  const char* const fmt = "  %s%+-6lld %-22s conf %.2f  (%zu VUCs)   %s\n";
  char row1[160];
  char row2[160];
  std::snprintf(row1, sizeof row1, fmt, "rbp", -24LL, "int", 0.93, size_t{3},
                "");
  std::snprintf(row2, sizeof row2, fmt, "rbp", -32LL, "unsigned char", 0.51,
                size_t{2}, "");
  const Score sc = scoreReport(
      std::string("fun_401000:\n") + row1 + row2 + "\n2 variables typed\n",
      truth);
  check("score_report", sc.parsed && sc.vars == 2 && sc.matched == 2 &&
                            sc.correct == 1 && sc.vucs == 5);
  return Json().boolean("ok", ok).raw("checks", checks.done()).done();
}

int mainImpl(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "selftest") {
    std::puts(selftest().c_str());
    return 0;
  }
  if ((cmd != "setup" && cmd != "run") || argc < 4) {
    std::fputs("usage: perfbench setup|run WORKLOAD DIR key=value... | "
               "perfbench selftest\n",
               stderr);
    return 2;
  }
  const std::string workload = argv[2];
  const fs::path dir = argv[3];
  const Params p(argc, argv, 4);
  fs::create_directories(dir);
  std::string out;
  if (workload == "infer-fp32") {
    out = cmd == "setup" ? setupInfer(p, dir) : runInfer(p, dir);
  } else if (workload == "serve-int8") {
    out = cmd == "setup" ? setupServe(p, dir) : runServe(p, dir);
  } else if (workload == "train-sharded") {
    out = cmd == "setup" ? setupTrain(p, dir) : runTrain(p, dir);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  if (cmd == "run") {
    // Results from different kernel tiers must never be compared.
    out.insert(out.size() - 1,
               ", \"kernel\": \"" +
                   std::string(cati::cpu::isaName(cati::cpu::active())) + "\"");
  }
  std::puts(out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::mainImpl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
