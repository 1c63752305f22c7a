// Shared command-line plumbing for the six cati tools. Each tool declares
// its command line once, as a cli::Table with one row per positional and
// flag: name, metavar, target and a strict parser (an inclusive integer
// range, a K/M/G size, a fixed set of choices, or free text). The table
// adds the shared flags (--verbose, --metrics[=FILE], --batch, --kernel),
// parses argv in one pass and renders the usage line from the same rows.
//
// Flags and positionals may come in any order. A value is the next token,
// whatever it starts with, or attached as --flag=VALUE. Any other token
// that starts with a dash is a flag, so `cati-train --help` is an unknown
// flag rather than a model path. Cross-flag rules stay plain checks in the
// tool, using Table::given().
//
// Exit codes (README "Error handling"):
//   0  success
//   1  generic failure (diagnostics already printed)
//   2  usage error: unknown, duplicate, valueless, malformed, out-of-range
//      or bad-choice flag, missing or stray positional; the usage follows
//   3  I/O failure (cati::IoError): disk full, fsync/rename failed — the
//      environment broke; retrying can help
//   4  corrupt input (cati::CorruptError): bad magic, truncation, checksum
//      mismatch — the bytes are wrong; retrying cannot help
// 137  an injected kill fired (cati::fault, mirrors 128+SIGKILL)
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "common/diag.h"
#include "common/errors.h"
#include "common/fs.h"
#include "common/obs.h"
#include "common/parallel.h"

namespace cati::cli {

inline constexpr int kExitUsage = 2;
inline constexpr int kExitIo = 3;
inline constexpr int kExitCorrupt = 4;

/// A bad command line. toolMain prints the message plus the tool's usage
/// line and exits 2.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

/// Strict integer value: the whole token must parse in base 10 and fit in
/// a long (atoi's silent "0 for garbage" turned typos into defaults).
inline long parseInt(std::string_view flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    throw UsageError(std::string(flag) + ": not a number: " + value);
  }
  if (errno == ERANGE) {
    throw UsageError(std::string(flag) + ": out of range: " + value);
  }
  return v;
}

/// Strict byte-size value: a non-negative integer with an optional K/M/G
/// suffix (binary multiples), e.g. `--cache-bytes 64M`. Overflow is
/// rejected both at the digits (strtoll's ERANGE clamp) and at the suffix
/// multiply: "some huge budget" must not silently become a smaller number.
inline unsigned long long parseSize(std::string_view flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || v < 0) {
    throw UsageError(std::string(flag) + ": not a size: " + value);
  }
  if (errno == ERANGE) {
    throw UsageError(std::string(flag) + ": size overflows: " + value);
  }
  // Optional suffix: K/k = 2^10, M/m = 2^20, G/g = 2^30.
  const size_t unit = std::string_view("KkMmGg").find(*end);
  const unsigned long long mult =
      unit == std::string_view::npos ? 1 : 1ULL << (10 * (unit / 2 + 1));
  if (unit != std::string_view::npos) ++end;
  if (*end != '\0') {
    throw UsageError(std::string(flag) + ": not a size: " + value);
  }
  const auto uv = static_cast<unsigned long long>(v);
  if (uv > ~0ULL / mult) {
    throw UsageError(std::string(flag) + ": size overflows: " + value);
  }
  return uv * mult;
}

/// One row of a tool's table. Build rows with the factories below.
struct Opt {
  enum class Kind {
    kPositional,     ///< METAVAR, matched by order among the positionals
    kSwitch,         ///< --name, no value
    kValue,          ///< --name METAVAR or --name=METAVAR
    kAttachedValue,  ///< --name[=METAVAR]: a value only via `=`
  };
  std::string name;     ///< "--flag"; a positional's name is its metavar
  std::string metavar;  ///< value placeholder in the usage line
  Kind kind = Kind::kValue;
  /// Parses and stores one value; throws UsageError. Switches get "".
  std::function<void(const std::string&)> set;
  bool required = false;  ///< rendered without [brackets]
};

inline Opt positional(std::string metavar, std::string* out,
                      bool required = true) {
  return {metavar, metavar, Opt::Kind::kPositional,
          [out](const std::string& v) { *out = v; }, required};
}

/// Marks a flag as mandatory.
inline Opt required(Opt o) {
  o.required = true;
  return o;
}

/// A switch: its presence stores `value` (so `--quiet` can clear a flag).
inline Opt flag(std::string name, bool* out, bool value = true) {
  return {std::move(name), "", Opt::Kind::kSwitch,
          [out, value](const std::string&) { *out = value; }};
}

/// Free text into a std::string or a std::filesystem::path.
template <typename T>
Opt text(std::string name, std::string metavar, T* out) {
  return {std::move(name), std::move(metavar), Opt::Kind::kValue,
          [out](const std::string& v) { *out = v; }};
}

/// A base-10 integer in [lo, hi]; hi defaults to the largest T (capped at
/// the largest long).
template <typename T>
Opt integer(std::string name, std::string metavar, T* out, long lo,
            long hi = static_cast<long>(std::min<unsigned long long>(
                std::numeric_limits<T>::max(),
                std::numeric_limits<long>::max()))) {
  return {name, std::move(metavar), Opt::Kind::kValue,
          [name, out, lo, hi](const std::string& v) {
            const long n = parseInt(name, v.c_str());
            if (n < lo || n > hi) {
              throw std::invalid_argument(v + " is out of range " +
                                          std::to_string(lo) + ".." +
                                          std::to_string(hi));
            }
            *out = static_cast<T>(n);
          }};
}

/// A parseSize byte count of at least `lo`.
template <typename T>
Opt size(std::string name, std::string metavar, T* out,
         unsigned long long lo = 0) {
  return {name, std::move(metavar), Opt::Kind::kValue,
          [name, out, lo](const std::string& v) {
            const unsigned long long n = parseSize(name, v.c_str());
            if (n < lo || n > std::numeric_limits<T>::max()) {
              throw std::invalid_argument(v + " is out of range (at least " +
                                          std::to_string(lo) + " bytes)");
            }
            *out = static_cast<T>(n);
          }};
}

/// A 64-bit seed: strtoull in base 0, so 0x.. and 0.. prefixes work.
inline Opt seed(std::string name, uint64_t* out) {
  return {std::move(name), "S", Opt::Kind::kValue,
          [out](const std::string& v) {
            char* end = nullptr;
            errno = 0;
            *out = std::strtoull(v.c_str(), &end, 0);
            if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
              throw std::invalid_argument("not a seed: " + v);
            }
          }};
}

/// A finite or infinite float; the whole token must parse.
inline Opt real(std::string name, std::string metavar, float* out) {
  return {std::move(name), std::move(metavar), Opt::Kind::kValue,
          [out](const std::string& v) {
            char* end = nullptr;
            *out = std::strtof(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0') {
              throw std::invalid_argument("not a number: " + v);
            }
          }};
}

/// One of a fixed set of names; the usage line shows them as a|b|c.
template <typename T>
Opt choice(std::string name, T* out,
           std::vector<std::pair<std::string, T>> choices) {
  std::string metavar;
  for (const auto& c : choices) {
    metavar += (metavar.empty() ? "" : "|") + c.first;
  }
  return {std::move(name), metavar, Opt::Kind::kValue,
          [metavar, out, choices](const std::string& v) {
            for (const auto& c : choices) {
              if (c.first == v) {
                *out = c.second;
                return;
              }
            }
            throw std::invalid_argument("bad value " + v + " (want " +
                                        metavar + ")");
          }};
}

/// Values of the flags every tool shares.
struct Common {
  bool verbose = false;       ///< --verbose: include Note-severity diagnostics
  bool metrics = false;       ///< --metrics[=FILE]: emit a JSON snapshot
  std::string metricsPath;    ///< empty means stderr
  /// --batch N: samples per NN forward pass. 0 = unset; resolve with
  /// par::resolveBatch (CATI_BATCH, then a tool default). Batch size never
  /// changes inference results, only throughput (DESIGN.md §7).
  int batch = 0;
  /// --kernel ISA: forces the NN kernel tier (DESIGN.md §11); an ISA this
  /// CPU lacks is a hard error (exit 1), never a silent downgrade.
  std::optional<cpu::Isa> kernel;
};

class Table {
 public:
  /// `rows` are the tool's own; the shared flags are appended. `note` is
  /// printed under the usage line (e.g. the syntax of a metavar).
  Table(std::string tool, std::vector<Opt> rows, std::string note = "")
      : tool_(std::move(tool)), rows_(std::move(rows)), note_(std::move(note)) {
    rows_.push_back(flag("--verbose", &common_.verbose));
    rows_.push_back({"--metrics", "FILE", Opt::Kind::kAttachedValue,
                     [this](const std::string& v) {
                       common_.metrics = true;
                       common_.metricsPath = v;
                     }});
    rows_.push_back(integer("--batch", "N", &common_.batch, 1, par::kMaxBatch));
    rows_.push_back(choice<std::optional<cpu::Isa>>(
        "--kernel", &common_.kernel,
        {{"scalar", cpu::Isa::kScalar},
         {"avx2", cpu::Isa::kAvx2},
         {"avx512", cpu::Isa::kAvx512}}));
  }
  // Rows hold pointers into this object.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& tool() const { return tool_; }
  const Common& common() const { return common_; }

  /// Whether flag `name` appeared on the command line.
  bool given(std::string_view name) const { return seen_.contains(name); }

  /// One pass over argv[1..argc); throws UsageError.
  void parse(int argc, const char* const* argv) {
    size_t nextPos = 0;  // positionals consumed so far
    for (int i = 1; i < argc; ++i) {
      const std::string tok = argv[i];
      if (tok.size() < 2 || tok[0] != '-') {
        Opt* row = nthPositional(nextPos++);
        if (row == nullptr) throw UsageError("unexpected argument: " + tok);
        apply(*row, tok);
        continue;
      }
      const size_t eq = tok.find('=');
      const std::string name = tok.substr(0, eq);
      Opt* row = find(name);
      if (row == nullptr) throw UsageError("unknown argument: " + tok);
      if (!seen_.insert(name).second) {
        throw UsageError("duplicate flag: " + name);
      }
      std::string value;  // switches and a bare --metrics get ""
      if (eq != std::string::npos) {
        if (row->kind == Opt::Kind::kSwitch) {
          throw UsageError(name + ": takes no value");
        }
        value = tok.substr(eq + 1);
      } else if (row->kind == Opt::Kind::kValue) {
        if (i + 1 >= argc) throw UsageError(name + ": missing value");
        value = argv[++i];
      }
      apply(*row, value);
    }
    size_t k = 0;
    for (const Opt& row : rows_) {
      const bool positional = row.kind == Opt::Kind::kPositional;
      const bool present = positional ? k++ < nextPos : given(row.name);
      if (row.required && !present) {
        throw UsageError("missing " + (positional ? "" : row.name + " ") +
                         row.metavar);
      }
    }
  }

  /// "usage: TOOL POS [OPTPOS] [--switch] [--flag METAVAR] ...\n[note]":
  /// positionals first, then flags in table order.
  std::string usage() const {
    std::string pos;
    std::string flags;
    for (const Opt& r : rows_) {
      std::string item = r.name;  // a positional's name is its metavar
      if (r.kind == Opt::Kind::kValue) {
        item += " " + r.metavar;
      } else if (r.kind == Opt::Kind::kAttachedValue) {
        item += "[=" + r.metavar + "]";
      }
      if (!r.required) item = "[" + item + "]";
      (r.kind == Opt::Kind::kPositional ? pos : flags) += " " + item;
    }
    return "usage: " + tool_ + pos + flags + "\n" + note_;
  }

 private:
  /// Row setters may throw std::invalid_argument; it becomes a UsageError
  /// naming the row.
  static void apply(const Opt& row, const std::string& value) {
    try {
      row.set(value);
    } catch (const std::invalid_argument& e) {
      throw UsageError(row.name + ": " + e.what());
    }
  }
  Opt* nthPositional(size_t n) {
    for (Opt& r : rows_) {
      if (r.kind == Opt::Kind::kPositional && n-- == 0) return &r;
    }
    return nullptr;
  }
  Opt* find(std::string_view name) {
    for (Opt& r : rows_) {
      if (r.kind != Opt::Kind::kPositional && r.name == name) return &r;
    }
    return nullptr;
  }

  std::string tool_;
  std::vector<Opt> rows_;
  std::string note_;
  Common common_;
  std::set<std::string, std::less<>> seen_;
};

/// Diagnostics to stderr: warnings and errors always, notes only with
/// --verbose.
inline void printDiags(const DiagList& diags, const Common& c) {
  DiagList shown;
  for (const Diag& d : diags) {
    if (c.verbose || d.severity != Severity::Note) shown.push_back(d);
  }
  print(shown, std::cerr);
}

/// Writes the global registry snapshot as JSON to the --metrics target
/// (stderr by default). No-op when --metrics was not given.
inline void emitMetrics(const Common& c, const std::string& tool) {
  if (!c.metrics) return;
  const std::string json = obs::Registry::global().snapshot().toJson();
  if (c.metricsPath.empty()) {
    std::cerr << json;
    return;
  }
  try {
    fs::atomicWrite(c.metricsPath, [&](std::ostream& os) { os << json; });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot write metrics file: %s\n", tool.c_str(),
                 e.what());
  }
}

/// The shared main(): parse `table`, apply the shared flags, run the tool,
/// emit metrics, and turn any escaped exception into a one-line diagnostic
/// plus a typed exit code.
template <typename Fn>
int toolMain(Table& table, int argc, char** argv, Fn&& run) {
  const char* tool = table.tool().c_str();
  try {
    table.parse(argc, argv);
    const Common& c = table.common();
    if (c.metrics) obs::setEnabled(true);
    if (c.kernel) cpu::force(*c.kernel);
    // Resolve the kernel now: a bad CATI_KERNEL must be a hard process
    // error here, not a per-function degradation deep inside analysis.
    const cpu::Isa isa = cpu::active();
    if (c.verbose) std::cerr << "nn kernel: " << cpu::isaName(isa) << "\n";
    const int rc = run();
    emitMetrics(c, tool);
    return rc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: error: %s\n%s", tool, e.what(),
                 table.usage().c_str());
    return kExitUsage;
  } catch (const CorruptError& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return kExitCorrupt;
  } catch (const IoError& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return kExitIo;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return 1;
  }
}

}  // namespace cati::cli
