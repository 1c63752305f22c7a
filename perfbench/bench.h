// Shared pieces of the perfbench program: parameters, seeded inputs with the
// ground truth the benchmark keeps for itself, report scoring, the arrival
// schedule of the serving workload, and small JSON / timing / process
// helpers. The program under test only ever sees the generated stripped
// images, requests and shards; the truth never leaves this directory.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cati/engine.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "common/types.h"
#include "serve/analysis.h"

namespace perfbench {

namespace fs = std::filesystem;

/// key=value arguments handed over by run.py from workloads.json. A missing
/// key is a benchmark bug, so the getters throw.
class Params {
 public:
  Params(int argc, char** argv, int first);
  const std::string& str(const std::string& k) const;
  double num(const std::string& k) const;
  long integer(const std::string& k) const;
  uint64_t seed() const;

 private:
  std::map<std::string, std::string> kv_;
};

/// A tiny JSON object writer; values are emitted with all their digits.
class Json {
 public:
  Json& num(std::string_view k, double v);
  Json& integer(std::string_view k, int64_t v);
  Json& str(std::string_view k, std::string_view v);
  Json& boolean(std::string_view k, bool v);
  /// `json` must already be valid JSON text.
  Json& raw(std::string_view k, std::string_view json);
  Json& list(std::string_view k, const std::vector<double>& v);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of this process, all threads, in seconds. The kernel leaves out
/// time the host stole from the virtual CPUs, so unlike the wall clock it
/// does not grow when other guests load the host.
double cpuS();

/// Peak resident set (VmHWM) of `pid` (0: this process) in MiB.
double peakRssMb(int pid = 0);

/// splitmix64: the benchmark's own generator, so inputs and schedules are a
/// fixed function of the seed whatever the standard library does.
struct Mix {
  uint64_t s;
  uint64_t next();
  double unit();  ///< uniform in [0, 1)
  uint64_t below(uint64_t n) { return next() % n; }
};

/// One generated stripped image plus its ground truth: (function start
/// address, frame offset) -> type, taken from the synthesized binary.
struct ImageCase {
  std::string bytes;  ///< stripped CELF container, what the program gets
  size_t funcs = 0;
  std::map<std::pair<uint64_t, int64_t>, cati::TypeLabel> truth;
};

/// `count` images whose function counts cycle through
/// [funcsMin, funcsMax] in steps of funcsStep (a fixed size mix, shuffled
/// by the seed, so every seed has the same size distribution).
std::vector<ImageCase> makeImageSet(uint64_t seed, size_t count, int funcsMin,
                                    int funcsMax, int funcsStep);

void saveImageSet(const fs::path& p, const std::vector<ImageCase>& set);
std::vector<ImageCase> loadImageSet(const fs::path& p);

struct Score {
  size_t vars = 0;     ///< typed variables in the report
  size_t matched = 0;  ///< ... that have a ground-truth slot
  size_t correct = 0;  ///< ... whose type equals the truth
  size_t vucs = 0;     ///< sum of the per-variable VUC counts
  bool parsed = true;  ///< false when a row could not be read
  void add(const Score& o);
};

/// Scores a cati-infer report against the case's truth by function address
/// (stripped names are fun_<hex address>) and frame offset.
Score scoreReport(const std::string& report, const ImageCase& c);

/// The serving workload's traffic.
enum class Kind : int { kRepeat = 0, kNovel = 1, kReconf = 2 };
inline constexpr int kNumKinds = 3;
std::string_view kindName(Kind k);

struct Arrival {
  double dueS = 0;     ///< offset from the start of the measured window
  Kind kind = Kind::kRepeat;
  uint32_t image = 0;  ///< popular index (repeat/reconf) or novel index
  float confMin = 0;
};

struct ScheduleSpec {
  double rate = 0;     ///< arrivals per second
  double seconds = 0;  ///< schedule length
  double shareNovel = 0;
  double shareReconf = 0;  ///< the rest are repeats
  uint32_t popular = 0;    ///< size of the popular set
};

/// Open-loop schedule of rate x seconds arrivals at seeded uniform times
/// (a Poisson process given its count); novel images are numbered in
/// arrival order.
std::vector<Arrival> makeSchedule(uint64_t seed, const ScheduleSpec& spec);
size_t novelCount(const std::vector<Arrival>& sched);

/// EngineConfig{} (the production architecture) with `epochs` and a small
/// per-stage cap, so a training takes seconds.
cati::EngineConfig benchEngineConfig(int epochs);
/// The model every inference workload serves, trained deterministically on
/// a fixed corpus (the seed of the workload does not enter; only its inputs
/// do).
cati::Engine trainBenchModel(const Params& p, cati::par::ThreadPool& pool);

/// The deterministic part of an obs snapshot: timings and untouched metrics
/// removed (a metric's name is registered on first use, so the name set
/// depends on what else ran in the process before).
cati::obs::Snapshot workCounters(const cati::obs::Snapshot& s);

/// What one cati-infer invocation does once the model is loaded: parse the
/// stripped container and run serve::analyzeImage on it with a fresh decode
/// cache. The container's diagnostics come first in the result's. Throws
/// when the container does not parse.
cati::serve::AnalyzeResult analyzeStripped(cati::Engine& engine,
                                           const std::string& bytes,
                                           cati::par::ThreadPool& pool,
                                           float confMin = 0.0F);

/// CRC32 of a file's bytes, as hex; setup repeats must agree on it.
std::string fileDigest(const fs::path& p);

/// Floating-point operations of one forward of stage `s` at `cfg`'s shape
/// (multiply-adds count two).
double stageForwardFlops(const cati::EngineConfig& cfg, cati::Stage s);

// --- workloads (each returns one JSON object of raw measurements) ---------

std::string setupInfer(const Params& p, const fs::path& dir);
std::string runInfer(const Params& p, const fs::path& dir);
std::string setupServe(const Params& p, const fs::path& dir);
std::string runServe(const Params& p, const fs::path& dir);
std::string setupTrain(const Params& p, const fs::path& dir);
std::string runTrain(const Params& p, const fs::path& dir);

}  // namespace perfbench
