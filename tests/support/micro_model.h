// Shared micro-model fixture for the suites that need a trained engine: a
// tiny corpus + engine configuration that trains in seconds yet exercises
// the whole pipeline (synth -> corpus -> word2vec -> six CNN stages).
//
// cachedEngine() is the one disk cache of trained engines, under
// ./cati_test_cache/ and keyed by name and rev, so the test processes
// ctest starts (one per test) do not each pay for training. Every suite
// that uses a key registers a RESOURCE_LOCK for it in tests/CMakeLists.txt,
// so cache reads and the atomic temp+rename write never race. A corrupt or
// stale cache entry is never trusted: a load error means retraining.
#pragma once

#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cati/engine.h"
#include "common/parallel.h"
#include "corpus/corpus.h"
#include "synth/synth.h"

namespace cati::testsupport {

/// cachedEngine rev of the micro engine.
inline constexpr int kMicroRev = 1;
inline constexpr uint64_t kMicroSeed = 0xCA71;

inline EngineConfig microConfig() {
  EngineConfig cfg;
  cfg.window = 4;
  cfg.w2v.dim = 8;
  cfg.w2v.epochs = 1;
  cfg.conv1 = 4;
  cfg.conv2 = 8;
  cfg.fcHidden = 16;
  cfg.epochs = 1;
  cfg.maxTrainPerStage = 400;
  cfg.seed = kMicroSeed;
  return cfg;
}

inline std::vector<synth::Binary> microBinaries(
    par::ThreadPool* pool = nullptr) {
  return synth::generateCorpus(2, 6, synth::Dialect::Gcc, kMicroSeed, pool);
}

inline corpus::Dataset microDataset(par::ThreadPool* pool = nullptr) {
  return corpus::extractAll(microBinaries(pool), microConfig().window,
                            /*groundTruth=*/true, pool);
}

inline std::string serializeEngine(const Engine& e) {
  std::ostringstream os;
  e.save(os);
  return std::move(os).str();
}

/// Trains the micro engine from scratch at the given job count and returns
/// the serialized model bytes. The determinism contract (DESIGN.md §7) says
/// the result is the same string for every `jobs` value.
inline std::string trainMicroEngineBytes(int jobs) {
  par::ThreadPool pool(jobs);
  const corpus::Dataset ds = microDataset(&pool);
  Engine e(microConfig());
  e.train(ds, &pool);
  return serializeEngine(e);
}

inline std::filesystem::path cachePath(const std::string& key, int rev) {
  return std::filesystem::path("cati_test_cache") /
         (key + "_r" + std::to_string(rev) + ".bin");
}

/// Atomic publish: a concurrent reader either sees the old file or the
/// complete new one, never a half-written model.
inline void writeCache(const std::filesystem::path& p,
                       const std::string& bytes) {
  std::filesystem::create_directories(p.parent_path());
  const std::filesystem::path tmp = p.string() + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::filesystem::rename(tmp, p);
}

/// Loads the engine cached under (key, rev). When the entry is missing or
/// fails to load (the model file's CRC), runs `train` — which returns the
/// serialized model — publishes its bytes and loads them, so a cold and a
/// warm run hand out the same engine. Bump `rev` whenever the training
/// inputs or numerics change; old entries are then simply ignored.
template <typename Train>
Engine cachedEngine(const std::string& key, int rev, Train train) {
  const std::filesystem::path p = cachePath(key, rev);
  if (std::filesystem::exists(p)) {
    try {
      return Engine::loadFile(p);
    } catch (const std::exception&) {
      // Corrupt/stale cache entry: fall through and retrain.
    }
  }
  const std::string bytes = train();
  writeCache(p, bytes);
  std::istringstream is(bytes);
  return Engine::load(is);
}

inline constexpr const char* kMicroKey = "micro_engine";

inline Engine cachedMicroEngine() {
  return cachedEngine(kMicroKey, kMicroRev,
                      [] { return trainMicroEngineBytes(par::resolveJobs()); });
}

}  // namespace cati::testsupport
