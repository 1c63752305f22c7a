// train-sharded: the cati-train --corpus-dir path. Set-up writes `corpora`
// CSHD corpora with corpus::ShardWriter; the timed operation is a whole
// Engine::train(ShardedSource&) at the default architecture, cycling over
// the corpora for the run. A model trained on a few thousand VUCs varies in
// quality from corpus to corpus, so accuracy is pooled over the corpora's
// models on a held-out image set that does not depend on the seed.
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/obs.h"
#include "corpus/sharded.h"
#include "serve/analysis.h"
#include "synth/synth.h"

namespace perfbench {

namespace {

using namespace cati;

uint64_t counterOf(const obs::Snapshot& s, std::string_view name) {
  for (const obs::CounterSnapshot& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

fs::path corpusDir(const fs::path& dir, long k) {
  return dir / ("corpus-" + std::to_string(k));
}

/// Per corpus: what every training on it must repeat.
struct Reference {
  std::string model;
  obs::Snapshot counters;  ///< workCounters() of the first training
  double samples = 0;      ///< training samples (stage samples x epochs)
};

}  // namespace

std::string setupTrain(const Params& p, const fs::path& dir) {
  par::ThreadPool pool(static_cast<int>(p.integer("jobs")));
  const int window = EngineConfig{}.window;
  Mix m{p.seed()};
  std::string digests;
  for (long k = 0; k < p.integer("corpora"); ++k) {
    const fs::path out = corpusDir(dir, k);
    fs::remove_all(out);
    corpus::ShardWriter writer(out, window,
                               static_cast<uint64_t>(p.integer("shard_vucs")));
    for (const synth::CorpusJob& j :
         synth::corpusPlan(static_cast<int>(p.integer("apps")),
                           static_cast<int>(p.integer("funcs")), m.next())) {
      const synth::Binary bin = synth::generateBinary(
          j.profile, synth::Dialect::Gcc, j.opt, j.seed, &pool);
      writer.append(corpus::extractGroundTruth(bin, window));
    }
    writer.finish();
    digests += fileDigest(out / corpus::kManifestName) + ",";
  }
  saveImageSet(dir / "heldout.set",
               makeImageSet(static_cast<uint64_t>(p.integer("heldout_seed")),
                            static_cast<size_t>(p.integer("heldout_images")),
                            static_cast<int>(p.integer("funcs_min")),
                            static_cast<int>(p.integer("funcs_max")),
                            static_cast<int>(p.integer("funcs_step"))));
  return Json()
      .str("corpus", digests)
      .str("inputs", fileDigest(dir / "heldout.set"))
      .done();
}

std::string runTrain(const Params& p, const fs::path& dir) {
  const bool trace = p.integer("trace") != 0;
  std::vector<std::unique_ptr<corpus::ShardedCorpus>> corpora;
  for (long k = 0; k < p.integer("corpora"); ++k) {
    corpora.push_back(
        std::make_unique<corpus::ShardedCorpus>(corpusDir(dir, k)));
  }
  const std::vector<ImageCase> heldout = loadImageSet(dir / "heldout.set");
  par::ThreadPool pool(static_cast<int>(p.integer("jobs")));
  const EngineConfig cfg =
      benchEngineConfig(static_cast<int>(p.integer("epochs")));

  size_t attempted = 0;
  size_t failed = 0;
  size_t counterMismatch = 0;
  size_t modelMismatch = 0;
  size_t shardsMismatch = 0;
  // One training on corpus k; returns its wall time in ms and adds its CPU
  // time (all threads, shard prefetch included) to cpuMs.
  double cpuMs = 0;
  const auto trainOn = [&](size_t k, Engine& engine, obs::Snapshot& snap,
                           std::string& model) {
    ++attempted;
    obs::Registry::global().reset();
    corpus::ShardedSource src(*corpora[k]);
    const double t0 = nowS();
    const double c0 = cpuS();
    engine.train(src, &pool);
    const double ms = (nowS() - t0) * 1e3;
    cpuMs = (cpuS() - c0) * 1e3;
    snap = obs::Registry::global().snapshot();
    std::ostringstream os;
    engine.save(os);
    model = os.str();
    // A single decode pass over the shards per training (DESIGN.md §12).
    if (obs::enabled() &&
        counterOf(snap, "corpus.shards.read") != corpora[k]->numShards()) {
      ++failed;
      ++shardsMismatch;
    }
    return ms;
  };

  // Warm-up round, untimed, obs on: one training per corpus counts its
  // training samples, fixes the model bytes (and, when traced, the work
  // counters) every later training on it must repeat, and is scored on the
  // held-out set.
  std::vector<Reference> refs(corpora.size());
  Score score;
  for (size_t k = 0; k < corpora.size(); ++k) {
    obs::setEnabled(true);
    Engine engine(cfg);
    obs::Snapshot snap;
    trainOn(k, engine, snap, refs[k].model);
    obs::setEnabled(false);
    refs[k].counters = workCounters(snap);
    for (int s = 0; s < kNumStages; ++s) {
      refs[k].samples += static_cast<double>(counterOf(
          snap, "engine.train.samples." +
                    std::string(stageName(static_cast<Stage>(s)))));
    }
    for (const ImageCase& c : heldout) {
      ++attempted;
      try {
        const Score s =
            scoreReport(analyzeStripped(engine, c.bytes, pool).report, c);
        if (!s.parsed) ++failed;
        score.add(s);
      } catch (const std::exception&) {
        ++failed;
      }
    }
  }

  obs::setEnabled(trace);
  std::vector<double> trainMs;
  std::vector<double> samplesPerCpuS;
  std::map<std::string, double> sums;
  double shards = 0;
  const double seconds = p.num("seconds");
  const double start = nowS();
  for (size_t r = 0; r < corpora.size() || nowS() - start < seconds; ++r) {
    const size_t k = r % corpora.size();
    Engine engine(cfg);
    obs::Snapshot snap;
    std::string model;
    const double ms = trainOn(k, engine, snap, model);
    trainMs.push_back(ms);
    samplesPerCpuS.push_back(refs[k].samples / (cpuMs / 1e3));
    shards += static_cast<double>(corpora[k]->numShards());
    if (model != refs[k].model) {
      ++failed;
      ++modelMismatch;
    }
    if (trace && workCounters(snap) != refs[k].counters) {
      ++failed;
      ++counterMismatch;
    }
    for (const obs::CounterSnapshot& c : snap.counters) {
      sums[c.name] += static_cast<double>(c.value);
    }
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      sums[h.name] += h.sum();
    }
  }
  obs::setEnabled(false);

  Json out;
  out.integer("attempted", static_cast<int64_t>(attempted))
      .integer("failed", static_cast<int64_t>(failed))
      .integer("matched", static_cast<int64_t>(score.matched))
      .integer("correct", static_cast<int64_t>(score.correct))
      .integer("counter_mismatch", static_cast<int64_t>(counterMismatch))
      .integer("model_mismatch", static_cast<int64_t>(modelMismatch))
      .integer("shards_mismatch", static_cast<int64_t>(shardsMismatch))
      .list("train_ms", trainMs)
      .list("samples_per_cpu_s", samplesPerCpuS)
      .num("peak_rss_mb", peakRssMb());
  if (trace) {
    const double n = static_cast<double>(trainMs.size());
    const auto perTraining = [&](const std::string& k) {
      const auto it = sums.find(k);
      return it == sums.end() ? 0.0 : it->second / n;
    };
    Json layers;
    for (int s = 0; s < kNumStages; ++s) {
      const std::string stage(stageName(static_cast<Stage>(s)));
      layers.num("nn.train_stage_ms." + stage,
                 perTraining("engine.train.stage_ns." + stage) / 1e6);
    }
    const double w2vNs = perTraining("w2v.train_ns");
    layers
        .num("corpus.shard_decode_ms",
             perTraining("corpus.shards.decode_ns") / 1e6)
        .num("train.prefetch_stall_ms",
             perTraining("train.prefetch_stall_ns") / 1e6)
        .num("corpus.shards_read", perTraining("corpus.shards.read"))
        .num("corpus.shards", shards / n)
        .num("embed.w2v_ms", w2vNs / 1e6)
        .num("embed.tokens_per_s",
             w2vNs > 0 ? perTraining("w2v.tokens_processed") / (w2vNs / 1e9)
                       : 0)
        .num("nn.adam_steps", perTraining("nn.adam.steps"));
    out.raw("layers", layers.done());
  }
  return out.done();
}

}  // namespace perfbench
