// cati-train — train a CATI engine on a generated corpus and save the model.
//
// Crash safety (DESIGN.md §9): with --checkpoint DIR, training persists a
// resumable checkpoint after word2vec and at every --checkpoint-every epoch
// boundary; --resume continues from it and produces a model bit-identical
// to an uninterrupted run (same flags, any --jobs/--batch). The model and
// checkpoints are written atomically — a kill mid-write never leaves a torn
// file.
//
// Streaming training (DESIGN.md §12): with --corpus-dir DIR the training
// set comes from a sharded CSHD corpus built by `cati-synth --shards` and
// is never materialized — tokenization and per-stage gathers stream the
// shards with prefetch pipelining, so resident memory is bounded by two
// decoded shards plus the per-stage training subset. --max-resident SIZE
// (K/M/G) makes that bound an admission check: training refuses to start
// when the corpus's streaming working set exceeds the budget. For a fixed
// shard plan the model bytes are identical to the in-memory path.
#include <cstdio>
#include <string>

#include "cati/engine.h"
#include "cli.h"
#include "common/fs.h"
#include "common/parallel.h"
#include "corpus/corpus.h"
#include "corpus/sharded.h"
#include "synth/synth.h"

namespace {

struct Options {
  std::string out;
  int apps = 10;
  int funcs = 20;
  cati::synth::Dialect dialect = cati::synth::Dialect::Gcc;
  cati::EngineConfig cfg;
  uint64_t seed = 2026;
  int jobs = 0;  // 0: CATI_JOBS env or hardware concurrency
  cati::TrainCheckpointing ckpt;
  std::string quantizeOut;
  std::string corpusDir;
  unsigned long long maxResident = 0;  // 0: no admission check
};

int run(Options& o, const cati::cli::Table& table) {
  using namespace cati;
  EngineConfig& cfg = o.cfg;
  const TrainCheckpointing& ckpt = o.ckpt;
  if (ckpt.resume && ckpt.dir.empty()) {
    throw cli::UsageError("--resume requires --checkpoint DIR");
  }
  const bool sawGenFlag = table.given("--apps") || table.given("--funcs") ||
                          table.given("--dialect") || table.given("--seed");
  if (!o.corpusDir.empty() && sawGenFlag) {
    throw cli::UsageError(
        "--apps/--funcs/--dialect/--seed generate an in-memory corpus and "
        "conflict with --corpus-dir (the corpus is already on disk)");
  }
  if (o.corpusDir.empty() && o.maxResident > 0) {
    throw cli::UsageError("--max-resident requires --corpus-dir DIR");
  }

  // --batch / CATI_BATCH override the training minibatch size (a documented
  // hyperparameter: it changes the trained model, unlike inference batching).
  cfg.batchSize = par::resolveBatch(table.common().batch, cfg.batchSize);

  if (!ckpt.dir.empty() && std::filesystem::exists(ckpt.dir)) {
    // Sweep temps a crashed previous writer may have left next to the
    // checkpoint before this run starts writing its own.
    fs::cleanupStaleTemps(ckpt.dir);
  }

  par::ThreadPool pool(par::resolveJobs(o.jobs));
  const TrainCheckpointing* ckptp = ckpt.dir.empty() ? nullptr : &ckpt;
  const auto finish = [&](Engine& engine) {
    engine.saveFile(o.out);
    std::printf("model written to %s\n", o.out.c_str());
    if (!o.quantizeOut.empty()) {
      // Post-training int8 quantization: the fp32 model above stays the
      // source of truth; FILE gets the inference-only CQNT container.
      engine.quantize().saveFile(o.quantizeOut);
      std::printf("quantized model written to %s\n", o.quantizeOut.c_str());
    }
  };

  if (!o.corpusDir.empty()) {
    corpus::ShardedCorpus sc(o.corpusDir);
    if (table.given("--window") && cfg.window != sc.window()) {
      throw cli::UsageError(
          "--window " + std::to_string(cfg.window) +
          " disagrees with the corpus (built with --window " +
          std::to_string(sc.window()) +
          "); drop the flag or re-run cati-synth --shards");
    }
    cfg.window = sc.window();
    if (o.maxResident > 0) {
      // The engine keeps the union of all six stages' training subsets
      // resident (one gather pass instead of six), so the admission check
      // budgets stages x per-stage cap gathered VUCs.
      const uint64_t need = sc.streamingResidentBytes(
          static_cast<uint64_t>(kNumStages) * cfg.maxTrainPerStage);
      if (need > o.maxResident) {
        throw cli::UsageError(
            "--max-resident: streaming working set is ~" +
            std::to_string(need) + " bytes (> " +
            std::to_string(o.maxResident) +
            "); raise the budget, lower --cap, or rebuild the corpus with a "
            "smaller cati-synth --shard-vucs");
      }
    }
    std::printf("streaming corpus %s: %zu shards, %llu VUCs, %llu variables "
                "(window %d, %d jobs)\n",
                o.corpusDir.c_str(), sc.numShards(),
                static_cast<unsigned long long>(sc.numVucs()),
                static_cast<unsigned long long>(sc.numVars()), cfg.window,
                pool.jobs());
    Engine engine(cfg);
    corpus::ShardedSource src(sc);
    engine.train(src, &pool, ckptp);
    finish(engine);
    return 0;
  }

  std::printf("generating corpus: %d apps x O0-O3 x %d functions (%s, %d "
              "jobs)\n",
              o.apps, o.funcs,
              std::string(synth::dialectName(o.dialect)).c_str(), pool.jobs());
  const auto bins =
      synth::generateCorpus(o.apps, o.funcs, o.dialect, o.seed, &pool);
  const corpus::Dataset train =
      corpus::extractAll(bins, cfg.window, true, &pool);
  std::printf("  %zu variables, %zu VUCs\n", train.vars.size(),
              train.vucs.size());

  Engine engine(cfg);
  engine.train(train, &pool, ckptp);
  finish(engine);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cati;
  using cati::cli::integer;
  Options o;
  o.cfg.verbose = true;
  o.cfg.epochs = 4;
  o.cfg.maxTrainPerStage = 10000;
  o.cfg.fcHidden = 96;
  cli::Table table(
      "cati-train",
      {cli::positional("MODEL.bin", &o.out),
       integer("--apps", "N", &o.apps, 1),
       integer("--funcs", "K", &o.funcs, 1),
       cli::choice("--dialect", &o.dialect,
                   {{"gcc", synth::Dialect::Gcc},
                    {"clang", synth::Dialect::Clang}}),
       cli::text("--corpus-dir", "DIR", &o.corpusDir),
       cli::size("--max-resident", "SIZE", &o.maxResident, 1),
       integer("--epochs", "E", &o.cfg.epochs, 0),
       integer("--cap", "C", &o.cfg.maxTrainPerStage, 1),
       integer("--hidden", "H", &o.cfg.fcHidden, 1),
       integer("--window", "W", &o.cfg.window, 0),
       integer("--dim", "D", &o.cfg.w2v.dim, 1),
       cli::seed("--seed", &o.seed),
       cli::flag("--quiet", &o.cfg.verbose, false),
       integer("--jobs", "N", &o.jobs, 1, par::kMaxJobs),
       cli::text("--checkpoint", "DIR", &o.ckpt.dir),
       integer("--checkpoint-every", "N", &o.ckpt.everyEpochs, 1),
       cli::flag("--resume", &o.ckpt.resume),
       cli::text("--quantize", "FILE", &o.quantizeOut)});
  return cli::toolMain(table, argc, argv,
                       [&] { return run(o, table); });
}
