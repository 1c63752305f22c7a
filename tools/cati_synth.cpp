// cati-synth — generate a synthetic binary image (machine code + symbols +
// debug info), the corpus substrate in file form. The image is written
// atomically (DESIGN.md §9): a crash mid-write never leaves a torn OUT.img.
//
// With --shards DIR the tool instead builds a whole training corpus as a
// sharded CSHD directory (DESIGN.md §12): binaries are generated one at a
// time from the same deterministic plan generateCorpus uses, their VUCs are
// extracted and appended into shard files of ~--shard-vucs VUCs each, and
// the manifest is published last. Every file lands via fs::atomicWrite, so
// a killed run leaves only complete shards (and no manifest); rerunning
// rebuilds the corpus from scratch. --progress reports binaries/shards/VUCs
// on stderr at every shard boundary.
#include <cstdio>
#include <string>

#include "cli.h"
#include "common/fs.h"
#include "common/parallel.h"
#include "corpus/corpus.h"
#include "corpus/sharded.h"
#include "loader/image.h"
#include "synth/synth.h"

namespace {

struct Options {
  std::string out;        // image mode: OUT.img
  std::string shardsDir;  // shard mode: --shards DIR
  std::string name = "app";
  int apps = 10;
  int funcs = -1;  // defaults differ per mode (12 image, 20 corpus)
  cati::synth::Dialect dialect = cati::synth::Dialect::Gcc;
  int opt = 2;
  int window = 10;
  uint64_t shardVucs = 4096;
  uint64_t seed = 1;
  bool doStrip = false;
  bool progress = false;
  int jobs = 0;  // 0: CATI_JOBS env or hardware concurrency
};

int runShards(const Options& o, cati::par::ThreadPool& pool) {
  using namespace cati;
  // Same plan, same draw order as generateCorpus — the concatenated shard
  // stream is byte-identical to the in-memory corpus — but only one binary
  // (plus the open shard) is ever resident.
  const std::vector<synth::CorpusJob> plan =
      synth::corpusPlan(o.apps, o.funcs < 0 ? 20 : o.funcs, o.seed);
  corpus::ShardWriter writer(o.shardsDir, o.window, o.shardVucs);
  size_t lastShards = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    const synth::CorpusJob& j = plan[i];
    const synth::Binary bin =
        synth::generateBinary(j.profile, o.dialect, j.opt, j.seed, &pool);
    writer.append(corpus::extractGroundTruth(bin, o.window));
    if (o.progress && writer.shardsWritten() != lastShards) {
      lastShards = writer.shardsWritten();
      std::fprintf(stderr,
                   "cati-synth: %zu/%zu binaries, %zu shards, %llu VUCs\n",
                   i + 1, plan.size(), lastShards,
                   static_cast<unsigned long long>(writer.vucsWritten()));
    }
  }
  writer.finish();
  std::printf("%s: %zu shards, %llu VUCs, %llu variables, %zu binaries "
              "(window %d, %s)\n",
              o.shardsDir.c_str(), writer.shardsWritten(),
              static_cast<unsigned long long>(writer.vucsWritten()),
              static_cast<unsigned long long>(writer.varsWritten()),
              plan.size(), o.window,
              std::string(synth::dialectName(o.dialect)).c_str());
  return 0;
}

int run(const Options& o, const cati::cli::Table& table) {
  using namespace cati;
  const bool sawImageOnly = table.given("--name") || table.given("--opt") ||
                            table.given("--strip");
  const bool sawShardOnly = table.given("--apps") || table.given("--window") ||
                            table.given("--shard-vucs") ||
                            table.given("--progress");
  if (!o.shardsDir.empty()) {
    if (!o.out.empty()) {
      throw cli::UsageError("--shards builds a corpus directory; drop the "
                            "OUT.img argument");
    }
    if (sawImageOnly) {
      throw cli::UsageError(
          "--name/--opt/--strip are single-image flags; with --shards the "
          "corpus spans all apps and optimization levels");
    }
  } else {
    if (o.out.empty()) throw cli::UsageError("missing OUT.img or --shards DIR");
    if (sawShardOnly) {
      throw cli::UsageError(
          "--apps/--window/--shard-vucs/--progress require --shards DIR");
    }
  }

  par::ThreadPool pool(par::resolveJobs(o.jobs));
  if (!o.shardsDir.empty()) return runShards(o, pool);

  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile(o.name, o.seed ^ 0xabc, o.funcs < 0 ? 12 : o.funcs),
      o.dialect, o.opt, o.seed, &pool);
  loader::Image img = loader::buildImage(bin);
  if (o.doStrip) loader::strip(img);

  fs::atomicWrite(o.out, [&img](std::ostream& os) { loader::write(img, os); });
  std::printf("%s: %zu functions, %zu bytes of .text, %zu symbols%s\n",
              o.out.c_str(), img.boundaries.size(), img.text.size(),
              img.symbols.size(), o.doStrip ? " (stripped)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cati;
  using cati::cli::integer;
  Options o;
  cli::Table table(
      "cati-synth",
      {cli::positional("OUT.img", &o.out, /*required=*/false),
       cli::text("--shards", "DIR", &o.shardsDir),
       cli::text("--name", "N", &o.name),
       integer("--apps", "N", &o.apps, 1),
       integer("--funcs", "K", &o.funcs, 1),
       cli::choice("--dialect", &o.dialect,
                   {{"gcc", synth::Dialect::Gcc},
                    {"clang", synth::Dialect::Clang}}),
       integer("--opt", "0..3", &o.opt, 0, 3),
       integer("--window", "W", &o.window, 0),
       integer("--shard-vucs", "N", &o.shardVucs, 1),
       cli::seed("--seed", &o.seed),
       cli::flag("--strip", &o.doStrip),
       cli::flag("--progress", &o.progress),
       integer("--jobs", "N", &o.jobs, 1, par::kMaxJobs)},
      "  OUT.img writes one image; --shards DIR writes a training corpus\n");
  return cli::toolMain(table, argc, argv, [&] { return run(o, table); });
}
