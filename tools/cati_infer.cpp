// cati-infer — run type inference over a (stripped) image: recover the
// variables of every function, classify and vote, and print a typed
// variable report. When the image still has debug info, prints ground truth
// next to each prediction and an accuracy summary.
//
// Hostile input is handled: a missing/corrupt model or image produces a
// one-line diagnostic on stderr and a typed nonzero exit, never a crash;
// images with garbage bytes degrade via recovering disassembly. One
// poisoned function degrades to a warning + the engine.analyze.degraded
// metric; the rest of the binary is still typed. --timeout-ms bounds the
// analysis: the binary's VUCs are predicted in one batched call, checked
// against the deadline before every NN sub-batch; on expiry the tool exits 0
// with a clean report whose summary reads `TIMEOUT after Tms: 0/N functions
// analyzed` — no function is typed from a cut predict.
//
// The analysis runs through serve::analyzeImage, which is the cati-serve
// pipeline (serve::PreparedRequest) on a group of one image — the serving
// equivalence guarantee (DESIGN.md §10) holds by construction.
#include <cstdio>
#include <string>

#include "cati/engine.h"
#include "cli.h"
#include "common/parallel.h"
#include "loader/image.h"
#include "serve/analysis.h"

namespace {

struct Options {
  std::string model;
  std::string image;
  cati::serve::AnalyzeOptions analyze;
  int jobs = 0;  // 0: CATI_JOBS env or hardware concurrency
  bool quant = false;
  bool useMmap = false;
};

int run(const Options& o, const cati::cli::Common& common) {
  using namespace cati;
  // --mmap: zero-copy model load (quantized containers keep their weights
  // in the mapping). --quant: run int8 inference — a quantized model file
  // is used as-is, an fp32 one is quantized in-process after loading.
  Engine engine = Engine::loadFile(
      o.model, o.useMmap ? Engine::LoadMode::kMap : Engine::LoadMode::kStream);
  if (o.quant && !engine.quantized()) engine = engine.quantize();
  DiagList diags;
  const auto img = loader::readFile(o.image, diags);
  if (!img) {
    cli::printDiags(diags, common);
    return 1;
  }

  // common.batch (or CATI_BATCH) sets the inference batch; results are
  // identical at any batch size, only throughput changes.
  par::ThreadPool pool(par::resolveJobs(o.jobs));
  const serve::AnalyzeResult result =
      serve::analyzeImage(engine, *img, &pool, common.batch, o.analyze);
  std::fputs(result.report.c_str(), stdout);
  diags.insert(diags.end(), result.diags.begin(), result.diags.end());
  cli::printDiags(diags, common);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cati;
  Options o;
  cli::Table table(
      "cati-infer",
      {cli::positional("MODEL.bin", &o.model),
       cli::positional("IMAGE.img", &o.image),
       cli::real("--confidence-min", "X", &o.analyze.confMin),
       cli::integer("--jobs", "N", &o.jobs, 1, par::kMaxJobs),
       cli::integer("--timeout-ms", "T", &o.analyze.timeoutMs, 1),
       cli::flag("--quant", &o.quant),
       cli::flag("--mmap", &o.useMmap)});
  return cli::toolMain(table, argc, argv,
                       [&] { return run(o, table.common()); });
}
