// infer-fp32: the cati-infer path. Each stripped image is parsed and run
// through serve::analyzeImage, one image at a time, on the fp32 engine with
// a pool of `jobs` workers and a fresh decode cache per image (what one
// cati-infer process has). The traced run also replays each image as a
// sequence of public per-layer calls, in analyzeImage's order, to split the
// time by layer.
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/obs.h"
#include "dataflow/interproc.h"
#include "ir/passes.h"
#include "loader/image.h"
#include "serve/analysis.h"

namespace perfbench {

namespace {

using namespace cati;

bool clean(const DiagList& diags) {
  for (const Diag& d : diags) {
    if (d.severity != Severity::Note) return false;
  }
  return true;
}

/// Seconds spent in each layer over the traced images. The top-level rows
/// (read+decode, recover, interproc, extract, predict, finish) partition the
/// composition's wall time; ir, encode and vote are re-timed beside the
/// sequence (their work also runs inside decode, predict and finish) and
/// are excluded from the wall.
struct LayerTimes {
  double decode = 0, ir = 0, recover = 0, interproc = 0, extract = 0,
         encode = 0, predict = 0, vote = 0, finish = 0, wall = 0;
};

/// Replays one image as public per-layer calls. Returns the rendered report,
/// which must equal analyzeImage's byte for byte.
std::string composeTimed(Engine& engine, const std::string& bytes,
                         par::ThreadPool& pool, LayerTimes& lt) {
  double side = 0;
  const double start = nowS();

  double t = nowS();
  std::istringstream is(bytes);
  DiagList diags;
  const std::optional<loader::Image> img = loader::tryRead(is, diags);
  if (!img) throw std::runtime_error("image rejected");
  loader::DecodeCache cache;
  std::vector<loader::LoadedFunction> fns =
      loader::disassemble(*img, diags, pool, cache);
  lt.decode += nowS() - t;

  t = nowS();
  for (const loader::LoadedFunction& fn : fns) {
    ir::FunctionGraph g = ir::lower(fn.insns, fn.insnAddrs);
    ir::runBlockPasses(g);
  }
  const double irS = nowS() - t;
  lt.ir += irS;
  side += irS;

  t = nowS();
  std::vector<dataflow::RecoveryResult> recs(fns.size());
  for (size_t i = 0; i < fns.size(); ++i) {
    recs[i] = dataflow::recoverVariables(*fns[i].graph);
  }
  lt.recover += nowS() - t;

  std::vector<dataflow::FunctionView> views(fns.size());
  for (size_t i = 0; i < fns.size(); ++i) {
    views[i] = {fns[i].name,      fns[i].addr,        fns[i].insns,
                fns[i].insnAddrs, fns[i].graph.get(), &recs[i]};
  }
  t = nowS();
  dataflow::propagateCallFacts(views);
  lt.interproc += nowS() - t;

  std::vector<StageProbs> allProbs;
  std::vector<float> buf(static_cast<size_t>(
      engine.encoder().rows(engine.config().window) * engine.encoder().cols()));
  for (size_t i = 0; i < fns.size(); ++i) {
    t = nowS();
    Engine::FunctionWork work =
        engine.prepareFunction(fns[i].insns, std::move(recs[i]));
    lt.extract += nowS() - t;

    t = nowS();
    for (const corpus::Vuc& v : work.ds.vucs) {
      engine.encoder().encodeChannelMajor(v, -1, buf);
    }
    const double encS = nowS() - t;
    lt.encode += encS;
    side += encS;

    t = nowS();
    std::vector<StageProbs> probs = engine.predictVucs(work.ds.vucs, &pool, 0);
    lt.predict += nowS() - t;

    t = nowS();
    DiagList voteDiags;
    engine.finishFunction(work, probs, &voteDiags);
    const double voteS = nowS() - t;
    lt.vote += voteS;
    side += voteS;

    allProbs.insert(allProbs.end(), std::make_move_iterator(probs.begin()),
                    std::make_move_iterator(probs.end()));
  }

  // Rendering is only reachable through PreparedRequest; its constructor
  // repeats phase 1, so it runs beside the sequence.
  t = nowS();
  const serve::PreparedRequest prep(engine, *img, &pool, 0.0F);
  side += nowS() - t;
  if (prep.vucs().size() != allProbs.size()) {
    throw std::runtime_error("composition: VUC count differs from "
                             "PreparedRequest");
  }
  t = nowS();
  const serve::AnalyzeResult res = prep.finish(engine, allProbs);
  lt.finish += nowS() - t;

  lt.wall += nowS() - start - side;
  return res.report;
}

std::string traceInfer(Engine& engine, const std::vector<ImageCase>& set,
                       par::ThreadPool& pool, double seconds) {
  LayerTimes lt;
  double untraced = 0;
  std::vector<double> untracedMs;  ///< wall time of each untraced analysis
  double traced = 0;
  size_t images = 0;
  size_t funcs = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t composeMismatch = 0;
  size_t counterMismatch = 0;
  Score score;
  // Program counters of the first traced analysis of each image, summed.
  std::map<std::string, double> sums;
  const double start = nowS();
  for (size_t i = 0; i < set.size() && (i == 0 || nowS() - start < seconds);
       ++i) {
    const ImageCase& c = set[i];
    attempted += 4;
    // Two traced analyses (their work counters must repeat exactly) and one
    // untraced; which comes first alternates, so warm-up favours neither.
    std::string plainReport;
    obs::Snapshot counters[2];
    for (int k = 0; k < 3; ++k) {
      const bool withObs = (k + static_cast<int>(i)) % 3 != 0;
      obs::Registry::global().reset();
      obs::setEnabled(withObs);
      const double t = nowS();
      serve::AnalyzeResult res;
      try {
        res = analyzeStripped(engine, c.bytes, pool);
      } catch (const std::exception&) {
        ++failed;
      }
      const double dt = nowS() - t;
      (withObs ? traced : untraced) += dt;
      if (!withObs) untracedMs.push_back(dt * 1e3);
      obs::setEnabled(false);
      if (!clean(res.diags)) ++failed;
      if (withObs) {
        counters[counters[0].counters.empty() ? 0 : 1] =
            obs::Registry::global().snapshot();
      }
      if (k > 0 && res.report != plainReport) ++failed;
      plainReport = res.report;
    }
    if (workCounters(counters[0]) != workCounters(counters[1])) {
      ++failed;
      ++counterMismatch;
    }
    for (const obs::CounterSnapshot& cs : counters[0].counters) {
      sums[cs.name] += static_cast<double>(cs.value);
    }
    for (const obs::HistogramSnapshot& h : counters[0].histograms) {
      sums[h.name + ".count"] += static_cast<double>(h.count);
      sums[h.name + ".sum"] += h.sum();
    }

    try {
      if (composeTimed(engine, c.bytes, pool, lt) != plainReport) {
        ++failed;
        ++composeMismatch;
      }
    } catch (const std::exception&) {
      ++failed;
      ++composeMismatch;
    }
    score.add(scoreReport(plainReport, c));
    ++images;
    funcs += c.funcs;
  }
  traced /= 2;
  const auto sum = [&](const std::string& k) {
    const auto it = sums.find(k);
    return it == sums.end() ? 0.0 : it->second;
  };

  const double n = static_cast<double>(images);
  const double inferVucs = sum("engine.infer.vucs");
  double forwards = 0;
  double flops = 0;
  for (int s = 0; s < kNumStages; ++s) {
    const auto st = static_cast<Stage>(s);
    const double k = sum("engine.infer.samples." + std::string(stageName(st)));
    forwards += k;
    flops += k * stageForwardFlops(engine.config(), st);
  }
  const double pad = sum("engine.infer.batch_pad");
  const double predictNs = sum("engine.infer.batch_ns.sum");
  const double attributed = lt.decode + lt.recover + lt.interproc + lt.extract +
                            lt.predict + lt.finish;
  Json layers;
  layers.num("loader.decode_ms", lt.decode / n * 1e3)
      .num("ir.lower_ms", lt.ir / n * 1e3)
      .num("loader.bytes_decoded", sum("loader.bytes_decoded") / n)
      .num("dataflow.recover_ms", lt.recover / n * 1e3)
      .num("dataflow.interproc_ms", lt.interproc / n * 1e3)
      .num("corpus.extract_ms", lt.extract / n * 1e3)
      .num("corpus.vucs_per_binary", inferVucs / n)
      .num("embed.encode_ms", lt.encode / n * 1e3)
      .num("nn.predict_ms", lt.predict / n * 1e3)
      .num("cati.vote_ms", lt.vote / n * 1e3)
      .num("serve.finish_ms", lt.finish / n * 1e3)
      .num("unattributed_ms", (lt.wall - attributed) / n * 1e3)
      .num("wall_ms", lt.wall / n * 1e3)
      .num("unattributed_frac", (lt.wall - attributed) / lt.wall)
      .num("nn.predict_calls_per_binary",
           sum("engine.infer.batch_ns.count") / n)
      .num("functions_per_binary", static_cast<double>(funcs) / n)
      .num("nn.forwards_per_vuc", inferVucs > 0 ? forwards / inferVucs : 0)
      .num("nn.lane_fill", inferVucs > 0 ? inferVucs / (inferVucs + pad) : 0)
      .num("nn.gflops", predictNs > 0 ? flops / predictNs : 0)
      .num("trace.untraced_ms", untraced / n * 1e3)
      .num("trace.traced_ms", traced / n * 1e3)
      .num("trace.overhead_ms", (traced - untraced) / n * 1e3)
      .num("trace.overhead_frac", (traced - untraced) / untraced);
  return Json()
      .integer("attempted", static_cast<int64_t>(attempted))
      .integer("failed", static_cast<int64_t>(failed))
      .integer("images", static_cast<int64_t>(images))
      .integer("compose_mismatch", static_cast<int64_t>(composeMismatch))
      .integer("counter_mismatch", static_cast<int64_t>(counterMismatch))
      .integer("matched", static_cast<int64_t>(score.matched))
      .integer("correct", static_cast<int64_t>(score.correct))
      .boolean("parsed", score.parsed)
      .list("untraced_ms", untracedMs)
      .raw("layers", layers.done())
      .done();
}

}  // namespace

std::string setupInfer(const Params& p, const fs::path& dir) {
  par::ThreadPool pool(static_cast<int>(p.integer("jobs")));
  trainBenchModel(p, pool).saveFile(dir / "model.ceng");
  saveImageSet(dir / "images.set",
               makeImageSet(p.seed(), static_cast<size_t>(p.integer("images")),
                            static_cast<int>(p.integer("funcs_min")),
                            static_cast<int>(p.integer("funcs_max")),
                            static_cast<int>(p.integer("funcs_step"))));
  return Json()
      .str("model", fileDigest(dir / "model.ceng"))
      .str("inputs", fileDigest(dir / "images.set"))
      .done();
}

std::string runInfer(const Params& p, const fs::path& dir) {
  obs::setEnabled(false);
  Engine engine = Engine::loadFile(dir / "model.ceng");
  const std::vector<ImageCase> set = loadImageSet(dir / "images.set");
  par::ThreadPool pool(static_cast<int>(p.integer("jobs")));
  const double seconds = p.num("seconds");
  if (p.integer("trace") != 0) return traceInfer(engine, set, pool, seconds);

  // Whole passes over the set, so every run sees the same size mix.
  std::vector<std::string> firstReports(set.size());
  std::vector<double> latMs;
  std::vector<double> cpuMs;
  Score score;
  size_t attempted = 0;
  size_t failed = 0;
  size_t reportMismatch = 0;
  size_t vucs = 0;
  const double start = nowS();
  for (int pass = 0; pass == 0 || nowS() - start < seconds; ++pass) {
    for (size_t i = 0; i < set.size(); ++i) {
      ++attempted;
      try {
        const double t0 = nowS();
        const double c0 = cpuS();
        const serve::AnalyzeResult res =
            analyzeStripped(engine, set[i].bytes, pool);
        const double dt = nowS() - t0;
        cpuMs.push_back((cpuS() - c0) * 1e3);
        latMs.push_back(dt * 1e3);
        const Score s = scoreReport(res.report, set[i]);
        vucs += s.vucs;
        if (pass == 0) {
          firstReports[i] = res.report;
          score.add(s);
        }
        // Output must repeat exactly from pass to pass.
        if (res.report != firstReports[i]) ++reportMismatch;
        if (!s.parsed || !clean(res.diags) || res.report != firstReports[i]) {
          ++failed;
        }
      } catch (const std::exception&) {
        ++failed;
      }
    }
  }
  return Json()
      .integer("attempted", static_cast<int64_t>(attempted))
      .integer("failed", static_cast<int64_t>(failed))
      .integer("matched", static_cast<int64_t>(score.matched))
      .integer("correct", static_cast<int64_t>(score.correct))
      .integer("report_mismatch", static_cast<int64_t>(reportMismatch))
      .num("vucs", static_cast<double>(vucs))
      .list("latency_ms", latMs)
      .list("cpu_ms", cpuMs)
      .num("peak_rss_mb", peakRssMb())
      .done();
}

}  // namespace perfbench
