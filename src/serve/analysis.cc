#include "serve/analysis.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/errors.h"
#include "common/obs.h"
#include "dataflow/interproc.h"

namespace cati::serve {

namespace {

/// printf-into-a-string; the report renderer keeps the exact format strings
/// the offline tool always used, so the bytes cannot drift.
__attribute__((format(printf, 2, 3))) void appendf(std::string& out,
                                                   const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n < 0) return;
  if (static_cast<size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<size_t>(n));
    return;
  }
  std::string big(static_cast<size_t>(n), '\0');
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size() + 1, fmt, args);
  va_end(args);
  out.append(big);
}

struct ReportStats {
  size_t total = 0;
  size_t withTruth = 0;
  size_t correct = 0;
};

/// One function's section of the report: header, then one row per variable
/// above the confidence floor, with ground truth when debug info survives.
/// Must be called only when `vars` is non-empty (the header prints even if
/// every variable is filtered out — the historical cati-infer behaviour).
void appendFunctionReport(std::string& out, const loader::Image& img,
                          const loader::LoadedFunction& fn,
                          std::span<const AnalyzedVariable> vars,
                          float confMin, ReportStats& stats) {
  appendf(out, "%s:\n", fn.name.c_str());

  // Ground truth by frame offset, when debug info survives.
  std::unordered_map<int64_t, TypeLabel> truth;
  if (img.debug) {
    for (const debuginfo::FunctionDie& die : img.debug->functions) {
      // Match by address range (lowPc is an instruction index in the
      // original binary; match by name instead).
      if (die.name != fn.name) continue;
      for (const debuginfo::VariableDie& v : die.variables) {
        const auto cls = debuginfo::classify(*img.debug, v.typeIndex);
        if (cls) truth[v.frameOffset] = *cls;
      }
    }
  }

  for (const AnalyzedVariable& av : vars) {
    if (av.confidence < confMin) continue;
    ++stats.total;
    const char* truthName = "";
    const auto it = truth.find(av.location.offset);
    if (it != truth.end()) {
      ++stats.withTruth;
      if (it->second == av.type) ++stats.correct;
      truthName = typeName(it->second).data();
    }
    appendf(out, "  %s%+-6lld %-22s conf %.2f  (%zu VUCs)   %s\n",
            av.location.rbpFrame ? "rbp" : "rsp",
            static_cast<long long>(av.location.offset),
            std::string(typeName(av.type)).c_str(), av.confidence, av.numVucs,
            truthName);
  }
}

/// The summary line without its newline: finish() ends it there,
/// finishTimedOut() appends the TIMEOUT note first.
void appendSummary(std::string& out, const ReportStats& stats) {
  appendf(out, "\n%zu variables typed", stats.total);
  if (stats.withTruth > 0) {
    appendf(out, "; accuracy vs surviving debug info: %.1f%% (%zu/%zu)",
            100.0 * static_cast<double>(stats.correct) /
                static_cast<double>(stats.withTruth),
            stats.correct, stats.withTruth);
  }
}

void addDegradedFnDiag(DiagList* diags, const loader::LoadedFunction& fn,
                       const std::exception& e) {
  // Per-function isolation: one poisoned function must not abort the
  // binary. Record it and move on.
  obs::counter("engine.analyze.degraded").add();
  addDiag(diags, Severity::Warning, DiagStage::Engine, fn.addr,
          "function " + fn.name + " skipped (degraded): " + e.what());
}

}  // namespace

AnalyzeResult analyzeImage(Engine& engine, const loader::Image& img,
                           par::ThreadPool* pool, int batch,
                           const AnalyzeOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  const PreparedRequest prep(engine, img, pool, opts.confMin, opts.cache);
  if (opts.timeoutMs > 0) {
    engine.setDeadline(start + std::chrono::milliseconds(opts.timeoutMs));
  }
  std::vector<StageProbs> probs;
  try {
    probs = engine.predictRouted(prep.vucs(), prep.varOf(), prep.numVars(),
                                 pool, batch);
  } catch (const TimeoutError&) {
    engine.setDeadline(std::nullopt);
    return prep.finishTimedOut(opts.timeoutMs);
  }
  engine.setDeadline(std::nullopt);
  return prep.finish(engine, probs);
}

PreparedRequest::PreparedRequest(const Engine& engine, loader::Image img,
                                 par::ThreadPool* pool, float confMin,
                                 loader::DecodeCache* cache)
    : img_(std::move(img)), confMin_(confMin) {
  // An inline pool stands in when the caller has none, and a 0-byte (off)
  // cache when it has no cache: the output depends on neither.
  std::optional<par::ThreadPool> inlinePool;
  if (pool == nullptr) pool = &inlinePool.emplace(1);
  loader::DecodeCache noCache(0);
  if (cache == nullptr) cache = &noCache;
  std::vector<loader::LoadedFunction> fns =
      loader::disassemble(img_, preDiags_, *pool, *cache);

  // Recover every function off its loader FunctionGraph (decode-cache hits
  // skip relowering), then run the binary-level interprocedural pass so
  // parameter hints decorate the recoveries before extraction.
  std::vector<dataflow::RecoveryResult> recs(fns.size());
  std::vector<dataflow::FunctionView> views(fns.size());
  for (size_t i = 0; i < fns.size(); ++i) {
    recs[i] = dataflow::recoverVariables(*fns[i].graph);
    views[i] = {fns[i].name,      fns[i].addr,        fns[i].insns,
                fns[i].insnAddrs, fns[i].graph.get(), &recs[i]};
  }
  dataflow::propagateCallFacts(views);

  fns_.reserve(fns.size());
  for (size_t i = 0; i < fns.size(); ++i) {
    PreparedFn pf;
    pf.fn = std::move(fns[i]);
    try {
      Engine::FunctionWork work =
          engine.prepareFunction(pf.fn.insns, std::move(recs[i]));
      // The windows move into the request-wide buffer; finishFunction reads
      // only each VUC's var id, so that is all the work keeps.
      pf.vucBegin = vucs_.size();
      for (corpus::Vuc& v : work.ds.vucs) {
        varOf_.push_back(static_cast<uint32_t>(numVars_ + v.varId));
        corpus::Vuc idOnly;
        idOnly.varId = v.varId;
        vucs_.push_back(std::exchange(v, std::move(idOnly)));
      }
      numVars_ += work.rec.vars.size();
      pf.work = std::move(work);
    } catch (const TimeoutError&) {
      throw;
    } catch (const std::exception& e) {
      addDegradedFnDiag(&pf.frag, pf.fn, e);
    }
    fns_.push_back(std::move(pf));
  }
}

AnalyzeResult PreparedRequest::finish(const Engine& engine,
                                      std::span<const StageProbs> probs) const {
  AnalyzeResult res;
  res.diags = preDiags_;
  ReportStats stats;
  for (const PreparedFn& pf : fns_) {
    // Diagnostics assemble per function so a prepare-phase degradation in a
    // later function cannot jump ahead of an earlier function's vote-phase
    // diagnostics.
    DiagList frag = pf.frag;
    std::vector<AnalyzedVariable> vars;
    if (pf.work) {
      try {
        vars = engine.finishFunction(
            *pf.work, probs.subspan(pf.vucBegin, pf.work->ds.vucs.size()),
            &frag);
      } catch (const std::exception& e) {
        addDegradedFnDiag(&frag, pf.fn, e);
      }
    }
    if (!vars.empty()) {
      appendFunctionReport(res.report, img_, pf.fn, vars, confMin_, stats);
    }
    res.functions.push_back(std::move(vars));
    res.diags.insert(res.diags.end(), frag.begin(), frag.end());
  }
  appendSummary(res.report, stats);
  res.report += '\n';
  return res;
}

AnalyzeResult PreparedRequest::finishTimedOut(long timeoutMs) const {
  AnalyzeResult res;
  res.diags = preDiags_;
  for (const PreparedFn& pf : fns_) {
    res.diags.insert(res.diags.end(), pf.frag.begin(), pf.frag.end());
  }
  appendSummary(res.report, ReportStats{});
  appendf(res.report, "; TIMEOUT after %ldms: 0/%zu functions analyzed\n",
          timeoutMs, fns_.size());
  addDiag(&res.diags, Severity::Warning, DiagStage::Engine, 0,
          "analysis deadline exceeded: partial results (0/" +
              std::to_string(fns_.size()) + " functions)");
  return res;
}

}  // namespace cati::serve
