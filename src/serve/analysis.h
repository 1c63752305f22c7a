// Request-scoped analysis shared by cati-infer and cati-serve
// (DESIGN.md §10). There is one pipeline, PreparedRequest, and one renderer:
//
//   phase 1  the constructor: disassemble, recover every function, run the
//            interprocedural pass, extract every function's VUCs into one
//            buffer (per-function degradation happens here);
//   phase 2  the caller: ONE Engine::predictRouted over vucs() and varOf();
//   phase 3  finish(): votes, per-variable degradation, report rendering.
//
// cati-serve concatenates many requests' vucs() into one predict. cati-infer
// (analyzeImage) runs the same three phases on a group of one, so offline
// and serve output are byte-identical by construction: there is no second
// analysis loop or formatting path to drift. Batch-major kernels preserve
// per-sample accumulation order (DESIGN.md §7), so a request's slice of a
// coalesced predict is bit-identical to predicting it alone.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cati/engine.h"
#include "common/diag.h"
#include "common/parallel.h"
#include "loader/image.h"

namespace cati::serve {

struct AnalyzeOptions {
  float confMin = 0.0F;
  /// Offline only (--timeout-ms); the daemon never sets a deadline, so its
  /// output matches an offline run without one.
  long timeoutMs = 0;
  /// Optional decode+lowering cache shared across analyses of the same
  /// bytes (the daemon's batch loop). Purely a speedup: output is
  /// bit-identical with or without it.
  loader::DecodeCache* cache = nullptr;
};

struct AnalyzeResult {
  std::string report;  ///< exactly what cati-infer prints on stdout
  DiagList diags;      ///< disassembly + degradation diagnostics, tool order
  /// Every function's typed variables, in function order and before the
  /// confidence floor; a degraded function's entry is empty. Empty after
  /// a timeout.
  std::vector<std::vector<AnalyzedVariable>> functions;
};

/// The full offline analysis of one image: a PreparedRequest of one image,
/// one predictRouted over its VUCs, then finish(). With timeoutMs > 0 the
/// budget runs from this call: phase 1 always completes, and the deadline,
/// armed on the engine for the predict, is checked before every NN
/// sub-batch. Expiry yields a clean report with no function typed and the
/// `TIMEOUT after Tms: 0/N functions analyzed` summary (finishTimedOut).
/// The engine's deadline is cleared before returning.
AnalyzeResult analyzeImage(Engine& engine, const loader::Image& img,
                           par::ThreadPool* pool, int batch,
                           const AnalyzeOptions& opts = {});

class PreparedRequest {
 public:
  /// Phase 1 for every function of `img`: disassemble (via `pool`, through
  /// `cache` when given, else uncached), recover every function off its
  /// FunctionGraph, run the interprocedural call-fact pass over the whole
  /// binary, then Engine::prepareFunction per function. A function whose
  /// preparation throws degrades to a Warning diag (and the
  /// engine.analyze.degraded counter) and contributes no VUCs; a
  /// TimeoutError from a deadline armed on `engine` propagates.
  PreparedRequest(const Engine& engine, loader::Image img,
                  par::ThreadPool* pool, float confMin,
                  loader::DecodeCache* cache = nullptr);

  /// Every VUC of every surviving function, concatenated in function order —
  /// the unit of prediction (and of the daemon's cross-request coalescing).
  /// Each VUC is held once: the per-function work keeps only its var ids.
  const std::vector<corpus::Vuc>& vucs() const { return vucs_; }
  /// Request-wide variable index of each VUC (its function's variable base
  /// plus its local varId), in [0, numVars()): predictRouted's routing key.
  /// The daemon shifts each request's ids by a running offset when it
  /// coalesces.
  const std::vector<uint32_t>& varOf() const { return varOf_; }
  size_t numVars() const { return numVars_; }

  /// Phase 3: votes, per-variable degradation and report rendering from this
  /// request's probabilities (probs.size() must equal vucs().size()), routed
  /// or eager — the votes read only each variable's voted path.
  /// Diagnostics are assembled in function order: disassembly first, then
  /// each function's fragment regardless of which phase produced it.
  AnalyzeResult finish(const Engine& engine,
                       std::span<const StageProbs> probs) const;

  /// Phase 3 when the predict was cut by a `timeoutMs` deadline: no function
  /// is typed, the summary ends in the TIMEOUT line, and a Warning diag
  /// follows the disassembly and preparation diagnostics.
  AnalyzeResult finishTimedOut(long timeoutMs) const;

 private:
  struct PreparedFn {
    loader::LoadedFunction fn;
    /// nullopt when preparation degraded (diag already in `frag`).
    std::optional<Engine::FunctionWork> work;
    size_t vucBegin = 0;  ///< this function's first VUC in vucs_
    DiagList frag;  ///< this function's prepare-phase diagnostics
  };

  loader::Image img_;
  float confMin_;
  DiagList preDiags_;  ///< disassembly diagnostics
  std::vector<PreparedFn> fns_;
  std::vector<corpus::Vuc> vucs_;
  std::vector<uint32_t> varOf_;
  size_t numVars_ = 0;
};

}  // namespace cati::serve
