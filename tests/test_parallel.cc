// Differential suite for the deterministic-parallelism contract
// (DESIGN.md §7): for any fixed seed, jobs=1 and jobs=N produce
// bit-identical corpora, trained model files and predictions. The heavy
// end-to-end comparisons are consolidated into single TEST cases because
// gtest_discover_tests runs every TEST in its own process — splitting them
// would retrain the micro model once per case.
//
// Also run under -DCATI_SANITIZE=thread in CI, where these same tests double
// as the TSan workload for the thread pool and every pooled pipeline stage.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/obs.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "loader/image.h"
#include "serve/analysis.h"
#include "support/micro_model.h"

namespace cati {
namespace {

TEST(ResolveJobs, ExplicitRequestWins) {
  EXPECT_EQ(par::resolveJobs(3), 3);
  EXPECT_EQ(par::resolveJobs(1), 1);
}

TEST(ResolveJobs, EnvFallbackAndValidation) {
  ::setenv("CATI_JOBS", "5", 1);
  EXPECT_EQ(par::resolveJobs(), 5);
  EXPECT_EQ(par::resolveJobs(2), 2);  // explicit still wins
  ::setenv("CATI_JOBS", "not-a-number", 1);
  EXPECT_GE(par::resolveJobs(), 1);  // invalid env ignored, hw fallback
  ::setenv("CATI_JOBS", "-4", 1);
  EXPECT_GE(par::resolveJobs(), 1);
  // The env bound is the --jobs flag's bound (resolution only: no pool).
  ::setenv("CATI_JOBS", std::to_string(par::kMaxJobs).c_str(), 1);
  EXPECT_EQ(par::resolveJobs(), par::kMaxJobs);
  ::setenv("CATI_JOBS", std::to_string(par::kMaxJobs + 1).c_str(), 1);
  EXPECT_LE(par::resolveJobs(), par::kMaxJobs);
  ::unsetenv("CATI_JOBS");
  EXPECT_GE(par::resolveJobs(), 1);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  par::ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4);
  constexpr size_t kTasks = 1000;
  std::vector<int> hits(kTasks, 0);
  std::atomic<size_t> total{0};
  pool.run(kTasks, [&](size_t t, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    ++hits[t];  // distinct tasks write distinct slots
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), kTasks);
  for (size_t t = 0; t < kTasks; ++t) EXPECT_EQ(hits[t], 1) << "task " << t;
}

TEST(ThreadPool, SingleJobRunsInlineInOrder) {
  par::ThreadPool pool(1);
  std::vector<size_t> order;
  pool.run(17, [&](size_t t, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(t);
  });
  std::vector<size_t> expect(17);
  std::iota(expect.begin(), expect.end(), size_t{0});
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, RethrowsLowestIndexedFailure) {
  par::ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    try {
      pool.run(64, [&](size_t t, int) {
        if (t == 10 || t == 50) {
          throw std::runtime_error("task " + std::to_string(t));
        }
      });
      FAIL() << "run() should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 10") << "trial " << trial;
    }
    // The pool must remain usable after an exception.
    std::atomic<size_t> ran{0};
    pool.run(8, [&](size_t, int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8U);
  }
}

TEST(Chunking, BoundariesPartitionAndDependOnlyOnSize) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{32},
                         size_t{33}, size_t{1000}}) {
    for (const size_t grain : {size_t{1}, size_t{4}, size_t{7}}) {
      const size_t chunks = par::numChunks(n, grain);
      size_t covered = 0;
      size_t prevEnd = 0;
      for (size_t c = 0; c < chunks; ++c) {
        const par::ChunkRange r = par::chunkRange(n, grain, c);
        EXPECT_EQ(r.begin, prevEnd);
        EXPECT_GT(r.end, r.begin);
        EXPECT_LE(r.end, n);
        covered += r.end - r.begin;
        prevEnd = r.end;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " grain=" << grain;
      EXPECT_EQ(prevEnd, n);
    }
  }
}

TEST(OrderedReduction, MatchesSerialFoldForNonCommutativeCombine) {
  // String concatenation is associative but NOT commutative: any reduction
  // that combined partials in completion order instead of chunk order would
  // scramble the result under real scheduling.
  constexpr size_t kGrain = 5;
  for (const size_t n :
       {size_t{0}, size_t{1}, size_t{4}, size_t{103}, size_t{512}}) {
    std::string serial;
    for (size_t i = 0; i < n; ++i) serial += std::to_string(i * 7 % 13) + ",";

    for (const int jobs : {1, 2, 7}) {
      par::ThreadPool pool(jobs);
      const std::string got = par::parallelMapReduce(
          pool, n, kGrain, std::string{},
          [](size_t b, size_t e, size_t) {
            std::string part;
            for (size_t i = b; i < e; ++i) {
              part += std::to_string(i * 7 % 13) + ",";
            }
            return part;
          },
          [](std::string& acc, std::string part) { acc += part; });
      EXPECT_EQ(got, serial) << "n=" << n << " jobs=" << jobs;
    }
  }
}

TEST(ResolveBatch, ExplicitEnvAndFallback) {
  EXPECT_EQ(par::resolveBatch(4, 32), 4);  // explicit request wins
  ::setenv("CATI_BATCH", "12", 1);
  EXPECT_EQ(par::resolveBatch(0, 32), 12);
  EXPECT_EQ(par::resolveBatch(3, 32), 3);  // explicit still beats env
  ::setenv("CATI_BATCH", "not-a-number", 1);
  EXPECT_EQ(par::resolveBatch(0, 32), 32);  // invalid env ignored
  ::setenv("CATI_BATCH", "-2", 1);
  EXPECT_EQ(par::resolveBatch(0, 32), 32);
  ::setenv("CATI_BATCH", std::to_string(par::kMaxBatch).c_str(), 1);
  EXPECT_EQ(par::resolveBatch(0, 32), par::kMaxBatch);
  ::setenv("CATI_BATCH", std::to_string(par::kMaxBatch + 1).c_str(), 1);
  EXPECT_EQ(par::resolveBatch(0, 32), 32);
  ::unsetenv("CATI_BATCH");
  EXPECT_EQ(par::resolveBatch(0, 32), 32);
  EXPECT_EQ(par::resolveBatch(0, 0), 1);  // floor at one sample
}

TEST(TestCache, CorruptEntryMeansRetraining) {
  // testsupport::cachedEngine never trusts a damaged entry: a load error
  // runs `train`, republishes, and the next call is a cache hit.
  const std::string good =
      testsupport::serializeEngine(testsupport::cachedMicroEngine());
  const auto path = testsupport::cachePath("corrupt_probe", 1);
  testsupport::writeCache(path, good.substr(0, good.size() / 2));
  int trained = 0;
  const auto train = [&] {
    ++trained;
    return good;
  };
  EXPECT_EQ(testsupport::serializeEngine(
                testsupport::cachedEngine("corrupt_probe", 1, train)),
            good);
  EXPECT_EQ(trained, 1);
  EXPECT_EQ(testsupport::serializeEngine(
                testsupport::cachedEngine("corrupt_probe", 1, train)),
            good);
  EXPECT_EQ(trained, 1);
  std::filesystem::remove(path);
}

TEST(SplitSeed, PureAndStreamDistinct) {
  EXPECT_EQ(splitSeed(42, 0), splitSeed(42, 0));
  std::vector<uint64_t> seen;
  for (uint64_t s = 0; s < 1000; ++s) seen.push_back(splitSeed(42, s));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "collision within 1000 streams of one base seed";
  EXPECT_NE(splitSeed(42, 7), splitSeed(43, 7));
}

// --- end-to-end byte-identity across job counts ---------------------------

std::string serializeDataset(const corpus::Dataset& ds) {
  std::ostringstream os;
  corpus::save(ds, os);
  return std::move(os).str();
}

TEST(JobsInvariance, CorpusBytesIdenticalAcrossJobs) {
  // synth (per-binary fan-out) + VUC extraction (per-binary fan-out): the
  // serialized dataset must be the same byte string at every job count,
  // including the machine's own default.
  par::ThreadPool serial(1);
  const std::string ref = serializeDataset(testsupport::microDataset(&serial));
  ASSERT_FALSE(ref.empty());
  for (const int jobs : {2, 7, par::resolveJobs()}) {
    par::ThreadPool pool(jobs);
    const std::string got =
        serializeDataset(testsupport::microDataset(&pool));
    ASSERT_EQ(got.size(), ref.size()) << "jobs=" << jobs;
    EXPECT_TRUE(got == ref) << "dataset bytes differ at jobs=" << jobs;
  }
}

TEST(JobsInvariance, ModelPredictionAndVoteBytesIdenticalAcrossJobs) {
  // The heavyweight differential: full training (word2vec rounds + six CNN
  // stages) at jobs 1/2/7 must serialize to the same CENG byte string, and
  // batched parallel inference must equal the serial predictVuc loop
  // bit-for-bit, which forces vote equality too.
  //
  // Metrics ride along on the same runs: with observability enabled, every
  // non-timing metric (counters, Count-unit histograms) in the global
  // snapshot must also be bit-identical across job counts (DESIGN.md §8).
  obs::setEnabled(true);
  const auto trainWithMetrics = [](int jobs) {
    obs::Registry::global().reset();
    std::string bytes = testsupport::trainMicroEngineBytes(jobs);
    return std::pair(std::move(bytes),
                     obs::Registry::global().snapshot().withoutTimings());
  };

  const auto [ref, metricsSerial] = trainWithMetrics(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_FALSE(metricsSerial.counters.empty());
  // Shared with test_golden.
  testsupport::writeCache(
      testsupport::cachePath(testsupport::kMicroKey, testsupport::kMicroRev),
      ref);

  for (const int jobs : {2, 7}) {
    const auto [got, metrics] = trainWithMetrics(jobs);
    ASSERT_EQ(got.size(), ref.size()) << "jobs=" << jobs;
    EXPECT_TRUE(got == ref) << "model bytes differ at jobs=" << jobs;
    EXPECT_EQ(metrics, metricsSerial)
        << "non-timing metrics differ at jobs=" << jobs;
  }

  std::istringstream is(ref);
  Engine engine = Engine::load(is);
  const corpus::Dataset ds = testsupport::microDataset();

  std::vector<StageProbs> serialProbs;
  serialProbs.reserve(ds.vucs.size());
  for (const corpus::Vuc& v : ds.vucs) {
    serialProbs.push_back(engine.predictVuc(v));
  }
  par::ThreadPool pool(5);
  const std::vector<StageProbs> poolProbs = engine.predictVucs(ds.vucs, &pool);
  ASSERT_EQ(poolProbs.size(), serialProbs.size());
  for (size_t i = 0; i < serialProbs.size(); ++i) {
    for (int s = 0; s < kNumStages; ++s) {
      // Exact float equality on purpose: the contract is bit-identity.
      EXPECT_TRUE(serialProbs[i].probs[static_cast<size_t>(s)] ==
                  poolProbs[i].probs[static_cast<size_t>(s)])
          << "vuc " << i << " stage " << s;
    }
  }

  const auto byVar = ds.vucsByVar();
  for (size_t v = 0; v < byVar.size(); ++v) {
    if (byVar[v].empty()) continue;
    std::vector<StageProbs> a;
    std::vector<StageProbs> b;
    for (const uint32_t i : byVar[v]) {
      a.push_back(serialProbs[i]);
      b.push_back(poolProbs[i]);
    }
    const VariableDecision da = engine.voteVariable(a);
    const VariableDecision db = engine.voteVariable(b);
    EXPECT_EQ(da.finalType, db.finalType) << "var " << v;
    EXPECT_TRUE(da.stageClass == db.stageClass) << "var " << v;
  }

  // End-to-end analyze path — the one cati-infer runs (disassembly,
  // recovery, interproc, extraction, one predict, vote, render): report and
  // rendered diagnostics are byte-identical at any job count and batch size.
  const auto bins = testsupport::microBinaries();
  ASSERT_FALSE(bins.empty());
  for (const bool stripped : {true, false}) {
    loader::Image img = loader::buildImage(bins[0]);
    if (stripped) loader::strip(img);
    std::string refReport;
    std::string refDiags;
    for (const int jobs : {1, 4}) {
      par::ThreadPool imgPool(jobs);
      for (const int batch : {1, 32}) {
        const serve::AnalyzeResult res =
            serve::analyzeImage(engine, img, &imgPool, batch);
        std::ostringstream diags;
        print(res.diags, diags);
        if (refReport.empty()) {
          ASSERT_NE(res.report.find("variables typed"), std::string::npos);
          refReport = res.report;
          refDiags = diags.str();
          continue;
        }
        EXPECT_EQ(res.report, refReport)
            << "stripped=" << stripped << " jobs=" << jobs
            << " batch=" << batch;
        EXPECT_EQ(diags.str(), refDiags)
            << "stripped=" << stripped << " jobs=" << jobs
            << " batch=" << batch;
      }
    }
  }
}

TEST(BatchInvariance, PredictionsIdenticalAcrossBatchSizes) {
  // The batching half of the §7 contract at the engine level: predictVucs
  // at any batch size (and any job count) must reproduce the serial
  // per-sample predictVuc loop bit-for-bit. Batch only changes how many
  // windows share one NN forward pass, never the numbers.
  Engine engine = testsupport::cachedMicroEngine();
  const corpus::Dataset ds = testsupport::microDataset();
  ASSERT_FALSE(ds.vucs.empty());

  std::vector<StageProbs> ref;
  ref.reserve(ds.vucs.size());
  for (const corpus::Vuc& v : ds.vucs) ref.push_back(engine.predictVuc(v));

  for (const int jobs : {1, 5}) {
    par::ThreadPool pool(jobs);
    for (const int batch : {1, 3, 8, 64}) {
      const std::vector<StageProbs> got =
          engine.predictVucs(ds.vucs, &pool, batch);
      ASSERT_EQ(got.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        for (int s = 0; s < kNumStages; ++s) {
          // Exact float equality on purpose: the contract is bit-identity.
          EXPECT_TRUE(ref[i].probs[static_cast<size_t>(s)] ==
                      got[i].probs[static_cast<size_t>(s)])
              << "vuc " << i << " stage " << s << " jobs " << jobs
              << " batch " << batch;
        }
      }
    }
  }

  // CATI_BATCH routes through the same resolution as --batch.
  ::setenv("CATI_BATCH", "3", 1);
  const std::vector<StageProbs> viaEnv = engine.predictVucs(ds.vucs);
  ::unsetenv("CATI_BATCH");
  ASSERT_EQ(viaEnv.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    for (int s = 0; s < kNumStages; ++s) {
      EXPECT_TRUE(ref[i].probs[static_cast<size_t>(s)] ==
                  viaEnv[i].probs[static_cast<size_t>(s)])
          << "vuc " << i << " stage " << s << " via CATI_BATCH";
    }
  }

  // Non-timing inference metrics (including the batch-padding counter) are
  // jobs-invariant: they depend only on (n, batch), never on scheduling.
  obs::setEnabled(true);
  const auto inferMetrics = [&](int jobs, int batch) {
    obs::Registry::global().reset();
    par::ThreadPool pool(jobs);
    engine.predictVucs(ds.vucs, &pool, batch);
    return obs::Registry::global().snapshot().withoutTimings();
  };
  const auto serial = inferMetrics(1, 8);
  EXPECT_EQ(inferMetrics(5, 8), serial)
      << "inference metrics differ across job counts at batch=8";
}

// --- routed stage evaluation ≡ eager (DESIGN.md §7/§10) ---------------------

/// Per variable of `varOf`, which stages its eager all-stage vote routes
/// through: the stages predictRouted must evaluate for its VUCs.
std::vector<std::array<bool, kNumStages>> votedPaths(
    const Engine& engine, const std::vector<uint32_t>& varOf, size_t numVars,
    const std::vector<StageProbs>& eager) {
  std::vector<std::vector<StageProbs>> byVar(numVars);
  for (size_t i = 0; i < varOf.size(); ++i) byVar[varOf[i]].push_back(eager[i]);
  std::vector<std::array<bool, kNumStages>> onPath(numVars);
  for (size_t v = 0; v < numVars; ++v) {
    if (byVar[v].empty()) continue;
    const StagePath path = pathOf(engine.voteVariable(byVar[v]).finalType);
    for (int k = 0; k < path.length; ++k) {
      onPath[v][static_cast<size_t>(path.stages[static_cast<size_t>(k)])] =
          true;
    }
  }
  return onPath;
}

TEST(RoutedInvariance, EvaluatedStagesAreEagerBitsAcrossJobsAndBatch) {
  // Every stage predictRouted evaluates is bit-identical to predictVucs at
  // that stage, the evaluated stages are exactly the VUC's variable's voted
  // path, and every other stage is empty — for fp32 and int8, at any job
  // count and batch size. Two groupings: the dataset's variables, and one
  // variable per VUC (routes follow each VUC's own argmax, which reaches
  // more of the tree on the micro model).
  Engine fp32 = testsupport::cachedMicroEngine();
  Engine int8 = fp32.quantize();
  const corpus::Dataset ds = testsupport::microDataset();
  ASSERT_FALSE(ds.vucs.empty());
  std::vector<uint32_t> datasetVars;
  std::vector<uint32_t> vucVars;
  for (const corpus::Vuc& v : ds.vucs) {
    datasetVars.push_back(v.varId);
    vucVars.push_back(static_cast<uint32_t>(vucVars.size()));
  }
  const std::pair<const std::vector<uint32_t>*, size_t> groupings[] = {
      {&datasetVars, ds.vars.size()}, {&vucVars, ds.vucs.size()}};
  std::array<size_t, kNumStages> evaluated{};
  for (Engine* engine : {&fp32, &int8}) {
    SCOPED_TRACE(engine->quantized() ? "int8" : "fp32");
    const std::vector<StageProbs> eager = engine->predictVucs(ds.vucs);
    for (const auto& [varOf, numVars] : groupings) {
      const auto onPath = votedPaths(*engine, *varOf, numVars, eager);
      for (const int jobs : {1, 4}) {
        par::ThreadPool pool(jobs);
        for (const int batch : {1, 8, 32}) {
          const std::vector<StageProbs> routed = engine->predictRouted(
              ds.vucs, *varOf, numVars, &pool, batch);
          ASSERT_EQ(routed.size(), eager.size());
          for (size_t i = 0; i < routed.size(); ++i) {
            for (size_t s = 0; s < kNumStages; ++s) {
              const auto& got = routed[i].probs[s];
              if (onPath[(*varOf)[i]][s]) {
                ++evaluated[s];
                // Exact float equality on purpose: the contract is
                // bit-identity.
                ASSERT_TRUE(got == eager[i].probs[s])
                    << "vuc " << i << " stage " << s << " jobs " << jobs
                    << " batch " << batch << " vars " << numVars;
              } else {
                ASSERT_TRUE(got.empty())
                    << "vuc " << i << " stage " << s << " jobs " << jobs
                    << " batch " << batch << " vars " << numVars;
              }
            }
          }
        }
      }
    }
  }
  // The sweep went through all three waves: Stage 1, both second-level
  // stages and at least one third-level stage.
  EXPECT_GT(evaluated[static_cast<size_t>(Stage::S1)], 0U);
  EXPECT_GT(evaluated[static_cast<size_t>(Stage::S2_1)], 0U);
  EXPECT_GT(evaluated[static_cast<size_t>(Stage::S2_2)], 0U);
  EXPECT_GT(evaluated[static_cast<size_t>(Stage::S3_1)] +
                evaluated[static_cast<size_t>(Stage::S3_2)] +
                evaluated[static_cast<size_t>(Stage::S3_3)],
            0U);
}

TEST(RoutedInvariance, WorkCountersFollowTheVotedPath) {
  // The routed work counters of a cati-infer analysis: Stage 1 runs once
  // per VUC, the stage forwards sum to Σ over variables of (voted path
  // length × VUC count) and stay within three per VUC, the call records one
  // engine.infer.batch_ns observation, and every non-timing metric is
  // jobs-invariant.
  Engine engine = testsupport::cachedMicroEngine();
  loader::Image img = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(img);
  obs::setEnabled(true);
  std::optional<obs::Snapshot> ref;
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    obs::Registry::global().reset();
    par::ThreadPool pool(jobs);
    const serve::AnalyzeResult res = serve::analyzeImage(engine, img, &pool, 8);
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    uint64_t expected = 0;
    for (const auto& vars : res.functions) {
      for (const AnalyzedVariable& av : vars) {
        expected += static_cast<uint64_t>(pathOf(av.type).length) * av.numVucs;
      }
    }
    uint64_t forwards = 0;
    for (int s = 0; s < kNumStages; ++s) {
      forwards += obs::counter("engine.infer.samples." +
                               std::string(stageName(static_cast<Stage>(s))))
                      .value();
    }
    const uint64_t vucs = obs::counter("engine.infer.vucs").value();
    ASSERT_GT(vucs, 0U);
    EXPECT_EQ(obs::counter("engine.infer.samples.Stage1").value(), vucs);
    EXPECT_EQ(forwards, expected);
    EXPECT_LE(forwards, 3 * vucs);
    bool sawBatchNs = false;
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      if (h.name != "engine.infer.batch_ns") continue;
      sawBatchNs = true;
      EXPECT_EQ(h.count, 1U);
    }
    EXPECT_TRUE(sawBatchNs);
    if (!ref) {
      ref = snap.withoutTimings();
    } else {
      EXPECT_EQ(snap.withoutTimings(), *ref);
    }
  }
  obs::setEnabled(false);
}

TEST(RoutedInvariance, MissingStageOnVotedPathDegradesOneVariable) {
  // Routed probabilities leave the stages off each variable's path empty.
  // Voting them all (voteVariable) throws the typed MissingStageError; a
  // stage missing on the voted path costs finishFunction that one variable
  // (a Warning diag), never an out-of-bounds read.
  Engine engine = testsupport::cachedMicroEngine();
  loader::Image img = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(img);
  par::ThreadPool pool(2);
  const serve::PreparedRequest prep(engine, img, &pool, 0.0F);
  ASSERT_FALSE(prep.vucs().empty());
  const std::vector<StageProbs> routed = engine.predictRouted(
      prep.vucs(), prep.varOf(), prep.numVars(), &pool, 8);
  const serve::AnalyzeResult ref = prep.finish(engine, routed);

  // VUC 0's variable voted along a path of at most three stages, so its
  // VUC lacks at least three of the six.
  EXPECT_THROW(engine.voteVariable(std::span(routed).first(1)),
               MissingStageError);

  // Drop VUC 0's Stage 1 distribution (on every path), then its leaf-stage
  // one instead: each time exactly that variable is skipped.
  const auto& fn0 = ref.functions.at(0);
  ASSERT_FALSE(fn0.empty());
  size_t lastStage = 0;
  for (size_t s = 0; s < kNumStages; ++s) {
    if (!routed[0].probs[s].empty()) lastStage = s;
  }
  for (const size_t stage : {size_t{0}, lastStage}) {
    SCOPED_TRACE("stage " + std::to_string(stage));
    obs::setEnabled(true);
    obs::Registry::global().reset();
    std::vector<StageProbs> broken = routed;
    broken[0].probs[stage].clear();
    const serve::AnalyzeResult res = prep.finish(engine, broken);
    obs::setEnabled(false);
    EXPECT_EQ(obs::counter("engine.analyze.degraded").value(), 1U);
    ASSERT_EQ(res.functions.size(), ref.functions.size());
    EXPECT_EQ(res.functions[0].size() + 1, fn0.size());
    for (size_t f = 1; f < ref.functions.size(); ++f) {
      EXPECT_EQ(res.functions[f].size(), ref.functions[f].size());
    }
    ASSERT_EQ(res.diags.size(), ref.diags.size() + 1);
    size_t skipped = 0;
    for (const Diag& d : res.diags) {
      if (d.message.find("variable skipped (degraded)") == std::string::npos) {
        continue;
      }
      ++skipped;
      EXPECT_EQ(d.severity, Severity::Warning);
      EXPECT_NE(d.message.find("not evaluated"), std::string::npos)
          << d.message;
    }
    EXPECT_EQ(skipped, 1U);
  }
}

}  // namespace
}  // namespace cati
