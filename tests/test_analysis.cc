// The --timeout-ms contract of serve::analyzeImage and cati-infer
// (DESIGN.md §9): an expired deadline yields exit 0 and a clean report whose
// summary ends in the TIMEOUT line, counts engine.analyze.timeout, never
// records a "degraded" function, and leaves no deadline behind on the
// engine. Expiry is made deterministic with the engine.deadline fault probe
// (any armed action expires an armed deadline at that check) instead of
// racing a short budget against the clock.
//
// Shares the ./cati_test_cache/ micro model (RESOURCE_LOCK micro_model_cache).
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/errors.h"
#include "common/fault.h"
#include "common/obs.h"
#include "loader/image.h"
#include "serve/analysis.h"
#include "support/micro_model.h"

#ifndef CATI_TOOL_DIR
#define CATI_TOOL_DIR "tools"
#endif

namespace cati::serve {
namespace {

namespace stdfs = std::filesystem;

loader::Image microImage() {
  loader::Image img = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(img);
  return img;
}

std::string rendered(const DiagList& diags) {
  std::ostringstream os;
  print(diags, os);
  return os.str();
}

uint64_t counterValue(const char* name) { return obs::counter(name).value(); }

class AnalyzeDeadline : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setEnabled(true);
    obs::Registry::global().reset();
  }
  void TearDown() override { fault::configureForTest(""); }
};

TEST_F(AnalyzeDeadline, ExpiryGivesCleanTimeoutReportAndClearsDeadline) {
  const loader::Image img = microImage();
  par::ThreadPool pool(1);
  Engine fresh = testsupport::cachedMicroEngine();
  const AnalyzeResult ref = analyzeImage(fresh, img, &pool, 1);
  const size_t fns = img.boundaries.size();  // all well-formed
  ASSERT_GT(fns, 0U);

  Engine engine = testsupport::cachedMicroEngine();
  // Check 1 is the predict's first sub-batch, check 3 its third (batch 1):
  // either way the binary's one predict is cut, so no function is typed.
  for (const char* spec : {"fail@engine.deadline:1", "fail@engine.deadline:3"}) {
    SCOPED_TRACE(spec);
    obs::Registry::global().reset();
    fault::configureForTest(spec);
    AnalyzeOptions opts;
    opts.timeoutMs = 1;
    const AnalyzeResult res = analyzeImage(engine, img, &pool, 1, opts);
    fault::configureForTest("");

    EXPECT_EQ(res.report, "\n0 variables typed; TIMEOUT after 1ms: 0/" +
                              std::to_string(fns) + " functions analyzed\n");
    EXPECT_EQ(counterValue("engine.analyze.timeout"), 1U);
    EXPECT_EQ(counterValue("engine.analyze.degraded"), 0U);
    const std::string diags = rendered(res.diags);
    EXPECT_EQ(diags.find("degraded"), std::string::npos) << diags;
    ASSERT_FALSE(res.diags.empty());
    EXPECT_EQ(res.diags.back().severity, Severity::Warning);
    EXPECT_NE(res.diags.back().message.find("analysis deadline exceeded"),
              std::string::npos);

    // The 1 ms deadline has long passed: were it left armed, the next
    // analysis would time out in its first prepareFunction.
    const AnalyzeResult again = analyzeImage(engine, img, &pool, 1);
    EXPECT_EQ(again.report, ref.report);
    EXPECT_EQ(rendered(again.diags), rendered(ref.diags));
  }
}

TEST_F(AnalyzeDeadline, ExpiryInsideTheSecondRoutedWaveIsTheSameTimeout) {
  // The routed predict runs Stage 1 over every VUC, then each variable's
  // voted second-level stage in wave 2 (and a third-level one in wave 3;
  // the micro model votes no variable that deep). At batch 1 and one worker
  // every VUC forward is one deadline check, so the checks of each wave
  // follow from the per-stage sample counters of an uncut run. The budget
  // is generous, so only the probe expires it. A deadline that fires in a
  // later wave still cuts the binary's one predict: the same TIMEOUT
  // report, and no deadline left on the engine.
  const loader::Image img = microImage();
  par::ThreadPool pool(1);
  Engine engine = testsupport::cachedMicroEngine();
  const AnalyzeResult ref = analyzeImage(engine, img, &pool, 1);
  const size_t fns = img.boundaries.size();  // all well-formed
  const auto samples = [](const char* stage) {
    return counterValue(("engine.infer.samples." + std::string(stage)).c_str());
  };
  const uint64_t wave1 = samples("Stage1");
  const uint64_t wave2 = samples("Stage2-1") + samples("Stage2-2");
  ASSERT_GT(wave1, 0U);
  ASSERT_GT(wave2, 1U);

  for (const uint64_t check : {wave1 + 1, wave1 + wave2}) {
    const std::string spec = "fail@engine.deadline:" + std::to_string(check);
    SCOPED_TRACE(spec);
    obs::Registry::global().reset();
    fault::configureForTest(spec);
    AnalyzeOptions opts;
    opts.timeoutMs = 600000;
    const AnalyzeResult res = analyzeImage(engine, img, &pool, 1, opts);
    fault::configureForTest("");

    EXPECT_EQ(res.report, "\n0 variables typed; TIMEOUT after 600000ms: 0/" +
                              std::to_string(fns) + " functions analyzed\n");
    EXPECT_EQ(counterValue("engine.analyze.timeout"), 1U);
    EXPECT_EQ(counterValue("engine.analyze.degraded"), 0U);
    // Wave 1 completed; the cut came at the check'th forward.
    EXPECT_EQ(samples("Stage1"), wave1);
    EXPECT_EQ(samples("Stage1") + samples("Stage2-1") + samples("Stage2-2"),
              check - 1);

    // With the deadline cleared the probe is never consulted, so an armed
    // probe leaves the next (unbudgeted) analysis untouched.
    fault::configureForTest("fail@engine.deadline:1");
    const AnalyzeResult again = analyzeImage(engine, img, &pool, 1);
    fault::configureForTest("");
    EXPECT_EQ(again.report, ref.report);
    EXPECT_EQ(rendered(again.diags), rendered(ref.diags));
  }
}

TEST_F(AnalyzeDeadline, PreparedRequestLetsTimeoutThrough) {
  // A deadline already in the past: the first prepareFunction throws, and
  // the per-function isolation must not record that as a degraded function.
  Engine engine = testsupport::cachedMicroEngine();
  par::ThreadPool pool(1);
  engine.setDeadline(std::chrono::steady_clock::now() -
                     std::chrono::seconds(1));
  EXPECT_THROW(PreparedRequest(engine, microImage(), &pool, 0.0F),
               TimeoutError);
  engine.setDeadline(std::nullopt);
  EXPECT_EQ(counterValue("engine.analyze.timeout"), 1U);
  EXPECT_EQ(counterValue("engine.analyze.degraded"), 0U);
}

TEST_F(AnalyzeDeadline, CatiInferTimeoutExitsZeroWithCleanReport) {
  const stdfs::path dir =
      stdfs::temp_directory_path() /
      ("cati_analysis_" + std::to_string(::getpid()));
  stdfs::remove_all(dir);
  stdfs::create_directories(dir);
  const std::string model = (dir / "model.bin").string();
  const std::string image = (dir / "img.img").string();
  testsupport::cachedMicroEngine().saveFile(model);
  {
    std::ofstream os(image, std::ios::binary);
    loader::write(microImage(), os);
  }
  const size_t fns = microImage().boundaries.size();  // all well-formed

  // One worker, so the first sub-batch is the only deadline check: with
  // more, other workers may also find the 5 ms budget spent and count it.
  const std::string cmd =
      "CATI_FAULT_SPEC=fail@engine.deadline:1 " +
      (stdfs::path(CATI_TOOL_DIR) / "cati-infer").string() + " " + model +
      " " + image + " --jobs 1 --timeout-ms 5 --metrics=" + (dir / "m.json").string() +
      " 2>" + (dir / "err.txt").string();
  FILE* p = ::popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
  const int rc = ::pclose(p);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 0);
  EXPECT_EQ(out, "\n0 variables typed; TIMEOUT after 5ms: 0/" +
                     std::to_string(fns) + " functions analyzed\n");

  const auto slurp = [](const stdfs::path& f) {
    std::ifstream is(f);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  };
  const std::string err = slurp(dir / "err.txt");
  EXPECT_NE(err.find("analysis deadline exceeded"), std::string::npos) << err;
  EXPECT_EQ(err.find("degraded"), std::string::npos) << err;
  const std::string metrics = slurp(dir / "m.json");
  EXPECT_NE(metrics.find("\"engine.analyze.timeout\": 1"), std::string::npos)
      << metrics;
  stdfs::remove_all(dir);
}

}  // namespace
}  // namespace cati::serve
