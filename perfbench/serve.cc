// serve-int8: a cati-serve daemon in its own process (CQNT model, --quant
// --mmap, result cache, decode cache, fixed --jobs) driven by ONE load
// generator thread over a few unix-socket connections on a seeded
// open-loop schedule (see makeSchedule). Latency is timed from each request's due time,
// so a stall also counts against the requests queued behind it.
//
// Traffic: repeats of a popular set (result-cache hits after the warm-up),
// novel images (full misses) and re-requests of a popular image with a new
// confMin (result-cache misses that hit the decode cache).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <deque>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/errors.h"
#include "common/obs.h"
#include "serve/analysis.h"
#include "serve/client.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace cati;

ScheduleSpec specOf(const Params& p) {
  return ScheduleSpec{p.num("rate"), p.num("seconds"), p.num("share_novel"),
                      p.num("share_reconf"),
                      static_cast<uint32_t>(p.integer("popular"))};
}

/// The daemon process: spawned on construction, stopped (SIGTERM, then
/// SIGKILL after a grace period) and reaped on destruction.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const fs::path& log) {
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    const int rc =
        posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }
  bool alive() {
    if (pid_ <= 0) return false;
    int st = 0;
    if (waitpid(pid_, &st, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }
  /// Graceful stop; returns the exit status (-1 when it had to be killed).
  int stop() {
    if (pid_ <= 0) return status_;
    kill(pid_, SIGTERM);
    int st = 0;
    for (int i = 0; i < 400; ++i) {
      if (waitpid(pid_, &st, WNOHANG) == pid_) {
        pid_ = -1;
        status_ = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
        return status_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &st, 0);
    pid_ = -1;
    status_ = -1;
    return status_;
  }

 private:
  pid_t pid_ = -1;
  int status_ = -1;
};

/// CPU time of process `pid` in seconds: the sum over its threads of the
/// scheduler's run time (the first field of /proc/PID/task/TID/schedstat,
/// in ns), which, like cpuS(), leaves out time stolen by the host. Only
/// threads alive at the call count, so the daemon's threads must outlive
/// the window measured; its connections stay open for the whole run.
double daemonCpuS(int pid) {
  double ns = 0;
  for (const fs::directory_entry& t :
       fs::directory_iterator("/proc/" + std::to_string(pid) + "/task")) {
    std::ifstream in(t.path() / "schedstat");
    double run = 0;
    if (in >> run) ns += run;
  }
  if (ns <= 0) throw std::runtime_error("cannot read the daemon's CPU time");
  return ns / 1e9;
}

serve::Client connectWhenReady(const sock::Address& addr, Daemon& d) {
  const double deadline = nowS() + 30.0;
  while (nowS() < deadline) {
    if (!d.alive()) throw std::runtime_error("cati-serve exited at start-up");
    try {
      serve::Client c(addr);
      if (c.ping()) return c;
    } catch (const IoError&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  throw std::runtime_error("cati-serve did not come up");
}

std::string requestFrame(const std::string& image, float confMin) {
  serve::AnalyzeRequest req;
  req.confMin = confMin;
  req.image = image;
  return serve::encodeFrame(serve::MsgType::kAnalyze,
                            serve::encodeAnalyzeRequest(req));
}

struct Outcome {
  double sentS = -1;
  double doneS = -1;
  std::optional<serve::ReportReply> report;
  std::optional<serve::ErrorCode> error;
};

}  // namespace

std::string setupServe(const Params& p, const fs::path& dir) {
  par::ThreadPool pool(static_cast<int>(p.integer("jobs")));
  trainBenchModel(p, pool).quantize().saveFile(dir / "model.cqnt");
  const int fmin = static_cast<int>(p.integer("funcs_min"));
  const int fmax = static_cast<int>(p.integer("funcs_max"));
  const int fstep = static_cast<int>(p.integer("funcs_step"));
  const std::vector<Arrival> sched = makeSchedule(p.seed(), specOf(p));
  saveImageSet(dir / "popular.set",
               makeImageSet(p.seed(), static_cast<size_t>(p.integer("popular")),
                            fmin, fmax, fstep));
  saveImageSet(dir / "novel.set",
               makeImageSet(p.seed() ^ 0x6e6f76656cULL, novelCount(sched), fmin,
                            fmax, fstep));
  return Json()
      .str("model", fileDigest(dir / "model.cqnt"))
      .str("inputs", fileDigest(dir / "popular.set") + "," +
                         fileDigest(dir / "novel.set"))
      .done();
}

std::string runServe(const Params& p, const fs::path& dir) {
  obs::setEnabled(false);
  const std::vector<ImageCase> popular = loadImageSet(dir / "popular.set");
  const std::vector<ImageCase> novel = loadImageSet(dir / "novel.set");
  const std::vector<Arrival> sched = makeSchedule(p.seed(), specOf(p));
  if (novelCount(sched) != novel.size()) {
    throw std::runtime_error("novel image set does not match the schedule");
  }
  const auto caseOf = [&](const Arrival& a) -> const ImageCase& {
    return a.kind == Kind::kNovel ? novel[a.image] : popular[a.image];
  };
  // Frames are encoded before the clock starts: the generator only sends.
  std::vector<std::string> frames;
  frames.reserve(sched.size());
  for (const Arrival& a : sched) {
    frames.push_back(requestFrame(caseOf(a).bytes, a.confMin));
  }

  const fs::path sockPath = dir / "daemon.sock";
  fs::remove(sockPath);
  const sock::Address addr = sock::Address::parse("unix:" + sockPath.string());
  const int conns = static_cast<int>(p.integer("connections"));
  Daemon daemon({p.str("daemon"), (dir / "model.cqnt").string(), "--listen",
                 "unix:" + sockPath.string(), "--jobs", p.str("daemon_jobs"),
                 "--quant", "--mmap", "--cache-bytes", p.str("cache_bytes"),
                 "--decode-cache", p.str("decode_cache_bytes"), "--max-queue",
                 p.str("max_queue")},
                dir / "daemon.log");

  std::vector<serve::Client> clients;
  clients.push_back(connectWhenReady(addr, daemon));
  for (int c = 1; c < conns; ++c) clients.emplace_back(addr);

  // Warm-up: every popular image once, so repeats are result-cache hits and
  // re-requests find their functions in the decode cache.
  size_t warmFailed = 0;
  for (const ImageCase& c : popular) {
    if (clients[0].call(serve::MsgType::kAnalyze,
                        serve::encodeAnalyzeRequest({0.0F, c.bytes}))
            .type != serve::MsgType::kReport) {
      ++warmFailed;
    }
  }
  const std::string metricsBefore = clients[0].metricsJson();
  const double cpuBefore = daemonCpuS(daemon.pid());

  // Open loop: one thread sends each request when due, round-robin over the
  // connections, and reads replies (in order per connection) in between.
  std::vector<Outcome> out(sched.size());
  std::vector<std::deque<size_t>> pending(static_cast<size_t>(conns));
  std::vector<pollfd> fds(static_cast<size_t>(conns));
  for (size_t c = 0; c < fds.size(); ++c) fds[c] = {clients[c].fd(), POLLIN, 0};
  const double due0 = nowS() + 0.05;
  const double endS = due0 + p.num("seconds") + p.num("drain_seconds");
  size_t next = 0;
  size_t open = 0;
  bool connLost = false;
  while (next < sched.size() || open > 0) {
    double now = nowS();
    while (next < sched.size() && now >= due0 + sched[next].dueS) {
      const size_t c = next % static_cast<size_t>(conns);
      out[next].sentS = now;
      if (sock::sendAll(fds[c].fd, frames[next].data(), frames[next].size())) {
        pending[c].push_back(next);
        ++open;
      } else {
        connLost = true;
      }
      ++next;
      now = nowS();
    }
    if (next >= sched.size() && now > endS) break;  // unanswered: timeouts
    const double until =
        next < sched.size() ? due0 + sched[next].dueS : endS;
    const double w = until > now ? until - now : 0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(w);
    ts.tv_nsec = static_cast<long>((w - static_cast<double>(ts.tv_sec)) * 1e9);
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      serve::Frame f;
      if (pending[c].empty() ||
          serve::readFrame(fds[c].fd, f) != serve::ReadStatus::kOk) {
        connLost = true;
        fds[c].fd = -1;  // poll ignores it from now on
        open -= pending[c].size();
        pending[c].clear();
        continue;
      }
      const size_t i = pending[c].front();
      pending[c].pop_front();
      --open;
      out[i].doneS = nowS();
      try {
        if (f.type == serve::MsgType::kReport) {
          out[i].report = serve::decodeReportReply(f.payload);
        } else if (f.type == serve::MsgType::kError) {
          out[i].error = serve::decodeErrorReply(f.payload).code;
        }
      } catch (const CorruptError&) {
        out[i].report.reset();
      }
    }
  }

  const double daemonCpu = daemonCpuS(daemon.pid()) - cpuBefore;
  const std::string metricsAfter = serve::Client(addr).metricsJson();
  const double daemonRss = peakRssMb(daemon.pid());
  clients.clear();
  const int exitStatus = daemon.stop();

  // Checks, with the daemon gone: sampled replies must be byte-identical to
  // the offline path on the same image and confMin, and every distinct
  // image is scored once against the truth.
  Engine engine = Engine::loadFile(dir / "model.cqnt", Engine::LoadMode::kMap);
  par::ThreadPool pool(static_cast<int>(p.integer("jobs")));
  const auto verifyEvery = static_cast<size_t>(p.integer("verify_every"));
  const double sloS = p.num("slo_ms") / 1e3;
  size_t failed = warmFailed + (exitStatus == 0 ? 0 : 1);
  size_t verified = 0;
  size_t verifyMismatch = 0;
  size_t refused = 0;
  size_t sloOk = 0;
  std::array<std::vector<double>, kNumKinds> latMs;
  std::vector<double> lateMs;
  std::vector<bool> scoredPopular(popular.size(), false);
  Score score;
  for (size_t i = 0; i < sched.size(); ++i) {
    const Arrival& a = sched[i];
    const Outcome& o = out[i];
    const double dueS = due0 + a.dueS;
    if (o.sentS >= 0) lateMs.push_back((o.sentS - dueS) * 1e3);
    if (o.error == serve::ErrorCode::kOverload) ++refused;
    if (!o.report || o.doneS < 0) {
      ++failed;  // error reply, wrong reply type, undecodable or timed out
      continue;
    }
    const ImageCase& c = caseOf(a);
    const Score s = scoreReport(o.report->report, c);
    bool ok = s.parsed;
    if (ok && i % verifyEvery == 0) {
      ++verified;
      // The daemon replies with the validation diagnostics followed by
      // the analysis's, which is the order analyzeStripped keeps.
      const serve::AnalyzeResult ref =
          analyzeStripped(engine, c.bytes, pool, a.confMin);
      std::ostringstream diagsText;
      print(ref.diags, diagsText);
      if (ref.report != o.report->report ||
          diagsText.str() != o.report->diagsText) {
        ++verifyMismatch;
        ok = false;
      }
    }
    if (!ok) {
      ++failed;
      continue;
    }
    const double lat = o.doneS - dueS;
    latMs[static_cast<size_t>(a.kind)].push_back(lat * 1e3);
    if (lat <= sloS) ++sloOk;
    if (a.kind == Kind::kNovel) {
      score.add(s);
    } else if (a.kind == Kind::kRepeat && !scoredPopular[a.image]) {
      scoredPopular[a.image] = true;
      score.add(s);
    }
  }

  Json lat;
  for (int k = 0; k < kNumKinds; ++k) {
    lat.list(kindName(static_cast<Kind>(k)), latMs[static_cast<size_t>(k)]);
  }
  return Json()
      .integer("attempted", static_cast<int64_t>(sched.size()))
      .integer("failed", static_cast<int64_t>(failed))
      .integer("matched", static_cast<int64_t>(score.matched))
      .integer("correct", static_cast<int64_t>(score.correct))
      .integer("verified", static_cast<int64_t>(verified))
      .integer("verify_mismatch", static_cast<int64_t>(verifyMismatch))
      .integer("refused", static_cast<int64_t>(refused))
      .integer("slo_ok", static_cast<int64_t>(sloOk))
      .boolean("conn_lost", connLost)
      .raw("latency_ms", lat.done())
      .list("late_ms", lateMs)
      .num("daemon_cpu_s", daemonCpu)
      .num("peak_rss_mb", daemonRss)
      .raw("metrics_before", metricsBefore)
      .raw("metrics_after", metricsAfter)
      .done();
}

}  // namespace perfbench
