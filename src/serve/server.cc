#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "common/errors.h"
#include "common/obs.h"
#include "serve/analysis.h"

namespace cati::serve {

namespace {

std::string errorFrame(ErrorCode code, const std::string& msg) {
  return encodeFrame(MsgType::kError, encodeErrorReply(ErrorReply{code, msg}));
}

}  // namespace

Server::Server(Engine& engine, ServerConfig cfg)
    : engine_(engine),
      cfg_(std::move(cfg)),
      pool_(par::resolveJobs(cfg_.jobs)),
      listener_(sock::Listener::open(cfg_.listen)),
      cache_(cfg_.cacheBytes, cfg_.cacheDir, cfg_.cacheHash),
      decodeCache_(cfg_.decodeCacheBytes) {
  if (cfg_.maxGroup == 0) cfg_.maxGroup = 1;
  if (cfg_.maxOutbound == 0) cfg_.maxOutbound = 1;
  int wakeFds[2];
  if (::pipe2(wakeFds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw IoError(std::string("pipe2: ") + std::strerror(errno));
  }
  wakeRead_ = sock::Fd(wakeFds[0]);
  wakeWrite_ = sock::Fd(wakeFds[1]);
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  started_ = true;
  batchThread_ = std::thread([this] { batchLoop(); });
  ioThread_ = std::thread([this] { ioLoop(); });
}

bool Server::waitUntilStopRequested(std::chrono::milliseconds timeout) {
  std::unique_lock lk(stopMu_);
  const auto pred = [this] { return stopRequested_.load(); };
  if (timeout.count() <= 0) {
    stopCv_.wait(lk, pred);
    return true;
  }
  return stopCv_.wait_for(lk, timeout, pred);
}

void Server::requestStop() {
  stopRequested_.store(true);
  std::lock_guard lk(stopMu_);
  stopCv_.notify_all();
}

void Server::pauseBatchForTest(bool paused) {
  std::lock_guard lk(queueMu_);
  batchPaused_ = paused;
  queueCv_.notify_all();
}

void Server::pauseWritersForTest(bool paused) {
  {
    std::lock_guard lk(connsMu_);
    writersPaused_ = paused;
  }
  wake();
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  requestStop();

  // 1. Close admission and the listener (new connects are refused and the
  //    I/O thread's next accept4 fails; shutdown(2) is safe while it polls),
  //    and clear the test pauses so nothing below can park.
  {
    std::lock_guard lk(queueMu_);
    rejectNew_ = true;
    batchPaused_ = false;
    queueCv_.notify_all();
  }
  ::shutdown(listener_.fd(), SHUT_RDWR);
  pauseWritersForTest(false);

  // 2. Drain: the batch loop processes every queued job, then exits — every
  //    admitted request gets its reply computed and queued.
  {
    std::lock_guard lk(queueMu_);
    draining_ = true;
    queueCv_.notify_all();
  }
  if (batchThread_.joinable()) batchThread_.join();

  // 3. Flush: no more reads; the I/O thread closes each connection once its
  //    outbound queue is written, and exits when none is left.
  {
    std::lock_guard lk(connsMu_);
    flushing_ = true;
    for (auto& [id, conn] : conns_) conn.eof = true;
  }
  wake();
  if (ioThread_.joinable()) ioThread_.join();
}

// --- connections: the I/O thread --------------------------------------------

void Server::ioLoop() {
  static obs::Counter& accepted = obs::counter("serve.conns.accepted");
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;  // ids[i] owns fds[i + 2]
  std::vector<char> buf(64 << 10);
  bool listening = true;
  for (;;) {
    fds.assign({{wakeRead_.get(), POLLIN, 0},
                {listening ? listener_.fd() : -1, POLLIN, 0}});
    ids.clear();
    {
      std::lock_guard lk(connsMu_);
      // Sockets close only here, never while poll() watches them.
      std::erase_if(conns_, [](const auto& entry) {
        const Conn& c = entry.second;
        return c.closed || (c.eof && c.inFlight == 0 && c.outbound.empty());
      });
      if (flushing_ && conns_.empty()) return;
      for (const auto& [id, c] : conns_) {
        short events = c.eof ? 0 : POLLIN;
        if (!writersPaused_ && !c.outbound.empty()) events |= POLLOUT;
        fds.push_back({c.fd.get(), events, 0});
        ids.push_back(id);
      }
    }
    // No timeout: an idle daemon sleeps until a socket or the pipe wakes it.
    if (::poll(fds.data(), fds.size(), -1) < 0) continue;  // EINTR
    if (fds[0].revents != 0) {
      while (::read(wakeRead_.get(), buf.data(), buf.size()) > 0) {
      }
    }
    std::lock_guard lk(connsMu_);
    while (fds[1].revents != 0) {
      const int fd = ::accept4(listener_.fd(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        conns_[nextConnId_++].fd = sock::Fd(fd);
        accepted.add();
      } else if (errno != EINTR && errno != ECONNABORTED) {
        // EAGAIN: the backlog is empty. Anything else (stop()'s shutdown,
        // EMFILE) would keep the listener readable: stop polling it.
        listening = errno == EAGAIN || errno == EWOULDBLOCK;
        break;
      }
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      const short revents = fds[i + 2].revents;
      Conn& conn = conns_.at(ids[i]);
      if (conn.closed) continue;  // dropped by trySend since poll() began
      if (!conn.eof && (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        readFrom(ids[i], conn, buf.data(), buf.size());
      }
      // A hang-up after EOF: the peer closed both directions, so nothing
      // queued for it can be delivered.
      if (conn.eof && (revents & (POLLHUP | POLLERR)) != 0) hangUp(conn);
      // Ready or not: the batch loop may have queued a reply since.
      if (!writersPaused_ && !conn.closed) flush(conn);
    }
  }
}

void Server::readFrom(uint64_t connId, Conn& conn, char* buf, size_t size) {
  static obs::Counter& badFrames = obs::counter("serve.conn.bad_frames");
  const ssize_t got = ::recv(conn.fd.get(), buf, size, 0);
  if (got < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      hangUp(conn);  // reset by the peer
    }
    return;
  }
  conn.eof = got == 0;
  conn.in.append(buf, static_cast<size_t>(got));
  Frame f;
  ReadStatus st = ReadStatus::kNeedMore;
  while (!conn.closed && (st = conn.in.next(f)) == ReadStatus::kOk) {
    handleFrame(connId, conn, f);
  }
  if (st == ReadStatus::kBad || (conn.eof && !conn.in.empty())) {
    // A malformed frame, or a hang-up mid-frame: the stream cannot be
    // resynchronized. Say why (when the peer still listens) and close once
    // that is written.
    badFrames.add();
    conn.eof = true;
    enqueue(conn, errorFrame(ErrorCode::kBadRequest, "malformed frame"));
  }
}

void Server::handleFrame(uint64_t connId, Conn& conn, Frame& f) {
  static obs::Counter& received = obs::counter("serve.requests.received");
  switch (f.type) {
    case MsgType::kPing:
      enqueue(conn, encodeFrame(MsgType::kPong, ""));
      break;
    case MsgType::kMetrics:
      enqueue(conn, encodeFrame(MsgType::kMetricsJson,
                                obs::Registry::global().snapshot().toJson()));
      break;
    case MsgType::kAnalyze:
      received.add();
      if (auto refusal = pushJob(Job{connId, std::move(f.payload)})) {
        enqueue(conn, std::move(*refusal));
      } else {
        ++conn.inFlight;  // under connsMu_: the job's reply cannot overtake
      }
      break;
    default:
      // A well-framed message of a type we do not serve: typed error, but
      // the stream is still synchronized — keep the connection.
      enqueue(conn,
              errorFrame(ErrorCode::kBadRequest, "unknown message type"));
      break;
  }
}

void Server::flush(Conn& conn) {
  while (!conn.outbound.empty()) {
    const std::string& frame = conn.outbound.front();
    const ssize_t n = ::send(conn.fd.get(), frame.data() + conn.sent,
                             frame.size() - conn.sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) hangUp(conn);
      return;  // a full socket: POLLOUT resumes the write
    }
    conn.sent += static_cast<size_t>(n);
    if (conn.sent == frame.size()) {
      conn.outbound.pop_front();
      conn.sent = 0;
    }
  }
}

void Server::hangUp(Conn& conn) {
  static obs::Counter& dropped = obs::counter("serve.conn.dropped_replies");
  dropped.add(conn.outbound.size());
  conn.outbound.clear();
  conn.closed = true;
}

void Server::enqueue(Conn& conn, std::string frame) {
  static obs::Counter& dropped = obs::counter("serve.conn.dropped_replies");
  static obs::Counter& slowDropped = obs::counter("serve.conn.slow_dropped");
  if (conn.closed) {
    dropped.add();
  } else if (conn.outbound.size() >= cfg_.maxOutbound) {
    // Slow client: its replies are piling up faster than it reads them.
    // Drop the connection rather than buffer unboundedly.
    slowDropped.add();
    conn.closed = true;
  } else {
    conn.outbound.push_back(std::move(frame));
  }
}

void Server::wake() {
  const char byte = 1;
  // A full pipe already holds a wake-up the I/O thread has yet to read.
  [[maybe_unused]] const ssize_t n = ::write(wakeWrite_.get(), &byte, 1);
}

void Server::trySend(uint64_t connId, std::string frame) {
  static obs::Counter& dropped = obs::counter("serve.conn.dropped_replies");
  {
    std::lock_guard lk(connsMu_);
    const auto it = conns_.find(connId);
    if (it == conns_.end()) {
      dropped.add();
      return;
    }
    --it->second.inFlight;
    enqueue(it->second, std::move(frame));
  }
  wake();
}

// --- admission + batch loop -------------------------------------------------

std::optional<std::string> Server::pushJob(Job job) {
  static obs::Counter& queued = obs::counter("serve.requests.queued");
  static obs::Counter& overload = obs::counter("serve.requests.overload");
  static obs::Counter& stopping = obs::counter("serve.requests.stopping");
  std::lock_guard lk(queueMu_);
  if (rejectNew_) {
    stopping.add();
    return errorFrame(ErrorCode::kShuttingDown, "daemon is draining");
  }
  if (queue_.size() >= cfg_.maxQueue) {
    overload.add();
    return errorFrame(ErrorCode::kOverload,
                      "admission queue full; retry later");
  }
  queue_.push_back(std::move(job));
  queued.add();
  queueCv_.notify_all();
  return std::nullopt;
}

bool Server::popGroup(std::vector<Job>& out) {
  std::unique_lock lk(queueMu_);
  for (;;) {
    queueCv_.wait(lk, [&] {
      if (draining_) return true;
      return !batchPaused_ && !queue_.empty();
    });
    if (queue_.empty()) {
      if (draining_) return false;
      continue;  // spurious
    }
    const size_t take = std::min(queue_.size(), cfg_.maxGroup);
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return true;
  }
}

void Server::batchLoop() {
  std::vector<Job> group;
  while (popGroup(group)) {
    processGroup(group);
    group.clear();
  }
}

void Server::processGroup(std::vector<Job>& group) {
  static obs::Counter& groups = obs::counter("serve.groups");
  static obs::Counter& groupedReqs = obs::counter("serve.grouped_requests");
  static obs::Counter& coalescedVucs = obs::counter("serve.coalesced_vucs");
  static obs::Counter& badReqs = obs::counter("serve.requests.bad");
  static obs::Counter& cacheWriteFailed =
      obs::counter("serve.cache.write_failed");
  static obs::Histogram& groupSize = obs::histogram("serve.group_size");
  static obs::Histogram& batchNs = obs::timer("serve.batch_ns");
  const obs::ScopedTimer timing(batchNs);
  groups.add();
  groupedReqs.add(group.size());
  groupSize.observe(static_cast<double>(group.size()));

  // Phase 1 per job: cache lookup, decode, prepare. Misses record their
  // slice of the coalesced VUC buffer.
  std::vector<std::string> replies(group.size());
  std::vector<std::optional<PreparedRequest>> preps(group.size());
  std::vector<DiagList> imgDiags(group.size());
  std::vector<size_t> sliceBegin(group.size(), 0);
  std::vector<corpus::Vuc> allVucs;
  std::vector<uint32_t> allVarOf;
  size_t numVars = 0;
  for (size_t i = 0; i < group.size(); ++i) {
    const Job& job = group[i];
    if (auto hit = cache_.lookup(job.payload)) {
      // The cache stores encoded reply frames, so a hit is byte-identical
      // on the wire to the miss that populated it.
      replies[i] = std::move(*hit);
      continue;
    }
    AnalyzeRequest req;
    try {
      req = decodeAnalyzeRequest(job.payload);
    } catch (const CorruptError& e) {
      badReqs.add();
      replies[i] = errorFrame(ErrorCode::kBadRequest, e.what());
      continue;
    }
    std::istringstream is(req.image);
    std::optional<loader::Image> img = loader::tryRead(is, imgDiags[i]);
    if (!img) {
      badReqs.add();
      std::ostringstream ds;
      print(imgDiags[i], ds);
      replies[i] =
          errorFrame(ErrorCode::kBadRequest, "image rejected:\n" + ds.str());
      continue;
    }
    try {
      preps[i].emplace(engine_, std::move(*img), &pool_, req.confMin,
                       &decodeCache_);
      sliceBegin[i] = allVucs.size();
      allVucs.insert(allVucs.end(), preps[i]->vucs().begin(),
                     preps[i]->vucs().end());
      // Request-wide variable ids become group-wide by a running offset, so
      // no two requests' variables share a vote.
      for (const uint32_t v : preps[i]->varOf()) {
        allVarOf.push_back(static_cast<uint32_t>(numVars + v));
      }
      numVars += preps[i]->numVars();
    } catch (const std::exception& e) {
      preps[i].reset();
      replies[i] = errorFrame(ErrorCode::kInternal, e.what());
    }
  }

  // Phase 2: ONE routed predict over every miss's VUCs — queued work from
  // different requests shares batch lanes in each wave. Votes are per
  // variable and per-sample accumulation order is preserved by the kernels,
  // so each request's slice is bit-identical to predicting that request
  // alone, as cati-infer does (DESIGN.md §7/§10).
  std::vector<StageProbs> probs;
  if (!allVucs.empty()) {
    coalescedVucs.add(allVucs.size());
    probs = engine_.predictRouted(allVucs, allVarOf, numVars, &pool_,
                                  cfg_.batch);
  }

  // Phase 3 per miss: vote, render, cache, reply.
  for (size_t i = 0; i < group.size(); ++i) {
    if (!preps[i]) continue;
    try {
      const AnalyzeResult result = preps[i]->finish(
          engine_, std::span<const StageProbs>(probs).subspan(
                       sliceBegin[i], preps[i]->vucs().size()));
      // Validation diagnostics precede analysis diagnostics, exactly the
      // order the offline tool prints them in.
      std::ostringstream ds;
      print(imgDiags[i], ds);
      print(result.diags, ds);
      replies[i] = encodeFrame(
          MsgType::kReport,
          encodeReportReply(ReportReply{result.report, ds.str()}));
      try {
        cache_.insert(group[i].payload, replies[i]);
      } catch (const IoError&) {
        // A cache that cannot persist is a slower cache, not a failed
        // request.
        cacheWriteFailed.add();
      }
    } catch (const std::exception& e) {
      replies[i] = errorFrame(ErrorCode::kInternal, e.what());
    }
  }

  // Deliver in arrival order (per-connection analyze ordering guarantee).
  for (size_t i = 0; i < group.size(); ++i) {
    trySend(group[i].connId, std::move(replies[i]));
    noteAnalyzeReply();
  }
}

void Server::noteAnalyzeReply() {
  static obs::Counter& repliesTotal = obs::counter("serve.replies");
  repliesTotal.add();
  const long n = analyzeReplies_.fetch_add(1) + 1;
  if (cfg_.maxRequests > 0 && n >= cfg_.maxRequests) requestStop();
}

}  // namespace cati::serve
