// The cati-serve daemon core (DESIGN.md §10): one Engine loaded once, many
// connections, two threads (plus the pool) however many clients connect.
//
//   I/O thread (ONE)        poll()s a wake pipe, the listener and every
//                           connection: accepts, reads frames, answers
//                           ping/metrics inline, admits analyze jobs (or
//                           replies with a typed overload / shutting-down
//                           error), writes each outbound queue as the
//                           socket takes it; the only thread that opens or
//                           closes a socket
//   batch loop (ONE)        pops up to maxGroup queued jobs, serves cache
//                           hits, prepares misses, runs a single coalesced
//                           predictRouted over every miss's VUCs (fan-out
//                           happens inside, on the server's pool), renders
//                           and caches replies, queues them and pokes the
//                           wake pipe
//
// The engine, the result cache and all analysis state are touched by the
// batch loop only — no locks around the model, no concurrent-Engine hazards,
// and deterministic cache accounting. Parallelism comes from the pool inside
// predictRouted (exactly the offline tool's), so serving inherits the jobs=N
// determinism contract unchanged.
//
// Backpressure, in order of defence:
//   * bounded admission queue (maxQueue): a full queue is a typed kOverload
//     reply, not an unbounded buffer;
//   * bounded per-connection outbound queue (maxOutbound): a client that
//     stops reading gets dropped (serve.conn.slow_dropped) — no thread ever
//     blocks on a socket;
//   * clean shutdown: stop() closes admission (kShuttingDown replies),
//     drains every queued job through the batch loop, flushes every
//     connection, then joins both threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cati/engine.h"
#include "common/parallel.h"
#include "common/sock.h"
#include "loader/cache.h"
#include "serve/cache.h"
#include "serve/protocol.h"

namespace cati::serve {

struct ServerConfig {
  sock::Address listen;
  int jobs = 0;   ///< pool size; 0 = CATI_JOBS / hardware concurrency
  int batch = 0;  ///< NN batch lanes; 0 = CATI_BATCH / default
  size_t maxQueue = 64;     ///< admission bound (queued analyze jobs)
  size_t maxGroup = 16;     ///< max requests coalesced per predict pass
  size_t maxOutbound = 64;  ///< per-connection reply bound before drop
  size_t cacheBytes = 0;    ///< result-cache budget; 0 disables
  std::filesystem::path cacheDir;  ///< empty: in-memory cache
  /// Decode+lowering cache budget shared across the batch loop's requests
  /// (repeat binaries skip decode + IR construction); 0 disables.
  size_t decodeCacheBytes = loader::DecodeCache::kDefaultBytes;
  long maxRequests = 0;  ///< >0: request stop after N analyze replies
  ResultCache::HashFn cacheHash = nullptr;  ///< test override
};

class Server {
 public:
  /// Binds the listen address and opens the wake pipe (throws
  /// cati::IoError on failure) and the result cache; no threads yet.
  Server(Engine& engine, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound address — for tcp:0 it carries the real ephemeral port.
  const sock::Address& bound() const { return listener_.bound(); }

  /// Spawns the I/O and batch threads and starts serving.
  void start();

  /// Blocks until requestStop() was called (by --max-requests or another
  /// thread), or until `timeout` elapses (zero: wait forever). Returns
  /// whether a stop was requested — the polling form exists so a tool can
  /// interleave checks of a signal-handler flag (a handler cannot safely
  /// touch the cv itself).
  bool waitUntilStopRequested(std::chrono::milliseconds timeout =
                                  std::chrono::milliseconds(0));

  /// Marks the server as stopping and wakes waitUntilStopRequested().
  /// Async-signal-unsafe parts (locks) are confined to stop(); this only
  /// flips an atomic and pokes a self-pipe-free cv via a dedicated mutex.
  void requestStop();

  /// Graceful shutdown: stop accepting, reject new work, drain queued jobs
  /// through the batch loop, flush every connection, join both threads.
  /// Idempotent.
  void stop();

  // --- deterministic test seams ---
  /// While paused the batch loop pops nothing: queued jobs pile up, so a
  /// test can force M requests into one coalesced group, or overload the
  /// admission queue, without racing the loop. stop() clears the pause.
  void pauseBatchForTest(bool paused);
  /// While paused the I/O thread sends nothing: replies pile up in the
  /// bounded outbound queues, so a test can exercise the slow-client drop
  /// deterministically. stop() clears the pause.
  void pauseWritersForTest(bool paused);

 private:
  struct Job {
    uint64_t connId = 0;
    std::string payload;  ///< raw analyze payload — the cache key
  };

  /// One client connection; every field is guarded by connsMu_.
  struct Conn {
    sock::Fd fd;
    FrameDecoder in;                   ///< bytes read, not yet framed
    std::deque<std::string> outbound;  ///< encoded frames awaiting send
    size_t sent = 0;      ///< bytes of outbound.front() already written
    size_t inFlight = 0;  ///< admitted analyze jobs not yet answered
    /// Reading stopped (EOF, bad frame, stop()): close once inFlight and
    /// outbound are empty, so a half-closed peer still gets its replies.
    bool eof = false;
    bool closed = false;  ///< dropped: closed unflushed, no more sends
  };

  void ioLoop();
  /// One recv() into `buf`, then every frame it completes.
  void readFrom(uint64_t connId, Conn& conn, char* buf, size_t size);
  void handleFrame(uint64_t connId, Conn& conn, Frame& f);
  void flush(Conn& conn);    ///< writes until done or the socket is full
  void hangUp(Conn& conn);   ///< peer gone: queued replies are dropped
  /// Queues a frame, or drops the connection when its queue is full.
  void enqueue(Conn& conn, std::string frame);
  void wake();

  void batchLoop();
  /// One coalesced pass over up to maxGroup jobs (cache hits answered from
  /// the cache, misses through one predictRouted).
  void processGroup(std::vector<Job>& group);

  /// Queues the reply to one admitted analyze job of `connId` and wakes the
  /// I/O thread; never blocks. A reply for a closed connection is dropped.
  void trySend(uint64_t connId, std::string frame);

  /// Queues an analyze job; the typed error reply when admission refuses.
  std::optional<std::string> pushJob(Job job);
  /// Pops 1..maxGroup jobs; blocks while the queue is empty or the batch
  /// loop is paused. False when draining finished and the queue is empty —
  /// the batch loop's exit condition.
  bool popGroup(std::vector<Job>& out);

  /// Notes one analyze reply toward --max-requests.
  void noteAnalyzeReply();

  Engine& engine_;
  ServerConfig cfg_;
  par::ThreadPool pool_;
  sock::Listener listener_;
  ResultCache cache_;
  /// Owned by the server, threaded through every PreparedRequest of the
  /// batch loop; off (0 bytes) when decodeCacheBytes == 0.
  loader::DecodeCache decodeCache_;

  sock::Fd wakeRead_;  ///< the I/O thread polls this end; wake() writes
  sock::Fd wakeWrite_;
  std::thread ioThread_;
  std::thread batchThread_;

  std::mutex connsMu_;
  std::unordered_map<uint64_t, Conn> conns_;
  uint64_t nextConnId_ = 1;
  bool flushing_ = false;       ///< I/O thread: exit once conns_ is empty
  bool writersPaused_ = false;  ///< test seam

  std::mutex queueMu_;
  std::condition_variable queueCv_;
  std::deque<Job> queue_;
  bool draining_ = false;      ///< batch loop: finish the queue, then exit
  bool rejectNew_ = false;     ///< admission: reply kShuttingDown
  bool batchPaused_ = false;   ///< test seam

  std::mutex stopMu_;
  std::condition_variable stopCv_;
  std::atomic<bool> stopRequested_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<long> analyzeReplies_{0};
  bool started_ = false;
};

}  // namespace cati::serve
