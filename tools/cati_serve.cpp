// cati-serve — long-lived inference daemon (DESIGN.md §10): loads the model
// once, serves concurrent analyze requests over a unix-domain or TCP socket
// with cross-request dynamic batching, a bounded LRU result cache, admission
// control, and a /metrics endpoint (the kMetrics frame).
//
// The serving contract: every kReport reply is byte-identical to what
// `cati-infer MODEL IMAGE` prints for the same image and options, whatever
// the interleaving of clients, the --jobs/--batch setting, or the cache
// state — proven by the differential suite in tests/test_serve*.cc.
//
// SIGINT/SIGTERM (or --max-requests N) trigger a graceful drain: queued
// requests are answered, in-flight replies flushed, then the daemon exits 0.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>

#include "cati/engine.h"
#include "cli.h"
#include "common/obs.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t gSignal = 0;
void onSignal(int) { gSignal = 1; }

struct Options {
  std::string model;
  cati::serve::ServerConfig cfg;
  bool quant = false;
  bool useMmap = false;
};

int run(Options& o, const cati::cli::Common& common) {
  using namespace cati;
  o.cfg.batch = common.batch;

  // The daemon always keeps metrics on: the /metrics endpoint is part of
  // the protocol, not an opt-in debugging aid.
  obs::setEnabled(true);

  // --mmap makes cold start O(pages touched) for quantized containers: the
  // daemon starts answering before the whole model has been paged in.
  Engine engine = Engine::loadFile(
      o.model, o.useMmap ? Engine::LoadMode::kMap : Engine::LoadMode::kStream);
  if (o.quant && !engine.quantized()) engine = engine.quantize();
  serve::Server server(engine, o.cfg);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  server.start();
  std::fprintf(stderr, "cati-serve: listening on %s\n",
               server.bound().str().c_str());
  std::fflush(stderr);
  // A signal handler cannot touch the server's cv, so poll the flag
  // alongside the server's own stop request (--max-requests).
  while (gSignal == 0 &&
         !server.waitUntilStopRequested(std::chrono::milliseconds(50))) {
  }
  server.stop();
  std::fprintf(stderr, "cati-serve: drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cati;
  using cati::cli::integer;
  Options o;
  serve::ServerConfig& cfg = o.cfg;
  cli::Table table(
      "cati-serve",
      {cli::positional("MODEL.bin", &o.model),
       cli::required({"--listen", "ADDR", cli::Opt::Kind::kValue,
                      [&cfg](const std::string& v) {
                        cfg.listen = sock::Address::parse(v);
                      }}),
       integer("--jobs", "N", &cfg.jobs, 1, par::kMaxJobs),
       integer("--max-queue", "N", &cfg.maxQueue, 1),
       integer("--max-group", "N", &cfg.maxGroup, 1),
       cli::size("--cache-bytes", "SIZE", &cfg.cacheBytes),
       cli::text("--cache-dir", "DIR", &cfg.cacheDir),
       // Decode+lowering cache budget (0 disables); repeat binaries across
       // requests skip decode and IR construction.
       cli::size("--decode-cache", "SIZE", &cfg.decodeCacheBytes),
       integer("--max-requests", "N", &cfg.maxRequests, 1),
       cli::flag("--quant", &o.quant),
       cli::flag("--mmap", &o.useMmap)},
      "  ADDR is unix:PATH or tcp:[HOST:]PORT (tcp:0 picks an ephemeral "
      "port);\n  SIZE takes an optional K/M/G suffix\n");
  return cli::toolMain(table, argc, argv,
                       [&] { return run(o, table.common()); });
}
