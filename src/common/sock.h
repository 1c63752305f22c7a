// Minimal stream-socket helpers for cati-serve (DESIGN.md §10): address
// parsing ("unix:/path" or "tcp:[HOST:]PORT"), an RAII fd, a non-blocking
// listener for a poll() loop, and an EINTR-safe full send.
//
// Error model: environment failures (socket, bind, listen, connect) throw
// cati::IoError; per-connection I/O failures are returned as status codes
// because a peer hanging up is normal serving traffic, not an error the
// daemon should unwind on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/errors.h"

namespace cati::sock {

/// A listen/connect endpoint. Two kinds:
///   unix:/some/path        unix-domain stream socket
///   tcp:PORT               TCP on 127.0.0.1:PORT (PORT 0 = ephemeral)
///   tcp:HOST:PORT          TCP on HOST:PORT (HOST must be a dotted quad;
///                          no resolver — the daemon binds addresses, not
///                          names)
struct Address {
  enum class Kind : uint8_t { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;               ///< unix only
  std::string host = "127.0.0.1";  ///< tcp only
  uint16_t port = 0;              ///< tcp only

  /// Parses the spec above; throws std::invalid_argument with a usable
  /// message on anything else (the tool maps it to a usage error).
  static Address parse(std::string_view spec);

  /// Round-trips back to the spec form ("unix:/p", "tcp:127.0.0.1:8321").
  std::string str() const;
};

/// Move-only owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// A bound, listening, non-blocking stream socket: poll its fd for POLLIN,
/// then accept4(2) until EAGAIN. For unix addresses a stale socket file at
/// the path is unlinked before bind (the previous daemon's debris), and the
/// file is unlinked again on destruction.
class Listener {
 public:
  /// Binds and listens; throws cati::IoError naming the address on failure.
  static Listener open(const Address& addr);

  Listener(Listener&&) = default;
  Listener& operator=(Listener&&) = default;
  ~Listener();

  int fd() const { return fd_.get(); }

  /// The actual bound address — for tcp:0 this carries the kernel-assigned
  /// ephemeral port, so tests can connect to what they got.
  const Address& bound() const { return bound_; }

 private:
  Listener() = default;
  Fd fd_;
  Address bound_;
};

/// Connects to `addr`; throws cati::IoError on failure.
Fd connect(const Address& addr);

/// Sends exactly `n` bytes (EINTR-safe, MSG_NOSIGNAL so a vanished peer is
/// a false return, not a SIGPIPE). False on any error.
bool sendAll(int fd, const void* data, size_t n);

}  // namespace cati::sock
