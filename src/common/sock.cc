#include "common/sock.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace cati::sock {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

uint16_t parsePort(std::string_view s) {
  if (s.empty()) throw std::invalid_argument("missing port");
  unsigned long v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("bad port: " + std::string(s));
    }
    v = v * 10 + static_cast<unsigned long>(c - '0');
    if (v > 65535) throw std::invalid_argument("port out of range");
  }
  return static_cast<uint16_t>(v);
}

}  // namespace

Address Address::parse(std::string_view spec) {
  if (spec.starts_with("unix:")) {
    Address a;
    a.kind = Kind::kUnix;
    a.path = std::string(spec.substr(5));
    if (a.path.empty()) {
      throw std::invalid_argument("unix address needs a path");
    }
    // sun_path is a fixed 108-byte array; reject early with a clear message
    // instead of a truncated bind.
    if (a.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::invalid_argument("unix socket path too long: " + a.path);
    }
    return a;
  }
  if (spec.starts_with("tcp:")) {
    Address a;
    a.kind = Kind::kTcp;
    const std::string_view rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos) {
      a.port = parsePort(rest);
    } else {
      a.host = std::string(rest.substr(0, colon));
      a.port = parsePort(rest.substr(colon + 1));
      in_addr tmp{};
      if (a.host.empty() || inet_pton(AF_INET, a.host.c_str(), &tmp) != 1) {
        throw std::invalid_argument("bad tcp host (dotted quad required): " +
                                    a.host);
      }
    }
    return a;
  }
  throw std::invalid_argument("address must be unix:PATH or tcp:[HOST:]PORT, "
                              "got: " +
                              std::string(spec));
}

std::string Address::str() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Fd& Fd::operator=(Fd&& o) noexcept {
  if (this != &o) {
    reset();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

/// A stream socket for `a`'s family plus the address to bind or connect it
/// to.
struct Endpoint {
  union {
    sockaddr any;
    sockaddr_un un;
    sockaddr_in in;
  } sa{};
  socklen_t len = 0;
  Fd fd;
};

Endpoint endpoint(const Address& a, int type) {
  Endpoint e;
  if (a.kind == Address::Kind::kUnix) {
    e.sa.un.sun_family = AF_UNIX;
    std::memcpy(e.sa.un.sun_path, a.path.c_str(), a.path.size() + 1);
    e.len = sizeof(e.sa.un);
  } else {
    e.sa.in.sin_family = AF_INET;
    e.sa.in.sin_port = htons(a.port);
    if (inet_pton(AF_INET, a.host.c_str(), &e.sa.in.sin_addr) != 1) {
      throw IoError("bad tcp host: " + a.host);
    }
    e.len = sizeof(e.sa.in);
  }
  e.fd = Fd(::socket(e.sa.any.sa_family, type, 0));
  if (!e.fd.valid()) throwErrno("socket(" + a.str() + ")");
  return e;
}

}  // namespace

Listener Listener::open(const Address& addr) {
  const bool tcp = addr.kind == Address::Kind::kTcp;
  // Sweep a stale socket file from a previous daemon; bind would fail on
  // it. A *live* daemon on the same path loses its socket — same contract
  // as every pid-file-less unix daemon.
  if (!tcp) ::unlink(addr.path.c_str());
  Endpoint e = endpoint(addr, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC);
  const int one = 1;
  if (tcp) {
    ::setsockopt(e.fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(e.fd.get(), &e.sa.any, e.len) != 0) {
    throwErrno("bind(" + addr.str() + ")");
  }
  if (::listen(e.fd.get(), SOMAXCONN) != 0) {
    throwErrno("listen(" + addr.str() + ")");
  }
  Listener l;
  l.bound_ = addr;
  if (tcp && ::getsockname(e.fd.get(), &e.sa.any, &e.len) == 0) {
    l.bound_.port = ntohs(e.sa.in.sin_port);
  }
  l.fd_ = std::move(e.fd);
  return l;
}

Listener::~Listener() {
  if (fd_.valid() && bound_.kind == Address::Kind::kUnix) {
    ::unlink(bound_.path.c_str());
  }
}

Fd connect(const Address& addr) {
  Endpoint e = endpoint(addr, SOCK_STREAM);
  if (::connect(e.fd.get(), &e.sa.any, e.len) != 0) {
    throwErrno("connect(" + addr.str() + ")");
  }
  return std::move(e.fd);
}

bool sendAll(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

}  // namespace cati::sock
