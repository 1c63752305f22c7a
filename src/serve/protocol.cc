#include "serve/protocol.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/serialize.h"

namespace cati::serve {

namespace {

/// Fixed-size frame header, written/read as raw little-endian PODs. Kept as
/// three explicit fields (not a packed struct) so there is no padding to
/// reason about.
constexpr size_t kHeaderSize = sizeof(uint32_t) * 2 + sizeof(uint64_t);

/// The one frame check, behind readFrame and FrameDecoder: parses the frame
/// at the front of `buf`. `need` is the frame's length on kOk; on kNeedMore
/// it is the header's until that is in, then the whole frame's, whose
/// length is bounded before anyone allocates it.
ReadStatus parseFrame(std::string_view buf, Frame& out, size_t& need) {
  need = kHeaderSize;
  if (buf.size() < kHeaderSize) return ReadStatus::kNeedMore;
  uint32_t magic = 0;
  uint32_t typeRaw = 0;
  uint64_t size = 0;
  std::memcpy(&magic, buf.data(), sizeof(magic));
  std::memcpy(&typeRaw, buf.data() + sizeof(magic), sizeof(typeRaw));
  std::memcpy(&size, buf.data() + sizeof(magic) + sizeof(typeRaw),
              sizeof(size));
  if (magic != kFrameMagic || size > kMaxFramePayload) {
    return ReadStatus::kBad;
  }
  need = kHeaderSize + size + sizeof(uint32_t);
  if (buf.size() < need) return ReadStatus::kNeedMore;
  const std::string_view payload = buf.substr(kHeaderSize, size);
  uint32_t stored = 0;
  std::memcpy(&stored, buf.data() + kHeaderSize + size, sizeof(stored));
  if (io::crc32(payload.data(), payload.size()) != stored) {
    return ReadStatus::kBad;
  }
  out.type = static_cast<MsgType>(typeRaw);
  out.payload = std::string(payload);
  return ReadStatus::kOk;
}

}  // namespace

std::string encodeFrame(MsgType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size() + sizeof(uint32_t));
  const auto append = [&out](const void* p, size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  const uint32_t magic = kFrameMagic;
  const auto typeRaw = static_cast<uint32_t>(type);
  const uint64_t size = payload.size();
  append(&magic, sizeof(magic));
  append(&typeRaw, sizeof(typeRaw));
  append(&size, sizeof(size));
  out.append(payload);
  const uint32_t crc = io::crc32(payload.data(), payload.size());
  append(&crc, sizeof(crc));
  return out;
}

ReadStatus readFrame(int fd, Frame& out) {
  std::string buf;
  size_t need = kHeaderSize;
  for (;;) {
    // Read up to `need`, never past this frame, growing at most
    // geometrically: a length field that lies costs memory in proportion
    // to the bytes that really arrive.
    size_t have = buf.size();
    buf.resize(std::min(need, have + std::max(have, kHeaderSize)));
    while (have < buf.size()) {
      const ssize_t got = ::recv(fd, buf.data() + have, buf.size() - have, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return have == 0 ? ReadStatus::kEof : ReadStatus::kBad;
      have += static_cast<size_t>(got);
    }
    const ReadStatus st = parseFrame(buf, out, need);
    if (st != ReadStatus::kNeedMore) return st;
  }
}

ReadStatus FrameDecoder::next(Frame& out) {
  size_t need = 0;
  const ReadStatus st =
      parseFrame(std::string_view(buf_).substr(used_), out, need);
  if (st == ReadStatus::kOk) used_ += need;
  // Compact once per read, not once per frame.
  if (st == ReadStatus::kNeedMore) buf_.erase(0, std::exchange(used_, 0));
  return st;
}

// --- payload codecs ---------------------------------------------------------

namespace {

/// Runs `body` over a Writer on a fresh string stream and returns the bytes.
template <typename Fn>
std::string encodePayload(Fn&& body) {
  std::ostringstream os;
  io::Writer w(os);
  body(w);
  return std::move(os).str();
}

/// Runs `body` over a Reader on `payload` after checking the version field.
/// Trailing garbage after the decoded fields is a corrupt payload too — a
/// desynchronized client should hear about it, not have bytes ignored.
template <typename Fn>
auto decodePayload(const std::string& payload, uint32_t version,
                   const char* what, Fn&& body) {
  std::istringstream is(payload);
  io::Reader r(is, payload.size());
  if (r.pod<uint32_t>() != version) {
    throw CorruptError(std::string(what) + ": unsupported version");
  }
  auto result = body(r);
  if (is.peek() != std::char_traits<char>::eof()) {
    throw CorruptError(std::string(what) + ": trailing bytes");
  }
  return result;
}

}  // namespace

std::string encodeAnalyzeRequest(const AnalyzeRequest& req) {
  return encodePayload([&](io::Writer& w) {
    w.pod<uint32_t>(kAnalyzeVersion);
    w.pod(req.confMin);
    w.str(req.image);
  });
}

AnalyzeRequest decodeAnalyzeRequest(const std::string& payload) {
  return decodePayload(
      payload, kAnalyzeVersion, "analyze request", [](io::Reader& r) {
        AnalyzeRequest req;
        req.confMin = r.pod<float>();
        req.image = r.str();
        return req;
      });
}

std::string encodeReportReply(const ReportReply& rep) {
  return encodePayload([&](io::Writer& w) {
    w.pod<uint32_t>(kReportVersion);
    w.str(rep.report);
    w.str(rep.diagsText);
  });
}

ReportReply decodeReportReply(const std::string& payload) {
  return decodePayload(
      payload, kReportVersion, "report reply", [](io::Reader& r) {
        ReportReply rep;
        rep.report = r.str();
        rep.diagsText = r.str();
        return rep;
      });
}

std::string encodeErrorReply(const ErrorReply& rep) {
  return encodePayload([&](io::Writer& w) {
    w.pod(static_cast<uint32_t>(rep.code));
    w.str(rep.message);
  });
}

ErrorReply decodeErrorReply(const std::string& payload) {
  std::istringstream is(payload);
  io::Reader r(is, payload.size());
  ErrorReply rep;
  rep.code = static_cast<ErrorCode>(r.pod<uint32_t>());
  rep.message = r.str();
  return rep;
}

std::string_view errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverload:
      return "overload";
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

}  // namespace cati::serve
