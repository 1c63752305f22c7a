// The cati-serve wire protocol (DESIGN.md §10): length-prefixed CRC-framed
// messages over a stream socket, reusing the serialize.h machinery for the
// payload codecs so requests get the same hostile-input treatment as model
// files.
//
// Frame layout (little-endian, mirroring the checksummed container framing):
//
//   magic u32 ("CSRV") | type u32 | payloadSize u64 | payload | crc32 u32
//
// The CRC covers the payload only. A frame that fails the magic, a type the
// receiver does not know, an oversized length, a truncated payload, or a CRC
// mismatch is a *malformed frame* — the daemon answers with a kBadRequest
// error when it still can, then drops the connection, because a peer that
// desynchronized once cannot be resynchronized on a stream socket.
//
// Message flow is client-driven: every request frame gets exactly one reply
// frame. Analyze replies on one connection come back in request order;
// kPing/kMetrics are answered inline by the daemon's I/O thread and may
// overtake in-flight analyze work (they exist for health checks).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/sock.h"

namespace cati::serve {

inline constexpr uint32_t kFrameMagic = 0x43535256;  // "CSRV"
/// Frames above this are rejected before allocation (a hostile length field
/// costs nothing). Generous: the largest synth images are well under 1 MiB.
inline constexpr uint64_t kMaxFramePayload = 1ULL << 28;

/// Request types (client -> daemon) occupy [1, 15], replies [16, ...], so a
/// stray reply frame sent *to* the daemon is unknown, not misinterpreted.
enum class MsgType : uint32_t {
  kAnalyze = 1,      ///< AnalyzeRequest payload -> kReport or kError
  kMetrics = 2,      ///< empty payload -> kMetricsJson (the /metrics endpoint)
  kPing = 3,         ///< empty payload -> kPong

  kReport = 16,      ///< ReportReply payload
  kError = 17,       ///< ErrorReply payload
  kMetricsJson = 18, ///< obs Registry snapshot as JSON text
  kPong = 19,        ///< empty payload
};

struct Frame {
  MsgType type = MsgType::kPing;
  std::string payload;
};

/// Encodes a complete wire frame (header + payload + CRC trailer).
/// Deterministic: same type+payload -> same bytes, which is what lets the
/// result cache store encoded reply frames and the differential tests
/// compare responses byte-for-byte.
std::string encodeFrame(MsgType type, std::string_view payload);

enum class ReadStatus : uint8_t {
  kOk,        ///< `out` holds one well-formed frame
  kEof,       ///< peer closed cleanly between frames
  kBad,       ///< malformed frame or mid-frame disconnect; stream is unusable
  kNeedMore,  ///< FrameDecoder only: it holds part of a frame
};

/// Reads one frame from `fd`, blocking. Never throws: wire trouble is a
/// status, not an exception (see sock.h's error model).
ReadStatus readFrame(int fd, Frame& out);

/// Incremental decoding for a non-blocking reader: append bytes as they
/// arrive, pop frames with next() as they complete (after kBad the stream
/// cannot be resynchronized).
class FrameDecoder {
 public:
  void append(const char* data, size_t n) { buf_.append(data, n); }
  ReadStatus next(Frame& out);
  bool empty() const { return buf_.size() == used_; }  ///< between frames

 private:
  std::string buf_;
  size_t used_ = 0;  ///< prefix of buf_ already popped as frames
};

// --- payload codecs ---------------------------------------------------------
// Codecs throw cati::CorruptError on malformed payloads (the daemon maps
// that to a kBadRequest reply). Each payload starts with its own version
// byte so the protocol can evolve per-message.

inline constexpr uint32_t kAnalyzeVersion = 1;

/// One analyze request: an image container (the bytes of a .img file) plus
/// the report options. Deliberately *no* timeout field: deadlines are a
/// batch-tool concept; the daemon bounds work via admission control instead,
/// so serve output stays bit-identical to an offline run without --timeout-ms.
struct AnalyzeRequest {
  float confMin = 0.0F;
  std::string image;  ///< CELF container bytes (loader::Image::write)
};

std::string encodeAnalyzeRequest(const AnalyzeRequest& req);
AnalyzeRequest decodeAnalyzeRequest(const std::string& payload);

inline constexpr uint32_t kReportVersion = 1;

/// The daemon's answer: exactly the offline tool's stdout report, plus the
/// rendered diagnostics (what cati-infer --verbose prints on stderr).
struct ReportReply {
  std::string report;
  std::string diagsText;
};

std::string encodeReportReply(const ReportReply& rep);
ReportReply decodeReportReply(const std::string& payload);

/// Typed error taxonomy for kError replies — the wire mirror of the tools'
/// exit codes.
enum class ErrorCode : uint32_t {
  kOverload = 1,      ///< admission queue full; retry later
  kBadRequest = 2,    ///< malformed frame or payload
  kInternal = 3,      ///< analysis failed in a way that is the daemon's fault
  kShuttingDown = 4,  ///< daemon is draining; no new work accepted
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

std::string encodeErrorReply(const ErrorReply& rep);
ErrorReply decodeErrorReply(const std::string& payload);

/// Human-readable name for an ErrorCode ("overload", "bad-request", ...).
std::string_view errorCodeName(ErrorCode code);

}  // namespace cati::serve
