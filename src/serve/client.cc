#include "serve/client.h"

#include "common/errors.h"

namespace cati::serve {

void Client::send(MsgType type, std::string_view payload) {
  const std::string frame = encodeFrame(type, payload);
  if (!sock::sendAll(fd_.get(), frame.data(), frame.size())) {
    throw IoError("serve client: send failed (daemon hung up?)");
  }
}

Frame Client::call(MsgType type, std::string_view payload) {
  send(type, payload);
  Frame reply;
  const ReadStatus st = recv(reply);
  if (st == ReadStatus::kOk) return reply;
  throw IoError(st == ReadStatus::kEof
                    ? "serve client: connection closed before reply"
                    : "serve client: malformed reply frame");
}

std::string Client::metricsJson() {
  Frame reply = call(MsgType::kMetrics, "");
  if (reply.type != MsgType::kMetricsJson) {
    throw IoError("serve client: unexpected reply to metrics request");
  }
  return std::move(reply.payload);
}

bool Client::ping() {
  const Frame reply = call(MsgType::kPing, "");
  return reply.type == MsgType::kPong;
}

}  // namespace cati::serve
