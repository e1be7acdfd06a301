#include "serve/client.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace mstep::serve {

Client Client::connect(const std::string& endpoint) {
  if (endpoint.rfind("unix:", 0) == 0) {
    return connect_unix(endpoint.substr(5));
  }
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    throw std::invalid_argument(
        "bad endpoint '" + endpoint +
        "': want unix:<path> or <host>:<port>");
  }
  int port = 0;
  try {
    port = std::stoi(endpoint.substr(colon + 1));
  } catch (const std::exception&) {
    throw std::invalid_argument("bad port in endpoint '" + endpoint + "'");
  }
  return connect_tcp(endpoint.substr(0, colon), port);
}

Client Client::connect_tcp(const std::string& host, int port) {
  return Client(serve::connect_tcp(host, port));
}

Client Client::connect_unix(const std::string& path) {
  return Client(serve::connect_unix(path));
}

std::pair<MsgType, std::string> Client::roundtrip(MsgType type,
                                                  const std::string& payload) {
  sock_.write_all(encode_header(type, payload.size()));
  sock_.write_all(payload);
  if (timeout_ms_ >= 0 && !sock_.wait_readable(timeout_ms_)) {
    throw SocketError("timed out waiting for the server's reply");
  }
  char header[kHeaderBytes];
  if (!sock_.read_exact(header, kHeaderBytes)) {
    throw SocketError("server closed the connection before replying");
  }
  const FrameHeader fh = decode_header(header, kDefaultMaxPayload);
  std::string body;
  body.resize(static_cast<std::size_t>(fh.payload_len));
  if (fh.payload_len > 0 && !sock_.read_exact(&body[0], body.size())) {
    throw SocketError("server closed the connection mid-reply");
  }
  return {fh.type, std::move(body)};
}

SolveResponse Client::solve(const SolveRequest& request) {
  return solve_encoded(request.encode());
}

SolveResponse Client::solve_encoded(const std::string& payload) {
  auto [type, body] = roundtrip(MsgType::kSolve, payload);
  if (type == MsgType::kSolveReply) {
    return SolveResponse::decode(body);
  }
  if (type == MsgType::kErrorReply) {
    const StatusResponse status = StatusResponse::decode(body);
    SolveResponse r;
    r.retcode = status.retcode;
    r.message = status.body;
    return r;
  }
  throw ProtocolError("unexpected reply type to a solve request");
}

SolveResponse Client::solve_catalog(const std::string& spec,
                                    const std::string& config,
                                    std::vector<Vec> rhs) {
  SolveRequest q;
  q.source = MatrixSource::kCatalog;
  q.problem = spec;
  q.config = config;
  q.rhs = std::move(rhs);
  return solve(q);
}

SolveResponse Client::solve_with_retry(const SolveRequest& request,
                                       int max_attempts, int backoff_ms,
                                       int* attempts) {
  // A retry resends the same bytes: encode them once.
  const std::string payload = request.encode();
  SolveResponse r;
  int backoff = backoff_ms;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    r = solve_encoded(payload);
    if (attempts != nullptr) *attempts = attempt;
    if (!retryable(r.retcode)) return r;
    if (attempt < max_attempts) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff *= 2;
    }
  }
  return r;
}

StatusResponse Client::metrics() {
  auto [type, body] = roundtrip(MsgType::kMetrics, std::string());
  if (type != MsgType::kMetricsReply && type != MsgType::kErrorReply) {
    throw ProtocolError("unexpected reply type to a metrics request");
  }
  return StatusResponse::decode(body);
}

StatusResponse Client::shutdown() {
  auto [type, body] = roundtrip(MsgType::kShutdown, std::string());
  if (type != MsgType::kShutdownReply && type != MsgType::kErrorReply) {
    throw ProtocolError("unexpected reply type to a shutdown request");
  }
  return StatusResponse::decode(body);
}

}  // namespace mstep::serve
