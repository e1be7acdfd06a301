// serve::Client — the library side of the mstep_served protocol, used by
// the mstep_request CLI, bench/bench_served.cpp, and the end-to-end
// tests.
//
// A Client owns one connection and can issue any number of requests over
// it (the protocol is strictly request/reply, so a connection is also a
// serialization domain; run concurrent requests on concurrent clients).
// Transport and framing failures throw (SocketError / ProtocolError);
// server-side conditions come back as retcodes in the response structs —
// a busy server is data, not an exception, because shedding is part of
// the protocol's normal operation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace mstep::serve {

class Client {
 public:
  /// Endpoint grammar shared with mstep_request --connect and
  /// bench_served: "unix:<path>" or "<host>:<port>".
  static Client connect(const std::string& endpoint);
  static Client connect_tcp(const std::string& host, int port);
  static Client connect_unix(const std::string& path);

  /// Reply wait limit per request; < 0 blocks forever (default — solves
  /// are allowed to be slow, the admission gate is what bounds them).
  void set_timeout_ms(int timeout_ms) { timeout_ms_ = timeout_ms; }

  /// One solve round trip.  Server-side failures are in the retcode.
  [[nodiscard]] SolveResponse solve(const SolveRequest& request);

  /// Convenience: solve a catalog spec with `nrhs` of the problem's own /
  /// manufactured right-hand sides (0 = the problem's one RHS).
  [[nodiscard]] SolveResponse solve_catalog(const std::string& spec,
                                            const std::string& config,
                                            std::vector<Vec> rhs = {});

  /// As solve(), but retry while the retcode is retryable (kBusy /
  /// kShuttingDown), sleeping `backoff_ms` doubling each attempt.
  /// Returns the last response; `attempts` counts round trips made.
  [[nodiscard]] SolveResponse solve_with_retry(const SolveRequest& request,
                                               int max_attempts,
                                               int backoff_ms,
                                               int* attempts = nullptr);

  /// The daemon's metrics JSON document.
  [[nodiscard]] StatusResponse metrics();

  /// Ask the daemon to drain and exit.
  [[nodiscard]] StatusResponse shutdown();

  void close() { sock_.close(); }

 private:
  explicit Client(Socket sock) : sock_(std::move(sock)) {}

  /// One solve round trip of an already encoded SolveRequest payload.
  [[nodiscard]] SolveResponse solve_encoded(const std::string& payload);

  /// Send one frame, read one reply.  kErrorReply is decoded and returned
  /// as {kErrorReply, status-payload} so callers can fold it into their
  /// response type.
  [[nodiscard]] std::pair<MsgType, std::string> roundtrip(
      MsgType type, const std::string& payload);

  Socket sock_;
  int timeout_ms_ = -1;
};

}  // namespace mstep::serve
