// Loopback client for net::Server's newline-delimited JSON protocol.
//
// One thread drives any number of connections: requests are written when
// due, replies are matched to them in per-connection FIFO order (the server
// answers each connection in request order), and every reply carries the
// time its request was due, sent and answered, so open-loop latency can be
// taken from the due time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace remgen::bench {

/// A reply matched to the request that caused it.
struct Reply {
  std::size_t conn = 0;
  std::int64_t tag = 0;    ///< Caller's label for the request.
  double due_us = 0.0;     ///< When the request was due (now_us clock).
  double sent_us = 0.0;    ///< When its last byte was written.
  double recv_us = 0.0;    ///< When its reply line was complete.
  std::string line;        ///< Reply without the newline.
};

class LoopClient {
 public:
  /// Opens `connections` TCP connections to 127.0.0.1:port (TCP_NODELAY).
  /// Throws std::runtime_error when a connection cannot be made.
  LoopClient(std::uint16_t port, std::size_t connections);
  ~LoopClient();
  LoopClient(const LoopClient&) = delete;
  LoopClient& operator=(const LoopClient&) = delete;

  /// Writes one request line (newline appended) on `conn`.
  void send(std::size_t conn, const std::string& line, std::int64_t tag, double due_us);

  /// Reads replies until `until_us` (now_us clock) or until at least one
  /// reply arrived, whichever is first, and hands each to `on_reply` after
  /// reading (so the callback may send). Returns false when a connection
  /// closed or failed.
  bool pump(double until_us, const std::function<void(const Reply&)>& on_reply);

  /// Pumps until nothing is outstanding or `deadline_us` passes; false when
  /// requests were still outstanding at the deadline or a connection failed.
  bool drain(double deadline_us, const std::function<void(const Reply&)>& on_reply);

  /// Sends one line on `conn` and waits for its reply (closed loop of one).
  /// Use it only while nothing else is outstanding: other replies that
  /// arrive meanwhile are dropped. Throws std::runtime_error when no reply
  /// arrives within `timeout_us`.
  Reply round_trip(std::size_t conn, const std::string& line, double timeout_us = 30e6);

  [[nodiscard]] std::size_t outstanding() const;
  [[nodiscard]] std::size_t outstanding(std::size_t conn) const;

 private:
  struct Pending {
    std::int64_t tag = 0;
    double due_us = 0.0;
    double sent_us = 0.0;
  };
  struct Conn {
    int fd = -1;
    std::string in;
    std::deque<Pending> pending;
  };
  std::vector<Conn> conns_;
};

}  // namespace remgen::bench
