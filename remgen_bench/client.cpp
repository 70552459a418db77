#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "spans.hpp"

namespace remgen::bench {

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(saved));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

timespec to_timespec(double us) {
  us = std::max(us, 0.0);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(us / 1e6);
  ts.tv_nsec = static_cast<long>(std::fmod(us, 1e6) * 1e3);
  return ts;
}

}  // namespace

LoopClient::LoopClient(std::uint16_t port, std::size_t connections) {
  conns_.resize(connections);
  try {
    for (Conn& c : conns_) c.fd = connect_loopback(port);
  } catch (...) {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    throw;
  }
}

LoopClient::~LoopClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void LoopClient::send(std::size_t conn, const std::string& line, std::int64_t tag,
                      double due_us) {
  Conn& c = conns_.at(conn);
  const std::string bytes = line + '\n';
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(c.fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{c.fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
  }
  c.pending.push_back(Pending{tag, due_us, now_us()});
}

bool LoopClient::pump(double until_us, const std::function<void(const Reply&)>& on_reply) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) fds[i] = pollfd{conns_[i].fd, POLLIN, 0};
  std::vector<Reply> replies;
  bool healthy = true;
  while (replies.empty()) {
    const double wait = until_us - now_us();
    const timespec timeout = to_timespec(wait);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) {
      if (now_us() >= until_us) break;
      continue;
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = conns_[i];
      char buffer[65536];
      while (true) {
        const ssize_t n = ::recv(c.fd, buffer, sizeof buffer, 0);
        if (n > 0) {
          c.in.append(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) break;
        healthy = false;  // EOF or error.
        break;
      }
      const double recv_us = now_us();
      std::size_t start = 0;
      for (std::size_t nl = c.in.find('\n'); nl != std::string::npos;
           nl = c.in.find('\n', start)) {
        Reply reply;
        reply.conn = i;
        reply.recv_us = recv_us;
        reply.line = c.in.substr(start, nl - start);
        start = nl + 1;
        if (!c.pending.empty()) {
          reply.tag = c.pending.front().tag;
          reply.due_us = c.pending.front().due_us;
          reply.sent_us = c.pending.front().sent_us;
          c.pending.pop_front();
        } else {
          reply.tag = -1;  // Unsolicited line: the caller's check fails it.
        }
        replies.push_back(std::move(reply));
      }
      c.in.erase(0, start);
    }
    if (!healthy || now_us() >= until_us) break;
  }
  for (const Reply& reply : replies) on_reply(reply);
  return healthy;
}

bool LoopClient::drain(double deadline_us, const std::function<void(const Reply&)>& on_reply) {
  while (outstanding() > 0 && now_us() < deadline_us) {
    if (!pump(deadline_us, on_reply)) return false;
  }
  return outstanding() == 0;
}

Reply LoopClient::round_trip(std::size_t conn, const std::string& line, double timeout_us) {
  const double start = now_us();
  send(conn, line, -2, start);
  Reply out;
  bool got = false;
  const double deadline = start + timeout_us;
  while (!got && now_us() < deadline) {
    const bool healthy = pump(deadline, [&](const Reply& r) {
      if (r.tag == -2 && r.conn == conn) {
        out = r;
        got = true;
      }
    });
    if (!healthy) break;
  }
  if (!got) throw std::runtime_error("no reply from the server");
  return out;
}

std::size_t LoopClient::outstanding() const {
  std::size_t total = 0;
  for (const Conn& c : conns_) total += c.pending.size();
  return total;
}

std::size_t LoopClient::outstanding(std::size_t conn) const {
  return conns_.at(conn).pending.size();
}

}  // namespace remgen::bench
