// remgen-loadgen — replay and open-loop load driver for remgen-served.
//
// Replay mode (byte-identity harness):
//   remgen-loadgen --port N --replay requests.jsonl --out responses.jsonl
// pipelines every line over one connection, collects one response per line,
// stable-sorts by id and writes them — the same deterministic order offline
// `remgen-serve` replay produces, so `cmp` proves byte-identity.
//
// Open-loop mode (latency under load):
//   remgen-loadgen --port N --rate 2000 --duration 10 --connections 4 \
//                  [--reload-at 5 --reload-snapshot new.snap [--reload-map m]]
// sends deterministic best-AP point queries on a fixed schedule (open loop:
// send times never wait for responses, so queueing delay shows up in the
// latency tail instead of silently throttling the generator), optionally
// firing a hot reload mid-run on a dedicated admin connection, then drains
// and prints qps + p50/p90/p99/p99.9 on stderr. Exits 1 on any error
// response, dropped request or failed reload.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/args.hpp"
#include "util/file.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace remgen;
using Clock = std::chrono::steady_clock;

int usage() {
  std::fprintf(stderr,
               "remgen-loadgen — drive a remgen-served instance\n\n"
               "  --host ADDR           server address (default 127.0.0.1)\n"
               "  --port N              server port (required)\n\n"
               "replay mode:\n"
               "  --replay FILE         pipeline FILE's request lines over one connection\n"
               "  --out FILE            write responses stable-sorted by id\n\n"
               "open-loop mode:\n"
               "  --rate N              requests per second across all connections\n"
               "  --duration S          seconds to keep sending (default 10)\n"
               "  --connections N       data connections, round-robin (default 4)\n"
               "  --top N               best-AP list length per query (default 3)\n"
               "  --extent X,Y,Z        query volume upper corner (default 10,10,3)\n"
               "  --quantize STEP       snap coordinates to a STEP lattice (0 = off);\n"
               "                        repeats then hit the server's result cache\n"
               "  --seed N              query-position RNG seed (default 42)\n"
               "  --reload-at S         send a hot reload S seconds into the run\n"
               "  --reload-snapshot F   snapshot file for the reload\n"
               "  --reload-map NAME     map to swap (default: server default map)\n");
  return 2;
}

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// One nonblocking connection with line-framed buffers on both sides.
struct Conn {
  int fd = -1;
  std::string out;          ///< Bytes not yet written.
  std::size_t sent = 0;     ///< Prefix of `out` already written.
  std::string in;           ///< Bytes read, not yet split into lines.
  bool eof = false;
};

bool pump_write(Conn& conn) {
  while (conn.sent < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.sent, conn.out.size() - conn.sent, MSG_DONTWAIT);
    if (n > 0) {
      conn.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  if (conn.sent == conn.out.size() && conn.sent > (1u << 20)) {
    conn.out.clear();
    conn.sent = 0;
  }
  return true;
}

bool pump_read(Conn& conn, std::vector<std::string>& lines) {
  char buffer[65536];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n > 0) {
      conn.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) conn.eof = true;
    if (n < 0 && !(errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    break;
  }
  std::size_t start = 0;
  while (true) {
    const std::size_t newline = conn.in.find('\n', start);
    if (newline == std::string::npos) break;
    lines.push_back(conn.in.substr(start, newline - start));
    start = newline + 1;
  }
  conn.in.erase(0, start);
  return true;
}

int run_replay(const std::string& host, std::uint16_t port, const std::string& replay_path,
               const std::string& out_path) {
  std::ifstream input(replay_path);
  if (!input) {
    std::fprintf(stderr, "error: cannot open '%s'\n", replay_path.c_str());
    return 1;
  }
  std::size_t expected = 0;
  Conn conn;
  conn.fd = connect_to(host, port);
  if (conn.fd < 0) {
    std::fprintf(stderr, "error: cannot connect to %s:%u\n", host.c_str(), unsigned{port});
    return 1;
  }
  for (std::string line; std::getline(input, line);) {
    conn.out += line;
    conn.out += '\n';
    ++expected;
  }

  std::vector<std::string> responses;
  bool sent_all = false;
  while (responses.size() < expected) {
    if (!pump_write(conn)) {
      std::fprintf(stderr, "error: write failed: %s\n", std::strerror(errno));
      ::close(conn.fd);
      return 1;
    }
    if (!sent_all && conn.sent == conn.out.size()) {
      ::shutdown(conn.fd, SHUT_WR);  // All pipelined; tell the server we're done.
      sent_all = true;
    }
    pollfd pfd{conn.fd, POLLIN, 0};
    if (!sent_all) pfd.events |= POLLOUT;
    if (::poll(&pfd, 1, 10000) < 0 && errno != EINTR) break;
    if (!pump_read(conn, responses)) {
      std::fprintf(stderr, "error: read failed: %s\n", std::strerror(errno));
      ::close(conn.fd);
      return 1;
    }
    if (conn.eof) break;
  }
  ::close(conn.fd);
  if (responses.size() != expected) {
    std::fprintf(stderr, "error: got %zu of %zu responses before EOF\n", responses.size(),
                 expected);
    return 1;
  }

  // Stable sort by id mirrors remgen-serve's deterministic offline ordering
  // (errors with the -1 sentinel keep their arrival order, like replay_jsonl).
  std::vector<std::pair<std::int64_t, std::size_t>> order;
  order.reserve(responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    std::int64_t id = -1;
    try {
      id = obs::Json::parse(responses[i]).at("id").as_int64();
    } catch (const std::exception&) {
    }
    order.emplace_back(id, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string output;
  for (const auto& [id, index] : order) {
    output += responses[index];
    output += '\n';
  }
  try {
    util::write_file(out_path, output);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "replayed %zu lines, %zu responses\n", expected, responses.size());
  return 0;
}

struct OpenLoopOptions {
  double rate = 1000.0;
  double duration_s = 10.0;
  std::size_t connections = 4;
  long top = 3;
  double extent[3] = {10.0, 10.0, 3.0};
  double quantize = 0.0;  ///< >0 snaps coordinates to this lattice so repeats
                          ///< hit the server's result cache (stable CI rates).
  std::uint64_t seed = 42;
  double reload_at_s = -1.0;
  std::string reload_snapshot;
  std::string reload_map;
};

int run_open_loop(const std::string& host, std::uint16_t port, const OpenLoopOptions& options) {
  std::vector<Conn> conns(options.connections);
  for (Conn& conn : conns) {
    conn.fd = connect_to(host, port);
    if (conn.fd < 0) {
      std::fprintf(stderr, "error: cannot connect to %s:%u\n", host.c_str(), unsigned{port});
      return 1;
    }
  }
  Conn admin;  // Reload rides a dedicated connection so its (single) response
               // cannot interleave with data-connection ordering checks.
  const bool want_reload = options.reload_at_s >= 0.0 && !options.reload_snapshot.empty();
  if (want_reload) {
    admin.fd = connect_to(host, port);
    if (admin.fd < 0) {
      std::fprintf(stderr, "error: cannot connect admin connection\n");
      return 1;
    }
  }

  util::Rng rng(options.seed);
  const auto total = static_cast<std::size_t>(options.rate * options.duration_s);
  std::vector<double> send_us(total + 1, 0.0);  // send_us[id]; ids are 1-based.
  std::vector<double> latencies_us;
  latencies_us.reserve(total);
  std::size_t sent = 0;
  std::size_t completed = 0;
  std::size_t errors = 0;
  std::size_t overloads = 0;
  bool reload_sent = false;
  bool reload_ok = false;

  const auto start = Clock::now();
  const auto elapsed_us = [&start] {
    return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  };
  const double period_us = 1e6 / options.rate;
  const double duration_us = options.duration_s * 1e6;
  const double drain_deadline_us = duration_us + 15e6;

  std::vector<std::string> lines;
  std::vector<pollfd> pfds;
  while (true) {
    const double now_us = elapsed_us();
    // Open loop: emit every request whose scheduled time has passed.
    while (sent < total && static_cast<double>(sent) * period_us <= now_us) {
      const std::size_t id = sent + 1;
      Conn& conn = conns[sent % conns.size()];
      double coords[3];
      for (std::size_t axis = 0; axis < 3; ++axis) {
        coords[axis] = rng.uniform(0.0, options.extent[axis]);
        if (options.quantize > 0.0) {
          coords[axis] = std::round(coords[axis] / options.quantize) * options.quantize;
        }
      }
      conn.out += util::format(
          R"({{"id":{},"type":"point","top":{},"x":{},"y":{},"z":{}}})", id, options.top,
          coords[0], coords[1], coords[2]);
      conn.out += '\n';
      send_us[id] = elapsed_us();
      ++sent;
    }
    if (want_reload && !reload_sent && now_us >= options.reload_at_s * 1e6) {
      obs::Json::Object object;
      object["id"] = obs::Json(std::int64_t{0});
      object["type"] = obs::Json(std::string("reload"));
      object["snapshot"] = obs::Json(options.reload_snapshot);
      if (!options.reload_map.empty()) object["map"] = obs::Json(options.reload_map);
      admin.out += obs::Json(std::move(object)).dump();
      admin.out += '\n';
      reload_sent = true;
    }

    pfds.clear();
    for (Conn& conn : conns) {
      short events = POLLIN;
      if (conn.sent < conn.out.size()) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
    }
    if (want_reload) {
      short events = POLLIN;
      if (admin.sent < admin.out.size()) events |= POLLOUT;
      pfds.push_back({admin.fd, events, 0});
    }
    const double until_next_send =
        sent < total ? std::max(0.0, static_cast<double>(sent) * period_us - elapsed_us()) : 5000.0;
    const int timeout_ms = std::min(5, static_cast<int>(until_next_send / 1000.0));
    if (::poll(pfds.data(), pfds.size(), timeout_ms) < 0 && errno != EINTR) {
      std::fprintf(stderr, "error: poll failed: %s\n", std::strerror(errno));
      return 1;
    }

    for (Conn& conn : conns) {
      if (!pump_write(conn) || !pump_read(conn, lines)) {
        std::fprintf(stderr, "error: connection i/o failed: %s\n", std::strerror(errno));
        return 1;
      }
      if (conn.eof && completed < sent) {
        std::fprintf(stderr, "error: server closed a connection mid-run\n");
        return 1;
      }
    }
    if (want_reload && reload_sent && !(pump_write(admin) && pump_read(admin, lines))) {
      std::fprintf(stderr, "error: admin connection i/o failed\n");
      return 1;
    }
    const double receive_us = elapsed_us();
    for (const std::string& line : lines) {
      try {
        const obs::Json doc = obs::Json::parse(line);
        const std::int64_t id = doc.at("id").as_int64();
        const bool ok = doc.at("ok").as_bool();
        if (id == 0) {  // The admin reload response.
          reload_ok = ok;
          if (!ok) std::fprintf(stderr, "reload failed: %s\n", doc.at("error").as_string().c_str());
          continue;
        }
        ++completed;
        if (ok) {
          latencies_us.push_back(receive_us - send_us[static_cast<std::size_t>(id)]);
        } else if (doc.at("error").as_string().find("overloaded") != std::string::npos) {
          ++overloads;
        } else {
          ++errors;
          if (errors <= 5) {
            std::fprintf(stderr, "error response: %s\n", line.c_str());
          }
        }
      } catch (const std::exception& e) {
        ++errors;
        std::fprintf(stderr, "bad response line (%s): %s\n", e.what(), line.c_str());
      }
    }
    lines.clear();

    if (sent == total && completed == sent && (!reload_sent || reload_ok || receive_us > drain_deadline_us)) break;
    if (receive_us > drain_deadline_us) break;
  }
  const double wall_s = elapsed_us() / 1e6;
  for (Conn& conn : conns) ::close(conn.fd);
  if (want_reload) ::close(admin.fd);

  const std::size_t dropped = sent - completed;
  const util::Percentiles latency = util::percentiles(latencies_us);
  const double qps = wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
  std::fprintf(stderr,
               "sent %zu, completed %zu (%.0f qps), errors %zu, overloads %zu, dropped %zu\n"
               "latency us: p50 %.1f  p90 %.1f  p99 %.1f  p99.9 %.1f\n",
               sent, completed, qps, errors, overloads, dropped, latency.p50, latency.p90,
               latency.p99, latency.p999);
  if (want_reload) {
    std::fprintf(stderr, "hot reload: %s\n", reload_ok ? "ok" : "FAILED");
  }

  if (errors > 0 || dropped > 0) return 1;
  if (want_reload && !reload_ok) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::set<std::string> value_keys{
      "host",       "port",      "replay",          "out",        "rate",
      "duration",   "connections", "top",           "extent",     "quantize",
      "seed",       "reload-at",  "reload-snapshot", "reload-map"};
  const std::set<std::string> flag_keys{"help"};
  std::string error;
  const auto args = util::Args::parse(argc, argv, value_keys, flag_keys, &error);
  if (!args) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return usage();
  }
  if (args->flag("help") || !args->has("port")) return usage();
  const std::string host = args->value("host", "127.0.0.1");
  const long port = args->value_int("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "error: --port needs a value in [1, 65535]\n");
    return 2;
  }

  if (args->has("replay")) {
    if (!args->has("out")) {
      std::fprintf(stderr, "error: --replay needs --out\n");
      return 2;
    }
    return run_replay(host, static_cast<std::uint16_t>(port), args->value("replay"),
                      args->value("out"));
  }

  OpenLoopOptions options;
  options.rate = args->value_double("rate", 1000.0);
  options.duration_s = args->value_double("duration", 10.0);
  options.connections = static_cast<std::size_t>(args->value_int("connections", 4));
  options.top = args->value_int("top", 3);
  options.quantize = args->value_double("quantize", 0.0);
  options.seed = static_cast<std::uint64_t>(args->value_int("seed", 42));
  options.reload_at_s = args->value_double("reload-at", -1.0);
  options.reload_snapshot = args->value("reload-snapshot");
  options.reload_map = args->value("reload-map");
  if (options.rate <= 0.0 || options.duration_s <= 0.0 || options.connections == 0 ||
      options.top < 1) {
    std::fprintf(stderr, "error: invalid --rate/--duration/--connections/--top\n");
    return 2;
  }
  if (args->has("extent")) {
    const auto parts = util::split_list(args->value("extent"));
    if (parts.size() != 3) {
      std::fprintf(stderr, "error: --extent needs X,Y,Z\n");
      return 2;
    }
    for (std::size_t i = 0; i < 3; ++i) options.extent[i] = std::stod(parts[i]);
  }
  return run_open_loop(host, static_cast<std::uint16_t>(port), options);
}
