// Query engine over a loaded snapshot: the online half of the REM pipeline.
//
// The engine answers point, batch, and volume queries against the trained
// model and baked REM a snapshot carries, with a sharded LRU cache in front
// of the model. A model query is a (MAC, point) pair: single-MAC points,
// best-AP rankings, batches and coalesced point groups all reach the model
// through one cache-through batch call, so a served value is the REM
// builder's prediction of the same query. Requests are executed
// concurrently on the shared exec::ThreadPool, but responses are
// deterministic: input lines are parsed sequentially, executed into
// index-addressed slots, then emitted sorted by request id (ties broken by
// input order) — so the response stream is byte-identical at any --threads
// value.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "serve/cache.hpp"
#include "serve/request.hpp"
#include "store/snapshot.hpp"
#include "util/stats.hpp"

namespace remgen::serve {

/// Aggregate statistics of one replay_jsonl() run.
struct ReplayStats {
  std::size_t requests = 0;
  std::size_t errors = 0;  ///< Malformed lines + failed executions.
  /// Cache activity of THIS run only (deltas over the engine's cumulative
  /// counters), so back-to-back replays on one engine don't double-count.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  util::Percentiles latency_us;  ///< Per-request execution latency.
};

/// Serves queries against one immutable snapshot. Thread-safe: execute() may
/// be called concurrently; the snapshot is never mutated after construction.
class QueryEngine {
 public:
  /// Takes ownership of the snapshot. The model must be present; the REM is
  /// optional (volume queries then fail per-request, not at startup).
  QueryEngine(store::Snapshot snapshot, std::size_t cache_bytes);

  /// Executes one request. Errors (unknown MAC required, missing REM, ...)
  /// come back as ok=false responses, never exceptions.
  [[nodiscard]] Response execute(const Request& request) const;

  /// Executes a batch concurrently and returns responses sorted by request
  /// id (stable in input order) — deterministic at any thread count.
  [[nodiscard]] std::vector<Response> execute_all(const std::vector<Request>& requests) const;

  /// Executes a batch concurrently and returns responses in INPUT order
  /// (the network server's per-connection delivery order), coalescing
  /// single-point queries that name the same known MAC into one batched
  /// model call. Every response is byte-identical to what execute() would
  /// produce for the same request, at any thread count.
  [[nodiscard]] std::vector<Response> execute_coalesced(
      const std::vector<Request>& requests) const;

  /// Drains JSONL requests from `in`, writes one JSONL response per request
  /// to `out` (ordered by id), and returns run statistics. Malformed lines
  /// produce ok=false responses with id -1 when the id itself is unparseable.
  ReplayStats replay_jsonl(std::istream& in, std::ostream& out) const;

  /// MACs known to the engine (sorted), from the snapshot's dataset.
  [[nodiscard]] const std::vector<radio::MacAddress>& macs() const noexcept { return macs_; }
  [[nodiscard]] const store::Snapshot& snapshot() const noexcept { return snapshot_; }
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }

 private:
  /// One model query: a transmitter and a point.
  struct MacPoint {
    radio::MacAddress mac;
    geom::Vec3 point;
  };

  /// The one path from a point query to the model: a cache pass over every
  /// query, ONE predict_batch call for all the misses, then the cache puts.
  void predict_many(std::span<const MacPoint> queries, std::span<double> out) const;
  /// Whether `mac` is one of macs().
  [[nodiscard]] bool knows(const radio::MacAddress& mac) const;
  [[nodiscard]] Response execute_point(const Request& request) const;
  [[nodiscard]] Response execute_batch(const Request& request) const;
  [[nodiscard]] Response execute_volume(const Request& request) const;

  store::Snapshot snapshot_;
  std::vector<radio::MacAddress> macs_;
  mutable ResultCache cache_;
};

}  // namespace remgen::serve
