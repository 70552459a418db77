// Deterministic fork/join algorithms on top of the shared thread pool.
//
// parallel_for / parallel_map are drop-in replacements for plain loops with
// one contract: the result must not depend on the execution schedule. Bodies
// write only to index-addressed slots (parallel_map enforces this shape), so
// running at exec::thread_count() == 1 — the chunks in order on the calling
// thread — produces byte-identical output to any other width.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "exec/config.hpp"
#include "exec/thread_pool.hpp"

namespace remgen::exec {

namespace detail {

/// Default chunk size: ~4 chunks per execution context balances scheduling
/// overhead against tail latency without making claim order observable.
inline std::size_t default_chunk(std::size_t n, std::size_t contexts) {
  const std::size_t chunk = n / (contexts * 4);
  return chunk == 0 ? 1 : chunk;
}

}  // namespace detail

/// Cost-based chunk size for parallel_for/parallel_map: groups items so one
/// claimed chunk carries roughly 500us of estimated work — enough to amortise
/// the atomic claim and per-chunk trace record — while still leaving at least
/// two chunks per execution context for load balancing. Replaces the blunt
/// `chunk = 1` that coarse-grained loops (REM sweep, grid search) used to
/// pass, which maximised scheduling overhead for cheap items. Chunking never
/// affects results: parallel bodies are schedule-independent by contract.
[[nodiscard]] inline std::size_t chunk_for_cost(std::size_t n, double est_item_us) {
  if (n == 0) return 1;
  constexpr double kTargetChunkUs = 500.0;
  std::size_t chunk =
      est_item_us <= 0.0
          ? n
          : static_cast<std::size_t>(kTargetChunkUs / std::max(est_item_us, 1e-3));
  const std::size_t contexts = std::max<std::size_t>(thread_count(), 1);
  const std::size_t cap = std::max<std::size_t>(n / (2 * contexts), 1);
  return std::clamp<std::size_t>(chunk, 1, cap);
}

/// Runs `body(i)` for every i in [0, n). Chunks of `chunk` consecutive
/// indices are claimed atomically by the pool's workers plus the calling
/// thread; `chunk == 0` picks a size automatically. With thread_count() == 1
/// the chunks run in order on the calling thread, and inside an enclosing
/// parallel region the whole range runs inline. The first exception thrown
/// by any iteration is rethrown on the caller. `label` names the region in
/// task traces.
template <typename Body>
void parallel_for(std::size_t n, Body&& body, std::size_t chunk = 0,
                  const char* label = "exec.region") {
  if (n == 0) return;
  ThreadPool& pool = region_pool();
  if (chunk == 0) chunk = detail::default_chunk(n, pool.worker_count() + 1);
  const std::function<void(std::size_t, std::size_t)> run =
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      };
  pool.run_chunked(n, chunk, run, label);
}

/// Computes `fn(i)` for every i in [0, n) and returns the results in index
/// order — the reduction order is fixed regardless of which thread produced
/// which element. R needs no default constructor (slots are std::optional
/// internally). Exceptions propagate like parallel_for.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t chunk = 0,
                  const char* label = "exec.region")
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<std::optional<R>> slots(n);
  parallel_for(
      n, [&](std::size_t i) { slots[i].emplace(fn(i)); }, chunk, label);
  std::vector<R> out;
  out.reserve(n);
  for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace remgen::exec
