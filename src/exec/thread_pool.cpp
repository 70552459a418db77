#include "exec/thread_pool.hpp"

#include "exec/config.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/fmt.hpp"

namespace remgen::exec {

namespace {

/// Set while the current thread executes a chunk, so nested regions inline.
thread_local bool t_in_region = false;

/// 0 on the submitting thread, 1..N on pool workers — the "worker" field of
/// task-trace events and the worker-N lane names.
thread_local std::uint32_t t_worker_index = 0;

/// Tracks this thread's previous chunk end within a region, so the trace can
/// attribute the gap between consecutive chunks as worker idle time.
struct IdleTracker {
  std::uint64_t region_id = 0;
  std::uint64_t last_end_us = 0;
};
thread_local IdleTracker t_idle;

std::uint64_t next_region_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

bool ThreadPool::in_parallel_region() noexcept { return t_in_region; }

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_worker_index = static_cast<std::uint32_t>(worker_index);
  obs::name_current_thread(util::format("worker-{}", worker_index));
  std::uint64_t seen_seq = 0;
  while (true) {
    std::shared_ptr<Region> region;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || seq_ != seen_seq; });
      if (stop_) return;
      seen_seq = seq_;
      region = region_;
    }
    if (region) drain(*region);
  }
}

void ThreadPool::drain(Region& region) {
  t_in_region = true;
  // Run the chunks under the submitter's scope, so scopes opened in the body
  // nest under the same ancestors in both sinks at any width.
  const obs::Frame* const own_frame = obs::adopt_frame(region.scope);
  while (true) {
    const std::size_t c = region.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= region.total_chunks) break;
    const std::size_t begin = c * region.chunk;
    const std::size_t end = std::min(begin + region.chunk, region.n);
    const std::uint64_t t0 = region.timed ? obs::wall_clock_us() : 0;
    try {
      // Skip the body once a sibling chunk failed; the region still drains
      // so completion accounting stays exact.
      if (!region.failed.load(std::memory_order_relaxed)) (*region.body)(begin, end);
    } catch (...) {
      region.failed.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(region.error_mutex);
      if (!region.error) region.error = std::current_exception();
    }
    if (region.timed) {
      // One task-trace event per executed chunk, into this thread's
      // lock-free buffer: queue wait (enqueue -> start), execution time, and
      // the idle gap since this thread's previous chunk in the same region.
      const std::uint64_t t1 = obs::wall_clock_us();
      region.busy_us.fetch_add(t1 - t0, std::memory_order_relaxed);
      obs::TaskEvent event;
      event.label = region.label;
      event.region_id = region.id;
      event.chunk_index = static_cast<std::uint32_t>(c);
      event.worker = t_worker_index;
      event.tid = obs::current_tid();
      event.enqueue_us = region.enqueue_us;
      event.start_us = t0;
      event.end_us = t1;
      event.wait_us = t0 > region.enqueue_us ? t0 - region.enqueue_us : 0;
      if (t_idle.region_id == region.id && t0 > t_idle.last_end_us) {
        event.idle_us = t0 - t_idle.last_end_us;
      }
      t_idle.region_id = region.id;
      t_idle.last_end_us = t1;
      REMGEN_HISTOGRAM_OBSERVE("exec.task_wait_us", event.wait_us,
                               {10, 100, 1000, 10000, 100000});
      REMGEN_HISTOGRAM_OBSERVE("exec.chunk_exec_us", t1 - t0,
                               {10, 100, 1000, 10000, 100000, 1000000});
      REMGEN_HISTOGRAM_OBSERVE("exec.worker_idle_us", event.idle_us,
                               {10, 100, 1000, 10000, 100000});
      obs::record_task_event(std::move(event));
    }
    REMGEN_COUNTER_ADD("exec.tasks", 1);
    if (region.done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        region.total_chunks) {
      // Take and drop the pool mutex so the completion store cannot slip
      // between the caller's predicate check and its sleep (lost wakeup).
      { const std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_all();
    }
  }
  obs::adopt_frame(own_frame);
  t_in_region = false;
}

void ThreadPool::run_chunked(std::size_t n, std::size_t chunk,
                             const std::function<void(std::size_t, std::size_t)>& body,
                             const char* label) {
  REMGEN_EXPECTS(chunk > 0);
  if (n == 0) return;

  // Nested region (worker thread or re-entrant caller): run inline. The
  // sequential in-order execution keeps nested parallel_for deterministic.
  if (t_in_region) {
    body(0, n);
    return;
  }

  const std::lock_guard<std::mutex> caller_lock(caller_mutex_);
  auto region = std::make_shared<Region>();
  region->n = n;
  region->chunk = chunk;
  region->total_chunks = (n + chunk - 1) / chunk;
  region->body = &body;
  region->label = label;
  region->id = next_region_id();
  region->timed = obs::detail::gates() != 0;
  region->enqueue_us = region->timed ? obs::wall_clock_us() : 0;
  // Captured before the region's own scope: chunk bodies nest under the
  // caller's scope, beside "exec.parallel_for".
  region->scope = obs::current_frame();

  obs::Scope scope("exec.parallel_for");
  scope.arg("label", label);
  scope.arg("n", n);
  scope.arg("chunks", region->total_chunks);
  scope.arg("workers", workers_.size());
  REMGEN_COUNTER_ADD("exec.regions", 1);
  REMGEN_GAUGE_SET("exec.queue_depth", region->total_chunks);

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    region_ = region;
    ++seq_;
  }
  work_cv_.notify_all();

  // The calling thread is an execution context too.
  drain(*region);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return region->done_chunks.load(std::memory_order_acquire) == region->total_chunks;
    });
    region_ = nullptr;
  }

  REMGEN_GAUGE_SET("exec.queue_depth", 0);
  if (region->timed) {
    const std::uint64_t wall = obs::wall_clock_us() - region->enqueue_us;
    const std::size_t contexts = workers_.size() + 1;
    const std::uint64_t busy = region->busy_us.load(std::memory_order_relaxed);
    if (obs::enabled() && wall > 0) {
      // Utilization of the region: busy time over (contexts x wall time).
      obs::registry()
          .gauge("exec.pool.utilization")
          .set(static_cast<double>(busy) /
               (static_cast<double>(wall) * static_cast<double>(contexts)));
    }
    // Feeds the Amdahl report (no-op unless profiling is on).
    obs::note_parallel_region(wall, busy, contexts);
  }

  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(region->error_mutex);
    error = region->error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool* shared_pool() {
  // The pool is (re)built lazily when the configured width changes; callers
  // never hold a region open across a set_thread_count, so swapping here is
  // safe. Guarded so concurrent top-level callers agree on one instance.
  static std::mutex pool_mutex;
  static std::unique_ptr<ThreadPool> pool;
  static std::size_t pool_width = 0;

  const std::size_t width = thread_count();
  if (width <= 1) return nullptr;

  const std::lock_guard<std::mutex> lock(pool_mutex);
  if (!pool || pool_width != width) {
    pool.reset();  // join the old workers before spawning the new set
    pool = std::make_unique<ThreadPool>(width - 1);
    pool_width = width;
    REMGEN_GAUGE_SET("exec.pool.workers", width - 1);
  }
  return pool.get();
}

ThreadPool& region_pool() {
  if (ThreadPool* pool = shared_pool()) return *pool;
  // Per thread, so width-1 callers on different threads never serialize.
  thread_local ThreadPool inline_pool(0);
  return inline_pool;
}

}  // namespace remgen::exec
