// A work-stealing-free, chunked thread pool.
//
// One parallel region runs at a time: run_chunked splits [0, n) into fixed
// chunks, workers (plus the calling thread) claim chunks off a single atomic
// cursor, and the call returns when every chunk has finished. There are no
// per-task queues to steal from — determinism comes from the caller writing
// results only into index-addressed slots, so the claim order never shows in
// the output. The first exception thrown by a chunk is captured and rethrown
// on the calling thread after the region drains.
//
// Nested regions execute inline on the claiming thread (a worker re-entering
// run_chunked would deadlock waiting for itself), which keeps nested
// parallel_for calls correct, sequential, and deterministic.
//
// Every top-level region opens one "exec.parallel_for" scope and reports its
// wall time to the Amdahl breakdown, and its chunks run under the scope the
// submitter had open, on every execution context. A zero-worker pool does the
// same on the calling thread alone, which is how width 1 keeps the profile
// identical to wider runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace remgen::obs {
struct Frame;
}  // namespace remgen::obs

namespace remgen::exec {

class ThreadPool {
 public:
  /// Spawns `workers` threads (may be 0: run_chunked then executes entirely
  /// on the calling thread).
  explicit ThreadPool(std::size_t workers);

  /// Joins all workers; outstanding regions must have completed.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Runs `body(begin, end)` over [0, n) in chunks of `chunk` indices
  /// (the last chunk may be short) across the workers and the calling
  /// thread. Blocks until every chunk completed; rethrows the first chunk
  /// exception. Thread-safe: concurrent callers serialize per region.
  /// Called from inside a region (a worker or a nested caller), the whole
  /// range executes inline on the current thread. `label` names the region
  /// in task traces and the Chrome-trace export.
  void run_chunked(std::size_t n, std::size_t chunk,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   const char* label = "exec.region");

  /// True while the calling thread is executing a chunk (used to inline
  /// nested regions).
  [[nodiscard]] static bool in_parallel_region() noexcept;

 private:
  /// One fork/join region: a chunk cursor plus completion accounting.
  struct Region {
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t total_chunks = 0;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    const char* label = "exec.region";      ///< Task-trace name.
    std::uint64_t id = 0;                   ///< Process-wide region sequence.
    bool timed = false;                     ///< An obs gate was on at submission.
    std::uint64_t enqueue_us = 0;           ///< Submission time (task waits).
    const obs::Frame* scope = nullptr;      ///< Submitter's scope; workers adopt it.
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> done_chunks{0};
    std::atomic<std::uint64_t> busy_us{0};  ///< Summed chunk execution time.
    std::atomic<bool> failed{false};        ///< Fast-path skip after an error.
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  void worker_loop(std::size_t worker_index);
  /// Claims and executes chunks until the region's cursor is exhausted.
  void drain(Region& region);

  std::vector<std::thread> workers_;

  std::mutex mutex_;                     ///< Guards region_/seq_/stop_.
  std::condition_variable work_cv_;      ///< Workers wait for a new region.
  std::condition_variable done_cv_;      ///< The caller waits for completion.
  std::shared_ptr<Region> region_;       ///< Active region, or nullptr.
  std::uint64_t seq_ = 0;                ///< Bumped per region, wakes workers.
  bool stop_ = false;

  std::mutex caller_mutex_;              ///< Serializes top-level regions.
};

/// The process-wide pool, lazily (re)created to exec::thread_count() - 1
/// workers (the calling thread is the remaining execution context). Returns
/// nullptr when thread_count() == 1.
[[nodiscard]] ThreadPool* shared_pool();

/// The pool parallel_for runs on: shared_pool(), or at width 1 the calling
/// thread's own zero-worker pool.
[[nodiscard]] ThreadPool& region_pool();

}  // namespace remgen::exec
