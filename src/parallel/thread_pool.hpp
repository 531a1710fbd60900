// Fixed-size thread pool with task futures and a static-partition
// parallel_for, in the spirit of OpenMP worksharing loops (CP.4: think in
// terms of tasks, not threads).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace turbda::parallel {

class ThreadPool {
 public:
  /// Creates `n_threads` workers; n_threads==0 means "use all hardware
  /// threads".
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(begin, end) over [0, n) split into contiguous chunks and wait for
  /// completion. Executes inline when n is small, the pool has a single
  /// worker, or the caller is itself a pool worker (nested parallelism runs
  /// serially rather than deadlocking on a full queue). `max_par` caps the
  /// number of concurrent chunks (0 = one per worker plus the caller).
  /// Chunk boundaries never depend on scheduling, but they do depend on the
  /// effective parallelism (and thus on the pool size when max_par == 0):
  /// bitwise determinism across machines and thread counts therefore requires
  /// an fn whose per-index work is independent of the chunk partition.
  /// If any chunk throws, all chunks are still drained and the first
  /// exception is rethrown to the caller.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t min_grain = 1, std::size_t max_par = 0);

  /// True when called from one of this process's pool worker threads.
  [[nodiscard]] static bool in_worker();

  /// Cumulative utilization counters, maintained by workers with relaxed
  /// atomics (two clock reads per task — negligible against the coarse
  /// chunk tasks this pool runs). A task is counted before its future is
  /// ready, so a read right after parallel_for returns includes every chunk
  /// of that call. Callers diff busy_ns across an interval to derive idle
  /// fractions: idle = 1 - Δbusy / (Δwall * size()).
  struct Stats {
    std::uint64_t busy_ns = 0;        ///< total ns workers spent inside tasks
    std::uint64_t tasks_executed = 0; ///< tasks completed by workers
  };
  [[nodiscard]] Stats stats() const {
    return {busy_ns_.load(std::memory_order_relaxed),
            tasks_executed_.load(std::memory_order_relaxed)};
  }

 private:
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  // Pending tasks in a grow-only ring: the i-th oldest is
  // ring_[(head_ + i) % ring_.size()], i < queued_. Its capacity survives
  // draining, so a warmed pool allocates no queue storage.
  std::vector<std::packaged_task<void()>> ring_;
  std::size_t head_ = 0, queued_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
};

/// Process-wide default pool (sized to hardware concurrency).
ThreadPool& global_pool();

/// Convenience wrapper over global_pool().parallel_for.
inline void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t min_grain = 1, std::size_t max_par = 0) {
  global_pool().parallel_for(n, fn, min_grain, max_par);
}

}  // namespace turbda::parallel
