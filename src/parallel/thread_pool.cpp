#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "telemetry/trace.hpp"

namespace turbda::parallel {

namespace {
thread_local bool t_in_pool_worker = false;
}  // namespace

bool ThreadPool::in_worker() { return t_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // The span and the busy counts are recorded inside the packaged task,
  // which makes the future ready only after its callable returns: a caller
  // resuming on the future finds them complete, and may clear the trace.
  // The guard counts a task that throws too.
  std::packaged_task<void()> pt([this, task = std::move(task)] {
    struct BusyGuard {
      ThreadPool& pool;
      std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
      ~BusyGuard() {
        const auto dt = std::chrono::steady_clock::now() - t0;
        pool.busy_ns_.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()),
            std::memory_order_relaxed);
        pool.tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      }
    } busy{*this};
    TURBDA_SPAN("pool.task");
    task();
  });
  auto fut = pt.get_future();
  {
    std::lock_guard lk(mu_);
    TURBDA_REQUIRE(!stop_, "submit on stopped pool");
    if (queued_ == ring_.size()) {  // full: double, oldest task first
      std::vector<std::packaged_task<void()>> grown(std::max<std::size_t>(16, 2 * ring_.size()));
      for (std::size_t i = 0; i < queued_; ++i)
        grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
      ring_ = std::move(grown);
      head_ = 0;
    }
    ring_[(head_ + queued_) % ring_.size()] = std::move(pt);
    ++queued_;
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t, std::size_t)>& fn,
                              std::size_t min_grain, std::size_t max_par) {
  if (n == 0) return;
  std::size_t par = size() + 1;  // workers plus the calling thread
  if (max_par != 0) par = std::min(par, max_par);
  // Nested parallel_for from a worker runs inline: the outer loop already owns
  // the pool, and blocking a worker on sub-tasks could deadlock the queue.
  if (par <= 1 || n <= min_grain || in_worker()) {
    fn(0, n);
    return;
  }
  const std::size_t chunks = std::min(par, (n + min_grain - 1) / min_grain);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t b = c * chunk;
    const std::size_t e = std::min(n, b + chunk);
    if (b >= e) break;
    futs.push_back(submit([&fn, b, e] { fn(b, e); }));
  }
  // The caller works on the first chunk. Always drain every future before
  // unwinding — queued tasks reference `fn` (and whatever its closure
  // borrows from the caller's frame), so leaving early on an exception would
  // let workers touch a destroyed stack frame. First exception wins.
  std::exception_ptr first_err;
  try {
    fn(0, std::min(n, chunk));
  } catch (...) {
    first_err = std::current_exception();
  }
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_err) first_err = std::current_exception();
    }
  }
  if (first_err) std::rethrow_exception(first_err);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_in_pool_worker = true;
  telemetry::set_thread_label("pool-worker-" + std::to_string(worker_index));
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || queued_ != 0; });
      if (stop_ && queued_ == 0) return;
      task = std::move(ring_[head_]);
      head_ = (head_ + 1) % ring_.size();
      --queued_;
    }
    task();
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace turbda::parallel
