#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace turbda::parallel {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] {});
  f.get();
  int x = 0;
  pool.submit([&x] { x = 42; }).get();
  EXPECT_EQ(x, 42);
}

TEST(ThreadPool, ManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, StatsAccumulateBusyTimeAndTaskCount) {
  ThreadPool pool(2);
  const auto before = pool.stats();
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); }));
  for (auto& f : futs) f.get();
  // A task is counted before its future is ready, so the read right after
  // the last get() sees every task.
  const auto after = pool.stats();
  EXPECT_EQ(after.tasks_executed - before.tasks_executed, 8u);
  // 8 x 2ms of sleeping must register as busy time (allow scheduler slack).
  EXPECT_GE(after.busy_ns - before.busy_ns, 8'000'000u);

  const std::uint64_t done = pool.stats().tasks_executed;
  EXPECT_THROW(pool.submit([] { throw std::runtime_error("task failed"); }).get(),
               std::runtime_error);
  EXPECT_EQ(pool.stats().tasks_executed, done + 1);  // a throwing task is counted too
}

}  // namespace
}  // namespace turbda::parallel
