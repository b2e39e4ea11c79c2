#include "dppr/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace dppr {
namespace {

// Regression: ParallelFor completion used to be tracked by one global
// in-flight counter, so two ParallelFor calls from different threads waited
// on each other's tasks (and could return early or late). With per-call task
// groups, each call covers exactly its own indices.
TEST(ThreadPool, ConcurrentParallelForsFromDifferentThreads) {
  ThreadPool pool(4);
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  std::thread t1([&] {
    for (int rep = 0; rep < 5; ++rep) {
      pool.ParallelFor(kN, [&](size_t i) { a[i].fetch_add(1); });
    }
  });
  std::thread t2([&] {
    for (int rep = 0; rep < 5; ++rep) {
      pool.ParallelFor(kN, [&](size_t i) { b[i].fetch_add(1); });
    }
  });
  t1.join();
  t2.join();
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(a[i].load(), 5) << i;
    EXPECT_EQ(b[i].load(), 5) << i;
  }
}

TEST(ThreadPool, ParallelForNestedInsideParallelFor) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(6, [&](size_t) {
    pool.ParallelFor(7, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 6 * 7);
}

TEST(ThreadPool, SingleWorkerPoolStillCompletesNestedWork) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(3, [&](size_t) {
    pool.ParallelFor(3, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 9);
}

// Each ParallelFor waits on its own task group only: a call returns while
// another call's task still spins on a worker.
TEST(ThreadPool, TaskGroupsWaitIndependently) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> slow_started{0};
  std::atomic<int> slow_done{0};
  std::thread slow([&] {
    pool.ParallelFor(2, [&](size_t) {
      slow_started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      slow_done.fetch_add(1);
    });
  });
  // Both indices run at once, so one of them holds a pool worker.
  while (slow_started.load() < 2) std::this_thread::yield();
  std::atomic<int> fast_done{0};
  pool.ParallelFor(16, [&](size_t) { fast_done.fetch_add(1); });
  EXPECT_EQ(fast_done.load(), 16);
  EXPECT_EQ(slow_done.load(), 0);
  release.store(true);
  slow.join();
  EXPECT_EQ(slow_done.load(), 2);
}

TEST(ThreadPool, ManyThreadsHammeringNestedParallelFor) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&] {
      for (int rep = 0; rep < 3; ++rep) {
        pool.ParallelFor(5, [&](size_t) {
          pool.ParallelFor(11, [&](size_t) { total.fetch_add(1); });
        });
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(total.load(), 6L * 3 * 5 * 11);
}

}  // namespace
}  // namespace dppr
