#ifndef DPPR_COMMON_THREAD_POOL_H_
#define DPPR_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dppr {

/// Fixed-size worker pool. Precomputation distributes per-node / per-hub tasks
/// over it; the cluster simulator runs simulated machines on it; the serving
/// layer runs many cluster rounds on it at once.
///
/// Completion is tracked per ParallelFor call, not per pool: every call
/// waits only on its own tasks. An earlier design kept one global in-flight
/// counter, which made two concurrent ParallelFor calls wait on each other's
/// tasks and made a ParallelFor nested inside a pool task deadlock (the
/// worker blocked on a counter its own pending tasks kept nonzero). Per-call
/// task groups remove both failure modes: concurrent and nested ParallelFor
/// are legal from any thread.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(i) for i in [0, n) and returns when all calls completed. The
  /// calling thread participates, so this is legal from pool workers (nested
  /// parallelism) and from many client threads at once; `fn` must be safe to
  /// call concurrently from multiple threads.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Default pool sized to the hardware concurrency (singleton).
  static ThreadPool& Default();

 private:
  /// The tasks of one ParallelFor call, awaited independently of any other
  /// tasks on the pool. It must stay alive until Wait returned (the
  /// destructor waits for stragglers).
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup() { Wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueues a task for asynchronous execution as part of this group.
    void Submit(std::function<void()> task);

    /// Blocks until every task submitted to THIS group has finished. While
    /// blocked, runs this group's still-queued tasks inline — so Wait makes
    /// progress even when every pool worker is itself blocked in a nested
    /// Wait, which is what makes nesting deadlock-free.
    void Wait();

   private:
    friend class ThreadPool;
    ThreadPool& pool_;
    size_t outstanding_ = 0;  // queued + running, guarded by pool_.mu_
    std::condition_variable done_cv_;
  };

  struct Item {
    TaskGroup* group;
    std::function<void()> fn;
  };

  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<Item> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  bool stop_ = false;
};

}  // namespace dppr

#endif  // DPPR_COMMON_THREAD_POOL_H_
