#include "dppr/common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "dppr/common/macros.h"

namespace dppr {

ThreadPool::ThreadPool(size_t num_threads) {
  DPPR_CHECK_GE(num_threads, 1u);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  // Workers drain the queue before exiting, so every group's outstanding
  // count reaches zero.
  for (auto& t : threads_) t.join();
}

void ThreadPool::TaskGroup::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(pool_.mu_);
    pool_.tasks_.push_back(Item{this, std::move(task)});
    ++outstanding_;
  }
  pool_.task_cv_.notify_one();
}

void ThreadPool::TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(pool_.mu_);
  while (true) {
    // Run this group's queued tasks inline: the wait then cannot depend on a
    // worker ever becoming free, only on already-running tasks finishing.
    auto it = std::find_if(pool_.tasks_.begin(), pool_.tasks_.end(),
                           [this](const Item& item) { return item.group == this; });
    if (it != pool_.tasks_.end()) {
      std::function<void()> fn = std::move(it->fn);
      pool_.tasks_.erase(it);
      lock.unlock();
      fn();
      lock.lock();
      if (--outstanding_ == 0) done_cv_.notify_all();
      continue;
    }
    if (outstanding_ == 0) return;
    done_cv_.wait(lock);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Chunked dynamic scheduling: threads grab the next index atomically. Chunk
  // size 1 is fine because per-task cost (a push/iteration over a subgraph)
  // dwarfs the atomic increment.
  std::atomic<size_t> next{0};
  auto body = [&next, n, &fn] {
    while (true) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
    }
  };
  // The caller consumes at least one index itself, so n == 1 spawns nothing
  // and a fully loaded pool still makes progress through the caller.
  TaskGroup group(*this);
  size_t helpers = std::min(n - 1, threads_.size());
  for (size_t w = 0; w < helpers; ++w) group.Submit(body);
  body();
  group.Wait();
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return *pool;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      item = std::move(tasks_.front());
      tasks_.pop_front();
    }
    item.fn();
    {
      std::unique_lock<std::mutex> lock(mu_);
      // The group outlives this access: Wait can only observe zero (and the
      // caller destroy the group) after the decrement below, under this lock.
      if (--item.group->outstanding_ == 0) item.group->done_cv_.notify_all();
    }
  }
}

}  // namespace dppr
