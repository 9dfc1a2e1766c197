#include "util/thread_pool.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace svc::util {

void Latch::CountDown() {
  std::lock_guard<std::mutex> lock(mu_);
  assert(remaining_ > 0);
  if (--remaining_ == 0) cv_.notify_all();
}

void Latch::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return remaining_ == 0; });
}

int ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  // HardwareThreads() already clamps hardware_concurrency() == 0 to 1, so
  // ThreadPool(0) can never construct an empty pool — Submit would
  // otherwise divide by workers_.size() == 0 and Wait would hang.
  if (num_threads <= 0) num_threads = HardwareThreads();
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  assert(task);
  const size_t target =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->tasks.push_back(std::move(task));
  }
  // The queued_ increment and the notify are both under idle_mu_ so a
  // worker cannot check queued_ == 0 and sleep between them.
  int64_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    depth = queued_.fetch_add(1, std::memory_order_release) + 1;
  }
  idle_cv_.notify_one();
  SVC_TRACE_COUNTER("threadpool/queue_depth", depth);
  SVC_METRIC_GAUGE_SET("threadpool/queue_depth", static_cast<double>(depth));
}

bool ThreadPool::TryTake(int self, std::function<void()>& out) {
  // Own deque, newest first: the task most likely still warm in cache.
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  // Steal oldest-first from the other workers, scanning from self+1 so
  // victims spread instead of all hitting worker 0.
  const int n = num_threads();
  for (int k = 1; k < n; ++k) {
    Worker& victim = *workers_[(self + k) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      SVC_METRIC_INC("threadpool/steals");
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int self) {
  std::function<void()> task;
  while (true) {
    if (TryTake(self, task)) {
      const int64_t depth = queued_.fetch_sub(1, std::memory_order_relaxed) - 1;
      SVC_TRACE_COUNTER("threadpool/queue_depth", depth);
      SVC_METRIC_GAUGE_SET("threadpool/queue_depth",
                           static_cast<double>(depth));
      task();
      SVC_METRIC_INC("threadpool/tasks_executed");
      task = nullptr;
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace svc::util
