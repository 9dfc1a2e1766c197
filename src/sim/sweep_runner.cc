#include "sim/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace svc::sim {

int HardwareThreads() {
  // hardware_concurrency() may report 0 when the count is unknown.
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

SweepRunner::SweepRunner(int threads)
    : threads_(std::max(1, threads == 0 ? HardwareThreads() : threads)) {}

void SweepRunner::RunAll(const std::vector<std::function<void()>>& tasks) {
  const size_t workers =
      std::min(static_cast<size_t>(threads_), tasks.size());
  if (workers <= 1) {
    for (const auto& task : tasks) task();
    return;
  }
  // A worker stops at the first task that throws; once every thread has
  // joined, RunAll rethrows one of those exceptions, as a serial run would.
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  auto work = [&tasks, &next, &errors](size_t worker) {
    try {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < tasks.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
        tasks[i]();
      }
    } catch (...) {
      errors[worker] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;  // each joins when destroyed
    threads.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
    work(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace svc::sim
