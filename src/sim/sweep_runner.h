// Parallel cell runner for simulation sweeps.
//
// The paper's evaluation (Figs. 5-10) is a grid of independent
// (parameter, seed) simulation cells; SweepRunner fans that grid across
// plain threads while keeping the output *bit-identical* to a serial run:
//
//   * every cell owns its Engine, NetworkManager, and Rng, so there is
//     no shared mutable state between tasks (allocators are const and use
//     thread-local scratch);
//   * every cell seeds itself from fixed values (RunScenario's cells use
//     the scenario's `seed` and `seed + 1`), never from scheduling;
//   * results land in a slot indexed by the task's position, so the caller
//     sees them in submission order regardless of completion order.
//
// threads == 1 runs the tasks inline on the calling thread (the serial
// baseline); threads == 0 uses every hardware thread.  Otherwise RunAll
// runs min(threads, tasks) workers, the caller among them, and each
// claims the next task index from one shared atomic counter until the
// list runs out.  A sweep is short (at most tens of cells) and coarse
// (milliseconds to seconds per cell), so one shared index balances it
// as well as work stealing would.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace svc::sim {

// std::thread::hardware_concurrency with a floor of 1.
int HardwareThreads();

class SweepRunner {
 public:
  explicit SweepRunner(int threads = 0);

  // Worker count in use, at least 1 (1 runs every task inline).
  int num_threads() const { return threads_; }

  // Runs every task and returns results in input order.  T must be
  // default-constructible and movable (all Sim result types are).
  template <typename T>
  std::vector<T> Run(std::vector<std::function<T()>> tasks) {
    std::vector<T> results(tasks.size());
    std::vector<std::function<void()>> wrapped;
    wrapped.reserve(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      wrapped.push_back([&results, &tasks, i] { results[i] = tasks[i](); });
    }
    RunAll(wrapped);
    return results;
  }

  // Runs every closure; returns once all have finished and every thread
  // it started has been joined.  If a closure throws, its worker runs no
  // more of them, and RunAll rethrows after the join.
  void RunAll(const std::vector<std::function<void()>>& tasks);

 private:
  int threads_;
};

}  // namespace svc::sim
