// Parallel sweep determinism: an N-thread SweepRunner must return results
// bit-identical to the serial (threads == 1) run, because every replica
// owns its engine and seeds it from its own index alone.
// Also checks the fan-out itself: every task runs once, on at most
// num_threads() threads, with results in input order.
#include "sim/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "svc/homogeneous_search.h"
#include "topology/builders.h"
#include "workload/workload.h"

namespace svc::sim {
namespace {

TEST(SweepRunner, ZeroOrNegativeThreadsClampToAtLeastOne) {
  // 0 means "size to the host"; even when hardware_concurrency() reports 0
  // (unknown), the runner must still have a worker, and so must a negative
  // count.
  for (const int threads : {0, -3}) {
    SweepRunner runner(threads);
    EXPECT_GE(runner.num_threads(), 1) << "threads " << threads;
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks(
        32, [&count] { count.fetch_add(1); });
    runner.RunAll(tasks);
    EXPECT_EQ(count.load(), 32) << "threads " << threads;
  }
}

// Tasks of uneven length, as a sweep's cells are: each runs exactly once,
// no more than num_threads() run at a time, and results still land in
// input order.
TEST(SweepRunner, UnevenTasksRunOnceInInputOrderOnAtMostFourThreads) {
  constexpr int kTasks = 64;
  SweepRunner runner(4);
  std::vector<std::atomic<int>> runs(kTasks);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&, i] {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      runs[i].fetch_add(1);
      // 0 to 0.7 ms by index, so tasks finish out of index order.
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(100 * (i % 8));
      while (std::chrono::steady_clock::now() < until) {
      }
      in_flight.fetch_sub(1);
      return i * i;
    });
  }
  const std::vector<int> results = runner.Run(tasks);
  ASSERT_EQ(results.size(), static_cast<size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
    EXPECT_EQ(results[i], i * i) << "task " << i;
  }
  EXPECT_GE(max_in_flight.load(), 1);
  EXPECT_LE(max_in_flight.load(), 4);
  EXPECT_EQ(in_flight.load(), 0);
}

// A throwing cell reaches the caller, at any thread count, and only after
// every thread has joined.
TEST(SweepRunner, TaskExceptionReachesTheCaller) {
  for (const int threads : {1, 4}) {
    SweepRunner runner(threads);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([i] {
        if (i == 5) throw std::runtime_error("cell 5");
      });
    }
    EXPECT_THROW(runner.RunAll(tasks), std::runtime_error)
        << "threads " << threads;
  }
}

TEST(SweepRunner, ResultsArriveInSubmissionOrder) {
  SweepRunner runner(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([i] { return i * i; });
  }
  const std::vector<int> results = runner.Run(tasks);
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(SweepRunner, SerialRunnerExecutesInline) {
  SweepRunner runner(1);
  EXPECT_EQ(runner.num_threads(), 1);
  std::vector<int> order;
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&order, i] {
      order.push_back(i);
      return i;
    });
  }
  runner.Run(tasks);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// The headline guarantee: full simulation replicas fanned across 4 threads
// produce field-for-field identical RunResults to the serial baseline.
TEST(SweepRunner, ParallelSweepBitIdenticalToSerial) {
  const topology::Topology topo = topology::BuildStar(16, 2, 2000);
  core::HomogeneousDpAllocator alloc;
  workload::WorkloadConfig wconfig;
  wconfig.num_jobs = 12;
  wconfig.mean_job_size = 6;
  wconfig.max_job_size = 16;
  wconfig.rate_means = {100, 200, 300};

  auto make_tasks = [&] {
    std::vector<std::function<RunResult()>> tasks;
    for (uint64_t k = 0; k < 8; ++k) {
      tasks.push_back([&, k] {
        const uint64_t seed = 7 + 1000 * k;
        workload::WorkloadGenerator gen(wconfig, seed);
        SimConfig config;
        config.abstraction = workload::Abstraction::kSvc;
        config.allocator = &alloc;
        config.seed = seed + 1;
        Engine engine(topo, config);
        return engine.RunBatch(gen.GenerateBatch());
      });
    }
    return tasks;
  };

  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto expected = serial.Run(make_tasks());
  const auto actual = parallel.Run(make_tasks());
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const RunResult& a = expected[i];
    const RunResult& b = actual[i];
    EXPECT_EQ(a.total_completion_time, b.total_completion_time)
        << "replica " << i;
    EXPECT_EQ(a.simulated_seconds, b.simulated_seconds) << "replica " << i;
    EXPECT_EQ(a.unallocatable_jobs, b.unallocatable_jobs) << "replica " << i;
    EXPECT_EQ(a.outage.outage_link_seconds, b.outage.outage_link_seconds)
        << "replica " << i;
    EXPECT_EQ(a.outage.busy_link_seconds, b.outage.busy_link_seconds)
        << "replica " << i;
    EXPECT_EQ(a.placement_levels, b.placement_levels) << "replica " << i;
    ASSERT_EQ(a.jobs.size(), b.jobs.size()) << "replica " << i;
    for (size_t j = 0; j < a.jobs.size(); ++j) {
      EXPECT_EQ(a.jobs[j].id, b.jobs[j].id);
      EXPECT_EQ(a.jobs[j].arrival_time, b.jobs[j].arrival_time);
      EXPECT_EQ(a.jobs[j].start_time, b.jobs[j].start_time);
      EXPECT_EQ(a.jobs[j].finish_time, b.jobs[j].finish_time);
    }
  }
  // And a second parallel run is identical too (no run-to-run drift).
  const auto again = parallel.Run(make_tasks());
  ASSERT_EQ(again.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(again[i].total_completion_time,
              expected[i].total_completion_time);
  }
}

TEST(SweepRunner, EmptyTaskList) {
  SweepRunner runner(4);
  std::vector<std::function<int()>> tasks;
  EXPECT_TRUE(runner.Run(tasks).empty());
  runner.RunAll({});
}

}  // namespace
}  // namespace svc::sim
