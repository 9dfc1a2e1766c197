// Flow-level simulation engine: conservation, timing semantics, and the
// batch/online scheduling policies on small topologies.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "svc/homogeneous_search.h"
#include "topology/builders.h"

namespace svc::sim {
namespace {

workload::JobSpec MakeJob(int64_t id, int size, double compute,
                          double rate_mean, double rate_stddev,
                          double flow_mbits, double arrival = 0) {
  workload::JobSpec job;
  job.id = id;
  job.size = size;
  job.compute_time = compute;
  job.rate_mean = rate_mean;
  job.rate_stddev = rate_stddev;
  job.flow_mbits = flow_mbits;
  job.arrival_time = arrival;
  return job;
}

TEST(Engine, SingleJobCompletesAtComputeTimeWhenNetworkFast) {
  const topology::Topology topo = topology::BuildStar(4, 4, 100000);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 1;
  Engine engine(topo, config);
  // Tiny flows (finish in ~1 s), compute 100 s: running time == 100.
  const auto result = engine.RunBatch({MakeJob(1, 4, 100, 500, 0, 100)});
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_NEAR(result.jobs[0].running_time(), 100, 1.5);
  EXPECT_NEAR(result.total_completion_time, 100, 1.5);
  EXPECT_EQ(result.unallocatable_jobs, 0);
}

TEST(Engine, NetworkBoundJobDominatedByTransfer) {
  const topology::Topology topo = topology::BuildStar(4, 1, 1000);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kMeanVc;
  config.allocator = &alloc;
  config.seed = 2;
  Engine engine(topo, config);
  // 4 VMs on 4 machines; deterministic rate 100 (sigma 0), flows of
  // 10000 Mbit: Tn = 100 s >> Tc = 10 s.
  const auto result = engine.RunBatch({MakeJob(1, 4, 10, 100, 0, 10000)});
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_NEAR(result.jobs[0].running_time(), 100, 2.0);
}

TEST(Engine, MeanVcSlowerThanPercentileVcUnderVolatility) {
  // Volatile demand (rho = 0.9): mean-VC caps at mu, percentile-VC at q95,
  // so percentile-VC finishes flows faster (paper Fig. 6 mechanism).
  const topology::Topology topo = topology::BuildStar(8, 1, 10000);
  core::OktopusAllocator alloc;
  auto run = [&](workload::Abstraction abstraction) {
    SimConfig config;
    config.abstraction = abstraction;
    config.allocator = &alloc;
    config.seed = 3;
    Engine engine(topo, config);
    std::vector<workload::JobSpec> jobs;
    for (int j = 0; j < 4; ++j) {
      jobs.push_back(MakeJob(j + 1, 4, 1, 300, 270, 60000));
    }
    return engine.RunBatch(jobs);
  };
  const auto mean_vc = run(workload::Abstraction::kMeanVc);
  const auto pct_vc = run(workload::Abstraction::kPercentileVc);
  ASSERT_EQ(mean_vc.jobs.size(), 4u);
  ASSERT_EQ(pct_vc.jobs.size(), 4u);
  EXPECT_GT(mean_vc.MeanRunningTime(), pct_vc.MeanRunningTime());
}

TEST(Engine, BatchFifoRunsEveryJob) {
  const topology::Topology topo = topology::BuildStar(2, 2, 2000);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 4;
  Engine engine(topo, config);
  // 6 jobs of 4 VMs on a 4-slot datacenter: strictly sequential.
  std::vector<workload::JobSpec> jobs;
  for (int j = 0; j < 6; ++j) {
    jobs.push_back(MakeJob(j + 1, 4, 20, 100, 10, 500));
  }
  const auto result = engine.RunBatch(jobs);
  EXPECT_EQ(result.jobs.size(), 6u);
  EXPECT_EQ(result.unallocatable_jobs, 0);
  // Sequential: makespan >= 6 * min running time.
  EXPECT_GE(result.total_completion_time, 6 * 20 - 1);
}

TEST(Engine, UnallocatableJobSkippedNotDeadlocked) {
  const topology::Topology topo = topology::BuildStar(2, 2, 2000);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 5;
  Engine engine(topo, config);
  std::vector<workload::JobSpec> jobs;
  jobs.push_back(MakeJob(1, 50, 20, 100, 10, 100));  // can never fit
  jobs.push_back(MakeJob(2, 2, 20, 100, 10, 100));
  const auto result = engine.RunBatch(jobs);
  EXPECT_EQ(result.unallocatable_jobs, 1);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].id, 2);
}

TEST(Engine, BatchSkipRecordsOnlyTheFittingJob) {
  // One machine of two slots: job 1 (50 VMs) is skipped as unallocatable,
  // and job 2 is the one and only completion.
  const topology::Topology topo = topology::BuildStar(1, 2, 1000);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 5;
  Engine engine(topo, config);
  const auto result = engine.RunBatch(
      {MakeJob(1, 50, 20, 100, 20, 1000), MakeJob(2, 2, 20, 100, 20, 1000)});
  EXPECT_EQ(result.unallocatable_jobs, 1);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].id, 2);
  // Skipped at once: job 2 starts at t = 0, not after the fabric drains.
  EXPECT_EQ(result.jobs[0].start_time, 0);
  EXPECT_GE(result.jobs[0].running_time(), 20 - 1e-9);
}

TEST(Engine, OnlineJobRecordsAreConsistent) {
  const topology::Topology topo = topology::BuildTwoTier(2, 2, 4, 1000, 2.0);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 4;
  Engine engine(topo, config);
  std::vector<workload::JobSpec> jobs;
  for (int j = 0; j < 6; ++j) {
    jobs.push_back(MakeJob(j + 1, 4, 20, 100, 20, 1000, j * 5.0));
  }
  const auto result = engine.RunOnline(jobs);

  // Every job is admitted or rejected exactly once, and every admitted job
  // completes exactly once.
  EXPECT_EQ(result.accepted + result.rejected, 6);
  EXPECT_GT(result.accepted, 0);
  ASSERT_EQ(result.jobs.size(), static_cast<size_t>(result.accepted));
  std::set<int64_t> ids;
  for (const JobRecord& job : result.jobs) {
    EXPECT_TRUE(ids.insert(job.id).second) << "job " << job.id;
    // Online admission happens at the arrival tick, and a job runs at
    // least its compute time.
    EXPECT_GE(job.start_time, job.arrival_time);
    EXPECT_LT(job.start_time - job.arrival_time, 1.0);
    EXPECT_GE(job.running_time(), 20 - 1e-9);
  }
  // Records are appended in completion order.
  for (size_t i = 1; i < result.jobs.size(); ++i) {
    EXPECT_GE(result.jobs[i].finish_time, result.jobs[i - 1].finish_time);
  }
}

TEST(Engine, OnlineRejectsWhenFull) {
  const topology::Topology topo = topology::BuildStar(1, 4, 1000);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 6;
  Engine engine(topo, config);
  // Job 1 occupies all 4 slots for ~50 s; job 2 arrives at t=10 and must be
  // rejected; job 3 arrives after completion and is accepted.
  std::vector<workload::JobSpec> jobs;
  jobs.push_back(MakeJob(1, 4, 50, 100, 0, 1, 0));
  jobs.push_back(MakeJob(2, 4, 50, 100, 0, 1, 10));
  jobs.push_back(MakeJob(3, 4, 50, 100, 0, 1, 200));
  const auto result = engine.RunOnline(jobs);
  EXPECT_EQ(result.accepted, 2);
  EXPECT_EQ(result.rejected, 1);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.concurrency_samples.size(), 3u);
}

TEST(Engine, OnlineSamplesOccupancyAtArrivals) {
  const topology::Topology topo = topology::BuildStar(2, 4, 1000);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 7;
  Engine engine(topo, config);
  std::vector<workload::JobSpec> jobs;
  jobs.push_back(MakeJob(1, 6, 30, 100, 50, 1000, 0));
  jobs.push_back(MakeJob(2, 2, 30, 100, 50, 1000, 5));
  const auto result = engine.RunOnline(jobs);
  ASSERT_EQ(result.max_occupancy_samples.size(), 2u);
  EXPECT_GT(result.max_occupancy_samples[0], 0.0);
  EXPECT_LT(result.max_occupancy_samples[0], 1.0);
}

TEST(Engine, OnlineIdleSkipsToNextArrival) {
  const topology::Topology topo = topology::BuildStar(1, 4, 1000);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 8;
  Engine engine(topo, config);
  std::vector<workload::JobSpec> jobs;
  jobs.push_back(MakeJob(1, 2, 10, 100, 0, 1, 0));
  jobs.push_back(MakeJob(2, 2, 10, 100, 0, 1, 100000));  // long idle gap
  const auto result = engine.RunOnline(jobs);
  EXPECT_EQ(result.accepted, 2);
  // The engine must not have stepped through the idle gap second by second
  // beyond the arrival horizon.
  EXPECT_LE(result.simulated_seconds, 100000 + 50);
}

TEST(Engine, RunningTimeAtLeastComputeTime) {
  const topology::Topology topo = topology::BuildStar(4, 4, 2000);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 9;
  Engine engine(topo, config);
  std::vector<workload::JobSpec> jobs;
  for (int j = 0; j < 5; ++j) {
    jobs.push_back(MakeJob(j + 1, 3, 25 + j, 200, 100, 2000));
  }
  const auto result = engine.RunBatch(jobs);
  ASSERT_EQ(result.jobs.size(), 5u);
  for (const JobRecord& record : result.jobs) {
    const double compute = 25 + (record.id - 1);
    EXPECT_GE(record.running_time(), compute - 1e-9) << "job " << record.id;
  }
}

TEST(Engine, SingleVmJobHasNoFlows) {
  // N = 1: no partner task, so completion is pure compute time.
  const topology::Topology topo = topology::BuildStar(2, 4, 10);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 20;
  Engine engine(topo, config);
  const auto result = engine.RunBatch({MakeJob(1, 1, 42, 5000, 100, 1e9)});
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_NEAR(result.jobs[0].running_time(), 42, 1.5);
}

TEST(Engine, MaxSecondsSafetyStop) {
  // A flow that can never finish (cap 0 via sigma=0, mean 0 would not
  // allocate; use a tiny rate vs a huge flow) trips the safety stop
  // instead of hanging.
  const topology::Topology topo = topology::BuildStar(2, 1, 1000);
  core::OktopusAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kMeanVc;
  config.allocator = &alloc;
  config.seed = 21;
  config.max_seconds = 200;
  Engine engine(topo, config);
  const auto result = engine.RunBatch({MakeJob(1, 2, 1, 1, 0, 1e9)});
  EXPECT_EQ(result.jobs.size(), 0u);  // never completed
  EXPECT_GE(result.simulated_seconds, 200);
  EXPECT_LE(result.simulated_seconds, 202);
}

TEST(Engine, EmptyWorkload) {
  const topology::Topology topo = topology::BuildStar(2, 2, 100);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  Engine batch_engine(topo, config);
  const auto batch = batch_engine.RunBatch({});
  EXPECT_EQ(batch.jobs.size(), 0u);
  EXPECT_DOUBLE_EQ(batch.total_completion_time, 0);
  Engine online_engine(topo, config);
  const auto online = online_engine.RunOnline({});
  EXPECT_EQ(online.accepted + online.rejected, 0);
}

TEST(Engine, SvcJobsShareIdleBandwidth) {
  // One high-demand SVC job alone on an uncongested fabric finishes its
  // flows at nearly full draw rate (no cap), beating its mean-VC twin.
  const topology::Topology topo = topology::BuildStar(2, 2, 2000);
  core::HomogeneousDpAllocator alloc;
  auto run = [&](workload::Abstraction abstraction, uint64_t seed) {
    SimConfig config;
    config.abstraction = abstraction;
    config.allocator = &alloc;
    config.seed = seed;
    Engine engine(topo, config);
    return engine.RunBatch({MakeJob(1, 4, 1, 300, 240, 90000)});
  };
  const auto svc = run(workload::Abstraction::kSvc, 10);
  const auto mean_vc = run(workload::Abstraction::kMeanVc, 10);
  ASSERT_EQ(svc.jobs.size(), 1u);
  ASSERT_EQ(mean_vc.jobs.size(), 1u);
  EXPECT_LT(svc.jobs[0].running_time(), mean_vc.jobs[0].running_time());
}

TEST(Engine, ZeroCapacityCableYieldsZeroRatesNotNaN) {
  // Direct max-min check of the fault plane's drained-link state: flows
  // pinned to capacity-0 cables freeze at exactly 0 (0/count shares must
  // not produce NaN or negative rates), and flows elsewhere are unharmed.
  std::vector<double> capacity = {0.0, 0.0, 500.0, 500.0};
  std::vector<SimFlow> flows;
  flows.push_back({{1}, 250, 0});        // dead link only
  flows.push_back({{1, 2}, 250, 0});     // dead + healthy: still 0
  flows.push_back({{2, 3}, 250, 0});     // healthy path
  flows.push_back({{3}, 1000, 0});       // shares link 3 with flows[2]
  MaxMinScratch scratch(4);
  scratch.Allocate(flows, capacity);
  EXPECT_EQ(flows[0].rate, 0.0);
  EXPECT_EQ(flows[1].rate, 0.0);
  for (const SimFlow& flow : flows) {
    EXPECT_FALSE(std::isnan(flow.rate));
    EXPECT_GE(flow.rate, 0.0);
  }
  // The healthy bottleneck (link 3) is still fully shared: 250 + 250.
  EXPECT_DOUBLE_EQ(flows[2].rate, 250);
  EXPECT_DOUBLE_EQ(flows[3].rate, 250);
}

TEST(Engine, FaultDirtiesSteadyFastPath) {
  // A fault event must invalidate the cached max-min rates even when no
  // flow's desire changed that tick: otherwise flows would keep moving
  // bits across a drained link.  Scripted link fault on a rack uplink with
  // deterministic draws (stddev 0) keeps desires bit-identical across
  // ticks, exercising exactly the steady fast path.
  const topology::Topology topo = topology::BuildTwoTier(2, 2, 4, 1000, 1.0);
  core::HomogeneousDpAllocator alloc;
  SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 5;
  config.max_seconds = 5000;
  config.faults.policy = core::RecoveryPolicy::kEvict;
  const topology::VertexId rack = topo.parent(topo.machines()[0]);
  config.faults.scripted.push_back({50.0, rack, core::FaultKind::kLink, true});
  Engine engine(topo, config);
  // 16 VMs fill the datacenter, so flows must cross the rack uplink.
  const auto result =
      engine.RunOnline({MakeJob(1, 16, 10000, 100, 0, 1e9)});
  EXPECT_EQ(result.accepted, 1);
  EXPECT_EQ(result.faults_injected, 1);
  EXPECT_EQ(result.tenants_evicted, 1);
  EXPECT_TRUE(engine.manager().StateValid());
  EXPECT_TRUE(engine.manager().IsFailed(rack));
}

}  // namespace
}  // namespace svc::sim
