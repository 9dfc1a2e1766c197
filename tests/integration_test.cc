// End-to-end miniatures of the paper's evaluation: the qualitative
// orderings of Figs. 5-10 on a scaled-down datacenter (so the whole file
// runs in seconds).
#include <gtest/gtest.h>

#include "sim/engine.h"
#include "stats/moments.h"
#include "svc/homogeneous_search.h"
#include "topology/builders.h"
#include "workload/workload.h"

namespace svc::sim {
namespace {

topology::Topology MiniDatacenter() {
  topology::ThreeTierConfig config;
  config.racks = 8;
  config.machines_per_rack = 5;
  config.racks_per_agg = 4;
  config.slots_per_machine = 4;
  config.machine_link_mbps = 1000;
  config.oversubscription = 2.0;
  return topology::BuildThreeTier(config);  // 40 machines, 160 slots
}

workload::WorkloadConfig MiniWorkload(int jobs) {
  workload::WorkloadConfig config;
  config.num_jobs = jobs;
  config.mean_job_size = 8;
  config.min_job_size = 2;
  config.max_job_size = 32;
  config.compute_time_lo = 50;
  config.compute_time_hi = 120;
  config.flow_time_lo = 50;
  config.flow_time_hi = 120;
  return config;
}

RunResult RunOnline(const topology::Topology& topo,
                    workload::Abstraction abstraction,
                    const core::Allocator& alloc, double epsilon,
                    double load, uint64_t seed, int jobs = 120) {
  workload::WorkloadConfig wconfig = MiniWorkload(jobs);
  workload::WorkloadGenerator gen(wconfig, seed);
  // GenerateOnline's lambda formula uses this workload's own means, so
  // `load` is directly the fraction of slots busy in steady state.
  auto specs = gen.GenerateOnline(load, topo.total_slots());
  SimConfig config;
  config.abstraction = abstraction;
  config.allocator = &alloc;
  config.epsilon = epsilon;
  config.seed = seed + 1;
  Engine engine(topo, config);
  return engine.RunOnline(std::move(specs));
}

TEST(Integration, Fig7RejectionOrdering) {
  // mean-VC <= SVC(0.05) <= SVC(0.02) <= percentile-VC at high load.
  const topology::Topology topo = MiniDatacenter();
  core::HomogeneousDpAllocator svc_alloc;
  core::OktopusAllocator vc_alloc;
  double mean_vc = 0, svc05 = 0, svc02 = 0, pct_vc = 0;
  // Average over a few seeds to tame workload noise.
  for (uint64_t seed : {11u, 22u, 33u}) {
    mean_vc += RunOnline(topo, workload::Abstraction::kMeanVc, vc_alloc, 0.05,
                         0.8, seed)
                   .RejectionRate();
    svc05 += RunOnline(topo, workload::Abstraction::kSvc, svc_alloc, 0.05,
                       0.8, seed)
                 .RejectionRate();
    svc02 += RunOnline(topo, workload::Abstraction::kSvc, svc_alloc, 0.02,
                       0.8, seed)
                 .RejectionRate();
    pct_vc += RunOnline(topo, workload::Abstraction::kPercentileVc, vc_alloc,
                        0.05, 0.8, seed)
                  .RejectionRate();
  }
  EXPECT_LE(mean_vc, svc05 + 0.05);
  EXPECT_LE(svc05, svc02 + 0.05);
  EXPECT_LE(svc02, pct_vc + 0.05);
  // And the extreme ends are strictly ordered.
  EXPECT_LT(mean_vc, pct_vc);
}

TEST(Integration, LowLoadRejectsLittle) {
  // A small intrinsic floor remains even at low load: a job with mu = 500
  // and rho > ~0.6 has per-VM effective demand above the 1 Gbps machine
  // link, so it can never satisfy condition (4) regardless of load.
  const topology::Topology topo = MiniDatacenter();
  core::HomogeneousDpAllocator alloc;
  const auto low = RunOnline(topo, workload::Abstraction::kSvc, alloc,
                             0.05, 0.15, 7);
  const auto high = RunOnline(topo, workload::Abstraction::kSvc, alloc,
                              0.05, 0.9, 7);
  EXPECT_LT(low.RejectionRate(), 0.15);
  EXPECT_LT(low.RejectionRate(), high.RejectionRate());
}

TEST(Integration, Fig8SvcConcurrencyBeatsPercentileVc) {
  const topology::Topology topo = MiniDatacenter();
  core::HomogeneousDpAllocator svc_alloc;
  core::OktopusAllocator vc_alloc;
  double svc_conc = 0, pct_conc = 0;
  for (uint64_t seed : {5u, 15u, 25u}) {
    svc_conc += RunOnline(topo, workload::Abstraction::kSvc, svc_alloc, 0.05,
                          0.6, seed)
                    .MeanConcurrency();
    pct_conc += RunOnline(topo, workload::Abstraction::kPercentileVc,
                          vc_alloc, 0.05, 0.6, seed)
                    .MeanConcurrency();
  }
  EXPECT_GT(svc_conc, pct_conc);
}

TEST(Integration, Fig9SvcDpOccupancyBelowTivc) {
  // The min-max optimization should shift the sampled max-occupancy
  // distribution down relative to the adapted-TIVC baseline.
  const topology::Topology topo = MiniDatacenter();
  core::HomogeneousDpAllocator dp;
  core::TivcAdaptedAllocator tivc;
  stats::RunningMoments dp_samples, tivc_samples;
  for (uint64_t seed : {3u, 13u, 23u}) {
    for (double s : RunOnline(topo, workload::Abstraction::kSvc, dp, 0.05,
                              0.6, seed)
                        .max_occupancy_samples) {
      dp_samples.Add(s);
    }
    for (double s : RunOnline(topo, workload::Abstraction::kSvc, tivc, 0.05,
                              0.6, seed)
                        .max_occupancy_samples) {
      tivc_samples.Add(s);
    }
  }
  ASSERT_GT(dp_samples.count(), 100);
  ASSERT_GT(tivc_samples.count(), 100);
  EXPECT_LT(dp_samples.mean(), tivc_samples.mean());
}

TEST(Integration, Fig10SvcAndTivcRejectSimilarly) {
  const topology::Topology topo = MiniDatacenter();
  core::HomogeneousDpAllocator dp;
  core::TivcAdaptedAllocator tivc;
  double dp_rate = 0, tivc_rate = 0;
  for (uint64_t seed : {4u, 14u, 24u}) {
    dp_rate += RunOnline(topo, workload::Abstraction::kSvc, dp, 0.05, 0.7,
                         seed)
                   .RejectionRate();
    tivc_rate += RunOnline(topo, workload::Abstraction::kSvc, tivc, 0.05,
                           0.7, seed)
                     .RejectionRate();
  }
  dp_rate /= 3;
  tivc_rate /= 3;
  EXPECT_NEAR(dp_rate, tivc_rate, 0.08);
}

TEST(Integration, Fig6MeanVcDegradesWithDeviation) {
  // Batch scenario: as rho grows, mean-VC running time grows while
  // percentile-VC stays flat; SVC sits between them at high rho.
  const topology::Topology topo = MiniDatacenter();
  core::HomogeneousDpAllocator svc_alloc;
  core::OktopusAllocator vc_alloc;
  auto run_batch = [&](workload::Abstraction abstraction,
                       const core::Allocator& alloc, double rho,
                       uint64_t seed) {
    workload::WorkloadConfig wconfig = MiniWorkload(60);
    wconfig.fixed_deviation = rho;
    workload::WorkloadGenerator gen(wconfig, seed);
    SimConfig config;
    config.abstraction = abstraction;
    config.allocator = &alloc;
    config.epsilon = 0.05;
    config.seed = seed;
    Engine engine(topo, config);
    return engine.RunBatch(gen.GenerateBatch());
  };
  const double mean_vc_low =
      run_batch(workload::Abstraction::kMeanVc, vc_alloc, 0.1, 9)
          .MeanRunningTime();
  const double mean_vc_high =
      run_batch(workload::Abstraction::kMeanVc, vc_alloc, 0.9, 9)
          .MeanRunningTime();
  EXPECT_GT(mean_vc_high, mean_vc_low);

  const double pct_low =
      run_batch(workload::Abstraction::kPercentileVc, vc_alloc, 0.1, 9)
          .MeanRunningTime();
  const double pct_high =
      run_batch(workload::Abstraction::kPercentileVc, vc_alloc, 0.9, 9)
          .MeanRunningTime();
  // "constant and smallest running time under different deviations".
  EXPECT_LT(pct_high, mean_vc_high);
  EXPECT_NEAR(pct_high, pct_low, 0.35 * pct_low);

  const double svc_high =
      run_batch(workload::Abstraction::kSvc, svc_alloc, 0.9, 9)
          .MeanRunningTime();
  EXPECT_LT(svc_high, mean_vc_high);
}

TEST(Integration, GuaranteeHoldsEndToEnd) {
  // The semantic heart of the paper: constraint (1) says each link's
  // offered stochastic demand may exceed capacity only with probability
  // < epsilon.  Measure it on real simulated traffic.
  const topology::Topology topo = MiniDatacenter();
  core::HomogeneousDpAllocator svc_alloc;
  core::OktopusAllocator vc_alloc;
  const auto svc = RunOnline(topo, workload::Abstraction::kSvc, svc_alloc,
                             0.05, 0.7, 31, 200);
  ASSERT_GT(svc.outage.busy_link_seconds, 1000);
  EXPECT_LT(svc.outage.OutageRate(), 0.05);

  // Deterministic abstractions are rate limited: outages are impossible.
  const auto mean_vc = RunOnline(topo, workload::Abstraction::kMeanVc,
                                 vc_alloc, 0.05, 0.7, 31, 200);
  EXPECT_EQ(mean_vc.outage.outage_link_seconds, 0);
  const auto pct_vc = RunOnline(topo, workload::Abstraction::kPercentileVc,
                                vc_alloc, 0.05, 0.7, 31, 200);
  EXPECT_EQ(pct_vc.outage.outage_link_seconds, 0);
}

TEST(Integration, OutageRiskGrowsWithEpsilon) {
  const topology::Topology topo = MiniDatacenter();
  core::HomogeneousDpAllocator alloc;
  const auto tight = RunOnline(topo, workload::Abstraction::kSvc, alloc,
                               0.01, 0.8, 37, 200);
  const auto loose = RunOnline(topo, workload::Abstraction::kSvc, alloc,
                               0.25, 0.8, 37, 200);
  EXPECT_LE(tight.outage.OutageRate(), loose.outage.OutageRate());
  // Looser guarantees admit more tenants.
  EXPECT_LE(tight.accepted, loose.accepted);
}

TEST(Integration, Fig5PercentileVcSlowestBatchOverall) {
  // Total completion of a batch: percentile-VC reserves the most bandwidth,
  // has the least concurrency, and thus the largest makespan.
  const topology::Topology topo = MiniDatacenter();
  core::HomogeneousDpAllocator svc_alloc;
  core::OktopusAllocator vc_alloc;
  auto makespan = [&](workload::Abstraction abstraction,
                      const core::Allocator& alloc) {
    double total = 0;
    for (uint64_t seed : {6u, 16u}) {
      workload::WorkloadGenerator gen(MiniWorkload(80), seed);
      SimConfig config;
      config.abstraction = abstraction;
      config.allocator = &alloc;
      config.epsilon = 0.05;
      config.seed = seed;
      Engine engine(topo, config);
      total += engine.RunBatch(gen.GenerateBatch()).total_completion_time;
    }
    return total;
  };
  const double mean_vc = makespan(workload::Abstraction::kMeanVc, vc_alloc);
  const double svc = makespan(workload::Abstraction::kSvc, svc_alloc);
  const double pct_vc =
      makespan(workload::Abstraction::kPercentileVc, vc_alloc);
  EXPECT_LT(mean_vc, pct_vc);
  EXPECT_LT(svc, pct_vc);
}

}  // namespace
}  // namespace svc::sim
