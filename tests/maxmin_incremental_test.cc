// A max-min scratch keeps its arrays between calls and solves only over
// the contended links: every allocation must be bit-identical to an
// unfiltered solve on a fresh scratch.  These tests drive a persistent
// scratch through randomized churn and the degenerate shapes its reused
// arrays must survive, and check the engine's per-tick cross-check.
#include "sim/max_min.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "stats/rng.h"
#include "svc/homogeneous_search.h"
#include "topology/builders.h"

namespace svc::sim {
namespace {

// Solves `flows` unfiltered with a fresh scratch and asserts the
// persistent scratch produced exactly the same rates.
void ExpectMatchesFullSolve(MaxMinScratch& incremental,
                            std::vector<SimFlow>& flows,
                            const std::vector<double>& capacity) {
  std::vector<SimFlow> reference = flows;
  incremental.Allocate(flows, capacity);
  MaxMinScratch fresh(static_cast<int>(capacity.size()));
  fresh.AllocateUnfiltered(reference, capacity);
  ASSERT_EQ(flows.size(), reference.size());
  for (size_t f = 0; f < flows.size(); ++f) {
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the claim is bitwise identity.
    EXPECT_EQ(flows[f].rate, reference[f].rate) << "flow " << f;
  }
}

TEST(MaxMinIncremental, RepeatedDesiresReuseCachedRates) {
  std::vector<double> capacity{0, 900, 900, 900};
  std::vector<SimFlow> flows;
  flows.push_back({{1, 2}, 1000, 0});
  flows.push_back({{2, 3}, 400, 0});
  flows.push_back({{1}, 250, 0});
  MaxMinScratch scratch(4);
  ExpectMatchesFullSolve(scratch, flows, capacity);
  // Same set, same desires, three more ticks on the warm scratch.
  for (int tick = 0; tick < 3; ++tick) {
    ExpectMatchesFullSolve(scratch, flows, capacity);
  }
}

TEST(MaxMinIncremental, DesireChangeWithStableSetResorts) {
  std::vector<double> capacity{0, 600, 600};
  std::vector<SimFlow> flows;
  flows.push_back({{1}, 100, 0});
  flows.push_back({{1, 2}, 500, 0});
  MaxMinScratch scratch(3);
  ExpectMatchesFullSolve(scratch, flows, capacity);
  // Swap which flow is demand-limited: the warm scratch's sort order from
  // the last call must not leak into this one.
  flows[0].desired = 900;
  flows[1].desired = 50;
  ExpectMatchesFullSolve(scratch, flows, capacity);
}

TEST(MaxMinIncremental, RandomizedChurnMatchesFullSolve) {
  stats::Rng rng(2024);
  const int kLinks = 12;
  std::vector<double> capacity(kLinks + 1, 0.0);
  for (int v = 1; v <= kLinks; ++v) {
    capacity[v] = 100.0 * static_cast<double>(rng.UniformInt(1, 10));
  }
  std::vector<SimFlow> flows;
  MaxMinScratch scratch(kLinks + 1);
  for (int step = 0; step < 200; ++step) {
    // A third of the steps churn the flow set (add/remove); the rest only
    // redraw desires — sometimes for every flow, sometimes for none.
    const int action = static_cast<int>(rng.UniformInt(0, 5));
    if (action == 0 || flows.empty()) {
      SimFlow flow;
      const int hops = static_cast<int>(rng.UniformInt(0, 3));
      for (int h = 0; h < hops; ++h) {
        flow.links.push_back(
            static_cast<int32_t>(rng.UniformInt(1, kLinks)));
      }
      flow.desired = rng.Uniform(0, 1200);
      flows.push_back(flow);
    } else if (action == 1 && flows.size() > 1) {
      const size_t victim =
          static_cast<size_t>(rng.UniformInt(0, flows.size() - 1));
      flows[victim] = flows.back();
      flows.pop_back();
    } else if (action == 2) {
      for (SimFlow& flow : flows) flow.desired = rng.Uniform(0, 1200);
    } else if (action == 3 && !flows.empty()) {
      flows[rng.UniformInt(0, flows.size() - 1)].desired =
          rng.Uniform(0, 1200);
    }
    // action 4: nothing changed at all.
    ExpectMatchesFullSolve(scratch, flows, capacity);
  }
}

TEST(MaxMinIncremental, ZeroCapacityLink) {
  std::vector<double> capacity{0, 0, 500};
  std::vector<SimFlow> flows;
  flows.push_back({{1}, 300, 0});     // through the dead link
  flows.push_back({{2}, 300, 0});     // unaffected
  flows.push_back({{1, 2}, 300, 0});  // crosses both
  MaxMinScratch scratch(3);
  ExpectMatchesFullSolve(scratch, flows, capacity);
  EXPECT_EQ(flows[0].rate, 0);
  EXPECT_EQ(flows[1].rate, 300);
  EXPECT_EQ(flows[2].rate, 0);
  flows[1].desired = 800;
  ExpectMatchesFullSolve(scratch, flows, capacity);
}

TEST(MaxMinIncremental, AllEqualDesires) {
  std::vector<double> capacity{0, 900, 900};
  std::vector<SimFlow> flows;
  for (int i = 0; i < 6; ++i) flows.push_back({{1}, 250, 0});
  MaxMinScratch scratch(3);
  ExpectMatchesFullSolve(scratch, flows, capacity);
  for (const SimFlow& flow : flows) EXPECT_EQ(flow.rate, 150);
  // Equal desires make the sort order non-unique; repeat ticks must still
  // reproduce the same (tie-stable) rates.
  ExpectMatchesFullSolve(scratch, flows, capacity);
}

TEST(MaxMinIncremental, EmptyPathFlowsBypassCaches) {
  std::vector<double> capacity{0, 100};
  std::vector<SimFlow> flows;
  flows.push_back({{}, 7000, 0});  // intra-machine
  flows.push_back({{1}, 7000, 0});
  flows.push_back({{}, 0, 0});  // intra-machine, zero desire
  MaxMinScratch scratch(2);
  ExpectMatchesFullSolve(scratch, flows, capacity);
  EXPECT_EQ(flows[0].rate, 7000);
  EXPECT_EQ(flows[1].rate, 100);
  EXPECT_EQ(flows[2].rate, 0);
  flows[0].desired = 9000;
  ExpectMatchesFullSolve(scratch, flows, capacity);
  EXPECT_EQ(flows[0].rate, 9000);
}

TEST(MaxMinIncremental, ZeroDesires) {
  std::vector<double> capacity{0, 400, 400};
  std::vector<SimFlow> flows;
  flows.push_back({{1}, 0, 0});
  flows.push_back({{1, 2}, 0, 0});
  MaxMinScratch scratch(3);
  ExpectMatchesFullSolve(scratch, flows, capacity);
  for (const SimFlow& flow : flows) EXPECT_EQ(flow.rate, 0);
  flows[1].desired = 350;
  ExpectMatchesFullSolve(scratch, flows, capacity);
  EXPECT_EQ(flows[1].rate, 350);
}

TEST(MaxMinIncremental, EmptyFlowVector) {
  std::vector<double> capacity{0, 400};
  std::vector<SimFlow> flows;
  MaxMinScratch scratch(2);
  ExpectMatchesFullSolve(scratch, flows, capacity);
  ExpectMatchesFullSolve(scratch, flows, capacity);
}

// End-to-end: an engine run with the per-tick cross-check against the
// unfiltered solve enabled (CheckIncrementalRates asserts on any
// divergence) produces the same results as one with it disabled — the
// check itself must not perturb the simulation.
TEST(MaxMinIncremental, EngineCrossCheckMatchesUncheckedRun) {
  const topology::Topology topo = topology::BuildStar(8, 2, 1500);
  core::HomogeneousDpAllocator alloc;
  auto run = [&](bool check) {
    SimConfig config;
    config.abstraction = workload::Abstraction::kSvc;
    config.allocator = &alloc;
    config.seed = 11;
    config.check_incremental = check;
    Engine engine(topo, config);
    std::vector<workload::JobSpec> jobs;
    for (int j = 0; j < 6; ++j) {
      workload::JobSpec job;
      job.id = j + 1;
      job.size = 4;
      job.compute_time = 5;
      job.rate_mean = 300;
      job.rate_stddev = (j % 2 == 0) ? 0 : 150;  // mix steady and volatile
      job.flow_mbits = 20000;
      jobs.push_back(job);
    }
    return engine.RunBatch(jobs);
  };
  const RunResult checked = run(true);
  const RunResult unchecked = run(false);
  EXPECT_EQ(checked.total_completion_time, unchecked.total_completion_time);
  EXPECT_EQ(checked.simulated_seconds, unchecked.simulated_seconds);
  EXPECT_EQ(checked.outage.outage_link_seconds,
            unchecked.outage.outage_link_seconds);
  EXPECT_EQ(checked.outage.busy_link_seconds,
            unchecked.outage.busy_link_seconds);
  ASSERT_EQ(checked.jobs.size(), unchecked.jobs.size());
  for (size_t j = 0; j < checked.jobs.size(); ++j) {
    EXPECT_EQ(checked.jobs[j].finish_time, unchecked.jobs[j].finish_time);
  }
}

}  // namespace
}  // namespace svc::sim
