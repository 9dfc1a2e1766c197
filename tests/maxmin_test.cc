// Max-min fair allocation properties: feasibility, work conservation,
// bottleneck fairness, and demand-limited behaviour.
#include "sim/max_min.h"

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "topology/builders.h"

namespace svc::sim {
namespace {

// Builds a star: machines 1..n with uplinks of the given capacity.
std::vector<double> StarCapacities(int machines, double cap) {
  std::vector<double> capacity(machines + 1, 0.0);
  for (int i = 1; i <= machines; ++i) capacity[i] = cap;
  return capacity;
}

TEST(MaxMin, UncongestedFlowsGetDesires) {
  auto capacity = StarCapacities(2, 1000);
  std::vector<SimFlow> flows;
  flows.push_back({{1, 2}, 300, 0});
  flows.push_back({{2, 1}, 400, 0});
  MaxMinScratch scratch(3);
  scratch.Allocate(flows, capacity);
  EXPECT_DOUBLE_EQ(flows[0].rate, 300);
  EXPECT_DOUBLE_EQ(flows[1].rate, 400);
}

TEST(MaxMin, IntraMachineFlowsBypassNetwork) {
  auto capacity = StarCapacities(2, 10);
  std::vector<SimFlow> flows;
  flows.push_back({{}, 5000, 0});  // same-machine flow, no links
  MaxMinScratch scratch(3);
  scratch.Allocate(flows, capacity);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5000);
}

TEST(MaxMin, EqualSharesOnSaturatedLink) {
  auto capacity = StarCapacities(3, 900);
  std::vector<SimFlow> flows;
  // Three flows all crossing link 1.
  for (int i = 0; i < 3; ++i) flows.push_back({{1}, 1000, 0});
  MaxMinScratch scratch(4);
  scratch.Allocate(flows, capacity);
  for (const SimFlow& f : flows) EXPECT_DOUBLE_EQ(f.rate, 300);
}

TEST(MaxMin, DemandLimitedFlowLeavesRoomForOthers) {
  auto capacity = StarCapacities(1, 900);
  std::vector<SimFlow> flows;
  flows.push_back({{1}, 100, 0});   // wants little
  flows.push_back({{1}, 5000, 0});  // wants a lot
  MaxMinScratch scratch(2);
  scratch.Allocate(flows, capacity);
  EXPECT_DOUBLE_EQ(flows[0].rate, 100);
  EXPECT_DOUBLE_EQ(flows[1].rate, 800);
}

TEST(MaxMin, MultiBottleneck) {
  // Classic two-link example: flow A uses both links, flows B and C one
  // each.  cap(link1)=100, cap(link2)=200.
  std::vector<double> capacity{0, 100, 200};
  std::vector<SimFlow> flows;
  flows.push_back({{1, 2}, 1e9, 0});  // A
  flows.push_back({{1}, 1e9, 0});     // B
  flows.push_back({{2}, 1e9, 0});     // C
  MaxMinScratch scratch(3);
  scratch.Allocate(flows, capacity);
  EXPECT_DOUBLE_EQ(flows[0].rate, 50);   // bottlenecked at link1 share
  EXPECT_DOUBLE_EQ(flows[1].rate, 50);
  EXPECT_DOUBLE_EQ(flows[2].rate, 150);  // picks up link2 residue
}

TEST(MaxMin, ZeroDesireGetsZero) {
  auto capacity = StarCapacities(1, 100);
  std::vector<SimFlow> flows;
  flows.push_back({{1}, 0, 0});
  flows.push_back({{1}, 500, 0});
  MaxMinScratch scratch(2);
  scratch.Allocate(flows, capacity);
  EXPECT_DOUBLE_EQ(flows[0].rate, 0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 100);
}

TEST(MaxMin, NoFlows) {
  auto capacity = StarCapacities(2, 100);
  std::vector<SimFlow> flows;
  MaxMinScratch scratch(3);
  EXPECT_NO_FATAL_FAILURE(scratch.Allocate(flows, capacity));
}

TEST(MaxMin, ScratchReusableAcrossCalls) {
  auto capacity = StarCapacities(2, 100);
  MaxMinScratch scratch(3);
  for (int round = 0; round < 3; ++round) {
    std::vector<SimFlow> flows;
    flows.push_back({{1}, 500, 0});
    flows.push_back({{1}, 500, 0});
    scratch.Allocate(flows, capacity);
    EXPECT_DOUBLE_EQ(flows[0].rate, 50);
    EXPECT_DOUBLE_EQ(flows[1].rate, 50);
  }
}

// Randomized invariants on the paper's three-tier fabric.
class MaxMinRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxMinRandom, FeasibilityAndMaximality) {
  topology::ThreeTierConfig config;
  config.racks = 4;
  config.machines_per_rack = 4;
  config.racks_per_agg = 2;
  const topology::Topology topo = topology::BuildThreeTier(config);
  std::vector<double> capacity(topo.num_vertices(), 0.0);
  for (topology::VertexId v = 1; v < topo.num_vertices(); ++v) {
    capacity[v] = topo.uplink_capacity(v);
  }

  stats::Rng rng(GetParam());
  std::vector<SimFlow> flows;
  for (int f = 0; f < 60; ++f) {
    const auto& machines = topo.machines();
    const auto a = machines[rng.UniformInt(0, machines.size() - 1)];
    const auto b = machines[rng.UniformInt(0, machines.size() - 1)];
    SimFlow flow;
    topo.PathLinks(a, b, flow.links);
    flow.desired = rng.Uniform(0, 2000);
    flows.push_back(std::move(flow));
  }
  MaxMinScratch scratch(topo.num_vertices());
  scratch.Allocate(flows, capacity);

  // (1) No flow exceeds its desire; no negative rates.
  for (const SimFlow& f : flows) {
    EXPECT_GE(f.rate, -1e-9);
    EXPECT_LE(f.rate, f.desired + 1e-9);
  }
  // (2) No link over capacity.
  std::vector<double> load(topo.num_vertices(), 0.0);
  for (const SimFlow& f : flows) {
    for (auto link : f.links) load[link] += f.rate;
  }
  for (topology::VertexId v = 1; v < topo.num_vertices(); ++v) {
    EXPECT_LE(load[v], capacity[v] + 1e-6) << "link " << v;
  }
  // (3) Maximality: every unsatisfied flow crosses at least one saturated
  // link (work conservation / Pareto efficiency of max-min).
  for (const SimFlow& f : flows) {
    if (f.links.empty() || f.rate >= f.desired - 1e-6) continue;
    bool crosses_saturated = false;
    for (auto link : f.links) {
      if (load[link] >= capacity[link] - 1e-6) crosses_saturated = true;
    }
    EXPECT_TRUE(crosses_saturated) << "flow starved without a bottleneck";
  }
  // (4) Max-min fairness, by the bottleneck certificate: every flow held
  // below its desire crosses a saturated link on which no flow's rate
  // exceeds its own.  (Raising it would take bandwidth from a flow that
  // already gets no more than it does.)
  for (size_t i = 0; i < flows.size(); ++i) {
    const SimFlow& f = flows[i];
    if (f.links.empty() || f.rate >= f.desired - 1e-6) continue;
    bool has_bottleneck = false;
    for (auto link : f.links) {
      if (load[link] < capacity[link] - 1e-6) continue;
      bool rate_is_max = true;
      for (const SimFlow& other : flows) {
        if (other.rate <= f.rate + 1e-6) continue;
        for (auto other_link : other.links) {
          if (other_link == link) rate_is_max = false;
        }
      }
      has_bottleneck |= rate_is_max;
    }
    EXPECT_TRUE(has_bottleneck)
        << "flow " << i << " at " << f.rate << " of " << f.desired
        << " has no saturated link where its rate is the largest";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinRandom,
                         ::testing::Values(3, 7, 11, 19, 23, 42));

}  // namespace
}  // namespace svc::sim
