// Oracle test for the max-min solver: ReferenceMaxMin below is the
// progressive-filling solver MaxMinScratch used before its flat-array
// layout — per-link flow lists, a std::sort of flow indices by desire, and
// a bottleneck scan over every active link — with the same statements,
// minus its metrics and trace calls and most comments.  Every rate
// MaxMinScratch produces, solving over the contended links only
// (Allocate) or over every loaded link (AllocateUnfiltered), must equal
// the reference's bit for bit (EXPECT_EQ, not EXPECT_DOUBLE_EQ), on seeded
// random flow sets over three-tier fabrics and on the shapes where the
// solver could plausibly diverge: per-cable paths on trunked fabrics,
// equal desires (the sort order among them is not unique), desires
// clustered so the sort's buckets crowd, equal link shares (the bottleneck
// tie-break), zero-capacity links, zero desires, empty paths, capacities
// on either side of a link's offered load and of the contended-link
// margin, and engine-style swap-erase churn that alternates set changes
// with desire-only redraws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "sim/max_min.h"
#include "stats/rng.h"
#include "topology/builders.h"

namespace svc::sim {
namespace {

class ReferenceMaxMin {
 public:
  explicit ReferenceMaxMin(int num_vertices) {
    remaining_.resize(num_vertices);
    count_.resize(num_vertices);
    flows_on_.resize(num_vertices);
  }

  void Allocate(std::vector<SimFlow>& flows,
                const std::vector<double>& capacity,
                bool flows_changed = true) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const int n = static_cast<int>(flows.size());

    if (flows_changed || !have_topology_cache_) {
      RebuildTopologyCaches(flows);
      have_topology_cache_ = true;
      have_order_cache_ = false;
    }

    bool desires_same =
        have_order_cache_ && static_cast<int>(last_desired_.size()) == n;
    if (desires_same) {
      for (int f = 0; f < n; ++f) {
        if (flows[f].desired != last_desired_[f]) {
          desires_same = false;
          break;
        }
      }
    }
    if (!desires_same) {
      last_desired_.resize(n);
      for (int f = 0; f < n; ++f) last_desired_[f] = flows[f].desired;
    }

    frozen_.assign(n, 0);
    int unfrozen = 0;
    for (int f = 0; f < n; ++f) {
      SimFlow& flow = flows[f];
      flow.rate = 0;
      if (!networked_[f] || flow.desired <= 0) {
        flow.rate = std::max(0.0, flow.desired);
        frozen_[f] = 1;
      } else {
        ++unfrozen;
      }
    }

    for (topology::VertexId link : active_links_) {
      remaining_[link] = capacity[link];
      count_[link] = 0;
    }
    for (int f = 0; f < n; ++f) {
      if (frozen_[f]) continue;
      for (topology::VertexId link : flows[f].links) ++count_[link];
    }

    if (!desires_same) {
      order_.clear();
      for (int f = 0; f < n; ++f) {
        if (!frozen_[f]) order_.push_back(f);
      }
      std::sort(order_.begin(), order_.end(), [&](int lhs, int rhs) {
        return flows[lhs].desired < flows[rhs].desired;
      });
      have_order_cache_ = true;
    }
    size_t next_demand = 0;

    auto freeze = [&](int f, double rate) {
      SimFlow& flow = flows[f];
      flow.rate = rate;
      frozen_[f] = 1;
      --unfrozen;
      for (topology::VertexId link : flow.links) {
        remaining_[link] -= rate;
        if (remaining_[link] < 0) remaining_[link] = 0;  // fp guard
        --count_[link];
      }
    };

    while (unfrozen > 0) {
      double level = kInf;
      topology::VertexId bottleneck = topology::kNoVertex;
      for (topology::VertexId link : active_links_) {
        if (count_[link] == 0) continue;
        const double share = remaining_[link] / count_[link];
        if (share < level) {
          level = share;
          bottleneck = link;
        }
      }
      assert(bottleneck != topology::kNoVertex);

      bool any_demand_frozen = false;
      while (next_demand < order_.size()) {
        const int f = order_[next_demand];
        if (frozen_[f]) {
          ++next_demand;
          continue;
        }
        if (flows[f].desired > level) break;
        freeze(f, flows[f].desired);
        ++next_demand;
        any_demand_frozen = true;
      }
      if (any_demand_frozen) continue;

      for (int f : flows_on_[bottleneck]) {
        if (!frozen_[f]) freeze(f, level);
      }
    }
  }

 private:
  void RebuildTopologyCaches(const std::vector<SimFlow>& flows) {
    for (topology::VertexId link : active_links_) {
      flows_on_[link].clear();
    }
    active_links_.clear();
    const int n = static_cast<int>(flows.size());
    networked_.assign(n, 0);
    for (int f = 0; f < n; ++f) {
      if (flows[f].links.empty()) continue;
      networked_[f] = 1;
      for (topology::VertexId link : flows[f].links) {
        if (flows_on_[link].empty()) active_links_.push_back(link);
        flows_on_[link].push_back(f);
      }
    }
  }

  std::vector<double> remaining_;
  std::vector<int> count_;
  std::vector<std::vector<int>> flows_on_;
  std::vector<topology::VertexId> active_links_;
  std::vector<int> order_;
  std::vector<char> frozen_;
  std::vector<char> networked_;
  std::vector<double> last_desired_;
  bool have_topology_cache_ = false;
  bool have_order_cache_ = false;
};

// How a generated flow set draws its desires and capacities.
struct Shape {
  int tor_trunk = 1;
  int agg_trunk = 1;
  // Desires drawn from {0, 150, 300, 600} (ties everywhere) instead of
  // uniformly from [0, 2000).
  bool discrete_desires = false;
  // Desires packed into [1000, 1001) apart from a few near 1e-9, so the
  // desire sort's buckets, which split the whole key range, get crowded
  // with distinct keys.
  bool clustered_desires = false;
  // Every link gets the same capacity and every desire exceeds it, so many
  // links tie on their share.
  bool uniform_saturated = false;
  double zero_capacity_share = 0;  // fraction of links with capacity 0
  double zero_desire_share = 0;    // fraction of flows with desire 0
  double same_machine_share = 0;   // fraction of flows with an empty path
  // Before each solve, every loaded link's capacity is placed around its
  // offered load (see FlowFactory::FitCapacities).
  bool fit_capacities = false;
};

// One fabric plus per-cable directed capacities, and a flow generator
// over it.  Paths are per-cable (PathCablesDirected), which on trunk
// width 1 is the plain directed path.
class FlowFactory {
 public:
  FlowFactory(const Shape& shape, uint64_t seed)
      : shape_(shape), topo_(BuildFabric(shape)), rng_(seed) {
    topo_.FillCableCapacities(capacity_);
    for (double& cap : capacity_) {
      if (shape_.uniform_saturated) cap = 1000;
      if (rng_.UniformDouble() < shape_.zero_capacity_share) cap = 0;
    }
    fabric_ = capacity_;
  }

  const std::vector<double>& capacity() const { return capacity_; }

  // With Shape::fit_capacities, sets each loaded link's capacity from its
  // offered load, summed the way the solver sums it.  One draw in four
  // makes every link cold (three times its load); one in four gives every
  // link the same share kShare, below every positive discrete desire, so
  // contended links tie everywhere; otherwise each link draws one of: its
  // load, one ulp below or above it, the filter margin (the capacity whose
  // (1 - kDelta) share rounds to the load) or one ulp either side of that,
  // zero, half or three times its load, the share kShare, or its fabric
  // capacity.
  void FitCapacities(const std::vector<SimFlow>& flows) {
    if (!shape_.fit_capacities) return;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kKeep = 1 - MaxMinScratch::kDelta;
    constexpr double kShare = 100.0 / 3;
    std::vector<double> load(capacity_.size(), 0.0);
    std::vector<int> senders(capacity_.size(), 0);
    for (const SimFlow& flow : flows) {
      for (int32_t slot : flow.links) {
        load[slot] += std::max(0.0, flow.desired);
        senders[slot] += flow.desired > 0;
      }
    }
    const int mode = static_cast<int>(rng_.UniformInt(0, 3));
    for (size_t slot = 0; slot < capacity_.size(); ++slot) {
      const double at = load[slot];
      const double margin = at / kKeep;
      const int pick = mode == 0   ? 8
                       : mode == 1 ? 9
                                   : static_cast<int>(rng_.UniformInt(0, 10));
      switch (pick) {
        case 0: capacity_[slot] = at; break;
        case 1: capacity_[slot] = std::nextafter(at, 0.0); break;
        case 2: capacity_[slot] = std::nextafter(at, kInf); break;
        case 3: capacity_[slot] = margin; break;
        case 4: capacity_[slot] = std::nextafter(margin, 0.0); break;
        case 5: capacity_[slot] = std::nextafter(margin, kInf); break;
        case 6: capacity_[slot] = 0; break;
        case 7: capacity_[slot] = at / 2; break;
        case 8: capacity_[slot] = at * 3; break;
        case 9: capacity_[slot] = senders[slot] * kShare; break;
        default: capacity_[slot] = fabric_[slot]; break;
      }
    }
  }

  SimFlow NewFlow() {
    const auto& machines = topo_.machines();
    const auto pick = [&] {
      return machines[rng_.UniformInt(0, machines.size() - 1)];
    };
    const topology::VertexId a = pick();
    const topology::VertexId b =
        rng_.UniformDouble() < shape_.same_machine_share ? a : pick();
    SimFlow flow;
    if (a != b) topo_.PathCablesDirected(a, b, rng_.NextU64(), flow.links);
    flow.desired = Desire();
    return flow;
  }

  double Desire() {
    if (rng_.UniformDouble() < shape_.zero_desire_share) return 0;
    if (shape_.uniform_saturated) return 1e6;
    if (shape_.clustered_desires) {
      return rng_.UniformDouble() < 0.05 ? rng_.Uniform(1e-9, 2e-9)
                                         : rng_.Uniform(1000, 1001);
    }
    if (shape_.discrete_desires) {
      static constexpr double kLevels[] = {0, 150, 300, 600};
      return kLevels[rng_.UniformInt(0, 3)];
    }
    return rng_.Uniform(0, 2000);
  }

  stats::Rng& rng() { return rng_; }

 private:
  static topology::Topology BuildFabric(const Shape& shape) {
    topology::ThreeTierConfig config;
    config.racks = 8;
    config.machines_per_rack = 5;
    config.racks_per_agg = 4;
    config.tor_trunk = shape.tor_trunk;
    config.agg_trunk = shape.agg_trunk;
    return topology::BuildThreeTier(config);
  }

  Shape shape_;
  topology::Topology topo_;
  stats::Rng rng_;
  std::vector<double> capacity_;
  std::vector<double> fabric_;  // capacities before any FitCapacities
};

void ExpectSameRates(const std::vector<SimFlow>& got,
                     const std::vector<SimFlow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t f = 0; f < got.size(); ++f) {
    EXPECT_EQ(got[f].rate, want[f].rate) << "flow " << f;
  }
}

// Solves copies of `flows` with the scratch, unfiltered and filtered, and
// with the reference, and expects the same rates from all three.
void ExpectSolvesMatch(MaxMinScratch& scratch, ReferenceMaxMin& reference,
                       const std::vector<SimFlow>& flows,
                       const std::vector<double>& capacity,
                       bool flows_changed = true) {
  std::vector<SimFlow> want = flows;
  reference.Allocate(want, capacity, flows_changed);
  std::vector<SimFlow> unfiltered = flows;
  scratch.AllocateUnfiltered(unfiltered, capacity);
  ExpectSameRates(unfiltered, want);
  std::vector<SimFlow> filtered = flows;
  scratch.Allocate(filtered, capacity);
  ExpectSameRates(filtered, want);
}

// Cold solves of fresh random flow sets, one scratch per side.
void ExpectColdSolvesMatch(const Shape& shape) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    FlowFactory factory(shape, seed);
    const auto& capacity = factory.capacity();
    std::vector<SimFlow> flows;
    const int count = static_cast<int>(factory.rng().UniformInt(1, 300));
    for (int f = 0; f < count; ++f) flows.push_back(factory.NewFlow());
    factory.FitCapacities(flows);
    MaxMinScratch scratch(static_cast<int>(capacity.size()));
    ReferenceMaxMin reference(static_cast<int>(capacity.size()));
    ExpectSolvesMatch(scratch, reference, flows, capacity);
  }
}

TEST(MaxMinOracle, RandomFlowSets) { ExpectColdSolvesMatch({}); }

TEST(MaxMinOracle, TrunkedFabricCablePaths) {
  Shape shape;
  shape.tor_trunk = 2;
  shape.agg_trunk = 4;
  ExpectColdSolvesMatch(shape);
}

TEST(MaxMinOracle, EqualDesires) {
  Shape shape;
  shape.discrete_desires = true;
  ExpectColdSolvesMatch(shape);
}

TEST(MaxMinOracle, ClusteredDesires) {
  Shape shape;
  shape.clustered_desires = true;
  ExpectColdSolvesMatch(shape);
}

TEST(MaxMinOracle, EqualLinkShares) {
  Shape shape;
  shape.uniform_saturated = true;
  ExpectColdSolvesMatch(shape);
}

TEST(MaxMinOracle, ZeroCapacityLinksZeroDesiresEmptyPaths) {
  Shape shape;
  shape.zero_capacity_share = 0.1;
  shape.zero_desire_share = 0.2;
  shape.same_machine_share = 0.2;
  ExpectColdSolvesMatch(shape);
}

// Capacities around each link's offered load and the contended-link
// margin.  Zero desires make many links' first crossing flow one the solve
// never counts, so a filter that numbered links by the positive-desire
// flows alone would break share ties differently; equal desires give
// equal shares on contended links that no flow connects.
Shape FittedCapacities(bool discrete_desires) {
  Shape shape;
  shape.fit_capacities = true;
  shape.discrete_desires = discrete_desires;
  shape.zero_desire_share = 0.2;
  shape.same_machine_share = 0.1;
  return shape;
}

TEST(MaxMinOracle, CapacitiesAtLoadAndMargin) {
  ExpectColdSolvesMatch(FittedCapacities(false));
  ExpectColdSolvesMatch(FittedCapacities(true));
}

// A rule-1 freeze can lower a link's share by rounding.  Flows 0 and 1
// load link 0 below its margin (share d), and link 1's seven flows
// overload it (share fl(C / 7), one ulp above d).  Over every link, the
// first batch stops at d; freezing flow 2 at d leaves link 1 a share one
// ulp below flow 3's desire, so flow 3 freezes by rule 2 below its desire.
// Without link 0 the batch would also take flow 3 at its desire; the
// filtered solve sees the share drop and solves again unfiltered.
TEST(MaxMinOracle, RoundingThatLowersAShare) {
  const double link_capacity = 329.56212316547953;
  const double desire = link_capacity / 7;
  const double below = std::nextafter(desire, 0.0);
  std::vector<double> capacity{2 * below, link_capacity};
  std::vector<SimFlow> flows{{{0}, below / 2, 0},
                             {{0}, below / 2, 0},
                             {{1}, below, 0},
                             {{1}, desire, 0}};
  for (int f = 0; f < 5; ++f) flows.push_back({{1}, 1e6, 0});
  MaxMinScratch scratch(2);
  ReferenceMaxMin reference(2);
  ExpectSolvesMatch(scratch, reference, flows, capacity);
  std::vector<SimFlow> want = flows;
  reference.Allocate(want, capacity);
  EXPECT_LT(want[3].rate, want[3].desired);
}

// Engine-style churn through one persistent scratch per side: even steps
// swap-erase finished flows and admit new ones, odd steps only redraw
// desires — all, some, or none.  The reference gets its flows_changed hint
// (true on even steps), so its topology and order caches are exercised.
void ExpectChurnMatches(const Shape& shape, uint64_t seed) {
  SCOPED_TRACE(seed);
  FlowFactory factory(shape, seed);
  stats::Rng& rng = factory.rng();
  const auto& capacity = factory.capacity();
  MaxMinScratch scratch(static_cast<int>(capacity.size()));
  ReferenceMaxMin reference(static_cast<int>(capacity.size()));
  std::vector<SimFlow> flows;
  for (int f = 0; f < 120; ++f) flows.push_back(factory.NewFlow());
  for (int step = 0; step < 120; ++step) {
    const bool flows_changed = step % 2 == 0;
    if (flows_changed) {
      const int finished = static_cast<int>(rng.UniformInt(0, 6));
      for (int k = 0; k < finished && !flows.empty(); ++k) {
        const size_t victim =
            static_cast<size_t>(rng.UniformInt(0, flows.size() - 1));
        flows[victim] = std::move(flows.back());
        flows.pop_back();
      }
      const int admitted = static_cast<int>(rng.UniformInt(0, 6));
      for (int k = 0; k < admitted; ++k) flows.push_back(factory.NewFlow());
    } else {
      const int mode = static_cast<int>(rng.UniformInt(0, 2));
      for (SimFlow& flow : flows) {
        if (mode == 0 || (mode == 1 && rng.UniformDouble() < 0.3)) {
          flow.desired = factory.Desire();
        }
      }
    }
    factory.FitCapacities(flows);
    ExpectSolvesMatch(scratch, reference, flows, capacity, flows_changed);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(MaxMinOracle, SwapEraseChurnAlternatingHint) {
  Shape mixed;
  mixed.tor_trunk = 2;
  mixed.zero_capacity_share = 0.05;
  mixed.zero_desire_share = 0.1;
  mixed.same_machine_share = 0.1;
  Shape ties;
  ties.discrete_desires = true;
  Shape saturated;
  saturated.uniform_saturated = true;
  Shape clustered;
  clustered.clustered_desires = true;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ExpectChurnMatches({}, seed);
    ExpectChurnMatches(mixed, seed);
    ExpectChurnMatches(ties, seed);
    ExpectChurnMatches(saturated, seed);
    ExpectChurnMatches(clustered, seed);
    ExpectChurnMatches(FittedCapacities(false), seed);
    ExpectChurnMatches(FittedCapacities(true), seed);
  }
}

}  // namespace
}  // namespace svc::sim
