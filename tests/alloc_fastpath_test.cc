// Fast-path equivalence for the homogeneous allocator.
//
// The production DP evaluates occupancy through the fused batch kernel,
// prunes provably-infeasible cells via frontier binary search and per-row
// feasible windows, terminates levels early, and optionally fans vertices
// across a thread pool.  Every one of those transformations is supposed to
// be invisible: placements must stay bit-identical to the plain reference
// recurrence.  This file keeps a straightforward port of that reference DP
// (one validity + occupancy call pair per cell, no pruning) and
// property-tests the production paths against it on randomized fabrics,
// loads, and requests — plus direct exactness checks for the batch kernel
// and the frontier search.
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/link_ledger.h"
#include "stats/rng.h"
#include "svc/demand_profile.h"
#include "svc/homogeneous_search.h"
#include "svc/manager.h"
#include "svc/scratch_arena.h"
#include "topology/builders.h"
#include "util/thread_pool.h"

namespace svc::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Straightforward port of the pre-kernelization recurrence.  Deliberately
// naive — fresh vectors, scalar ValidWith + OccupancyWith per cell, every
// vertex of every level computed — so it stays an independent oracle for
// the optimized allocator.
util::Result<Placement> ReferenceAllocate(const Request& request,
                                          const net::LinkLedger& ledger,
                                          const SlotMap& slots, bool optimize,
                                          bool lowest_subtree_first) {
  if (!request.homogeneous()) {
    return {util::ErrorCode::kInvalidArgument, "homogeneous only"};
  }
  if (util::Status s = request.Validate(); !s.ok()) return s;
  const int n = request.n();
  if (n > slots.total_free()) {
    return {util::ErrorCode::kCapacity, "not enough slots"};
  }

  const topology::Topology& topo = ledger.topo();
  const HomogeneousProfile profile(request);

  auto uplink_cost = [&](topology::VertexId v, int x) -> double {
    const double mean = profile.MeanAdd(x);
    const double var = profile.VarAdd(x);
    const double det = profile.DetAdd(x);
    if (!ledger.ValidWith(v, mean, var, det)) return kInf;
    return ledger.OccupancyWith(v, mean, var, det);
  };

  std::vector<std::vector<double>> opt(topo.num_vertices());
  std::vector<std::vector<int>> choice(topo.num_vertices());

  topology::VertexId best_vertex = topology::kNoVertex;
  double best_value = kInf;

  for (int level = 0; level <= topo.height(); ++level) {
    for (topology::VertexId v : topo.vertices_at_level(level)) {
      std::vector<double>& vopt = opt[v];
      if (topo.is_machine(v)) {
        const int cap = std::min(n, slots.free_slots(v));
        vopt.assign(cap + 1, kInf);
        for (int x = 0; x <= cap; ++x) vopt[x] = uplink_cost(v, x);
      } else {
        std::vector<double> current{0.0};
        for (topology::VertexId child : topo.children(v)) {
          const std::vector<double>& child_opt = opt[child];
          const int prev_max = static_cast<int>(current.size()) - 1;
          const int child_max = static_cast<int>(child_opt.size()) - 1;
          const int next_max = std::min(n, prev_max + child_max);
          std::vector<double> next(next_max + 1, kInf);
          choice[child].assign(next_max + 1, -1);
          for (int h = 0; h <= prev_max; ++h) {
            if (current[h] == kInf) continue;
            const int e_limit = std::min(child_max, n - h);
            for (int e = 0; e <= e_limit; ++e) {
              if (child_opt[e] == kInf) continue;
              const double value = std::max(current[h], child_opt[e]);
              const int total = h + e;
              const bool better =
                  optimize ? value < next[total] : next[total] == kInf;
              if (better) {
                next[total] = value;
                choice[child][total] = e;
              }
            }
          }
          current = std::move(next);
        }
        vopt.assign(current.size(), kInf);
        for (size_t x = 0; x < current.size(); ++x) {
          if (current[x] == kInf) continue;
          if (v == topo.root()) {
            vopt[x] = current[x];
          } else {
            const double up = uplink_cost(v, static_cast<int>(x));
            if (up != kInf) vopt[x] = std::max(current[x], up);
          }
        }
      }

      if (static_cast<int>(vopt.size()) > n && vopt[n] != kInf) {
        const bool better =
            optimize ? vopt[n] < best_value : best_vertex == topology::kNoVertex;
        if (better) {
          best_vertex = v;
          best_value = vopt[n];
        }
      }
    }
    if (lowest_subtree_first && best_vertex != topology::kNoVertex) break;
  }

  if (best_vertex == topology::kNoVertex) {
    return {util::ErrorCode::kInfeasible, "no subtree"};
  }

  Placement placement;
  placement.subtree_root = best_vertex;
  placement.max_occupancy = best_value;
  std::vector<std::pair<topology::VertexId, int>> stack{{best_vertex, n}};
  while (!stack.empty()) {
    const auto [v, x] = stack.back();
    stack.pop_back();
    if (x == 0) continue;
    if (topo.is_machine(v)) {
      for (int k = 0; k < x; ++k) placement.vm_machine.push_back(v);
      continue;
    }
    const auto& children = topo.children(v);
    int remaining = x;
    for (size_t i = children.size(); i-- > 0;) {
      const int e = choice[children[i]][remaining];
      if (e > 0) stack.emplace_back(children[i], e);
      remaining -= e;
    }
  }
  return placement;
}

// Random fabric load: admit homogeneous tenants until `fill_percent` of the
// slots are used, so probe requests see loaded links.  Loading stops early
// once `retries` + 1 admits in a row have failed: at a high fill, bandwidth
// can run out before the slots do.
void LoadFabric(NetworkManager& manager, const topology::Topology& topo,
                stats::Rng& rng, int fill_percent, int retries) {
  HomogeneousDpAllocator loader;
  int64_t id = 1'000'000;
  const int target_free = topo.total_slots() * (100 - fill_percent) / 100;
  for (int failures = 0;
       failures <= retries && manager.slots().total_free() > target_free;) {
    const int max_n = std::min(8, manager.slots().total_free());
    const int n = static_cast<int>(rng.UniformInt(1, max_n));
    const double mu = 50.0 * static_cast<double>(rng.UniformInt(1, 6));
    const Request r = Request::Homogeneous(id++, n, mu, mu * rng.Uniform(0, 1));
    failures = manager.Admit(r, loader).ok() ? 0 : failures + 1;
  }
}

Request RandomProbe(stats::Rng& rng, int64_t id, int max_n) {
  const int n = static_cast<int>(rng.UniformInt(1, std::max(2, max_n)));
  const double mu = 40.0 * static_cast<double>(rng.UniformInt(1, 10));
  // Mix of deterministic (sigma = 0) and stochastic probes.
  const double sigma = rng.UniformInt(0, 3) == 0 ? 0.0 : mu * rng.Uniform(0, 1);
  return Request::Homogeneous(id, n, mu, sigma);
}

// Tie-heavy probes: one small mean for all of them, and two in three
// deterministic (sigma = 0).  What they add to a loaded link is small, so
// the links' existing occupancy, the single-cell children's maximum
// included, decides many row values, and the DP's tie rule decides the
// placement.
Request TieProbe(stats::Rng& rng, int64_t id, int max_n) {
  const int n = static_cast<int>(rng.UniformInt(1, std::max(2, max_n)));
  const double sigma = rng.UniformInt(0, 2) == 0 ? 30.0 : 0.0;
  return Request::Homogeneous(id, n, 25.0, sigma);
}

void ExpectSameOutcome(const util::Result<Placement>& reference,
                       const util::Result<Placement>& fast,
                       const std::string& context) {
  ASSERT_EQ(reference.ok(), fast.ok())
      << context << ": reference "
      << (reference.ok() ? "allocated" : reference.status().ToText())
      << " but fast path "
      << (fast.ok() ? "allocated" : fast.status().ToText());
  if (!reference.ok()) {
    EXPECT_EQ(reference.status().code(), fast.status().code()) << context;
    return;
  }
  EXPECT_EQ(reference->subtree_root, fast->subtree_root) << context;
  // Bit-identical, not approximately equal: the fast path reorders no
  // floating-point operation of the reference recurrence.
  EXPECT_EQ(reference->max_occupancy, fast->max_occupancy) << context;
  EXPECT_EQ(reference->vm_machine, fast->vm_machine) << context;
}

// `scale` multiplies the machines under each switch, so a fabric loaded to
// 90% of its slots still has free slots on several machines of a rack.
topology::Topology BuildVariant(int variant, int scale) {
  switch (variant % 3) {
    case 0:
      return topology::BuildStar(6 * scale, 4, 800);
    case 1:
      return topology::BuildTwoTier(4, 3 * scale, 4, 1000, 2.0);
    default:
      return topology::BuildThreeTier({.racks = 4,
                                       .machines_per_rack = 3 * scale,
                                       .slots_per_machine = 4,
                                       .racks_per_agg = 2,
                                       .machine_link_mbps = 1000,
                                       .oversubscription = 2.0});
  }
}

// What the probes run against: how large and how full the fabric is, and
// which probe family asks.
struct Input {
  int scale;  // BuildVariant's
  int fill_percent;
  int retries;  // failed loading admits in a row that are skipped
  Request (*probe)(stats::Rng&, int64_t, int);
};
constexpr Input kLightLoad{1, 40, 0, RandomProbe};
constexpr Input kHighFillTies{4, 90, 50, TieProbe};

void RunEquivalence(double epsilon, bool optimize, bool lowest, bool parallel,
                    const Input& input = kLightLoad) {
  util::ThreadPool pool(2);
  HomogeneousSearchOptions options;
  options.optimize_occupancy = optimize;
  options.lowest_subtree_first = lowest;
  if (parallel) {
    options.pool = &pool;
    options.min_parallel_vertices = 1;  // force the parallel path everywhere
  }
  const HomogeneousSearchAllocator fast(options, "fastpath-under-test");

  for (int variant = 0; variant < 6; ++variant) {
    const topology::Topology topo = BuildVariant(variant, input.scale);
    NetworkManager manager(topo, epsilon);
    stats::Rng rng(1234 + 1000 * variant +
                   static_cast<uint64_t>(epsilon * 100));
    LoadFabric(manager, topo, rng, input.fill_percent, input.retries);
    if (input.retries > 0) {
      // The light load stops at its first failed admit and may end below
      // its target; an input that skips failures must reach its fill.
      ASSERT_GE(100 * (topo.total_slots() - manager.slots().total_free()),
                input.fill_percent * topo.total_slots());
    }
    for (int probe = 0; probe < 25; ++probe) {
      const Request r = input.probe(rng, 5'000'000 + probe,
                                    manager.slots().total_free());
      const auto reference = ReferenceAllocate(r, manager.ledger(),
                                               manager.slots(), optimize,
                                               lowest);
      auto fast_result = fast.Allocate(r, manager.ledger(), manager.slots());
      ExpectSameOutcome(
          reference, fast_result,
          "variant " + std::to_string(variant) + " probe " +
              std::to_string(probe) + " eps " + std::to_string(epsilon) +
              " fill " + std::to_string(input.fill_percent) +
              (optimize ? " opt" : " tivc") + (lowest ? " lowest" : " global") +
              (parallel ? " parallel" : " serial"));
      if (fast_result.ok()) {
        RecycleVmBuffer(std::move(fast_result->vm_machine));
      }
    }
  }
}

TEST(AllocFastPath, SerialOptimizeMatchesReference) {
  RunEquivalence(0.05, /*optimize=*/true, /*lowest=*/true, /*parallel=*/false);
}

TEST(AllocFastPath, SerialFeasibilityModeMatchesReference) {
  RunEquivalence(0.05, /*optimize=*/false, /*lowest=*/true, /*parallel=*/false);
}

TEST(AllocFastPath, GlobalSearchMatchesReference) {
  RunEquivalence(0.05, /*optimize=*/true, /*lowest=*/false, /*parallel=*/false);
}

TEST(AllocFastPath, ParallelMatchesReference) {
  RunEquivalence(0.05, /*optimize=*/true, /*lowest=*/true, /*parallel=*/true);
}

TEST(AllocFastPath, ParallelFeasibilityModeMatchesReference) {
  RunEquivalence(0.05, /*optimize=*/false, /*lowest=*/true, /*parallel=*/true);
}

// epsilon > 0.5 flips the guarantee quantile negative: occupancy is no
// longer monotone in the added variance, so the allocator must disable the
// frontier/early-termination pruning — and still match the reference.
TEST(AllocFastPath, NegativeQuantileMatchesReference) {
  RunEquivalence(0.7, /*optimize=*/true, /*lowest=*/true, /*parallel=*/false);
  RunEquivalence(0.7, /*optimize=*/true, /*lowest=*/true, /*parallel=*/true);
}

TEST(AllocFastPath, TightEpsilonMatchesReference) {
  RunEquivalence(0.001, /*optimize=*/true, /*lowest=*/true, /*parallel=*/false);
}

// Every mode above again on fabrics loaded to 90% of their slots.  Most
// machines are full and many uplinks saturated, so most children have x = 0
// as their only feasible cell and are folded as one maximum, which then
// sets many row values; with the tie-heavy probes, which of several equal
// splits the reference keeps decides the placement.
TEST(AllocFastPath, HighFillTiesMatchReference) {
  for (const bool parallel : {false, true}) {
    RunEquivalence(0.05, true, true, parallel, kHighFillTies);
    RunEquivalence(0.05, false, true, parallel, kHighFillTies);
    RunEquivalence(0.7, true, true, parallel, kHighFillTies);
  }
  RunEquivalence(0.05, true, false, false, kHighFillTies);
  RunEquivalence(0.001, true, true, false, kHighFillTies);
}

// The batch kernel must agree bit for bit with the scalar OccupancyWith on
// every cell, including the +inf it returns for condition-(4) violations.
TEST(AllocFastPath, OccupancyWithBatchMatchesScalar) {
  const topology::Topology topo = topology::BuildTwoTier(3, 3, 4, 500, 2.0);
  NetworkManager manager(topo, 0.05);
  stats::Rng rng(99);
  LoadFabric(manager, topo, rng, 40, 0);
  const net::LinkLedger& ledger = manager.ledger();

  const int count = 64;
  std::vector<double> mean(count), var(count), det(count), batch(count);
  for (int i = 0; i < count; ++i) {
    // Spread candidates from trivially-feasible to wildly infeasible so
    // both kernel branches are exercised, with exact zeros mixed in.
    const double scale = rng.UniformInt(0, 4) == 0 ? 0.0 : rng.Uniform(0, 800);
    mean[i] = scale;
    var[i] = scale * rng.Uniform(0, 50);
    det[i] = rng.UniformInt(0, 2) == 0 ? 0.0 : rng.Uniform(0, 400);
  }
  for (topology::VertexId v = 1; v < topo.num_vertices(); ++v) {
    if (v == topo.root()) continue;
    ledger.OccupancyWithBatch(v, mean.data(), var.data(), det.data(), count,
                              batch.data());
    for (int i = 0; i < count; ++i) {
      const double scalar = ledger.OccupancyWith(v, mean[i], var[i], det[i]);
      EXPECT_EQ(scalar, batch[i]) << "vertex " << v << " cell " << i;
      EXPECT_EQ(scalar == kInf,
                !ledger.ValidWith(v, mean[i], var[i], det[i]))
          << "vertex " << v << " cell " << i;
    }
  }
}

// Frontier binary search against a linear scan, on genuinely monotone
// candidate arrays (the only shape the allocator hands it).
TEST(AllocFastPath, FeasibleFrontierMatchesLinearScan) {
  const topology::Topology topo = topology::BuildStar(4, 4, 600);
  NetworkManager manager(topo, 0.05);
  stats::Rng rng(7);
  LoadFabric(manager, topo, rng, 40, 0);
  const net::LinkLedger& ledger = manager.ledger();

  const int count = 40;
  std::vector<double> mean(count), var(count), det(count);
  for (int trial = 0; trial < 50; ++trial) {
    double m = 0, s = 0, d = 0;
    for (int i = 0; i < count; ++i) {
      m += rng.Uniform(0, 60);
      s += rng.Uniform(0, 200);
      d += rng.UniformInt(0, 3) == 0 ? rng.Uniform(0, 30) : 0.0;
      mean[i] = m;
      var[i] = s;
      det[i] = d;
    }
    for (topology::VertexId v : topo.machines()) {
      const int frontier = ledger.FeasibleFrontier(v, mean.data(), var.data(),
                                                   det.data(), 0, count - 1);
      int linear = 0;
      while (linear < count &&
             ledger.ValidWith(v, mean[linear], var[linear], det[linear])) {
        ++linear;
      }
      EXPECT_EQ(frontier, linear) << "trial " << trial << " vertex " << v;

      // Descending view of the same arrays via reversed copies.
      std::vector<double> rmean(mean.rbegin(), mean.rend());
      std::vector<double> rvar(var.rbegin(), var.rend());
      std::vector<double> rdet(det.rbegin(), det.rend());
      const int first_feasible = ledger.FeasibleFrontierDescending(
          v, rmean.data(), rvar.data(), rdet.data(), 0, count - 1);
      int rlinear = 0;
      while (rlinear < count &&
             !ledger.ValidWith(v, rmean[rlinear], rvar[rlinear],
                               rdet[rlinear])) {
        ++rlinear;
      }
      EXPECT_EQ(first_feasible, rlinear) << "trial " << trial;
    }
  }
}

// The profile's verified monotone segments must really be monotone, and
// must cover the whole rise/fall of the candidate arrays they license the
// frontier search over.
TEST(AllocFastPath, ProfileMonotoneSegmentsAreVerified) {
  stats::Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    const double mu = rng.Uniform(10, 500);
    const double sigma = rng.UniformInt(0, 3) == 0 ? 0.0 : rng.Uniform(0, mu);
    HomogeneousProfile profile(Request::Homogeneous(trial, n, mu, sigma));
    const double* mean = profile.mean_adds();
    const double* var = profile.var_adds();
    const double* det = profile.det_adds();
    const int rise = profile.rise_end();
    const int fall = profile.fall_begin();
    ASSERT_GE(rise, 0);
    ASSERT_LE(fall, n);
    for (int m = 1; m <= rise; ++m) {
      EXPECT_GE(mean[m], mean[m - 1]) << "trial " << trial << " m " << m;
      EXPECT_GE(var[m], var[m - 1]);
      EXPECT_GE(det[m], det[m - 1]);
    }
    for (int m = fall + 1; m <= n; ++m) {
      EXPECT_LE(mean[m], mean[m - 1]) << "trial " << trial << " m " << m;
      EXPECT_LE(var[m], var[m - 1]);
      EXPECT_LE(det[m], det[m - 1]);
    }
    // Maximality: the segment boundaries sit exactly where monotonicity
    // breaks (otherwise the allocator would probe cells it could search).
    if (rise < n) {
      EXPECT_TRUE(mean[rise + 1] < mean[rise] || var[rise + 1] < var[rise] ||
                  det[rise + 1] < det[rise]);
    }
    if (fall > 0) {
      EXPECT_TRUE(mean[fall] > mean[fall - 1] || var[fall] > var[fall - 1] ||
                  det[fall] > det[fall - 1]);
    }
  }
}

}  // namespace
}  // namespace svc::core
