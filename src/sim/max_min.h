// Max-min fair bandwidth allocation with per-flow demand caps
// (progressive filling / water-filling).
//
// Every simulated second the engine hands each flow a desired rate (its
// source's data-generation draw, clipped by the hypervisor rate limit for
// deterministic abstractions) and this module computes the rates the
// network actually delivers: the unique max-min fair allocation where no
// flow exceeds its desired rate and no link its capacity.
//
// Algorithm: classic progressive filling with two freeze rules.
//   1. Any unfrozen flow whose desired rate is at or below the current
//      bottleneck share is demand-limited: it freezes at its desire.
//      (Freezing such a flow can only *raise* link shares in exact
//      arithmetic, so a whole batch can be frozen per scan.)
//   2. Otherwise the bottleneck link saturates: every unfrozen flow through
//      it freezes at the bottleneck share.
// Each round freezes at least one flow or saturates one link, so the loop
// terminates in O(#links + #batches) rounds.  Flows with an empty path
// (both endpoints on one machine) bypass the network entirely.
//
// Contended links only.  A call first sums each link's offered load (the
// desires of the flows crossing it, in flow order) and lists the loaded
// links in first-appearance order (flows in index order, each path in
// order).  Progressive filling then runs only over the *contended* links,
// whose offered load exceeds capacity × (1 − kDelta), and the flows that
// cross one; every other flow freezes at its desire.  The rates are
// bit-identical to progressive filling over every loaded link
// (AllocateUnfiltered) and to the comparison-sort reference that
// tests/maxmin_oracle_test keeps:
//   * a link below the margin always carries an unfrozen flow whose desire
//     is at most the link's share, so it is never a rule-2 bottleneck;
//     kDelta covers the rounding for up to kMaxFilteredFlows flows;
//   * contended links keep their global first-appearance order, so share
//     ties go to the same link, and each link's flows stay in index order;
//   * a filtered rule-1 batch can run past a level that a cold link would
//     have set.  That matters only if a rule-1 freeze lowers a contended
//     link's share, which rounding can do: the solve watches for it and
//     then solves again unfiltered;
//   * a rule-1 freeze sets rate = desired exactly, flows with equal desires
//     subtract equal values, and every rule-2 freeze in a round subtracts
//     the same level, so no order among equal desires changes a rate.
// docs/PERFORMANCE.md §2 has the arguments in full.
//
// Layout: the sub-problem is flat arrays (links numbered in first-appearance
// order, flows in index order, a link->flows offsets index), and the
// desire order sorts (IEEE-754 bit pattern, flow) keys as integers, since
// positive doubles order like their bit patterns.  Every array grows to its
// bound (capacity slots, flows, path links) and is reused, so warm solves
// make no heap allocations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace svc::sim {

struct SimFlow {
  // Capacity-array indices of the links on the flow's path (empty =
  // intra-machine).  The engine uses Topology::PathCablesDirected encodings
  // (one capacity slot per cable and direction); tests may use any
  // indexing — the allocator is agnostic as long as `capacity` is indexed
  // the same way.
  std::vector<int32_t> links;
  double desired = 0;  // offered rate this step, Mbps
  double rate = 0;     // output: delivered rate, Mbps
};

// Reusable scratch buffers so the per-second call does not allocate.
class MaxMinScratch {
 public:
  // A link is contended when its offered load exceeds capacity × (1 −
  // kDelta).  The bound in docs/PERFORMANCE.md §2 holds for up to
  // kMaxFilteredFlows flows crossing one link (n · 2^-52 ≤ kDelta).
  static constexpr double kDelta = 1e-9;
  static constexpr int kMaxFilteredFlows = 4'500'000;

  // `num_slots` sizes the per-link tables up front; a larger `capacity`
  // array passed to Allocate grows them.
  explicit MaxMinScratch(int num_slots);

  // Computes flow.rate for every flow.  `capacity[slot]` is the capacity
  // of the link that capacity slot stands for.
  void Allocate(std::vector<SimFlow>& flows,
                const std::vector<double>& capacity);

  // The same progressive filling over every loaded link, with no filter:
  // the reference Allocate is checked against (SimConfig::check_incremental
  // and the tests).
  void AllocateUnfiltered(std::vector<SimFlow>& flows,
                          const std::vector<double>& capacity);

  // The last call's loaded links (the capacity slots any flow crosses, in
  // first-appearance order) and each one's offered load: the sum of
  // max(0, desired) over the flows crossing it, in flow order.
  std::span<const int32_t> loaded_links() const {
    return {loaded_.data(), num_loaded_};
  }
  std::span<const double> offered_load() const {
    return {load_.data(), num_loaded_};
  }

 private:
  // (desire bit pattern, sub-problem flow): the desire sort's record.
  struct DesireKey {
    uint64_t bits;
    int32_t flow;
  };

  // Lists the loaded links and sums their offered load, and sizes every
  // array to its bound for this call.
  void SumOfferedLoad(const std::vector<SimFlow>& flows, size_t slots);
  // Sets every flow's rate, solving over the contended links (every loaded
  // link when `filter` is false).  Returns false, with the rates
  // incomplete, when a filtered solve saw a rule-1 freeze lower a share.
  bool Fill(std::vector<SimFlow>& flows, const std::vector<double>& capacity,
            bool filter);
  // Fills order_ with the first `num_flows` sub-problem flows ascending by
  // (desire, index).
  void SortByDesire(const std::vector<SimFlow>& flows, int32_t num_flows);

  // Per capacity slot: the slot's loaded link while summing, then its
  // sub-problem link or -1.
  std::vector<int32_t> link_of_;

  // Per loaded link, in first-appearance order.
  std::vector<int32_t> loaded_;  // -> capacity slot
  std::vector<double> load_;     // offered load
  size_t num_loaded_ = 0;

  // The sub-problem: contended links and the flows crossing them.
  std::vector<int32_t> sub_links_;       // sub link -> capacity slot
  std::vector<int32_t> sub_flows_;       // sub flow -> flow index
  std::vector<int32_t> path_start_;      // sub flow -> offset into path_
  std::vector<int32_t> path_;            // sub links of every path, in order
  std::vector<int32_t> crossing_start_;  // sub link -> offset (+1 end)
  std::vector<int32_t> crossing_;        // sub flows crossing each sub link
  std::vector<double> remaining_;        // per sub link
  std::vector<int32_t> count_;           // unfrozen sub flows per sub link
  std::vector<int32_t> scan_;            // sub links still carrying them
  std::vector<char> frozen_;             // per sub flow

  std::vector<DesireKey> order_;  // sub flows ascending by desire
  std::vector<DesireKey> sort_buffer_;
  std::vector<uint32_t> bucket_start_;
};

}  // namespace svc::sim
