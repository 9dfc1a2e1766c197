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
//      (Freezing such a flow can only *raise* link shares, so a whole batch
//      can be frozen per scan.)
//   2. Otherwise the bottleneck link saturates: every unfrozen flow through
//      it freezes at the bottleneck share.
// Each round freezes at least one flow or saturates one link, so the loop
// terminates in O(#links + #batches) rounds.  Flows with an empty path
// (both endpoints on one machine) bypass the network entirely.
//
// Layout: the solve runs over flat arrays, not over SimFlow.  Each link a
// flow crosses gets a dense index in first-appearance order (flows in
// index order, each path in order); the flow->links paths are copied into
// one array of dense indices, and the link->flows index is an offsets
// array plus one flat array of flow indices (ascending per link).  Link
// state (remaining capacity, unfrozen count) is indexed densely too.  The
// desire order sorts contiguous (IEEE-754 bit pattern, flow index) keys as
// integers, since positive doubles order like their bit patterns: one
// counting-sort pass on the leading bits of each key's offset from the
// smallest, then an insertion pass within the buckets.  The bottleneck
// scan drops links whose unfrozen count reached zero, in place and in
// order.
//
// The rates are bit-identical to the same progressive filling run over
// per-link flow lists with a comparison sort of flows by desire
// (tests/maxmin_oracle_test keeps that solver as the reference):
//   * a rule-1 freeze sets rate = desired exactly;
//   * flows with equal desires subtract equal values, so how a sort orders
//     them cannot change any link's remaining capacity;
//   * every rule-2 freeze in a round subtracts the same level;
//   * share ties go to the first minimal link in first-appearance order,
//     which dropping exhausted links in order preserves.
//
// Incremental reuse: between simulator ticks the flow *set* usually does
// not change (no admissions or completions), and under deterministic rate
// enforcement the desires often repeat bit-for-bit.  The scratch therefore
// caches the flat topology arrays (rebuilt only when the caller signals a
// set change) and the desire-sorted order (re-sorted only when a desire
// actually changed).  Both caches are pure memoization: the produced rates
// are bit-identical to a from-scratch solve — tests/maxmin_incremental_test
// cross-checks this under randomized churn.  Every array grows to its
// high-water mark and is reused, so warm solves make no heap allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.h"

namespace svc::sim {

struct SimFlow {
  // Capacity-array indices of the links on the flow's path (empty =
  // intra-machine).  The engine uses Topology::PathLinksDirected encodings
  // (one capacity slot per link direction); tests may use any indexing —
  // the allocator is agnostic as long as `capacity` is indexed the same way.
  std::vector<int32_t> links;
  double desired = 0;  // offered rate this step, Mbps
  double rate = 0;     // output: delivered rate, Mbps
};

// Reusable scratch buffers so the per-second call does not allocate.
class MaxMinScratch {
 public:
  // `num_vertices` sizes the link tables up front; a larger `capacity`
  // array passed to Allocate grows them.
  explicit MaxMinScratch(int num_vertices);

  // Computes flow.rate for every flow.  `capacity[v]` is the capacity of
  // vertex v's uplink (index 0 / root unused).
  //
  // `flows_changed` is the caller's signal that the flow set may differ
  // from the previous call (membership, order, or any `links` vector).
  // Pass false ONLY when the flows vector is element-for-element the same
  // as last time (desires may differ): the scratch then reuses its cached
  // topology arrays, and skips the desire sort too when every desire is
  // bit-identical.  Passing true is always safe.
  void Allocate(std::vector<SimFlow>& flows,
                const std::vector<double>& capacity,
                bool flows_changed = true);

 private:
  // (desire bit pattern, flow index): the desire sort's record.
  struct DesireKey {
    uint64_t bits;
    int32_t flow;
  };

  // Rebuilds the dense link numbering and both flat indexes from `flows`.
  void RebuildTopologyCaches(const std::vector<SimFlow>& flows);
  // Fills order_ with the unfrozen flows ascending by (desire, index).
  void SortByDesire(const std::vector<SimFlow>& flows);

  // Topology cache.
  std::vector<int32_t> dense_of_;    // capacity slot -> dense link, or -1
  std::vector<int32_t> links_;       // dense link -> capacity slot
  std::vector<int32_t> path_start_;  // flow -> offset into path_ (+1 end)
  std::vector<int32_t> path_;        // dense links of every path, in order
  std::vector<int32_t> crossing_start_;  // dense link -> offset (+1 end)
  std::vector<int32_t> crossing_;        // flows crossing each dense link

  // Per-solve state.
  std::vector<double> remaining_;  // per dense link
  std::vector<int32_t> count_;     // unfrozen flows per dense link
  std::vector<int32_t> scan_;      // dense links still carrying them
  std::vector<char> frozen_;       // per flow

  // Order cache.
  std::vector<DesireKey> order_;  // unfrozen flows ascending by desire
  std::vector<DesireKey> sort_buffer_;
  std::vector<uint32_t> bucket_start_;
  std::vector<double> last_desired_;  // desires seen by the last call
  bool have_topology_cache_ = false;
  bool have_order_cache_ = false;
};

}  // namespace svc::sim
