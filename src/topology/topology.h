// Rooted-tree datacenter topology.
//
// The paper targets "tree-like topologies such as multi-rooted trees used in
// today's datacenters" and evaluates on a three-level tree with no path
// diversity: machines -> ToR switches -> aggregation switches -> core.  This
// class models an arbitrary rooted tree:
//
//   * vertices are machines (leaves, with VM slots) or switches;
//   * every non-root vertex v has exactly one uplink L_v to its parent, so a
//     link is identified by its child vertex id;
//   * level(v) is the height of the subtree rooted at v (machines are level
//     0), which is the traversal order of the allocation algorithms;
//   * removing L_v splits the tree into T_v (below) and the rest — the
//     two components referenced throughout the paper's analysis.
//
// Topologies are immutable after Finalize(); all allocator and simulator
// state lives outside (net::LinkLedger, sim::SlotMap) so one topology can be
// shared by many concurrent experiments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace svc::topology {

using VertexId = int32_t;
inline constexpr VertexId kNoVertex = -1;

class Topology {
 public:
  Topology() = default;

  // --- Construction (before Finalize) ---

  // Adds a vertex.  The first vertex added must be the root
  // (parent == kNoVertex); all others must name an existing parent.
  // `uplink_capacity_mbps` is the AGGREGATE capacity of the link to the
  // parent (ignored for the root).  `vm_slots` > 0 marks the vertex as a
  // machine; machines must be leaves.
  //
  // `trunk_width` models multi-rooted-tree fabrics: the uplink physically
  // consists of `trunk_width` parallel cables of capacity
  // uplink_capacity / trunk_width each.  Allocation and admission operate
  // on the aggregate (the hose model sees one logical link); the simulator
  // ECMP-hashes each flow onto one cable, so trunking only matters to
  // packet-level behaviour (collision hot spots), exactly as in real
  // datacenters.
  VertexId AddVertex(VertexId parent, double uplink_capacity_mbps,
                     int vm_slots, int trunk_width = 1);

  // Validates invariants and computes the derived tables (children, levels,
  // depths, machine list).  Must be called exactly once, after which the
  // topology is immutable.  Aborts (assert) on structural violations.
  void Finalize();
  bool finalized() const { return finalized_; }

  // --- Queries (after Finalize) ---

  int num_vertices() const { return static_cast<int>(parent_.size()); }
  // Number of links (= vertices minus the root).
  int num_links() const { return num_vertices() - 1; }
  VertexId root() const { return 0; }

  VertexId parent(VertexId v) const { return parent_[v]; }
  const std::vector<VertexId>& children(VertexId v) const {
    return children_[v];
  }
  // Height of the subtree rooted at v; machines are 0.
  int level(VertexId v) const { return level_[v]; }
  // Distance from the root (root is 0).
  int depth(VertexId v) const { return depth_[v]; }
  int height() const { return level_[root()]; }

  bool is_machine(VertexId v) const { return vm_slots_[v] > 0; }
  int vm_slots(VertexId v) const { return vm_slots_[v]; }
  // Capacity of the uplink of v (v must not be the root).
  double uplink_capacity(VertexId v) const { return uplink_capacity_[v]; }

  // All machine vertex ids in construction order.
  const std::vector<VertexId>& machines() const { return machines_; }
  int total_slots() const { return total_slots_; }

  // Vertices whose subtree height is exactly `lvl`, bottom-up search order
  // of the allocation algorithms.
  const std::vector<VertexId>& vertices_at_level(int lvl) const {
    return by_level_[lvl];
  }

  // All machine ids in the subtree rooted at v (computed on demand).
  std::vector<VertexId> MachinesUnder(VertexId v) const;

  // Appends the link ids (child-vertex ids) on the unique path between
  // machines a and b.  Empty when a == b (intra-machine traffic does not
  // use the network).
  void PathLinks(VertexId a, VertexId b, std::vector<VertexId>& out) const;

  // Directed variant for full-duplex links: traffic from a to b uses the
  // "up" half of every link on a's side of the lowest common ancestor and
  // the "down" half on b's side.  Ids are encoded as UpLink(v) / DownLink(v)
  // and index a capacity array of size 2 * num_vertices().  Reservation
  // math (min(m, N-m) crossing flows per direction) assumes this duplex
  // model, as do production fabrics.  These ids address whole (aggregate)
  // links; for per-cable addressing on trunked fabrics see DirectedCable*.
  static int32_t UpLink(VertexId v) { return 2 * v; }
  static int32_t DownLink(VertexId v) { return 2 * v + 1; }
  void PathLinksDirected(VertexId a, VertexId b,
                         std::vector<int32_t>& out) const;

  // --- Per-cable addressing (trunked / multi-rooted fabrics) ---

  int trunk_width(VertexId v) const { return trunk_width_[v]; }
  // Capacity of one cable of v's uplink (= uplink / width).
  double cable_capacity(VertexId v) const {
    return uplink_capacity_[v] / trunk_width_[v];
  }
  // Size of a per-cable directed capacity array.
  int directed_cable_slots() const { return directed_cable_slots_; }
  // Slot index of cable `cable` (< trunk_width(v)) in direction up/down.
  int32_t DirectedCableSlot(VertexId v, bool up, int cable) const {
    return cable_offset_[v] + (up ? 0 : trunk_width_[v]) + cable;
  }
  // Appends the per-cable directed path from a to b, selecting the cable on
  // every trunk by `flow_hash` (per-flow ECMP: the same flow always hashes
  // to the same cable; different flows spread).
  void PathCablesDirected(VertexId a, VertexId b, uint64_t flow_hash,
                          std::vector<int32_t>& out) const;
  // Fills `capacity` (size directed_cable_slots()) with per-cable
  // capacities.
  void FillCableCapacities(std::vector<double>& capacity) const;

  // True if `descendant` lies in the subtree rooted at `ancestor`.
  bool IsInSubtree(VertexId descendant, VertexId ancestor) const;

  // Root of the lowest subtree holding every vertex of `vertices`
  // (non-empty): a placement's locality witness when they are its machines.
  VertexId LowestCommonAncestor(const std::vector<VertexId>& vertices) const;

  // Human-readable summary ("1000 machines, 1056 vertices, height 3, ...").
  std::string Describe() const;

 private:
  bool finalized_ = false;
  std::vector<VertexId> parent_;
  std::vector<std::vector<VertexId>> children_;
  std::vector<double> uplink_capacity_;
  std::vector<int> vm_slots_;
  std::vector<int> trunk_width_;
  std::vector<int32_t> cable_offset_;
  int directed_cable_slots_ = 0;
  std::vector<int> level_;
  std::vector<int> depth_;
  std::vector<VertexId> machines_;
  std::vector<std::vector<VertexId>> by_level_;
  int total_slots_ = 0;
};

}  // namespace svc::topology
