#include "topology/topology.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace svc::topology {

VertexId Topology::AddVertex(VertexId parent, double uplink_capacity_mbps,
                             int vm_slots, int trunk_width) {
  assert(!finalized_ && "topology is immutable after Finalize()");
  assert(trunk_width >= 1);
  const VertexId id = static_cast<VertexId>(parent_.size());
  if (id == 0) {
    assert(parent == kNoVertex && "first vertex must be the root");
  } else {
    assert(parent >= 0 && parent < id && "parent must already exist");
    assert(uplink_capacity_mbps > 0 && "links need positive capacity");
    assert(vm_slots_[parent] == 0 && "machines must be leaves");
  }
  parent_.push_back(parent);
  children_.emplace_back();
  if (parent != kNoVertex) children_[parent].push_back(id);
  uplink_capacity_.push_back(parent == kNoVertex ? 0.0 : uplink_capacity_mbps);
  vm_slots_.push_back(vm_slots);
  trunk_width_.push_back(trunk_width);
  return id;
}

void Topology::Finalize() {
  assert(!finalized_);
  assert(!parent_.empty() && "empty topology");
  const int n = num_vertices();
  level_.assign(n, 0);
  depth_.assign(n, 0);
  machines_.clear();
  total_slots_ = 0;

  // Vertices are added parent-before-child, so a single forward pass gives
  // depths and a backward pass gives levels (subtree heights).
  for (VertexId v = 1; v < n; ++v) depth_[v] = depth_[parent_[v]] + 1;
  for (VertexId v = n - 1; v >= 1; --v) {
    level_[parent_[v]] = std::max(level_[parent_[v]], level_[v] + 1);
  }

  for (VertexId v = 0; v < n; ++v) {
    if (vm_slots_[v] > 0) {
      assert(children_[v].empty() && "machines must be leaves");
      machines_.push_back(v);
      total_slots_ += vm_slots_[v];
    } else {
      assert((v == 0 || !children_[v].empty()) &&
             "switch with no children is useless");
    }
  }
  assert(!machines_.empty() && "topology has no machines");

  by_level_.assign(height() + 1, {});
  for (VertexId v = 0; v < n; ++v) by_level_[level_[v]].push_back(v);

  // Per-cable directed slot layout: [up cables..., down cables...] per
  // vertex, root included for uniform indexing (its slots stay unused).
  cable_offset_.assign(n, 0);
  int32_t offset = 0;
  for (VertexId v = 0; v < n; ++v) {
    cable_offset_[v] = offset;
    offset += 2 * trunk_width_[v];
  }
  directed_cable_slots_ = offset;
  finalized_ = true;
}

std::vector<VertexId> Topology::MachinesUnder(VertexId v) const {
  assert(finalized_);
  std::vector<VertexId> result;
  std::vector<VertexId> stack{v};
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    if (is_machine(u)) result.push_back(u);
    for (VertexId child : children_[u]) stack.push_back(child);
  }
  return result;
}

void Topology::PathLinks(VertexId a, VertexId b,
                         std::vector<VertexId>& out) const {
  assert(finalized_);
  if (a == b) return;
  // Climb the deeper endpoint until both are at equal depth, then climb in
  // lockstep to the LCA.  Every vertex stepped out of contributes its uplink.
  VertexId x = a;
  VertexId y = b;
  const size_t tail = out.size();
  while (depth_[x] > depth_[y]) {
    out.push_back(x);
    x = parent_[x];
  }
  // Collect y's side separately so the path stays ordered a..b; order does
  // not matter to consumers, but keep it deterministic.
  std::vector<VertexId> from_b;
  while (depth_[y] > depth_[x]) {
    from_b.push_back(y);
    y = parent_[y];
  }
  while (x != y) {
    out.push_back(x);
    from_b.push_back(y);
    x = parent_[x];
    y = parent_[y];
  }
  out.insert(out.end(), from_b.rbegin(), from_b.rend());
  (void)tail;
}

void Topology::PathLinksDirected(VertexId a, VertexId b,
                                 std::vector<int32_t>& out) const {
  assert(finalized_);
  if (a == b) return;
  VertexId x = a;
  VertexId y = b;
  while (depth_[x] > depth_[y]) {
    out.push_back(UpLink(x));
    x = parent_[x];
  }
  std::vector<int32_t> from_b;
  while (depth_[y] > depth_[x]) {
    from_b.push_back(DownLink(y));
    y = parent_[y];
  }
  while (x != y) {
    out.push_back(UpLink(x));
    from_b.push_back(DownLink(y));
    x = parent_[x];
    y = parent_[y];
  }
  out.insert(out.end(), from_b.rbegin(), from_b.rend());
}

void Topology::PathCablesDirected(VertexId a, VertexId b, uint64_t flow_hash,
                                  std::vector<int32_t>& out) const {
  assert(finalized_);
  if (a == b) return;
  // A cheap per-link mix of the flow hash (so one flow does not land on
  // cable (hash % w) of EVERY trunk, which would correlate collisions).
  auto cable_of = [&](VertexId v) {
    uint64_t h = flow_hash ^ (0x9e3779b97f4a7c15ULL * (uint64_t)(v + 1));
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return static_cast<int>(h % static_cast<uint64_t>(trunk_width_[v]));
  };
  VertexId x = a;
  VertexId y = b;
  while (depth_[x] > depth_[y]) {
    out.push_back(DirectedCableSlot(x, /*up=*/true, cable_of(x)));
    x = parent_[x];
  }
  std::vector<int32_t> from_b;
  while (depth_[y] > depth_[x]) {
    from_b.push_back(DirectedCableSlot(y, /*up=*/false, cable_of(y)));
    y = parent_[y];
  }
  while (x != y) {
    out.push_back(DirectedCableSlot(x, /*up=*/true, cable_of(x)));
    from_b.push_back(DirectedCableSlot(y, /*up=*/false, cable_of(y)));
    x = parent_[x];
    y = parent_[y];
  }
  out.insert(out.end(), from_b.rbegin(), from_b.rend());
}

void Topology::FillCableCapacities(std::vector<double>& capacity) const {
  assert(finalized_);
  capacity.assign(directed_cable_slots_, 0.0);
  for (VertexId v = 1; v < num_vertices(); ++v) {
    const double per_cable = cable_capacity(v);
    for (int cable = 0; cable < trunk_width_[v]; ++cable) {
      capacity[DirectedCableSlot(v, true, cable)] = per_cable;
      capacity[DirectedCableSlot(v, false, cable)] = per_cable;
    }
  }
}

bool Topology::IsInSubtree(VertexId descendant, VertexId ancestor) const {
  assert(finalized_);
  VertexId v = descendant;
  while (v != kNoVertex && depth_[v] >= depth_[ancestor]) {
    if (v == ancestor) return true;
    v = parent_[v];
  }
  return false;
}

VertexId Topology::LowestCommonAncestor(
    const std::vector<VertexId>& vertices) const {
  assert(!vertices.empty());
  VertexId lca = vertices[0];
  for (VertexId v : vertices) {
    while (!IsInSubtree(v, lca)) lca = parent_[lca];
  }
  return lca;
}

std::string Topology::Describe() const {
  std::ostringstream out;
  out << machines_.size() << " machines (" << total_slots_ << " VM slots), "
      << num_vertices() << " vertices, " << num_links() << " links, height "
      << height();
  return out.str();
}

}  // namespace svc::topology
