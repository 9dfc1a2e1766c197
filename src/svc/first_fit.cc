#include "svc/first_fit.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "svc/demand_profile.h"

namespace svc::core {
namespace {

// Tentative per-link below-the-link aggregate for the request being placed.
struct BelowAggregate {
  double mean = 0;
  double variance = 0;
};

}  // namespace

util::Result<Placement> FirstFitAllocator::Allocate(
    const Request& request, const net::LinkLedger& ledger,
    const SlotMap& slots) const {
  SVC_TRACE_SPAN("alloc/first_fit");
  if (util::Status s = request.Validate(); !s.ok()) return s;
  const int n = request.n();
  if (n > slots.total_free()) {
    return {util::ErrorCode::kCapacity, "not enough free VM slots"};
  }

  const topology::Topology& topo = ledger.topo();
  const bool det = request.deterministic();

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int lhs, int rhs) {
    return request.demand(lhs).Quantile(0.95) <
           request.demand(rhs).Quantile(0.95);
  });

  // Link id -> aggregate of this request's VMs placed below the link.
  std::unordered_map<topology::VertexId, BelowAggregate> below;
  std::vector<int> used_slots(topo.num_vertices(), 0);
  Placement placement;
  placement.vm_machine.assign(n, topology::kNoVertex);

  // Validity of link `v` treating the currently-below set against all
  // remaining VMs (placed elsewhere or not yet placed) as the other side.
  auto link_ok = [&](topology::VertexId v, const BelowAggregate& agg) {
    const stats::Normal demand =
        SplitDemandFromBelow(request, agg.mean, agg.variance);
    if (det) return ledger.ValidWith(v, 0, 0, demand.mean);
    return ledger.ValidWith(v, demand.mean, demand.variance, 0);
  };

  const auto& machines = topo.machines();
  size_t cursor = 0;
  for (int pos = 0; pos < n; ++pos) {
    const int vm = order[pos];
    const stats::Normal& d = request.demand(vm);
    bool placed = false;
    for (; cursor < machines.size(); ++cursor) {
      const topology::VertexId machine = machines[cursor];
      if (used_slots[machine] >= slots.free_slots(machine)) continue;
      // Tentatively add this VM below every link on machine -> root and
      // check each; commit only if all pass.
      bool ok = true;
      for (topology::VertexId link = machine; link != topo.root();
           link = topo.parent(link)) {
        BelowAggregate candidate = below[link];
        candidate.mean += d.mean;
        candidate.variance += d.variance;
        if (!link_ok(link, candidate)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;  // first-fit: move to the next machine
      for (topology::VertexId link = machine; link != topo.root();
           link = topo.parent(link)) {
        below[link].mean += d.mean;
        below[link].variance += d.variance;
      }
      ++used_slots[machine];
      placement.vm_machine[vm] = machine;
      placed = true;
      break;
    }
    if (!placed) {
      return {util::ErrorCode::kInfeasible,
              "first-fit exhausted all machines at VM " +
                  std::to_string(pos + 1) + "/" + std::to_string(n)};
    }
  }

  // Whole-placement re-validation: the incremental checks assumed the
  // not-yet-placed VMs were on the far side of every link, which is not
  // the final geometry.  OccupancyWith fuses the validity check (+inf on a
  // condition-(4) violation), so one call covers both.
  double max_occupancy = 0;
  for (const auto& [link, agg] : below) {
    const stats::Normal demand =
        SplitDemandFromBelow(request, agg.mean, agg.variance);
    const double mean = det ? 0.0 : demand.mean;
    const double var = det ? 0.0 : demand.variance;
    const double damount = det ? demand.mean : 0.0;
    const double occupancy = ledger.OccupancyWith(link, mean, var, damount);
    if (occupancy == std::numeric_limits<double>::infinity()) {
      return {util::ErrorCode::kInfeasible,
              "first-fit placement failed final validation"};
    }
    max_occupancy = std::max(max_occupancy, occupancy);
  }

  placement.subtree_root = topo.LowestCommonAncestor(placement.vm_machine);
  placement.max_occupancy = max_occupancy;
  return placement;
}

}  // namespace svc::core
