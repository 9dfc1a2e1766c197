#include "svc/survivable.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>

#include "stats/normal.h"
#include "svc/demand_profile.h"

namespace svc::core {

namespace {

// One link below which the PRIMARY placement has VMs: their aggregate
// moments and the request's Lemma-1 split there (the primary reservation).
struct PrimaryLink {
  stats::Normal below;
  stats::Normal demand;
};

// The per-link primary aggregates plus the primary demand rows —
// candidate-independent, so PlanBackup builds them once and reuses them
// across every backup-machine candidate.
struct PrimaryDemands {
  std::unordered_map<topology::VertexId, PrimaryLink> links;
  std::vector<LinkDemand> rows;
};

PrimaryDemands BuildPrimaryDemands(const topology::Topology& topo,
                                   const Request& request,
                                   const Placement& placement) {
  assert(placement.total_vms() == request.n());
  PrimaryDemands out;
  // Aggregate the per-VM moments below every link the placement touches by
  // walking each VM's machine up to the root (the legacy ComputeLinkDemands
  // body verbatim, so primary rows come out in the identical order).
  for (int vm = 0; vm < request.n(); ++vm) {
    const stats::Normal& d = request.demand(vm);
    for (topology::VertexId link = placement.vm_machine[vm];
         link != topo.root(); link = topo.parent(link)) {
      stats::Normal& agg = out.links[link].below;
      agg.mean += d.mean;
      agg.variance += d.variance;
    }
  }
  const bool det = request.deterministic();
  out.rows.reserve(out.links.size());
  for (auto& [link, primary] : out.links) {
    primary.demand = SplitDemandFromBelow(request, primary.below.mean,
                                          primary.below.variance);
    const stats::Normal& demand = primary.demand;
    if (demand.mean == 0 && demand.variance == 0) continue;  // all on one side
    if (det) {
      out.rows.push_back({link, 0, 0, demand.mean});
    } else {
      out.rows.push_back({link, demand.mean, demand.variance, 0});
    }
  }
  return out;
}

// Lowest common ancestor of two vertices (walks `a` up until `b` is in its
// subtree; O(depth) in a tree).
topology::VertexId Lca(const topology::Topology& topo, topology::VertexId a,
                       topology::VertexId b) {
  topology::VertexId lca = a;
  while (!topo.IsInSubtree(b, lca)) lca = topo.parent(lca);
  return lca;
}

// The demand a post-failure placement adds to a link beyond the primary
// reservation `base`: the Lemma-1 split of the post-failure below-side
// aggregate minus `base`, clamped at zero per moment.  Zero in both moments
// means the link gets no backup row.
stats::Normal BackupDelta(const Request& request, double below_mean,
                          double below_var, const stats::Normal& base) {
  const stats::Normal patched = SplitDemandFromBelow(
      request, std::max(0.0, below_mean), std::max(0.0, below_var));
  return {std::max(0.0, patched.mean - base.mean),
          std::max(0.0, patched.variance - base.variance)};
}

// Per-domain aggregates of the primary placement, ascending machine id so
// the emitted row order (and thus every downstream float reduction) is
// deterministic.
std::map<topology::VertexId, stats::Normal> DomainMoments(
    const Request& request, const Placement& placement) {
  std::map<topology::VertexId, stats::Normal> domains;
  for (int vm = 0; vm < request.n(); ++vm) {
    stats::Normal& agg = domains[placement.vm_machine[vm]];
    const stats::Normal& d = request.demand(vm);
    agg.mean += d.mean;
    agg.variance += d.variance;
  }
  return domains;
}

// Appends the domain-tagged backup rows of `placement` (which must be
// survivable): for each failure domain f, the post-failure placement moves
// f's VMs onto the backup machine, which changes the below-side aggregate
// only along the f→lca and backup→lca paths; each moment's demand increase
// over the primary reservation (clamped at 0) becomes a backup row.
void AppendBackupRows(const topology::Topology& topo, const Request& request,
                      const Placement& placement, const PrimaryDemands& primary,
                      std::vector<LinkDemand>* rows) {
  assert(placement.survivable());
  const bool det = request.deterministic();
  const topology::VertexId backup = placement.backup_machine;

  auto emit = [&](topology::VertexId link, topology::VertexId domain,
                  double below_mean, double below_var) {
    auto it = primary.links.find(link);
    const stats::Normal delta = BackupDelta(
        request, below_mean, below_var,
        it == primary.links.end() ? stats::Normal{0, 0} : it->second.demand);
    if (delta.mean == 0 && delta.variance == 0) return;
    if (det) {
      rows->push_back({link, 0, 0, delta.mean, domain});
    } else {
      rows->push_back({link, delta.mean, delta.variance, 0, domain});
    }
  };

  for (const auto& [f, moved] : DomainMoments(request, placement)) {
    const topology::VertexId lca = Lca(topo, f, backup);
    // f-side path: the domain's VMs leave, so the below aggregate drops by
    // `moved` — yet the hose-model demand min(m, N-m) can INCREASE when the
    // below side held more than half of the request.
    for (topology::VertexId link = f; link != lca; link = topo.parent(link)) {
      const stats::Normal& below = primary.links.at(link).below;
      emit(link, f, below.mean - moved.mean, below.variance - moved.variance);
    }
    // backup-side path: the domain's VMs arrive.
    for (topology::VertexId link = backup; link != lca;
         link = topo.parent(link)) {
      auto it = primary.links.find(link);
      const stats::Normal base =
          it == primary.links.end() ? stats::Normal{0, 0} : it->second.below;
      emit(link, f, base.mean + moved.mean, base.variance + moved.variance);
    }
  }
}

// PlanBackup's candidate scoring, factored by subtree.
//
// A candidate m's score is the max of the primary score and the
// post-failure occupancy of each of its backup rows.  With L = lca(f, m),
// domain f's rows sit on f's path below L (the f-side rows, which depend on
// f alone) and on m's path below L (the backup-side rows, which depend on
// the link and f alone).  Charging each row to the edge (parent(v), v) of
// m's root path it belongs to gives
//
//   score(m) = max(primary score, max over links v on m's root path of
//                  Edge(v))
//
// where Edge(v) covers the backup-side rows on link v — one per domain
// outside subtree(v) — and the f-side rows of the domains whose lca with m
// is parent(v), i.e. those in subtree(parent(v)) but not subtree(v).
// Edge(v) depends on v alone, so each is computed at most once per call and
// shared by every machine below v.  The score is a max over exactly the
// occupancy values the per-candidate row walk evaluates, so it is exact.
class BackupSearch {
 public:
  BackupSearch(const topology::Topology& topo, const Request& request,
               const Placement& placement, const net::LinkLedger& ledger)
      : topo_(topo), request_(request), ledger_(ledger),
        primary_(BuildPrimaryDemands(topo, request, placement)),
        primary_at_(topo.num_vertices(), nullptr),
        prefix_(topo.num_vertices(), -1) {
    for (const auto& [link, primary] : primary_.links) {
      primary_at_[link] = &primary;
    }
    for (const auto& [f, moved] : DomainMoments(request, placement)) {
      const int path = static_cast<int>(path_.size());
      // f-side rows on f's root path, as running maxima from f upwards.
      double worst = 0;
      for (topology::VertexId link = f; link != topo.root();
           link = topo.parent(link)) {
        const PrimaryLink& p = *primary_at_[link];
        worst = std::max(
            worst, RowOccupancy(link, f,
                                BackupDelta(request,
                                            p.below.mean - moved.mean,
                                            p.below.variance - moved.variance,
                                            p.demand),
                                &p));
        path_.push_back(link);
        fside_worst_.push_back(worst);
      }
      // On a link with no primary VM below it, the backup-side delta is
      // the split of the moved group alone.
      domains_.push_back({f, moved, BackupDelta(request, moved.mean,
                                                moved.variance, {0, 0}),
                          path, topo.depth(f)});
    }
  }

  const PrimaryDemands& primary() const { return primary_; }

  // Backup machine minimizing the score over up machines off every domain
  // with `needed` free slots, lowest id on ties; kNoVertex when none has a
  // finite score.  Machines are visited in ascending id, so a machine, or
  // a whole subtree, is skipped as soon as its partial score reaches the
  // best score so far: it can at best tie, and ties go to the lower id.
  topology::VertexId Search(double primary_score, const SlotMap& slots,
                            int needed) {
    primary_score_ = primary_score;
    topology::VertexId best = topology::kNoVertex;
    for (topology::VertexId m : topo_.machines()) {
      if (primary_score_ >= best_score_) break;
      if (primary_at_[m] != nullptr) continue;  // off every domain
      if (!slots.machine_up(m) || slots.free_slots(m) < needed) continue;
      const double score = Prefix(m);
      if (score < best_score_) {
        best = m;
        best_score_ = score;
      }
    }
    return best;
  }

 private:
  struct Domain {
    topology::VertexId machine;
    stats::Normal moved;
    stats::Normal outside;
    int path;   // offset of the domain's root path in path_ / fside_worst_
    int depth;  // links on that path
  };

  // Post-failure occupancy of the backup row of `domain` on `link` adding
  // `delta` on top of the primary reservation there, or 0 when the row is
  // empty (the row walk emits no row then).
  double RowOccupancy(topology::VertexId link, topology::VertexId domain,
                      const stats::Normal& delta,
                      const PrimaryLink* primary) const {
    if (delta.mean == 0 && delta.variance == 0) return 0;
    const stats::Normal base =
        primary == nullptr ? stats::Normal{0, 0} : primary->demand;
    // Deterministic requests book both rows as reservations.
    if (request_.deterministic()) {
      return ledger_.OccupancyWithDomain(link, domain, 0, 0,
                                         base.mean + delta.mean);
    }
    return ledger_.OccupancyWithDomain(link, domain, base.mean + delta.mean,
                                       base.variance + delta.variance, 0);
  }

  bool InSubtree(const Domain& f, topology::VertexId v) const {
    if (v == topo_.root()) return true;
    const int up = f.depth - topo_.depth(v);
    return up >= 0 && path_[f.path + up] == v;
  }

  // Max over the rows charged to edge (parent(v), v), stopping early once
  // it reaches `bound`.
  double Edge(topology::VertexId v, double bound) const {
    const topology::VertexId u = topo_.parent(v);
    const PrimaryLink* primary = primary_at_[v];
    double worst = 0;
    for (const Domain& f : domains_) {
      if (InSubtree(f, v)) continue;
      const stats::Normal delta =
          primary == nullptr
              ? f.outside
              : BackupDelta(request_, primary->below.mean + f.moved.mean,
                            primary->below.variance + f.moved.variance,
                            primary->demand);
      worst = std::max(worst, RowOccupancy(v, f.machine, delta, primary));
      if (InSubtree(f, u)) {
        worst = std::max(
            worst, fside_worst_[f.path + f.depth - topo_.depth(u) - 1]);
      }
      if (worst >= bound) break;
    }
    return worst;
  }

  // max(primary score, Edge over v's root path), memoized.  A value that
  // reached the best score when computed may be a lower bound only; the
  // best score never rises, so such a vertex stays excluded either way.
  double Prefix(topology::VertexId v) {
    if (v == topo_.root()) return primary_score_;
    if (prefix_[v] >= 0) return prefix_[v];
    const double above = Prefix(topo_.parent(v));
    if (above >= best_score_) return above;
    prefix_[v] = std::max(above, Edge(v, best_score_));
    return prefix_[v];
  }

  const topology::Topology& topo_;
  const Request& request_;
  const net::LinkLedger& ledger_;
  const PrimaryDemands primary_;
  std::vector<Domain> domains_;  // ascending machine id
  std::vector<topology::VertexId> path_;
  std::vector<double> fside_worst_;
  std::vector<const PrimaryLink*> primary_at_;  // by vertex
  std::vector<double> prefix_;                  // by vertex; -1 = unknown
  double primary_score_ = 0;
  double best_score_ = std::numeric_limits<double>::infinity();
};

}  // namespace

std::vector<LinkDemand> ComputeSurvivableLinkDemands(
    const topology::Topology& topo, const Request& request,
    const Placement& placement) {
  PrimaryDemands primary = BuildPrimaryDemands(topo, request, placement);
  std::vector<LinkDemand> rows = std::move(primary.rows);
  if (placement.survivable()) {
    AppendBackupRows(topo, request, placement, primary, &rows);
  }
  return rows;
}

util::Status CheckSurvivableCapacity(const net::LinkLedger& ledger,
                                     const std::vector<LinkDemand>& demands) {
  // Primary rows: condition (4) in every state of the link (the ledger's
  // worst-case kernel covers existing tenants' post-failure states).  The
  // same pass indexes each link's first primary row for the backup rows.
  std::unordered_map<topology::VertexId, const LinkDemand*> primary_on;
  for (const LinkDemand& d : demands) {
    if (d.domain != topology::kNoVertex) continue;
    if (!ledger.ValidWith(d.link, d.mean, d.variance, d.deterministic)) {
      return {util::ErrorCode::kFailedPrecondition,
              "placement violates condition (4) on link " +
                  std::to_string(d.link)};
    }
    primary_on.emplace(d.link, &d);
  }
  // Backup rows: condition (4) in the row's own domain state, combined with
  // the primary addition on the same link.
  for (const LinkDemand& d : demands) {
    if (d.domain == topology::kNoVertex) continue;
    double pm = 0, pv = 0, pd = 0;
    if (auto it = primary_on.find(d.link); it != primary_on.end()) {
      pm = it->second->mean;
      pv = it->second->variance;
      pd = it->second->deterministic;
    }
    if (!ledger.ValidWithDomain(d.link, d.domain, pm + d.mean,
                                pv + d.variance, pd + d.deterministic)) {
      return {util::ErrorCode::kFailedPrecondition,
              "backup for domain " + std::to_string(d.domain) +
                  " violates post-failure condition (4) on link " +
                  std::to_string(d.link)};
    }
  }
  return util::Status::Ok();
}

util::Result<Placement> PlanBackup(const topology::Topology& topo,
                                   const Request& request, Placement placement,
                                   const net::LinkLedger& ledger,
                                   const SlotMap& slots) {
  placement.backup_machine = topology::kNoVertex;
  placement.backup_slots = 0;
  if (placement.total_vms() == 0) {
    return {util::ErrorCode::kInvalidArgument,
            "cannot protect an empty placement"};
  }

  // The backup group must absorb the largest per-machine VM group.
  std::map<topology::VertexId, int> counts;
  for (topology::VertexId m : placement.vm_machine) ++counts[m];
  int needed = 0;
  for (const auto& [m, c] : counts) needed = std::max(needed, c);

  BackupSearch search(topo, request, placement, ledger);

  // Primary rows score the same against every candidate (the worst-case
  // kernel already folds in existing tenants' backups).
  double primary_score = 0;
  for (const LinkDemand& d : search.primary().rows) {
    primary_score = std::max(primary_score, ledger.OccupancyWith(
                                                d.link, d.mean, d.variance,
                                                d.deterministic));
  }
  if (primary_score == std::numeric_limits<double>::infinity()) {
    return {util::ErrorCode::kInfeasible,
            "primary placement no longer satisfies condition (4)"};
  }

  const topology::VertexId best = search.Search(primary_score, slots, needed);
  if (best == topology::kNoVertex) {
    return {util::ErrorCode::kInfeasible,
            "no machine can host a backup group of " +
                std::to_string(needed) + " slots under condition (4)"};
  }
  placement.backup_machine = best;
  placement.backup_slots = needed;
  return placement;
}

}  // namespace svc::core
