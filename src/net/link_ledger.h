// Per-link bandwidth bookkeeping for a finalized topology.
//
// This is the network manager's "up-to-date status of the datacenter
// network" (paper Section III-C): for every physical link it tracks the
// capacity C_L, the deterministic reservation D_L, and the per-request
// stochastic demand records (mu_{i,L}, sigma^2_{i,L}), plus their running
// sums so validity and occupancy checks are O(1).
//
// Links are identified by the child vertex of the link (topology
// convention).  Mutations are grouped per request so a tenant departure
// releases every link it touched in O(records).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/admission.h"
#include "net/shard_map.h"
#include "topology/topology.h"

namespace svc::net {

using RequestId = int64_t;

// One stochastic demand record on a link: request r contributes demand
// B_r^L with the given first two moments.
struct StochasticDemand {
  RequestId request;
  double mean;
  double variance;
};

// One deterministic reservation record (Oktopus-style, rate limited).
struct DeterministicDemand {
  RequestId request;
  double amount;
};

// One shared-backup demand record (docs/ROBUSTNESS.md "Survivability"): the
// demand request r's backup group adds to the link, but only in the
// post-failure state of `domain` (the protected primary machine).  Backups
// protecting different domains never activate together under the
// single-failure assumption, so records of distinct domains SHARE the
// link's headroom instead of summing.
struct BackupDemand {
  RequestId request;
  topology::VertexId domain;
  double mean;
  double variance;
  double deterministic;
};

// Running sums of one domain's backup records on one link — the post-failure
// state of that domain is the link's base sums plus these.
struct BackupDomainSums {
  topology::VertexId domain = topology::kNoVertex;
  double mean_sum = 0;
  double var_sum = 0;
  double det_sum = 0;
};

struct LinkState {
  double capacity = 0;       // C_L (0 while the link is down)
  double deterministic = 0;  // D_L
  double mean_sum = 0;       // sum of stochastic means on the link
  double var_sum = 0;        // sum of stochastic variances on the link
  bool up = true;            // fault-plane state; capacity drains to 0 down
  // The Pareto-maximal entries of backup_domains in (det, mean, var): the
  // only post-failure states that can be a link's worst, so every
  // worst-case kernel walks these instead of every domain.  A state with
  // zero variance is only pruned by another zero-variance state, since
  // condition (4) takes its deterministic branch at zero total variance
  // and the two branches round differently.  Kept beside the sums, which
  // every kernel reads together with its emptiness test.
  std::vector<BackupDomainSums> backup_pareto;
  std::vector<StochasticDemand> stochastic;
  std::vector<DeterministicDemand> reserved;
  // Shared-backup class: per-record bookkeeping plus per-domain sums
  // (sorted by domain id).  All three backup vectors stay empty unless
  // survivable admission is on, so the legacy read paths below cost one
  // emptiness test.
  std::vector<BackupDemand> backup;
  std::vector<BackupDomainSums> backup_domains;
};

class LinkLedger {
 public:
  // The ledger borrows the topology; it must outlive the ledger.
  // `epsilon` is the SLA risk factor of condition (1).
  LinkLedger(const topology::Topology& topo, double epsilon);

  // --- Sharding (docs/CONCURRENCY.md "Sharded fabric commit") ---

  // Installs (or, with nullptr, removes) a shard partition.  The per-request
  // touched-link bookkeeping moves into per-bucket storage, so mutations
  // that stay within one bucket — AddStochastic / AddDeterministic /
  // RemoveRequest restricted to that bucket's links — are safe to run
  // concurrently with mutations in *other* buckets: they write disjoint
  // LinkState rows and disjoint touched maps.  The map is borrowed and must
  // outlive the ledger (or the next SetShardMap call).
  void SetShardMap(const ShardMap* shards);
  const ShardMap* shard_map() const { return shards_; }
  // Bucket owning link v (0 when unsharded).
  int bucket_of(topology::VertexId v) const {
    return shards_ == nullptr ? 0 : shards_->bucket_of_link(v);
  }

  double epsilon() const { return epsilon_; }
  // c = Phi^{-1}(1 - epsilon), cached.
  double quantile() const { return c_; }
  const topology::Topology& topo() const { return *topo_; }

  const LinkState& link(topology::VertexId v) const { return links_[v]; }

  // S_L = C_L - D_L, the stochastic sharing bandwidth.
  double SharingBandwidth(topology::VertexId v) const;

  // Occupancy ratio O_L of the link under current state (Eq. 6).
  double Occupancy(topology::VertexId v) const;

  // Condition-(4) occupancy slack of the link under current state:
  // 1 - O_L, where on a link with backup records O_L is the worst
  // post-failure occupancy (the state survivable admission enforces
  // condition (4) on).  0 means the link sits exactly at its admissible
  // stochastic load; clamped below at -1 so drained links (O_L = +inf once
  // capacity is zero) stay finite — the decision log serializes this per
  // binding link (docs/OBSERVABILITY.md "Decision records").
  double Slack(topology::VertexId v) const;

  // Occupancy if a candidate demand (stochastic moments + deterministic
  // amount) were added, or +inf when the candidate would violate condition
  // (4).  Validity and occupancy share one quantile evaluation, so the
  // allocators' DP inner loop pays a single sqrt per cell.
  double OccupancyWith(topology::VertexId v, double mean_add, double var_add,
                       double det_add) const;

  // Condition (4) with the candidate included.  Thin shim over the fused
  // OccupancyWith semantics, kept for callers (and tests) that only need
  // the verdict.
  bool ValidWith(topology::VertexId v, double mean_add, double var_add,
                 double det_add) const;

  // Batch kernel over one link: evaluates the fused OccupancyWith for
  // `count` candidate demands given as parallel arrays, writing the
  // occupancy (or +inf on a condition-(4) violation) into out[i].  The
  // link's running sums are loaded once and the loop body is arithmetic
  // plus one sqrt per cell, with no call across a translation unit.  The
  // compiler keeps that loop scalar (one sqrtsd per cell; only the
  // failed-link pass vectorizes).  Each out[i] is bit-identical to
  // OccupancyWith(v, mean_add[i], var_add[i], det_add[i]).
  void OccupancyWithBatch(topology::VertexId v, const double* mean_add,
                          const double* var_add, const double* det_add,
                          int count, double* out) const;

  // Binary search of the feasibility frontier over candidates whose
  // moments are MONOTONE NON-DECREASING on [lo, hi] (all three arrays).
  // Returns the first index in [lo, hi] whose candidate violates condition
  // (4), or hi + 1 when every candidate is feasible.  Occupancy is
  // monotone in each moment, so the feasible candidates form a prefix and
  // O(log) fused evaluations locate the frontier exactly.
  int FeasibleFrontier(topology::VertexId v, const double* mean_add,
                       const double* var_add, const double* det_add, int lo,
                       int hi) const;

  // Descending counterpart: moments MONOTONE NON-INCREASING on [lo, hi],
  // so infeasible candidates form a prefix.  Returns the first feasible
  // index in [lo, hi], or hi + 1 when every candidate violates (4).
  int FeasibleFrontierDescending(topology::VertexId v, const double* mean_add,
                                 const double* var_add, const double* det_add,
                                 int lo, int hi) const;

  // Maximum occupancy ratio over all links (the Fig. 9 sample statistic).
  double MaxOccupancy() const;

  // --- Shared-backup class (survivable admission) ---
  //
  // Every read kernel above (OccupancyWith / ValidWith / the batch and
  // frontier variants) evaluates the WORST post-failure state of the link:
  // the no-failure state plus, for each protected domain d with backup
  // records here, the state with d's backup sums activated.  They walk only
  // LinkState::backup_pareto; each pruned state is dominated by a kept one
  // on the same branch of condition (4), so the maximum is bit-identical
  // to a walk over every domain.  Links without backup records take the
  // legacy single-state path bit-identically.
  // Post-failure states are only enforced on up links — a drained link's
  // backup records are unenforceable until switchover re-validates them
  // through AdmitPlacement.

  // Occupancy of link v in the post-failure state of `domain` with a
  // candidate demand added (the candidate is the backup group's own demand
  // plus any primary demand the same placement puts on this link), or +inf
  // when that state would violate condition (4).  Domains with no backup
  // records on v degrade to the plain fused kernel.  O(log domains on v).
  double OccupancyWithDomain(topology::VertexId v, topology::VertexId domain,
                             double mean_add, double var_add,
                             double det_add) const;

  // Verdict-only shim over OccupancyWithDomain.
  bool ValidWithDomain(topology::VertexId v, topology::VertexId domain,
                       double mean_add, double var_add, double det_add) const;

  // Fraction of link v's occupancy held by backup reservations: worst-case
  // occupancy minus no-failure occupancy, clamped to [0, 1] and 0 when
  // either side is non-finite (drained link).  The "backup bandwidth tax"
  // statistic for bench/fault_recovery.
  double BackupShare(topology::VertexId v) const;

  // Maximum BackupShare over all links.
  double MaxBackupShare() const;

  // --- Fault plane ---

  // Whether the link below vertex v is up (new links start up).
  bool link_up(topology::VertexId v) const { return links_[v].up; }

  // Transactionally drains or restores the link's capacity: down sets
  // C_L = 0 (so condition (4) and occupancy (6) immediately reflect the
  // outage — any remaining demand shows as O_L = +inf), up restores the
  // topology's nominal capacity.  Existing demand records are NOT removed;
  // the manager decides what to do with affected tenants (see
  // AffectedRequests).  Idempotent.
  void SetLinkState(topology::VertexId v, bool up);

  // Request ids with at least one demand record (stochastic or
  // deterministic) on link v, sorted ascending and deduplicated — the
  // tenants whose placements a fault on v strands.
  std::vector<RequestId> AffectedRequests(topology::VertexId v) const;

  // --- Mutations ---

  // Records a stochastic demand of request `req` on link v.  Demands with
  // negligible moments are skipped (links entirely above/below the
  // placement carry none).
  void AddStochastic(topology::VertexId v, RequestId req, double mean,
                     double variance);

  // Records a deterministic reservation.
  void AddDeterministic(topology::VertexId v, RequestId req, double amount);

  // Records a shared-backup demand of request `req` on link v, active only
  // in the post-failure state of `domain` (a protected primary machine of
  // the request).  Negligible demands are skipped like AddStochastic.
  void AddBackup(topology::VertexId v, RequestId req,
                 topology::VertexId domain, double mean, double variance,
                 double deterministic);

  // Removes every record of `req` and restores the running sums by direct
  // subtraction (O(records on touched links), no rebuild scan).  Links
  // whose record lists drain snap their sums to exactly zero, so drift
  // cannot accumulate across tenant churn.  Removing an unknown request is
  // a no-op (idempotent release).
  void RemoveRequest(RequestId req);

  // As above, additionally OR-ing into `touched_buckets` one bit per bucket
  // the request had records in — the scoped-epoch-invalidation input for
  // NetworkManager::Release (an unknown request leaves the mask untouched).
  void RemoveRequest(RequestId req, uint64_t* touched_buckets);

  // Recomputes the running sums of a link from its records (diagnostics /
  // drift audits; the mutation paths maintain the sums directly).
  void RebuildSums(topology::VertexId v);

  // Overwrites this ledger's per-link aggregates (capacity, D_L, moment
  // sums, up state) and risk parameters with `other`'s, WITHOUT copying the
  // per-request demand records — the record lists here are cleared.  Both
  // ledgers must be over the same topology.  This is the LedgerView capture
  // primitive: every read-side kernel above depends only on the aggregates,
  // and reusing this ledger's storage keeps steady-state captures off the
  // heap.
  void AssignAggregatesFrom(const LinkLedger& other);

  // Partial capture: overwrites the aggregates of exactly the listed links
  // with `other`'s, leaving every other row untouched.  Used by the sharded
  // snapshot refresh to re-capture only the buckets whose epoch moved
  // (`links` is typically ShardMap::links_in_bucket).  Unlike the full
  // capture this does NOT clear record lists or touched bookkeeping — it is
  // only meaningful on a shadow ledger, which never holds records.
  void AssignAggregatesFromLinks(const LinkLedger& other,
                                 const std::vector<topology::VertexId>& links);

  // Total number of demand records (diagnostics / tests).
  size_t TotalRecords() const;

 private:
  using TouchedMap =
      std::unordered_map<RequestId, std::vector<topology::VertexId>>;

  const topology::Topology* topo_;
  double epsilon_;
  double c_;
  // Appends v to its bucket's touched list for req unless already present.
  void Touch(RequestId req, topology::VertexId v);
  // Removes req's records on the links of one touched list.
  void RemoveRecords(RequestId req,
                     const std::vector<topology::VertexId>& links);

  const ShardMap* shards_ = nullptr;  // borrowed; nullptr = unsharded
  std::vector<LinkState> links_;  // indexed by vertex id; root unused
  // Which links each live request touches, for O(records) release, bucketed
  // by shard (one map when unsharded) so same-bucket mutations never share
  // a map with another bucket's.  Each link appears at most once per
  // request per bucket (see Touch).
  std::vector<TouchedMap> touched_;
};

}  // namespace svc::net
