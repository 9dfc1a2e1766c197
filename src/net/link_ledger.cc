#include "net/link_ledger.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.h"

namespace svc::net {

namespace {
// Demands smaller than this (Mbps / Mbps^2) are treated as absent.
constexpr double kNegligible = 1e-12;

// Condition (4) across the no-failure state and every post-failure (domain)
// state of the link.  Domain states are only enforced on up links: a drained
// link's backup records are unenforceable until switchover re-validates them.
bool ValidAllStates(const LinkState& s, double mean_add, double var_add,
                    double det_add, double c) {
  if (!SatisfiesGuarantee(s.capacity, s.deterministic + det_add,
                          s.mean_sum + mean_add, s.var_sum + var_add, c)) {
    return false;
  }
  if (s.capacity <= 0) return true;
  for (const BackupDomainSums& g : s.backup_pareto) {
    if (!SatisfiesGuarantee(s.capacity, s.deterministic + det_add + g.det_sum,
                            s.mean_sum + mean_add + g.mean_sum,
                            s.var_sum + var_add + g.var_sum, c)) {
      return false;
    }
  }
  return true;
}

// Fused worst-case kernel: max occupancy over the no-failure state and every
// post-failure state (the max propagates a condition-(4) violation's +inf).
double WorstOccupancyIfValid(const LinkState& s, double mean_add,
                             double var_add, double det_add, double c) {
  double worst =
      OccupancyRatioIfValid(s.capacity, s.deterministic + det_add,
                            s.mean_sum + mean_add, s.var_sum + var_add, c);
  if (s.capacity <= 0) return worst;
  for (const BackupDomainSums& g : s.backup_pareto) {
    worst = std::max(
        worst, OccupancyRatioIfValid(s.capacity,
                                     s.deterministic + det_add + g.det_sum,
                                     s.mean_sum + mean_add + g.mean_sum,
                                     s.var_sum + var_add + g.var_sum, c));
  }
  return worst;
}

// Occupancy (6) of the link's worst state, without the validity verdict:
// the no-failure state alone on links without backup records or with the
// link drained (post-failure states are not enforced there).
double WorstOccupancy(const LinkState& s, double c) {
  double worst =
      OccupancyRatio(s.capacity, s.deterministic, s.mean_sum, s.var_sum, c);
  if (s.capacity <= 0) return worst;
  for (const BackupDomainSums& g : s.backup_pareto) {
    worst = std::max(worst,
                     OccupancyRatio(s.capacity, s.deterministic + g.det_sum,
                                    s.mean_sum + g.mean_sum,
                                    s.var_sum + g.var_sum, c));
  }
  return worst;
}

// Whether post-failure state `a` makes every kernel at least as loaded as
// `b` does: `a` is no smaller in any moment, and `b` has zero variance only
// if `a` does too.  Occupancy and the condition-(4) verdict are monotone in
// each moment within one branch of condition (4), and a positive domain
// variance keeps the total variance positive, so `b`'s value can never
// exceed `a`'s.  Only this relation licenses pruning `b`.
bool Dominates(const BackupDomainSums& a, const BackupDomainSums& b) {
  return a.det_sum >= b.det_sum && a.mean_sum >= b.mean_sum &&
         a.var_sum >= b.var_sum && (b.var_sum > 0 || a.var_sum <= 0);
}

// Adds `g` to a set of mutually non-dominating states unless a member
// dominates it, dropping the members it dominates.  O(set size).
void InsertMaximal(std::vector<BackupDomainSums>& pareto,
                   const BackupDomainSums& g) {
  for (const BackupDomainSums& p : pareto) {
    if (Dominates(p, g)) return;
  }
  std::erase_if(pareto,
                [&](const BackupDomainSums& p) { return Dominates(g, p); });
  pareto.push_back(g);
}

void RebuildPareto(LinkState& s) {
  s.backup_pareto.clear();
  for (const BackupDomainSums& g : s.backup_domains) {
    InsertMaximal(s.backup_pareto, g);
  }
}

// Folds domain state `g`, whose sums just grew, into the Pareto set in
// O(set size): the grown state at most joins the set and evicts what it
// now dominates.  The exception is a member whose variance just left zero:
// the zero-variance states only it dominated may be maximal again, so the
// set is rebuilt.
void RaisePareto(LinkState& s, const BackupDomainSums& g, bool var_was_zero) {
  auto self = std::find_if(
      s.backup_pareto.begin(), s.backup_pareto.end(),
      [&](const BackupDomainSums& p) { return p.domain == g.domain; });
  if (self != s.backup_pareto.end()) {
    if (var_was_zero && g.var_sum > 0) {
      RebuildPareto(s);
      return;
    }
    s.backup_pareto.erase(self);
  }
  InsertMaximal(s.backup_pareto, g);
}

bool DomainLess(const BackupDomainSums& g, topology::VertexId domain) {
  return g.domain < domain;
}

// The sums of `domain` in `sums` (sorted by domain id), inserted as zero
// when absent.
BackupDomainSums& DomainSums(std::vector<BackupDomainSums>& sums,
                             topology::VertexId domain) {
  auto it = std::lower_bound(sums.begin(), sums.end(), domain, DomainLess);
  if (it == sums.end() || it->domain != domain) {
    it = sums.insert(it, BackupDomainSums{domain, 0, 0, 0});
  }
  return *it;
}

// Recomputes the per-domain sums and their Pareto set from the surviving
// backup records: exact (a domain whose records drain disappears entirely,
// so stale near-zero sums cannot linger in the worst-case kernels) and
// O(records).
void RebuildDomainSums(LinkState& s) {
  s.backup_domains.clear();
  for (const BackupDemand& b : s.backup) {
    BackupDomainSums& g = DomainSums(s.backup_domains, b.domain);
    g.mean_sum += b.mean;
    g.var_sum += b.variance;
    g.det_sum += b.deterministic;
  }
  RebuildPareto(s);
}
}  // namespace

LinkLedger::LinkLedger(const topology::Topology& topo, double epsilon)
    : topo_(&topo), epsilon_(epsilon), c_(GuaranteeQuantile(epsilon)),
      touched_(1) {
  assert(topo.finalized());
  links_.resize(topo.num_vertices());
  for (topology::VertexId v = 1; v < topo.num_vertices(); ++v) {
    links_[v].capacity = topo.uplink_capacity(v);
  }
}

void LinkLedger::SetShardMap(const ShardMap* shards) {
  assert(shards == nullptr || &shards->topo() == topo_);
  // Re-bucket the existing touched lists under the new partition.
  std::vector<TouchedMap> old = std::move(touched_);
  shards_ = shards;
  touched_.assign(shards_ == nullptr ? 1 : shards_->bucket_count(),
                  TouchedMap{});
  for (TouchedMap& map : old) {
    for (auto& [req, links] : map) {
      for (topology::VertexId v : links) Touch(req, v);
    }
  }
}

double LinkLedger::SharingBandwidth(topology::VertexId v) const {
  assert(v != topo_->root());
  return links_[v].capacity - links_[v].deterministic;
}

double LinkLedger::Occupancy(topology::VertexId v) const {
  assert(v != topo_->root());
  const LinkState& s = links_[v];
  return OccupancyRatio(s.capacity, s.deterministic, s.mean_sum, s.var_sum,
                        c_);
}

double LinkLedger::Slack(topology::VertexId v) const {
  assert(v != topo_->root());
  return std::max(-1.0, 1.0 - WorstOccupancy(links_[v], c_));
}

double LinkLedger::OccupancyWith(topology::VertexId v, double mean_add,
                                 double var_add, double det_add) const {
  assert(v != topo_->root());
  const LinkState& s = links_[v];
  if (s.backup_pareto.empty()) {
    return OccupancyRatioIfValid(s.capacity, s.deterministic + det_add,
                                 s.mean_sum + mean_add, s.var_sum + var_add,
                                 c_);
  }
  return WorstOccupancyIfValid(s, mean_add, var_add, det_add, c_);
}

bool LinkLedger::ValidWith(topology::VertexId v, double mean_add,
                           double var_add, double det_add) const {
  assert(v != topo_->root());
  const LinkState& s = links_[v];
  if (s.backup_pareto.empty()) {
    return SatisfiesGuarantee(s.capacity, s.deterministic + det_add,
                              s.mean_sum + mean_add, s.var_sum + var_add, c_);
  }
  return ValidAllStates(s, mean_add, var_add, det_add, c_);
}

double LinkLedger::OccupancyWithDomain(topology::VertexId v,
                                       topology::VertexId domain,
                                       double mean_add, double var_add,
                                       double det_add) const {
  assert(v != topo_->root());
  const LinkState& s = links_[v];
  double gm = 0, gv = 0, gd = 0;
  auto it = std::lower_bound(s.backup_domains.begin(), s.backup_domains.end(),
                             domain, DomainLess);
  if (it != s.backup_domains.end() && it->domain == domain) {
    gm = it->mean_sum;
    gv = it->var_sum;
    gd = it->det_sum;
  }
  return OccupancyRatioIfValid(s.capacity, s.deterministic + det_add + gd,
                               s.mean_sum + mean_add + gm,
                               s.var_sum + var_add + gv, c_);
}

bool LinkLedger::ValidWithDomain(topology::VertexId v,
                                 topology::VertexId domain, double mean_add,
                                 double var_add, double det_add) const {
  return OccupancyWithDomain(v, domain, mean_add, var_add, det_add) !=
         std::numeric_limits<double>::infinity();
}

double LinkLedger::BackupShare(topology::VertexId v) const {
  assert(v != topo_->root());
  const LinkState& s = links_[v];
  if (s.backup_pareto.empty() || s.capacity <= 0) return 0;
  const double base =
      OccupancyRatio(s.capacity, s.deterministic, s.mean_sum, s.var_sum, c_);
  const double worst = WorstOccupancy(s, c_);
  if (!std::isfinite(worst) || !std::isfinite(base)) return 0;
  return std::clamp(worst - base, 0.0, 1.0);
}

double LinkLedger::MaxBackupShare() const {
  double result = 0;
  for (topology::VertexId v = 1; v < topo_->num_vertices(); ++v) {
    result = std::max(result, BackupShare(v));
  }
  return result;
}

void LinkLedger::OccupancyWithBatch(topology::VertexId v,
                                    const double* mean_add,
                                    const double* var_add,
                                    const double* det_add, int count,
                                    double* out) const {
  assert(v != topo_->root());
  const LinkState& s = links_[v];
  const double capacity = s.capacity;
  const double slack = 1e-9 * capacity;
  const double d0 = s.deterministic;
  const double m0 = s.mean_sum;
  const double v0 = s.var_sum;
  const double c = c_;
  const double inf = std::numeric_limits<double>::infinity();
  if (capacity <= 0) {
    // Failed (drained) link — hoisted out of the hot loop so the nominal
    // path stays branch-free.  Matches OccupancyRatioIfValid cell by cell.
    for (int i = 0; i < count; ++i) {
      const double demand = d0 + det_add[i] + m0 + mean_add[i] + v0 +
                            var_add[i];
      out[i] = demand <= 0 ? 0.0 : inf;
    }
    return;
  }
  // Mirrors OccupancyRatioIfValid cell by cell — same operand order, so the
  // finite values are bit-identical to the scalar path.  No branches, no
  // loads of shared state inside the loop.
  for (int i = 0; i < count; ++i) {
    const double det = d0 + det_add[i];
    const double mean = m0 + mean_add[i];
    const double var = v0 + var_add[i];
    const double root = c * std::sqrt(var);
    const bool valid = var <= 0 ? det + mean <= capacity + slack
                                : capacity - det - mean > root - slack;
    out[i] = valid ? (det + mean + root) / capacity : inf;
  }
  // Shared-backup class: fold in each post-failure state.  Links without
  // backup records (every link unless survivability is on) skip this pass,
  // keeping the legacy loop's output bit-identical.
  for (const BackupDomainSums& g : s.backup_pareto) {
    for (int i = 0; i < count; ++i) {
      out[i] = std::max(
          out[i], OccupancyRatioIfValid(capacity, d0 + det_add[i] + g.det_sum,
                                        m0 + mean_add[i] + g.mean_sum,
                                        v0 + var_add[i] + g.var_sum, c));
    }
  }
}

int LinkLedger::FeasibleFrontier(topology::VertexId v, const double* mean_add,
                                 const double* var_add, const double* det_add,
                                 int lo, int hi) const {
  assert(v != topo_->root());
  const LinkState& s = links_[v];
  // Invariant: every index < lo is feasible, every index > hi infeasible
  // (once one candidate violates (4), every larger-moment candidate does:
  // the slack side shrinks while the quantile side grows; an AND over the
  // link's post-failure states preserves this, since each state's verdict
  // is monotone in the candidate's moments).
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    const bool valid = s.backup_pareto.empty()
                           ? SatisfiesGuarantee(
                                 s.capacity, s.deterministic + det_add[mid],
                                 s.mean_sum + mean_add[mid],
                                 s.var_sum + var_add[mid], c_)
                           : ValidAllStates(s, mean_add[mid], var_add[mid],
                                            det_add[mid], c_);
    if (valid) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

int LinkLedger::FeasibleFrontierDescending(topology::VertexId v,
                                           const double* mean_add,
                                           const double* var_add,
                                           const double* det_add, int lo,
                                           int hi) const {
  assert(v != topo_->root());
  const LinkState& s = links_[v];
  // Invariant: every index < lo is infeasible, every index > hi feasible.
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    const bool valid = s.backup_pareto.empty()
                           ? SatisfiesGuarantee(
                                 s.capacity, s.deterministic + det_add[mid],
                                 s.mean_sum + mean_add[mid],
                                 s.var_sum + var_add[mid], c_)
                           : ValidAllStates(s, mean_add[mid], var_add[mid],
                                            det_add[mid], c_);
    if (valid) {
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

double LinkLedger::MaxOccupancy() const {
  double result = 0;
  for (topology::VertexId v = 1; v < topo_->num_vertices(); ++v) {
    result = std::max(result, Occupancy(v));
  }
  return result;
}

void LinkLedger::SetLinkState(topology::VertexId v, bool up) {
  assert(v != topo_->root());
  LinkState& s = links_[v];
  if (s.up == up) return;
  s.up = up;
  // Transactional drain/restore: the single capacity write is what makes
  // every subsequent condition-(4) / occupancy-(6) evaluation see the
  // outage — no per-record rewrite, so it cannot partially apply.
  s.capacity = up ? topo_->uplink_capacity(v) : 0.0;
}

std::vector<RequestId> LinkLedger::AffectedRequests(
    topology::VertexId v) const {
  assert(v != topo_->root());
  const LinkState& s = links_[v];
  std::vector<RequestId> ids;
  ids.reserve(s.stochastic.size() + s.reserved.size());
  for (const StochasticDemand& d : s.stochastic) ids.push_back(d.request);
  for (const DeterministicDemand& d : s.reserved) ids.push_back(d.request);
  // Backup records deliberately excluded: a tenant whose BACKUP routes
  // through v keeps its primary placement intact — its protection is
  // degraded, not its service, and switchover re-validates before use.
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void LinkLedger::Touch(RequestId req, topology::VertexId v) {
  std::vector<topology::VertexId>& list = touched_[bucket_of(v)][req];
  if (std::find(list.begin(), list.end(), v) == list.end()) {
    list.push_back(v);
  }
}

void LinkLedger::AddStochastic(topology::VertexId v, RequestId req,
                               double mean, double variance) {
  assert(v != topo_->root());
  assert(mean >= 0 && variance >= 0);
  if (mean < kNegligible && variance < kNegligible) return;
  LinkState& s = links_[v];
  s.stochastic.push_back({req, mean, variance});
  s.mean_sum += mean;
  s.var_sum += variance;
  // Post-admission occupancy ratio of the touched link (Fig. 9's per-link
  // statistic, here sampled continuously instead of only at arrivals).
  SVC_METRIC_HIST("net/occupancy_ratio", Occupancy(v));
  Touch(req, v);
}

void LinkLedger::AddDeterministic(topology::VertexId v, RequestId req,
                                  double amount) {
  assert(v != topo_->root());
  assert(amount >= 0);
  if (amount < kNegligible) return;
  LinkState& s = links_[v];
  s.reserved.push_back({req, amount});
  s.deterministic += amount;
  SVC_METRIC_HIST("net/occupancy_ratio", Occupancy(v));
  Touch(req, v);
}

void LinkLedger::AddBackup(topology::VertexId v, RequestId req,
                           topology::VertexId domain, double mean,
                           double variance, double deterministic) {
  assert(v != topo_->root());
  assert(domain != topology::kNoVertex);
  assert(mean >= 0 && variance >= 0 && deterministic >= 0);
  if (mean < kNegligible && variance < kNegligible &&
      deterministic < kNegligible) {
    return;
  }
  LinkState& s = links_[v];
  s.backup.push_back({req, domain, mean, variance, deterministic});
  BackupDomainSums& g = DomainSums(s.backup_domains, domain);
  const bool var_was_zero = g.var_sum <= 0;
  g.mean_sum += mean;
  g.var_sum += variance;
  g.det_sum += deterministic;
  RaisePareto(s, g, var_was_zero);
  Touch(req, v);
}

void LinkLedger::RebuildSums(topology::VertexId v) {
  LinkState& s = links_[v];
  s.mean_sum = 0;
  s.var_sum = 0;
  s.deterministic = 0;
  for (const auto& d : s.stochastic) {
    s.mean_sum += d.mean;
    s.var_sum += d.variance;
  }
  for (const auto& d : s.reserved) s.deterministic += d.amount;
  RebuildDomainSums(s);
}

void LinkLedger::AssignAggregatesFrom(const LinkLedger& other) {
  assert(topo_ == other.topo_);
  assert(links_.size() == other.links_.size());
  epsilon_ = other.epsilon_;
  c_ = other.c_;
  for (size_t v = 0; v < links_.size(); ++v) {
    LinkState& dst = links_[v];
    const LinkState& src = other.links_[v];
    dst.capacity = src.capacity;
    dst.deterministic = src.deterministic;
    dst.mean_sum = src.mean_sum;
    dst.var_sum = src.var_sum;
    dst.up = src.up;
    // Backup-domain sums and their Pareto set are aggregates too:
    // snapshots must see reserved backup bandwidth or speculative admission
    // would over-commit the post-failure states.  The emptiness guard keeps
    // the legacy (no-survivability) capture allocation-free.
    if (!src.backup_domains.empty() || !dst.backup_domains.empty()) {
      dst.backup_domains = src.backup_domains;
      dst.backup_pareto = src.backup_pareto;
    }
    // A view carries no records; clears are free once the lists are empty.
    dst.stochastic.clear();
    dst.reserved.clear();
    dst.backup.clear();
  }
  for (TouchedMap& map : touched_) map.clear();
}

void LinkLedger::AssignAggregatesFromLinks(
    const LinkLedger& other, const std::vector<topology::VertexId>& links) {
  assert(topo_ == other.topo_);
  for (topology::VertexId v : links) {
    LinkState& dst = links_[v];
    const LinkState& src = other.links_[v];
    assert(dst.stochastic.empty() && dst.reserved.empty() &&
           dst.backup.empty() &&
           "partial capture is a shadow-ledger operation");
    dst.capacity = src.capacity;
    dst.deterministic = src.deterministic;
    dst.mean_sum = src.mean_sum;
    dst.var_sum = src.var_sum;
    dst.up = src.up;
    if (!src.backup_domains.empty() || !dst.backup_domains.empty()) {
      dst.backup_domains = src.backup_domains;
      dst.backup_pareto = src.backup_pareto;
    }
  }
}

void LinkLedger::RemoveRequest(RequestId req) { RemoveRequest(req, nullptr); }

void LinkLedger::RemoveRequest(RequestId req, uint64_t* touched_buckets) {
  for (size_t bucket = 0; bucket < touched_.size(); ++bucket) {
    auto it = touched_[bucket].find(req);
    if (it == touched_[bucket].end()) continue;
    if (touched_buckets != nullptr) *touched_buckets |= uint64_t{1} << bucket;
    RemoveRecords(req, it->second);
    touched_[bucket].erase(it);
  }
}

void LinkLedger::RemoveRecords(RequestId req,
                               const std::vector<topology::VertexId>& links) {
  // Each touched list names a link at most once (Touch dedupes on insert),
  // so this visits every record of the request exactly once.  Sums are
  // restored by direct subtraction — no scan of the surviving records —
  // and record order is not preserved (swap-remove); nothing keys on it.
  for (topology::VertexId v : links) {
    LinkState& s = links_[v];
    for (size_t i = 0; i < s.stochastic.size();) {
      if (s.stochastic[i].request == req) {
        s.mean_sum -= s.stochastic[i].mean;
        s.var_sum -= s.stochastic[i].variance;
        s.stochastic[i] = s.stochastic.back();
        s.stochastic.pop_back();
      } else {
        ++i;
      }
    }
    for (size_t i = 0; i < s.reserved.size();) {
      if (s.reserved[i].request == req) {
        s.deterministic -= s.reserved[i].amount;
        s.reserved[i] = s.reserved.back();
        s.reserved.pop_back();
      } else {
        ++i;
      }
    }
    // Snap empty links to exactly zero so subtraction drift cannot
    // accumulate across tenant churn on a link that fully drains.
    if (s.stochastic.empty()) {
      s.mean_sum = 0;
      s.var_sum = 0;
    }
    if (s.reserved.empty()) s.deterministic = 0;
    bool backup_removed = false;
    for (size_t i = 0; i < s.backup.size();) {
      if (s.backup[i].request == req) {
        s.backup[i] = s.backup.back();
        s.backup.pop_back();
        backup_removed = true;
      } else {
        ++i;
      }
    }
    if (backup_removed) RebuildDomainSums(s);
  }
}

size_t LinkLedger::TotalRecords() const {
  size_t total = 0;
  for (const LinkState& s : links_) {
    total += s.stochastic.size() + s.reserved.size() + s.backup.size();
  }
  return total;
}

}  // namespace svc::net
