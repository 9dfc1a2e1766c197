#include "svc/manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/demand_profile.h"
#include "svc/survivable.h"
#include "util/logging.h"

namespace svc::core {

const char* ToString(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kReallocate: return "reallocate";
    case RecoveryPolicy::kPatch: return "patch";
    case RecoveryPolicy::kEvict: return "evict";
    case RecoveryPolicy::kSwitchover: return "switchover";
  }
  return "?";
}

const char* ToString(EvictReason reason) {
  switch (reason) {
    case EvictReason::kNone: return "none";
    case EvictReason::kPolicy: return "policy";
    case EvictReason::kReallocationFailed: return "reallocation-failed";
    case EvictReason::kPatchFailed: return "patch-failed";
  }
  return "?";
}

bool ParseRecoveryPolicy(std::string_view name, RecoveryPolicy* out) {
  if (name == "reallocate") {
    *out = RecoveryPolicy::kReallocate;
  } else if (name == "patch") {
    *out = RecoveryPolicy::kPatch;
  } else if (name == "evict") {
    *out = RecoveryPolicy::kEvict;
  } else if (name == "switchover") {
    *out = RecoveryPolicy::kSwitchover;
  } else {
    return false;
  }
  return true;
}

int FaultOutcome::recovered() const {
  int n = 0;
  for (const TenantOutcome& t : tenants) n += t.recovered;
  return n;
}

int FaultOutcome::evicted() const {
  // Counted by reason, not by complement: a drain can leave a tenant in
  // place (unrecovered yet not evicted, EvictReason::kNone).  For faults
  // every unrecovered tenant carries a reason, so this matches the old
  // size() - recovered() there.
  int n = 0;
  for (const TenantOutcome& t : tenants) n += t.evict_reason != EvictReason::kNone;
  return n;
}

int FaultOutcome::switched() const {
  int n = 0;
  for (const TenantOutcome& t : tenants) n += t.switched_over;
  return n;
}

namespace {

// Per-algorithm admission counter, e.g. "alloc/svc-dp/success".  The name
// is composed on the stack and interned by the registry; lookups after the
// first take a shared lock and never allocate (the Allocate hot path is
// covered by the zero-allocation regression benches).
void BumpAllocatorCounter(std::string_view allocator, const char* outcome) {
  char name[96];
  std::snprintf(name, sizeof name, "alloc/%.*s/%s",
                static_cast<int>(allocator.size()), allocator.data(), outcome);
  obs::Registry::Global().GetCounter(name).Increment();
}

// Short reason code for decision records (fits DecisionRecord::reason).
const char* ReasonCode(util::ErrorCode code) {
  switch (code) {
    case util::ErrorCode::kOk: return "ok";
    case util::ErrorCode::kInvalidArgument: return "invalid-argument";
    case util::ErrorCode::kInfeasible: return "infeasible";
    case util::ErrorCode::kCapacity: return "capacity";
    case util::ErrorCode::kNotFound: return "not-found";
    case util::ErrorCode::kFailedPrecondition: return "precondition";
  }
  return "unknown";
}

}  // namespace

NetworkManager::NetworkManager(const topology::Topology& topo, double epsilon)
    : topo_(&topo), ledger_(topo, epsilon), slots_(topo) {}

std::vector<LinkDemand> NetworkManager::ComputeLinkDemands(
    const Request& request, const Placement& placement) const {
  // The primary computation (and, for survivable placements, the per-domain
  // backup deltas) lives in svc/survivable.cc so PlanBackup can reuse it.
  return ComputeSurvivableLinkDemands(*topo_, request, placement);
}

util::Status NetworkManager::CheckPlacementShape(
    const Request& request, const Placement& placement) const {
  if (live_.count(request.id())) {
    return {util::ErrorCode::kFailedPrecondition,
            "request id already admitted: " + std::to_string(request.id())};
  }
  if (placement.total_vms() != request.n()) {
    return {util::ErrorCode::kFailedPrecondition,
            "placement has " + std::to_string(placement.total_vms()) +
                " VMs for a request of " + std::to_string(request.n())};
  }
  for (topology::VertexId machine : placement.vm_machine) {
    if (machine < 0 || machine >= topo_->num_vertices() ||
        !topo_->is_machine(machine)) {
      return {util::ErrorCode::kFailedPrecondition,
              "placement names a non-machine vertex " +
                  std::to_string(machine)};
    }
  }
  if (placement.survivable()) {
    const topology::VertexId b = placement.backup_machine;
    if (b < 0 || b >= topo_->num_vertices() || !topo_->is_machine(b)) {
      return {util::ErrorCode::kFailedPrecondition,
              "backup group names a non-machine vertex " + std::to_string(b)};
    }
    if (placement.backup_slots <= 0) {
      return {util::ErrorCode::kFailedPrecondition,
              "survivable placement with an empty backup group"};
    }
    for (topology::VertexId machine : placement.vm_machine) {
      if (machine == b) {
        return {util::ErrorCode::kFailedPrecondition,
                "backup machine " + std::to_string(b) +
                    " overlaps a primary machine"};
      }
    }
  } else if (placement.backup_slots != 0) {
    return {util::ErrorCode::kFailedPrecondition,
            "backup slots without a backup machine"};
  }
  return util::Status::Ok();
}

util::Status NetworkManager::CheckCapacity(
    const Placement& placement,
    const std::vector<LinkDemand>& demands) const {
  for (const auto& [machine, count] : placement.MachineCounts()) {
    if (slots_.free_slots(machine) < count) {
      return {util::ErrorCode::kFailedPrecondition,
              "placement exceeds free slots on machine " +
                  std::to_string(machine)};
    }
  }
  // Condition (4), re-checked on exactly the links the placement touches —
  // the validate-and-commit stage pays O(touched links), not O(links).
  // Survivable demand sets group primary and backup rows per link, so their
  // check pairs each backup row with the primary addition on its link.
  if (placement.survivable()) {
    return CheckSurvivableCapacity(ledger_, demands);
  }
  for (const LinkDemand& d : demands) {
    if (!ledger_.ValidWith(d.link, d.mean, d.variance, d.deterministic)) {
      return {util::ErrorCode::kFailedPrecondition,
              "placement violates condition (4) on link " +
                  std::to_string(d.link)};
    }
  }
  return util::Status::Ok();
}

util::Result<Placement> NetworkManager::AdmitPlacement(const Request& request,
                                                       Placement placement) {
  // Defense in depth: re-check shape, slots, and condition (4) before
  // committing.
  if (util::Status s = CheckPlacementShape(request, placement); !s.ok()) {
    return s;
  }
  const std::vector<LinkDemand> demands =
      ComputeLinkDemands(request, placement);
  if (util::Status s = CheckCapacity(placement, demands); !s.ok()) return s;
  for (const auto& [machine, count] : placement.MachineCounts()) {
    slots_.Occupy(machine, count);
  }
  for (const LinkDemand& d : demands) {
    if (d.domain != topology::kNoVertex) {
      ledger_.AddBackup(d.link, request.id(), d.domain, d.mean, d.variance,
                        d.deterministic);
    } else if (d.deterministic > 0) {
      ledger_.AddDeterministic(d.link, request.id(), d.deterministic);
    } else {
      ledger_.AddStochastic(d.link, request.id(), d.mean, d.variance);
    }
  }
  live_.emplace(request.id(), LiveRequest{request, placement});
  return placement;
}

void NetworkManager::RecordAdmissionDecision(
    const Request& request, std::string_view allocator_name, bool admitted,
    std::string_view reason, obs::CommitPath path,
    const std::vector<LinkDemand>* demands,
    const obs::DecisionRecord::StageLatencies& stages) const {
  if (!obs::DecisionsEnabled()) return;
  obs::DecisionRecord rec;
  rec.tenant_id = request.id();
  rec.outcome =
      admitted ? obs::DecisionOutcome::kAdmit : obs::DecisionOutcome::kReject;
  if (path == obs::CommitPath::kFaultEvict) {
    rec.outcome = obs::DecisionOutcome::kEvict;
  }
  rec.path = path;
  rec.set_allocator(allocator_name);
  rec.set_reason(reason);
  rec.stages = stages;
  if (demands != nullptr && !demands->empty()) {
    // Admitted (or validated) placement: the binding links are exactly the
    // links the placement's demand lands on; keep the k tightest by
    // condition-(4) slack at commit time.
    for (const LinkDemand& d : *demands) {
      rec.AddBindingLink(static_cast<int32_t>(d.link), ledger_.Slack(d.link));
    }
  } else {
    // Rejection (no placement to attribute): greedy tightest-child descent
    // from the root records the most-loaded root-to-leaf path — O(fanout
    // along one path), never an O(V) scan.
    topology::VertexId v = topo_->root();
    while (!topo_->is_machine(v)) {
      const std::vector<topology::VertexId>& kids = topo_->children(v);
      if (kids.empty()) break;
      topology::VertexId tightest = kids.front();
      double tightest_slack = ledger_.Slack(tightest);
      for (size_t i = 1; i < kids.size(); ++i) {
        const double s = ledger_.Slack(kids[i]);
        if (s < tightest_slack) {
          tightest = kids[i];
          tightest_slack = s;
        }
      }
      rec.AddBindingLink(static_cast<int32_t>(tightest), tightest_slack);
      v = tightest;
    }
  }
  obs::RecordDecision(rec);
}

util::Result<Placement> NetworkManager::Admit(const Request& request,
                                              const Allocator& allocator) {
  SVC_TRACE_SPAN("manager/admit");
  const bool metrics = obs::MetricsEnabled();
  const bool decisions = obs::DecisionsEnabled();
  const bool flight = obs::FlightRecorder::Global().enabled();
  const bool timed = metrics || decisions || flight;
  std::chrono::steady_clock::time_point start;
  if (metrics) BumpAllocatorCounter(allocator.name(), "attempt");
  if (timed) start = std::chrono::steady_clock::now();
  double alloc_us = 0;  // Allocate share of the end-to-end latency.
  // Records the outcome counter plus the allocation-latency histogram (the
  // paper's allocation-time comparison, measured end to end per Admit),
  // the decision-provenance record, and the flight recorder's SLO window.
  auto finish = [&](const char* outcome, bool admitted, const char* reason,
                    const std::vector<LinkDemand>* demands) {
    double micros = 0;
    if (timed) {
      micros = std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    }
    if (metrics) {
      BumpAllocatorCounter(allocator.name(), outcome);
      SVC_METRIC_HIST("manager/admit_latency_us", micros);
    }
    if (decisions) {
      obs::DecisionRecord::StageLatencies stages;
      stages.alloc_us = static_cast<float>(alloc_us);
      stages.apply_us = static_cast<float>(micros - alloc_us);
      RecordAdmissionDecision(request, allocator.name(), admitted, reason,
                              obs::CommitPath::kSerial, demands, stages);
    }
    if (flight) {
      obs::FlightRecorder::Global().ObserveAdmission(admitted, micros);
    }
  };
  if (live_.count(request.id())) {
    finish("fail", false, "duplicate-id", nullptr);
    return {util::ErrorCode::kFailedPrecondition,
            "request id already admitted: " + std::to_string(request.id())};
  }
  util::Result<Placement> result = allocator.Allocate(request, ledger_, slots_);
  if (timed) {
    alloc_us = std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  if (!result) {
    finish("fail", false, ReasonCode(result.status().code()), nullptr);
    return result;
  }
  if (options_.survivability && !result->survivable()) {
    // Survivable admission: the request is only admitted if a backup group
    // covering every failure domain of the chosen primary also fits.
    util::Result<Placement> protectable =
        PlanBackup(*topo_, request, std::move(*result), ledger_, slots_);
    if (!protectable) {
      if (metrics) SVC_METRIC_INC("manager/backup_plan_fail");
      finish("fail", false, ReasonCode(protectable.status().code()), nullptr);
      return protectable;
    }
    result = std::move(protectable);
  }
  // The demand recomputation below is only for provenance; AdmitPlacement
  // recomputes its own copy for the actual capacity re-check.
  std::vector<LinkDemand> demands;
  if (decisions) demands = ComputeLinkDemands(request, *result);
  util::Result<Placement> committed =
      AdmitPlacement(request, std::move(*result));
  if (!committed) {
    finish("fail", false, ReasonCode(committed.status().code()),
           decisions ? &demands : nullptr);
    // The allocator produced an invalid placement — surface it with the
    // allocator's name so the bug is attributable.
    return {util::ErrorCode::kFailedPrecondition,
            std::string(allocator.name()) + ": " +
                committed.status().message()};
  }
  finish("success", true, "ok", decisions ? &demands : nullptr);
  if (metrics && committed->subtree_root != topology::kNoVertex) {
    // Locality of the accepted placement (0 = a single machine's subtree).
    SVC_METRIC_HIST("manager/subtree_level",
                    static_cast<double>(topo_->level(committed->subtree_root)));
  }
  SVC_LOG(Debug) << "admitted " << request.Describe() << " via "
                 << allocator.name() << ": " << committed->Describe();
  return committed;
}

void NetworkManager::Release(RequestId id) {
  auto it = live_.find(id);
  if (it == live_.end()) {
    // Still a no-op (idempotent release keeps departure paths simple), but
    // loud: a double release usually means a bookkeeping bug upstream.
    SVC_LOG(Warning) << "Release of unknown request id " << id;
    SVC_METRIC_INC("manager/release_unknown");
    return;
  }
  ledger_.RemoveRequest(id);
  for (const auto& [machine, count] : it->second.placement.MachineCounts()) {
    slots_.Release(machine, count);
  }
  live_.erase(it);
}

bool NetworkManager::MachineBelow(topology::VertexId machine,
                                  topology::VertexId vertex) const {
  for (topology::VertexId v = machine; v != topo_->root();
       v = topo_->parent(v)) {
    if (v == vertex) return true;
  }
  return false;
}

util::Result<Placement> NetworkManager::TryPatch(const Request& request,
                                                 Placement placement,
                                                 topology::VertexId fault,
                                                 FaultKind kind) {
  // Which VMs did the fault strand?  Machine fault: VMs on down machines
  // (covers overlapping faults, not just `fault` itself).  Link fault: VMs
  // below the drained link — moving that whole side is what removes the
  // tenant's demand from the link.
  std::vector<int> lost;
  for (int vm = 0; vm < request.n(); ++vm) {
    const topology::VertexId machine = placement.vm_machine[vm];
    const bool stranded = kind == FaultKind::kMachine
                              ? !slots_.machine_up(machine)
                              : MachineBelow(machine, fault);
    if (stranded) lost.push_back(vm);
  }
  if (lost.empty()) return placement;

  // Candidate machines: up, with free slots, and (for a link fault) not
  // below the drained link again.  `local_free` tracks slots consumed by
  // earlier patched VMs; manager state is untouched until AdmitPlacement.
  std::unordered_map<topology::VertexId, int> local_free;
  for (topology::VertexId machine : topo_->machines()) {
    if (kind == FaultKind::kLink && MachineBelow(machine, fault)) continue;
    const int free = slots_.free_slots(machine);
    if (free > 0) local_free.emplace(machine, free);
  }

  const bool det = request.deterministic();
  for (int vm : lost) {
    const stats::Normal& d = request.demand(vm);
    const double mean_add = det ? 0 : d.mean;
    const double var_add = det ? 0 : d.variance;
    const double det_add = det ? d.mean : 0;
    // Greedy score: marginal occupancy of the target machine's uplink if
    // this VM's demand landed there alone.  Cheap, deterministic
    // (lowest-id tie-break), and only a heuristic — the real Lemma-1 split
    // demands are recomputed by AdmitPlacement's re-validation.
    topology::VertexId best = topology::kNoVertex;
    double best_score = std::numeric_limits<double>::infinity();
    for (topology::VertexId machine : topo_->machines()) {
      auto it = local_free.find(machine);
      if (it == local_free.end() || it->second <= 0) continue;
      const double score =
          ledger_.OccupancyWith(machine, mean_add, var_add, det_add);
      if (score < best_score ||
          (score == best_score && machine < best)) {
        best = machine;
        best_score = score;
      }
    }
    if (best == topology::kNoVertex) {
      return {util::ErrorCode::kInfeasible,
              "patch: no surviving machine with a free slot"};
    }
    placement.vm_machine[vm] = best;
    --local_free[best];
  }

  placement.subtree_root = topo_->LowestCommonAncestor(placement.vm_machine);
  placement.max_occupancy = std::numeric_limits<double>::quiet_NaN();
  return placement;
}

util::Result<Placement> NetworkManager::TrySwitchover(
    const Request& request, const Placement& placement,
    topology::VertexId fault, FaultKind kind) const {
  if (!placement.survivable()) {
    return {util::ErrorCode::kInfeasible, "tenant has no backup group"};
  }
  const topology::VertexId backup = placement.backup_machine;
  if (!slots_.machine_up(backup) ||
      (kind == FaultKind::kLink && MachineBelow(backup, fault))) {
    return {util::ErrorCode::kInfeasible,
            "backup machine is down or behind the failed link"};
  }
  // VMs lost to the fault (same stranding rule as TryPatch).  The backup
  // group covers exactly one failure domain; overlapping faults that
  // strand VMs of several machines fall back to reactive recovery.
  std::vector<int> lost;
  topology::VertexId domain = topology::kNoVertex;
  for (int vm = 0; vm < request.n(); ++vm) {
    const topology::VertexId machine = placement.vm_machine[vm];
    const bool stranded = kind == FaultKind::kMachine
                              ? !slots_.machine_up(machine)
                              : MachineBelow(machine, fault);
    if (!stranded) continue;
    if (domain == topology::kNoVertex) domain = machine;
    if (machine != domain) {
      return {util::ErrorCode::kInfeasible,
              "lost VMs span multiple failure domains"};
    }
    lost.push_back(vm);
  }
  if (lost.empty()) return placement;
  if (static_cast<int>(lost.size()) > placement.backup_slots) {
    return {util::ErrorCode::kInfeasible, "backup group too small"};
  }
  Placement switched = placement;
  for (int vm : lost) switched.vm_machine[vm] = backup;
  switched.backup_machine = topology::kNoVertex;
  switched.backup_slots = 0;
  switched.subtree_root = topo_->LowestCommonAncestor(switched.vm_machine);
  switched.max_occupancy = std::numeric_limits<double>::quiet_NaN();
  // Re-protect the switched placement when a fresh backup fits; activate
  // unprotected otherwise (activation must not fail just because the
  // NEXT failure could not also be covered).
  if (options_.survivability) {
    util::Result<Placement> reprotected =
        PlanBackup(*topo_, request, switched, ledger_, slots_);
    if (reprotected) return *reprotected;
  }
  return switched;
}

util::Result<FaultOutcome> NetworkManager::HandleFault(
    FaultKind kind, topology::VertexId vertex, RecoveryPolicy policy,
    const Allocator& allocator) {
  SVC_TRACE_SPAN("manager/handle_fault");
  if (vertex < 0 || vertex >= topo_->num_vertices()) {
    return {util::ErrorCode::kInvalidArgument,
            "fault vertex out of range: " + std::to_string(vertex)};
  }
  if (vertex == topo_->root()) {
    return {util::ErrorCode::kInvalidArgument,
            "vertex " + std::to_string(vertex) +
                " is the root and has no uplink to fail"};
  }
  if (kind == FaultKind::kMachine && !topo_->is_machine(vertex)) {
    return {util::ErrorCode::kInvalidArgument,
            "machine fault on non-machine vertex " + std::to_string(vertex)};
  }
  if (failed_.count(vertex)) {
    return {util::ErrorCode::kFailedPrecondition,
            "vertex already failed: " + std::to_string(vertex)};
  }
  const bool metrics = obs::MetricsEnabled();
  std::chrono::steady_clock::time_point start;
  if (metrics) start = std::chrono::steady_clock::now();

  // Drain FIRST: once capacity is 0 (and, for machines, free slots are 0),
  // no allocator or patch below can re-land on the failed element, so each
  // intermediate state already satisfies StateValid().
  failed_.emplace(vertex, kind);
  ledger_.SetLinkState(vertex, false);
  if (kind == FaultKind::kMachine) slots_.SetMachineState(vertex, false);

  // Affected tenants.  A machine fault strands every tenant with a VM on
  // the machine (even single-machine tenants with no uplink demand); a
  // link fault strands exactly the tenants with demand records on it —
  // tenants entirely below keep all their traffic internal and survive.
  std::vector<RequestId> affected;
  if (kind == FaultKind::kMachine) {
    for (const auto& [id, live] : live_) {
      for (topology::VertexId machine : live.placement.vm_machine) {
        if (machine == vertex) {
          affected.push_back(id);
          break;
        }
      }
    }
    std::sort(affected.begin(), affected.end());
  } else {
    affected = ledger_.AffectedRequests(vertex);
  }

  // Phase 1: release every affected tenant, so phase 2's recoveries see
  // the union of their freed capacity (re-admission in ascending id order
  // keeps the whole procedure deterministic).
  std::vector<LiveRequest> stranded;
  stranded.reserve(affected.size());
  for (RequestId id : affected) {
    auto it = live_.find(id);
    assert(it != live_.end());
    stranded.push_back(it->second);
    Release(id);
  }

  FaultOutcome outcome;
  outcome.vertex = vertex;
  outcome.kind = kind;
  outcome.tenants.reserve(stranded.size());
  for (LiveRequest& live : stranded) {
    TenantOutcome tenant;
    tenant.id = live.request.id();
    switch (policy) {
      case RecoveryPolicy::kEvict:
        tenant.evict_reason = EvictReason::kPolicy;
        break;
      case RecoveryPolicy::kReallocate: {
        if (Admit(live.request, allocator)) {
          tenant.recovered = true;
        } else {
          tenant.evict_reason = EvictReason::kReallocationFailed;
        }
        break;
      }
      case RecoveryPolicy::kPatch: {
        util::Result<Placement> patched = TryPatch(
            live.request, std::move(live.placement), vertex, kind);
        if (patched &&
            AdmitPlacement(live.request, std::move(*patched))) {
          tenant.recovered = true;
        } else {
          tenant.evict_reason = EvictReason::kPatchFailed;
        }
        break;
      }
      case RecoveryPolicy::kSwitchover: {
        // Activate the pre-reserved backup group.  The activation is
        // transactional — AdmitPlacement re-validates shape, slots and
        // condition (4) before anything is written — and for a single
        // backup-covered failure it cannot fail: the pre-fault worst-case
        // state already reserved this exact post-failure demand.
        util::Result<Placement> switched =
            TrySwitchover(live.request, live.placement, vertex, kind);
        if (switched && AdmitPlacement(live.request, std::move(*switched))) {
          tenant.recovered = true;
          tenant.switched_over = true;
          break;
        }
        // No covering backup (unprotected tenant, overlapping failures,
        // backup itself down): reactive reallocate fallback.
        if (Admit(live.request, allocator)) {
          tenant.recovered = true;
        } else {
          tenant.evict_reason = EvictReason::kReallocationFailed;
        }
        break;
      }
    }
    if (tenant.evict_reason != EvictReason::kNone &&
        obs::DecisionsEnabled()) {
      // Eviction provenance: the faulted element itself is the binding
      // link (drained capacity ⇒ slack pinned at -1).
      const std::vector<LinkDemand> fault_link{{vertex, 0, 0, 0}};
      obs::DecisionRecord::StageLatencies stages;
      RecordAdmissionDecision(live.request, allocator.name(),
                              /*admitted=*/false,
                              ToString(tenant.evict_reason),
                              obs::CommitPath::kFaultEvict, &fault_link,
                              stages);
    }
    outcome.tenants.push_back(tenant);
  }

  if (metrics) {
    SVC_METRIC_INC("fault/events");
    SVC_METRIC_ADD("fault/affected_tenants",
                   static_cast<int64_t>(outcome.tenants.size()));
    SVC_METRIC_ADD("fault/evictions", outcome.evicted());
    SVC_METRIC_ADD("fault/switchovers", outcome.switched());
    const double micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    SVC_METRIC_HIST("fault/recovery_latency_us", micros);
  }
  SVC_LOG(Debug) << "fault on vertex " << vertex << " ("
                 << (kind == FaultKind::kMachine ? "machine" : "link")
                 << ", policy " << ToString(policy) << "): "
                 << outcome.tenants.size() << " affected, "
                 << outcome.recovered() << " recovered, "
                 << outcome.evicted() << " evicted";
  if (obs::FlightRecorder::Global().enabled()) {
    // Single-threaded here, so freezing the decision/trace rings races
    // with nothing.
    if (!StateValid()) {
      char detail[96];
      std::snprintf(detail, sizeof detail, "vertex=%d post-fault", vertex);
      obs::FlightRecorder::Global().Trigger("state-invalid", detail);
    } else if (outcome.evicted() > 0) {
      char detail[96];
      std::snprintf(detail, sizeof detail,
                    "vertex=%d kind=%s affected=%zu evicted=%d", vertex,
                    kind == FaultKind::kMachine ? "machine" : "link",
                    outcome.tenants.size(), outcome.evicted());
      obs::FlightRecorder::Global().Trigger("fault", detail);
    }
  }
  assert(StateValid());
  return outcome;
}

util::Status NetworkManager::HandleRecovery(topology::VertexId vertex) {
  SVC_TRACE_SPAN("manager/handle_recovery");
  auto it = failed_.find(vertex);
  if (it == failed_.end()) {
    return {util::ErrorCode::kFailedPrecondition,
            "vertex not failed: " + std::to_string(vertex)};
  }
  const bool machine = it->second == FaultKind::kMachine;
  ledger_.SetLinkState(vertex, true);
  if (machine) slots_.SetMachineState(vertex, true);
  failed_.erase(it);
  SVC_METRIC_INC("fault/recoveries");
  SVC_LOG(Debug) << "recovered vertex " << vertex;
  assert(StateValid());
  return util::Status::Ok();
}

util::Result<FaultOutcome> NetworkManager::DrainMachine(
    topology::VertexId machine, const Allocator& allocator) {
  SVC_TRACE_SPAN("manager/drain_machine");
  if (machine <= 0 || machine >= topo_->num_vertices() ||
      !topo_->is_machine(machine)) {
    return {util::ErrorCode::kInvalidArgument,
            "drain vertex is not a machine: " + std::to_string(machine)};
  }
  if (failed_.count(machine)) {
    return {util::ErrorCode::kFailedPrecondition,
            "vertex already failed: " + std::to_string(machine)};
  }
  // Cordon FIRST: free slots read as 0, so no migration target or
  // re-protection below can land back on this machine.  The uplink stays
  // up — tenants keep their bandwidth until their own move commits, which
  // is what makes a drain outage-free.
  slots_.SetMachineState(machine, false);

  // Tenants to move: anyone with a primary VM here, plus anyone whose
  // BACKUP group lives here (leaving it would silently void their coverage
  // once the machine goes down).
  std::vector<RequestId> affected;
  for (const auto& [id, live] : live_) {
    if (live.placement.backup_machine == machine) {
      affected.push_back(id);
      continue;
    }
    for (topology::VertexId m : live.placement.vm_machine) {
      if (m == machine) {
        affected.push_back(id);
        break;
      }
    }
  }
  std::sort(affected.begin(), affected.end());

  FaultOutcome outcome;
  outcome.vertex = machine;
  outcome.kind = FaultKind::kMachine;
  outcome.tenants.reserve(affected.size());
  for (RequestId id : affected) {
    auto it = live_.find(id);
    assert(it != live_.end());
    LiveRequest live = it->second;
    Release(id);
    TenantOutcome tenant;
    tenant.id = id;
    bool done = false;
    // Preferred move: activate the pre-reserved backup (primary VMs on the
    // drained machine read as stranded because the cordon closed it).
    util::Result<Placement> switched =
        TrySwitchover(live.request, live.placement, machine,
                      FaultKind::kMachine);
    if (switched && !std::equal(switched->vm_machine.begin(),
                                switched->vm_machine.end(),
                                live.placement.vm_machine.begin()) &&
        AdmitPlacement(live.request, *switched)) {
      tenant.recovered = true;
      tenant.switched_over = true;
      done = true;
    }
    if (!done && live.placement.backup_machine == machine) {
      // Backup-only occupant: keep the primary placement, re-home the
      // backup group elsewhere.
      Placement keep = live.placement;
      keep.backup_machine = topology::kNoVertex;
      keep.backup_slots = 0;
      util::Result<Placement> replanned =
          PlanBackup(*topo_, live.request, std::move(keep), ledger_, slots_);
      if (replanned && AdmitPlacement(live.request, std::move(*replanned))) {
        tenant.recovered = true;
        done = true;
      }
    }
    if (!done && Admit(live.request, allocator)) {
      tenant.recovered = true;
      done = true;
    }
    if (!done) {
      // Nowhere to go: restore the tenant in place (reopen the machine
      // just long enough to re-admit the original placement) and report it
      // unrecovered with no evict reason — the operator decides whether to
      // proceed with the teardown, which would then strand it.
      slots_.SetMachineState(machine, true);
      if (!AdmitPlacement(live.request, live.placement)) {
        tenant.evict_reason = EvictReason::kReallocationFailed;
      }
      slots_.SetMachineState(machine, false);
    }
    outcome.tenants.push_back(tenant);
  }

  if (obs::MetricsEnabled()) {
    SVC_METRIC_INC("fault/drains");
    SVC_METRIC_ADD("fault/drain_migrated", outcome.recovered());
    SVC_METRIC_ADD("fault/switchovers", outcome.switched());
  }
  SVC_LOG(Debug) << "drained machine " << machine << ": "
                 << outcome.tenants.size() << " tenants, "
                 << outcome.recovered() << " migrated ("
                 << outcome.switched() << " via backup), "
                 << outcome.evicted() << " evicted";
  assert(StateValid());
  return outcome;
}

util::Status NetworkManager::UncordonMachine(topology::VertexId machine) {
  if (machine <= 0 || machine >= topo_->num_vertices() ||
      !topo_->is_machine(machine)) {
    return {util::ErrorCode::kInvalidArgument,
            "uncordon vertex is not a machine: " + std::to_string(machine)};
  }
  if (failed_.count(machine)) {
    return {util::ErrorCode::kFailedPrecondition,
            "machine is failed, not cordoned: " + std::to_string(machine)};
  }
  if (slots_.machine_up(machine)) return util::Status::Ok();
  slots_.SetMachineState(machine, true);
  return util::Status::Ok();
}

const Placement* NetworkManager::placement_of(RequestId id) const {
  auto it = live_.find(id);
  return it == live_.end() ? nullptr : &it->second.placement;
}

const Request* NetworkManager::request_of(RequestId id) const {
  auto it = live_.find(id);
  return it == live_.end() ? nullptr : &it->second.request;
}

void NetworkManager::ForEachLive(
    const std::function<void(const Request&, const Placement&)>& visit)
    const {
  for (const auto& [id, live] : live_) {
    visit(live.request, live.placement);
  }
}

bool NetworkManager::StateValid() const {
  for (topology::VertexId v = 1; v < topo_->num_vertices(); ++v) {
    if (!ledger_.ValidWith(v, 0, 0, 0)) return false;
  }
  return true;
}

}  // namespace svc::core
