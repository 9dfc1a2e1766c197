// NetworkManager: the paper's admission-control component.
//
// "A network manager, upon receiving a tenant request, performs admission
// control and VM allocation in the datacenter with physical links satisfying
// the bandwidth requirements in terms of the probabilistic constraint (1)."
//
// The manager owns the authoritative datacenter state (LinkLedger +
// SlotMap), delegates placement search to an Allocator, re-validates the
// returned placement (defense in depth against allocator bugs), and commits
// it atomically: VM slots are occupied and per-link demand records are
// written in one step, and Release() undoes exactly that step.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/link_ledger.h"
#include "obs/decision_log.h"
#include "svc/allocator.h"
#include "svc/placement.h"
#include "svc/request.h"
#include "svc/slot_map.h"
#include "util/result.h"

namespace svc::core {

// One link demand a committed request induces.
struct LinkDemand {
  topology::VertexId link;
  double mean;         // stochastic mean (0 for deterministic requests)
  double variance;     // stochastic variance (0 for deterministic requests)
  double deterministic;  // rate-limited reservation (0 for stochastic)
  // kNoVertex: an always-on primary demand.  Otherwise a shared-backup
  // demand active only in the post-failure state of this machine
  // (docs/ROBUSTNESS.md "Survivability").
  topology::VertexId domain = topology::kNoVertex;
};

// Admission-wide policy knobs (NetworkManager::set_admission_options).
struct AdmissionOptions {
  // Survivable admission: every admitted placement must carry a backup slot
  // group plus shared backup bandwidth covering the failure of any single
  // primary machine; requests for which no backup fits are rejected.
  bool survivability = false;
};

// --- Fault plane ---

// What physically failed.  A machine fault takes the machine's VM slots
// and its uplink down together; a link fault takes only the uplink of the
// named vertex down (the subtree below keeps its internal connectivity).
enum class FaultKind { kMachine, kLink };

// What the manager does with tenants stranded by a fault.
enum class RecoveryPolicy {
  kReallocate,  // release and re-admit the whole tenant via the allocator
  kPatch,       // keep surviving VMs, re-place only the lost ones
  kEvict,       // release and do not re-admit
  kSwitchover,  // activate the tenant's pre-reserved backup group; falls
                // back to kReallocate when no backup covers the fault
};

// Why a tenant was evicted during fault handling.
enum class EvictReason {
  kNone,                 // not evicted (recovered)
  kPolicy,               // RecoveryPolicy::kEvict
  kReallocationFailed,   // allocator found no valid placement post-fault
  kPatchFailed,          // no Lemma-1-consistent patch onto survivors
};

const char* ToString(RecoveryPolicy policy);
const char* ToString(EvictReason reason);
// Parses "reallocate" | "patch" | "evict" | "switchover"; false on unknown
// names.
bool ParseRecoveryPolicy(std::string_view name, RecoveryPolicy* out);

// Per-tenant outcome of one fault event.
struct TenantOutcome {
  net::RequestId id = 0;
  bool recovered = false;             // re-admitted (whole or patched)
  bool switched_over = false;         // recovered via its backup group
  EvictReason evict_reason = EvictReason::kNone;
};

// Everything one HandleFault call did, in deterministic (ascending
// request-id) order — replayable byte for byte under a fixed seed.
struct FaultOutcome {
  topology::VertexId vertex = topology::kNoVertex;
  FaultKind kind = FaultKind::kLink;
  std::vector<TenantOutcome> tenants;

  int recovered() const;
  int evicted() const;
  int switched() const;
};

class NetworkManager {
 public:
  NetworkManager(const topology::Topology& topo, double epsilon);

  // Movable (benchmarks build a pre-loaded manager and return it by value).
  NetworkManager(NetworkManager&&) noexcept = default;

  const topology::Topology& topo() const { return *topo_; }
  const net::LinkLedger& ledger() const { return ledger_; }
  const SlotMap& slots() const { return slots_; }
  double epsilon() const { return ledger_.epsilon(); }

  // Admission-wide policy knobs.  Changing them does not touch committed
  // state; the next Admit reads them.
  void set_admission_options(const AdmissionOptions& options) {
    options_ = options;
  }
  const AdmissionOptions& admission_options() const { return options_; }

  // Runs the allocator and, on success, commits the placement.  Errors pass
  // through from the allocator; a placement that fails re-validation is
  // reported as kFailedPrecondition (an allocator bug, surfaced loudly).
  util::Result<Placement> Admit(const Request& request,
                                const Allocator& allocator);

  // Validates and commits an externally produced placement (snapshot
  // restore, external placement services).  Same checks as Admit's
  // re-validation; on any failure nothing is committed.
  util::Result<Placement> AdmitPlacement(const Request& request,
                                         Placement placement);

  // Releases every slot and demand record of the request.  Unknown ids are
  // ignored (idempotent), but logged and counted under
  // `manager/release_unknown` so double-release bugs surface.
  void Release(RequestId id);

  // --- Fault plane ---

  // Takes the element at `vertex` down, releases every affected tenant
  // atomically (all releases precede all recoveries, so recovery sees the
  // full freed capacity), then drives `policy` per tenant in ascending
  // request-id order.  StateValid() holds on return — and at every point
  // in between, because the element is drained before anything else
  // happens, so no re-admission can land on it.  Errors: vertex out of
  // range / not a machine for kMachine / already failed.
  util::Result<FaultOutcome> HandleFault(FaultKind kind,
                                         topology::VertexId vertex,
                                         RecoveryPolicy policy,
                                         const Allocator& allocator);

  // Brings a failed element back up (capacity and, for machines, VM slots
  // are restored).  Surviving tenants are untouched; freed capacity simply
  // becomes admissible again.  Error if the vertex is not currently failed.
  util::Status HandleRecovery(topology::VertexId vertex);

  // Planned drain: cordons `machine` (slots close, link stays up — no
  // outage) and migrates its tenants off in ascending request-id order,
  // preferring a backup switchover when one covers the machine, else a full
  // reallocation.  A tenant that can move nowhere is restored in place and
  // reported unrecovered with EvictReason::kNone — the caller decides
  // whether to proceed with the teardown (which then strands it).  The
  // machine stays cordoned on return; follow with HandleFault to take it
  // down or UncordonMachine to reopen it.  Errors mirror HandleFault's
  // guards (range / kind / already failed).
  util::Result<FaultOutcome> DrainMachine(topology::VertexId machine,
                                          const Allocator& allocator);

  // Reopens a machine cordoned by DrainMachine (no-op if it is open; error
  // if it is actually failed).
  util::Status UncordonMachine(topology::VertexId machine);

  // Whether `vertex` is currently failed (as a machine or a link).
  bool IsFailed(topology::VertexId vertex) const {
    return failed_.count(vertex) > 0;
  }
  // Currently-failed vertices with their kinds, ascending by vertex id.
  const std::map<topology::VertexId, FaultKind>& Faults() const {
    return failed_;
  }

  bool IsLive(RequestId id) const { return live_.count(id) > 0; }
  size_t live_count() const { return live_.size(); }
  const Placement* placement_of(RequestId id) const;
  const Request* request_of(RequestId id) const;

  // Visits every live tenant (iteration order unspecified).  Used by the
  // snapshot writer and diagnostics.
  void ForEachLive(
      const std::function<void(const Request&, const Placement&)>& visit)
      const;

  // The per-link demands a placement induces — exposed for tests and for
  // callers that want to inspect a placement without committing it.
  std::vector<LinkDemand> ComputeLinkDemands(const Request& request,
                                             const Placement& placement) const;

  // True iff condition (4) holds on every link with no additions — the
  // global invariant Admit/Release maintain.
  bool StateValid() const;

  // Maximum occupancy ratio over all links (Fig. 9's sample statistic).
  double MaxOccupancy() const { return ledger_.MaxOccupancy(); }

 private:
  struct LiveRequest {
    Request request;
    Placement placement;
  };

  // Structural half of admission validation: duplicate id, VM count, and
  // machine-vertex validity.  Must pass before ComputeLinkDemands may run.
  util::Status CheckPlacementShape(const Request& request,
                                   const Placement& placement) const;
  // Capacity half: free slots per machine plus condition (4) on each
  // touched link.  `demands` must be ComputeLinkDemands(request, placement).
  util::Status CheckCapacity(const Placement& placement,
                             const std::vector<LinkDemand>& demands) const;
  // Decision provenance (docs/OBSERVABILITY.md "Decision records"): builds
  // and publishes one obs::DecisionRecord for an admission decision.  When
  // the placement is known, binding links are the `demands` links with the
  // lowest condition-(4) slack at call time; for rejections (`demands` null
  // or empty) the record instead carries the most-loaded root-to-leaf path
  // — a greedy descent picking the tightest child link per level,
  // O(fanout along one path), so recording a rejection never scans the
  // fabric.  No-op unless obs::DecisionsEnabled().
  void RecordAdmissionDecision(
      const Request& request, std::string_view allocator_name, bool admitted,
      std::string_view reason, obs::CommitPath path,
      const std::vector<LinkDemand>* demands,
      const obs::DecisionRecord::StageLatencies& stages) const;

  // True iff `machine`'s path to the root passes through `vertex`.
  bool MachineBelow(topology::VertexId machine,
                    topology::VertexId vertex) const;

  // Patch recovery: re-places only the VMs lost to the fault (machines
  // down, or below a failed link) onto surviving machines, greedily
  // minimizing the target machine-uplink occupancy.  The returned placement
  // still goes through AdmitPlacement, which recomputes the
  // Lemma-1-consistent split demands and re-validates condition (4).
  util::Result<Placement> TryPatch(const Request& request, Placement placement,
                                   topology::VertexId fault, FaultKind kind);

  // Switchover recovery: moves the VMs lost to the fault onto the tenant's
  // pre-reserved backup group, then re-protects the switched placement with
  // a fresh backup when one fits (returned unprotected otherwise).  Errors
  // when the tenant has no backup, the backup itself is down or lost to the
  // same fault, or the lost VMs span more than one machine (a backup group
  // covers exactly one failure domain).
  util::Result<Placement> TrySwitchover(const Request& request,
                                        const Placement& placement,
                                        topology::VertexId fault,
                                        FaultKind kind) const;

  const topology::Topology* topo_;
  net::LinkLedger ledger_;
  SlotMap slots_;
  std::unordered_map<RequestId, LiveRequest> live_;
  // Fault-plane state; ordered so Faults() listings are deterministic.
  std::map<topology::VertexId, FaultKind> failed_;
  AdmissionOptions options_;
};

}  // namespace svc::core
