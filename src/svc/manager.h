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

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/ledger_view.h"
#include "net/link_ledger.h"
#include "net/shard_map.h"
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

// --- Concurrent admission pipeline (docs/CONCURRENCY.md) ---

class NetworkManager;

// Epoch-stamped immutable snapshot of the books an allocator reads: the
// ledger's per-link aggregates (net::LedgerView) plus a copy of the
// free-slot map.  Captured on the pipeline's commit thread, read by any
// number of speculation workers without locks.
struct AdmissionSnapshot {
  AdmissionSnapshot(const topology::Topology& topo, double epsilon);

  // Re-captures the manager's current aggregates and epoch.  Reuses the
  // snapshot's storage; must not run concurrently with readers of this
  // same snapshot (publish a fresh one instead).  On a sharded manager the
  // caller must have drained every shard commit queue (the rows of every
  // bucket are read).
  void Capture(const NetworkManager& manager);

  // Sharded partial re-capture: copies only the buckets whose epoch moved
  // since this snapshot's own capture (StaleBuckets), leaving the others'
  // rows as-is — by the per-bucket epoch invariant they are still equal to
  // the books'.  The caller must have drained the stale buckets' commit
  // queues.  Falls back to a full Capture when the manager is unsharded or
  // the bucket layout changed.
  void CaptureStale(const NetworkManager& manager);

  // Buckets whose epoch differs from this snapshot's recorded one (the
  // re-capture set), as a bit mask.
  uint64_t StaleBuckets(const NetworkManager& manager) const;

  uint64_t epoch() const { return view.epoch(); }

  net::LedgerView view;
  SlotMap slots;
  // Per-bucket epochs at capture time (one entry when unsharded).
  std::vector<uint64_t> shard_epochs;
};

// One speculative admission outcome: what the allocator decided against a
// snapshot, plus everything the commit stage needs to validate that
// decision against the authoritative books — the induced per-link demands
// and the epoch the speculation read.
struct AdmissionProposal {
  bool ok = false;       // the allocator returned a placement
  Placement placement;   // valid when ok
  util::Status status = util::Status::Ok();  // allocator error when !ok
  std::vector<LinkDemand> demands;  // induced demands of `placement`
  uint64_t epoch = 0;    // snapshot epoch the speculation read
  // Buckets the placement writes (demand links + host machines' shards);
  // bit 0 when unsharded.  The conflict-aware scheduler routes single-shard
  // masks to that shard's commit queue.
  uint64_t touched_mask = 1;
  // Buckets whose freshness the decision depends on: touched_mask plus the
  // core stripe (the zero-demand links on the hosts' root paths live in the
  // hosts' own buckets or the core).  Used by the monotone-placements
  // shard-freshness fast path.
  uint64_t fresh_mask = 1;
  // Per-bucket epochs the speculation read (filled for ok proposals).
  std::vector<uint64_t> shard_epochs;
  // For !ok proposals: whether this rejection is monotone in load — i.e.
  // guaranteed to repeat against any MORE-loaded books — so the pipeline may
  // absorb it without a serial re-run.  Allocator rejections inherit
  // Allocator::monotone_rejections(); survivable backup-planning rejections
  // are never monotone (a different primary on fuller books can rescue the
  // backup).
  bool rejection_monotone = false;
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
  // The epoch/in-flight atomics are copied by value: moving a manager with
  // proposals in flight is not supported.
  NetworkManager(NetworkManager&& other) noexcept
      : topo_(other.topo_),
        ledger_(std::move(other.ledger_)),
        slots_(std::move(other.slots_)),
        live_(std::move(other.live_)),
        failed_(std::move(other.failed_)),
        shards_(std::move(other.shards_)),
        shard_epochs_(std::move(other.shard_epochs_)),
        epoch_(other.epoch_.load(std::memory_order_acquire)),
        in_flight_(other.in_flight_.load(std::memory_order_acquire)),
        options_(other.options_) {
    assert(in_flight_.load(std::memory_order_relaxed) == 0);
  }

  const topology::Topology& topo() const { return *topo_; }
  const net::LinkLedger& ledger() const { return ledger_; }
  const SlotMap& slots() const { return slots_; }
  double epsilon() const { return ledger_.epsilon(); }

  // Admission-wide policy knobs.  Changing them does not touch committed
  // state; with a pipeline running, change only between windows (the knobs
  // are read during Propose/Admit).
  void set_admission_options(const AdmissionOptions& options) {
    options_ = options;
  }
  const AdmissionOptions& admission_options() const { return options_; }

  // Runs the allocator and, on success, commits the placement.  Errors pass
  // through from the allocator; a placement that fails re-validation is
  // reported as kFailedPrecondition (an allocator bug, surfaced loudly).
  // `decision_path` tags the decision-provenance record this call publishes
  // when obs::DecisionsEnabled() — kSerial for direct callers; the pipeline
  // passes kStaleRerun for its drained serial re-runs.
  util::Result<Placement> Admit(
      const Request& request, const Allocator& allocator,
      obs::CommitPath decision_path = obs::CommitPath::kSerial);

  // Validates and commits an externally produced placement (snapshot
  // restore, external placement services).  Same checks as Admit's
  // re-validation; on any failure nothing is committed.
  util::Result<Placement> AdmitPlacement(const Request& request,
                                         Placement placement);

  // Releases every slot and demand record of the request.  Unknown ids are
  // ignored (idempotent), but logged and counted under
  // `manager/release_unknown` so double-release bugs surface.
  void Release(RequestId id);

  // --- Sharding (docs/CONCURRENCY.md "Sharded fabric commit") ---

  // Installs an aggregation-level shard partition: per-bucket touched-link
  // bookkeeping in the ledger plus one epoch per bucket here, enabling the
  // pipeline's per-shard commit workers and scoped invalidation.  Requires
  // a quiesced pipeline (no in-flight proposals).  nullptr reverts to the
  // single-bucket layout.  Existing snapshots become stale (global bump).
  void ConfigureSharding(std::shared_ptr<const net::ShardMap> shards);
  const net::ShardMap* shard_map() const { return shards_.get(); }
  int num_shards() const { return shards_ ? shards_->num_shards() : 1; }

  // Per-bucket epochs (shards plus core stripe; one entry when unsharded).
  // Commit-thread state, like the books themselves: each entry records the
  // global epoch at the bucket's last mutation, so a bucket whose entry is
  // unchanged has bit-identical rows to any snapshot of it at that epoch.
  const std::vector<uint64_t>& shard_epochs() const { return shard_epochs_; }

  // Buckets a placement writes: its demand links' buckets plus its host
  // machines' shards.  Bit 0 when unsharded.
  uint64_t TouchedBuckets(const Placement& placement,
                          const std::vector<LinkDemand>& demands) const;

  // True iff every bucket in `mask` has the same epoch now as `epochs`
  // recorded (a layout mismatch counts as stale).
  bool BucketsFresh(uint64_t mask, const std::vector<uint64_t>& epochs) const;

  // --- Split commit (the pipeline's per-shard commit workers) ---
  //
  // A single-shard commit is split in two so the apply half can run on the
  // shard's worker while the sequencer moves on: PrepareShardCommit (commit
  // thread) does the live_-dependent half — duplicate-id/shape check, live
  // registration, epoch bumps — establishing the commit's place in request
  // order; ApplyShardCommit (any thread) re-validates capacity on exactly
  // the touched links/machines and writes the rows.  ApplyShardCommit is
  // safe concurrently with other Apply calls whose touched buckets are
  // disjoint, and with commit-thread work that stays off those buckets'
  // rows.  If the apply half fails (an allocator bug: epoch-fresh yet
  // invalid), nothing was written and the sequencer must undo the
  // registration with AbandonShardCommit.
  util::Status PrepareShardCommit(const Request& request,
                                  const AdmissionProposal& proposal);
  util::Result<Placement> ApplyShardCommit(const Request& request,
                                           AdmissionProposal&& proposal);
  void AbandonShardCommit(RequestId id);

  // --- Propose / commit (the concurrent admission pipeline) ---

  // Monotone version of the authoritative books, bumped by every mutation
  // (commit, release, fault, recovery).  A proposal whose epoch still
  // equals epoch() at commit time speculated against fresh state, so its
  // decision is exactly what a serial Admit would have produced.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Stage-2 speculation: runs `allocator` against the snapshot and derives
  // the induced link demands.  Writes nothing — safe to call from any
  // thread, concurrently with other Propose calls and with commit-thread
  // mutations.  Does NOT check for duplicate ids (live_ belongs to the
  // commit thread); CommitProposal catches those.
  AdmissionProposal Propose(const Request& request, const Allocator& allocator,
                            const AdmissionSnapshot& snapshot) const;

  // Stage-3 commit: re-validates the proposal against the authoritative
  // books — duplicate id, placement shape, slot counts, and condition (4)
  // on exactly the links the placement touches — and commits on success.
  // A kFailedPrecondition means the proposal no longer fits: a conflict
  // when its epoch is stale, an allocator bug when it is current.
  util::Result<Placement> CommitProposal(const Request& request,
                                         AdmissionProposal&& proposal);

  // In-flight speculation registration.  While the count is non-zero the
  // commit thread may keep committing, but checkpointing (snapshot
  // save/restore) and the fault-plane entry points refuse with
  // kFailedPrecondition — the pipeline must quiesce first.  Begin/End
  // pairing is the pipeline's responsibility.
  void BeginProposal() { in_flight_.fetch_add(1, std::memory_order_acq_rel); }
  void EndProposal() { in_flight_.fetch_sub(1, std::memory_order_acq_rel); }
  int64_t InFlightProposals() const {
    return in_flight_.load(std::memory_order_acquire);
  }

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
  // guards (range / kind / already failed / pipeline not quiesced).
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

  // Decision provenance (docs/OBSERVABILITY.md "Decision records"): builds
  // and publishes one obs::DecisionRecord for an admission decision.  When
  // the placement is known, binding links are the `demands` links with the
  // lowest condition-(4) slack evaluated on `books` at call time; for
  // rejections (`demands` null or empty) the record instead carries the
  // most-loaded root-to-leaf path of `books` — a greedy descent picking
  // the tightest child link per level, O(fanout along one path), so
  // recording a rejection never scans the fabric.  `books` is the ledger
  // the decision was taken against: the authoritative one for serial
  // admits and commits, the speculation snapshot's for pipeline
  // rejections (reading the authoritative rows there could race shard
  // appliers).  No-op unless obs::DecisionsEnabled().
  void RecordAdmissionDecision(
      const Request& request, std::string_view allocator_name, bool admitted,
      std::string_view reason, obs::CommitPath path, int shard,
      uint64_t epoch_delta, const net::LinkLedger& books,
      const std::vector<LinkDemand>* demands,
      const obs::DecisionRecord::StageLatencies& stages) const;

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
  // Applies a fully validated placement: occupies slots, writes demand
  // records, registers the live tenant, bumps the touched buckets' epochs.
  void CommitPrepared(const Request& request, const Placement& placement,
                      const std::vector<LinkDemand>& demands);
  // Advances the global epoch and stamps every bucket in `mask` with the
  // new value — the scoped invalidation that keeps speculations against
  // untouched shards fresh.
  void BumpBuckets(uint64_t mask);
  void BumpEpoch() { BumpBuckets(~uint64_t{0}); }

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
  // Shard partition (nullptr = unsharded) and per-bucket epochs; see
  // shard_epochs().  Written only on the commit thread.
  std::shared_ptr<const net::ShardMap> shards_;
  std::vector<uint64_t> shard_epochs_{0};
  // Books version + speculation registration (see epoch()/BeginProposal).
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t> in_flight_{0};
  AdmissionOptions options_;
};

}  // namespace svc::core
