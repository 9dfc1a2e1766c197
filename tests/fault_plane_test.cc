// Fault plane: failure injection, survivable re-allocation, and recovery
// accounting.  Covers the ledger/slot-map fault state, the manager's
// HandleFault/HandleRecovery policies, the seeded schedule generator, and
// the engine's end-to-end replayability under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "net/link_ledger.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/fault_injector.h"
#include "sim/scenario.h"
#include "svc/homogeneous_search.h"
#include "svc/manager.h"
#include "svc/slot_map.h"
#include "topology/builders.h"
#include "workload/workload.h"

namespace svc {
namespace {

using core::EvictReason;
using core::FaultKind;
using core::NetworkManager;
using core::RecoveryPolicy;
using core::Request;

// The metrics registry's current value of counter `name` (0 if unset).
int64_t CounterValue(const std::string& name) {
  for (const auto& c : obs::Registry::Global().Collect().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// --- Ledger fault state ---

TEST(FaultLedger, SetLinkStateDrainsAndRestoresCapacity) {
  const topology::Topology topo = topology::BuildStar(4, 4, 1000);
  net::LinkLedger ledger(topo, 0.05);
  const topology::VertexId machine = topo.machines()[0];
  ASSERT_TRUE(ledger.link_up(machine));
  const double nominal = ledger.link(machine).capacity;
  EXPECT_GT(nominal, 0);

  ledger.SetLinkState(machine, false);
  EXPECT_FALSE(ledger.link_up(machine));
  EXPECT_EQ(ledger.link(machine).capacity, 0.0);
  // Idempotent.
  ledger.SetLinkState(machine, false);
  EXPECT_EQ(ledger.link(machine).capacity, 0.0);

  ledger.SetLinkState(machine, true);
  EXPECT_TRUE(ledger.link_up(machine));
  EXPECT_EQ(ledger.link(machine).capacity, nominal);
}

TEST(FaultLedger, DrainedLinkOccupancyAndValidity) {
  const topology::Topology topo = topology::BuildStar(4, 4, 1000);
  net::LinkLedger ledger(topo, 0.05);
  const topology::VertexId v = topo.machines()[0];
  ledger.SetLinkState(v, false);
  // Empty drained link: vacuously valid, occupancy 0.
  EXPECT_TRUE(ledger.ValidWith(v, 0, 0, 0));
  EXPECT_EQ(ledger.Occupancy(v), 0.0);
  // Any candidate demand on it is infeasible (+inf occupancy).
  EXPECT_FALSE(ledger.ValidWith(v, 10, 4, 0));
  EXPECT_TRUE(std::isinf(ledger.OccupancyWith(v, 10, 4, 0)));
  EXPECT_TRUE(std::isinf(ledger.OccupancyWith(v, 0, 0, 10)));
  // The batch kernel agrees bit for bit with the scalar path.
  const double mean[3] = {0, 10, 0};
  const double var[3] = {0, 4, 0};
  const double det[3] = {0, 0, 10};
  double out[3];
  ledger.OccupancyWithBatch(v, mean, var, det, 3, out);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i], ledger.OccupancyWith(v, mean[i], var[i], det[i])) << i;
  }
}

TEST(FaultLedger, AffectedRequestsListsTenantsOnTheLink) {
  const topology::Topology topo = topology::BuildStar(4, 4, 1000);
  net::LinkLedger ledger(topo, 0.05);
  const topology::VertexId v = topo.machines()[0];
  ledger.AddStochastic(v, 7, 100, 25);
  ledger.AddStochastic(v, 3, 50, 9);
  ledger.AddStochastic(v, 7, 20, 4);  // second record of the same tenant
  ledger.AddDeterministic(v, 11, 30);
  const std::vector<net::RequestId> affected = ledger.AffectedRequests(v);
  EXPECT_EQ(affected, (std::vector<net::RequestId>{3, 7, 11}));
  EXPECT_TRUE(ledger.AffectedRequests(topo.machines()[1]).empty());
}

// --- SlotMap fault state ---

TEST(FaultSlotMap, FailedMachineAdvertisesZeroSlots) {
  const topology::Topology topo = topology::BuildStar(3, 4, 1000);
  core::SlotMap slots(topo);
  const topology::VertexId m = topo.machines()[0];
  const int total = slots.total_free();
  slots.Occupy(m, 1);
  slots.SetMachineState(m, false);
  EXPECT_FALSE(slots.machine_up(m));
  EXPECT_EQ(slots.free_slots(m), 0);
  EXPECT_EQ(slots.total_free(), total - 4);  // all 4 of m's slots invisible
  // A tenant stranded on the failed machine still releases its slot; the
  // slot becomes visible again only after recovery.
  slots.Release(m, 1);
  EXPECT_EQ(slots.free_slots(m), 0);
  EXPECT_EQ(slots.total_free(), total - 4);
  slots.SetMachineState(m, true);
  EXPECT_EQ(slots.free_slots(m), 4);
  EXPECT_EQ(slots.total_free(), total);
}

// --- Manager fault handling ---

TEST(FaultManager, MachineFaultEvictPolicyReleasesAffected) {
  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 8, 100, 30), alloc).ok());
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(2, 4, 100, 30), alloc).ok());
  ASSERT_TRUE(manager.StateValid());

  // Fail the machine hosting one of tenant 1's VMs.
  const topology::VertexId failed = manager.placement_of(1)->vm_machine[0];
  const auto outcome = manager.HandleFault(FaultKind::kMachine, failed,
                                           RecoveryPolicy::kEvict, alloc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToText();
  EXPECT_EQ(outcome->vertex, failed);
  EXPECT_TRUE(manager.IsFailed(failed));
  EXPECT_TRUE(manager.StateValid());
  EXPECT_EQ(outcome->recovered(), 0);
  for (const core::TenantOutcome& tenant : outcome->tenants) {
    EXPECT_EQ(tenant.evict_reason, EvictReason::kPolicy);
    EXPECT_FALSE(manager.IsLive(tenant.id));
  }
  // Tenant 1 certainly had a VM there.
  ASSERT_FALSE(outcome->tenants.empty());
  EXPECT_FALSE(manager.IsLive(1));

  // Double fault on the same element is rejected.
  const auto again = manager.HandleFault(FaultKind::kMachine, failed,
                                         RecoveryPolicy::kEvict, alloc);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), util::ErrorCode::kFailedPrecondition);

  // Recovery restores slots; recovering twice fails.
  ASSERT_TRUE(manager.HandleRecovery(failed).ok());
  EXPECT_FALSE(manager.IsFailed(failed));
  EXPECT_EQ(manager.slots().free_slots(failed), topo.vm_slots(failed));
  EXPECT_FALSE(manager.HandleRecovery(failed).ok());
  EXPECT_TRUE(manager.StateValid());
}

TEST(FaultManager, MachineFaultReallocateReadmitsOnSurvivors) {
  const topology::Topology topo = topology::BuildStar(5, 4, 10000);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 8, 100, 30), alloc).ok());
  const topology::VertexId failed = manager.placement_of(1)->vm_machine[0];
  const auto outcome = manager.HandleFault(
      FaultKind::kMachine, failed, RecoveryPolicy::kReallocate, alloc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToText();
  ASSERT_EQ(outcome->tenants.size(), 1u);
  EXPECT_TRUE(outcome->tenants[0].recovered);
  EXPECT_TRUE(manager.IsLive(1));
  EXPECT_TRUE(manager.StateValid());
  // The new placement avoids the failed machine entirely.
  for (topology::VertexId m : manager.placement_of(1)->vm_machine) {
    EXPECT_NE(m, failed);
  }
}

TEST(FaultManager, MachineFaultPatchKeepsSurvivingVms) {
  const topology::Topology topo = topology::BuildStar(5, 4, 10000);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 8, 100, 30), alloc).ok());
  const core::Placement before = *manager.placement_of(1);
  const topology::VertexId failed = before.vm_machine[0];
  const auto outcome = manager.HandleFault(FaultKind::kMachine, failed,
                                           RecoveryPolicy::kPatch, alloc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToText();
  ASSERT_EQ(outcome->tenants.size(), 1u);
  ASSERT_TRUE(outcome->tenants[0].recovered);
  EXPECT_TRUE(manager.StateValid());
  const core::Placement& after = *manager.placement_of(1);
  ASSERT_EQ(after.total_vms(), before.total_vms());
  for (int vm = 0; vm < before.total_vms(); ++vm) {
    if (before.vm_machine[vm] == failed) {
      EXPECT_NE(after.vm_machine[vm], failed) << "lost VM not moved";
    } else {
      // Surviving VMs keep their machines (the point of patching).
      EXPECT_EQ(after.vm_machine[vm], before.vm_machine[vm]);
    }
  }
}

TEST(FaultManager, LinkFaultSparesTenantsEntirelyBelow) {
  // Two racks of two machines; rack uplinks are fabric links.
  const topology::Topology topo = topology::BuildTwoTier(2, 2, 8, 1000, 1.0);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  // Tenant 1 fits entirely inside one rack (8 VMs, 16 slots per rack).
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 8, 50, 10), alloc).ok());
  const core::Placement p1 = *manager.placement_of(1);
  const topology::VertexId rack = topo.parent(p1.vm_machine[0]);
  for (topology::VertexId m : p1.vm_machine) {
    ASSERT_EQ(topo.parent(m), rack) << "tenant 1 should fit in one rack";
  }
  // Tenant 2 spans both racks (needs > 16 slots).
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(2, 20, 50, 10), alloc).ok());

  // Fail the uplink of tenant 1's rack: tenant 1 is entirely below it (no
  // demand on the link) and must survive untouched; tenant 2 crosses it.
  const auto outcome = manager.HandleFault(FaultKind::kLink, rack,
                                           RecoveryPolicy::kEvict, alloc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToText();
  EXPECT_TRUE(manager.StateValid());
  EXPECT_TRUE(manager.IsLive(1));
  EXPECT_FALSE(manager.IsLive(2));
  ASSERT_EQ(outcome->tenants.size(), 1u);
  EXPECT_EQ(outcome->tenants[0].id, 2);
}

TEST(FaultManager, ReallocationFailureYieldsReasonCode) {
  // One machine: failing it leaves nowhere to go.
  const topology::Topology topo = topology::BuildStar(1, 4, 10000);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 4, 100, 30), alloc).ok());
  const topology::VertexId failed = topo.machines()[0];
  const auto outcome = manager.HandleFault(
      FaultKind::kMachine, failed, RecoveryPolicy::kReallocate, alloc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToText();
  ASSERT_EQ(outcome->tenants.size(), 1u);
  EXPECT_FALSE(outcome->tenants[0].recovered);
  EXPECT_EQ(outcome->tenants[0].evict_reason,
            EvictReason::kReallocationFailed);
  EXPECT_TRUE(manager.StateValid());

  const auto patch_outcome = manager.HandleFault(
      FaultKind::kLink, failed, RecoveryPolicy::kPatch, alloc);
  ASSERT_FALSE(patch_outcome.ok());  // already failed
}

TEST(FaultManager, InvalidFaultArgumentsRejected) {
  const topology::Topology topo = topology::BuildTwoTier(2, 2, 4, 1000, 2.0);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  // Root / out of range.
  EXPECT_EQ(manager.HandleFault(FaultKind::kLink, topo.root(),
                                RecoveryPolicy::kEvict, alloc)
                .status()
                .code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_FALSE(manager
                   .HandleFault(FaultKind::kLink, topo.num_vertices(),
                                RecoveryPolicy::kEvict, alloc)
                   .ok());
  // Machine fault on a switch vertex.
  const topology::VertexId rack = topo.parent(topo.machines()[0]);
  EXPECT_EQ(manager.HandleFault(FaultKind::kMachine, rack,
                                RecoveryPolicy::kEvict, alloc)
                .status()
                .code(),
            util::ErrorCode::kInvalidArgument);
  // Recovery of a healthy vertex.
  EXPECT_EQ(manager.HandleRecovery(rack).code(),
            util::ErrorCode::kFailedPrecondition);
}

TEST(FaultManager, ReleaseUnknownBumpsCounter) {
  const topology::Topology topo = topology::BuildStar(2, 2, 1000);
  NetworkManager manager(topo, 0.05);
  obs::SetMetricsEnabled(true);
  const int64_t before = CounterValue("manager/release_unknown");
  manager.Release(424242);
  EXPECT_EQ(CounterValue("manager/release_unknown"), before + 1);
  obs::SetMetricsEnabled(false);
}

// --- Schedule generator ---

TEST(ReplicaSeed, DeterministicAndDistinct) {
  EXPECT_EQ(sim::ReplicaSeed(42, 0), sim::ReplicaSeed(42, 0));
  std::set<uint64_t> seen;
  for (uint64_t base : {0ull, 1ull, 42ull}) {
    for (uint64_t index = 0; index < 64; ++index) {
      seen.insert(sim::ReplicaSeed(base, index));
    }
  }
  // 3 bases x 64 indices, no collisions.
  EXPECT_EQ(seen.size(), 3u * 64u);
}

TEST(FaultSchedule, SameSeedSameBytesDifferentSeedDiffers) {
  const topology::Topology topo = topology::BuildTwoTier(4, 4, 4, 1000, 2.0);
  sim::FaultConfig config;
  config.machine_mtbf_seconds = 500;
  config.link_mtbf_seconds = 800;
  config.mttr_seconds = 100;
  config.horizon_seconds = 5000;
  config.seed = 42;
  const auto a = sim::BuildFaultSchedule(topo, config);
  const auto b = sim::BuildFaultSchedule(topo, config);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].vertex, b[i].vertex);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].fail, b[i].fail);
  }
  // Sorted by time; recoveries never precede their failure.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].time, a[i].time);
  }
  config.seed = 43;
  const auto c = sim::BuildFaultSchedule(topo, config);
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].time != c[i].time || a[i].vertex != c[i].vertex;
  }
  EXPECT_TRUE(differs);
}

// --- End-to-end engine replay ---

// One fault-churn run; `decisions` receives its decision stream (every
// admit, reject and eviction, in publication order).
sim::RunResult RunChurn(const topology::Topology& topo,
                        const core::Allocator& alloc, RecoveryPolicy policy,
                        std::vector<obs::DecisionRecord>* decisions) {
  sim::SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.allocator = &alloc;
  config.seed = 7;
  config.max_seconds = 20000;
  config.faults.machine_mtbf_seconds = 400;
  config.faults.link_mtbf_seconds = 900;
  config.faults.mttr_seconds = 80;
  config.faults.horizon_seconds = 4000;
  config.faults.seed = 11;
  config.faults.policy = policy;

  workload::WorkloadConfig wl;
  wl.num_jobs = 60;
  wl.mean_job_size = 5;
  wl.min_job_size = 2;
  wl.max_job_size = 10;
  wl.compute_time_lo = 50;
  wl.compute_time_hi = 150;
  wl.flow_time_lo = 20;
  wl.flow_time_hi = 60;
  workload::WorkloadGenerator gen(wl, 99);
  std::vector<workload::JobSpec> jobs =
      gen.GenerateOnline(0.7, topo.total_slots());

  obs::SetDecisionsEnabled(true);
  obs::ClearDecisions();
  sim::Engine engine(topo, config);
  sim::RunResult result = engine.RunOnline(std::move(jobs));
  *decisions = obs::CollectDecisions();
  obs::SetDecisionsEnabled(false);
  EXPECT_TRUE(engine.manager().StateValid());
  return result;
}

TEST(FaultEngine, FixedSeedReplaysBitIdentically) {
  const topology::Topology topo = topology::BuildTwoTier(4, 4, 4, 2000, 2.0);
  core::HomogeneousDpAllocator alloc;
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kReallocate, RecoveryPolicy::kPatch,
        RecoveryPolicy::kEvict}) {
    std::vector<obs::DecisionRecord> decisions_a, decisions_b;
    const sim::RunResult a = RunChurn(topo, alloc, policy, &decisions_a);
    const sim::RunResult b = RunChurn(topo, alloc, policy, &decisions_b);
    EXPECT_GT(a.faults_injected, 0) << "churn run injected no faults";
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.fault_recoveries, b.fault_recoveries);
    EXPECT_EQ(a.tenants_affected, b.tenants_affected);
    EXPECT_EQ(a.tenants_recovered, b.tenants_recovered);
    EXPECT_EQ(a.tenants_evicted, b.tenants_evicted);
    EXPECT_EQ(a.outage.outage_link_seconds, b.outage.outage_link_seconds);
    EXPECT_EQ(a.outage.busy_link_seconds, b.outage.busy_link_seconds);
    EXPECT_EQ(a.failure_outage.outage_link_seconds,
              b.failure_outage.outage_link_seconds);
    EXPECT_EQ(a.failure_outage.busy_link_seconds,
              b.failure_outage.busy_link_seconds);
    // Every completed job's record — arrival, start and finish times —
    // must match bit for bit, in completion order...
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (size_t i = 0; i < a.jobs.size(); ++i) {
      SCOPED_TRACE("job record " + std::to_string(i));
      EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
      EXPECT_EQ(a.jobs[i].arrival_time, b.jobs[i].arrival_time);
      EXPECT_EQ(a.jobs[i].start_time, b.jobs[i].start_time);
      EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time);
    }
    // ...and so must the decision stream: every admit, reject and fault
    // eviction, with its reason and binding links.
    ASSERT_EQ(decisions_a.size(), decisions_b.size());
    EXPECT_GE(decisions_a.size(),
              static_cast<size_t>(a.accepted + a.rejected));
    for (size_t i = 0; i < decisions_a.size(); ++i) {
      SCOPED_TRACE("decision " + std::to_string(i));
      const obs::DecisionRecord& x = decisions_a[i];
      const obs::DecisionRecord& y = decisions_b[i];
      EXPECT_EQ(x.tenant_id, y.tenant_id);
      EXPECT_EQ(x.outcome, y.outcome);
      EXPECT_EQ(x.path, y.path);
      EXPECT_STREQ(x.reason, y.reason);
      ASSERT_EQ(x.num_links, y.num_links);
      for (int l = 0; l < x.num_links; ++l) {
        EXPECT_EQ(x.links[l].link, y.links[l].link);
        EXPECT_EQ(x.links[l].slack, y.links[l].slack);
      }
    }
    // Epoch split is consistent: failure epochs are a subset of all ticks.
    EXPECT_LE(a.failure_outage.busy_link_seconds,
              a.outage.busy_link_seconds);
    EXPECT_GE(a.steady_outage().busy_link_seconds, 0);
    EXPECT_GE(a.steady_outage().outage_link_seconds, 0);
  }
}

TEST(FaultEngine, RunBatchAppliesScriptedFaults) {
  // The fault plane fires in batch mode too: a mid-run machine fault under
  // the evict policy releases the affected job, and the freed capacity
  // lets the FIFO continue.  Accounting mirrors RunOnline's.
  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  core::HomogeneousDpAllocator alloc;
  sim::SimConfig config;
  config.allocator = &alloc;
  config.seed = 5;
  config.max_seconds = 5000;
  config.faults.policy = RecoveryPolicy::kEvict;
  // Job 1 occupies the whole fabric with long flows; job 2 queues behind
  // it and can only start once job 1 is evicted by the fault.
  workload::JobSpec big;
  big.id = 1;
  big.size = 16;
  big.compute_time = 2000;
  big.rate_mean = 100;
  big.rate_stddev = 10;
  big.flow_mbits = 1e7;
  // Compute time long enough to keep the simulation alive through the
  // t=200 recovery (the engine stops when nothing is pending or active,
  // which may legitimately be mid-outage).
  workload::JobSpec small = big;
  small.id = 2;
  small.size = 2;
  small.compute_time = 200;
  small.flow_mbits = 100;
  config.faults.scripted.push_back(
      {100.0, topo.machines()[0], FaultKind::kMachine, /*fail=*/true});
  config.faults.scripted.push_back(
      {200.0, topo.machines()[0], FaultKind::kMachine, /*fail=*/false});
  sim::Engine engine(topo, config);
  const sim::RunResult result = engine.RunBatch({big, small});
  EXPECT_EQ(result.faults_injected, 1);
  EXPECT_EQ(result.fault_recoveries, 1);
  EXPECT_EQ(result.tenants_affected, 1);
  EXPECT_EQ(result.tenants_evicted, 1);
  // Job 2 completed after the fault freed the fabric.
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].id, 2);
  EXPECT_GE(result.jobs[0].start_time, 100.0);
  EXPECT_TRUE(engine.manager().StateValid());
  EXPECT_TRUE(engine.manager().Faults().empty());
}

TEST(FaultEngine, ScriptedFaultEvictsAndRecovers) {
  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  core::HomogeneousDpAllocator alloc;
  sim::SimConfig config;
  config.allocator = &alloc;
  config.seed = 3;
  config.max_seconds = 5000;
  config.faults.policy = RecoveryPolicy::kEvict;

  workload::JobSpec job;
  job.id = 1;
  job.size = 8;
  job.compute_time = 500;
  job.rate_mean = 100;
  job.rate_stddev = 20;
  job.flow_mbits = 1e7;  // long-lived flows: alive at the fault instant
  job.arrival_time = 0;
  // A second job arriving after the outage window keeps the simulation
  // alive through the recovery events (the engine stops once no job is
  // pending or active, which may legitimately be mid-outage).
  workload::JobSpec late = job;
  late.id = 2;
  late.arrival_time = 300;
  late.compute_time = 50;
  late.flow_mbits = 100;

  // Fail every machine once mid-run: with evict policy job 1 must go.
  for (topology::VertexId m : topo.machines()) {
    config.faults.scripted.push_back(
        {100.0, m, FaultKind::kMachine, /*fail=*/true});
    config.faults.scripted.push_back(
        {200.0, m, FaultKind::kMachine, /*fail=*/false});
  }
  sim::Engine engine2(topo, config);
  const sim::RunResult result = engine2.RunOnline({job, late});
  EXPECT_EQ(result.accepted, 2);
  EXPECT_EQ(result.faults_injected, 4);
  EXPECT_EQ(result.fault_recoveries, 4);
  EXPECT_EQ(result.tenants_evicted, 1);
  EXPECT_TRUE(engine2.manager().StateValid());
  EXPECT_TRUE(engine2.manager().Faults().empty());
}

// A fault due inside the tick in which a job finishes must not touch that
// job: both disciplines release the jobs that finished at an instant before
// they apply the fault events due then.  Jobs 1 and 2 share a machine; job
// 1 finishes at t = 100, and the machine fails at t = 99.5, which the
// engine applies at the t = 100 instant.  Only job 2 is still placed
// there, so it is the one tenant affected and evicted, and job 1 is
// released exactly once.
TEST(FaultEngine, FinishedJobIsReleasedBeforeTheTicksFault) {
  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  core::HomogeneousDpAllocator alloc;
  workload::JobSpec first;
  first.id = 1;
  first.size = 2;
  first.compute_time = 100;
  first.rate_mean = 100;
  first.rate_stddev = 0;
  first.flow_mbits = 10;
  workload::JobSpec second = first;
  second.id = 2;
  second.compute_time = 400;

  // The machine the allocator gives job 1 on the empty fabric.
  NetworkManager probe(topo, 0.05);
  const util::Result<core::Placement> placed = probe.Admit(
      workload::MakeRequest(first, workload::Abstraction::kSvc, 0.95), alloc);
  ASSERT_TRUE(placed) << placed.status().ToText();
  const topology::VertexId machine = placed->vm_machine[0];

  sim::SimConfig config;
  config.allocator = &alloc;
  config.seed = 5;
  config.max_seconds = 5000;
  config.faults.policy = RecoveryPolicy::kEvict;
  config.faults.scripted.push_back(
      {99.5, machine, FaultKind::kMachine, /*fail=*/true});
  config.faults.scripted.push_back(
      {300.0, machine, FaultKind::kMachine, /*fail=*/false});

  obs::SetMetricsEnabled(true);
  for (const bool online : {false, true}) {
    SCOPED_TRACE(online ? "RunOnline" : "RunBatch");
    const int64_t unknown = CounterValue("manager/release_unknown");
    const int64_t evictions = CounterValue("fault/evictions");
    sim::Engine engine(topo, config);
    const sim::RunResult result = online ? engine.RunOnline({first, second})
                                         : engine.RunBatch({first, second});
    EXPECT_EQ(result.accepted, 2);
    EXPECT_EQ(result.faults_injected, 1);
    EXPECT_EQ(result.tenants_affected, 1);
    EXPECT_EQ(result.tenants_evicted, 1);
    EXPECT_EQ(CounterValue("fault/evictions"), evictions + 1);
    EXPECT_EQ(CounterValue("manager/release_unknown"), unknown);
    ASSERT_EQ(result.jobs.size(), 1u);
    EXPECT_EQ(result.jobs[0].id, 1);
    EXPECT_EQ(result.jobs[0].finish_time, 100);
    EXPECT_EQ(engine.manager().live_count(), 0u);
    EXPECT_TRUE(engine.manager().StateValid());
  }
  obs::SetMetricsEnabled(false);
}

// --- The registry's fault scenarios ---

// fault_correlated on a 10 x 10 fabric: random machine and link churn at
// two MTBFs plus the scripted rack-power, ToR-loss and planned-drain
// groups, under every recovery policy with and without survivable
// admission.  Every cell must inject faults and keep its steady-epoch
// outage within epsilon, and the planned drain must land in at least one
// cell (it is skipped where its machine is already down).  Some element is
// down at every tick of these runs, so the epsilon check compares 0/0
// until the outage census is kept per link (docs/ROBUSTNESS.md).
TEST(FaultEngine, CorrelatedChurnKeepsSteadyOutageWithinEpsilon) {
  sim::Scenario s = *sim::FindScenario("fault_correlated");
  s.topology.racks = 10;
  s.topology.machines_per_rack = 10;
  s.topology.racks_per_agg = 5;
  s.workload.num_jobs = 60;
  s.workload.mean_job_size = 8;
  s.workload.max_job_size = 24;
  s.sweep.values = {200, 900};
  s.faults.horizon_seconds = 8000;
  s.max_seconds = 4 * s.faults.horizon_seconds;
  sim::ScenarioRunOptions options;
  options.threads = 4;
  const util::Result<sim::ScenarioRunResult> run =
      sim::RunScenario(s, options);
  ASSERT_TRUE(run) << run.status().ToText();
  ASSERT_EQ(run->cells.size(), s.variants.size() * s.sweep.values.size());
  int64_t drains = 0;
  for (const sim::ScenarioCell& cell : run->cells) {
    SCOPED_TRACE(cell.label + " mtbf " + std::to_string(cell.axis_value));
    const sim::RunResult& r = cell.result;
    EXPECT_GT(r.faults_injected, 0);
    EXPECT_LE(r.steady_outage().OutageRate(), s.admission.epsilon);
    drains += r.planned_drains;
  }
  EXPECT_GT(drains, 0) << "no cell applied the planned drain";
}

// fault_drill as registered: sigma = 0 tenants, each spanning two
// machines, and one scripted failure of a machine hosting a VM of the
// first admitted tenant.  A permutation pairing sends at most min(m, N-m)
// flows across any cut, so offered load never exceeds the hose
// reservation, and the backup groups cover the failure: the steady epoch
// must carry load and see no outage at all, every affected tenant must
// switch over, and none may be evicted.
TEST(FaultEngine, SwitchoverDrillHasZeroSteadyOutage) {
  const util::Result<sim::ScenarioRunResult> run =
      sim::RunScenario(*sim::FindScenario("fault_drill"));
  ASSERT_TRUE(run) << run.status().ToText();
  ASSERT_EQ(run->cells.size(), 1u);
  const sim::RunResult& r = run->cells[0].result;
  EXPECT_EQ(r.faults_injected, 1);
  EXPECT_GT(r.tenants_affected, 0);
  EXPECT_EQ(r.tenants_switched, r.tenants_affected);
  EXPECT_EQ(r.tenants_evicted, 0);
  const sim::OutageStats steady = r.steady_outage();
  EXPECT_GT(steady.busy_link_seconds, 0) << "the drill loaded no link";
  EXPECT_EQ(steady.outage_link_seconds, 0);
}

}  // namespace
}  // namespace svc
