// Survivable admission (docs/ROBUSTNESS.md "Survivability"): the ledger's
// shared-backup demand class, backup planning, switchover recovery, planned
// drains, fault-config validation, scripted-schedule ordering, and
// differential oracles for the factored backup search and the Pareto-pruned
// worst-case kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/interpreter.h"
#include "net/admission.h"
#include "net/link_ledger.h"
#include "sim/engine.h"
#include "sim/fault_injector.h"
#include "stats/rng.h"
#include "svc/homogeneous_search.h"
#include "svc/manager.h"
#include "svc/slot_map.h"
#include "svc/survivable.h"
#include "topology/builders.h"
#include "workload/workload.h"

namespace svc {
namespace {

using core::AdmissionOptions;
using core::EvictReason;
using core::FaultKind;
using core::NetworkManager;
using core::Placement;
using core::RecoveryPolicy;
using core::Request;

AdmissionOptions Survivable() {
  AdmissionOptions options;
  options.survivability = true;
  return options;
}

// --- Ledger shared-backup class ---

TEST(SurvivableLedger, DisjointDomainsShareHeadroomSameDomainSums) {
  const topology::Topology topo = topology::BuildStar(4, 4, 1000);
  const topology::VertexId v = topo.machines()[0];
  const topology::VertexId d1 = topo.machines()[1];
  const topology::VertexId d2 = topo.machines()[2];

  net::LinkLedger disjoint(topo, 0.05);
  disjoint.AddStochastic(v, 1, 400, 100);
  disjoint.AddBackup(v, 2, d1, 200, 0, 0);
  disjoint.AddBackup(v, 3, d2, 200, 0, 0);

  net::LinkLedger stacked(topo, 0.05);
  stacked.AddStochastic(v, 1, 400, 100);
  stacked.AddBackup(v, 2, d1, 200, 0, 0);
  stacked.AddBackup(v, 3, d1, 200, 0, 0);

  // Both states are admissible at zero extra demand, but the same-domain
  // ledger's worst post-failure state carries both backups (mean 800) while
  // the disjoint one carries only the larger single domain (mean 600).
  ASSERT_TRUE(disjoint.ValidWith(v, 0, 0, 0));
  ASSERT_TRUE(stacked.ValidWith(v, 0, 0, 0));
  EXPECT_LT(disjoint.OccupancyWith(v, 0, 0, 0),
            stacked.OccupancyWith(v, 0, 0, 0));

  // A candidate of mean 250 fits beside disjoint backups (worst state mean
  // 850 of 1000) but not beside stacked ones (1050 of 1000).
  EXPECT_TRUE(disjoint.ValidWith(v, 250, 0, 0));
  EXPECT_FALSE(stacked.ValidWith(v, 250, 0, 0));

  // The fused worst-case kernel equals the explicit per-domain evaluation
  // of the binding domain, bit for bit.
  EXPECT_EQ(disjoint.OccupancyWith(v, 0, 0, 0),
            disjoint.OccupancyWithDomain(v, d1, 0, 0, 0));
  // A domain with no records on the link degrades to the base state.
  net::LinkLedger base_only(topo, 0.05);
  base_only.AddStochastic(v, 1, 400, 100);
  EXPECT_EQ(disjoint.OccupancyWithDomain(v, topo.machines()[3], 0, 0, 0),
            base_only.OccupancyWith(v, 0, 0, 0));

  // Backup share: the disjoint worst state adds 200 of 1000 capacity.
  EXPECT_NEAR(disjoint.BackupShare(v), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(disjoint.MaxBackupShare(), disjoint.BackupShare(v));
  EXPECT_EQ(base_only.BackupShare(v), 0.0);

  // The batch kernel agrees with the scalar worst-case path cell by cell.
  const double mean[3] = {0, 250, 10};
  const double var[3] = {0, 0, 4};
  const double det[3] = {0, 0, 30};
  double out[3];
  disjoint.OccupancyWithBatch(v, mean, var, det, 3, out);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i], disjoint.OccupancyWith(v, mean[i], var[i], det[i]))
        << i;
  }
}

TEST(SurvivableLedger, RemovingBackupsRestoresLegacyKernelExactly) {
  const topology::Topology topo = topology::BuildStar(4, 4, 1000);
  const topology::VertexId v = topo.machines()[0];
  net::LinkLedger ledger(topo, 0.05);
  ledger.AddStochastic(v, 1, 300, 64);
  ledger.AddBackup(v, 2, topo.machines()[1], 150, 25, 0);
  ledger.AddBackup(v, 3, topo.machines()[2], 0, 0, 120);
  EXPECT_GT(ledger.BackupShare(v), 0.0);
  EXPECT_EQ(ledger.TotalRecords(), 3u);

  ledger.RemoveRequest(2);
  ledger.RemoveRequest(3);
  EXPECT_EQ(ledger.BackupShare(v), 0.0);
  EXPECT_EQ(ledger.TotalRecords(), 1u);

  // Bit-identical to a ledger that never saw a backup record.
  net::LinkLedger twin(topo, 0.05);
  twin.AddStochastic(v, 1, 300, 64);
  EXPECT_EQ(ledger.Occupancy(v), twin.Occupancy(v));
  EXPECT_EQ(ledger.OccupancyWith(v, 10, 4, 0), twin.OccupancyWith(v, 10, 4, 0));
  EXPECT_EQ(ledger.OccupancyWith(v, 0, 0, 50), twin.OccupancyWith(v, 0, 0, 50));
}

TEST(SurvivableLedger, DrainedLinkSuspendsPostFailureStates) {
  const topology::Topology topo = topology::BuildStar(4, 4, 1000);
  const topology::VertexId v = topo.machines()[0];
  net::LinkLedger ledger(topo, 0.05);
  ledger.AddBackup(v, 2, topo.machines()[1], 300, 0, 0);
  EXPECT_GT(ledger.BackupShare(v), 0.0);

  // Down: the empty base state is vacuously valid and the backup share is
  // not counted (unenforceable until switchover re-validates it).
  ledger.SetLinkState(v, false);
  EXPECT_TRUE(ledger.ValidWith(v, 0, 0, 0));
  EXPECT_EQ(ledger.BackupShare(v), 0.0);

  ledger.SetLinkState(v, true);
  EXPECT_GT(ledger.BackupShare(v), 0.0);
}

// --- Backup planning ---

TEST(SurvivablePlanBackup, PicksOffDomainMachineDeterministically) {
  const topology::Topology topo = topology::BuildStar(4, 4, 1000);
  net::LinkLedger ledger(topo, 0.05);
  core::SlotMap slots(topo);
  const Request request = Request::Homogeneous(1, 4, 100, 30);
  Placement placement;
  placement.vm_machine = {topo.machines()[0], topo.machines()[0],
                          topo.machines()[1], topo.machines()[1]};
  placement.subtree_root = topo.root();

  const auto planned = core::PlanBackup(topo, request, placement, ledger,
                                        slots);
  ASSERT_TRUE(planned.ok()) << planned.status().ToText();
  // The largest primary group is 2 VMs; the lowest-id non-primary machine
  // wins the (symmetric) score tie.
  EXPECT_EQ(planned->backup_machine, topo.machines()[2]);
  EXPECT_EQ(planned->backup_slots, 2);
  EXPECT_TRUE(planned->survivable());
  EXPECT_EQ(planned->vm_machine, placement.vm_machine);

  const auto again = core::PlanBackup(topo, request, placement, ledger,
                                      slots);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->backup_machine, planned->backup_machine);
  EXPECT_EQ(again->backup_slots, planned->backup_slots);
}

TEST(SurvivablePlanBackup, RequiresSlotsAndUpMachineOffDomain) {
  const topology::Topology topo = topology::BuildStar(4, 4, 1000);
  net::LinkLedger ledger(topo, 0.05);
  const Request request = Request::Homogeneous(1, 4, 100, 30);
  Placement placement;
  placement.vm_machine = {topo.machines()[0], topo.machines()[0],
                          topo.machines()[1], topo.machines()[1]};
  placement.subtree_root = topo.root();

  // machines()[2] has too few free slots: the plan moves to machines()[3].
  core::SlotMap slots(topo);
  slots.Occupy(topo.machines()[2], 3);
  auto planned = core::PlanBackup(topo, request, placement, ledger, slots);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->backup_machine, topo.machines()[3]);

  // machines()[3] down too: no off-domain machine can host the group, even
  // though the primary machines each have 2 free slots.
  slots.SetMachineState(topo.machines()[3], false);
  planned = core::PlanBackup(topo, request, placement, ledger, slots);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), util::ErrorCode::kInfeasible);
}

// --- Survivable admission through the manager ---

TEST(SurvivableAdmission, AdmitReservesBackupGroupAndReleaseFreesIt) {
  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  NetworkManager manager(topo, 0.05);
  manager.set_admission_options(Survivable());
  core::HomogeneousDpAllocator alloc;

  const int total = manager.slots().total_free();
  const auto admitted = manager.Admit(Request::Homogeneous(1, 4, 100, 30),
                                      alloc);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToText();
  ASSERT_TRUE(admitted->survivable());
  EXPECT_GT(admitted->backup_slots, 0);
  for (topology::VertexId m : admitted->vm_machine) {
    EXPECT_NE(m, admitted->backup_machine);
  }
  // The backup group occupies real slots next to the 4 primary ones.
  EXPECT_EQ(manager.slots().total_free(),
            total - 4 - admitted->backup_slots);
  EXPECT_TRUE(manager.StateValid());

  manager.Release(1);
  EXPECT_EQ(manager.slots().total_free(), total);
  EXPECT_EQ(manager.ledger().TotalRecords(), 0u);
  EXPECT_TRUE(manager.StateValid());
}

TEST(SurvivableAdmission, RejectsWhenNoBackupFitsButPlainAdmissionPasses) {
  // Two machines, request spans both: no off-domain machine exists for the
  // backup group, so survivable admission must reject what plain admission
  // accepts.
  const topology::Topology topo = topology::BuildStar(2, 4, 10000);
  core::HomogeneousDpAllocator alloc;
  const Request request = Request::Homogeneous(1, 8, 100, 30);

  NetworkManager plain(topo, 0.05);
  EXPECT_TRUE(plain.Admit(request, alloc).ok());

  NetworkManager survivable(topo, 0.05);
  survivable.set_admission_options(Survivable());
  const auto rejected = survivable.Admit(request, alloc);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(survivable.slots().total_free(), topo.total_slots());
  EXPECT_EQ(survivable.ledger().TotalRecords(), 0u);
}

// --- Switchover recovery ---

TEST(SurvivableSwitchover, CoveredFailureActivatesBackupWithoutEviction) {
  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  NetworkManager manager(topo, 0.05);
  manager.set_admission_options(Survivable());
  core::HomogeneousDpAllocator alloc;
  const auto admitted = manager.Admit(Request::Homogeneous(1, 4, 100, 30),
                                      alloc);
  ASSERT_TRUE(admitted.ok());
  const topology::VertexId primary = admitted->vm_machine[0];
  const topology::VertexId backup = admitted->backup_machine;

  const auto outcome = manager.HandleFault(FaultKind::kMachine, primary,
                                           RecoveryPolicy::kSwitchover, alloc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToText();
  ASSERT_EQ(outcome->tenants.size(), 1u);
  EXPECT_TRUE(outcome->tenants[0].recovered);
  EXPECT_TRUE(outcome->tenants[0].switched_over);
  EXPECT_EQ(outcome->tenants[0].evict_reason, EvictReason::kNone);
  EXPECT_EQ(outcome->switched(), 1);
  EXPECT_EQ(outcome->evicted(), 0);
  EXPECT_TRUE(manager.StateValid());

  // The lost VMs now run on the pre-reserved backup machine, and the
  // switched placement was re-protected with a fresh backup elsewhere.
  const Placement* moved = manager.placement_of(1);
  ASSERT_NE(moved, nullptr);
  for (topology::VertexId m : moved->vm_machine) {
    EXPECT_EQ(m, backup);
  }
  ASSERT_TRUE(moved->survivable());
  EXPECT_NE(moved->backup_machine, primary);
  EXPECT_NE(moved->backup_machine, backup);

  ASSERT_TRUE(manager.HandleRecovery(primary).ok());
  EXPECT_TRUE(manager.StateValid());
}

TEST(SurvivableSwitchover, FallsBackToReallocationWithoutBackup) {
  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  NetworkManager manager(topo, 0.05);  // survivability off: no backups
  core::HomogeneousDpAllocator alloc;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 8, 100, 30), alloc).ok());
  const topology::VertexId failed = manager.placement_of(1)->vm_machine[0];

  const auto outcome = manager.HandleFault(FaultKind::kMachine, failed,
                                           RecoveryPolicy::kSwitchover, alloc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToText();
  EXPECT_EQ(outcome->recovered(), 1);
  EXPECT_EQ(outcome->switched(), 0);  // reactive reallocation, not a backup
  EXPECT_EQ(outcome->evicted(), 0);
  EXPECT_TRUE(manager.IsLive(1));
  EXPECT_TRUE(manager.StateValid());
}

// --- Planned drains ---

TEST(SurvivableDrain, MigratesViaSwitchoverAndCordonsTheMachine) {
  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  NetworkManager manager(topo, 0.05);
  manager.set_admission_options(Survivable());
  core::HomogeneousDpAllocator alloc;
  const auto admitted = manager.Admit(Request::Homogeneous(1, 4, 100, 30),
                                      alloc);
  ASSERT_TRUE(admitted.ok());
  const topology::VertexId primary = admitted->vm_machine[0];

  const auto outcome = manager.DrainMachine(primary, alloc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToText();
  ASSERT_EQ(outcome->tenants.size(), 1u);
  EXPECT_TRUE(outcome->tenants[0].recovered);
  EXPECT_TRUE(outcome->tenants[0].switched_over);
  EXPECT_EQ(outcome->evicted(), 0);

  // Cordoned, not failed: slots closed, the uplink stays up (no outage),
  // and the fault list is untouched.
  EXPECT_FALSE(manager.slots().machine_up(primary));
  EXPECT_EQ(manager.slots().free_slots(primary), 0);
  EXPECT_TRUE(manager.ledger().link_up(primary));
  EXPECT_FALSE(manager.IsFailed(primary));
  EXPECT_TRUE(manager.Faults().empty());
  EXPECT_TRUE(manager.StateValid());
  const Placement* moved = manager.placement_of(1);
  ASSERT_NE(moved, nullptr);
  for (topology::VertexId m : moved->vm_machine) {
    EXPECT_NE(m, primary);
  }
  EXPECT_NE(moved->backup_machine, primary);

  ASSERT_TRUE(manager.UncordonMachine(primary).ok());
  EXPECT_TRUE(manager.slots().machine_up(primary));
  EXPECT_EQ(manager.slots().free_slots(primary), topo.vm_slots(primary));
}

TEST(SurvivableDrain, StuckTenantIsRestoredInPlaceWithoutEviction) {
  // The tenant fills both machines: the drain can move it nowhere, so it is
  // restored in place, reported unrecovered with no evict reason, and the
  // machine still ends up cordoned (the operator decides what happens next).
  const topology::Topology topo = topology::BuildStar(2, 4, 10000);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 8, 100, 30), alloc).ok());
  const topology::VertexId target = topo.machines()[0];

  const auto outcome = manager.DrainMachine(target, alloc);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToText();
  ASSERT_EQ(outcome->tenants.size(), 1u);
  EXPECT_FALSE(outcome->tenants[0].recovered);
  EXPECT_EQ(outcome->tenants[0].evict_reason, EvictReason::kNone);
  EXPECT_EQ(outcome->evicted(), 0);
  EXPECT_TRUE(manager.IsLive(1));
  EXPECT_FALSE(manager.slots().machine_up(target));
  EXPECT_TRUE(manager.StateValid());
  // The placement still occupies the cordoned machine.
  bool on_target = false;
  for (topology::VertexId m : manager.placement_of(1)->vm_machine) {
    on_target = on_target || m == target;
  }
  EXPECT_TRUE(on_target);
  EXPECT_TRUE(manager.UncordonMachine(target).ok());
}

TEST(SurvivableDrain, GuardsMirrorTheFaultPlane) {
  const topology::Topology topo = topology::BuildStar(3, 4, 10000);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;

  // Root is not a machine.
  EXPECT_FALSE(manager.DrainMachine(topo.root(), alloc).ok());

  // An actually-failed machine cannot be drained or uncordoned.
  const topology::VertexId m = topo.machines()[0];
  ASSERT_TRUE(
      manager.HandleFault(FaultKind::kMachine, m, RecoveryPolicy::kEvict,
                          alloc)
          .ok());
  const auto drained = manager.DrainMachine(m, alloc);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.status().code(), util::ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(manager.UncordonMachine(m).ok());
  ASSERT_TRUE(manager.HandleRecovery(m).ok());
  // Uncordoning an open machine is a no-op.
  EXPECT_TRUE(manager.UncordonMachine(m).ok());
}

// --- FaultConfig validation (fail-fast error messages) ---

TEST(FaultConfigValidation, RejectsMtbfWithoutPositiveMttr) {
  const topology::Topology topo = topology::BuildStar(3, 4, 1000);
  sim::FaultConfig config;
  config.machine_mtbf_seconds = 100;
  config.mttr_seconds = 0;
  const util::Status status = sim::ValidateFaultConfig(topo, config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToText().find("mttr_seconds"), std::string::npos)
      << status.ToText();

  config.mttr_seconds = -5;
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, config).ok());
  config.mttr_seconds = 10;
  EXPECT_TRUE(sim::ValidateFaultConfig(topo, config).ok());

  // Link MTBF alone trips the same check.
  sim::FaultConfig link_only;
  link_only.link_mtbf_seconds = 50;
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, link_only).ok());
}

TEST(FaultConfigValidation, RejectsMalformedRatesAndScriptedVertices) {
  const topology::Topology topo = topology::BuildTwoTier(2, 2, 4, 1000, 2.0);
  const topology::VertexId rack = topo.vertices_at_level(1)[0];
  const topology::VertexId machine = topo.MachinesUnder(rack)[0];

  sim::FaultConfig config;
  config.machine_mtbf_seconds = -1;
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, config).ok());

  config = {};
  config.horizon_seconds = -10;
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, config).ok());

  // Out-of-range and root vertices.
  config = {};
  config.scripted.push_back(
      {10.0, topo.num_vertices(), FaultKind::kMachine, true});
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, config).ok());
  config.scripted[0].vertex = topo.root();
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, config).ok());

  // Machine-kind event on a switch vertex.
  config = {};
  config.scripted.push_back({10.0, rack, FaultKind::kMachine, true});
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, config).ok());

  // Drains only make sense on machine failure events.
  config = {};
  config.scripted.push_back({10.0, rack, FaultKind::kLink, true, true});
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, config).ok());
  config = {};
  config.scripted.push_back({10.0, machine, FaultKind::kMachine, false, true});
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, config).ok());
}

TEST(FaultConfigValidation, RejectsRecoveryOfElementThatNeverFailed) {
  const topology::Topology topo = topology::BuildTwoTier(2, 2, 4, 1000, 2.0);
  const topology::VertexId rack = topo.vertices_at_level(1)[0];
  const topology::VertexId machine = topo.MachinesUnder(rack)[0];

  sim::FaultConfig config;
  config.scripted.push_back({100.0, machine, FaultKind::kMachine, false});
  const util::Status status = sim::ValidateFaultConfig(topo, config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToText().find("never failed"), std::string::npos)
      << status.ToText();

  // An earlier (or simultaneous) scripted failure legitimizes it.
  config.scripted.push_back({50.0, machine, FaultKind::kMachine, true});
  EXPECT_TRUE(sim::ValidateFaultConfig(topo, config).ok());
  config.scripted[1].time = 100.0;
  EXPECT_TRUE(sim::ValidateFaultConfig(topo, config).ok());
  config.scripted[1].time = 200.0;
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, config).ok());

  // So does a random stream covering the element class...
  sim::FaultConfig random_machines;
  random_machines.machine_mtbf_seconds = 100;
  random_machines.mttr_seconds = 10;
  random_machines.horizon_seconds = 1000;
  random_machines.scripted.push_back(
      {100.0, machine, FaultKind::kMachine, false});
  EXPECT_TRUE(sim::ValidateFaultConfig(topo, random_machines).ok());
  // ...but only the matching class: machine churn does not explain a
  // fabric-link recovery.
  random_machines.scripted.push_back({100.0, rack, FaultKind::kLink, false});
  EXPECT_FALSE(sim::ValidateFaultConfig(topo, random_machines).ok());
}

// --- Scripted schedule: total (time, vertex, fail) order ---

TEST(FaultSchedule, SimultaneousCorrelatedEventsSortDeterministically) {
  const topology::Topology topo = topology::BuildTwoTier(2, 2, 4, 1000, 2.0);
  const topology::VertexId rack0 = topo.vertices_at_level(1)[0];
  const topology::VertexId rack1 = topo.vertices_at_level(1)[1];
  const topology::VertexId x = topo.MachinesUnder(rack0)[0];

  sim::FaultConfig config;
  // Deliberately appended out of order; BuildFaultSchedule re-sorts.
  sim::AppendRackPowerEvent(topo, rack1, 100.0, 60.0, &config.scripted);
  config.scripted.push_back({100.0, x, FaultKind::kMachine, false});
  config.scripted.push_back({50.0, x, FaultKind::kMachine, true});
  sim::AppendTorLossEvent(rack0, 100.0, 60.0, &config.scripted);
  config.scripted.push_back({100.0, x, FaultKind::kMachine, true});
  ASSERT_TRUE(sim::ValidateFaultConfig(topo, config).ok());

  const std::vector<sim::FaultEvent> schedule =
      sim::BuildFaultSchedule(topo, config);
  const size_t rack1_machines = topo.MachinesUnder(rack1).size();
  ASSERT_EQ(schedule.size(), 5u + 2u * rack1_machines);

  // Lexicographic (time, vertex, failures-before-recoveries) everywhere.
  for (size_t i = 1; i < schedule.size(); ++i) {
    const sim::FaultEvent& a = schedule[i - 1];
    const sim::FaultEvent& b = schedule[i];
    ASSERT_LE(a.time, b.time) << i;
    if (a.time == b.time) {
      ASSERT_LE(a.vertex, b.vertex) << i;
      if (a.vertex == b.vertex) {
        // fail sorts before recovery at the same (time, vertex).
        EXPECT_TRUE(a.fail && !b.fail) << i;
      }
    }
  }

  // Machine x at t=100 carries both a re-failure and a recovery: the
  // failure must come first.
  int x_fail = -1, x_recover = -1;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].time == 100.0 && schedule[i].vertex == x) {
      (schedule[i].fail ? x_fail : x_recover) = static_cast<int>(i);
    }
  }
  ASSERT_GE(x_fail, 0);
  ASSERT_GE(x_recover, 0);
  EXPECT_LT(x_fail, x_recover);

  // The rack power group fails every machine under rack1 at t=100 and
  // recovers them together at t=160.
  for (topology::VertexId m : topo.MachinesUnder(rack1)) {
    int fails = 0, recovers = 0;
    for (const sim::FaultEvent& e : schedule) {
      if (e.vertex != m) continue;
      if (e.fail) {
        EXPECT_EQ(e.time, 100.0);
        ++fails;
      } else {
        EXPECT_EQ(e.time, 160.0);
        ++recovers;
      }
    }
    EXPECT_EQ(fails, 1);
    EXPECT_EQ(recovers, 1);
  }
}

// --- Engine: planned drain end to end ---

TEST(SurvivableEngine, PlannedDrainMigratesWithoutEviction) {
  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  core::HomogeneousDpAllocator alloc;

  workload::JobSpec job;
  job.id = 1;
  job.size = 4;
  job.compute_time = 600;
  job.rate_mean = 100;
  job.rate_stddev = 20;
  job.flow_mbits = 1e7;  // long-lived flows: alive at the drain instant
  job.arrival_time = 0;
  workload::JobSpec late = job;  // keeps the sim alive through recovery
  late.id = 2;
  late.arrival_time = 300;
  late.compute_time = 50;
  late.flow_mbits = 100;

  // Probe where the engine's deterministic admission will place job 1, so
  // the scripted drain hits the tenant's actual machine.
  topology::VertexId target;
  {
    NetworkManager probe(topo, 0.05);
    probe.set_admission_options(Survivable());
    const auto placed = probe.Admit(
        workload::MakeRequest(job, workload::Abstraction::kSvc), alloc);
    ASSERT_TRUE(placed.ok()) << placed.status().ToText();
    target = placed->vm_machine[0];
  }

  sim::SimConfig config;
  config.allocator = &alloc;
  config.seed = 3;
  config.max_seconds = 5000;
  config.admission = Survivable();
  config.faults.policy = RecoveryPolicy::kSwitchover;
  sim::AppendPlannedDrain(target, 100.0, 150.0, &config.faults.scripted);

  sim::Engine engine(topo, config);
  const sim::RunResult result = engine.RunOnline({job, late});
  EXPECT_EQ(result.accepted, 2);
  EXPECT_EQ(result.planned_drains, 1);
  EXPECT_EQ(result.tenants_migrated, 1);
  EXPECT_EQ(result.tenants_switched, 1);  // switchover-preferred migration
  EXPECT_EQ(result.tenants_evicted, 0);
  EXPECT_EQ(result.faults_injected, 1);   // the post-drain teardown
  EXPECT_EQ(result.fault_recoveries, 1);
  EXPECT_TRUE(engine.manager().StateValid());
  EXPECT_TRUE(engine.manager().Faults().empty());
}

// --- svcctl drill subcommand ---

TEST(SurvivableCli, DrillRackReportsSwitchoverOutcome) {
  const topology::Topology topo = topology::BuildTwoTier(2, 2, 4, 10000, 1.0);
  cli::Interpreter interp(topo, 0.05);
  std::ostringstream out;
  ASSERT_TRUE(interp.Execute("survivable on", out));
  EXPECT_TRUE(interp.manager().admission_options().survivability);
  ASSERT_TRUE(interp.Execute("policy switchover", out));
  ASSERT_TRUE(interp.Execute("admit 1 homogeneous 4 100 30", out));

  const topology::VertexId machine =
      interp.manager().placement_of(1)->vm_machine[0];
  const topology::VertexId rack = topo.parent(machine);
  out.str("");
  ASSERT_TRUE(
      interp.Execute("drill rack " + std::to_string(rack), out))
      << out.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("drill rack"), std::string::npos) << text;
  EXPECT_NE(text.find("switchover"), std::string::npos) << text;
  EXPECT_NE(text.find("state valid"), std::string::npos) << text;
  // The drill recovered everything and the tenant survived.
  EXPECT_TRUE(interp.manager().Faults().empty());
  EXPECT_TRUE(interp.manager().IsLive(1));

  // Guard: the argument must be a non-root switch vertex.
  std::ostringstream err;
  EXPECT_FALSE(
      interp.Execute("drill rack " + std::to_string(machine), err));
  EXPECT_FALSE(interp.Execute("drill rack 0", err));
  // Unknown survivable argument is a parse error.
  EXPECT_FALSE(interp.Execute("survivable maybe", err));
  ASSERT_TRUE(interp.Execute("survivable off", err));
  EXPECT_FALSE(interp.manager().admission_options().survivability);
}

// --- Differential oracles: factored backup search, pruned kernels ---

constexpr double kInf = std::numeric_limits<double>::infinity();

// The per-candidate backup search PlanBackup replaced, kept as its oracle:
// every up machine off the primary's domains with room for the backup group
// is scored by walking its whole backup row set; the lowest score wins and
// the lowest id breaks ties.
util::Result<Placement> OraclePlanBackup(const topology::Topology& topo,
                                         const Request& request,
                                         Placement placement,
                                         const net::LinkLedger& ledger,
                                         const core::SlotMap& slots) {
  placement.backup_machine = topology::kNoVertex;
  placement.backup_slots = 0;
  if (placement.total_vms() == 0) {
    return {util::ErrorCode::kInvalidArgument, "empty placement"};
  }
  std::map<topology::VertexId, int> counts;
  for (topology::VertexId m : placement.vm_machine) ++counts[m];
  int needed = 0;
  for (const auto& [m, c] : counts) needed = std::max(needed, c);
  const std::vector<core::LinkDemand> primary =
      core::ComputeSurvivableLinkDemands(topo, request, placement);
  double primary_score = 0;
  for (const core::LinkDemand& d : primary) {
    primary_score = std::max(
        primary_score,
        ledger.OccupancyWith(d.link, d.mean, d.variance, d.deterministic));
  }
  if (primary_score == kInf) {
    return {util::ErrorCode::kInfeasible, "primary violates (4)"};
  }
  topology::VertexId best = topology::kNoVertex;
  double best_score = kInf;
  for (topology::VertexId m : topo.machines()) {
    if (counts.count(m) || !slots.machine_up(m) ||
        slots.free_slots(m) < needed) {
      continue;
    }
    Placement candidate = placement;
    candidate.backup_machine = m;
    candidate.backup_slots = needed;
    double score = primary_score;
    bool ok = true;
    for (const core::LinkDemand& d :
         core::ComputeSurvivableLinkDemands(topo, request, candidate)) {
      if (d.domain == topology::kNoVertex) continue;
      double pm = 0, pv = 0, pd = 0;
      for (const core::LinkDemand& p : primary) {
        if (p.link == d.link) {
          pm = p.mean;
          pv = p.variance;
          pd = p.deterministic;
          break;
        }
      }
      const double occ = ledger.OccupancyWithDomain(
          d.link, d.domain, pm + d.mean, pv + d.variance,
          pd + d.deterministic);
      if (occ == kInf) {
        ok = false;
        break;
      }
      score = std::max(score, occ);
    }
    if (ok && (score < best_score || (score == best_score && m < best))) {
      best = m;
      best_score = score;
    }
  }
  if (best == topology::kNoVertex) {
    return {util::ErrorCode::kInfeasible, "no backup machine"};
  }
  placement.backup_machine = best;
  placement.backup_slots = needed;
  return placement;
}

// Calls fn(capacity, det, mean, var, c) for every state of link v — no
// failure, then each backup domain (unpruned; domain states only while the
// link is up) — with the candidate (mean, var, det) added.
template <typename Fn>
void ForEachState(const net::LinkLedger& ledger, topology::VertexId v,
                  double mean, double var, double det, Fn fn) {
  const net::LinkState& s = ledger.link(v);
  const double c = ledger.quantile();
  fn(s.capacity, s.deterministic + det, s.mean_sum + mean, s.var_sum + var,
     c);
  if (s.capacity <= 0) return;
  for (const net::BackupDomainSums& g : s.backup_domains) {
    fn(s.capacity, s.deterministic + det + g.det_sum,
       s.mean_sum + mean + g.mean_sum, s.var_sum + var + g.var_sum, c);
  }
}

double BruteOccupancyWith(const net::LinkLedger& ledger, topology::VertexId v,
                          double mean, double var, double det) {
  double worst = 0;
  ForEachState(ledger, v, mean, var, det, [&](auto... state) {
    worst = std::max(worst, net::OccupancyRatioIfValid(state...));
  });
  return worst;
}

bool BruteValidWith(const net::LinkLedger& ledger, topology::VertexId v,
                    double mean, double var, double det) {
  bool valid = true;
  ForEachState(ledger, v, mean, var, det, [&](auto... state) {
    valid = valid && net::SatisfiesGuarantee(state...);
  });
  return valid;
}

double BruteWorstOccupancy(const net::LinkLedger& ledger,
                           topology::VertexId v) {
  double worst = 0;
  ForEachState(ledger, v, 0, 0, 0, [&](auto... state) {
    worst = std::max(worst, net::OccupancyRatio(state...));
  });
  return worst;
}

// The frontier binary search (FeasibleFrontier, or with `descending`
// FeasibleFrontierDescending) driven by brute-force verdicts.
int BruteFrontier(const net::LinkLedger& truth, topology::VertexId v,
                  const double* mean, const double* var, const double* det,
                  int count, bool descending) {
  int lo = 0, hi = count - 1;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    if (BruteValidWith(truth, v, mean[mid], var[mid], det[mid]) != descending) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

// Checks every worst-case kernel of `ledger` on every link against the
// brute-force maximum over every domain state, bit for bit, for random
// candidates scaled to each link's headroom so both verdicts occur.
void ExpectKernelsMatchBruteForce(const net::LinkLedger& ledger,
                                  stats::Rng& rng) {
  constexpr int kCandidates = 12;
  for (topology::VertexId v = 1; v < ledger.topo().num_vertices(); ++v) {
    SCOPED_TRACE("link " + std::to_string(v));
    const net::LinkState& s = ledger.link(v);
    // The pruned set's invariant: its members are domain states, and every
    // domain state has a member at least as large in every moment — with
    // zero variance only if the domain state has zero variance too.
    const std::vector<net::BackupDomainSums>& pareto = s.backup_pareto;
    for (const net::BackupDomainSums& g : s.backup_domains) {
      EXPECT_TRUE(std::any_of(
          pareto.begin(), pareto.end(), [&](const net::BackupDomainSums& p) {
            return p.det_sum >= g.det_sum && p.mean_sum >= g.mean_sum &&
                   p.var_sum >= g.var_sum && (g.var_sum > 0 || p.var_sum == 0);
          }))
          << "domain " << g.domain << " pruned without a dominating member";
    }
    for (const net::BackupDomainSums& p : pareto) {
      EXPECT_TRUE(std::any_of(
          s.backup_domains.begin(), s.backup_domains.end(),
          [&](const net::BackupDomainSums& g) {
            return g.domain == p.domain && g.det_sum == p.det_sum &&
                   g.mean_sum == p.mean_sum && g.var_sum == p.var_sum;
          }))
          << "member " << p.domain << " is not a domain state";
    }
    const double room =
        std::max(1.0, s.capacity - s.deterministic - s.mean_sum);
    double mean[kCandidates], var[kCandidates], det[kCandidates];
    for (int i = 0; i < kCandidates; ++i) {
      mean[i] = i % 4 == 0 ? 0 : rng.Uniform(0, room);
      var[i] = i % 3 == 0 ? 0 : rng.Uniform(0, room * room / 16);
      det[i] = i % 2 == 0 ? 0 : rng.Uniform(0, room / 2);
    }
    double out[kCandidates];
    ledger.OccupancyWithBatch(v, mean, var, det, kCandidates, out);
    for (int i = 0; i < kCandidates; ++i) {
      const double want = BruteOccupancyWith(ledger, v, mean[i], var[i], det[i]);
      EXPECT_EQ(ledger.OccupancyWith(v, mean[i], var[i], det[i]), want) << i;
      EXPECT_EQ(out[i], want) << i;
      EXPECT_EQ(ledger.ValidWith(v, mean[i], var[i], det[i]),
                BruteValidWith(ledger, v, mean[i], var[i], det[i]))
          << i;
    }
    // Frontier searches over jointly monotone candidates.
    std::sort(mean, mean + kCandidates);
    std::sort(var, var + kCandidates);
    std::sort(det, det + kCandidates);
    EXPECT_EQ(ledger.FeasibleFrontier(v, mean, var, det, 0, kCandidates - 1),
              BruteFrontier(ledger, v, mean, var, det, kCandidates, false));
    std::reverse(mean, mean + kCandidates);
    std::reverse(var, var + kCandidates);
    std::reverse(det, det + kCandidates);
    EXPECT_EQ(ledger.FeasibleFrontierDescending(v, mean, var, det, 0,
                                                kCandidates - 1),
              BruteFrontier(ledger, v, mean, var, det, kCandidates, true));

    const double worst = BruteWorstOccupancy(ledger, v);
    EXPECT_EQ(ledger.Slack(v), std::max(-1.0, 1.0 - worst));
    double share = 0;
    const double base = net::OccupancyRatio(
        s.capacity, s.deterministic, s.mean_sum, s.var_sum, ledger.quantile());
    if (!s.backup_domains.empty() && s.capacity > 0 && std::isfinite(worst) &&
        std::isfinite(base)) {
      share = std::clamp(worst - base, 0.0, 1.0);
    }
    EXPECT_EQ(ledger.BackupShare(v), share);
  }
}

TEST(SurvivableOracle, ZeroVarianceStateIsOnlyPrunedByZeroVarianceState) {
  // Condition (4) rounds differently on its zero-variance branch, so a
  // state with zero variance can violate it while an otherwise equal state
  // with a tiny positive variance passes.  Find such a (det, mean) pair on
  // a 1000 Mbps link: pruning the zero-variance state because the other
  // one dominates it in every moment would then flip the verdict.
  const topology::Topology topo = topology::BuildStar(4, 4, 1000);
  const topology::VertexId v = topo.machines()[0];
  const double capacity = topo.uplink_capacity(v);
  const double c = net::GuaranteeQuantile(0.05);
  constexpr double kTinyVar = 1e-40;
  double det = 0, mean = 0;
  for (int k = 1; k < 1000 && det == 0; ++k) {
    double m = capacity + 1e-9 * capacity - k * 0.37;
    for (int i = 0; i < 8; ++i) m = std::nextafter(m, 0.0);
    for (int i = 0; i < 16; ++i, m = std::nextafter(m, kInf)) {
      if (!net::SatisfiesGuarantee(capacity, k * 0.37, m, 0, c) &&
          net::SatisfiesGuarantee(capacity, k * 0.37, m, kTinyVar, c)) {
        det = k * 0.37;
        mean = m;
        break;
      }
    }
  }
  ASSERT_GT(det, 0) << "no branch-rounding pair found";

  for (const bool zero_first : {true, false}) {
    SCOPED_TRACE(zero_first ? "zero variance first" : "positive first");
    net::LinkLedger ledger(topo, 0.05);
    const topology::VertexId zero = topo.machines()[1];
    const topology::VertexId positive = topo.machines()[2];
    if (zero_first) ledger.AddBackup(v, 1, zero, mean, 0, det);
    ledger.AddBackup(v, 2, positive, mean, kTinyVar, det);
    if (!zero_first) ledger.AddBackup(v, 1, zero, mean, 0, det);
    EXPECT_FALSE(ledger.ValidWith(v, 0, 0, 0));
    EXPECT_EQ(ledger.OccupancyWith(v, 0, 0, 0), kInf);
    stats::Rng rng(7);
    ExpectKernelsMatchBruteForce(ledger, rng);
  }
}

std::vector<topology::Topology> OracleFabrics(stats::Rng& rng) {
  std::vector<topology::Topology> fabrics;
  fabrics.push_back(topology::BuildStar(
      static_cast<int>(rng.UniformInt(5, 9)), 4, 1000));
  fabrics.push_back(topology::BuildTwoTier(
      static_cast<int>(rng.UniformInt(2, 4)), 4, 4, 1000, 2.0));
  topology::ThreeTierConfig config;
  config.racks = 4;
  config.racks_per_agg = 2;
  config.machines_per_rack = static_cast<int>(rng.UniformInt(3, 4));
  config.slots_per_machine = 4;
  fabrics.push_back(topology::BuildThreeTier(config));
  return fabrics;
}

// A tenant for survivable churn: a homogeneous SVC or, one time in three, a
// sigma = 0 VC, so zero-variance backup domains occur.
Request ChurnTenant(core::RequestId id, stats::Rng& rng) {
  const int n = static_cast<int>(rng.UniformInt(2, 8));
  if (rng.UniformInt(0, 2) == 0) {
    return Request::Deterministic(id, n, rng.Uniform(20, 150));
  }
  return Request::Homogeneous(id, n, rng.Uniform(20, 150),
                              rng.Uniform(5, 60));
}

// Seeded survivable churn: admissions, releases, machine and link faults
// under switchover (a drained link keeps other tenants' backup rows) and
// recoveries.  Calls `probe` after every step.
void RunSurvivableOracleChurn(
    const topology::Topology& topo, uint64_t seed, int steps,
    const std::function<void(const NetworkManager&, stats::Rng&)>& probe) {
  NetworkManager manager(topo, 0.05);
  manager.set_admission_options(Survivable());
  core::HomogeneousDpAllocator alloc;
  stats::Rng rng(seed);
  core::RequestId next_id = 1;
  std::vector<core::RequestId> live;
  for (int step = 0; step < steps; ++step) {
    const double r = rng.UniformDouble();
    if (r < 0.5) {
      if (manager.Admit(ChurnTenant(next_id, rng), alloc).ok()) {
        live.push_back(next_id);
      }
      ++next_id;
    } else if (r < 0.7 && !live.empty()) {
      const size_t i = rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1);
      if (manager.IsLive(live[i])) manager.Release(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (r < 0.85) {
      const topology::VertexId v = static_cast<topology::VertexId>(
          rng.UniformInt(1, topo.num_vertices() - 1));
      if (!manager.IsFailed(v)) {
        const FaultKind kind = topo.is_machine(v) && rng.UniformInt(0, 1) == 0
                                   ? FaultKind::kMachine
                                   : FaultKind::kLink;
        ASSERT_TRUE(manager
                        .HandleFault(kind, v, RecoveryPolicy::kSwitchover,
                                     alloc)
                        .ok());
      }
    } else if (!manager.Faults().empty()) {
      ASSERT_TRUE(
          manager.HandleRecovery(manager.Faults().begin()->first).ok());
    }
    probe(manager, rng);
  }
}

TEST(SurvivableOracle, PlanBackupMatchesBruteForceSearch) {
  int planned = 0, infeasible = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    stats::Rng fabric_rng(seed);
    for (const topology::Topology& topo : OracleFabrics(fabric_rng)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " + topo.Describe());
      core::HomogeneousDpAllocator alloc;
      RunSurvivableOracleChurn(
          topo, seed, 60, [&](const NetworkManager& manager, stats::Rng& rng) {
            // The allocator's primary for a fresh tenant, and a random
            // heterogeneous placement (mixed zero and positive variances,
            // possibly violating condition (4) on its own).
            std::vector<std::pair<Request, Placement>> cases;
            const Request fresh = ChurnTenant(1000000, rng);
            auto placed =
                alloc.Allocate(fresh, manager.ledger(), manager.slots());
            if (placed.ok()) cases.emplace_back(fresh, *placed);
            const int n = static_cast<int>(rng.UniformInt(1, 6));
            std::vector<stats::Normal> demands;
            Placement random;
            for (int vm = 0; vm < n; ++vm) {
              demands.push_back({rng.Uniform(10, 200),
                                 rng.UniformInt(0, 1) == 0
                                     ? 0.0
                                     : rng.Uniform(0, 3000)});
              random.vm_machine.push_back(topo.machines()[rng.UniformInt(
                  0, static_cast<int64_t>(topo.machines().size()) - 1)]);
            }
            random.subtree_root = topo.root();
            cases.emplace_back(Request::Heterogeneous(1000001, demands),
                               random);

            for (const auto& [request, placement] : cases) {
              const auto got = core::PlanBackup(topo, request, placement,
                                                manager.ledger(),
                                                manager.slots());
              const auto want = OraclePlanBackup(topo, request, placement,
                                                 manager.ledger(),
                                                 manager.slots());
              ASSERT_EQ(got.ok(), want.ok());
              if (!got.ok()) {
                EXPECT_EQ(got.status().code(), want.status().code());
                ++infeasible;
                continue;
              }
              ++planned;
              EXPECT_EQ(got->backup_machine, want->backup_machine);
              EXPECT_EQ(got->backup_slots, want->backup_slots);
              EXPECT_EQ(got->vm_machine, placement.vm_machine);
            }
          });
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(planned, 100);
  EXPECT_GT(infeasible, 10);
}

TEST(SurvivableOracle, KernelsMatchBruteForceUnderSurvivableChurn) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    stats::Rng fabric_rng(seed + 100);
    for (const topology::Topology& topo : OracleFabrics(fabric_rng)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " + topo.Describe());
      RunSurvivableOracleChurn(
          topo, seed + 100, 40,
          [&](const NetworkManager& manager, stats::Rng& rng) {
            ExpectKernelsMatchBruteForce(manager.ledger(), rng);
            bool valid = true;
            for (topology::VertexId v = 1; v < topo.num_vertices(); ++v) {
              valid = valid && BruteValidWith(manager.ledger(), v, 0, 0, 0);
            }
            EXPECT_EQ(manager.StateValid(), valid);
          });
    }
  }
}

TEST(SurvivableOracle, KernelsMatchBruteForceUnderDirectLedgerChurn) {
  // Direct ledger churn reaches states admission never builds: many
  // records per domain, deterministic-only and mean-only (zero-variance)
  // domain states whose variance later leaves zero, invalid no-failure
  // states, drained links and RebuildSums.
  const topology::Topology topo = topology::BuildTwoTier(2, 3, 4, 1000, 2.0);
  const std::vector<topology::VertexId>& machines = topo.machines();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    stats::Rng rng(seed);
    net::LinkLedger ledger(topo, 0.05);
    std::vector<net::RequestId> live;
    net::RequestId next_id = 1;
    for (int step = 0; step < 400; ++step) {
      const double r = rng.UniformDouble();
      const topology::VertexId v = static_cast<topology::VertexId>(
          rng.UniformInt(1, topo.num_vertices() - 1));
      if (r < 0.6) {
        const net::RequestId id = next_id++;
        live.push_back(id);
        for (int k = static_cast<int>(rng.UniformInt(1, 3)); k > 0; --k) {
          const topology::VertexId link = static_cast<topology::VertexId>(
              rng.UniformInt(1, topo.num_vertices() - 1));
          const double cap = topo.uplink_capacity(link) / 6;
          const topology::VertexId domain = machines[rng.UniformInt(0, 4)];
          switch (rng.UniformInt(0, 5)) {
            case 0:
              ledger.AddStochastic(link, id, rng.Uniform(0, cap),
                                   rng.Uniform(0, cap * cap / 8));
              break;
            case 1:
              ledger.AddDeterministic(link, id, rng.Uniform(0, cap));
              break;
            case 2:  // deterministic-only domain state
              ledger.AddBackup(link, id, domain, 0, 0, rng.Uniform(0, cap));
              break;
            case 3:  // mean-only: zero variance
              ledger.AddBackup(link, id, domain, rng.Uniform(0, cap), 0, 0);
              break;
            case 4:
              ledger.AddBackup(link, id, domain, rng.Uniform(0, cap),
                               rng.Uniform(0, cap * cap / 8), 0);
              break;
            default:  // variance-only
              ledger.AddBackup(link, id, domain, 0,
                               rng.Uniform(0, cap * cap / 8), 0);
              break;
          }
        }
      } else if (r < 0.85 && !live.empty()) {
        const size_t i =
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1);
        ledger.RemoveRequest(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (r < 0.95) {
        ledger.SetLinkState(v, !ledger.link_up(v));
      } else {
        ledger.RebuildSums(v);
      }
      if (step % 8 == 0) ExpectKernelsMatchBruteForce(ledger, rng);
    }
  }
}

}  // namespace
}  // namespace svc
