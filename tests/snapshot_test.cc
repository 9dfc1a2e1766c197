// Snapshot save/restore: ground-truth replay (backup groups included),
// rollback on failure, strict reading of the JSON document, and
// topology/epsilon mismatch handling.
#include "svc/snapshot.h"

#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "snapshot_fixture.h"
#include "svc/admission_pipeline.h"
#include "svc/hetero_heuristic.h"
#include "svc/homogeneous_search.h"
#include "topology/builders.h"

namespace svc::core {
namespace {

topology::Topology TestTopo() {
  return topology::BuildTwoTier(2, 3, 4, 1000, 2.0);
}

TEST(Snapshot, EmptyManagerRoundTrip) {
  const topology::Topology topo = TestTopo();
  NetworkManager manager(topo, 0.05);
  std::stringstream buffer;
  SaveSnapshot(manager, buffer);
  NetworkManager restored(topo, 0.05);
  EXPECT_TRUE(RestoreSnapshot(buffer, restored).ok());
  EXPECT_EQ(restored.live_count(), 0u);
}

TEST(Snapshot, RoundTripPreservesStateExactly) {
  const topology::Topology topo = TestTopo();
  NetworkManager manager(topo, 0.05);
  HomogeneousDpAllocator dp;
  HeteroHeuristicAllocator heuristic;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 8, 150, 70), dp).ok());
  ASSERT_TRUE(manager.Admit(Request::Deterministic(2, 4, 200), dp).ok());
  ASSERT_TRUE(manager
                  .Admit(Request::Heterogeneous(
                             3, {{300, 10000}, {100, 400}, {50, 25}}),
                         heuristic)
                  .ok());

  std::stringstream buffer;
  SaveSnapshot(manager, buffer);

  NetworkManager restored(topo, 0.05);
  ASSERT_TRUE(RestoreSnapshot(buffer, restored).ok());
  EXPECT_EQ(restored.live_count(), 3u);
  EXPECT_TRUE(restored.StateValid());
  EXPECT_EQ(restored.slots().total_free(), manager.slots().total_free());
  EXPECT_EQ(restored.ledger().TotalRecords(),
            manager.ledger().TotalRecords());
  EXPECT_NEAR(restored.MaxOccupancy(), manager.MaxOccupancy(), 1e-12);
  // Placements identical per tenant.
  for (int64_t id : {1, 2, 3}) {
    ASSERT_NE(restored.placement_of(id), nullptr) << id;
    EXPECT_EQ(restored.placement_of(id)->vm_machine,
              manager.placement_of(id)->vm_machine)
        << id;
  }
  // And releases still work on the restored manager.
  restored.Release(1);
  restored.Release(2);
  restored.Release(3);
  EXPECT_EQ(restored.slots().total_free(), topo.total_slots());
  EXPECT_EQ(restored.ledger().TotalRecords(), 0u);
}

TEST(Snapshot, SecondRoundTripIsIdentical) {
  const topology::Topology topo = TestTopo();
  NetworkManager manager(topo, 0.05);
  HomogeneousDpAllocator dp;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(5, 6, 100, 40), dp).ok());
  std::stringstream first;
  SaveSnapshot(manager, first);
  NetworkManager restored(topo, 0.05);
  ASSERT_TRUE(RestoreSnapshot(first, restored).ok());
  std::stringstream second;
  SaveSnapshot(restored, second);
  std::stringstream first_again;
  SaveSnapshot(manager, first_again);
  EXPECT_EQ(second.str(), first_again.str());
}

TEST(Snapshot, RestoreIntoNonEmptyManagerFails) {
  const topology::Topology topo = TestTopo();
  NetworkManager manager(topo, 0.05);
  HomogeneousDpAllocator dp;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 2, 10, 1), dp).ok());
  std::stringstream buffer("{\"tenants\":[]}");
  const auto status = RestoreSnapshot(buffer, manager);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(manager.live_count(), 1u);  // untouched
}

// The snapshot document wrapping one tenant record (JSON object text).
std::string OneTenant(const std::string& record) {
  return "{\"tenants\":[" + record + "]}";
}

// Each case must be refused with kInvalidArgument and an error naming
// `where`, leaving the target empty with every slot free.
struct BadCase {
  std::string text;
  std::string where;
};

void ExpectRefused(const std::vector<BadCase>& cases) {
  const topology::Topology topo = TestTopo();
  for (const BadCase& c : cases) {
    SCOPED_TRACE(c.text);
    NetworkManager manager(topo, 0.05);
    std::stringstream buffer(c.text);
    const auto status = RestoreSnapshot(buffer, manager);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::ErrorCode::kInvalidArgument);
    EXPECT_NE(status.message().find(c.where), std::string::npos)
        << status.message();
    EXPECT_EQ(manager.live_count(), 0u) << "rollback failed";
    EXPECT_EQ(manager.slots().total_free(), topo.total_slots());
    EXPECT_EQ(manager.ledger().TotalRecords(), 0u);
  }
}

TEST(Snapshot, MalformedInputRejectedAndRolledBack) {
  ExpectRefused({
      {"garbage\n", "json: "},
      // A member restore would ignore is refused, not skipped.
      {"{\"tenants\":[],\"epsilon\":0.05}", "snapshot.epsilon: unknown key"},
      {OneTenant("{\"id\":1,\"mean\":\"bogus\",\"variance\":[1],"
                 "\"place\":[3,3]}"),
       "snapshot.tenants[0].mean: expected array"},
      // A valid first tenant, then a second that overfills machine 3 (four
      // slots): all or nothing, so tenant 1 is rolled back.
      {"{\"tenants\":["
       "{\"id\":1,\"mean\":[10],\"variance\":[1],\"place\":[3,3]},"
       "{\"id\":2,\"mean\":[10],\"variance\":[1],\"place\":[3,3,3]}]}",
       "snapshot.tenants[1]: tenant 2 does not fit"},
      // Truncated document.
      {"{\"tenants\":[{\"id\":1,\"mean\":[10],\"variance\":[1],"
       "\"place\":[3,3]}",
       "json: "},
  });
}

TEST(Snapshot, CorruptHeadersAndMomentsRejectedWithoutCrash) {
  ExpectRefused({
      // More VMs than the datacenter has slots (TestTopo: 24).
      {OneTenant("{\"id\":1,\"mean\":[10],\"variance\":[1],\"place\":["
                 "3,3,3,3,4,4,4,4,5,5,5,5,6,6,6,6,7,7,7,7,8,8,8,8,3]}"),
       "snapshot.tenants[0].place: tenant 1 has 25 VMs but the datacenter "
       "has 24 slots"},
      // n is len(place); a moment list of neither 1 nor n entries.
      {OneTenant("{\"id\":1,\"mean\":[10,10],\"variance\":[1,1],"
                 "\"place\":[3,3,4]}"),
       "snapshot.tenants[0].mean: has 2 entries; want 1 or len(place) = 3"},
      {OneTenant("{\"id\":1,\"mean\":[10,10],\"variance\":[1],"
                 "\"place\":[3,4]}"),
       "snapshot.tenants[0].variance"},
      // Non-finite moments have no JSON spelling.
      {OneTenant("{\"id\":1,\"mean\":[NaN],\"variance\":[1],"
                 "\"place\":[3,3]}"),
       "json: "},
      {OneTenant("{\"id\":1,\"mean\":[10],\"variance\":[1e999],"
                 "\"place\":[3,3]}"),
       "json: number out of range"},
      // Negative variance.
      {OneTenant("{\"id\":1,\"mean\":[10],\"variance\":[-5],"
                 "\"place\":[3,3]}"),
       "snapshot.tenants[0].variance[0]: must be >= 0 and finite"},
      // Heterogeneous moments, one of them negative.
      {OneTenant("{\"id\":1,\"mean\":[10,-1],\"variance\":[1,1],"
                 "\"place\":[3,3]}"),
       "snapshot.tenants[0].mean[1]"},
      // Missing moments and placement.
      {OneTenant("{\"id\":1,\"mean\":[10]}"),
       "snapshot.tenants[0].variance: must be non-empty"},
      // Ids not strictly increasing, and one a double cannot carry exactly.
      {"{\"tenants\":["
       "{\"id\":2,\"mean\":[10],\"variance\":[1],\"place\":[3]},"
       "{\"id\":2,\"mean\":[10],\"variance\":[1],\"place\":[4]}]}",
       "snapshot.tenants[1].id: must exceed the previous tenant's id 2"},
      {OneTenant("{\"id\":9007199254740993,\"mean\":[10],"
                 "\"variance\":[1],\"place\":[3]}"),
       "snapshot.tenants[0].id: expected integer"},
      // A backup machine without slots, and a backup on a switch.
      {OneTenant("{\"id\":1,\"mean\":[10],\"variance\":[1],"
                 "\"place\":[3],\"backup_machine\":4}"),
       "snapshot.tenants[0].backup_slots: must be 0 exactly when"},
      {OneTenant("{\"id\":1,\"mean\":[10],\"variance\":[1],"
                 "\"place\":[3],\"backup_machine\":1,"
                 "\"backup_slots\":1}"),
       "snapshot.tenants[0].backup_machine: tenant 1 names vertex 1, not a "
       "machine"},
  });
}

TEST(Snapshot, RestoreRefusesPlacementOnFailedMachine) {
  const topology::Topology topo = TestTopo();
  NetworkManager manager(topo, 0.05);
  HomogeneousDpAllocator dp;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 4, 80, 30), dp).ok());
  const topology::VertexId machine = manager.placement_of(1)->vm_machine[0];
  std::stringstream buffer;
  SaveSnapshot(manager, buffer);

  NetworkManager target(topo, 0.05);
  ASSERT_TRUE(
      target.HandleFault(FaultKind::kMachine, machine, RecoveryPolicy::kEvict, dp)
          .ok());
  const auto status = RestoreSnapshot(buffer, target);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("currently-failed"), std::string::npos)
      << status.ToText();
  EXPECT_EQ(target.live_count(), 0u);
  // After recovery the same snapshot restores cleanly.
  ASSERT_TRUE(target.HandleRecovery(machine).ok());
  std::stringstream again;
  SaveSnapshot(manager, again);
  EXPECT_TRUE(RestoreSnapshot(again, target).ok());
  EXPECT_EQ(target.live_count(), 1u);
}

// Backup groups survive the round trip: every tenant keeps its
// backup_machine/backup_slots, the shared-backup ledger rows come back on
// every link, and a machine failure switches over the same tenants on the
// restored manager as on the live one.
TEST(Snapshot, RoundTripKeepsBackupGroupsAndSwitchover) {
  const topology::Topology topo = ProtectedTenantsTopo();
  NetworkManager manager(topo, 0.05);
  ASSERT_TRUE(AdmitProtectedTenants(manager));
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(manager, buffer).ok());
  NetworkManager restored(topo, 0.05);
  ASSERT_TRUE(RestoreSnapshot(buffer, restored).ok());

  int protected_tenants = 0;
  std::map<topology::VertexId, int> protected_primaries;
  for (int64_t id : {1, 2, 3, 4}) {
    SCOPED_TRACE(id);
    const Placement* live = manager.placement_of(id);
    const Placement* back = restored.placement_of(id);
    ASSERT_NE(live, nullptr);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->vm_machine, live->vm_machine);
    EXPECT_EQ(back->backup_machine, live->backup_machine);
    EXPECT_EQ(back->backup_slots, live->backup_slots);
    EXPECT_EQ(back->survivable(), id != 4);
    if (!live->survivable()) continue;
    ++protected_tenants;
    for (const auto& [machine, count] : live->MachineCounts()) {
      if (machine != live->backup_machine) ++protected_primaries[machine];
    }
  }
  EXPECT_EQ(protected_tenants, 3);
  size_t backup_rows = 0;
  for (topology::VertexId v = 1; v < topo.num_vertices(); ++v) {
    EXPECT_EQ(restored.ledger().link(v).backup.size(),
              manager.ledger().link(v).backup.size())
        << "link " << v;
    backup_rows += manager.ledger().link(v).backup.size();
  }
  EXPECT_GT(backup_rows, 0u);
  EXPECT_EQ(restored.ledger().TotalRecords(), manager.ledger().TotalRecords());
  EXPECT_EQ(restored.slots().total_free(), manager.slots().total_free());
  EXPECT_TRUE(restored.StateValid());

  // The machine hosting primaries of the most protected tenants (lowest id
  // on ties) fails on both managers.
  topology::VertexId target = topology::kNoVertex;
  for (const auto& [machine, count] : protected_primaries) {
    if (target == topology::kNoVertex || count > protected_primaries[target]) {
      target = machine;
    }
  }
  ASSERT_NE(target, topology::kNoVertex);
  const HomogeneousDpAllocator dp;
  auto switched = [&](NetworkManager& m) {
    const auto outcome = m.HandleFault(FaultKind::kMachine, target,
                                       RecoveryPolicy::kSwitchover, dp);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToText();
    std::vector<int64_t> ids;
    if (outcome.ok()) {
      for (const TenantOutcome& t : outcome->tenants) {
        if (t.switched_over) ids.push_back(t.id);
      }
    }
    return ids;
  };
  const std::vector<int64_t> live_switched = switched(manager);
  EXPECT_EQ(static_cast<int>(live_switched.size()),
            protected_primaries[target]);
  EXPECT_EQ(switched(restored), live_switched);
}

TEST(Snapshot, RestoreRefusesBackupGroupOnFailedMachine) {
  const topology::Topology topo = ProtectedTenantsTopo();
  NetworkManager manager(topo, 0.05);
  ASSERT_TRUE(AdmitProtectedTenants(manager));
  const topology::VertexId backup = manager.placement_of(1)->backup_machine;
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(manager, buffer).ok());

  NetworkManager target(topo, 0.05);
  const HomogeneousDpAllocator dp;
  ASSERT_TRUE(target
                  .HandleFault(FaultKind::kMachine, backup,
                               RecoveryPolicy::kEvict, dp)
                  .ok());
  const auto status = RestoreSnapshot(buffer, target);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("backup_machine: tenant"), std::string::npos)
      << status.ToText();
  EXPECT_NE(status.message().find("currently-failed"), std::string::npos)
      << status.ToText();
  EXPECT_EQ(target.live_count(), 0u);
}

TEST(Snapshot, TopologyMismatchRejected) {
  const topology::Topology big = TestTopo();
  NetworkManager manager(big, 0.05);
  HomogeneousDpAllocator dp;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 8, 150, 70), dp).ok());
  std::stringstream buffer;
  SaveSnapshot(manager, buffer);

  // A smaller datacenter cannot host the snapshot's machine ids.
  const topology::Topology small = topology::BuildStar(2, 4, 1000);
  NetworkManager target(small, 0.05);
  const auto status = RestoreSnapshot(buffer, target);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(target.live_count(), 0u);
}

TEST(Snapshot, TighterEpsilonTargetMayReject) {
  const topology::Topology topo = topology::BuildStar(2, 2, 260);
  NetworkManager loose(topo, 0.3);
  HomogeneousDpAllocator dp;
  // Near-boundary request feasible only under the loose epsilon.
  ASSERT_TRUE(loose.Admit(Request::Homogeneous(1, 4, 100, 60), dp).ok());
  std::stringstream buffer;
  SaveSnapshot(loose, buffer);
  NetworkManager tight(topo, 0.001);
  const auto status = RestoreSnapshot(buffer, tight);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(tight.live_count(), 0u);
}

TEST(SnapshotPipeline, DrainedPipelineRoundTripsBitIdentically) {
  // Run a batch, then save/restore: the snapshot must reproduce the exact
  // books the batch produced.
  const topology::Topology topo = TestTopo();
  NetworkManager manager(topo, 0.05);
  HomogeneousDpAllocator dp;
  AdmissionPipeline pipeline(manager);
  std::vector<Request> requests;
  for (int i = 0; i < 10; ++i) {
    requests.push_back(
        Request::Homogeneous(100 + i, 2 + i % 4, 100.0 + 50 * (i % 3), 40));
  }
  pipeline.AdmitBatch(requests, dp);

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(manager, buffer).ok());
  NetworkManager restored(topo, 0.05);
  ASSERT_TRUE(RestoreSnapshot(buffer, restored).ok());
  EXPECT_EQ(restored.live_count(), manager.live_count());
  EXPECT_EQ(restored.slots().total_free(), manager.slots().total_free());
  EXPECT_EQ(restored.MaxOccupancy(), manager.MaxOccupancy());
  for (const Request& r : requests) {
    const Placement* original = manager.placement_of(r.id());
    const Placement* replayed = restored.placement_of(r.id());
    ASSERT_EQ(original == nullptr, replayed == nullptr) << r.id();
    if (original != nullptr) {
      EXPECT_EQ(replayed->vm_machine, original->vm_machine) << r.id();
    }
  }
}

TEST(Snapshot, FileRoundTrip) {
  const topology::Topology topo = TestTopo();
  NetworkManager manager(topo, 0.05);
  HomogeneousDpAllocator dp;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 4, 80, 30), dp).ok());
  const std::string path = ::testing::TempDir() + "/snapshot_roundtrip.json";
  ASSERT_TRUE(SaveSnapshotToFile(manager, path).ok());
  NetworkManager restored(topo, 0.05);
  ASSERT_TRUE(RestoreSnapshotFromFile(path, restored).ok());
  EXPECT_EQ(restored.live_count(), 1u);
  EXPECT_FALSE(
      RestoreSnapshotFromFile("/nonexistent/file.txt", restored).ok());
}

}  // namespace
}  // namespace svc::core
