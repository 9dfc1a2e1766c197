// The svcctl command interpreter: parsing, admission semantics, error
// handling, and script execution.
#include "cli/interpreter.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cli/daemon.h"
#include "obs/decision_log.h"
#include "topology/builders.h"

namespace svc::cli {
namespace {

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest()
      : topo_(topology::BuildTwoTier(2, 3, 4, 1000, 2.0)),
        interpreter_(topo_, 0.05) {}

  std::string Exec(const std::string& line, bool* ok = nullptr) {
    std::ostringstream out;
    const bool result = interpreter_.Execute(line, out);
    if (ok != nullptr) *ok = result;
    return out.str();
  }

  topology::Topology topo_;
  Interpreter interpreter_;
};

TEST_F(InterpreterTest, BlankAndCommentLinesSucceedSilently) {
  bool ok = false;
  EXPECT_EQ(Exec("", &ok), "");
  EXPECT_TRUE(ok);
  EXPECT_EQ(Exec("   # a comment", &ok), "");
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, AdmitHomogeneous) {
  bool ok = false;
  const std::string out = Exec("admit 1 homogeneous 6 100 40", &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("placed"), std::string::npos);
  EXPECT_TRUE(interpreter_.manager().IsLive(1));
}

TEST_F(InterpreterTest, AdmitDeterministicAndRelease) {
  bool ok = false;
  Exec("admit 2 deterministic 4 100", &ok);
  EXPECT_TRUE(ok);
  const std::string out = Exec("release 2", &ok);
  EXPECT_TRUE(ok);
  EXPECT_NE(out.find("done"), std::string::npos);
  EXPECT_FALSE(interpreter_.manager().IsLive(2));
}

TEST_F(InterpreterTest, AdmitHeterogeneous) {
  bool ok = false;
  const std::string out =
      Exec("admit 3 heterogeneous 300:150 100:20 50:5", &ok);
  // Needs a heterogeneous-capable allocator first.
  EXPECT_FALSE(ok);
  Exec("allocator hetero-heuristic", &ok);
  EXPECT_TRUE(ok);
  const std::string retry =
      Exec("admit 3 heterogeneous 300:150 100:20 50:5", &ok);
  EXPECT_TRUE(ok) << retry;
}

TEST_F(InterpreterTest, RejectionReportsReason) {
  bool ok = true;
  const std::string out = Exec("admit 4 homogeneous 100 100 40", &ok);
  EXPECT_FALSE(ok);  // 100 VMs > 24 slots
  EXPECT_NE(out.find("REJECTED"), std::string::npos);
  EXPECT_NE(out.find("CAPACITY"), std::string::npos);
}

TEST_F(InterpreterTest, ShowCommands) {
  Exec("admit 1 homogeneous 6 100 40");
  bool ok = false;
  EXPECT_NE(Exec("show slots", &ok).find("18 free of 24"),
            std::string::npos);
  EXPECT_TRUE(ok);
  EXPECT_NE(Exec("show occupancy 3", &ok).find("link"), std::string::npos);
  EXPECT_TRUE(ok);
  EXPECT_NE(Exec("show placement 1", &ok).find("6 VMs"), std::string::npos);
  EXPECT_TRUE(ok);
  EXPECT_NE(Exec("show tenants", &ok).find("1 live"), std::string::npos);
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, ShowPlacementOfUnknownTenantFails) {
  bool ok = true;
  EXPECT_NE(Exec("show placement 99", &ok).find("not live"),
            std::string::npos);
  EXPECT_FALSE(ok);
}

TEST_F(InterpreterTest, Asserts) {
  bool ok = false;
  EXPECT_NE(Exec("assert valid", &ok).find("ok"), std::string::npos);
  EXPECT_TRUE(ok);
  Exec("admit 1 homogeneous 4 50 10");
  EXPECT_NE(Exec("assert live 1", &ok).find("ok"), std::string::npos);
  EXPECT_TRUE(ok);
  EXPECT_NE(Exec("assert live 2", &ok).find("FAILED"), std::string::npos);
  EXPECT_FALSE(ok);
}

TEST_F(InterpreterTest, UnknownCommandsAndAllocators) {
  bool ok = true;
  EXPECT_NE(Exec("frobnicate", &ok).find("unknown command"),
            std::string::npos);
  EXPECT_FALSE(ok);
  EXPECT_NE(Exec("allocator warp-drive", &ok).find("unknown allocator"),
            std::string::npos);
  EXPECT_FALSE(ok);
  // Still functional afterwards.
  Exec("allocator oktopus", &ok);
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, MalformedAdmitArguments) {
  bool ok = true;
  EXPECT_FALSE(interpreter_.Execute("admit", std::cout));
  Exec("admit x homogeneous 4 100 10", &ok);
  EXPECT_FALSE(ok);
  Exec("admit 5 homogeneous 4 abc 10", &ok);
  EXPECT_FALSE(ok);
  Exec("admit 5 heterogeneous 100-10", &ok);
  EXPECT_FALSE(ok);
  EXPECT_EQ(interpreter_.manager().live_count(), 0u);
}

TEST_F(InterpreterTest, ScriptRunCountsFailures) {
  std::istringstream script(
      "admit 1 homogeneous 4 100 30\n"
      "admit 2 deterministic 4 50\n"
      "bogus command\n"
      "assert live 1\n"
      "release 1\n"
      "assert live 1\n");  // fails: released
  std::ostringstream out;
  EXPECT_EQ(interpreter_.Run(script, out), 2);
  EXPECT_TRUE(interpreter_.manager().IsLive(2));
}

TEST_F(InterpreterTest, SnapshotSaveAndLoad) {
  const std::string path = ::testing::TempDir() + "/cli_snapshot.txt";
  bool ok = false;
  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  Exec("snapshot save " + path, &ok);
  EXPECT_TRUE(ok);
  // A fresh interpreter on the same topology restores the tenant.
  Interpreter fresh(topo_, 0.05);
  std::ostringstream out;
  EXPECT_TRUE(fresh.Execute("snapshot load " + path, out));
  EXPECT_TRUE(fresh.manager().IsLive(1));
  // Loading into a non-empty manager fails loudly.
  EXPECT_FALSE(fresh.Execute("snapshot load " + path, out));
}

TEST_F(InterpreterTest, SnapshotBadUsage) {
  bool ok = true;
  Exec("snapshot", &ok);
  EXPECT_FALSE(ok);
  Exec("snapshot frobnicate /tmp/x", &ok);
  EXPECT_FALSE(ok);
  Exec("snapshot load /nonexistent/path.txt", &ok);
  EXPECT_FALSE(ok);
}

// Snapshots carry tenant ids as JSON numbers, so commands take only ids a
// double holds exactly.
TEST_F(InterpreterTest, TenantIdsBeyondSafeIntegersAreRefused) {
  bool ok = true;
  for (const char* line : {"admit 9007199254740992 homogeneous 2 100 40",
                           "admit -9007199254740992 deterministic 2 100",
                           "batch 3 9007199254740990 homogeneous 2 100 40"}) {
    SCOPED_TRACE(line);
    EXPECT_NE(Exec(line, &ok).find("tenant ids must be integers in"),
              std::string::npos);
    EXPECT_FALSE(ok);
  }
  EXPECT_EQ(interpreter_.manager().live_count(), 0u);
  Exec("admit 9007199254740991 homogeneous 2 100 40", &ok);
  EXPECT_TRUE(ok);
  Exec("batch 2 -9007199254740991 homogeneous 2 100 40", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(interpreter_.manager().live_count(), 3u);
}

TEST_F(InterpreterTest, ReleaseUnknownIsNoopSuccess) {
  bool ok = false;
  EXPECT_NE(Exec("release 77", &ok).find("no-op"), std::string::npos);
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, FailRecoverFaultsDrill) {
  bool ok = false;
  EXPECT_EQ(Exec("faults", &ok), "faults: none\n");
  EXPECT_TRUE(ok);

  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  const topology::VertexId machine =
      interpreter_.manager().placement_of(1)->vm_machine[0];

  // Default policy is reallocate: the tenant survives the machine fault.
  std::string out =
      Exec("fail machine " + std::to_string(machine), &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("1 recovered"), std::string::npos) << out;
  EXPECT_NE(out.find("policy reallocate"), std::string::npos) << out;
  EXPECT_TRUE(interpreter_.manager().IsLive(1));
  EXPECT_TRUE(interpreter_.manager().IsFailed(machine));

  out = Exec("faults", &ok);
  EXPECT_TRUE(ok);
  EXPECT_NE(out.find("machine:" + std::to_string(machine)),
            std::string::npos)
      << out;

  // Double fault fails; recovery succeeds exactly once.
  Exec("fail machine " + std::to_string(machine), &ok);
  EXPECT_FALSE(ok);
  EXPECT_EQ(Exec("recover " + std::to_string(machine), &ok),
            "recover " + std::to_string(machine) + ": done\n");
  EXPECT_TRUE(ok);
  Exec("recover " + std::to_string(machine), &ok);
  EXPECT_FALSE(ok);
  EXPECT_EQ(Exec("faults", &ok), "faults: none\n");
}

TEST_F(InterpreterTest, PolicyEvictReportsReasonCodes) {
  bool ok = false;
  EXPECT_EQ(Exec("policy evict", &ok), "policy: evict\n");
  EXPECT_TRUE(ok);
  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  const topology::VertexId machine =
      interpreter_.manager().placement_of(1)->vm_machine[0];
  const std::string out =
      Exec("fail machine " + std::to_string(machine), &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("1 evicted"), std::string::npos) << out;
  EXPECT_NE(out.find("evict:1:policy"), std::string::npos) << out;
  EXPECT_FALSE(interpreter_.manager().IsLive(1));
  // Failed elements refuse new work until recovered; a drained datacenter
  // still admits after recovery.
  Exec("recover " + std::to_string(machine), &ok);
  EXPECT_TRUE(ok);
  Exec("assert valid", &ok);
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, FaultCommandBadUsage) {
  bool ok = true;
  Exec("fail", &ok);
  EXPECT_FALSE(ok);
  Exec("fail router 3", &ok);
  EXPECT_FALSE(ok);
  Exec("fail machine notanumber", &ok);
  EXPECT_FALSE(ok);
  Exec("fail link 0", &ok);  // root has no uplink
  EXPECT_FALSE(ok);
  Exec("recover", &ok);
  EXPECT_FALSE(ok);
  Exec("faults now", &ok);
  EXPECT_FALSE(ok);
  Exec("policy smite", &ok);
  EXPECT_FALSE(ok);
}

// Vertex 0 is in range but is the root, which has no uplink: the refusal
// says so instead of reusing the out-of-range message, and changes nothing.
TEST_F(InterpreterTest, FailLinkOfRootNamesTheRoot) {
  bool ok = false;
  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  const topology::VertexId machine = topo_.machines()[0];
  Exec("fail link " + std::to_string(machine), &ok);
  ASSERT_TRUE(ok);
  const core::NetworkManager& manager = interpreter_.manager();
  const auto faults = manager.Faults();
  const auto live = manager.live_count();
  const auto placement = manager.placement_of(1)->vm_machine;

  const std::string out = Exec("fail link 0", &ok);
  EXPECT_FALSE(ok);
  EXPECT_EQ(out,
            "fail link 0: INVALID_ARGUMENT: vertex 0 is the root and has no "
            "uplink to fail\n");
  EXPECT_EQ(manager.Faults(), faults);
  EXPECT_EQ(manager.live_count(), live);
  EXPECT_EQ(manager.placement_of(1)->vm_machine, placement);
}

// Integer arguments are range-checked before use: a VM count past INT_MAX
// or a vertex id past the fabric used to wrap into a valid one (or abort),
// and a huge batch count used to throw from `reserve`.  Each line must get
// an error and leave slots, faults and live tenants as they were.
TEST_F(InterpreterTest, OutOfRangeIntegersChangeNothing) {
  const std::vector<topology::VertexId>& machines = topo_.machines();
  ASSERT_GE(machines.size(), 5u);
  bool ok = false;
  Exec("fail machine " + std::to_string(machines[0]), &ok);
  ASSERT_TRUE(ok);
  Exec("drain " + std::to_string(machines[1]), &ok);
  ASSERT_TRUE(ok);
  Exec("admit 1 homogeneous 2 100 40", &ok);
  ASSERT_TRUE(ok);
  // The id a 32-bit cast turns into `v`.
  const auto wrapped = [](topology::VertexId v) {
    return std::to_string((int64_t{1} << 32) + v);
  };
  const core::NetworkManager& manager = interpreter_.manager();
  const auto state = [&] {
    return std::make_tuple(manager.slots().total_free(), manager.Faults(),
                           manager.live_count(),
                           manager.placement_of(1)->vm_machine);
  };
  // Ordered so that, where a line used to throw, nothing is left after it.
  const std::vector<std::string> lines = {
      "admit 2 homogeneous 4294967298 100 40",
      "admit 3 deterministic 4294967298 100",
      "batch 2 10 homogeneous 4294967298 100 40",
      "batch 2 20 deterministic 4294967298 100",
      "batch 4294967297 30 homogeneous 2 100 40",
      "fail link " + wrapped(machines[2]),
      "fail machine " + wrapped(machines[3]),
      "drain " + wrapped(machines[4]),
      "uncordon " + wrapped(machines[1]),
      "recover " + wrapped(machines[0]),
      "admit 4 homogeneous 2147483648 100 40",
      "batch 1000000000000000 40 homogeneous 2 100 40",
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    const auto before = state();
    const std::string out = Exec(line, &ok);
    EXPECT_FALSE(ok) << out;
    EXPECT_EQ(out.rfind("error: ", 0), 0u) << out;
    EXPECT_EQ(state(), before);
  }
}

// The batch cap refuses before any reserve, so the limit is tested by its
// refusal alone.
TEST_F(InterpreterTest, BatchCapsAreRefusedBeforeAnythingStarts) {
  bool ok = true;
  const std::vector<std::string> lines = {
      "batch " + std::to_string(Interpreter::kMaxBatchCount + 1) +
          " 1 homogeneous 2 100 40",
      "batch 0 1 homogeneous 2 100 40",
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    EXPECT_NE(Exec(line, &ok).find("error: batch takes 1.."),
              std::string::npos);
    EXPECT_FALSE(ok);
  }
  EXPECT_EQ(interpreter_.manager().live_count(), 0u);
}

// `batch <count> <first-id> <kind args>` admits the tenants one after
// another and reports the tally.  The form with a leading worker count is
// a usage error that changes nothing.
TEST_F(InterpreterTest, BatchAdmitsConsecutiveIdsAndRefusesTheWorkerForm) {
  const core::NetworkManager& manager = interpreter_.manager();
  bool ok = false;
  EXPECT_EQ(Exec("batch 3 10 homogeneous 4 100 20", &ok),
            "batch: 3 admitted, 0 rejected\n");
  EXPECT_TRUE(ok);
  EXPECT_EQ(Exec("batch 2 20 deterministic 2 100", &ok),
            "batch: 2 admitted, 0 rejected\n");
  EXPECT_TRUE(ok);
  // More VMs than the fabric has slots: every tenant is rejected.
  EXPECT_EQ(Exec("batch 2 30 homogeneous 100 100 20", &ok),
            "batch: 0 admitted, 2 rejected\n");
  EXPECT_TRUE(ok);
  for (const core::RequestId id : {10, 11, 12, 20, 21}) {
    EXPECT_TRUE(manager.IsLive(id)) << id;
  }
  EXPECT_EQ(manager.live_count(), 5u);

  const int free = manager.slots().total_free();
  for (const char* line : {"batch 4 3 40 homogeneous 4 100 20",
                           "batch 4 3 40 deterministic 4 100"}) {
    SCOPED_TRACE(line);
    EXPECT_EQ(Exec(line, &ok).rfind("error: batch <count> <first-id> ", 0),
              0u);
    EXPECT_FALSE(ok);
    EXPECT_EQ(manager.live_count(), 5u);
    EXPECT_EQ(manager.slots().total_free(), free);
  }
}

TEST_F(InterpreterTest, DrainMigratesAndUncordonReopens) {
  bool ok = false;
  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  const topology::VertexId machine =
      interpreter_.manager().placement_of(1)->vm_machine[0];

  const std::string out = Exec("drain " + std::to_string(machine), &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("migrated"), std::string::npos) << out;
  EXPECT_NE(out.find("machine cordoned"), std::string::npos) << out;
  // The tenant survived the drain; the machine is cordoned but not failed.
  EXPECT_TRUE(interpreter_.manager().IsLive(1));
  EXPECT_FALSE(interpreter_.manager().slots().machine_up(machine));
  EXPECT_FALSE(interpreter_.manager().IsFailed(machine));
  for (topology::VertexId vm :
       interpreter_.manager().placement_of(1)->vm_machine) {
    EXPECT_NE(vm, machine);
  }

  EXPECT_EQ(Exec("uncordon " + std::to_string(machine), &ok),
            "uncordon " + std::to_string(machine) + ": open\n");
  EXPECT_TRUE(ok);
  EXPECT_TRUE(interpreter_.manager().slots().machine_up(machine));
}

TEST_F(InterpreterTest, DrainAndUncordonBadUsage) {
  bool ok = true;
  Exec("drain", &ok);
  EXPECT_FALSE(ok);
  Exec("drain notanumber", &ok);
  EXPECT_FALSE(ok);
  Exec("uncordon", &ok);
  EXPECT_FALSE(ok);
  Exec("uncordon 0", &ok);  // the root is not a machine
  EXPECT_FALSE(ok);
}

// --- The introspection plane: health / tail / explain ---

TEST_F(InterpreterTest, HealthTailExplainReportDecisionProvenance) {
  obs::SetDecisionsEnabled(true);
  obs::ClearDecisions();
  bool ok = false;
  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  Exec("admit 2 homogeneous 100 100 40", &ok);  // 100 VMs > 24 slots
  EXPECT_FALSE(ok);

  const std::string health = Exec("health", &ok);
  EXPECT_TRUE(ok) << health;
  EXPECT_NE(health.find("1 tenant(s) live"), std::string::npos) << health;
  EXPECT_NE(health.find("state valid"), std::string::npos) << health;

  const std::string tail = Exec("tail 5", &ok);
  EXPECT_TRUE(ok) << tail;
  EXPECT_NE(tail.find("tenant 1"), std::string::npos) << tail;
  EXPECT_NE(tail.find("tenant 2"), std::string::npos) << tail;

  // `explain` answers the paper's question for a specific tenant: outcome,
  // commit path, and the binding links with their condition-(4) slack.
  const std::string admitted = Exec("explain 1", &ok);
  EXPECT_TRUE(ok) << admitted;
  EXPECT_NE(admitted.find("admit"), std::string::npos) << admitted;
  EXPECT_NE(admitted.find("serial"), std::string::npos) << admitted;
  EXPECT_NE(admitted.find("slack"), std::string::npos) << admitted;

  const std::string rejected = Exec("explain 2", &ok);
  EXPECT_TRUE(ok) << rejected;
  EXPECT_NE(rejected.find("reject"), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("capacity"), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("slack"), std::string::npos) << rejected;
  obs::SetDecisionsEnabled(false);
}

TEST_F(InterpreterTest, ExplainWithoutRecordFails) {
  obs::SetDecisionsEnabled(true);
  obs::ClearDecisions();
  bool ok = true;
  const std::string out = Exec("explain 99", &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(out.find("no decision recorded"), std::string::npos) << out;
  Exec("explain", &ok);
  EXPECT_FALSE(ok);
  Exec("explain notanumber", &ok);
  EXPECT_FALSE(ok);
  obs::SetDecisionsEnabled(false);
}

TEST_F(InterpreterTest, TailNotesDisabledLoggingAndBadUsage) {
  obs::SetDecisionsEnabled(false);
  bool ok = false;
  const std::string out = Exec("tail", &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("disabled"), std::string::npos) << out;
  Exec("tail zero", &ok);
  EXPECT_FALSE(ok);
  Exec("tail 0", &ok);
  EXPECT_FALSE(ok);
  Exec("health now", &ok);
  EXPECT_FALSE(ok);
}

// --- svcctl --connect (cli/daemon.h RunClient) ---

TEST(SvcctlConnect, MissingDaemonExitsTwo) {
  // The exit-code contract svcctl --connect relies on: a connection
  // failure is 2, distinct from "a command failed" (1).
  std::istringstream in("health\n");
  std::ostringstream out;
  EXPECT_EQ(RunClient(::testing::TempDir() + "cli_no_daemon.sock", in, out),
            2);
  EXPECT_NE(out.str().find("error: connect"), std::string::npos) << out.str();
}

TEST(SvcctlConnect, BadSocketPathExitsTwo) {
  std::istringstream in("health\n");
  std::ostringstream out;
  EXPECT_EQ(RunClient("", in, out), 2);
  EXPECT_EQ(RunClient(std::string(200, 'x'), in, out), 2);
}

}  // namespace
}  // namespace svc::cli
