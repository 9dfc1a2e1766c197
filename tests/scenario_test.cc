// Declarative scenario layer (sim/scenario.h): canonical serialization
// round-trips, every registry entry validates, the strict parser rejects
// unknown keys, and RunScenario replays bit-identically — across repeated
// runs (decision-stream identity) and across sweep thread counts
// (result-level identity), so scenario_run's --threads changes nothing but
// wall time.
#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/decision_log.h"
#include "util/json_reader.h"

namespace svc::sim {
namespace {

// Every deterministic field of two cells must match exactly, whichever
// discipline ran them; the wall-clock outputs (wall_s, and the values of
// recovery_latency_us, whose count still matches) are excluded by contract
// (see sim/metrics.h).
void ExpectCellsIdentical(const ScenarioCell& a, const ScenarioCell& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.axis_index, b.axis_index);
  EXPECT_EQ(a.axis_value, b.axis_value);
  EXPECT_EQ(a.online, b.online);
  const RunResult& x = a.result;
  const RunResult& y = b.result;
  EXPECT_EQ(x.accepted, y.accepted);
  EXPECT_EQ(x.rejected, y.rejected);
  EXPECT_EQ(x.unallocatable_jobs, y.unallocatable_jobs);
  EXPECT_EQ(x.total_completion_time, y.total_completion_time);
  EXPECT_EQ(x.simulated_seconds, y.simulated_seconds);
  EXPECT_EQ(x.outage.outage_link_seconds, y.outage.outage_link_seconds);
  EXPECT_EQ(x.outage.busy_link_seconds, y.outage.busy_link_seconds);
  EXPECT_EQ(x.placement_levels, y.placement_levels);
  EXPECT_EQ(x.concurrency_samples, y.concurrency_samples);
  EXPECT_EQ(x.max_occupancy_samples, y.max_occupancy_samples);
  EXPECT_EQ(x.backup_share_samples, y.backup_share_samples);
  EXPECT_EQ(x.faults_injected, y.faults_injected);
  EXPECT_EQ(x.fault_recoveries, y.fault_recoveries);
  EXPECT_EQ(x.tenants_affected, y.tenants_affected);
  EXPECT_EQ(x.tenants_recovered, y.tenants_recovered);
  EXPECT_EQ(x.tenants_evicted, y.tenants_evicted);
  EXPECT_EQ(x.tenants_switched, y.tenants_switched);
  EXPECT_EQ(x.planned_drains, y.planned_drains);
  EXPECT_EQ(x.tenants_migrated, y.tenants_migrated);
  EXPECT_EQ(x.failure_outage.outage_link_seconds,
            y.failure_outage.outage_link_seconds);
  EXPECT_EQ(x.failure_outage.busy_link_seconds,
            y.failure_outage.busy_link_seconds);
  EXPECT_EQ(x.recovery_latency_us.size(), y.recovery_latency_us.size());
  ASSERT_EQ(x.jobs.size(), y.jobs.size());
  for (size_t i = 0; i < x.jobs.size(); ++i) {
    EXPECT_EQ(x.jobs[i].id, y.jobs[i].id);
    EXPECT_EQ(x.jobs[i].arrival_time, y.jobs[i].arrival_time);
    EXPECT_EQ(x.jobs[i].start_time, y.jobs[i].start_time);
    EXPECT_EQ(x.jobs[i].finish_time, y.jobs[i].finish_time);
  }
}

TEST(ScenarioSerialization, RoundTripIsIdenticalForEveryBuiltin) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    const Scenario* scenario = FindScenario(name);
    ASSERT_NE(scenario, nullptr);
    const std::string once = SerializeScenario(*scenario);
    util::Result<Scenario> parsed = ParseScenario(once);
    ASSERT_TRUE(parsed) << parsed.status().ToText();
    const std::string twice = SerializeScenario(*parsed);
    EXPECT_EQ(once, twice);
    EXPECT_EQ(ScenarioConfigHash(*scenario), ScenarioConfigHash(*parsed));
  }
}

TEST(ScenarioSerialization, EveryBuiltinValidates) {
  ASSERT_FALSE(RegisteredScenarioNames().empty());
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    const Scenario* scenario = FindScenario(name);
    ASSERT_NE(scenario, nullptr);
    EXPECT_EQ(scenario->name, name);
    const util::Status status = ValidateScenario(*scenario);
    EXPECT_TRUE(status.ok()) << status.ToText();
  }
}

TEST(ScenarioSerialization, DefaultScenarioRoundTrips) {
  Scenario scenario;
  scenario.name = "unit";
  util::Result<Scenario> parsed = ParseScenario(SerializeScenario(scenario));
  ASSERT_TRUE(parsed) << parsed.status().ToText();
  EXPECT_EQ(SerializeScenario(scenario), SerializeScenario(*parsed));
}

TEST(ScenarioSerialization, UnknownTopLevelKeyIsRejected) {
  Scenario scenario;
  scenario.name = "unit";
  std::string text = SerializeScenario(scenario);
  ASSERT_EQ(text.front(), '{');
  text.insert(1, "\"bogus_key\":1,");
  util::Result<Scenario> parsed = ParseScenario(text);
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.status().ToText().find("bogus_key"), std::string::npos)
      << parsed.status().ToText();
}

TEST(ScenarioSerialization, UnknownNestedKeyIsRejected) {
  Scenario scenario;
  scenario.name = "unit";
  std::string text = SerializeScenario(scenario);
  const std::string anchor = "\"admission\":{";
  const size_t pos = text.find(anchor);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + anchor.size(), "\"mystery\":true,");
  util::Result<Scenario> parsed = ParseScenario(text);
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.status().ToText().find("mystery"), std::string::npos)
      << parsed.status().ToText();
}

TEST(ScenarioSerialization, TypeMismatchIsRejected) {
  util::Result<Scenario> parsed = ParseScenario("{\"seed\":\"not-a-number\"}");
  EXPECT_FALSE(parsed);
  // An int field takes neither a fraction nor a value past int32.
  EXPECT_FALSE(
      ParseScenario("{\"name\":\"x\",\"workload\":{\"num_jobs\":2.5}}"));
  EXPECT_FALSE(
      ParseScenario("{\"name\":\"x\",\"topology\":{\"racks\":2147483648}}"));
}

// The identity BENCH files carry.  RoundTripIsIdenticalForEveryBuiltin
// compares the code with itself, so a consistent reorder or a number-format
// change would pass it; these literals would not.
TEST(ScenarioIdentity, BuiltinConfigHashesArePinned) {
  const std::vector<std::pair<std::string, std::string>> pinned = {
      {"fig5", "c76dde654835c0e7"},
      {"fig6", "5f938bad7accf0ba"},
      {"fig7", "8e3d29ff544b7a82"},
      {"fig8", "734df9ac89d381ba"},
      {"fig9", "b6213be4ad39f1dc"},
      {"fig10", "2b75595c5df3bd8f"},
      {"guarantee_validation", "80953e1dc9153db6"},
      {"hetero_comparison", "5ac67637532e000b"},
      {"ablation_locality", "470ed22fb7f48bf7"},
      {"ablation_enforcement", "0f0f52d1cbc96484"},
      {"ablation_distribution", "4854cff0bef661d1"},
      {"ablation_ecmp", "2f555c9cc8a44f83"},
      {"ablation_percentile", "52134957166c7ff9"},
      {"fault_recovery", "22768b0a74ebf9f7"},
      {"fault_correlated", "c60d23e5b5a0ad4f"},
      {"fault_drill", "016c2778e220bdbb"},
      {"work_conserving", "06d49d0b9ff0e38e"},
      {"flash_crowd", "2be61b75e6dda5f1"},
      {"diurnal", "c1985f49a27a5e36"},
      {"daemon_default", "64209bc27bac0cc5"},
  };
  ASSERT_EQ(pinned.size(), RegisteredScenarioNames().size());
  for (const auto& [name, hash] : pinned) {
    SCOPED_TRACE(name);
    const Scenario* scenario = FindScenario(name);
    ASSERT_NE(scenario, nullptr);
    EXPECT_EQ(ScenarioConfigHash(*scenario), hash);
  }
}

TEST(ScenarioIdentity, CanonicalTextIsPinned) {
  Scenario scenario;
  scenario.variants.emplace_back();
  scenario.faults.scripted.emplace_back();
  scenario.faults.correlated.emplace_back();
  const std::string expected =
      R"({"name":"","description":"","seed":42,"max_seconds":2000000,)"
      R"("topology":{"racks":50,"machines_per_rack":20,"slots_per_machine":4,)"
      R"("racks_per_agg":10,"machine_link_mbps":1000,"oversubscription":2,)"
      R"("tor_trunk":1,"agg_trunk":1},)"
      R"("workload":{"num_jobs":500,"mean_job_size":49,"min_job_size":2,)"
      R"("max_job_size":400,"compute_time_lo":200,"compute_time_hi":500,)"
      R"("rate_means":[100,200,300,400,500],"deviation_lo":0,)"
      R"("deviation_hi":1,"fixed_deviation":-1,"flow_time_lo":200,)"
      R"("flow_time_hi":500,"heterogeneous":false,)"
      R"("rate_distribution":"normal"},)"
      R"("arrivals":{"mode":"batch","load":0.69999999999999996,)"
      R"("burst_factor":4,"burst_start":0.40000000000000002,)"
      R"("burst_length":0.20000000000000001,"period_seconds":20000,)"
      R"("amplitude":0.80000000000000004},)"
      R"("fixed_jobs":{"count":0,"size":4,"compute_time":3000,)"
      R"("rate_mean":100,"rho":0,"flow_seconds":2000},)"
      R"("admission":{"abstraction":"svc","allocator":"",)"
      R"("epsilon":0.050000000000000003,"vc_quantile":0.94999999999999996,)"
      R"("survivability":false},)"
      R"("enforcement":{"mode":"hard_cap","burst_seconds":5},)"
      R"("faults":{"machine_mtbf_seconds":0,"link_mtbf_seconds":0,)"
      R"("link_mtbf_factor":0,"mttr_seconds":0,"horizon_seconds":0,"seed":1,)"
      R"("policy":"reallocate",)"
      R"("scripted":[{"time":0,"vertex":-1,"kind":"machine","fail":true,)"
      R"("drain":false}],)"
      R"("correlated":[{"kind":"rack_power","index":0,"time_frac":0.5,)"
      R"("outage_seconds":-1}]},)"
      R"("sweep":{"parameter":"","values":[]},)"
      R"("variants":[{"label":"","abstraction":"","allocator":"",)"
      R"("epsilon":-1,"vc_quantile":-1,"enforcement":"",)"
      R"("rate_distribution":"","policy":"","survivable":-1,"once":false}]})"
      "\n";
  EXPECT_EQ(SerializeScenario(scenario), expected);
  EXPECT_EQ(ScenarioConfigHash(scenario), "5481d0abc3cb5796");
}

// Canonical text of registry entry `name` with the one occurrence of
// `from` replaced by `to`.
std::string EditBuiltin(const std::string& name, const std::string& from,
                        const std::string& to) {
  std::string text = SerializeScenario(*FindScenario(name));
  const size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  EXPECT_EQ(text.find(from, pos + 1), std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

// Parsing `text` fails with kInvalidArgument naming `path`.
void ExpectRejectedAt(const std::string& text, const std::string& path) {
  util::Result<Scenario> parsed = ParseScenario(text);
  ASSERT_FALSE(parsed) << "accepted: " << path;
  EXPECT_EQ(parsed.status().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(parsed.status().message().rfind(path + ": ", 0), 0u)
      << parsed.status().message();
}

// Inputs that would trip an assert in the fabric builder, the workload
// generator, or the RNG must fail validation instead.
TEST(ScenarioValidation, OversubscriptionBelowOneIsRejected) {
  // fault_recovery's fault plane is validated against a built fabric, so
  // the range check has to come before the build.
  ExpectRejectedAt(EditBuiltin("fault_recovery", "\"oversubscription\":2,",
                               "\"oversubscription\":0.5,"),
                   "scenario.topology.oversubscription");
}

// Fields the admission section no longer has: a file written while they
// existed is refused, naming the removed key's own path.
TEST(ScenarioValidation, RemovedPlacementFieldIsRejected) {
  const std::vector<std::pair<std::string, std::string>> removed = {
      {"placement", "\"none\""}, {"workers", "0"}, {"shards", "0"},
      {"window", "128"},         {"lookahead", "1"},
  };
  for (const auto& [key, value] : removed) {
    SCOPED_TRACE(key);
    const std::string text =
        EditBuiltin("fig7", "\"survivability\":false}",
                    "\"survivability\":false,\"" + key + "\":" + value + "}");
    ExpectRejectedAt(text, "scenario.admission." + key);
    EXPECT_EQ(ParseScenario(text).status().message(),
              "scenario.admission." + key + ": unknown key");
  }
}

TEST(ScenarioValidation, OversubSweepValueBelowOneIsRejected) {
  Scenario fig5 = *FindScenario("fig5");
  ASSERT_EQ(fig5.sweep.parameter, "oversub");
  fig5.sweep.values = {1, 0.5};
  ExpectRejectedAt(SerializeScenario(fig5), "scenario.sweep.values[1]");
}

TEST(ScenarioValidation, ZeroJobsWithoutFixedJobsIsRejected) {
  ExpectRejectedAt(
      EditBuiltin("fig7", "\"num_jobs\":300,", "\"num_jobs\":0,"),
      "scenario.workload.num_jobs");
  // With fixed jobs the generator never runs, so zero is fine.
  Scenario drill = *FindScenario("fault_drill");
  drill.workload.num_jobs = 0;
  EXPECT_TRUE(ValidateScenario(drill).ok());
}

TEST(ScenarioValidation, DeviationBoundsOutOfOrderAreRejected) {
  Scenario fig7 = *FindScenario("fig7");
  fig7.workload.deviation_lo = 0.9;
  fig7.workload.deviation_hi = 0.2;
  ExpectRejectedAt(SerializeScenario(fig7), "scenario.workload.deviation_hi");
}

TEST(ScenarioValidation, NegativeDeviationIsRejected) {
  Scenario fig7 = *FindScenario("fig7");
  fig7.workload.deviation_lo = -0.5;
  ExpectRejectedAt(SerializeScenario(fig7), "scenario.workload.deviation_lo");
  fig7.workload.deviation_lo = -2;
  fig7.workload.deviation_hi = -1;
  ExpectRejectedAt(SerializeScenario(fig7), "scenario.workload.deviation_lo");
}

TEST(ScenarioValidation, HugeTrunkSweepValueIsRejected) {
  Scenario ecmp = *FindScenario("ablation_ecmp");
  ASSERT_EQ(ecmp.sweep.parameter, "trunk");
  ecmp.sweep.values = {1, 1e10};
  ExpectRejectedAt(SerializeScenario(ecmp), "scenario.sweep.values[1]");
  ecmp.sweep.values = {1.5};
  ExpectRejectedAt(SerializeScenario(ecmp), "scenario.sweep.values[0]");
}

// Integer fields take only integral values that fit their type and stay
// within ±(2^53 - 1); nothing is rounded, truncated, or wrapped.
TEST(ScenarioIntegers, SeedPastTwoToTheFiftyThreeIsRejected) {
  ExpectRejectedAt(EditBuiltin("fig7", "\"seed\":42,",
                               "\"seed\":9007199254740993,"),
                   "scenario.seed");
  ExpectRejectedAt(EditBuiltin("fault_recovery", "\"seed\":44,",
                               "\"seed\":9007199254740993,"),
                   "scenario.faults.seed");
}

TEST(ScenarioIntegers, SeedOutsideUint64IsRejected) {
  ExpectRejectedAt(EditBuiltin("fig7", "\"seed\":42,", "\"seed\":1e20,"),
                   "scenario.seed");
  ExpectRejectedAt(EditBuiltin("fig7", "\"seed\":42,",
                               "\"seed\":18446744073709551615,"),
                   "scenario.seed");
  ExpectRejectedAt(EditBuiltin("fig7", "\"seed\":42,", "\"seed\":-1,"),
                   "scenario.seed");
}

TEST(ScenarioIntegers, LargestExactSeedRoundTrips) {
  util::Result<Scenario> parsed = ParseScenario(EditBuiltin(
      "fig7", "\"seed\":42,", "\"seed\":9007199254740991,"));
  ASSERT_TRUE(parsed) << parsed.status().ToText();
  EXPECT_EQ(parsed->seed, 9007199254740991u);
  EXPECT_EQ(ParseScenario(SerializeScenario(*parsed))->seed,
            9007199254740991u);
  // A seed the parser could not read back is invalid in memory too.
  parsed->seed = 9007199254740992u;
  EXPECT_FALSE(ValidateScenario(*parsed).ok());
}

// Cast to a vertex id, 4294968296 would name machine 1000; any negative
// vertex would auto-target.
TEST(ScenarioIntegers, VertexOutsideAutoTargetAndInt32IsRejected) {
  for (const std::string vertex : {"4294968296", "-7"}) {
    SCOPED_TRACE(vertex);
    std::string text = SerializeScenario(*FindScenario("fault_drill"));
    const std::string from = "\"vertex\":-1,";
    text.replace(text.find(from), from.size(), "\"vertex\":" + vertex + ",");
    ExpectRejectedAt(text, "scenario.faults.scripted[0].vertex");
  }
}

// Every key of the canonical serialization, as a dotted path; the keys
// of an array's objects follow "list[]".
void CollectKeys(const util::JsonValue& v, const std::string& prefix,
                 std::vector<std::string>* keys) {
  for (const auto& [key, value] : v.members()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    keys->push_back(path);
    if (value.is_object()) CollectKeys(value, path, keys);
    if (value.is_array() && !value.items().empty()) {
      CollectKeys(value.items()[0], path + "[]", keys);
    }
  }
}

// docs/SCENARIOS.md gives each key its own schema row, "| `path` | ...".
TEST(ScenarioDocs, EveryCanonicalKeyHasASchemaRow) {
  Scenario scenario;
  scenario.variants.emplace_back();
  scenario.faults.scripted.emplace_back();
  scenario.faults.correlated.emplace_back();
  util::Result<util::JsonValue> canonical =
      util::ParseJson(SerializeScenario(scenario));
  ASSERT_TRUE(canonical);
  std::vector<std::string> keys;
  CollectKeys(*canonical, "", &keys);
  EXPECT_EQ(keys.size(), 85u);  // 74 settable fields in 11 objects

  std::ifstream in(SVC_SCENARIOS_DOC);
  ASSERT_TRUE(in) << SVC_SCENARIOS_DOC;
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  for (const std::string& key : keys) {
    EXPECT_NE(doc.find("| `" + key + "` |"), std::string::npos)
        << "docs/SCENARIOS.md has no schema row for " << key;
  }
}

TEST(ScenarioValidation, CatchesBadSweepParameter) {
  const Scenario* fig7 = FindScenario("fig7");
  ASSERT_NE(fig7, nullptr);
  Scenario broken = *fig7;
  broken.sweep.parameter = "voltage";
  EXPECT_FALSE(ValidateScenario(broken).ok());
}

TEST(ScenarioAllocator, NameDerivesFromAbstraction) {
  Scenario scenario;
  EXPECT_EQ(ScenarioAllocatorName(scenario), "svc-dp");
  scenario.admission.abstraction = "mean_vc";
  EXPECT_EQ(ScenarioAllocatorName(scenario), "oktopus");
  scenario.admission.allocator = "first-fit";
  EXPECT_EQ(ScenarioAllocatorName(scenario), "first-fit");
}

// fig7 at a reduced job count: the sweep fans cells across threads, and the
// per-cell results must not depend on the thread count (each cell rebuilds
// topology/workload/engine from the scenario's fixed seeds).  Two loads
// keep all four variants in 8 cells, two per worker at 4 threads.
TEST(ScenarioRun, Fig7ResultsIdenticalAcrossThreadCounts) {
  const Scenario* fig7 = FindScenario("fig7");
  ASSERT_NE(fig7, nullptr);
  Scenario reduced = *fig7;
  reduced.workload.num_jobs = 24;
  reduced.sweep.values.resize(2);

  ScenarioRunOptions serial;
  serial.threads = 1;
  util::Result<ScenarioRunResult> a = RunScenario(reduced, serial);
  ASSERT_TRUE(a) << a.status().ToText();

  ScenarioRunOptions fanned;
  fanned.threads = 4;
  util::Result<ScenarioRunResult> b = RunScenario(reduced, fanned);
  ASSERT_TRUE(b) << b.status().ToText();

  ASSERT_EQ(a->cells.size(), b->cells.size());
  ASSERT_FALSE(a->cells.empty());
  for (size_t i = 0; i < a->cells.size(); ++i) {
    SCOPED_TRACE(a->cells[i].label + " axis " +
                 std::to_string(a->cells[i].axis_index));
    ExpectCellsIdentical(a->cells[i], b->cells[i]);
  }
}

// fig7 at a reduced size replays its decision stream bit-identically: two
// runs of the registry entry publish the same records in the same order,
// modulo the wall-clock stamps (ts_ns, stage latencies, worker tid).  All
// four variants run 32 jobs on a 400-slot fabric, with job sizes scaled
// down alongside it: arrivals then come often enough against completions
// that an engine whose rate draws changed between the two runs (a seed
// taken from a process-wide counter, say) admits into a different live set
// and shifts the recorded link slacks.
TEST(ScenarioRun, Fig7DecisionStreamReplaysBitIdentically) {
  const Scenario* fig7 = FindScenario("fig7");
  ASSERT_NE(fig7, nullptr);
  Scenario reduced = *fig7;
  reduced.topology.racks = 10;
  reduced.topology.machines_per_rack = 10;
  reduced.topology.racks_per_agg = 5;
  reduced.workload.num_jobs = 32;
  reduced.workload.mean_job_size = 8;
  reduced.workload.max_job_size = 24;
  // One sweep value keeps the stream well inside the ring window.
  reduced.sweep.values.resize(1);

  const bool was_enabled = obs::DecisionsEnabled();
  obs::SetDecisionsEnabled(true);

  ScenarioRunOptions serial;
  serial.threads = 1;

  obs::ClearDecisions();
  util::Result<ScenarioRunResult> a = RunScenario(reduced, serial);
  ASSERT_TRUE(a) << a.status().ToText();
  const std::vector<obs::DecisionRecord> first = obs::CollectDecisions();

  obs::ClearDecisions();
  util::Result<ScenarioRunResult> b = RunScenario(reduced, serial);
  ASSERT_TRUE(b) << b.status().ToText();
  const std::vector<obs::DecisionRecord> second = obs::CollectDecisions();

  obs::ClearDecisions();
  obs::SetDecisionsEnabled(was_enabled);

  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const obs::DecisionRecord& x = first[i];
    const obs::DecisionRecord& y = second[i];
    EXPECT_EQ(x.tenant_id, y.tenant_id);
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.path, y.path);
    EXPECT_STREQ(x.allocator, y.allocator);
    EXPECT_STREQ(x.reason, y.reason);
    ASSERT_EQ(x.num_links, y.num_links);
    for (int l = 0; l < x.num_links; ++l) {
      EXPECT_EQ(x.links[l].link, y.links[l].link);
      EXPECT_EQ(x.links[l].slack, y.links[l].slack);
    }
  }
}

TEST(ScenarioRun, FindCellLooksUpByLabelAndAxis) {
  const Scenario* fig7 = FindScenario("fig7");
  ASSERT_NE(fig7, nullptr);
  Scenario reduced = *fig7;
  reduced.workload.num_jobs = 24;
  reduced.sweep.values.resize(1);
  util::Result<ScenarioRunResult> result = RunScenario(reduced);
  ASSERT_TRUE(result) << result.status().ToText();
  ASSERT_FALSE(result->cells.empty());
  const ScenarioCell& cell = result->cells.front();
  EXPECT_EQ(FindCell(*result, cell.label, cell.axis_index), &cell);
  EXPECT_EQ(FindCell(*result, "no-such-variant", 0), nullptr);
}

TEST(ShapeArrivals, BatchAndPoissonAreNoOps) {
  std::vector<workload::JobSpec> jobs(4);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<int64_t>(i + 1);
    jobs[i].arrival_time = 100.0 * static_cast<double>(i);
  }
  std::vector<workload::JobSpec> original = jobs;

  ArrivalConfig arrivals;
  arrivals.mode = "batch";
  ShapeArrivals(arrivals, &jobs);
  arrivals.mode = "poisson";
  ShapeArrivals(arrivals, &jobs);
  ASSERT_EQ(jobs.size(), original.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, original[i].id);
    EXPECT_EQ(jobs[i].arrival_time, original[i].arrival_time);
  }
}

TEST(ShapeArrivals, WarpsPreserveOrderPayloadAndDeterminism) {
  for (const char* mode : {"flash_crowd", "diurnal"}) {
    SCOPED_TRACE(mode);
    std::vector<workload::JobSpec> jobs(16);
    for (size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].id = static_cast<int64_t>(i + 1);
      jobs[i].arrival_time = 250.0 * static_cast<double>(i);
    }
    ArrivalConfig arrivals;
    arrivals.mode = mode;

    std::vector<workload::JobSpec> warped = jobs;
    ShapeArrivals(arrivals, &warped);
    std::vector<workload::JobSpec> again = jobs;
    ShapeArrivals(arrivals, &again);

    ASSERT_EQ(warped.size(), jobs.size());
    for (size_t i = 0; i < warped.size(); ++i) {
      EXPECT_EQ(warped[i].id, jobs[i].id);  // payload/order preserved
      EXPECT_EQ(warped[i].arrival_time, again[i].arrival_time);  // pure
      if (i > 0) {
        EXPECT_GE(warped[i].arrival_time, warped[i - 1].arrival_time);
      }
    }
  }
}

}  // namespace
}  // namespace svc::sim
