// Decision provenance + flight recorder: the per-thread decision rings
// (wraparound, cross-thread seq merge, JSON schema), the one JSON escaper
// and the checked file writer every emitter shares, the admission paths
// that populate the rings (serial Admit and the fault plane), the
// Prometheus exposition, and the postmortem bundle contract — a
// fault-triggered bundle must replay: parsing it back yields the evicting
// decision records with their binding links.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/admission.h"
#include "net/link_ledger.h"
#include "obs/core.h"
#include "obs/decision_log.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/time_series.h"
#include "svc/admission_pipeline.h"
#include "svc/homogeneous_search.h"
#include "svc/manager.h"
#include "topology/builders.h"
#include "util/json.h"

namespace svc {
namespace {

using core::NetworkManager;
using core::Request;

// Arms decision logging for one test body and restores the previous state
// (these are process-wide switches shared by every test in the binary).
class DecisionScope {
 public:
  DecisionScope() { obs::SetDecisionsEnabled(true); }
  ~DecisionScope() { obs::SetDecisionsEnabled(false); }
};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// --- TimeSeriesSink JSONL schema -----------------------------------------

TEST(TimeSeriesSink, JsonlJoinsLinesWithTrailingNewline) {
  obs::TimeSeriesSink sink;
  EXPECT_EQ(sink.ToJsonl(), "");
  sink.Append("{\"type\":\"sample\",\"t\":1}");
  sink.Append("{\"type\":\"sample\",\"t\":2}");
  EXPECT_EQ(sink.size(), 2u);
  const std::string out = sink.ToJsonl();
  EXPECT_EQ(out,
            "{\"type\":\"sample\",\"t\":1}\n{\"type\":\"sample\",\"t\":2}\n");
  // Every line is one object tagged by a "type" member — the contract the
  // decision/flight records share (schema family, not just this sink).
  for (const std::string& line : Lines(out)) {
    EXPECT_EQ(line.find("{\"type\":\"sample\""), 0u) << line;
    EXPECT_EQ(line.back(), '}');
  }
  sink.Clear();
  EXPECT_EQ(sink.ToJsonl(), "");
}

// --- DecisionRecord basics ------------------------------------------------

TEST(DecisionRecord, AddBindingLinkKeepsMostBindingAscending) {
  obs::DecisionRecord rec;
  rec.AddBindingLink(10, 0.9);
  rec.AddBindingLink(11, 0.1);
  rec.AddBindingLink(12, 0.5);
  rec.AddBindingLink(13, -0.2);
  rec.AddBindingLink(14, 0.7);  // looser than all kept: dropped
  rec.AddBindingLink(15, 0.0);  // evicts the 0.9 entry
  ASSERT_EQ(rec.num_links, obs::DecisionRecord::kMaxBindingLinks);
  EXPECT_EQ(rec.links[0].link, 13);
  EXPECT_EQ(rec.links[1].link, 15);
  EXPECT_EQ(rec.links[2].link, 11);
  EXPECT_EQ(rec.links[3].link, 12);
  for (int i = 1; i < rec.num_links; ++i) {
    EXPECT_LE(rec.links[i - 1].slack, rec.links[i].slack);
  }
}

TEST(DecisionRecord, JsonSchemaIsStable) {
  DecisionScope scope;
  obs::ClearDecisions();
  obs::DecisionRecord rec;
  rec.tenant_id = 77;
  rec.outcome = obs::DecisionOutcome::kReject;
  rec.path = obs::CommitPath::kFaultEvict;
  rec.set_allocator("svc-dp");
  rec.set_reason("capacity");
  rec.AddBindingLink(42, 0.125);
  rec.stages.alloc_us = 12.5;
  obs::RecordDecision(rec);
  obs::DecisionRecord found;
  ASSERT_TRUE(obs::FindDecision(77, &found));
  std::string json;
  obs::AppendDecisionJson(json, found);
  // Field-by-field schema pin: tools (bench_diff, flight replay, jq one-
  // liners in OBSERVABILITY.md) key on these exact member names.
  EXPECT_NE(json.find("\"type\":\"decision\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant\":77"), std::string::npos) << json;
  EXPECT_NE(json.find("\"outcome\":\"reject\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"path\":\"fault-evict\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"allocator\":\"svc-dp\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"reason\":\"capacity\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"links\":[{\"link\":42,\"slack\":0.125}]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"stages_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"alloc\":12.500"), std::string::npos) << json;
  // One-line human rendering carries the same story.
  const std::string text = obs::FormatDecision(found);
  EXPECT_NE(text.find("tenant 77"), std::string::npos) << text;
  EXPECT_NE(text.find("reject"), std::string::npos) << text;
  EXPECT_NE(text.find("fault-evict"), std::string::npos) << text;
}

// --- The one JSON escaper ------------------------------------------------

TEST(JsonEscape, WriterAndDecisionJsonShareOneEscaper) {
  struct Case {
    std::string raw;
    std::string escaped;  // without the surrounding quotes
  };
  const std::vector<Case> cases = {
      {"a\"b", "a\\\"b"},
      {"a\\b", "a\\\\b"},
      {"a\nb", "a\\nb"},
      {"a\rb", "a\\rb"},
      {"a\tb", "a\\tb"},
      {"a\x01z", "a\\u0001z"},
      {"svc-dp", "svc-dp"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.escaped);
    util::JsonWriter w;
    w.Value(c.raw);
    EXPECT_EQ(w.str(), "\"" + c.escaped + "\"");
    obs::DecisionRecord rec;
    rec.set_allocator(c.raw);
    rec.set_reason(c.raw);
    std::string json;
    obs::AppendDecisionJson(json, rec);
    EXPECT_NE(json.find("\"allocator\":\"" + c.escaped + "\","),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"reason\":\"" + c.escaped + "\","),
              std::string::npos)
        << json;
  }
}

// --- Checked file writes --------------------------------------------------

TEST(WriteFile, FullDeviceReturnsFalse) {
  // /dev/full accepts the buffered write and fails the flush at close.
  EXPECT_FALSE(obs::WriteFile("/dev/full", "{}\n"));
  const std::filesystem::path ok =
      std::filesystem::path(::testing::TempDir()) / "svc_write_file_ok.txt";
  ASSERT_TRUE(obs::WriteFile(ok.string(), "{}\n"));
  std::ifstream in(ok);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "{}\n");
}

// --- Ring wraparound ------------------------------------------------------

TEST(DecisionRing, WraparoundKeepsNewestWindow) {
  DecisionScope scope;
  obs::ClearDecisions();
  const size_t capacity = obs::DecisionRingCapacity();
  const uint64_t count_before = obs::DecisionCount();
  const size_t total = capacity + 100;
  obs::DecisionRecord rec;
  rec.outcome = obs::DecisionOutcome::kAdmit;
  for (size_t i = 0; i < total; ++i) {
    rec.tenant_id = static_cast<int64_t>(i);
    obs::RecordDecision(rec);
  }
  // The global count is monotone across the wrap...
  EXPECT_EQ(obs::DecisionCount() - count_before, total);
  // ...but the ring retains exactly the newest `capacity` records,
  const std::vector<obs::DecisionRecord> kept = obs::CollectDecisions();
  ASSERT_EQ(kept.size(), capacity);
  EXPECT_EQ(kept.front().tenant_id, static_cast<int64_t>(total - capacity));
  EXPECT_EQ(kept.back().tenant_id, static_cast<int64_t>(total - 1));
  // in strictly increasing publication order.
  for (size_t i = 1; i < kept.size(); ++i) {
    EXPECT_LT(kept[i - 1].seq, kept[i].seq);
  }
  // The oldest records are gone; the newest survive and FindDecision sees
  // the latest write for a tenant.
  obs::DecisionRecord found;
  EXPECT_FALSE(obs::FindDecision(0, &found));
  EXPECT_TRUE(obs::FindDecision(static_cast<int64_t>(total - 1), &found));
}

// --- Multi-thread correlation ---------------------------------------------

TEST(DecisionRing, CollectMergesThreadRingsInSeqOrder) {
  DecisionScope scope;
  obs::ClearDecisions();
  constexpr int kPerThread = 200;
  auto writer = [](int64_t base) {
    obs::DecisionRecord rec;
    rec.outcome = obs::DecisionOutcome::kAdmit;
    for (int i = 0; i < kPerThread; ++i) {
      rec.tenant_id = base + i;
      obs::RecordDecision(rec);
    }
  };
  std::thread a(writer, 1'000);
  std::thread b(writer, 2'000);
  a.join();
  b.join();
  const std::vector<obs::DecisionRecord> merged = obs::CollectDecisions();
  ASSERT_EQ(merged.size(), 2u * kPerThread);
  // Publication order is global: the merge interleaves the two rings into
  // one strictly increasing seq sequence...
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].seq, merged[i].seq);
  }
  // ...and each record still names the thread that produced it.
  uint32_t tid_a = 0, tid_b = 0;
  for (const obs::DecisionRecord& rec : merged) {
    if (rec.tenant_id < 2'000) tid_a = rec.worker_tid;
    else tid_b = rec.worker_tid;
  }
  EXPECT_NE(tid_a, tid_b);
}

// --- Serial Admit provenance ----------------------------------------------

TEST(DecisionProvenance, AdmitAndRejectRecordBindingLinks) {
  DecisionScope scope;
  obs::ClearDecisions();
  const topology::Topology topo = topology::BuildTwoTier(2, 3, 4, 1000, 2.0);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 6, 100, 40), alloc).ok());
  ASSERT_FALSE(
      manager.Admit(Request::Homogeneous(2, 100, 100, 40), alloc).ok());

  obs::DecisionRecord admit;
  ASSERT_TRUE(obs::FindDecision(1, &admit));
  EXPECT_EQ(admit.outcome, obs::DecisionOutcome::kAdmit);
  EXPECT_EQ(admit.path, obs::CommitPath::kSerial);
  EXPECT_STREQ(admit.reason, "ok");
  EXPECT_STREQ(admit.allocator, "svc-dp");
  ASSERT_GE(admit.num_links, 1);
  for (int i = 0; i < admit.num_links; ++i) {
    // Admitted tenants sit on valid links: slack in [-1, 1].
    EXPECT_GE(admit.links[i].slack, -1.0f);
    EXPECT_LE(admit.links[i].slack, 1.0f);
  }
  EXPECT_GT(admit.stages.alloc_us, 0.0f);

  obs::DecisionRecord reject;
  ASSERT_TRUE(obs::FindDecision(2, &reject));
  EXPECT_EQ(reject.outcome, obs::DecisionOutcome::kReject);
  EXPECT_STREQ(reject.reason, "capacity");
  // The tightest-descent fallback still names at least one binding link.
  EXPECT_GE(reject.num_links, 1);
}

TEST(DecisionProvenance, SurvivableBindingSlackIsWorstPostFailureSlack) {
  DecisionScope scope;
  obs::ClearDecisions();
  const topology::Topology topo = topology::BuildTwoTier(2, 3, 4, 1000, 2.0);
  NetworkManager manager(topo, 0.05);
  core::AdmissionOptions options;
  options.survivability = true;
  manager.set_admission_options(options);
  core::HomogeneousDpAllocator alloc;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 6, 100, 40), alloc).ok());

  obs::DecisionRecord admit;
  ASSERT_TRUE(obs::FindDecision(1, &admit));
  ASSERT_GE(admit.num_links, 1);
  // Condition (4) binds on the worst post-failure state, so that is the
  // occupancy each binding link's slack must report.
  const net::LinkLedger& ledger = manager.ledger();
  bool backup_binds = false;
  for (int i = 0; i < admit.num_links; ++i) {
    const net::LinkState& s = ledger.link(admit.links[i].link);
    const double base =
        net::OccupancyRatio(s.capacity, s.deterministic, s.mean_sum,
                            s.var_sum, ledger.quantile());
    double worst = base;
    for (const net::BackupDomainSums& g : s.backup_domains) {
      worst = std::max(worst, net::OccupancyRatio(
                                  s.capacity, s.deterministic + g.det_sum,
                                  s.mean_sum + g.mean_sum,
                                  s.var_sum + g.var_sum, ledger.quantile()));
    }
    EXPECT_EQ(admit.links[i].slack,
              static_cast<float>(std::max(-1.0, 1.0 - worst)))
        << "link " << admit.links[i].link;
    backup_binds = backup_binds || worst > base;
  }
  EXPECT_TRUE(backup_binds) << "no binding link carries a backup reservation";
}

// --- Batch provenance -----------------------------------------------------

TEST(DecisionProvenance, PipelineRecordsCommitPathsForWholeBatch) {
  DecisionScope scope;
  obs::ClearDecisions();
  const topology::Topology topo = topology::BuildTwoTier(4, 4, 4, 1000, 2.0);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  core::AdmissionPipeline pipeline(manager);
  std::vector<Request> requests;
  for (int64_t id = 1; id <= 24; ++id) {
    // A mix that admits early and rejects once the fabric fills.
    requests.push_back(Request::Homogeneous(id, 4 + (id % 3) * 2, 200, 80));
  }
  const auto decisions = pipeline.AdmitBatch(requests, alloc);
  ASSERT_EQ(decisions.size(), requests.size());

  // Every request in the batch got exactly one record, its outcome matching
  // the returned verdict, its path the serial Admit.
  const std::vector<obs::DecisionRecord> records = obs::CollectDecisions();
  for (size_t i = 0; i < requests.size(); ++i) {
    obs::DecisionRecord rec;
    ASSERT_TRUE(obs::FindDecision(requests[i].id(), &rec)) << requests[i].id();
    EXPECT_EQ(rec.outcome == obs::DecisionOutcome::kAdmit, decisions[i].ok());
    EXPECT_EQ(rec.path, obs::CommitPath::kSerial);
    if (decisions[i].ok()) {
      EXPECT_GE(rec.num_links, 1) << "admitted without binding links";
    }
  }
  EXPECT_EQ(records.size(), requests.size());
}


// --- Fault-plane provenance + flight bundle (the replay contract) ---------

std::filesystem::path FreshFlightDir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FlightRecorder, FaultTriggeredBundleReplaysEvictingDecisions) {
  DecisionScope scope;
  obs::ClearDecisions();
  const std::filesystem::path dir = FreshFlightDir("svc_flight_fault");
  obs::FlightRecorder::Global().Configure(dir.string());

  const topology::Topology topo = topology::BuildStar(4, 4, 10000);
  NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(1, 8, 100, 30), alloc).ok());
  ASSERT_TRUE(manager.Admit(Request::Homogeneous(2, 4, 100, 30), alloc).ok());
  const topology::VertexId failed = manager.placement_of(1)->vm_machine[0];
  const auto outcome = manager.HandleFault(
      core::FaultKind::kMachine, failed, core::RecoveryPolicy::kEvict, alloc);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GT(outcome->evicted(), 0);
  EXPECT_EQ(obs::FlightRecorder::Global().bundles_written(), 1);

  // Replay: parse the bundle back and recover the decision story.
  std::filesystem::path bundle;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".jsonl") bundle = entry.path();
  }
  ASSERT_FALSE(bundle.empty()) << "no bundle written to " << dir;
  std::ifstream in(bundle);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<std::string> lines = Lines(buffer.str());
  ASSERT_FALSE(lines.empty());
  // Header first: names the cause and the faulted element.
  EXPECT_NE(lines[0].find("\"type\":\"flight\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"cause\":\"fault\""), std::string::npos);
  // The evicting decision records survive in the bundle, with the faulted
  // vertex as their binding link (slack -1: a drained link) and the
  // fault-evict commit path.
  int evicts = 0;
  bool has_faulted_link = false;
  for (const std::string& line : lines) {
    if (line.find("\"outcome\":\"evict\"") == std::string::npos) continue;
    ++evicts;
    EXPECT_NE(line.find("\"path\":\"fault-evict\""), std::string::npos);
    char link[32];
    std::snprintf(link, sizeof link, "\"link\":%d", failed);
    if (line.find(link) != std::string::npos) has_faulted_link = true;
  }
  EXPECT_EQ(evicts, outcome->evicted());
  EXPECT_TRUE(has_faulted_link);
  // The metrics snapshot rides along in the same line-oriented schema.
  EXPECT_NE(buffer.str().find("\"type\":\"flight\""), std::string::npos);
  obs::FlightRecorder::Global().Reset();
}

TEST(FlightRecorder, LatchTriggerDumpsOnceFromQuiescedPoint) {
  DecisionScope scope;
  obs::ClearDecisions();
  const std::filesystem::path dir = FreshFlightDir("svc_flight_latch");
  obs::FlightRecorder::Global().Configure(dir.string());
  const size_t total = obs::FlightRecorder::kBundleDecisions + 88;
  obs::DecisionRecord rec;
  for (size_t i = 0; i < total; ++i) {
    rec.tenant_id = static_cast<int64_t>(i);
    obs::RecordDecision(rec);
  }
  // A latch only records the trigger (its caller may be mid-admission);
  // the first latch wins until it is dumped.
  obs::FlightRecorder::Global().LatchTrigger("admission-inconsistency",
                                             "job=7");
  obs::FlightRecorder::Global().LatchTrigger("second", "ignored");
  EXPECT_EQ(obs::FlightRecorder::Global().bundles_written(), 0);
  // The quiesced point drains the latch exactly once, into a bundle and
  // its trace file.
  const std::string path = obs::FlightRecorder::Global().MaybeTriggerPending();
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("admission-inconsistency"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(path));
  const std::string trace =
      path.substr(0, path.size() - std::string(".jsonl").size()) +
      ".trace.json";
  EXPECT_TRUE(std::filesystem::exists(trace)) << trace;
  // The bundle keeps the newest kBundleDecisions records, oldest first.
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::vector<std::string> decisions;
  for (const std::string& line : Lines(buffer.str())) {
    if (line.find("\"type\":\"decision\"") != std::string::npos) {
      decisions.push_back(line);
    }
  }
  ASSERT_EQ(decisions.size(), obs::FlightRecorder::kBundleDecisions);
  EXPECT_NE(decisions.front().find("\"tenant\":88,"), std::string::npos)
      << decisions.front();
  EXPECT_NE(decisions.back().find(
                "\"tenant\":" + std::to_string(total - 1) + ","),
            std::string::npos)
      << decisions.back();
  EXPECT_EQ(obs::FlightRecorder::Global().MaybeTriggerPending(), "");
  EXPECT_EQ(obs::FlightRecorder::Global().bundles_written(), 1);
  obs::FlightRecorder::Global().Reset();
}

TEST(FlightRecorder, DisabledRecorderIsInert) {
  obs::FlightRecorder::Global().Reset();
  EXPECT_FALSE(obs::FlightRecorder::Global().enabled());
  EXPECT_EQ(obs::FlightRecorder::Global().Trigger("manual", "x"), "");
  obs::FlightRecorder::Global().LatchTrigger("manual", "x");
  EXPECT_EQ(obs::FlightRecorder::Global().MaybeTriggerPending(), "");
  EXPECT_EQ(obs::FlightRecorder::Global().bundles_written(), 0);
}

// --- Prometheus exposition ------------------------------------------------

TEST(Exporter, PrometheusExpositionFormat) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters.push_back({"alloc/svc-dp/attempt", 3});
  snapshot.gauges.push_back({"obs/trace_dropped", 2.0});
  obs::MetricsSnapshot::HistogramValue hist;
  hist.name = "manager/admit_latency_us";
  hist.count = 3;
  hist.sum = 30.0;
  hist.buckets.push_back({0.0, 10.0, 2});
  hist.buckets.push_back({10.0, 100.0, 1});
  snapshot.histograms.push_back(hist);
  const std::string out = obs::ExportPrometheus(snapshot);
  // Names sanitize to [a-zA-Z0-9_] under an svc_ namespace; histograms
  // expose cumulative buckets plus +Inf/_sum/_count.
  EXPECT_NE(out.find("# TYPE svc_alloc_svc_dp_attempt counter\n"
                     "svc_alloc_svc_dp_attempt 3\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("# TYPE svc_obs_trace_dropped gauge\n"
                     "svc_obs_trace_dropped 2\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("svc_manager_admit_latency_us_bucket{le=\"10\"} 2"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("svc_manager_admit_latency_us_bucket{le=\"100\"} 3"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("svc_manager_admit_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("svc_manager_admit_latency_us_sum 30"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("svc_manager_admit_latency_us_count 3"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace svc
