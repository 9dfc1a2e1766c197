#include "obs/exporter.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "obs/core.h"
#include "obs/decision_log.h"
#include "obs/trace.h"

namespace svc::obs {

namespace {

void AppendSanitized(std::string& out, std::string_view name) {
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
}

}  // namespace

std::string ExportPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  char buf[128];
  auto emit_name = [&out](std::string_view name) {
    out += "svc_";
    AppendSanitized(out, name);
  };
  for (const auto& c : snapshot.counters) {
    out += "# TYPE svc_";
    AppendSanitized(out, c.name);
    out += " counter\n";
    emit_name(c.name);
    std::snprintf(buf, sizeof buf, " %lld\n",
                  static_cast<long long>(c.value));
    out += buf;
  }
  for (const auto& g : snapshot.gauges) {
    out += "# TYPE svc_";
    AppendSanitized(out, g.name);
    out += " gauge\n";
    emit_name(g.name);
    std::snprintf(buf, sizeof buf, " %.17g\n", g.value);
    out += buf;
  }
  for (const auto& h : snapshot.histograms) {
    out += "# TYPE svc_";
    AppendSanitized(out, h.name);
    out += " histogram\n";
    int64_t cumulative = 0;
    for (const HistogramBucket& b : h.buckets) {
      cumulative += b.count;
      emit_name(h.name);
      std::snprintf(buf, sizeof buf, "_bucket{le=\"%.9g\"} %lld\n", b.upper,
                    static_cast<long long>(cumulative));
      out += buf;
    }
    emit_name(h.name);
    std::snprintf(buf, sizeof buf, "_bucket{le=\"+Inf\"} %lld\n",
                  static_cast<long long>(h.count));
    out += buf;
    emit_name(h.name);
    std::snprintf(buf, sizeof buf, "_sum %.17g\n", h.sum);
    out += buf;
    emit_name(h.name);
    std::snprintf(buf, sizeof buf, "_count %lld\n",
                  static_cast<long long>(h.count));
    out += buf;
  }
  return out;
}

std::string ExportPrometheus() {
  return ExportPrometheus(Registry::Global().Collect());
}

namespace {

// All recorder state lives here (the FlightRecorder class is a stateless
// facade over the process-wide instance, like Registry::Global()).
struct RecorderState {
  std::mutex mu;
  std::string dir;                    // guarded by mu
  std::atomic<bool> enabled{false};   // mirrors !dir.empty()
  std::atomic<bool> pending{false};   // latched trigger awaiting dump
  char pending_cause[32] = {};        // guarded by mu
  char pending_detail[96] = {};       // guarded by mu
  int64_t bundle_seq = 0;             // guarded by mu
  std::atomic<int64_t> bundles{0};
};

RecorderState& State() {
  static auto* state = new RecorderState();
  return *state;
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static auto* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Configure(std::string dir) {
  RecorderState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.dir = std::move(dir);
  s.pending.store(false, std::memory_order_relaxed);
  s.enabled.store(!s.dir.empty(), std::memory_order_relaxed);
}

bool FlightRecorder::enabled() const {
  return State().enabled.load(std::memory_order_relaxed);
}

std::string FlightRecorder::Trigger(const char* cause, const char* detail) {
  RecorderState& s = State();
  if (!s.enabled.load(std::memory_order_relaxed)) return "";
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(s.dir, ec);

  // Filename-safe cause tag.
  char tag[32] = {};
  size_t t = 0;
  for (const char* p = cause; *p && t + 1 < sizeof tag; ++p) {
    const char c = *p;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    tag[t++] = ok ? c : '-';
  }
  const int64_t seq = ++s.bundle_seq;
  char stem[64];
  std::snprintf(stem, sizeof stem, "flight-%lld-%s",
                static_cast<long long>(seq), tag[0] ? tag : "manual");
  const std::string base = s.dir + "/" + stem;

  std::string body;
  body.reserve(1u << 16);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"flight\",\"seq\":%lld,\"ts_ns\":%llu,",
                static_cast<long long>(seq),
                static_cast<unsigned long long>(NowNs()));
  body += buf;
  body += "\"cause\":";
  AppendJsonString(body, cause);
  body += ",\"detail\":";
  AppendJsonString(body, detail != nullptr ? detail : "");
  std::snprintf(buf, sizeof buf,
                ",\"decisions_total\":%llu,\"trace_dropped\":%llu}\n",
                static_cast<unsigned long long>(DecisionCount()),
                static_cast<unsigned long long>(TraceDroppedTotal()));
  body += buf;

  // The newest kBundleDecisions decisions, oldest first (publication
  // order).
  const std::vector<DecisionRecord> decisions = CollectDecisions();
  const size_t start = decisions.size() > kBundleDecisions
                           ? decisions.size() - kBundleDecisions
                           : 0;
  for (size_t i = start; i < decisions.size(); ++i) {
    AppendDecisionJson(body, decisions[i]);
    body.push_back('\n');
  }
  body += Registry::Global().Collect().ToJsonl();

  const std::string path = base + ".jsonl";
  if (!WriteFile(path, body)) return "";
  WriteFile(base + ".trace.json", SerializeChromeTrace());
  s.bundles.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) {
    Registry::Global().GetCounter("obs/flight_bundles").Increment();
    Registry::Global()
        .GetGauge("obs/trace_dropped")
        .Set(static_cast<double>(TraceDroppedTotal()));
  }
  return path;
}

void FlightRecorder::LatchTrigger(const char* cause, const char* detail) {
  RecorderState& s = State();
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.pending.load(std::memory_order_relaxed)) return;  // first latch wins
  std::snprintf(s.pending_cause, sizeof s.pending_cause, "%s", cause);
  std::snprintf(s.pending_detail, sizeof s.pending_detail, "%s",
                detail != nullptr ? detail : "");
  s.pending.store(true, std::memory_order_relaxed);
}

std::string FlightRecorder::MaybeTriggerPending() {
  RecorderState& s = State();
  if (!s.pending.load(std::memory_order_relaxed)) return "";
  char cause[32];
  char detail[96];
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.pending.load(std::memory_order_relaxed)) return "";
    std::memcpy(cause, s.pending_cause, sizeof cause);
    std::memcpy(detail, s.pending_detail, sizeof detail);
    s.pending.store(false, std::memory_order_relaxed);
  }
  return Trigger(cause, detail);
}

int64_t FlightRecorder::bundles_written() const {
  return State().bundles.load(std::memory_order_relaxed);
}

void FlightRecorder::Reset() {
  RecorderState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.dir.clear();
  s.enabled.store(false, std::memory_order_relaxed);
  s.pending.store(false, std::memory_order_relaxed);
  s.bundle_seq = 0;
  s.bundles.store(0, std::memory_order_relaxed);
}

}  // namespace svc::obs
