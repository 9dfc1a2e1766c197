#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/core.h"
#include "obs/decision_log.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace svc::bench {
namespace {

// Sink of the live ObsScope, attached to every engine RunScenarioOrDie
// constructs while the scope exists.  Drivers are single-ObsScope programs;
// concurrent sweep cells share the sink (it is internally locked).
obs::TimeSeriesSink* g_active_series = nullptr;
double g_active_series_period = 100.0;

}  // namespace

ObsFlags::ObsFlags(util::FlagSet& flags)
    : metrics_out_(flags.String(
          "metrics-out", "",
          "write a metrics + time-series JSONL snapshot here (enables the "
          "metrics registry for the run)")),
      trace_out_(flags.String(
          "trace-out", "",
          "write a Chrome trace-event JSON file here (open in Perfetto); "
          "enables span tracing for the run")),
      series_period_(flags.Double(
          "series-period", 100.0,
          "simulated seconds between engine time-series samples when "
          "--metrics-out is set")),
      decisions_out_(flags.String(
          "decisions-out", "",
          "write per-admission decision-provenance records here (JSONL; "
          "enables decision logging for the run)")),
      flight_dir_(flags.String(
          "flight-dir", "",
          "arm the flight recorder: postmortem bundles (decision ring + "
          "metrics + trace) are dumped into this directory on faults and "
          "invariant failures")) {}

ObsScope::ObsScope(const ObsFlags& flags)
    : metrics_out_(flags.metrics_out_),
      trace_out_(flags.trace_out_),
      decisions_out_(flags.decisions_out_),
      flight_(!flags.flight_dir_.empty()) {
  if (!metrics_out_.empty()) {
    obs::SetMetricsEnabled(true);
    g_active_series = &sink_;
    g_active_series_period = flags.series_period_;
  }
  if (!trace_out_.empty()) obs::SetTraceEnabled(true);
  if (!decisions_out_.empty()) obs::SetDecisionsEnabled(true);
  if (flight_) obs::FlightRecorder::Global().Configure(flags.flight_dir_);
}

bool ObsScope::Finish() {
  bool ok = true;
  if (!metrics_out_.empty()) {
    g_active_series = nullptr;
    std::string out = sink_.ToJsonl();
    if (!out.empty() && out.back() != '\n') out.push_back('\n');
    out += obs::Registry::Global().Collect().ToJsonl();
    ok = obs::WriteFile(metrics_out_, out) && ok;
    metrics_out_.clear();
  }
  if (!trace_out_.empty()) {
    ok = obs::WriteFile(trace_out_, obs::SerializeChromeTrace()) && ok;
    trace_out_.clear();
  }
  if (!decisions_out_.empty()) {
    std::string out;
    for (const obs::DecisionRecord& rec : obs::CollectDecisions()) {
      obs::AppendDecisionJson(out, rec);
      out.push_back('\n');
    }
    ok = obs::WriteFile(decisions_out_, out) && ok;
    decisions_out_.clear();
  }
  if (flight_) {
    // Flush a trigger latched in the run's tail, then disarm so a later
    // scope (or test) starts from a clean recorder.
    obs::FlightRecorder::Global().MaybeTriggerPending();
    obs::FlightRecorder::Global().Reset();
    flight_ = false;
  }
  return ok;
}

sim::ScenarioRunResult RunScenarioOrDie(const sim::Scenario& scenario,
                                        int threads) {
  sim::ScenarioRunOptions run;
  run.threads = threads;
  run.series = g_active_series;
  run.series_period = g_active_series_period;
  util::Result<sim::ScenarioRunResult> result =
      sim::RunScenario(scenario, run);
  if (!result) {
    std::fprintf(stderr, "scenario '%s': %s\n", scenario.name.c_str(),
                 result.status().ToText().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

void EmitTable(const std::string& title, const util::Table& table, bool csv) {
  std::printf("=== %s ===\n%s\n", title.c_str(), table.ToText().c_str());
  if (csv) std::printf("--- csv ---\n%s\n", table.ToCsv().c_str());
}

void AddBenchmarksMember(util::JsonWriter& w,
                         const std::vector<BenchRecord>& records) {
  w.Key("benchmarks");
  w.BeginArray();
  for (const BenchRecord& record : records) {
    w.BeginObject();
    w.Member("name", record.name);
    w.Member("iterations", record.iterations);
    w.Member("real_ns_per_iter", record.real_ns_per_iter);
    w.Member("cpu_ns_per_iter", record.cpu_ns_per_iter);
    for (const auto& [key, value] : record.counters) w.Member(key, value);
    w.EndObject();
  }
  w.EndArray();
}

void AddMetricsMember(util::JsonWriter& w) {
  const obs::MetricsSnapshot snapshot = obs::Registry::Global().Collect();
  w.Key("metrics");
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& c : snapshot.counters) w.Member(c.name, c.value);
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& g : snapshot.gauges) w.Member(g.name, g.value);
  w.EndObject();
  w.EndObject();
}

}  // namespace svc::bench
