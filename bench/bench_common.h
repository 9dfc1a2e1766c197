// Shared scaffolding for the experiment drivers (scenario_run,
// fault_recovery) and alloc_microbench: the observability flags and the
// ObsScope that arms them, a die-on-error scenario run, table output, and the
// BENCH_*.json record writer.  EXPERIMENTS.md records the paper-vs-measured
// comparison for each figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/time_series.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/table.h"

namespace svc::bench {

// The five observability flags (--metrics-out, --trace-out,
// --series-period, --decisions-out, --flight-dir), declared once for every
// binary that arms an ObsScope.  Empty paths disable the corresponding
// output.
class ObsFlags {
 public:
  explicit ObsFlags(util::FlagSet& flags);

 private:
  friend class ObsScope;
  std::string& metrics_out_;
  std::string& trace_out_;
  double& series_period_;
  std::string& decisions_out_;
  std::string& flight_dir_;
};

// Arms the observability layer for one run, driven by the ObsFlags.
// Construct once in main() right after Parse(); Finish() (or, failing
// that, the destructor) writes:
//   metrics_out: JSONL — the engine time-series samples collected through
//                this scope's sink (RunScenarioOrDie attaches it while the
//                scope is alive) followed by a full metrics-registry
//                snapshot (counters, gauges, histogram quantiles).
//   trace_out:   Chrome trace-event JSON (load in Perfetto / about:tracing)
//                with the allocator / solver / engine spans of the run's
//                final ring-buffer window.
// --decisions-out additionally enables decision provenance and writes the
// surviving ring contents (seq-ordered JSONL, one record per admission
// outcome).  --flight-dir arms the flight recorder for the run: faults and
// invariant failures dump postmortem bundles there; a trigger still
// latched at Finish() is flushed before the recorder is disarmed.
// When no flag is set construction is a no-op and the instrumented
// hot paths keep their disabled-branch cost.  Serialization happens after
// the sweeps' worker threads have quiesced (SweepRunner joins them before
// returning), satisfying the rings' reader contract.
class ObsScope {
 public:
  explicit ObsScope(const ObsFlags& flags);
  ~ObsScope() { Finish(); }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  // Writes every requested output once, detaches the series sink and
  // disarms the flight recorder.  Returns false if any write failed
  // (obs::WriteFile names the path on stderr), and the program then exits
  // non-zero.  Later calls write nothing.
  bool Finish();

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::string decisions_out_;
  bool flight_ = false;
  obs::TimeSeriesSink sink_;
};

// Runs the scenario on `threads` sweep workers with the live ObsScope
// time-series sink; prints the error and exits 1 on failure.
sim::ScenarioRunResult RunScenarioOrDie(const sim::Scenario& scenario,
                                        int threads);

// Prints the table plus a trailing blank line; also echoes CSV when `csv`
// is set (pass the --csv flag value through).
void EmitTable(const std::string& title, const util::Table& table, bool csv);

// One timed benchmark result for the JSON emitters (alloc_microbench
// --json and fault_recovery's BENCH_FAULT.json share this shape).
struct BenchRecord {
  std::string name;
  int64_t iterations = 0;
  double real_ns_per_iter = 0;
  double cpu_ns_per_iter = 0;
  std::vector<std::pair<std::string, double>> counters;
};

// Appends a "benchmarks": [...] member to the currently open JSON object.
void AddBenchmarksMember(util::JsonWriter& w,
                         const std::vector<BenchRecord>& records);

// Appends a "metrics": {"counters": {...}, "gauges": {...}} member, a
// snapshot of the metrics registry, to the currently open JSON object.
void AddMetricsMember(util::JsonWriter& w);

}  // namespace svc::bench
