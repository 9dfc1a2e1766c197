// Shared scaffolding for the figure-reproduction benches.
//
// Every bench accepts the same fabric/workload flags (paper defaults) plus
// its own sweep parameters, builds the three-tier topology, runs the
// simulator, and prints an aligned table of the series the paper plots.
// EXPERIMENTS.md records the paper-vs-measured comparison for each.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/time_series.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "topology/builders.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/table.h"
#include "workload/workload.h"

namespace svc::bench {

// Registers the shared flags on `flags` and materializes the configs after
// Parse().  Defaults follow the paper's setup (Section VI-A) with the job
// count reduced from 500 to 300 so that `for b in bench/*` completes in
// minutes; pass --jobs 500 for the full runs.
class CommonOptions {
 public:
  explicit CommonOptions(util::FlagSet& flags);

  topology::ThreeTierConfig TopologyConfig() const;
  workload::WorkloadConfig WorkloadConfig() const;
  double epsilon() const { return epsilon_; }
  uint64_t seed() const { return static_cast<uint64_t>(seed_); }
  int64_t jobs() const { return jobs_; }
  // Worker threads for the sweep (0 = all hardware threads, 1 = serial).
  int threads() const { return static_cast<int>(threads_); }
  // Observability outputs (empty = disabled); see ObsScope below.
  const std::string& metrics_out() const { return metrics_out_; }
  const std::string& trace_out() const { return trace_out_; }
  double series_period() const { return series_period_; }
  const std::string& decisions_out() const { return decisions_out_; }
  const std::string& flight_dir() const { return flight_dir_; }
  double flight_admit_slo_us() const { return flight_admit_slo_us_; }
  double flight_reject_rate() const { return flight_reject_rate_; }

 private:
  int64_t& racks_;
  int64_t& machines_per_rack_;
  int64_t& slots_;
  double& oversubscription_;
  int64_t& jobs_;
  double& mean_job_size_;
  int64_t& max_job_size_;
  std::string& rate_menu_;
  double& epsilon_;
  int64_t& seed_;
  int64_t& threads_;
  std::string& metrics_out_;
  std::string& trace_out_;
  double& series_period_;
  std::string& decisions_out_;
  std::string& flight_dir_;
  double& flight_admit_slo_us_;
  double& flight_reject_rate_;
};

// Observability outputs for one bench run, decoupled from CommonOptions so
// binaries with their own flag surface (scenario_run) can arm the same
// plumbing.  Empty paths disable the corresponding output.
struct ObsOptions {
  std::string metrics_out;
  std::string trace_out;
  double series_period = 100.0;
  std::string decisions_out;
  std::string flight_dir;
  double flight_admit_slo_us = 0;
  double flight_reject_rate = 0;
};

// Arms the observability layer for one bench run, driven by --metrics-out /
// --trace-out.  Construct once in main() right after Parse(); when the
// scope destructs it writes:
//   metrics_out: JSONL — the engine time-series samples collected through
//                this scope's sink (RunScenarioOrDie attaches it while the
//                scope is alive) followed by a full metrics-registry
//                snapshot (counters, gauges, histogram quantiles).
//   trace_out:   Chrome trace-event JSON (load in Perfetto / about:tracing)
//                with the allocator / solver / engine spans and counter
//                tracks of the run's final ring-buffer window.
// --decisions-out additionally enables decision provenance and writes the
// surviving ring contents (seq-ordered JSONL, one record per admission
// outcome) on destruction.  --flight-dir arms the flight recorder for the
// run: faults, invariant failures, and SLO breaches (--flight-admit-slo-us /
// --flight-reject-rate) dump postmortem bundles there; any breach still
// latched at scope exit is flushed before the recorder is disarmed.
// When no flag is set construction is a no-op and the instrumented
// hot paths keep their disabled-branch cost.  Serialization happens in the
// destructor, after the sweeps' worker threads have quiesced (SweepRunner
// joins them before returning), satisfying the trace reader contract.
class ObsScope {
 public:
  explicit ObsScope(const CommonOptions& options);
  explicit ObsScope(const ObsOptions& options);
  ~ObsScope();

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::string decisions_out_;
  bool flight_ = false;
  obs::TimeSeriesSink sink_;
};

// Copies the shared fabric/workload/seed flags onto a registry scenario —
// the shim pattern: registry defaults first, command line wins.  Does not
// touch epsilon (the figures pin their epsilons in their variants); shims
// that honor --epsilon apply it themselves.
void ApplyCommonOverrides(const CommonOptions& options,
                          sim::Scenario* scenario);

// Runs the scenario with the bench's --threads and the live ObsScope
// time-series sink; prints the error and exits 1 on failure.
sim::ScenarioRunResult RunScenarioOrDie(const sim::Scenario& scenario,
                                        const CommonOptions& options);
sim::ScenarioRunResult RunScenarioOrDie(const sim::Scenario& scenario,
                                        int threads);

// Prints the table plus a trailing blank line; also echoes CSV when
// --csv is set by the bench (pass the flag value through).
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

// Writes `content` to `path`; returns false (with a message on stderr) on
// I/O failure.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace svc::bench
