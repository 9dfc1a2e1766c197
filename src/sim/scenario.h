// Declarative experiment scenarios (docs/SCENARIOS.md).
//
// A Scenario is the complete, serializable description of one experiment:
// the fabric (topology::ThreeTierConfig), the workload mix and arrival
// regime, the admission discipline (abstraction, allocator, epsilon,
// survivability), the enforcement discipline, the fault schedule (random
// churn, scripted one-shots, correlated groups), one optional sweep axis,
// and the variant columns that share it.  Every
// paper figure and ablation is a registry entry that scenario_run runs and
// reports (bench/scenario_reports.h), so a figure is reproducible from one
// JSON file instead of bespoke setup code.
//
// Serialization is canonical: SerializeScenario always writes every field
// in a fixed order, so parse(serialize(s)) == s and serialize(parse(text))
// is byte-stable — which makes ScenarioConfigHash a meaningful identity
// for "same experiment" comparisons across BENCH_*.json snapshots.
// ParseScenario is strict: unknown keys, duplicate keys, type mismatches,
// and integers their field cannot hold exactly are errors naming the
// offending JSON path.  One field table in scenario.cc drives the parser,
// the canonical writer, and ValidateScenario's per-field range checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/time_series.h"
#include "sim/engine.h"
#include "topology/builders.h"
#include "util/result.h"
#include "workload/workload.h"

namespace svc::sim {

// When and how generated jobs arrive.
//   batch        all jobs queued FIFO at t=0; the engine runs RunBatch.
//   poisson      the generator's calibrated Poisson arrivals (RunOnline).
//   static       fixed_jobs submitted at t=0 through RunOnline (admit-or-
//                reject at arrival; used by deterministic drills).
//   flash_crowd  poisson arrivals time-warped so a burst_factor-times
//                denser burst covers [burst_start, burst_start +
//                burst_length) of the arrival span (RunOnline).
//   diurnal      poisson arrivals reshaped to a sinusoidal rate
//                lambda(t) = lambda * (1 + amplitude * sin(2*pi*t /
//                period_seconds)) via inverse-CDF warping (RunOnline).
struct ArrivalConfig {
  std::string mode = "batch";
  double load = 0.7;  // offered load for the online modes
  // flash_crowd shape.
  double burst_factor = 4.0;
  double burst_start = 0.4;
  double burst_length = 0.2;
  // diurnal shape.
  double period_seconds = 20000;
  double amplitude = 0.8;
};

// Hand-built deterministic jobs (count > 0 replaces the generator): all
// identical, ids 1..count, arrival 0, sigma = rho * rate_mean, flow length
// rate_mean * flow_seconds Mbit.
struct FixedJobConfig {
  int count = 0;
  int size = 4;
  double compute_time = 3000;
  double rate_mean = 100;
  double rho = 0;
  double flow_seconds = 2000;
};

// The admission discipline every cell starts from (variants override).
struct AdmissionConfig {
  std::string abstraction = "svc";  // svc | mean_vc | percentile_vc
  // Allocator name (svc/allocator_registry.h); empty derives from the
  // abstraction: svc-dp for SVC, oktopus for the deterministic VCs.
  std::string allocator;
  double epsilon = 0.05;
  double vc_quantile = 0.95;
  bool survivability = false;
};

struct EnforcementConfig {
  std::string mode = "hard_cap";  // hard_cap | token_bucket
  double burst_seconds = 5.0;
};

// One scripted fault-plane event.  vertex == -1 auto-targets the first
// machine hosting a VM of the first admitted job (resolved per cell by a
// deterministic probe admission pass — the drill pattern).
struct ScriptedEventConfig {
  double time = 0;
  int64_t vertex = -1;
  std::string kind = "machine";  // machine | link
  bool fail = true;
  bool drain = false;
};

// One correlated multi-element group, expanded via the fault_injector
// helpers.  `index` picks the n-th ToR (rack_power / tor_loss) or machine
// (planned_drain), clamped to the fabric; time = time_frac *
// horizon_seconds; outage_seconds < 0 means mttr_seconds.
struct CorrelatedEventConfig {
  std::string kind = "rack_power";  // rack_power | tor_loss | planned_drain
  int index = 0;
  double time_frac = 0.5;
  double outage_seconds = -1;
};

struct ScenarioFaultConfig {
  double machine_mtbf_seconds = 0;
  double link_mtbf_seconds = 0;
  // > 0: the fabric-link MTBF tracks the machine MTBF (including a swept
  // one) as link_mtbf_factor * machine_mtbf, overriding link_mtbf_seconds.
  double link_mtbf_factor = 0;
  double mttr_seconds = 0;
  double horizon_seconds = 0;
  uint64_t seed = 1;
  std::string policy = "reallocate";  // reallocate | patch | evict | switchover
  std::vector<ScriptedEventConfig> scripted;
  std::vector<CorrelatedEventConfig> correlated;
};

// The swept axis: every non-`once` variant runs at every value.
//   "" (none) | load | oversub | rho | epsilon | trunk | quantile | mtbf
struct SweepConfig {
  std::string parameter;
  std::vector<double> values;
};

// One column of the experiment grid.  Empty strings / negative sentinels
// inherit the scenario-level AdmissionConfig / EnforcementConfig / faults.
struct VariantConfig {
  std::string label;
  std::string abstraction;        // "" inherits
  std::string allocator;          // "" inherits (or derives)
  double epsilon = -1;            // < 0 inherits
  double vc_quantile = -1;        // < 0 inherits
  std::string enforcement;        // "" inherits: hard_cap | token_bucket
  std::string rate_distribution;  // "" inherits: normal | lognormal
  std::string policy;             // "" inherits the fault recovery policy
  int survivable = -1;            // -1 inherits, else 0 / 1
  // Run once (ignoring the sweep axis) instead of per sweep value.
  bool once = false;
};

struct Scenario {
  std::string name;
  std::string description;
  uint64_t seed = 42;       // workload seed; the engine runs on seed + 1
  double max_seconds = 2e6;
  topology::ThreeTierConfig topology;
  workload::WorkloadConfig workload;
  ArrivalConfig arrivals;
  FixedJobConfig fixed_jobs;
  AdmissionConfig admission;
  EnforcementConfig enforcement;
  ScenarioFaultConfig faults;
  SweepConfig sweep;
  std::vector<VariantConfig> variants;
};

// --- Serialization ---

// Canonical JSON: every field, fixed order, compact (JsonWriter style).
std::string SerializeScenario(const Scenario& scenario);

// Strict parse of one JSON object; errors name the offending path.
util::Result<Scenario> ParseScenario(const std::string& text);

// Structural validation (names, ranges, divisibility, fault schedule
// against the scenario's own topology).  RunScenario validates first.
util::Status ValidateScenario(const Scenario& scenario);

// FNV-1a 64 over SerializeScenario(scenario), as 16 hex digits: the
// identity BENCH_*.json snapshots carry so tools/bench_diff.py can warn
// when two runs measured different experiments.
std::string ScenarioConfigHash(const Scenario& scenario);

// The allocator name the scenario-level admission discipline resolves to:
// admission.allocator when set, else the abstraction's default ("svc-dp"
// for svc, "oktopus" for the deterministic VCs).  svcd uses this — the
// daemon serves the scenario's base discipline; variants are a sweep
// concept.
std::string ScenarioAllocatorName(const Scenario& scenario);

// --- Registry ---

// Built-in scenarios (fig5..fig10, the ablations, guarantee validation,
// the fault suite, the daemon default, ...); nullptr when unknown.
const Scenario* FindScenario(const std::string& name);
const std::vector<std::string>& RegisteredScenarioNames();

// --- Execution ---

// One finished grid cell: `online` tells which run filled `result`
// (RunOnline, else RunBatch; see RunResult for the fields each fills);
// `axis_index` is -1 for `once` variants.
struct ScenarioCell {
  std::string label;
  int axis_index = -1;
  double axis_value = 0;
  bool online = false;
  RunResult result;
  // Wall-clock seconds the cell took, set-up included: the one field that
  // identity checks leave out, since `result` holds no wall-clock value.
  double wall_s = 0;
};

struct ScenarioRunResult {
  std::vector<ScenarioCell> cells;
};

// The cell for (label, axis_index); nullptr when absent.
const ScenarioCell* FindCell(const ScenarioRunResult& result,
                             const std::string& label, int axis_index);

struct ScenarioRunOptions {
  int threads = 0;  // sweep workers; results identical for every value
  // Borrowed time-series sink attached to every engine (may be null).
  obs::TimeSeriesSink* series = nullptr;
  double series_period = 100.0;
};

// Validates, expands the grid (axis-major over the non-`once` variants in
// declaration order, then the `once` variants), and fans the cells across
// a SweepRunner.  Every cell rebuilds its topology, workload, and engine
// from the scenario's fixed seeds, so the results are bit-identical at any
// thread count.
util::Result<ScenarioRunResult> RunScenario(
    const Scenario& scenario, const ScenarioRunOptions& options = {});

// Re-times `jobs` in place for the online arrival regimes (pure,
// order/payload-preserving; exposed for tests).  No-op for batch/poisson.
void ShapeArrivals(const ArrivalConfig& arrivals,
                   std::vector<workload::JobSpec>* jobs);

}  // namespace svc::sim
