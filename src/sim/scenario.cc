#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "sim/fault_injector.h"
#include "sim/sweep_runner.h"
#include "svc/allocator_registry.h"
#include "svc/manager.h"
#include "util/json.h"
#include "util/json_fields.h"

namespace svc::sim {
namespace {

using util::FieldError;
using util::JsonWriter;
using util::Status;

// --- Token tables (scenario JSON spellings of the library enums) ---

bool ParseAbstractionToken(const std::string& token,
                           workload::Abstraction* out) {
  if (token == "svc") *out = workload::Abstraction::kSvc;
  else if (token == "mean_vc") *out = workload::Abstraction::kMeanVc;
  else if (token == "percentile_vc") *out = workload::Abstraction::kPercentileVc;
  else return false;
  return true;
}

bool ParseEnforcementToken(const std::string& token, Enforcement* out) {
  if (token == "hard_cap") *out = Enforcement::kHardCap;
  else if (token == "token_bucket") *out = Enforcement::kTokenBucket;
  else return false;
  return true;
}

const std::vector<std::pair<std::string, workload::RateDistribution>>&
DistributionTokens() {
  static const auto* tokens =
      new std::vector<std::pair<std::string, workload::RateDistribution>>{
          {"normal", workload::RateDistribution::kNormal},
          {"lognormal", workload::RateDistribution::kLogNormal}};
  return *tokens;
}

// --- Field tables: one line per JSON key, in canonical order ---
//
// Each line is the key's parser, its canonical writer, and its range or
// spelling check (util/json_fields.h).  ValidateScenario adds only the
// checks that relate two fields, or a field and a mode.

using util::Fields;
using util::Flag;
using util::List;
using util::Name;
using util::Number;
using util::Object;
using util::Objects;
using util::Range;
using util::Text;
using util::Token;

const Fields<topology::ThreeTierConfig>& TopologyFields() {
  using C = topology::ThreeTierConfig;
  static const auto* fields = new Fields<C>{
      Number("racks", &C::racks, Range::AtLeast(1)),
      Number("machines_per_rack", &C::machines_per_rack, Range::AtLeast(1)),
      Number("slots_per_machine", &C::slots_per_machine, Range::AtLeast(1)),
      Number("racks_per_agg", &C::racks_per_agg, Range::AtLeast(1)),
      Number("machine_link_mbps", &C::machine_link_mbps, Range::Above(0)),
      Number("oversubscription", &C::oversubscription, Range::AtLeast(1)),
      Number("tor_trunk", &C::tor_trunk, Range::AtLeast(1)),
      Number("agg_trunk", &C::agg_trunk, Range::AtLeast(1)),
  };
  return *fields;
}

const Fields<workload::WorkloadConfig>& WorkloadFields() {
  using C = workload::WorkloadConfig;
  static const auto* fields = new Fields<C>{
      Number("num_jobs", &C::num_jobs, Range::AtLeast(0)),
      Number("mean_job_size", &C::mean_job_size, Range::Above(0)),
      Number("min_job_size", &C::min_job_size, Range::AtLeast(1)),
      Number("max_job_size", &C::max_job_size, Range::AtLeast(1)),
      Number("compute_time_lo", &C::compute_time_lo, Range::Above(0)),
      Number("compute_time_hi", &C::compute_time_hi, Range::Above(0)),
      List("rate_means", &C::rate_means, Range::Above(0), /*non_empty=*/true),
      Number("deviation_lo", &C::deviation_lo, Range::AtLeast(0)),
      Number("deviation_hi", &C::deviation_hi, Range::AtLeast(0)),
      Number("fixed_deviation", &C::fixed_deviation),
      Number("flow_time_lo", &C::flow_time_lo, Range::Above(0)),
      Number("flow_time_hi", &C::flow_time_hi, Range::Above(0)),
      Flag("heterogeneous", &C::heterogeneous),
      Token("rate_distribution", &C::rate_distribution, DistributionTokens()),
  };
  return *fields;
}

const Fields<ArrivalConfig>& ArrivalFields() {
  using C = ArrivalConfig;
  static const auto* fields = new Fields<C>{
      Text("mode", &C::mode, {"batch", "poisson", "static", "flash_crowd", "diurnal"}),
      Number("load", &C::load, Range::Above(0)),
      Number("burst_factor", &C::burst_factor, Range::AtLeast(1)),
      Number("burst_start", &C::burst_start, Range::Closed(0, 1)),
      Number("burst_length", &C::burst_length, Range::Closed(0, 1)),
      Number("period_seconds", &C::period_seconds, Range::Above(0)),
      Number("amplitude", &C::amplitude, Range::ClosedOpen(0, 1)),
  };
  return *fields;
}

const Fields<FixedJobConfig>& FixedJobFields() {
  using C = FixedJobConfig;
  static const auto* fields = new Fields<C>{
      Number("count", &C::count, Range::AtLeast(0)),
      Number("size", &C::size, Range::AtLeast(2)),
      Number("compute_time", &C::compute_time, Range::Above(0)),
      Number("rate_mean", &C::rate_mean, Range::Above(0)),
      Number("rho", &C::rho, Range::AtLeast(0)),
      Number("flow_seconds", &C::flow_seconds, Range::Above(0)),
  };
  return *fields;
}

const Fields<AdmissionConfig>& AdmissionFields() {
  using C = AdmissionConfig;
  static const auto* fields = new Fields<C>{
      Text("abstraction", &C::abstraction, {"svc", "mean_vc", "percentile_vc"}),
      Text("allocator", &C::allocator),
      Number("epsilon", &C::epsilon, Range::Open(0, 1)),
      Number("vc_quantile", &C::vc_quantile, Range::Open(0, 1)),
      Flag("survivability", &C::survivability),
  };
  return *fields;
}

const Fields<EnforcementConfig>& EnforcementFields() {
  using C = EnforcementConfig;
  static const auto* fields = new Fields<C>{
      Text("mode", &C::mode, {"hard_cap", "token_bucket"}),
      Number("burst_seconds", &C::burst_seconds, Range::Above(0)),
  };
  return *fields;
}

const Fields<ScriptedEventConfig>& ScriptedFields() {
  using C = ScriptedEventConfig;
  static const auto* fields = new Fields<C>{
      Number("time", &C::time, Range::AtLeast(0)),
      Number("vertex", &C::vertex, Range::Closed(-1, INT32_MAX)),
      Text("kind", &C::kind, {"machine", "link"}),
      Flag("fail", &C::fail),
      Flag("drain", &C::drain),
  };
  return *fields;
}

const Fields<CorrelatedEventConfig>& CorrelatedFields() {
  using C = CorrelatedEventConfig;
  static const auto* fields = new Fields<C>{
      Text("kind", &C::kind, {"rack_power", "tor_loss", "planned_drain"}),
      Number("index", &C::index, Range::AtLeast(0)),
      Number("time_frac", &C::time_frac, Range::Closed(0, 1)),
      Number("outage_seconds", &C::outage_seconds),
  };
  return *fields;
}

const Fields<ScenarioFaultConfig>& FaultFields() {
  using C = ScenarioFaultConfig;
  static const auto* fields = new Fields<C>{
      Number("machine_mtbf_seconds", &C::machine_mtbf_seconds, Range::AtLeast(0)),
      Number("link_mtbf_seconds", &C::link_mtbf_seconds, Range::AtLeast(0)),
      Number("link_mtbf_factor", &C::link_mtbf_factor, Range::AtLeast(0)),
      Number("mttr_seconds", &C::mttr_seconds, Range::AtLeast(0)),
      Number("horizon_seconds", &C::horizon_seconds, Range::AtLeast(0)),
      Number("seed", &C::seed),
      Text("policy", &C::policy, {"reallocate", "patch", "evict", "switchover"}),
      Objects("scripted", &C::scripted, ScriptedFields()),
      Objects("correlated", &C::correlated, CorrelatedFields()),
  };
  return *fields;
}

const Fields<SweepConfig>& SweepFields() {
  using C = SweepConfig;
  static const auto* fields = new Fields<C>{
      Text("parameter", &C::parameter, {"", "load", "oversub", "rho", "epsilon", "trunk", "quantile", "mtbf"}),
      List("values", &C::values),
  };
  return *fields;
}

const Fields<VariantConfig>& VariantFields() {
  using C = VariantConfig;
  static const auto* fields = new Fields<C>{
      Name("label", &C::label),
      Text("abstraction", &C::abstraction, {"", "svc", "mean_vc", "percentile_vc"}),
      Text("allocator", &C::allocator),
      Number("epsilon", &C::epsilon, Range::Open(0, 1).OrNegative()),
      Number("vc_quantile", &C::vc_quantile, Range::Open(0, 1).OrNegative()),
      Text("enforcement", &C::enforcement, {"", "hard_cap", "token_bucket"}),
      Text("rate_distribution", &C::rate_distribution, {"", "normal", "lognormal"}),
      Text("policy", &C::policy, {"", "reallocate", "patch", "evict", "switchover"}),
      Number("survivable", &C::survivable, Range::Closed(-1, 1)),
      Flag("once", &C::once),
  };
  return *fields;
}

const Fields<Scenario>& ScenarioFields() {
  using C = Scenario;
  static const auto* fields = new Fields<C>{
      Name("name", &C::name),
      Text("description", &C::description),
      Number("seed", &C::seed),
      Number("max_seconds", &C::max_seconds, Range::Above(0)),
      Object("topology", &C::topology, TopologyFields()),
      Object("workload", &C::workload, WorkloadFields()),
      Object("arrivals", &C::arrivals, ArrivalFields()),
      Object("fixed_jobs", &C::fixed_jobs, FixedJobFields()),
      Object("admission", &C::admission, AdmissionFields()),
      Object("enforcement", &C::enforcement, EnforcementFields()),
      Object("faults", &C::faults, FaultFields()),
      Object("sweep", &C::sweep, SweepFields()),
      Objects("variants", &C::variants, VariantFields()),
  };
  return *fields;
}

}  // namespace

util::Result<Scenario> ParseScenario(const std::string& text) {
  Scenario s;
  Status status = util::ParseFields(ScenarioFields(), text, "scenario", &s);
  if (status.ok()) status = ValidateScenario(s);
  if (!status.ok()) return status;
  return s;
}

std::string SerializeScenario(const Scenario& s) {
  JsonWriter w;
  util::WriteFields(ScenarioFields(), s, w);
  return w.str() + "\n";
}

std::string ScenarioConfigHash(const Scenario& scenario) {
  const std::string text = SerializeScenario(scenario);
  uint64_t hash = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV-1a 64 prime
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

namespace {

// Resolved per-variant admission knobs (inheritance applied).
struct ResolvedVariant {
  workload::Abstraction abstraction = workload::Abstraction::kSvc;
  std::string allocator;
  Enforcement enforcement = Enforcement::kHardCap;
  core::RecoveryPolicy policy = core::RecoveryPolicy::kReallocate;
  bool survivable = false;
};

// The allocator name a variant resolves to: explicit wins, otherwise the
// abstraction's default (the paper's Algorithm 1 for SVC, Oktopus for the
// deterministic VCs) — the AllocatorFor() rule the benches used.
std::string DefaultAllocatorName(workload::Abstraction abstraction) {
  return abstraction == workload::Abstraction::kSvc ? "svc-dp" : "oktopus";
}

// A token outside the field tables' spellings, which validation rejects,
// leaves the default.
ResolvedVariant ResolveVariant(const Scenario& s, const VariantConfig& v) {
  ResolvedVariant out;
  ParseAbstractionToken(
      v.abstraction.empty() ? s.admission.abstraction : v.abstraction,
      &out.abstraction);
  out.allocator = !v.allocator.empty() ? v.allocator
                  : !s.admission.allocator.empty()
                      ? s.admission.allocator
                      : DefaultAllocatorName(out.abstraction);
  ParseEnforcementToken(
      v.enforcement.empty() ? s.enforcement.mode : v.enforcement,
      &out.enforcement);
  core::ParseRecoveryPolicy(v.policy.empty() ? s.faults.policy : v.policy,
                            &out.policy);
  out.survivable =
      v.survivable >= 0 ? v.survivable != 0 : s.admission.survivability;
  return out;
}

// The variant list the grid actually runs: the scenario's, or one default
// column inheriting everything when none are declared.
std::vector<VariantConfig> EffectiveVariants(const Scenario& s) {
  if (!s.variants.empty()) return s.variants;
  VariantConfig variant;
  variant.label = "default";
  return {variant};
}

// The n-th ToR (level-1 vertex), clamped into range; kNoVertex on an
// empty fabric.
topology::VertexId TorAt(const topology::Topology& topo, int index) {
  const auto& tors = topo.vertices_at_level(1);
  if (tors.empty()) return topology::kNoVertex;
  const size_t i = std::min<size_t>(std::max(index, 0), tors.size() - 1);
  return tors[i];
}

topology::VertexId MachineAt(const topology::Topology& topo, int index) {
  const auto& machines = topo.machines();
  if (machines.empty()) return topology::kNoVertex;
  const size_t i = std::min<size_t>(std::max(index, 0), machines.size() - 1);
  return machines[i];
}

// Deterministic probe pass for scripted `vertex: -1` events: the first
// machine hosting a VM of the first admissible job.  Admissions are
// deterministic, so the engine reproduces these placements.
topology::VertexId AutoTarget(const topology::Topology& topo,
                              const std::vector<workload::JobSpec>& jobs,
                              workload::Abstraction abstraction,
                              double vc_quantile, double epsilon,
                              bool survivability,
                              const core::Allocator& allocator) {
  core::NetworkManager probe(topo, epsilon);
  core::AdmissionOptions options;
  options.survivability = survivability;
  probe.set_admission_options(options);
  for (const workload::JobSpec& job : jobs) {
    auto placed = probe.Admit(
        workload::MakeRequest(job, abstraction, vc_quantile), allocator);
    if (placed) return placed->vm_machine[0];
  }
  return topology::kNoVertex;
}

struct CellSpec {
  VariantConfig variant;
  int axis_index = -1;
  double axis_value = 0;
};

// Axis-major over the non-`once` variants (declaration order inside an
// axis point), then the `once` variants — matching the legacy benches'
// submission order, which keeps decision-provenance streams identical.
std::vector<CellSpec> EnumerateCells(const Scenario& s) {
  const std::vector<VariantConfig> variants = EffectiveVariants(s);
  std::vector<CellSpec> cells;
  if (!s.sweep.parameter.empty()) {
    for (size_t i = 0; i < s.sweep.values.size(); ++i) {
      for (const VariantConfig& variant : variants) {
        if (variant.once) continue;
        cells.push_back({variant, static_cast<int>(i), s.sweep.values[i]});
      }
    }
  }
  for (const VariantConfig& variant : variants) {
    if (s.sweep.parameter.empty() || variant.once) {
      cells.push_back({variant, -1, 0});
    }
  }
  return cells;
}

std::vector<workload::JobSpec> BuildFixedJobs(const FixedJobConfig& config) {
  std::vector<workload::JobSpec> jobs;
  for (int i = 0; i < config.count; ++i) {
    workload::JobSpec job;
    job.id = i + 1;
    job.size = config.size;
    job.compute_time = config.compute_time;
    job.rate_mean = config.rate_mean;
    job.rate_stddev = config.rho * config.rate_mean;
    job.flow_mbits = config.rate_mean * config.flow_seconds;
    job.arrival_time = 0;
    jobs.push_back(job);
  }
  return jobs;
}

// The fault plane `sf` resolves to on `topo` at machine MTBF
// `machine_mtbf`: the link MTBF derived, the correlated groups expanded,
// and auto-target (-1) scripted events aimed at `target` (dropped when it
// is kNoVertex).  The recovery policy is left to the caller.
FaultConfig ResolveFaults(const ScenarioFaultConfig& sf, double machine_mtbf,
                          const topology::Topology& topo,
                          topology::VertexId target) {
  FaultConfig f;
  f.machine_mtbf_seconds = machine_mtbf;
  f.link_mtbf_seconds = sf.link_mtbf_factor > 0
                            ? sf.link_mtbf_factor * machine_mtbf
                            : sf.link_mtbf_seconds;
  f.mttr_seconds = sf.mttr_seconds;
  f.horizon_seconds = sf.horizon_seconds;
  f.seed = sf.seed;
  for (const ScriptedEventConfig& e : sf.scripted) {
    topology::VertexId vertex =
        e.vertex < 0 ? target : static_cast<topology::VertexId>(e.vertex);
    if (vertex == topology::kNoVertex) continue;
    FaultEvent event;
    event.time = e.time;
    event.vertex = vertex;
    event.kind =
        e.kind == "link" ? core::FaultKind::kLink : core::FaultKind::kMachine;
    event.fail = e.fail;
    event.drain = e.drain;
    f.scripted.push_back(event);
  }
  for (const CorrelatedEventConfig& c : sf.correlated) {
    const double time = c.time_frac * f.horizon_seconds;
    const double outage =
        c.outage_seconds < 0 ? f.mttr_seconds : c.outage_seconds;
    if (c.kind == "rack_power") {
      const topology::VertexId rack = TorAt(topo, c.index);
      if (rack != topology::kNoVertex) {
        AppendRackPowerEvent(topo, rack, time, outage, &f.scripted);
      }
    } else if (c.kind == "tor_loss") {
      const topology::VertexId rack = TorAt(topo, c.index);
      if (rack != topology::kNoVertex) {
        AppendTorLossEvent(rack, time, outage, &f.scripted);
      }
    } else {
      const topology::VertexId machine = MachineAt(topo, c.index);
      if (machine != topology::kNoVertex) {
        AppendPlannedDrain(machine, time, outage, &f.scripted);
      }
    }
  }
  return f;
}

// The fully resolved fault plane of one cell.  Scripted vertex -1 aims at
// the probe target; if no job is admissible on the empty fabric, the
// unresolvable event is dropped.
FaultConfig BuildCellFaults(const Scenario& s, const CellSpec& spec,
                            const ResolvedVariant& resolved,
                            const topology::Topology& topo,
                            double vc_quantile, double epsilon,
                            const std::vector<workload::JobSpec>& jobs,
                            const core::Allocator& allocator) {
  const bool on_mtbf_axis =
      s.sweep.parameter == "mtbf" && spec.axis_index >= 0;
  const double machine_mtbf =
      on_mtbf_axis ? spec.axis_value : s.faults.machine_mtbf_seconds;
  const bool needs_target = std::any_of(
      s.faults.scripted.begin(), s.faults.scripted.end(),
      [](const ScriptedEventConfig& e) { return e.vertex < 0; });
  topology::VertexId target = topology::kNoVertex;
  if (needs_target) {
    target = AutoTarget(topo, jobs, resolved.abstraction, vc_quantile,
                        epsilon, resolved.survivable, allocator);
  }
  FaultConfig f = ResolveFaults(s.faults, machine_mtbf, topo, target);
  f.policy = resolved.policy;
  return f;
}

// Runs one grid cell: rebuilds topology, workload, and engine from the
// scenario's fixed seeds (bit-identical to the bespoke benches).
ScenarioCell RunCell(const Scenario& s, const CellSpec& spec,
                     const ResolvedVariant& resolved,
                     const core::Allocator& allocator,
                     const ScenarioRunOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const std::string& axis = s.sweep.parameter;
  const bool on_axis = spec.axis_index >= 0;

  topology::ThreeTierConfig tconfig = s.topology;
  if (on_axis && axis == "oversub") tconfig.oversubscription = spec.axis_value;
  if (on_axis && axis == "trunk") {
    tconfig.tor_trunk = static_cast<int>(spec.axis_value);
    tconfig.agg_trunk = static_cast<int>(spec.axis_value);
  }
  const topology::Topology topo = topology::BuildThreeTier(tconfig);

  workload::WorkloadConfig wconfig = s.workload;
  if (on_axis && axis == "rho") wconfig.fixed_deviation = spec.axis_value;
  for (const auto& [token, distribution] : DistributionTokens()) {
    if (token == spec.variant.rate_distribution) {
      wconfig.rate_distribution = distribution;
    }
  }

  double load = s.arrivals.load;
  if (on_axis && axis == "load") load = spec.axis_value;

  double epsilon = s.admission.epsilon;
  if (on_axis && axis == "epsilon") epsilon = spec.axis_value;
  if (spec.variant.epsilon >= 0) epsilon = spec.variant.epsilon;

  double vc_quantile = s.admission.vc_quantile;
  if (on_axis && axis == "quantile") vc_quantile = spec.axis_value;
  if (spec.variant.vc_quantile >= 0) vc_quantile = spec.variant.vc_quantile;

  const bool online = s.arrivals.mode != "batch";
  std::vector<workload::JobSpec> jobs;
  if (s.fixed_jobs.count > 0) {
    jobs = BuildFixedJobs(s.fixed_jobs);
  } else {
    workload::WorkloadGenerator gen(wconfig, s.seed);
    jobs = online ? gen.GenerateOnline(load, topo.total_slots())
                  : gen.GenerateBatch();
    ArrivalConfig arrivals = s.arrivals;
    arrivals.load = load;
    ShapeArrivals(arrivals, &jobs);
  }

  SimConfig config;
  config.abstraction = resolved.abstraction;
  config.allocator = &allocator;
  config.epsilon = epsilon;
  config.vc_quantile = vc_quantile;
  config.seed = s.seed + 1;
  config.max_seconds = s.max_seconds;
  config.admission.survivability = resolved.survivable;
  config.sample_occupancy = online;
  config.enforcement = resolved.enforcement;
  config.burst_seconds = s.enforcement.burst_seconds;
  config.series = options.series;
  config.series_period = options.series_period;
  config.faults = BuildCellFaults(s, spec, resolved, topo, vc_quantile,
                                  epsilon, jobs, allocator);

  ScenarioCell cell;
  cell.label = spec.variant.label;
  cell.axis_index = spec.axis_index;
  cell.axis_value = spec.axis_value;
  cell.online = online;
  Engine engine(topo, config);
  if (online) {
    cell.online_result = engine.RunOnline(std::move(jobs));
  } else {
    cell.batch = engine.RunBatch(jobs);
  }
  cell.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return cell;
}

}  // namespace

void ShapeArrivals(const ArrivalConfig& arrivals,
                   std::vector<workload::JobSpec>* jobs) {
  if (jobs->empty()) return;
  if (arrivals.mode == "flash_crowd") {
    // Piecewise-linear time warp: arrivals inside the window
    // [burst_start, burst_start + burst_length) (fractions of the original
    // arrival span) are compressed by burst_factor; the tail shifts left
    // to keep the map continuous.  Order-, count-, and payload-preserving.
    const double span = jobs->back().arrival_time;
    if (span <= 0 || arrivals.burst_factor <= 1) return;
    const double b0 = arrivals.burst_start * span;
    const double b1 = (arrivals.burst_start + arrivals.burst_length) * span;
    const double k = arrivals.burst_factor;
    for (workload::JobSpec& job : *jobs) {
      const double t = job.arrival_time;
      if (t <= b0) continue;
      if (t < b1) {
        job.arrival_time = b0 + (t - b0) / k;
      } else {
        job.arrival_time = t - (b1 - b0) * (1 - 1 / k);
      }
    }
  } else if (arrivals.mode == "diurnal") {
    // Inverse-CDF warp onto lambda(t) = lambda * (1 + a*sin(2*pi*t/P)):
    // solve Lambda(t) = s with Lambda(t) = t + (a*P/2pi)*(1 - cos(2pi*t/P))
    // by bisection (Lambda is strictly increasing for a < 1).
    const double a = arrivals.amplitude;
    const double period = arrivals.period_seconds;
    if (a <= 0 || a >= 1 || period <= 0) return;
    const double c = a * period / (2 * M_PI);
    auto cumulative = [&](double t) {
      return t + c * (1 - std::cos(2 * M_PI * t / period));
    };
    for (workload::JobSpec& job : *jobs) {
      const double s = job.arrival_time;
      double lo = std::max(0.0, s - 2 * c);
      double hi = s;
      for (int iteration = 0; iteration < 64; ++iteration) {
        const double mid = 0.5 * (lo + hi);
        if (cumulative(mid) < s) lo = mid;
        else hi = mid;
      }
      job.arrival_time = 0.5 * (lo + hi);
    }
  }
  // batch / poisson / static: arrivals are used as generated.
}

namespace {

// hi_key's value must not be below lo_key's.
Status Ordered(double lo, double hi, const std::string& section,
               const std::string& lo_key, const std::string& hi_key) {
  if (hi >= lo) return Status::Ok();
  return FieldError(section + "." + hi_key, "must be >= " + lo_key);
}

// The values each sweep axis admits.
Range SweepRange(const std::string& parameter) {
  if (parameter == "epsilon" || parameter == "quantile") {
    return Range::Open(0, 1);
  }
  if (parameter == "load" || parameter == "mtbf") return Range::Above(0);
  if (parameter == "oversub") return Range::AtLeast(1);
  if (parameter == "rho") return Range::AtLeast(0);
  if (parameter == "trunk") return Range::Closed(1, INT32_MAX);
  return {};
}

}  // namespace

util::Status ValidateScenario(const Scenario& s) {
  Status status = util::CheckFields(ScenarioFields(), s, "scenario");
  if (!status.ok()) return status;

  const topology::ThreeTierConfig& t = s.topology;
  if (t.racks % t.racks_per_agg != 0) {
    return FieldError("scenario.topology.racks_per_agg",
                      "must divide racks (" + std::to_string(t.racks) + ")");
  }

  const workload::WorkloadConfig& wl = s.workload;
  if (s.fixed_jobs.count == 0 && wl.num_jobs == 0) {
    return FieldError("scenario.workload.num_jobs",
                      "must be >= 1 unless fixed_jobs.count > 0");
  }
  const std::string section = "scenario.workload";
  for (Status ordered :
       {Ordered(wl.min_job_size, wl.max_job_size, section, "min_job_size",
                "max_job_size"),
        Ordered(wl.compute_time_lo, wl.compute_time_hi, section,
                "compute_time_lo", "compute_time_hi"),
        Ordered(wl.deviation_lo, wl.deviation_hi, section, "deviation_lo",
                "deviation_hi"),
        Ordered(wl.flow_time_lo, wl.flow_time_hi, section, "flow_time_lo",
                "flow_time_hi")}) {
    if (!ordered.ok()) return ordered;
  }

  if (s.arrivals.burst_start + s.arrivals.burst_length > 1) {
    return FieldError("scenario.arrivals.burst_length",
                      "burst_start + burst_length must be <= 1");
  }
  if (s.arrivals.mode == "static" && s.fixed_jobs.count == 0) {
    return FieldError("scenario.arrivals.mode",
                      "static arrivals require fixed_jobs.count > 0");
  }

  if (!s.admission.allocator.empty() &&
      core::MakeAllocatorByName(s.admission.allocator) == nullptr) {
    return FieldError("scenario.admission.allocator",
                      "unknown allocator '" + s.admission.allocator +
                          "' (known: " + core::KnownAllocatorNamesText() + ")");
  }

  const std::string& axis = s.sweep.parameter;
  if (!axis.empty() && s.sweep.values.empty()) {
    return FieldError("scenario.sweep.values",
                      "must be non-empty when a parameter is set");
  }
  const Range axis_range = SweepRange(axis);
  for (size_t i = 0; i < s.sweep.values.size(); ++i) {
    const double value = s.sweep.values[i];
    const std::string path =
        "scenario.sweep.values[" + std::to_string(i) + "]";
    if (!axis_range.Contains(value)) {
      return FieldError(path, axis + " values must be " + axis_range.Text());
    }
    if (axis == "trunk" && value != std::floor(value)) {
      return FieldError(path, "trunk widths must be integers");
    }
  }

  std::set<std::string> labels;
  for (size_t i = 0; i < s.variants.size(); ++i) {
    const VariantConfig& v = s.variants[i];
    const std::string path = "scenario.variants[" + std::to_string(i) + "]";
    if (!labels.insert(v.label).second) {
      return FieldError(path + ".label", "duplicate label '" + v.label + "'");
    }
    const std::string allocator = ResolveVariant(s, v).allocator;
    if (core::MakeAllocatorByName(allocator) == nullptr) {
      return FieldError(path + ".allocator",
                        "unknown allocator '" + allocator + "' (known: " +
                            core::KnownAllocatorNamesText() + ")");
    }
  }

  // The fault plane against the scenario's own fabric, at every machine
  // MTBF the grid runs, with auto-target (-1) events standing in for the
  // first machine: each cell's probe aims them at a real VM host.
  const ScenarioFaultConfig& f = s.faults;
  if (f.machine_mtbf_seconds == 0 && f.link_mtbf_seconds == 0 &&
      axis != "mtbf" && f.scripted.empty() && f.correlated.empty()) {
    return Status::Ok();
  }
  std::vector<double> mtbfs = {f.machine_mtbf_seconds};
  if (axis == "mtbf") {
    mtbfs.insert(mtbfs.end(), s.sweep.values.begin(), s.sweep.values.end());
  }
  const topology::Topology topo = topology::BuildThreeTier(s.topology);
  for (const double mtbf : mtbfs) {
    status = ValidateFaultConfig(
        topo, ResolveFaults(f, mtbf, topo, MachineAt(topo, 0)));
    if (!status.ok()) return FieldError("scenario.faults", status.message());
  }
  return Status::Ok();
}

std::string ScenarioAllocatorName(const Scenario& scenario) {
  return ResolveVariant(scenario, VariantConfig{}).allocator;
}

const ScenarioCell* FindCell(const ScenarioRunResult& result,
                             const std::string& label, int axis_index) {
  for (const ScenarioCell& cell : result.cells) {
    if (cell.label == label && cell.axis_index == axis_index) return &cell;
  }
  return nullptr;
}

util::Result<ScenarioRunResult> RunScenario(const Scenario& scenario,
                                            const ScenarioRunOptions& options) {
  Status status = ValidateScenario(scenario);
  if (!status.ok()) return status;

  const std::vector<CellSpec> specs = EnumerateCells(scenario);

  // Allocators resolved once up front (const, thread-safe to share);
  // ValidateScenario vouched for every name.
  std::map<std::string, std::unique_ptr<core::Allocator>> allocators;
  std::vector<ResolvedVariant> resolved(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    resolved[i] = ResolveVariant(scenario, specs[i].variant);
    auto& slot = allocators[resolved[i].allocator];
    if (slot == nullptr) {
      slot = core::MakeAllocatorByName(resolved[i].allocator);
    }
  }

  SVC_METRIC_INC("scenario/runs");
  SVC_METRIC_ADD("scenario/cells", static_cast<int64_t>(specs.size()));

  std::vector<std::function<ScenarioCell()>> tasks;
  tasks.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::Allocator* allocator =
        allocators.at(resolved[i].allocator).get();
    const CellSpec* spec = &specs[i];
    const ResolvedVariant* variant = &resolved[i];
    tasks.push_back([&scenario, spec, variant, allocator, &options] {
      return RunCell(scenario, *spec, *variant, *allocator, options);
    });
  }
  SweepRunner runner(options.threads);
  ScenarioRunResult result;
  result.cells = runner.Run(std::move(tasks));
  return result;
}

}  // namespace svc::sim
