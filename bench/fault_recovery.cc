// Fault-recovery sweep (robustness experiment, not a paper figure): runs
// the online SVC simulation under seeded failure churn, sweeping the
// machine MTBF against the three recovery policies, and reports for each
// cell the fault/recovery volume, the tenants recovered vs evicted, the
// recovery latency percentiles, and the outage rate split into failure
// and steady epochs.
//
// The headline property: the *steady-epoch* outage rate — the fraction of
// (link, second) pairs over capacity while every element was healthy —
// must stay within the admission bound epsilon regardless of how hard the
// fault plane churns.  Outages during failure epochs are expected (a
// drained link sheds its capacity out from under admitted tenants);
// outages after recovery would mean HandleFault/HandleRecovery corrupted
// ledger state.  `--check` turns that property into an exit code for CI.
//
// Survivability (docs/ROBUSTNESS.md): two extra cell families run with
// survivable admission on — kReallocate (pay the protection tax, recover
// reactively) and kSwitchover (activate the pre-reserved backup groups) —
// so one report shows the tax (rejection-rate delta, reserved backup
// share) against the payoff (switchovers, recovery latency).  A
// deterministic sigma=0 drill (`fault_drill_switchover`) injects one
// backup-covered machine failure; its steady-epoch outage must be exactly
// 0 and every affected tenant must switch over, which `--check` enforces.
// --correlated adds scripted multi-element groups (rack power, ToR loss,
// planned drain) to every cell.
//
// Runs the "fault_recovery" / "fault_correlated" / "fault_drill" registry
// scenarios (sim/scenario.h): the cell grid, the correlated-event
// schedule, and the drill's scripted auto-targeted failure all live in the
// registry; this binary applies its flags, formats the report, and runs the
// --check assertions.  Other scenario fields (fabric, workload mix) are
// changed through scenario_run --print and --file.
//
// Writes BENCH_FAULT.json (override with --out): the `benchmarks` records
// alloc_microbench --json also writes, plus the scenario name/config-hash
// header, so two snapshots diff with tools/bench_diff.py.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "sim/sweep_runner.h"
#include "util/strings.h"

namespace {

using namespace svc;

// Quantile of an unsorted sample set (nearest-rank); 0 when empty.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(q * (samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double Max(const std::vector<double>& samples) {
  double max = 0;
  for (double s : samples) max = std::max(max, s);
  return max;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags(
      "fault_recovery: failure churn vs recovery policy "
      "(writes BENCH_FAULT.json)");
  int64_t& jobs =
      flags.Int("jobs", 300, "tenant jobs per simulation (paper uses 500)");
  int64_t& seed_flag = flags.Int("seed", 42, "workload / simulation seed");
  double& epsilon = flags.Double("epsilon", 0.05, "SVC risk factor epsilon");
  int64_t& threads =
      flags.Int("threads", 0,
                "sweep worker threads (0 = all cores, 1 = serial); results "
                "are identical for every value");
  const bench::ObsFlags obs_flags(flags);
  double& load = flags.Double("load", 0.7, "datacenter load");
  std::string& mtbfs =
      flags.String("mtbfs", "300,900,2700", "machine MTBF values (seconds)");
  double& link_mtbf_factor = flags.Double(
      "link-mtbf-factor", 3.0,
      "fabric-link MTBF as a multiple of the machine MTBF (0 disables)");
  double& mttr = flags.Double("mttr", 60, "mean time to repair (seconds)");
  double& horizon =
      flags.Double("horizon", 20000, "failure-injection horizon (seconds)");
  bool& check = flags.Bool(
      "check", false,
      "exit non-zero unless every steady-epoch outage rate <= epsilon and "
      "the switchover drill has zero steady outage and no evictions");
  bool& correlated = flags.Bool(
      "correlated", false,
      "add scripted correlated events to every cell: rack power at "
      "0.25*horizon, ToR loss at 0.5*horizon, planned drain at 0.75*horizon");
  bool& csv = flags.Bool("csv", false, "also print CSV");
  std::string& out = flags.String("out", "BENCH_FAULT.json", "output path");
  flags.Parse(argc, argv);
  bench::ObsScope obs(obs_flags);
  const uint64_t seed = static_cast<uint64_t>(seed_flag);

  sim::Scenario scenario =
      *sim::FindScenario(correlated ? "fault_correlated" : "fault_recovery");
  scenario.workload.num_jobs = static_cast<int>(jobs);
  scenario.seed = seed;
  scenario.arrivals.load = load;
  scenario.admission.epsilon = epsilon;
  scenario.max_seconds = 4 * horizon;
  scenario.faults.link_mtbf_factor = link_mtbf_factor;
  scenario.faults.mttr_seconds = mttr;
  scenario.faults.horizon_seconds = horizon;
  scenario.faults.seed = seed + 2;
  scenario.sweep.values = util::ParseDoubleList(mtbfs);
  const sim::ScenarioRunResult result =
      bench::RunScenarioOrDie(scenario, static_cast<int>(threads));

  // Report rows in the legacy policy-major order; the grid itself ran
  // axis-major (cells are independent, values identical either way).
  const struct {
    const char* label;   // registry variant label (and JSON record tag)
    const char* policy;  // displayed recovery policy
    bool survivable;
  } kFamilies[] = {
      {"reallocate", "reallocate", false},
      {"patch", "patch", false},
      {"evict", "evict", false},
      {"survivable_reallocate", "reallocate", true},
      {"switchover", "switchover", true},
  };

  util::Table table({"policy", "surv", "mtbf", "faults", "recovered",
                     "switched", "evicted", "rej rate", "steady outage",
                     "failure outage", "p50 us", "p99 us"});
  std::vector<bench::BenchRecord> records;
  bool steady_ok = true;
  for (const auto& family : kFamilies) {
    for (size_t m = 0; m < scenario.sweep.values.size(); ++m) {
      const double mtbf = scenario.sweep.values[m];
      const sim::OnlineResult& r =
          sim::FindCell(result, family.label, static_cast<int>(m))
              ->online_result;
      const sim::OutageStats steady = r.steady_outage();
      const double steady_rate = steady.OutageRate();
      const double failure_rate = r.failure_outage.OutageRate();
      const double p50 = Percentile(r.recovery_latency_us, 0.50);
      const double p99 = Percentile(r.recovery_latency_us, 0.99);
      const double faults_per_sec =
          r.simulated_seconds > 0 ? r.faults_injected / r.simulated_seconds
                                  : 0.0;
      // Reserved-vs-used protection: the share of backup bandwidth actually
      // held (worst link, sampled at arrivals) against the fraction of
      // affected tenants whose recovery came from a backup activation.
      const double backup_share_mean = Mean(r.backup_share_samples);
      const double backup_share_max = Max(r.backup_share_samples);
      const double backup_used_fraction =
          r.tenants_affected > 0
              ? static_cast<double>(r.tenants_switched) / r.tenants_affected
              : 0.0;
      if (steady_rate > epsilon) steady_ok = false;
      table.AddRow({family.policy, family.survivable ? "on" : "off",
                    util::Table::Num(mtbf, 0),
                    std::to_string(r.faults_injected),
                    std::to_string(r.tenants_recovered),
                    std::to_string(r.tenants_switched),
                    std::to_string(r.tenants_evicted),
                    util::Table::Num(r.RejectionRate(), 4),
                    util::Table::Num(steady_rate, 5),
                    util::Table::Num(failure_rate, 5),
                    util::Table::Num(p50, 1), util::Table::Num(p99, 1)});
      const std::string name = std::string("fault_") + family.label +
                               "_mtbf" + util::Table::Num(mtbf, 0);
      records.push_back({name, r.faults_injected, 0.0, 0.0,
                         {{"faults_per_sec", faults_per_sec},
                          {"steady_outage_rate", steady_rate},
                          {"failure_outage_rate", failure_rate},
                          {"recovery_p50_us", p50},
                          {"recovery_p99_us", p99},
                          {"rejection_rate", r.RejectionRate()},
                          {"tenants_recovered",
                           static_cast<double>(r.tenants_recovered)},
                          {"tenants_evicted",
                           static_cast<double>(r.tenants_evicted)},
                          {"switchovers",
                           static_cast<double>(r.tenants_switched)},
                          {"planned_drains",
                           static_cast<double>(r.planned_drains)},
                          {"tenants_migrated",
                           static_cast<double>(r.tenants_migrated)},
                          {"backup_share_mean", backup_share_mean},
                          {"backup_share_max", backup_share_max},
                          {"backup_used_fraction", backup_used_fraction}}});
    }
  }
  bench::EmitTable("Fault recovery: failure churn vs recovery policy", table,
                   csv);

  // --- Deterministic switchover drill ---
  //
  // sigma = 0 jobs: every flow offers exactly mu, and since a permutation
  // pairing sends at most min(m, N-m) flows across any link cut (each
  // destination receives exactly one flow), the offered load per direction
  // never exceeds the hose reservation.  One scripted machine failure
  // (auto-targeted at a machine hosting a VM of the first admitted job) is
  // covered by the pre-reserved backup groups, so the run must finish with
  // steady-epoch outage EXACTLY 0, every affected tenant switched over,
  // and no evictions.
  bool drill_ok = true;
  {
    sim::Scenario drill = *sim::FindScenario("fault_drill");
    drill.seed = seed;
    drill.admission.epsilon = epsilon;
    drill.faults.scripted[1].time = drill.faults.scripted[0].time + mttr;
    const sim::ScenarioRunResult drill_result =
        bench::RunScenarioOrDie(drill, static_cast<int>(threads));
    const sim::OnlineResult& r =
        sim::FindCell(drill_result, "default", -1)->online_result;
    const double steady_rate = r.steady_outage().OutageRate();
    drill_ok = steady_rate == 0.0 && r.tenants_switched > 0 &&
               r.tenants_evicted == 0 &&
               r.tenants_switched == r.tenants_affected;
    std::printf(
        "drill: backup-covered machine failed, %lld affected, %lld switched "
        "over, %lld evicted, steady outage %.6g (%s)\n",
        static_cast<long long>(r.tenants_affected),
        static_cast<long long>(r.tenants_switched),
        static_cast<long long>(r.tenants_evicted), steady_rate,
        drill_ok ? "ok" : "FAIL");
    records.push_back(
        {"fault_drill_switchover", r.tenants_affected, 0.0, 0.0,
         {{"steady_outage_rate", steady_rate},
          {"failure_outage_rate", r.failure_outage.OutageRate()},
          {"switchovers", static_cast<double>(r.tenants_switched)},
          {"tenants_evicted", static_cast<double>(r.tenants_evicted)},
          {"backup_share_max", Max(r.backup_share_samples)}}});
  }

  util::JsonWriter w;
  w.BeginObject();
  w.Key("scenario");
  w.BeginObject();
  w.Member("name", scenario.name);
  w.Member("config_hash", sim::ScenarioConfigHash(scenario));
  w.EndObject();
  w.Member("hardware_threads", sim::HardwareThreads());
  w.Member("threads", threads);
  w.Member("seed", seed_flag);
  w.Member("epsilon", epsilon);
  w.Member("mttr_seconds", mttr);
  w.Member("horizon_seconds", horizon);
  bench::AddBenchmarksMember(w, records);
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
  w.EndObject();
  if (!bench::WriteFile(out, w.str() + "\n")) return 1;
  std::printf("wrote %s\n", out.c_str());

  if (check && !steady_ok) {
    std::fprintf(stderr,
                 "FAIL: steady-epoch outage rate exceeded epsilon %.4g\n",
                 epsilon);
    return 1;
  }
  if (check && !drill_ok) {
    std::fprintf(stderr,
                 "FAIL: switchover drill had steady outage or evictions\n");
    return 1;
  }
  if (check) {
    std::printf("check: steady-epoch outage within epsilon; drill clean\n");
  }
  return 0;
}
