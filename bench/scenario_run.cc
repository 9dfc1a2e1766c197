// scenario_run: the one experiment front end.  Every figure, ablation and
// fault scenario is a named registry entry (sim/scenario.h); this binary
// runs any of them, or a scenario JSON file, with the shared observability
// flags, prints each scenario's generic cell table and then its figure,
// ablation or fault report (bench/scenario_reports.h), and writes a
// machine-readable BENCH_SCENARIO.json summary keyed by the scenario's
// config hash.
//
//   scenario_run --list                      # registry inventory
//   scenario_run --scenario fig7             # run one registry entry
//   scenario_run --scenario fig7 --print     # dump its JSON (after
//                                            # overrides) and exit
//   scenario_run --file my_experiment.json   # run a scenario from disk
//   scenario_run --all --smoke               # CI: every entry, shrunk
//
// --jobs / --seed / --max-seconds override the scenario's declared values
// when set; every other field (fabric, rate menu, sweep values, epsilon,
// load) is changed by editing the --print output and running it with
// --file.  --smoke shrinks every selected scenario (job count, sweep
// width, horizon) so the full registry sweeps in CI time.  Overrides are
// applied BEFORE hashing, so the emitted config_hash identifies the
// configuration that actually ran.  Each scenario and each cell also
// carries its wall-clock `wall_s` (cells of one sweep run concurrently
// under --threads, so their times need not sum to the scenario's).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/core.h"
#include "scenario_reports.h"
#include "sim/sweep_runner.h"

namespace {

using namespace svc;

// Shrinks a scenario to CI scale while keeping every variant (and so every
// code path) alive: fewer jobs, at most two sweep points, a shorter
// simulated horizon.
void ApplySmoke(sim::Scenario* s) {
  s->workload.num_jobs = std::min<int64_t>(s->workload.num_jobs, 48);
  if (s->fixed_jobs.count > 0) {
    s->fixed_jobs.count = std::min<int64_t>(s->fixed_jobs.count, 8);
  }
  if (s->sweep.values.size() > 2) s->sweep.values.resize(2);
  s->max_seconds = std::min(s->max_seconds, 60000.0);
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags(
      "scenario_run: run a registered or on-disk scenario "
      "(writes BENCH_SCENARIO.json)");
  std::string& scenario_name =
      flags.String("scenario", "", "registry scenario name (see --list)");
  std::string& file = flags.String("file", "", "scenario JSON file to run");
  bool& list = flags.Bool("list", false, "list registered scenarios and exit");
  bool& print = flags.Bool(
      "print", false,
      "print the selected scenario's JSON (after overrides) and exit");
  bool& all = flags.Bool("all", false, "run every registered scenario");
  bool& smoke = flags.Bool(
      "smoke", false,
      "shrink each scenario (jobs, sweep width, horizon) to CI scale");
  int64_t& jobs =
      flags.Int("jobs", 0, "override the scenario job count (0 = declared)");
  int64_t& seed =
      flags.Int("seed", -1, "override the scenario seed (-1 = declared)");
  double& max_seconds = flags.Double(
      "max-seconds", 0, "override the simulation horizon (0 = declared)");
  int64_t& threads =
      flags.Int("threads", 0,
                "sweep worker threads (0 = all hardware threads, 1 = serial)");
  std::string& out =
      flags.String("out", "BENCH_SCENARIO.json", "summary path ('' = skip)");
  bool& csv = flags.Bool("csv", false, "also print CSV");
  const bench::ObsFlags obs_flags(flags);
  flags.Parse(argc, argv);

  if (list) {
    for (const std::string& name : sim::RegisteredScenarioNames()) {
      const sim::Scenario* s = sim::FindScenario(name);
      std::printf("%-22s %s\n", name.c_str(), s->description.c_str());
    }
    return 0;
  }

  // Select the scenarios to run.
  std::vector<sim::Scenario> selected;
  const int selectors =
      (all ? 1 : 0) + (!scenario_name.empty() ? 1 : 0) + (!file.empty() ? 1 : 0);
  if (selectors != 1) {
    std::fprintf(stderr,
                 "pass exactly one of --scenario <name>, --file <path>, "
                 "--all (see --list)\n");
    return 2;
  }
  if (all) {
    for (const std::string& name : sim::RegisteredScenarioNames()) {
      selected.push_back(*sim::FindScenario(name));
    }
  } else if (!scenario_name.empty()) {
    const sim::Scenario* s = sim::FindScenario(scenario_name);
    if (s == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s'; --list shows the registry\n",
                   scenario_name.c_str());
      return 2;
    }
    selected.push_back(*s);
  } else {
    std::string text;
    if (!ReadWholeFile(file, &text)) {
      std::fprintf(stderr, "cannot read %s\n", file.c_str());
      return 2;
    }
    util::Result<sim::Scenario> parsed = sim::ParseScenario(text);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   parsed.status().ToText().c_str());
      return 2;
    }
    selected.push_back(std::move(*parsed));
  }

  for (sim::Scenario& s : selected) {
    if (jobs > 0) s.workload.num_jobs = jobs;
    if (seed >= 0) s.seed = static_cast<uint64_t>(seed);
    if (max_seconds > 0) s.max_seconds = max_seconds;
    if (smoke) ApplySmoke(&s);
  }

  if (print) {
    for (const sim::Scenario& s : selected) {
      std::fputs(sim::SerializeScenario(s).c_str(), stdout);
    }
    return 0;
  }

  bench::ObsScope obs_scope(obs_flags);

  util::JsonWriter w;
  w.BeginObject();
  w.Member("hardware_threads", sim::HardwareThreads());
  w.Key("scenarios");
  w.BeginArray();
  for (const sim::Scenario& s : selected) {
    const auto start = std::chrono::steady_clock::now();
    const sim::ScenarioRunResult result =
        bench::RunScenarioOrDie(s, static_cast<int>(threads));
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    util::Table table({"cell", "axis", "mode", "rejection %",
                       "mean running (s)", "outage rate"});
    w.BeginObject();
    w.Member("name", s.name);
    w.Member("config_hash", sim::ScenarioConfigHash(s));
    w.Member("wall_s", wall_s);
    w.Key("cells");
    w.BeginArray();
    for (const sim::ScenarioCell& cell : result.cells) {
      const std::string axis =
          cell.axis_index >= 0 ? util::Table::Num(cell.axis_value, 2) : "-";
      w.BeginObject();
      w.Member("label", cell.label);
      w.Member("axis_index", static_cast<int64_t>(cell.axis_index));
      w.Member("axis_value", cell.axis_value);
      w.Member("mode", cell.online ? "online" : "batch");
      w.Member("wall_s", cell.wall_s);
      const sim::RunResult& r = cell.result;
      if (cell.online) {
        w.Member("accepted", r.accepted);
        w.Member("rejected", r.rejected);
        w.Member("rejection_rate", r.RejectionRate());
        w.Member("outage_rate", r.outage.OutageRate());
        w.Member("steady_outage_rate", r.steady_outage().OutageRate());
        w.Member("mean_running_seconds", r.MeanRunningTime());
        w.Member("faults_injected", r.faults_injected);
        table.AddRow({cell.label, axis, "online",
                      util::Table::Num(100 * r.RejectionRate(), 2),
                      util::Table::Num(r.MeanRunningTime(), 1),
                      util::Table::Num(r.outage.OutageRate(), 5)});
      } else {
        w.Member("makespan_seconds", r.total_completion_time);
        w.Member("outage_rate", r.outage.OutageRate());
        w.Member("mean_running_seconds", r.MeanRunningTime());
        table.AddRow({cell.label, axis, "batch", "-",
                      util::Table::Num(r.MeanRunningTime(), 1),
                      util::Table::Num(r.outage.OutageRate(), 5)});
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    bench::EmitTable("Scenario " + s.name + " (" + s.description + ")", table,
                     csv);
    const util::Result<std::vector<bench::ReportTable>> report =
        bench::BuildReport(s, result);
    if (!report) {
      std::fprintf(stderr, "scenario '%s': report skipped: %s\n",
                   s.name.c_str(), report.status().ToText().c_str());
    } else {
      for (const bench::ReportTable& t : *report) {
        bench::EmitTable(t.title, t.table, csv);
      }
    }
  }
  w.EndArray();
  bench::AddMetricsMember(w);
  w.EndObject();
  if (!out.empty()) {
    if (!obs::WriteFile(out, w.str() + "\n")) return 1;
    std::printf("wrote %s\n", out.c_str());
  }
  return obs_scope.Finish() ? 0 : 1;
}
