#include "scenario_reports.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "stats/ecdf.h"

namespace svc::bench {
namespace {

using Tables = std::vector<ReportTable>;
using util::Table;
using Report = std::function<util::Result<Tables>(
    const sim::Scenario&, const sim::ScenarioRunResult&)>;

// Looks up the cells a report reads and keeps the first miss, so a report
// fetches all of its cells, checks once, and only then builds its tables.
class CellFinder {
 public:
  explicit CellFinder(const sim::ScenarioRunResult& result) : result_(result) {}

  const sim::ScenarioCell* operator()(const std::string& label, int axis) {
    const sim::ScenarioCell* cell = sim::FindCell(result_, label, axis);
    if (cell == nullptr && missing_.ok()) {
      missing_ = util::Status(util::ErrorCode::kNotFound,
                              "no cell '" + label + "' at sweep index " +
                                  std::to_string(axis));
    }
    return cell;
  }

  const util::Status& status() const { return missing_; }

 private:
  const sim::ScenarioRunResult& result_;
  util::Status missing_;
};

int Axes(const sim::Scenario& s) {
  return static_cast<int>(s.sweep.values.size());
}

// A load (or any fraction) as a whole percentage, for titles.
std::string Percent(double fraction) { return Table::Num(100 * fraction, 0); }

std::string SvcLabel(const sim::Scenario& s) {
  return "SVC(e=" + Table::Num(s.admission.epsilon, 2) + ")";
}

// The quantiles `qs` of two cells' max-occupancy samples, side by side.
Table OccupancyQuantiles(std::vector<std::string> header,
                         const std::vector<double>& qs,
                         const sim::RunResult& a,
                         const sim::RunResult& b) {
  const stats::EmpiricalCdf a_cdf(a.max_occupancy_samples);
  const stats::EmpiricalCdf b_cdf(b.max_occupancy_samples);
  Table table(std::move(header));
  for (double q : qs) {
    table.AddRow({Table::Num(q, 2), Table::Num(a_cdf.Percentile(q), 4),
                  Table::Num(b_cdf.Percentile(q), 4)});
  }
  return table;
}

// --- The sweep-by-variant pivot of fig5, fig6, fig7 and fig10 ---

struct Column {
  const char* label;   // variant label
  const char* header;  // column header
};

std::vector<Column> AbstractionPanel() {
  return {{"mean-VC", "mean-VC"},
          {"percentile-VC", "percentile-VC"},
          {"SVC(e=0.05)", "SVC(e=0.05)"},
          {"SVC(e=0.02)", "SVC(e=0.02)"}};
}

double Makespan(const sim::ScenarioCell& c) {
  return c.result.total_completion_time;
}
double BatchRunningTime(const sim::ScenarioCell& c) {
  return c.result.MeanRunningTime();
}
double RejectionPercent(const sim::ScenarioCell& c) {
  return 100.0 * c.result.RejectionRate();
}

// One row per sweep value, one column per variant, one metric per cell.
Report Pivot(std::string title, std::string axis_header, int axis_digits,
             std::vector<Column> columns,
             double (*metric)(const sim::ScenarioCell&), int digits) {
  return [=](const sim::Scenario& s,
             const sim::ScenarioRunResult& result) -> util::Result<Tables> {
    CellFinder find(result);
    std::vector<const sim::ScenarioCell*> cells;
    for (int p = 0; p < Axes(s); ++p) {
      for (const Column& column : columns) {
        cells.push_back(find(column.label, p));
      }
    }
    if (!find.status().ok()) return find.status();
    std::vector<std::string> header = {axis_header};
    for (const Column& column : columns) header.push_back(column.header);
    Table table(std::move(header));
    auto cell = cells.begin();
    for (int p = 0; p < Axes(s); ++p) {
      std::vector<std::string> row = {
          Table::Num(s.sweep.values[p], axis_digits)};
      for (size_t c = 0; c < columns.size(); ++c) {
        row.push_back(Table::Num(metric(**cell++), digits));
      }
      table.AddRow(std::move(row));
    }
    return Tables{{title, std::move(table)}};
  };
}

// --- The other figures ---

util::Result<Tables> Fig8(const sim::Scenario& s,
                          const sim::ScenarioRunResult& result) {
  CellFinder find(result);
  const sim::ScenarioCell* svc_cell = find("SVC", 0);
  const sim::ScenarioCell* pct_cell = find("percentile-VC", 0);
  if (!find.status().ok()) return find.status();
  const sim::RunResult& svc = svc_cell->result;
  const sim::RunResult& pct = pct_cell->result;
  const std::string svc_label = SvcLabel(s);

  // Concurrency sampled at every arrival, downsampled to 12 points.
  constexpr size_t kPoints = 12;
  const size_t n = std::min(svc.concurrency_samples.size(),
                            pct.concurrency_samples.size());
  Table series({"arrival#", svc_label, "percentile-VC"});
  for (size_t k = 0; n > 0 && k < kPoints; ++k) {
    const size_t index = n * k / kPoints;
    series.AddRow({std::to_string(index),
                   std::to_string(svc.concurrency_samples[index]),
                   std::to_string(pct.concurrency_samples[index])});
  }

  Table summary({"metric", svc_label, "percentile-VC", "SVC gain"});
  const double svc_mean = svc.MeanConcurrency();
  const double pct_mean = pct.MeanConcurrency();
  summary.AddRow({"mean concurrent jobs", Table::Num(svc_mean, 2),
                  Table::Num(pct_mean, 2),
                  Table::Num(100.0 * (svc_mean / pct_mean - 1.0), 1) + "%"});
  summary.AddRow({"rejection rate", Table::Num(svc.RejectionRate(), 3),
                  Table::Num(pct.RejectionRate(), 3), ""});
  return Tables{{"Fig. 8: concurrent jobs at " +
                     Percent(svc_cell->axis_value) + "% load (series samples)",
                 std::move(series)},
                {"Fig. 8 summary", std::move(summary)}};
}

util::Result<Tables> Fig9(const sim::Scenario& s,
                          const sim::ScenarioRunResult& result) {
  CellFinder find(result);
  std::vector<std::pair<const sim::ScenarioCell*, const sim::ScenarioCell*>>
      cells;
  for (int p = 0; p < Axes(s); ++p) {
    cells.emplace_back(find("svc-dp", p), find("tivc-adapted", p));
  }
  if (!find.status().ok()) return find.status();
  Tables tables;
  for (int p = 0; p < Axes(s); ++p) {
    tables.push_back(
        {"Fig. 9: max bandwidth-occupancy ratio quantiles, load " +
             Percent(s.sweep.values[p]) + "%",
         OccupancyQuantiles(
             {"cdf", "SVC max-occupancy", "TIVC max-occupancy"},
             {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99},
             cells[p].first->result, cells[p].second->result)});
  }
  return tables;
}

util::Result<Tables> HeteroComparison(const sim::Scenario& s,
                                      const sim::ScenarioRunResult& result) {
  CellFinder find(result);
  std::vector<std::pair<const sim::ScenarioCell*, const sim::ScenarioCell*>>
      cells;
  for (int p = 0; p < Axes(s); ++p) {
    cells.emplace_back(find("hetero-heuristic", p), find("first-fit", p));
  }
  if (!find.status().ok()) return find.status();
  Tables tables;
  for (int p = 0; p < Axes(s); ++p) {
    const sim::RunResult& h = cells[p].first->result;
    const sim::RunResult& f = cells[p].second->result;
    const std::string load = Percent(s.sweep.values[p]);
    tables.push_back(
        {"Hetero: max occupancy quantiles, load " + load + "%",
         OccupancyQuantiles(
             {"cdf", "SVC-heuristic max-occ", "first-fit max-occ"},
             {0.1, 0.25, 0.5, 0.75, 0.9, 0.95}, h, f)});
    Table summary({"metric", "SVC-heuristic", "first-fit"});
    summary.AddRow({"rejection %", Table::Num(100 * h.RejectionRate(), 2),
                    Table::Num(100 * f.RejectionRate(), 2)});
    summary.AddRow({"mean concurrency", Table::Num(h.MeanConcurrency(), 2),
                    Table::Num(f.MeanConcurrency(), 2)});
    tables.push_back(
        {"Hetero summary, load " + load + "%", std::move(summary)});
  }
  return tables;
}

util::Result<Tables> GuaranteeValidation(
    const sim::Scenario& s, const sim::ScenarioRunResult& result) {
  CellFinder find(result);
  std::vector<const sim::ScenarioCell*> svc;
  for (int p = 0; p < Axes(s); ++p) svc.push_back(find("SVC", p));
  const sim::ScenarioCell* mean = find("mean-VC", -1);
  const sim::ScenarioCell* pct = find("percentile-VC", -1);
  if (!find.status().ok()) return find.status();
  Table table({"abstraction", "epsilon", "measured outage rate",
               "busy link-seconds", "rejection %"});
  auto add_row = [&table](const std::string& name, const std::string& epsilon,
                          const sim::RunResult& cell) {
    table.AddRow({name, epsilon, Table::Num(cell.outage.OutageRate(), 5),
                  std::to_string(cell.outage.busy_link_seconds),
                  Table::Num(100 * cell.RejectionRate(), 2)});
  };
  for (int p = 0; p < Axes(s); ++p) {
    add_row("SVC", Table::Num(s.sweep.values[p], 2), svc[p]->result);
  }
  // Deterministic baselines: rate limiting makes outages impossible.
  add_row("mean-VC", "-", mean->result);
  add_row("percentile-VC", "-", pct->result);
  return Tables{
      {"Guarantee validation: measured outage probability vs epsilon",
       std::move(table)}};
}

// --- The ablations ---

util::Result<Tables> AblationLocality(const sim::Scenario& s,
                                      const sim::ScenarioRunResult& result) {
  constexpr const char* kAllocators[] = {"svc-dp", "global-minmax",
                                         "tivc-adapted"};
  CellFinder find(result);
  std::vector<const sim::ScenarioCell*> cells;
  for (int p = 0; p < Axes(s); ++p) {
    for (const char* name : kAllocators) cells.push_back(find(name, p));
  }
  if (!find.status().ok()) return find.status();
  Tables tables;
  auto cell = cells.begin();
  for (int p = 0; p < Axes(s); ++p) {
    Table table({"allocator", "rejection %", "mean placement level",
                 "median max-occ", "p95 max-occ"});
    for (const char* name : kAllocators) {
      const sim::RunResult& r = (*cell++)->result;
      const stats::EmpiricalCdf cdf(r.max_occupancy_samples);
      table.AddRow({name, Table::Num(100 * r.RejectionRate(), 2),
                    Table::Num(r.MeanPlacementLevel(), 2),
                    cdf.empty() ? "-" : Table::Num(cdf.Percentile(0.5), 4),
                    cdf.empty() ? "-" : Table::Num(cdf.Percentile(0.95), 4)});
    }
    tables.push_back({"Ablation: locality vs global min-max, load " +
                          Percent(s.sweep.values[p]) + "%",
                      std::move(table)});
  }
  return tables;
}

util::Result<Tables> AblationEnforcement(
    const sim::Scenario& s, const sim::ScenarioRunResult& result) {
  const struct {
    const char* cell;
    const char* abstraction;
    const char* enforcement;
  } kRows[] = {
      {"mean-VC/hard_cap", "mean-VC", "hard-cap"},
      {"mean-VC/token_bucket", "mean-VC", "token-bucket"},
      {"percentile-VC/hard_cap", "percentile-VC", "hard-cap"},
      {"percentile-VC/token_bucket", "percentile-VC", "token-bucket"},
      {"SVC/hard_cap", "SVC", "n/a (no limiting)"},
  };
  CellFinder find(result);
  std::vector<const sim::ScenarioCell*> cells;
  for (const auto& row : kRows) cells.push_back(find(row.cell, -1));
  if (!find.status().ok()) return find.status();
  Table table({"abstraction", "enforcement", "mean running time (s)",
               "makespan (s)", "outage rate"});
  auto cell = cells.begin();
  for (const auto& row : kRows) {
    const sim::RunResult& r = (*cell++)->result;
    table.AddRow({row.abstraction, row.enforcement,
                  Table::Num(r.MeanRunningTime(), 1),
                  Table::Num(r.total_completion_time, 0),
                  Table::Num(r.outage.OutageRate(), 5)});
  }
  return Tables{{"Ablation: reservation enforcement discipline (rho = " +
                     Table::Num(s.workload.fixed_deviation, 1) + ")",
                 std::move(table)}};
}

util::Result<Tables> AblationDistribution(
    const sim::Scenario& s, const sim::ScenarioRunResult& result) {
  constexpr const char* kDistributions[] = {"normal", "lognormal"};
  CellFinder find(result);
  std::vector<const sim::ScenarioCell*> cells;
  for (const char* distribution : kDistributions) {
    for (int p = 0; p < Axes(s); ++p) cells.push_back(find(distribution, p));
  }
  if (!find.status().ok()) return find.status();
  Table table({"rate distribution", "epsilon", "measured outage rate",
               "rejection %", "mean running time (s)"});
  auto cell = cells.begin();
  for (const char* distribution : kDistributions) {
    for (int p = 0; p < Axes(s); ++p) {
      const sim::RunResult& r = (*cell++)->result;
      table.AddRow({distribution, Table::Num(s.sweep.values[p], 2),
                    Table::Num(r.outage.OutageRate(), 5),
                    Table::Num(100 * r.RejectionRate(), 2),
                    Table::Num(r.MeanRunningTime(), 1)});
    }
  }
  return Tables{{"Ablation: SVC admission with normal vs lognormal demands",
                 std::move(table)}};
}

util::Result<Tables> AblationEcmp(const sim::Scenario& s,
                                  const sim::ScenarioRunResult& result) {
  CellFinder find(result);
  std::vector<const sim::ScenarioCell*> cells;
  for (int p = 0; p < Axes(s); ++p) cells.push_back(find("SVC", p));
  if (!find.status().ok()) return find.status();
  Table table({"trunk width", "outage rate", "rejection %",
               "mean running time (s)"});
  for (int p = 0; p < Axes(s); ++p) {
    const sim::RunResult& r = cells[p]->result;
    table.AddRow({std::to_string(static_cast<int64_t>(s.sweep.values[p])),
                  Table::Num(r.outage.OutageRate(), 5),
                  Table::Num(100 * r.RejectionRate(), 2),
                  Table::Num(r.MeanRunningTime(), 1)});
  }
  return Tables{{"Ablation: ECMP trunking (same aggregate capacity, SVC eps=" +
                     Table::Num(s.admission.epsilon, 2) + ")",
                 std::move(table)}};
}

util::Result<Tables> AblationPercentile(const sim::Scenario& s,
                                        const sim::ScenarioRunResult& result) {
  CellFinder find(result);
  const sim::ScenarioCell* mean = find("mean-VC", -1);
  std::vector<const sim::ScenarioCell*> q_vc;
  for (int p = 0; p < Axes(s); ++p) q_vc.push_back(find("q-VC", p));
  const sim::ScenarioCell* svc = find("SVC", -1);
  if (!find.status().ok()) return find.status();
  Table table({"abstraction", "rejection %", "mean running time (s)",
               "mean concurrency"});
  auto add_row = [&table](const std::string& label,
                          const sim::RunResult& r) {
    table.AddRow({label, Table::Num(100 * r.RejectionRate(), 2),
                  Table::Num(r.MeanRunningTime(), 1),
                  Table::Num(r.MeanConcurrency(), 1)});
  };
  add_row("mean-VC", mean->result);
  for (int p = 0; p < Axes(s); ++p) {
    add_row("q-VC(q=" + Table::Num(s.sweep.values[p], 2) + ")",
            q_vc[p]->result);
  }
  add_row(SvcLabel(s), svc->result);
  return Tables{{"Ablation: deterministic percentile frontier vs SVC (load " +
                     Percent(s.arrivals.load) + "%)",
                 std::move(table)}};
}

const std::vector<std::pair<std::string, Report>>& Reports() {
  static const std::vector<std::pair<std::string, Report>> reports = {
      {"fig5", Pivot("Fig. 5: total completion time (s) of batched jobs",
                     "oversub", 0, AbstractionPanel(), Makespan, 0)},
      {"fig6", Pivot("Fig. 6: average running time per job (s) vs deviation "
                     "coefficient",
                     "rho", 1, AbstractionPanel(), BatchRunningTime, 1)},
      {"fig7", Pivot("Fig. 7: rejected requests (%) vs load", "load", 2,
                     AbstractionPanel(), RejectionPercent, 2)},
      {"fig8", Fig8},
      {"fig9", Fig9},
      {"fig10", Pivot("Fig. 10: rejection rate vs load, SVC DP vs adapted "
                      "TIVC",
                      "load", 2,
                      {{"svc-dp", "SVC rejection %"},
                       {"tivc-adapted", "TIVC rejection %"}},
                      RejectionPercent, 2)},
      {"guarantee_validation", GuaranteeValidation},
      {"hetero_comparison", HeteroComparison},
      {"ablation_locality", AblationLocality},
      {"ablation_enforcement", AblationEnforcement},
      {"ablation_distribution", AblationDistribution},
      {"ablation_ecmp", AblationEcmp},
      {"ablation_percentile", AblationPercentile},
  };
  return reports;
}

}  // namespace

util::Result<std::vector<ReportTable>> BuildReport(
    const sim::Scenario& scenario, const sim::ScenarioRunResult& result) {
  for (const auto& [name, report] : Reports()) {
    if (name == scenario.name) return report(scenario, result);
  }
  return Tables{};
}

std::vector<std::string> ReportNames() {
  std::vector<std::string> names;
  for (const auto& entry : Reports()) names.push_back(entry.first);
  return names;
}

}  // namespace svc::bench
