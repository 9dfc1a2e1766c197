// Report tables (bench/scenario_reports.h): every registered report renders
// from a smoke-sized run of its registry scenario, titles take their values
// from scenario fields, and a run that lacks a cell the report reads skips
// the report instead of reading past it.
#include "scenario_reports.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace svc::bench {
namespace {

// A registry scenario at test scale: 8 jobs of 8 VMs on average (at most
// 24) on a 10 x 10 fabric of 400 slots, at most two sweep values and a
// short horizon.  A report reads every cell whatever these sizes, and the
// run time grows with them: in the Debug sanitizer build, where every
// engine tick also re-solves max-min over every loaded link as a
// cross-check, the 16 reports take about 5 s here; the 13 figure and
// ablation reports took about 15 s with paper-sized jobs on the paper
// fabric.
sim::Scenario Shrunk(const std::string& name) {
  sim::Scenario s = *sim::FindScenario(name);
  s.topology.racks = 10;
  s.topology.machines_per_rack = 10;
  s.topology.racks_per_agg = 5;
  s.workload.num_jobs = 8;
  s.workload.mean_job_size = 8;
  s.workload.max_job_size = 24;
  if (s.sweep.values.size() > 2) s.sweep.values.resize(2);
  s.max_seconds = std::min(s.max_seconds, 60000.0);
  return s;
}

sim::ScenarioCell Cell(const std::string& label, int axis, double value) {
  sim::ScenarioCell cell;
  cell.label = label;
  cell.axis_index = axis;
  cell.axis_value = value;
  return cell;
}

TEST(ScenarioReport, EveryReportRendersFromASmokeRun) {
  const std::vector<std::string> names = ReportNames();
  EXPECT_EQ(names.size(), 16u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    ASSERT_NE(sim::FindScenario(name), nullptr);
    const sim::Scenario s = Shrunk(name);
    sim::ScenarioRunOptions options;
    options.threads = 2;
    const util::Result<sim::ScenarioRunResult> run =
        sim::RunScenario(s, options);
    ASSERT_TRUE(run) << run.status().ToText();
    const util::Result<std::vector<ReportTable>> report = BuildReport(s, *run);
    ASSERT_TRUE(report) << report.status().ToText();
    ASSERT_FALSE(report->empty());
    for (const ReportTable& t : *report) {
      EXPECT_FALSE(t.title.empty());
      EXPECT_GT(t.table.rows(), 0u) << t.title;
      EXPECT_FALSE(t.table.ToCsv().empty()) << t.title;
    }
  }
}

TEST(ScenarioReport, PivotHasOneRowPerSweepValueAndOneColumnPerVariant) {
  const sim::Scenario s = Shrunk("fig7");
  const util::Result<sim::ScenarioRunResult> run = sim::RunScenario(s);
  ASSERT_TRUE(run) << run.status().ToText();
  const util::Result<std::vector<ReportTable>> report = BuildReport(s, *run);
  ASSERT_TRUE(report) << report.status().ToText();
  ASSERT_EQ(report->size(), 1u);
  EXPECT_EQ(report->front().title, "Fig. 7: rejected requests (%) vs load");
  EXPECT_EQ(report->front().table.rows(), s.sweep.values.size());
  const std::string csv = report->front().table.ToCsv();
  EXPECT_TRUE(csv.starts_with(
      "load,mean-VC,percentile-VC,SVC(e=0.05),SVC(e=0.02)\n0.20,"))
      << csv;
}

// A scenario file may reuse a registry name but drop a variant: the cells
// that did run still come back, and the report is skipped, naming the cell
// it could not find.
TEST(ScenarioReport, MissingVariantSkipsTheReportAndKeepsTheCells) {
  sim::Scenario s = Shrunk("fig7");
  s.variants.erase(s.variants.begin() + 2);  // SVC(e=0.05)
  const util::Result<sim::ScenarioRunResult> run = sim::RunScenario(s);
  ASSERT_TRUE(run) << run.status().ToText();
  EXPECT_EQ(run->cells.size(), 3 * s.sweep.values.size());
  const util::Result<std::vector<ReportTable>> report = BuildReport(s, *run);
  ASSERT_FALSE(report);
  EXPECT_EQ(report.status().code(), util::ErrorCode::kNotFound);
  EXPECT_NE(report.status().message().find("SVC(e=0.05)"), std::string::npos)
      << report.status().message();
}

TEST(ScenarioReport, TitlesTakeTheirValuesFromScenarioFields) {
  sim::Scenario fig8 = *sim::FindScenario("fig8");
  fig8.admission.epsilon = 0.02;
  sim::ScenarioRunResult fig8_cells;
  fig8_cells.cells = {Cell("SVC", 0, 0.4), Cell("percentile-VC", 0, 0.4)};
  const util::Result<std::vector<ReportTable>> series =
      BuildReport(fig8, fig8_cells);
  ASSERT_TRUE(series) << series.status().ToText();
  ASSERT_EQ(series->size(), 2u);
  EXPECT_EQ((*series)[0].title,
            "Fig. 8: concurrent jobs at 40% load (series samples)");
  EXPECT_EQ((*series)[0].table.rows(), 0u);  // no samples, no rows
  EXPECT_TRUE((*series)[1].table.ToCsv().starts_with(
      "metric,SVC(e=0.02),percentile-VC,SVC gain\n"));

  sim::Scenario enforcement = *sim::FindScenario("ablation_enforcement");
  enforcement.workload.fixed_deviation = 0.5;
  sim::ScenarioRunResult enforcement_cells;
  for (const sim::VariantConfig& v : enforcement.variants) {
    enforcement_cells.cells.push_back(Cell(v.label, -1, 0));
  }
  const util::Result<std::vector<ReportTable>> table =
      BuildReport(enforcement, enforcement_cells);
  ASSERT_TRUE(table) << table.status().ToText();
  EXPECT_EQ(table->front().title,
            "Ablation: reservation enforcement discipline (rho = 0.5)");

  // A scenario without a report renders nothing.
  const util::Result<std::vector<ReportTable>> none =
      BuildReport(*sim::FindScenario("flash_crowd"), {});
  ASSERT_TRUE(none);
  EXPECT_TRUE(none->empty());
}

}  // namespace
}  // namespace svc::bench
