// Per-scenario report tables: the series each paper figure and ablation
// plots, and the fault scenarios' recovery tables, printed by scenario_run
// after a scenario's generic cell table.
//
// A report is keyed by scenario name and reads that scenario's cells by
// variant label and sweep index.  Every value in a title comes from the
// scenario's own fields (sweep values, admission.epsilon, arrivals.load,
// workload.fixed_deviation), so a scenario file that keeps a registry name
// is reported with its own values.  A report looks up every cell it reads
// before it builds a table; when one is missing (a scenario file can reuse
// a registry name but drop a variant) the whole report is skipped.
#pragma once

#include <string>
#include <vector>

#include "sim/scenario.h"
#include "util/result.h"
#include "util/table.h"

namespace svc::bench {

struct ReportTable {
  std::string title;
  util::Table table;
};

// The report of `scenario` built from its run, in print order (pass each
// table to EmitTable).  Empty when no report is registered under the
// scenario's name; a NOT_FOUND error naming the first missing cell when the
// run lacks a cell the report reads.
util::Result<std::vector<ReportTable>> BuildReport(
    const sim::Scenario& scenario, const sim::ScenarioRunResult& result);

// Names that have a report, in registry order.
std::vector<std::string> ReportNames();

}  // namespace svc::bench
