// The benchmark's workloads.  Each one generates its inputs from a seed,
// drives the libraries through their public calls, checks the outputs, and
// returns one repetition's measurements.  A repetition is a fixed amount of
// work (a number of tenants, fault events and bursts), never a duration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Fabric {
  kPaper,  // ThreeTierConfig defaults: 50 racks x 20 machines x 4 slots
  kTiny,   // 4 racks x 5 machines x 4 slots, for the smoke test
};

struct RepOptions {
  std::string workload;
  uint64_t seed = 1;
  Fabric fabric = Fabric::kPaper;
  int nproc = 1;
  // Traced repetitions time every call into each layer and fill
  // Rep::layers; untraced ones time only the end-to-end operations.
  bool traced = false;
};

struct Rep {
  double setup_s = 0;   // topology, workload, fault schedule, pre-load or
                        // warm-up
  double replay_s = 0;  // wall time of the measured replay
  double sim_seconds = 0;  // simulated time the replay covers
  std::vector<double> admit_us;  // one entry per measured admission
  std::vector<double> fault_us;  // one entry per HandleFault call
  // Every timed operation of the replay in order (admits, releases, fault
  // and recovery calls; a whole burst; a whole engine run).  Their sum is
  // the replay time less the benchmark's own bookkeeping.
  std::vector<double> op_us;
  int64_t offered = 0;    // tenants offered for admission
  int64_t rejected = 0;   // capacity / infeasibility rejections
  int64_t stranded = 0;   // tenants hit by a fault
  int64_t evicted = 0;    // of those, tenants evicted
  double outage_rate = 0;  // flow_sim only
  double peak_rss_mb = 0;  // process high-water mark when the rep ended
  int64_t attempted = 0;  // operations issued, checks included
  int64_t failed = 0;     // unexpected errors plus failed checks
  std::vector<std::string> errors;  // the first few failures, for stderr
  uint64_t digest = 0;    // hash of every decision, see Digest
  // Traced repetitions only: per-layer metric name -> value.
  std::map<std::string, double> layers;
  // Provenance: workload sizes and threads used.
  std::map<std::string, double> sizes;
};

// Names accepted by RunRep, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Nearest-rank q-quantile (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

// Runs one repetition.  The workload name must be one of WorkloadNames().
Rep RunRep(const RepOptions& options);

}  // namespace perfbench
