// The result record of a simulation run, shared by both disciplines.
#pragma once

#include <cstdint>
#include <vector>

namespace svc::sim {

// One finished job's timeline.
struct JobRecord {
  int64_t id = 0;
  double arrival_time = 0;
  double start_time = 0;   // when the allocation succeeded
  double finish_time = 0;  // max(compute done, last flow done)
  double running_time() const { return finish_time - start_time; }
  double waiting_time() const { return start_time - arrival_time; }
};

// Bandwidth-outage accounting: an outage is a (link, second) pair where the
// offered demand exceeded the link capacity (so some flow was throttled).
// The paper's constraint (1) bounds the per-link outage probability by
// epsilon; OutageRate() is the empirical aggregate over all loaded links.
struct OutageStats {
  int64_t outage_link_seconds = 0;
  int64_t busy_link_seconds = 0;
  double OutageRate() const {
    return busy_link_seconds == 0
               ? 0.0
               : static_cast<double>(outage_link_seconds) / busy_link_seconds;
  }
};

// What one Engine::RunBatch or Engine::RunOnline run returns.  Both
// disciplines fill every field but these:
//   * unallocatable_jobs: RunBatch only.  A batch job that does not fit
//     waits in the FIFO, so a batch run leaves `rejected` at 0.
//   * rejected and the three per-arrival sample vectors: RunOnline only.
// A batch run's job records all have arrival_time 0.
struct RunResult {
  std::vector<JobRecord> jobs;  // completed jobs, in completion order
  int64_t accepted = 0;         // admitted jobs
  int64_t rejected = 0;         // no fit at arrival
  int64_t unallocatable_jobs = 0;  // skipped: no fit even on an empty fabric
  double total_completion_time = 0;  // last completion: the batch makespan
  double simulated_seconds = 0;
  OutageStats outage;
  // Level of the subtree each accepted placement fit in (0 = one machine):
  // the locality metric the lowest-subtree rule optimizes.
  std::vector<int> placement_levels;

  // Sampled at every job arrival (paper Sections VI-B2/B3).
  std::vector<int> concurrency_samples;
  std::vector<double> max_occupancy_samples;
  // Worst reserved-but-idle backup fraction across links, sampled at every
  // arrival when survivable admission is on: the protection tax actually
  // held in reserve (0 when no backups exist).
  std::vector<double> backup_share_samples;

  // --- Fault plane (SimConfig.faults) ---
  int64_t faults_injected = 0;
  int64_t fault_recoveries = 0;
  int64_t tenants_affected = 0;   // placements touched by some fault
  int64_t tenants_recovered = 0;  // re-admitted (reallocated or patched)
  int64_t tenants_evicted = 0;    // released for good, with a reason code
  int64_t tenants_switched = 0;   // recovered by activating a backup group
  int64_t planned_drains = 0;     // drain events applied
  int64_t tenants_migrated = 0;   // moved off a machine by a planned drain
  // Outage accounting restricted to ticks where at least one element was
  // down.  `outage` above keeps the overall totals, so the steady-epoch
  // share — where the paper's epsilon bound must still hold — is derived.
  OutageStats failure_outage;
  OutageStats steady_outage() const {
    return {outage.outage_link_seconds - failure_outage.outage_link_seconds,
            outage.busy_link_seconds - failure_outage.busy_link_seconds};
  }

  double RejectionRate() const {
    const int64_t total = accepted + rejected;
    return total == 0 ? 0.0 : static_cast<double>(rejected) / total;
  }
  double MeanConcurrency() const;
  // Mean running time per job, the Fig. 6 statistic.
  double MeanRunningTime() const;
  double MeanPlacementLevel() const;
};

// perfbench/src/workloads.cc names the record by its online-era name.
using OnlineResult = RunResult;

}  // namespace svc::sim
