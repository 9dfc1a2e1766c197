// Batch admission: a loop of NetworkManager::Admit in request order.
//
// The paper's network manager decides one tenant at a time against the
// books as they stand, so a batch is exactly that: each request is admitted
// (or rejected) on the caller's thread before the next one is looked at.
// The loop starts no thread and registers no metric of its own; the
// alloc/<allocator>/* counters and manager/admit_latency_us already count
// and time every Admit.
//
// The class and the configuration and statistics fields that no longer do
// anything stay because the repository benchmark (perfbench/src/
// workloads.cc) compiles against them; each says so where it is declared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "svc/manager.h"
#include "util/result.h"

namespace svc::core {

struct PipelineConfig {
  // Accepted and ignored: the batch loop runs on the caller's thread.  Kept
  // because perfbench/src/workloads.cc assigns them.
  int workers = 0;
  int shards = 0;
  // Request-order decisions are the only discipline: the constructor aborts
  // on false.  The field stays because perfbench/src/workloads.cc assigns
  // it.
  bool deterministic = true;
};

// Cumulative across AdmitBatch calls.  Requests left "not attempted" by
// stop_on_failure are not counted.
struct PipelineStats {
  int64_t proposed = 0;   // requests handed to Admit
  int64_t committed = 0;  // admissions committed to the books
  int64_t rejected = 0;   // negative decisions
  // Always 0: nothing speculates, so nothing conflicts, falls back or is
  // handed to a shard.  Kept because perfbench/src/workloads.cc reads them.
  int64_t conflicts = 0;
  int64_t fallbacks = 0;
  int64_t shard_commits = 0;
  int64_t cross_shard_commits = 0;
};

class AdmissionPipeline {
 public:
  explicit AdmissionPipeline(NetworkManager& manager,
                             PipelineConfig config = {});

  AdmissionPipeline(const AdmissionPipeline&) = delete;
  AdmissionPipeline& operator=(const AdmissionPipeline&) = delete;

  // Always 0: no commit thread runs.  Kept because perfbench/src/
  // workloads.cc reports it.
  int shard_workers() const { return 0; }

  // Decision observer: runs on the calling thread right after request i's
  // Admit, with request i's decision.  A callback that moves the placement
  // out leaves that slot of the returned vector moved-from.
  using DecisionFn = std::function<void(size_t, util::Result<Placement>&)>;

  // Admits the requests one by one in order; returns one decision per
  // request, in request order.
  //
  // `stop_on_failure` models strict-FIFO admission: after the first failed
  // request no later request is attempted; their slots report
  // kFailedPrecondition "not attempted" and `on_decision` is not called
  // for them.
  std::vector<util::Result<Placement>> AdmitBatch(
      const std::vector<Request>& requests, const Allocator& allocator,
      bool stop_on_failure = false, const DecisionFn& on_decision = {});

  const PipelineStats& stats() const { return stats_; }

 private:
  NetworkManager& manager_;
  PipelineStats stats_;
};

}  // namespace svc::core
