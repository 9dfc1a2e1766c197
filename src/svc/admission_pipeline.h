// Three-stage concurrent admission pipeline with sharded commits
// (docs/CONCURRENCY.md).
//
//   1. snapshot  — the commit thread captures an epoch-stamped
//                  AdmissionSnapshot (ledger aggregates + slot map) and
//                  publishes it to the workers; on a sharded manager the
//                  re-capture copies only the stale buckets (CaptureStale);
//   2. speculate — N thread-pool workers run the allocator against the
//                  snapshot (NetworkManager::Propose — zero writes to
//                  shared state);
//   3. commit    — the calling thread alone SEQUENCES proposals in request
//                  order, but the write half of a single-shard commit
//                  (capacity re-check + row writes) runs on that shard's
//                  commit worker (NetworkManager::ApplyShardCommit), so
//                  commits into different top-level subtrees overlap.
//
// Sharded commits (PipelineConfig::shards > 0): the constructor partitions
// the fabric at the aggregation level (net::ShardMap) and starts one commit
// worker per shard.  The sequencer classifies each proposal by its
// touched-bucket mask:
//
//   * single-shard, strictly fresh — PrepareShardCommit on the sequencer
//     (duplicate/shape check, live registration, epoch bump: the commit's
//     place in request order), then the apply half is queued to the shard's
//     worker and the sequencer moves on;
//   * single-shard, shard-fresh    — epoch moved, but every bucket the
//     decision read (touched + core stripe) is unchanged and the allocator
//     declares monotone_placements(): candidates elsewhere only got worse,
//     so the speculated choice IS the serial decision — queued like the
//     fresh case;
//   * cross-shard / core-touching  — only taken strictly fresh (which
//     implies every shard queue is idle); committed inline on the
//     sequencer, counted under admission/cross_shard_commits;
//   * anything stale               — the touched shards' queues are
//     drained and the request re-runs serially on the authoritative books
//     (admission/shard_conflicts) — the serial decision by definition.
//
// Rejections are absorbed as before (fresh, or stale from a
// monotone_rejections() allocator).  Every decision therefore equals the
// serial decision, so fixed-seed runs are bit-identical to the serial path
// for ANY (worker count, shard count) — the determinism tests pin this.
//
// Cross-window pipelining: AdmitBatch(window = W) inserts a quiesce
// barrier every W requests — all shard queues drain and the snapshot is
// force-refreshed — so speculation for window N+1 proceeds against
// window N's final books while N's apply tail is still draining.  The
// batch end is always a full barrier: on return no proposal is in flight
// and every shard queue is empty (snapshots and faults are safe again).
//
// Obs: admission/{proposed,committed,conflicts,fallbacks,shard_conflicts,
// cross_shard_commits} counters, the pipeline/depth and per-shard
// pipeline/shard_depth/<s> gauges, and the admission/commit_latency_us
// histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/manager.h"
#include "util/bounded_queue.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace svc::core {

struct PipelineConfig {
  int workers = 0;         // speculation threads; 0 = hardware concurrency
  int queue_capacity = 0;  // pending-queue bound; 0 = 4 * workers
  // Commits follow request order, so every decision is the serial one.
  // That is the only discipline: the constructor aborts on false.  The
  // field stays because callers (perfbench/src/workloads.cc) assign it.
  bool deterministic = true;
  // Aggregation-level commit shards: 0 leaves the manager unsharded (the
  // PR-5 single-committer pipeline); >= 1 installs a net::ShardMap on the
  // manager (clamped to the root's child count) and, with workers > 1,
  // starts one commit worker per shard.  1 is a valid degenerate point —
  // one shard plus the core stripe — and is the baseline the shard-scaling
  // bench compares against.
  int shards = 0;
};

// Cumulative across AdmitBatch calls; owned by the commit thread (read it
// only between batches).
struct PipelineStats {
  int64_t proposed = 0;    // speculation runs
  int64_t committed = 0;   // admissions committed to the books
  int64_t rejected = 0;    // final negative decisions
  int64_t conflicts = 0;   // proposals invalidated by a concurrent commit
  int64_t fallbacks = 0;   // serial re-runs on the commit thread
  int64_t shard_commits = 0;       // applies dispatched to shard workers
  int64_t shard_conflicts = 0;     // admits that failed the shard-fresh check
  int64_t cross_shard_commits = 0; // fresh multi-bucket inline commits
};

class AdmissionPipeline {
 public:
  explicit AdmissionPipeline(NetworkManager& manager,
                             PipelineConfig config = {});
  ~AdmissionPipeline();

  AdmissionPipeline(const AdmissionPipeline&) = delete;
  AdmissionPipeline& operator=(const AdmissionPipeline&) = delete;

  int workers() const { return config_.workers; }
  // Shard commit workers actually running (0 = unsharded single committer).
  int shard_workers() const { return static_cast<int>(committers_.size()); }

  // Decision observer: runs on the calling thread with a mutable reference
  // to the request's decision (the engine moves the placement out to
  // register flows).  Invocations are in request order — delivery may lag
  // the sequencer while a shard worker's apply is in flight, but never
  // reorders.
  using DecisionFn = std::function<void(size_t, util::Result<Placement>&)>;

  // Runs the batch through the pipeline; returns one decision per request,
  // in request order.  Synchronous: on return the pipeline is drained (no
  // in-flight proposals, all shard queues empty — snapshots and faults are
  // safe again).
  //
  // `stop_on_failure` models strict-FIFO admission: after the first failed
  // request no later request is committed; their slots report
  // kFailedPrecondition "not attempted" and `on_decision` is not called
  // for them.  (A shard-worker apply failure — an allocator bug, never a
  // scheduling artifact — aborts at delivery time, so a few
  // already-sequenced successors may still have committed.)
  //
  // `window` > 0 inserts a cross-window barrier every `window` requests:
  // shard queues drain, pending decisions deliver, and the snapshot is
  // force-refreshed.  0 = no interior barriers (one window).
  std::vector<util::Result<Placement>> AdmitBatch(
      const std::vector<Request>& requests, const Allocator& allocator,
      bool stop_on_failure = false, const DecisionFn& on_decision = {},
      int window = 0);

  const PipelineStats& stats() const { return stats_; }

  // Histogram of how many shards each admit proposal touched (index =
  // touched-shard count, 0..num_shards; empty when unsharded).  Cumulative;
  // owned by the commit thread like stats().
  const std::vector<int64_t>& touched_shard_histogram() const {
    return touched_shards_;
  }

 private:
  struct BatchCtx;

  // One apply-half work item for a shard commit worker.  `request` points
  // into the AdmitBatch caller's vector and `ctx` into its stack frame;
  // both outlive the task because the batch end drains every queue.
  // The decision-provenance fields (path, epoch_delta, stages) are filled
  // by the sequencer when decision logging is on; the worker completes the
  // record with the apply latency and the post-apply binding-link slack —
  // a single-shard task's demand links all live in the worker's own
  // bucket, so those reads race with nothing.
  struct CommitTask {
    size_t index = 0;
    const Request* request = nullptr;
    AdmissionProposal proposal;
    BatchCtx* ctx = nullptr;
    obs::CommitPath path = obs::CommitPath::kShardDispatch;
    uint32_t epoch_delta = 0;
    obs::DecisionRecord::StageLatencies stages;
  };

  // Per-shard commit worker: a FIFO queue (so per-shard apply order equals
  // request order) plus drain bookkeeping.  `dispatched` is sequencer-only;
  // `applied` is the worker's release-published progress counter — the
  // sequencer spins on it to drain (kMaxShards workers make that cheap).
  struct ShardCommitter {
    explicit ShardCommitter(size_t capacity) : queue(capacity) {}
    util::BoundedQueue<CommitTask> queue;
    std::thread thread;
    std::string depth_gauge;  // cached "pipeline/shard_depth/<s>"
    int64_t dispatched = 0;
    // False-sharing constraint: the sequencer spins on `applied` while the
    // worker bumps it after every apply, and `dispatched` above is written
    // by the sequencer on every dispatch.  alignas puts the atomic on its
    // own cache line (it is the final member, so the struct's rounded size
    // pads the rest of the line) — without it each worker increment would
    // also invalidate the sequencer's dispatched/cursor line.
    alignas(util::kCacheLineSize) std::atomic<int64_t> applied{0};
  };

  // Worker body: pops request indices, speculates against the latest
  // published snapshot, parks the proposal in its slot, reports done.
  void SpeculateLoop(BatchCtx& ctx);
  // Shard commit worker body: applies queued single-shard commits in FIFO
  // order, parks each result in its slot, publishes the ready flag.
  void CommitterLoop(ShardCommitter& committer);

  // The snapshot workers currently speculate against (mutex-guarded clone).
  std::shared_ptr<const AdmissionSnapshot> CurrentSnapshot();
  // Commit thread: republishes a fresh snapshot if the books moved.  On a
  // sharded manager the re-capture is partial (stale buckets only); it
  // drains those buckets' apply queues first — a FIFO apply is microseconds
  // of row writes, far cheaper than the serial re-runs that speculating
  // against a stale snapshot would cause.
  void RefreshSnapshot();

  // True iff any committer named in `mask` has queued-but-unapplied work.
  bool PendingApplies(uint64_t mask) const;
  // Blocks until every committer named in `mask` has drained its queue.
  void DrainShards(uint64_t mask);

  // Serial degenerate path (workers <= 1): plain Admit calls — this IS the
  // baseline the pipeline's speedup is measured over.
  std::vector<util::Result<Placement>> AdmitSerial(
      const std::vector<Request>& requests, const Allocator& allocator,
      bool stop_on_failure, const DecisionFn& on_decision);

  // Serial re-run on the authoritative books (all shards drained by the
  // caller): the fallback that anchors every stale path to the serial
  // decision.
  util::Result<Placement> SerialRerun(const Request& request,
                                      const Allocator& allocator);

  // Finalizes one proposal in request order.  Returns the decision, or
  // nullopt when the apply half was dispatched to a shard worker (the
  // decision is delivered later, in request order).
  std::optional<util::Result<Placement>> FinalizeProposal(
      const Request& request, const Allocator& allocator,
      AdmissionProposal&& proposal, BatchCtx* ctx, size_t index);

  // The shard committer index for a single-shard touched mask, else -1.
  int SingleShardOf(uint64_t touched_mask) const;

  NetworkManager& manager_;
  PipelineConfig config_;
  std::unique_ptr<util::ThreadPool> pool_;  // speculation; null if serial

  // Shard commit workers (empty = unsharded / serial-commit pipeline).
  std::vector<std::unique_ptr<ShardCommitter>> committers_;

  // Snapshot publication: workers clone the shared_ptr under the mutex;
  // the commit thread swaps in a fresh capture after every epoch change.
  // Retired snapshots are recycled once no worker holds them.
  std::mutex snapshot_mu_;
  std::shared_ptr<const AdmissionSnapshot> snapshot_;
  std::vector<std::shared_ptr<AdmissionSnapshot>> snapshot_pool_;

  PipelineStats stats_;
  std::vector<int64_t> touched_shards_;
};

}  // namespace svc::core
