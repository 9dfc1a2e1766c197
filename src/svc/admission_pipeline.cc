#include "svc/admission_pipeline.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace svc::core {

namespace {

util::Result<Placement> NotAttempted() {
  return {util::ErrorCode::kFailedPrecondition,
          "not attempted: earlier FIFO admission failed"};
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

float MicrosBetween(int64_t from_ns, int64_t to_ns) {
  return from_ns == 0 ? 0.0f : static_cast<float>(to_ns - from_ns) * 1e-3f;
}

// Short reason code for decision records (mirrors manager.cc).
const char* ReasonCode(util::ErrorCode code) {
  switch (code) {
    case util::ErrorCode::kOk: return "ok";
    case util::ErrorCode::kInvalidArgument: return "invalid-argument";
    case util::ErrorCode::kInfeasible: return "infeasible";
    case util::ErrorCode::kCapacity: return "capacity";
    case util::ErrorCode::kNotFound: return "not-found";
    case util::ErrorCode::kFailedPrecondition: return "precondition";
  }
  return "unknown";
}

}  // namespace

// Per-batch shared state.  Workers write only proposals[i] for indices they
// popped from `pending` (handed back through `done`, whose mutex orders the
// write before the commit thread's read), so no slot is ever touched by two
// threads at once.  Shard commit workers write only decided[i] +
// apply_ready[i] for indices dispatched to them (distinct vector elements;
// the release store on apply_ready[i] orders the result before the
// sequencer's acquire read).
struct AdmissionPipeline::BatchCtx {
  BatchCtx(size_t n, size_t pending_capacity)
      : pending(pending_capacity),
        done(n),
        proposals(n),
        decided(n),
        apply_ready(n) {}

  const std::vector<Request>* requests = nullptr;
  const Allocator* allocator = nullptr;
  util::BoundedQueue<size_t> pending;  // indices awaiting speculation
  util::BoundedQueue<size_t> done;     // indices with a parked proposal
  std::vector<AdmissionProposal> proposals;
  // One publication flag per request, cache-line padded: the sequencer's
  // delivery loop spins on slot i while shard workers release-store
  // neighboring slots — unpadded, every store would invalidate the line
  // the spin is reading and the sequencer would stall on apply traffic for
  // *other* requests (false sharing on the hot delivery path).
  struct alignas(util::kCacheLineSize) ReadyFlag {
    std::atomic<uint8_t> flag{0};
  };

  // Final decisions, one slot per request: the sequencer fills inline
  // decisions, shard workers fill dispatched ones (then set apply_ready).
  std::vector<std::optional<util::Result<Placement>>> decided;
  std::vector<ReadyFlag> apply_ready;
  // Decision-provenance stage clocks (empty unless decision logging is on
  // at batch start; sized at batch setup, so the speculation hot loop
  // never allocates).  Same single-writer-per-index discipline as
  // `proposals`: the feeder stamps submit_ns[i], the speculating worker
  // fills stages[i]'s front half + spec_end_ns[i], the sequencer the rest.
  bool decisions = false;
  std::vector<int64_t> submit_ns;
  std::vector<int64_t> spec_end_ns;
  std::vector<obs::DecisionRecord::StageLatencies> stages;
};

AdmissionPipeline::AdmissionPipeline(NetworkManager& manager,
                                     PipelineConfig config)
    : manager_(manager), config_(config) {
  if (!config_.deterministic) {
    std::fprintf(stderr,
                 "AdmissionPipeline: PipelineConfig::deterministic must be "
                 "true (request-order commits are the only discipline)\n");
    std::abort();
  }
  if (config_.workers <= 0) {
    config_.workers = util::ThreadPool::HardwareThreads();
  }
  if (config_.queue_capacity <= 0) {
    config_.queue_capacity = 4 * config_.workers;
  }

  if (config_.workers > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.workers);
  }
  if (config_.shards > 0) {
    auto shards =
        std::make_shared<net::ShardMap>(manager_.topo(), config_.shards);
    const int num_shards = shards->num_shards();
    manager_.ConfigureSharding(std::move(shards));
    touched_shards_.assign(static_cast<size_t>(num_shards) + 1, 0);
    if (config_.workers > 1) {
      committers_.reserve(num_shards);
      for (int s = 0; s < num_shards; ++s) {
        auto c = std::make_unique<ShardCommitter>(
            static_cast<size_t>(config_.queue_capacity));
        c->depth_gauge = "pipeline/shard_depth/" + std::to_string(s);
        c->thread = std::thread([this, committer = c.get()] {
          CommitterLoop(*committer);
        });
        committers_.push_back(std::move(c));
      }
    }
  }
}

AdmissionPipeline::~AdmissionPipeline() {
  for (std::unique_ptr<ShardCommitter>& c : committers_) {
    c->queue.Close();
  }
  for (std::unique_ptr<ShardCommitter>& c : committers_) {
    if (c->thread.joinable()) c->thread.join();
  }
}

std::shared_ptr<const AdmissionSnapshot> AdmissionPipeline::CurrentSnapshot() {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

bool AdmissionPipeline::PendingApplies(uint64_t mask) const {
  for (size_t s = 0; s < committers_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    const ShardCommitter& c = *committers_[s];
    if (c.applied.load(std::memory_order_acquire) < c.dispatched) return true;
  }
  return false;
}

void AdmissionPipeline::DrainShards(uint64_t mask) {
  for (size_t s = 0; s < committers_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    const ShardCommitter& c = *committers_[s];
    while (c.applied.load(std::memory_order_acquire) < c.dispatched) {
      std::this_thread::yield();
    }
  }
}

void AdmissionPipeline::RefreshSnapshot() {
  if (snapshot_ != nullptr && snapshot_->epoch() == manager_.epoch()) {
    return;
  }
  // Recycle a retired buffer.  Workers obtain references only to the
  // currently published snapshot (under snapshot_mu_), so a pooled entry
  // with use_count() == 1 is unreachable from any worker — and stays that
  // way until we republish it.  Each worker holds at most one snapshot at
  // a time, so a pool of workers + 2 always has a free buffer and
  // steady-state refreshes allocate nothing.
  std::shared_ptr<AdmissionSnapshot> next;
  for (const std::shared_ptr<AdmissionSnapshot>& s : snapshot_pool_) {
    if (s.get() != snapshot_.get() && s.use_count() == 1) {
      next = s;
      break;
    }
  }
  if (next == nullptr) {
    next = std::make_shared<AdmissionSnapshot>(manager_.topo(),
                                               manager_.epsilon());
    if (snapshot_pool_.size() <
        static_cast<size_t>(config_.workers) + 2) {
      snapshot_pool_.push_back(next);
    }
  }
  // The recycled buffer re-captures relative to ITS OWN last capture: only
  // the buckets that moved since then are copied (a brand-new buffer takes
  // the full-capture path inside CaptureStale).  Those buckets' rows are
  // read, so their apply queues must be idle first.
  DrainShards(next->StaleBuckets(manager_));
  next->CaptureStale(manager_);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = next;
}

void AdmissionPipeline::SpeculateLoop(BatchCtx& ctx) {
  size_t index = 0;
  while (ctx.pending.Pop(index)) {
    if (ctx.decisions) {
      const int64_t popped = NowNs();
      ctx.stages[index].queue_wait_us =
          MicrosBetween(ctx.submit_ns[index], popped);
      const std::shared_ptr<const AdmissionSnapshot> snapshot =
          CurrentSnapshot();
      const int64_t captured = NowNs();
      ctx.stages[index].snapshot_us = MicrosBetween(popped, captured);
      ctx.proposals[index] =
          manager_.Propose((*ctx.requests)[index], *ctx.allocator, *snapshot);
      ctx.spec_end_ns[index] = NowNs();
      ctx.stages[index].speculate_us =
          MicrosBetween(captured, ctx.spec_end_ns[index]);
    } else {
      const std::shared_ptr<const AdmissionSnapshot> snapshot =
          CurrentSnapshot();
      ctx.proposals[index] =
          manager_.Propose((*ctx.requests)[index], *ctx.allocator, *snapshot);
    }
    ctx.done.Push(index);
  }
}

void AdmissionPipeline::CommitterLoop(ShardCommitter& committer) {
  CommitTask task;
  while (committer.queue.Pop(task)) {
    const auto start = std::chrono::steady_clock::now();
    util::Result<Placement> r =
        manager_.ApplyShardCommit(*task.request, std::move(task.proposal));
    const double apply_us = MicrosSince(start);
    SVC_METRIC_HIST("admission/commit_latency_us", apply_us);
    if (obs::DecisionsEnabled()) {
      // Complete the sequencer-started record on the worker: a dispatched
      // task is single-shard, so its demand links (left intact by the
      // apply's placement move) are all in this worker's bucket — the
      // post-apply slack reads race with nothing.
      task.stages.apply_us = static_cast<float>(apply_us);
      const int shard = task.proposal.touched_mask == 0
                            ? -1
                            : std::countr_zero(task.proposal.touched_mask);
      manager_.RecordAdmissionDecision(
          *task.request, task.ctx->allocator->name(), r.ok(),
          r.ok() ? "ok" : ReasonCode(r.status().code()), task.path, shard,
          task.epoch_delta, manager_.ledger(), &task.proposal.demands,
          task.stages);
    }
    if (obs::FlightRecorder::Global().enabled()) {
      obs::FlightRecorder::Global().ObserveAdmission(r.ok(), apply_us);
    }
    task.ctx->decided[task.index] = std::move(r);
    task.ctx->apply_ready[task.index].flag.store(1, std::memory_order_release);
    committer.applied.fetch_add(1, std::memory_order_release);
  }
}

std::vector<util::Result<Placement>> AdmissionPipeline::AdmitSerial(
    const std::vector<Request>& requests, const Allocator& allocator,
    bool stop_on_failure, const DecisionFn& on_decision) {
  std::vector<util::Result<Placement>> results;
  results.reserve(requests.size());
  bool aborted = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (aborted) {
      results.push_back(NotAttempted());
      continue;
    }
    ++stats_.proposed;
    SVC_METRIC_INC("admission/proposed");
    util::Result<Placement> r = manager_.Admit(requests[i], allocator);
    if (r.ok()) {
      ++stats_.committed;
      SVC_METRIC_INC("admission/committed");
    } else {
      ++stats_.rejected;
    }
    if (on_decision) on_decision(i, r);
    if (stop_on_failure && !r.ok()) aborted = true;
    results.push_back(std::move(r));
  }
  return results;
}

util::Result<Placement> AdmissionPipeline::SerialRerun(
    const Request& request, const Allocator& allocator) {
  util::Result<Placement> r =
      manager_.Admit(request, allocator, obs::CommitPath::kStaleRerun);
  if (r.ok()) {
    ++stats_.committed;
    SVC_METRIC_INC("admission/committed");
    RefreshSnapshot();
  } else {
    ++stats_.rejected;
  }
  return r;
}

int AdmissionPipeline::SingleShardOf(uint64_t touched_mask) const {
  if (committers_.empty() || std::popcount(touched_mask) != 1) return -1;
  const int s = std::countr_zero(touched_mask);
  // The core stripe (bit num_shards) has no dedicated worker: core-touching
  // commits take the serialized cross-shard path.
  return s < static_cast<int>(committers_.size()) ? s : -1;
}

std::optional<util::Result<Placement>> AdmissionPipeline::FinalizeProposal(
    const Request& request, const Allocator& allocator,
    AdmissionProposal&& proposal, BatchCtx* ctx, size_t index) {
  const bool fresh = proposal.epoch == manager_.epoch();
  const bool decisions = ctx->decisions;
  const uint32_t epoch_delta =
      static_cast<uint32_t>(manager_.epoch() - proposal.epoch);
  if (decisions) {
    // Park-plus-sequencer-wait time; the sequencer fills it here once so
    // every downstream branch (inline, dispatch, rerun) inherits it.
    ctx->stages[index].sequence_us =
        MicrosBetween(ctx->spec_end_ns[index], NowNs());
  }
  obs::FlightRecorder& flight = obs::FlightRecorder::Global();
  // Provenance for a rejection decided on the sequencer.  Binding links
  // descend the CURRENT PUBLISHED SNAPSHOT's ledger, not the authoritative
  // books: shard appliers may be writing their buckets' rows right now,
  // and the snapshot is immutable once published.
  auto record_reject = [&](obs::CommitPath path, const char* reason) {
    if (decisions) {
      const std::shared_ptr<const AdmissionSnapshot> snap = CurrentSnapshot();
      manager_.RecordAdmissionDecision(request, allocator.name(),
                                       /*admitted=*/false, reason, path,
                                       /*shard=*/-1, epoch_delta,
                                       snap->view.ledger(), nullptr,
                                       ctx->stages[index]);
    }
    if (flight.enabled()) {
      flight.ObserveAdmission(
          false, decisions ? ctx->stages[index].sequence_us : 0.0);
    }
  };
  if (!proposal.ok) {
    if (fresh || proposal.rejection_monotone) {
      // A rejection against fresh books IS the serial verdict — and a stale
      // one from a monotone allocator still is: within a batch the books
      // only gain tenants (rejections don't bump the epoch, releases and
      // faults are quiesced), so the rejection against the older, emptier
      // books holds a fortiori.  Rejection runs therefore keep every later
      // proposal fresh — heavy admission-control pressure pipelines well.
      ++stats_.rejected;
      record_reject(fresh ? obs::CommitPath::kFresh
                          : obs::CommitPath::kShardFresh,
                    ReasonCode(proposal.status.code()));
      return util::Result<Placement>(proposal.status);
    }
    // A stale rejection from a greedy allocator: the changed books may have
    // changed the verdict — serial re-run on the authoritative books.
    ++stats_.conflicts;
    SVC_METRIC_INC("admission/conflicts");
    ++stats_.fallbacks;
    SVC_METRIC_INC("admission/fallbacks");
    DrainShards(~uint64_t{0});
    return SerialRerun(request, allocator);
  }

  if (!touched_shards_.empty()) {
    const uint64_t shard_bits =
        (uint64_t{1} << (touched_shards_.size() - 1)) - 1;
    ++touched_shards_[static_cast<size_t>(
        std::popcount(proposal.touched_mask & shard_bits))];
  }

  const int shard = SingleShardOf(proposal.touched_mask);
  // Shard-freshness fast path: the epoch moved, but every bucket this
  // decision read (its touched links/machines plus the core stripe) is
  // unchanged since the speculation, and the allocator's selection is
  // monotone — candidates elsewhere only accumulated load, so the winner
  // the speculation picked is still the serial winner, evaluated against
  // bit-identical rows.  Restricted to single-shard placements: a
  // multi-subtree placement's evaluation spans buckets beyond its mask.
  const bool shard_fresh =
      shard >= 0 && allocator.monotone_placements() &&
      manager_.BucketsFresh(proposal.fresh_mask, proposal.shard_epochs);
  if (fresh || shard_fresh) {
    const obs::CommitPath commit_path =
        fresh ? (shard >= 0 ? obs::CommitPath::kShardDispatch
                            : obs::CommitPath::kFresh)
              : obs::CommitPath::kShardFresh;
    if (shard >= 0) {
      if (util::Status s = manager_.PrepareShardCommit(request, proposal);
          !s.ok()) {
        // Shape/duplicate failure on a fresh proposal: an allocator bug —
        // the same loud, attributable surface Admit gives it.
        ++stats_.rejected;
        record_reject(commit_path, ReasonCode(s.code()));
        return util::Result<Placement>(
            util::ErrorCode::kFailedPrecondition,
            std::string(allocator.name()) + ": " + s.message());
      }
      ShardCommitter& c = *committers_[shard];
      ++c.dispatched;
      ++stats_.shard_commits;
      if (obs::MetricsEnabled()) {
        obs::Registry::Global().GetGauge(c.depth_gauge).Set(
            static_cast<double>(c.dispatched -
                                c.applied.load(std::memory_order_relaxed)));
      }
      CommitTask task;
      task.index = index;
      task.request = &request;
      task.proposal = std::move(proposal);
      task.ctx = ctx;
      if (decisions) {
        task.path = commit_path;
        task.epoch_delta = epoch_delta;
        task.stages = ctx->stages[index];
      }
      const bool pushed = c.queue.Push(std::move(task));
      assert(pushed && "shard commit queue closed mid-batch");
      (void)pushed;
      RefreshSnapshot();
      return std::nullopt;  // decision delivered when the apply lands
    }
    // Fresh commit on the sequencer: the unsharded path, or a cross-shard /
    // core-touching placement.  Strict freshness implies every apply queue
    // is idle (any dispatch would have bumped the epoch), so the inline
    // commit reads and writes without racing a worker; the drain is
    // free insurance.
    DrainShards(proposal.touched_mask);
    if (!committers_.empty()) {
      ++stats_.cross_shard_commits;
      SVC_METRIC_INC("admission/cross_shard_commits");
    }
    const auto start = std::chrono::steady_clock::now();
    util::Result<Placement> committed =
        manager_.CommitProposal(request, std::move(proposal));
    const double commit_us = MicrosSince(start);
    SVC_METRIC_HIST("admission/commit_latency_us", commit_us);
    if (decisions) {
      // Strict freshness implies every apply queue is idle, so reading the
      // authoritative books for the binding-link slack is race-free here;
      // CommitProposal moved only the placement, the demands survive.
      ctx->stages[index].apply_us = static_cast<float>(commit_us);
      manager_.RecordAdmissionDecision(
          request, allocator.name(), committed.ok(),
          committed.ok() ? "ok" : ReasonCode(committed.status().code()),
          commit_path, /*shard=*/-1, epoch_delta, manager_.ledger(),
          &proposal.demands, ctx->stages[index]);
    }
    if (flight.enabled()) flight.ObserveAdmission(committed.ok(), commit_us);
    if (committed.ok()) {
      ++stats_.committed;
      SVC_METRIC_INC("admission/committed");
      RefreshSnapshot();
      return committed;
    }
    ++stats_.rejected;
    return util::Result<Placement>(
        util::ErrorCode::kFailedPrecondition,
        std::string(allocator.name()) + ": " + committed.status().message());
  }
  // Stale admit: the books moved under the buckets this decision depends
  // on.  Drain everything and re-run serially — exactly the serial path's
  // decision at this point in the commit order.
  ++stats_.conflicts;
  SVC_METRIC_INC("admission/conflicts");
  if (!committers_.empty()) {
    ++stats_.shard_conflicts;
    SVC_METRIC_INC("admission/shard_conflicts");
  }
  ++stats_.fallbacks;
  SVC_METRIC_INC("admission/fallbacks");
  DrainShards(~uint64_t{0});
  return SerialRerun(request, allocator);
}

std::vector<util::Result<Placement>> AdmissionPipeline::AdmitBatch(
    const std::vector<Request>& requests, const Allocator& allocator,
    bool stop_on_failure, const DecisionFn& on_decision, int window) {
  const size_t n = requests.size();
  if (n == 0) return {};
  if (config_.workers <= 1 || n == 1) {
    return AdmitSerial(requests, allocator, stop_on_failure, on_decision);
  }
  SVC_TRACE_SPAN("pipeline/admit_batch");

  BatchCtx ctx(n, static_cast<size_t>(config_.queue_capacity));
  ctx.requests = &requests;
  ctx.allocator = &allocator;
  // Latched once per batch: all stage-clock storage is sized here, so the
  // speculation and sequencing hot loops never allocate for provenance.
  ctx.decisions = obs::DecisionsEnabled();
  if (ctx.decisions) {
    ctx.submit_ns.assign(n, 0);
    ctx.spec_end_ns.assign(n, 0);
    ctx.stages.assign(n, obs::DecisionRecord::StageLatencies{});
  }
  RefreshSnapshot();

  const int nworkers =
      static_cast<int>(std::min<size_t>(config_.workers, n));
  util::Latch latch(nworkers);
  for (int w = 0; w < nworkers; ++w) {
    pool_->Submit([this, &ctx, &latch] {
      SpeculateLoop(ctx);
      latch.CountDown();
    });
  }

  size_t next_submit = 0;
  size_t commit_cursor = 0;  // next request to sequence
  bool aborted = false;

  // Keeps the pending queue fed.  Run-ahead is bounded explicitly by
  // `inflight_cap`, not just the queue capacity: cheap speculations drain
  // the pending queue almost instantly and park in `done`, so without the
  // cap the workers could speculate an arbitrarily long prefix against one
  // aging snapshot and every later proposal would be stale on arrival.
  const size_t inflight_cap =
      static_cast<size_t>(config_.queue_capacity) + nworkers;
  auto feed = [&] {
    while (!aborted && next_submit < n &&
           next_submit - commit_cursor < inflight_cap) {
      if (ctx.decisions) ctx.submit_ns[next_submit] = NowNs();
      if (!ctx.pending.TryPush(next_submit)) break;
      manager_.BeginProposal();
      ++next_submit;
    }
    SVC_METRIC_GAUGE_SET("pipeline/depth",
                         static_cast<double>(ctx.pending.size()));
  };
  auto pop_done = [&]() -> size_t {
    size_t index = 0;
    const bool got = ctx.done.Pop(index);
    (void)got;
    assert(got && "done queue closed with work outstanding");
    ++stats_.proposed;
    SVC_METRIC_INC("admission/proposed");
    return index;
  };

  feed();
  // How each classified index resolves (sequencer-only).
  enum : uint8_t {
    kUnclassified = 0,
    kInline = 1,     // decided[] set by the sequencer; callback due
    kDelegated = 2,  // apply in flight; shard worker parks decided[]
    kSilent = 3,     // not attempted (FIFO abort); no callback
  };
  std::vector<uint8_t> route(n, kUnclassified);
  size_t deliver_cursor = 0;

  // In-order decision delivery.  The sequencer may classify (and
  // dispatch) several requests ahead of the oldest in-flight apply;
  // callbacks still fire strictly in request order, waiting on the shard
  // worker only when `block` demands it.
  auto deliver = [&](bool block) {
    while (deliver_cursor < n && route[deliver_cursor] != kUnclassified) {
      const size_t i = deliver_cursor;
      if (route[i] == kDelegated) {
        if (!ctx.apply_ready[i].flag.load(std::memory_order_acquire)) {
          if (!block) return;
          do {
            std::this_thread::yield();
          } while (!ctx.apply_ready[i].flag.load(std::memory_order_acquire));
        }
        util::Result<Placement>& r = *ctx.decided[i];
        if (r.ok()) {
          ++stats_.committed;
          SVC_METRIC_INC("admission/committed");
        } else {
          // The apply half re-validated bit-identical rows and still
          // failed: an allocator bug.  Undo the sequencer-side
          // registration; under FIFO semantics the abort lands here, so
          // a few already-sequenced successors may have committed.
          manager_.AbandonShardCommit(requests[i].id());
          ++stats_.rejected;
          SVC_LOG(Error) << "shard apply failed for request "
                         << requests[i].id() << " via " << allocator.name()
                         << ": " << r.status().message();
          r = util::Result<Placement>(
              util::ErrorCode::kFailedPrecondition,
              std::string(allocator.name()) + ": " + r.status().message());
          if (stop_on_failure) aborted = true;
        }
        manager_.EndProposal();
      }
      if (route[i] != kSilent && on_decision) {
        on_decision(i, *ctx.decided[i]);
      }
      ++deliver_cursor;
    }
  };

  std::vector<char> ready(n, 0);
  while (commit_cursor < n) {
    if (commit_cursor >= next_submit) {
      // The feed stopped on abort before this index was ever speculated
      // (never registered: no EndProposal due).
      assert(aborted);
      ctx.decided[commit_cursor] = NotAttempted();
      route[commit_cursor] = kSilent;
      ++commit_cursor;
      deliver(/*block=*/false);
      continue;
    }
    if (!ready[commit_cursor]) {
      ready[pop_done()] = 1;
      feed();
      continue;
    }
    if (aborted) {
      ctx.decided[commit_cursor] = NotAttempted();
      route[commit_cursor] = kSilent;
      manager_.EndProposal();
    } else {
      std::optional<util::Result<Placement>> r = FinalizeProposal(
          requests[commit_cursor], allocator,
          std::move(ctx.proposals[commit_cursor]), &ctx, commit_cursor);
      if (r.has_value()) {
        if (stop_on_failure && !r->ok()) aborted = true;
        ctx.decided[commit_cursor] = std::move(*r);
        route[commit_cursor] = kInline;
        manager_.EndProposal();
      } else {
        route[commit_cursor] = kDelegated;  // EndProposal at delivery
      }
    }
    ++commit_cursor;
    // Cross-window barrier: windows overlap in speculation (the feeder
    // runs ahead), but the commit plane quiesces — every shard queue
    // drains, pending decisions deliver, and window N+1's speculations
    // get window N's final books.
    if (window > 0 && commit_cursor < n &&
        commit_cursor % static_cast<size_t>(window) == 0) {
      DrainShards(~uint64_t{0});
      deliver(/*block=*/true);
      RefreshSnapshot();
    } else {
      deliver(/*block=*/false);
    }
    feed();
  }
  DrainShards(~uint64_t{0});
  deliver(/*block=*/true);
  assert(deliver_cursor == n);

  ctx.pending.Close();
  latch.Wait();
  SVC_METRIC_GAUGE_SET("pipeline/depth", 0.0);
  if (obs::MetricsEnabled()) {
    for (const std::unique_ptr<ShardCommitter>& c : committers_) {
      obs::Registry::Global().GetGauge(c->depth_gauge).Set(0.0);
    }
  }
  assert(manager_.InFlightProposals() == 0 &&
         "batch drained with proposals still registered");

  std::vector<util::Result<Placement>> results;
  results.reserve(n);
  for (std::optional<util::Result<Placement>>& d : ctx.decided) {
    assert(d.has_value());
    results.push_back(std::move(*d));
  }
  return results;
}

}  // namespace svc::core
