// Performance suite for the hot-path overhaul, one section per layer:
//
//   sweep    — a grid of replicated batch simulations run serially vs on
//              the work-stealing pool (sim::SweepRunner).  Asserts the
//              parallel results are bit-identical to the serial ones and
//              reports the wall-clock speedup.
//   step     — simulator Step() throughput with a steady workload (zero
//              demand variance: the incremental fast path reuses the
//              previous max-min solve every tick) vs a volatile one (fresh
//              draws every tick force a full solve).
//   allocate — HomogeneousSearchAllocator::Allocate() calls/sec against a
//              pre-loaded fabric, plus heap allocations per call after
//              warm-up (must be zero: thread-local DP arena + recycled
//              placement buffers; alloc_counter.cc counts operator new).
//              Also timed: both heterogeneous allocators on a smaller
//              fabric sized to their complexity.
//   admission — AdmitBatch throughput through core::AdmissionPipeline, one
//              worker (the serial baseline, record admission_throughput_1w)
//              vs --pipeline-workers (record admission_throughput), over a
//              fill/release churn workload.  Verdicts and placements must
//              be bit-identical across worker counts (commits follow
//              request order); conflict/fallback counts ride along as
//              record extras.
//   sharded  — AdmitBatch throughput with --admit-shards commit shards on a
//              ~100k-machine fabric pre-loaded with 10^5 live tenants
//              (record admission_sharded, with the shard count and the
//              touched-shard histogram as extras).  CI runs it at 1 and 4
//              shards and gates the ratio with bench_diff
//              --require-speedup admission_sharded:1.5.
//
// Writes BENCH_PERF.json (override with --out) and prints a summary.  The
// JSON carries the git SHA and thread counts so two snapshots diffed with
// tools/bench_diff.py identify exactly what ran where.
// Designed to finish in well under two minutes at the default sizes.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "bench_common.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/rng.h"
#include "svc/admission_pipeline.h"
#include "svc/hetero_exact.h"
#include "svc/hetero_heuristic.h"
#include "svc/homogeneous_search.h"
#include "svc/manager.h"
#include "svc/scratch_arena.h"
#include "topology/builders.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using namespace svc;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Commit the binary's tree was built from, for snapshot provenance in
// BENCH_PERF.json.  Best-effort: "unknown" outside a git checkout.
std::string GitSha() {
  FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (!pipe) return "unknown";
  char buf[64] = {};
  const bool got = fgets(buf, sizeof(buf), pipe) != nullptr;
  pclose(pipe);
  if (!got) return "unknown";
  std::string sha(buf);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

bool SameJobs(const std::vector<sim::JobRecord>& a,
              const std::vector<sim::JobRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].arrival_time != b[i].arrival_time ||
        a[i].start_time != b[i].start_time ||
        a[i].finish_time != b[i].finish_time) {
      return false;
    }
  }
  return true;
}

// Field-by-field bitwise equality: the parallel sweep must reproduce the
// serial results exactly, not approximately.
bool SameBatchResult(const sim::BatchResult& a, const sim::BatchResult& b) {
  return a.total_completion_time == b.total_completion_time &&
         a.unallocatable_jobs == b.unallocatable_jobs &&
         a.simulated_seconds == b.simulated_seconds &&
         a.outage.outage_link_seconds == b.outage.outage_link_seconds &&
         a.outage.busy_link_seconds == b.outage.busy_link_seconds &&
         a.placement_levels == b.placement_levels && SameJobs(a.jobs, b.jobs);
}

// Serves pre-planned placements by request id: the admission regime where
// the placement decision is externalized (a warmed placement cache or an
// out-of-band planner) and the fabric layer's validate-and-commit plane is
// the whole cost — the regime the sharded-commit bench measures.  The
// selection ignores the books entirely, so both monotone declarations hold
// trivially (a constant choice cannot be un-chosen by added load, and an
// id-miss rejection stays a rejection on any books).
class ReplayAllocator final : public core::Allocator {
 public:
  explicit ReplayAllocator(
      const std::unordered_map<int64_t, core::Placement>* plan)
      : plan_(plan) {}

  std::string_view name() const override { return "bench-replay"; }
  bool monotone_rejections() const override { return true; }
  bool monotone_placements() const override { return true; }

  util::Result<core::Placement> Allocate(
      const core::Request& request, const net::LinkLedger& /*ledger*/,
      const core::SlotMap& /*slots*/) const override {
    const auto it = plan_->find(request.id());
    if (it == plan_->end()) {
      return {util::ErrorCode::kCapacity, "no planned placement"};
    }
    return util::Result<core::Placement>(it->second);
  }

 private:
  const std::unordered_map<int64_t, core::Placement>* plan_;
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags(
      "perf_suite: sweep / step / allocate hot-path measurements "
      "(writes BENCH_PERF.json)");
  bench::CommonOptions common(flags);
  int64_t& replicas =
      flags.Int("replicas", 8, "replicated simulations in the sweep grid");
  int64_t& sweep_jobs =
      flags.Int("sweep-jobs", 80, "jobs per sweep replica");
  int64_t& alloc_iters =
      flags.Int("alloc-iters", 2000, "Allocate() calls to time");
  int64_t& admit_iters = flags.Int(
      "admit-iters", 600, "admission requests per pipeline batch round");
  int64_t& pipeline_workers = flags.Int(
      "pipeline-workers", 4, "speculation workers for admission_throughput");
  int64_t& decisions_on = flags.Int(
      "decisions", 1,
      "record decision provenance (obs/decision_log) through the admission "
      "and sharded benches, so their throughput numbers carry the logging "
      "cost the online control plane would pay; 0 measures the "
      "compiled-in-but-disabled baseline");
  int64_t& admit_shards = flags.Int(
      "admit-shards", 4,
      "aggregation-level commit shards for admission_sharded (1 = the "
      "unsharded-commit baseline the CI speedup gate compares against)");
  int64_t& shard_racks = flags.Int(
      "shard-racks", 5120, "racks in the sharded-admission fabric");
  int64_t& shard_aggs = flags.Int(
      "shard-aggs", 16, "aggregation switches (= shardable subtrees)");
  int64_t& shard_tenants = flags.Int(
      "shard-tenants", 100'000,
      "tenants pre-loaded onto the sharded fabric before measuring");
  int64_t& shard_iters = flags.Int(
      "shard-iters", 256, "admission requests per sharded pipeline round");
  std::string& out = flags.String("out", "BENCH_PERF.json", "output path");
  flags.Parse(argc, argv);
  bench::ObsScope obs(common);

  // Measurement-workload identity for the snapshot header: the fabric,
  // workload, seed, and epsilon folded into one scenario config hash, so
  // tools/bench_diff.py can warn when two snapshots measured different
  // configurations rather than different code.
  sim::Scenario perf_scenario;
  perf_scenario.name = "perf_suite";
  perf_scenario.description = "perf_suite measurement workload";
  bench::ApplyCommonOverrides(common, &perf_scenario);
  perf_scenario.admission.epsilon = common.epsilon();

  const topology::Topology topo =
      topology::BuildThreeTier(common.TopologyConfig());

  // --- Sweep: serial vs parallel, bit-identical by construction. ---------
  workload::WorkloadConfig sweep_config = common.WorkloadConfig();
  sweep_config.num_jobs = static_cast<int>(sweep_jobs);
  auto replica_task = [&](uint64_t index) {
    return [&, index] {
      const uint64_t seed = sim::ReplicaSeed(common.seed(), index);
      workload::WorkloadGenerator gen(sweep_config, seed);
      return bench::RunBatch(topo, gen.GenerateBatch(),
                             workload::Abstraction::kSvc,
                             bench::AllocatorFor(workload::Abstraction::kSvc),
                             common.epsilon(), seed + 1);
    };
  };
  std::vector<std::function<sim::BatchResult()>> tasks;
  for (int64_t k = 0; k < replicas; ++k) {
    tasks.push_back(replica_task(static_cast<uint64_t>(k)));
  }

  sim::SweepRunner serial(1);
  const double serial_start = Now();
  const auto serial_results = serial.Run(tasks);
  const double serial_seconds = Now() - serial_start;

  sim::SweepRunner parallel(common.threads());
  const double parallel_start = Now();
  const auto parallel_results = parallel.Run(tasks);
  const double parallel_seconds = Now() - parallel_start;

  bool identical = serial_results.size() == parallel_results.size();
  for (size_t i = 0; identical && i < serial_results.size(); ++i) {
    identical = SameBatchResult(serial_results[i], parallel_results[i]);
  }
  const double speedup =
      parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0.0;
  std::printf(
      "sweep:    %lld replicas  serial %.2fs  parallel %.2fs  (%d threads)  "
      "speedup %.2fx  identical %s\n",
      static_cast<long long>(replicas), serial_seconds, parallel_seconds,
      parallel.num_threads(), speedup, identical ? "yes" : "NO");

  // --- Step: steady (fast path) vs volatile (full solve per tick). -------
  auto step_rate = [&](double deviation, double* steps_out) {
    workload::WorkloadConfig wconfig = common.WorkloadConfig();
    wconfig.num_jobs = static_cast<int>(sweep_jobs);
    wconfig.fixed_deviation = deviation;
    workload::WorkloadGenerator gen(wconfig, common.seed());
    const auto jobs = gen.GenerateBatch();
    const double start = Now();
    const auto result = bench::RunBatch(
        topo, jobs, workload::Abstraction::kSvc,
        bench::AllocatorFor(workload::Abstraction::kSvc), common.epsilon(),
        common.seed() + 1);
    const double wall = Now() - start;
    *steps_out = result.simulated_seconds;  // time_step = 1 s => steps
    return wall > 0 ? result.simulated_seconds / wall : 0.0;
  };
  double steady_steps = 0, volatile_steps = 0;
  // deviation 0: every per-second draw repeats bit-for-bit, so after each
  // admission wave Step() reuses the cached rates and outage counts.
  const double steady_rate = step_rate(0.0, &steady_steps);
  const double volatile_rate = step_rate(0.5, &volatile_steps);
  std::printf(
      "step:     steady %.0f steps/s (%.0f steps)  volatile %.0f steps/s "
      "(%.0f steps)\n",
      steady_rate, steady_steps, volatile_rate, volatile_steps);

  // --- Allocate: calls/sec + heap allocations per call after warm-up. ----
  core::NetworkManager manager(topo, common.epsilon());
  {
    core::HomogeneousDpAllocator loader;
    stats::Rng rng(7);
    int64_t id = 1'000'000;
    while (manager.slots().total_free() > topo.total_slots() * 6 / 10) {
      const int n = static_cast<int>(rng.UniformInt(2, 60));
      const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
      const core::Request r =
          core::Request::Homogeneous(id++, n, mu, mu * rng.Uniform(0, 1));
      if (!manager.Admit(r, loader).ok()) break;
    }
  }
  const core::HomogeneousDpAllocator alloc;
  const core::Request request = core::Request::Homogeneous(1, 49, 200, 100);
  // Warm-up sizes the thread-local arena and seeds the buffer pool.
  if (auto warm = alloc.Allocate(request, manager.ledger(), manager.slots())) {
    core::RecycleVmBuffer(std::move(warm->vm_machine));
  }
  const int64_t allocs_before = svc::bench::AllocationCount();
  const double alloc_start = Now();
  for (int64_t i = 0; i < alloc_iters; ++i) {
    auto result = alloc.Allocate(request, manager.ledger(), manager.slots());
    if (result.ok()) core::RecycleVmBuffer(std::move(result->vm_machine));
  }
  const double alloc_seconds = Now() - alloc_start;
  const double allocs_per_call =
      alloc_iters > 0 ? static_cast<double>(svc::bench::AllocationCount() -
                                            allocs_before) /
                            alloc_iters
                      : 0.0;
  const double calls_per_sec =
      alloc_seconds > 0 ? alloc_iters / alloc_seconds : 0.0;
  std::printf("allocate: %.0f calls/s  %.3f heap allocations/call\n",
              calls_per_sec, allocs_per_call);

  // Same loop with the observability layer armed.  The metric/trace/decision
  // write path is heap-free by design (static handle caches, stack name
  // buffers, sharded atomics, pre-sized trace ring, fixed per-thread
  // decision rings), so allocs/call must stay zero here too — this is the
  // regression gate for the obs overhead budget.
  const bool metrics_were_on = obs::MetricsEnabled();
  const bool trace_was_on = obs::TraceEnabled();
  const bool decisions_were_on = obs::DecisionsEnabled();
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(true);
  obs::SetDecisionsEnabled(true);
  // A few instrumented admissions populate the manager/ledger metrics so
  // the snapshot below has real content; the warm-up Allocate registers
  // the allocator handles and this thread's trace ring.
  {
    core::NetworkManager admit_manager(topo, common.epsilon());
    core::HomogeneousDpAllocator admit_alloc;
    for (int64_t id = 0; id < 32; ++id) {
      const core::Request r =
          core::Request::Homogeneous(2'000'000 + id, 20, 200, 100);
      if (!admit_manager.Admit(r, admit_alloc).ok()) break;
    }
  }
  if (auto warm = alloc.Allocate(request, manager.ledger(), manager.slots())) {
    core::RecycleVmBuffer(std::move(warm->vm_machine));
  }
  const int64_t obs_allocs_before = svc::bench::AllocationCount();
  const double obs_start = Now();
  for (int64_t i = 0; i < alloc_iters; ++i) {
    auto result = alloc.Allocate(request, manager.ledger(), manager.slots());
    if (result.ok()) core::RecycleVmBuffer(std::move(result->vm_machine));
  }
  const double obs_seconds = Now() - obs_start;
  obs::SetMetricsEnabled(metrics_were_on);
  obs::SetTraceEnabled(trace_was_on);
  obs::SetDecisionsEnabled(decisions_were_on);
  const double obs_allocs_per_call =
      alloc_iters > 0 ? static_cast<double>(svc::bench::AllocationCount() -
                                            obs_allocs_before) /
                            alloc_iters
                      : 0.0;
  const double obs_calls_per_sec =
      obs_seconds > 0 ? alloc_iters / obs_seconds : 0.0;
  std::printf(
      "allocate: %.0f calls/s  %.3f heap allocations/call  (obs enabled)\n",
      obs_calls_per_sec, obs_allocs_per_call);

  // --- Hetero allocators: admit throughput on a fabric sized to their ----
  // complexity (the heuristic is O(|V| * Delta * N^4), the exact DP
  // O(|V| * Delta * 3^N); paper-scale fabrics are not where they run).
  topology::ThreeTierConfig hetero_config;
  hetero_config.racks = 10;
  hetero_config.machines_per_rack = 10;
  hetero_config.racks_per_agg = 5;
  const topology::Topology hetero_topo =
      topology::BuildThreeTier(hetero_config);
  core::NetworkManager hetero_manager(hetero_topo, common.epsilon());
  {
    core::HomogeneousDpAllocator loader;
    stats::Rng rng(7);
    int64_t id = 3'000'000;
    while (hetero_manager.slots().total_free() >
           hetero_topo.total_slots() * 6 / 10) {
      const int n = static_cast<int>(rng.UniformInt(2, 12));
      const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
      const core::Request r =
          core::Request::Homogeneous(id++, n, mu, mu * rng.Uniform(0, 1));
      if (!hetero_manager.Admit(r, loader).ok()) break;
    }
  }
  auto hetero_demands = [](int count) {
    std::vector<stats::Normal> demands;
    demands.reserve(count);
    for (int i = 0; i < count; ++i) {
      const double mean = 80.0 + 15.0 * (i % 5);
      const double stddev = mean / 2.0;
      demands.push_back({mean, stddev * stddev});
    }
    return demands;
  };
  const int64_t hetero_iters = std::max<int64_t>(1, alloc_iters / 10);
  auto hetero_rate = [&](const core::Allocator& hetero_alloc,
                         const core::Request& hetero_request) {
    if (auto warm = hetero_alloc.Allocate(hetero_request,
                                          hetero_manager.ledger(),
                                          hetero_manager.slots())) {
      core::RecycleVmBuffer(std::move(warm->vm_machine));
    }
    const double start = Now();
    for (int64_t i = 0; i < hetero_iters; ++i) {
      auto result = hetero_alloc.Allocate(
          hetero_request, hetero_manager.ledger(), hetero_manager.slots());
      if (result.ok()) core::RecycleVmBuffer(std::move(result->vm_machine));
    }
    const double seconds = Now() - start;
    return seconds > 0 ? hetero_iters / seconds : 0.0;
  };
  const core::HeteroHeuristicAllocator heuristic_alloc;
  const double heuristic_calls_per_sec = hetero_rate(
      heuristic_alloc, core::Request::Heterogeneous(2, hetero_demands(16)));
  const core::HeteroExactAllocator exact_alloc;
  const double exact_calls_per_sec = hetero_rate(
      exact_alloc, core::Request::Heterogeneous(3, hetero_demands(10)));
  std::printf("allocate: %.0f calls/s  (hetero heuristic, n=16)\n",
              heuristic_calls_per_sec);
  std::printf("allocate: %.0f calls/s  (hetero exact, n=10)\n",
              exact_calls_per_sec);

  // --- Admission pipeline: 1 worker (serial Admit loop) vs N-worker ------
  // speculate/validate/commit over an Oktopus-style online workload under
  // admission-control pressure: the fabric is pre-loaded to ~90%, then
  // batches of mixed-size tenants churn against it.  A few admit per round
  // (commits bump the epoch — the conflict path gets exercised); most are
  // rejected, and rejections keep the epoch still, so the speculation
  // workers run the allocator concurrently to real effect — exactly the
  // regime where an online control plane needs admission throughput.
  // Everything admitted is released at the end of its round, so every
  // round (and every worker count) starts from the same books.  Commits
  // follow request order, which makes the decision sequence a hard gate:
  // any worker count must reproduce the serial verdicts and placements
  // exactly.
  // With --decisions (the default) the admission and sharded benches run
  // with decision provenance armed, so their throughput records — and the
  // CI speedup gates downstream of them — include the per-outcome logging
  // cost an online control plane would actually pay.
  if (decisions_on != 0) obs::SetDecisionsEnabled(true);
  std::vector<core::Request> admit_requests;
  {
    stats::Rng rng(11);
    admit_requests.reserve(admit_iters);
    for (int64_t i = 0; i < admit_iters; ++i) {
      const int n = static_cast<int>(rng.UniformInt(2, 40));
      const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
      admit_requests.push_back(core::Request::Homogeneous(
          4'000'000 + i, n, mu, mu * rng.Uniform(0, 1)));
    }
  }
  constexpr int kAdmitRounds = 4;
  struct AdmissionOutcome {
    std::vector<char> verdicts;
    std::vector<topology::VertexId> roots;
    double seconds = 0;
    int64_t admitted = 0;
    core::PipelineStats stats;
  };
  const core::HomogeneousDpAllocator admission_alloc;
  auto run_admission = [&](int workers) {
    AdmissionOutcome result;
    core::NetworkManager admission_manager(topo, common.epsilon());
    {
      // Deterministic pre-load to ~90% occupancy: both worker counts see
      // byte-identical books.  Rejections don't end the fill (a large
      // tenant bouncing off a near-full fabric is expected) — a run of
      // them does, once even small tenants stop fitting.
      stats::Rng rng(7);
      int64_t id = 5'000'000;
      int consecutive_failures = 0;
      while (admission_manager.slots().total_free() >
                 topo.total_slots() / 10 &&
             consecutive_failures < 64) {
        const int n = static_cast<int>(rng.UniformInt(2, 60));
        const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
        const core::Request r =
            core::Request::Homogeneous(id++, n, mu, mu * rng.Uniform(0, 1));
        if (admission_manager.Admit(r, admission_alloc).ok()) {
          consecutive_failures = 0;
        } else {
          ++consecutive_failures;
        }
      }
    }
    core::PipelineConfig pipeline_config;
    pipeline_config.workers = workers;
    core::AdmissionPipeline pipeline(admission_manager, pipeline_config);
    const double start = Now();
    for (int round = 0; round < kAdmitRounds; ++round) {
      const auto decisions =
          pipeline.AdmitBatch(admit_requests, admission_alloc);
      for (size_t i = 0; i < decisions.size(); ++i) {
        result.verdicts.push_back(decisions[i].ok() ? 1 : 0);
        if (decisions[i].ok()) {
          result.roots.push_back(decisions[i]->subtree_root);
          admission_manager.Release(admit_requests[i].id());
          ++result.admitted;
        }
      }
    }
    result.seconds = Now() - start;
    result.stats = pipeline.stats();
    return result;
  };
  const AdmissionOutcome admit_serial = run_admission(1);
  const AdmissionOutcome admit_parallel =
      run_admission(static_cast<int>(pipeline_workers));
  const bool admission_identical =
      admit_serial.verdicts == admit_parallel.verdicts &&
      admit_serial.roots == admit_parallel.roots;
  const int64_t admit_total = kAdmitRounds * admit_iters;
  const double admit_serial_rate =
      admit_serial.seconds > 0 ? admit_total / admit_serial.seconds : 0.0;
  const double admit_parallel_rate =
      admit_parallel.seconds > 0 ? admit_total / admit_parallel.seconds : 0.0;
  const double admit_speedup =
      admit_parallel.seconds > 0
          ? admit_serial.seconds / admit_parallel.seconds
          : 0.0;
  std::printf(
      "admission: %.0f req/s serial  %.0f req/s (%d workers)  speedup %.2fx  "
      "conflicts %lld fallbacks %lld  identical %s\n",
      admit_serial_rate, admit_parallel_rate,
      static_cast<int>(pipeline_workers), admit_speedup,
      static_cast<long long>(admit_parallel.stats.conflicts),
      static_cast<long long>(admit_parallel.stats.fallbacks),
      admission_identical ? "yes" : "NO");

  // --- Sharded fabric commit: million-tenant-scale admission. ------------
  // A ~100k-machine three-tier fabric (root children = --shard-aggs
  // shardable subtrees) is pre-loaded with up to --shard-tenants live
  // tenants, then a planned admission stream drives the pipeline's COMMIT
  // plane: a replay allocator serves pre-computed rack-local placements
  // (speculation is a table lookup), so the measured cost is sequencing,
  // capacity re-validation, row writes, and snapshot re-capture — the
  // layers this PR shards.  Planned admits rotate across the agg quarters
  // (consecutive commits land in different shards for any shard count up
  // to 4), interleaved 1:1 with planless requests the replay allocator
  // rejects (absorbed without touching the books).  Sharding then wins
  // twice: single-shard applies run on per-shard commit workers while the
  // sequencer moves on, and every snapshot re-capture copies only the
  // stale buckets (O(V / shards) instead of O(V) rows per admitted
  // tenant).  At --admit-shards 1 every admit invalidates the whole
  // fabric, so the same stream degenerates to serial re-runs plus
  // full-fabric re-captures.  The CI gate runs this twice — 1 vs 4
  // shards — and requires >= 1.5x on the admission_sharded record via
  // bench_diff.  Decisions must match the serial Admit loop exactly
  // (third hard gate).
  shard_aggs = std::max<int64_t>(4, (shard_aggs / 4) * 4);
  shard_racks = std::max(shard_aggs, (shard_racks / shard_aggs) * shard_aggs);
  topology::ThreeTierConfig sharded_config;
  sharded_config.racks = static_cast<int>(shard_racks);
  sharded_config.machines_per_rack = 20;
  sharded_config.racks_per_agg = static_cast<int>(shard_racks / shard_aggs);
  // Slots and machine-link capacity scale with the requested tenant count:
  // each pre-load pass lands one 2-VM tenant per machine pair (one slot and
  // 50 Mbps of mean per machine), and the planned admits need two free
  // slots plus headroom on every machine.  At the default 10^5 tenants this
  // reproduces the PR-6 shape exactly (4 slots, 1 Gbps); --shard-tenants
  // 1000000 deepens the fabric to ~22 slots/machine instead of growing it
  // wider, so the per-shard row volume is what scales.
  const int64_t shard_machines =
      shard_racks * sharded_config.machines_per_rack;
  const int preload_passes = static_cast<int>(
      std::max<int64_t>(2, (shard_tenants * 2 + shard_machines - 1) /
                               std::max<int64_t>(1, shard_machines)));
  sharded_config.slots_per_machine = preload_passes + 2;
  sharded_config.machine_link_mbps = 1000.0 * preload_passes / 2.0;
  const topology::Topology sharded_topo =
      topology::BuildThreeTier(sharded_config);
  std::vector<core::Request> shard_requests;
  std::unordered_map<int64_t, core::Placement> shard_plan;
  {
    // Plan admit k into agg (k % 4) * (aggs / 4) + (k / 4) % (aggs / 4):
    // consecutive admits land in different quarters of the agg range, i.e.
    // different shards under ShardMap's contiguous grouping, so a shard is
    // revisited only every 4 admits (8 requests) — farther back than the
    // speculation pipeline's depth, which keeps the shard-freshness fast
    // path live.  Each admit takes 8 VMs on 4 whole-machine slot blocks of
    // one rack (2 free slots per machine after the pre-load), walking the
    // racks of its agg; released between rounds, so the plan never
    // double-books.
    const int aggs = static_cast<int>(shard_aggs);
    const int quarter = aggs / 4;
    const int mpr = sharded_config.machines_per_rack;
    const int admits_per_rack = mpr / 4;
    const auto& machines = sharded_topo.machines();
    std::vector<int> agg_cursor(aggs, 0);
    shard_requests.reserve(shard_iters);
    int admit_k = 0;
    for (int64_t i = 0; i < shard_iters; ++i) {
      const int64_t id = 11'000'000 + i;
      if (i % 2 != 0) {
        // Planless: rejected by the replay allocator, absorbed stale-or-not
        // (monotone rejection) — admission-control pressure between commits.
        shard_requests.push_back(core::Request::Homogeneous(id, 2, 100, 20));
        continue;
      }
      const int agg = (admit_k % 4) * quarter + (admit_k / 4) % quarter;
      const int t = agg_cursor[agg]++;
      const int rack = agg * sharded_config.racks_per_agg +
                       (t / admits_per_rack) % sharded_config.racks_per_agg;
      const int block = t % admits_per_rack;
      core::Placement placement;
      placement.vm_machine.reserve(8);
      for (int m = 0; m < 4; ++m) {
        const topology::VertexId machine =
            machines[static_cast<size_t>(rack) * mpr + block * 4 + m];
        placement.vm_machine.push_back(machine);
        placement.vm_machine.push_back(machine);
      }
      placement.subtree_root = sharded_topo.parent(placement.vm_machine[0]);
      shard_plan.emplace(id, std::move(placement));
      shard_requests.push_back(core::Request::Homogeneous(id, 8, 100, 20));
      ++admit_k;
    }
  }
  const ReplayAllocator replay_alloc(&shard_plan);
  constexpr int kShardRounds = 2;
  struct ShardedOutcome {
    std::vector<char> verdicts;
    std::vector<topology::VertexId> roots;
    double seconds = 0;
    int64_t admitted = 0;
    int64_t preloaded = 0;
    int shards = 0;
    int total_free = 0;
    double max_occupancy = 0;
    core::PipelineStats stats;
    std::vector<int64_t> histogram;
  };
  auto run_sharded = [&](int workers, int shards) {
    ShardedOutcome outcome;
    core::NetworkManager sharded_manager(sharded_topo, common.epsilon());
    core::PipelineConfig pipeline_config;
    pipeline_config.workers = workers;
    // A shallow speculation pipeline: lookups are instant, and the depth
    // bounds how far a proposal's snapshot can lag the commit front — it
    // must stay under the plan's 8-request shard-revisit distance for the
    // shard-freshness fast path to hold.
    pipeline_config.queue_capacity = 1;
    pipeline_config.shards = shards;
    core::AdmissionPipeline pipeline(sharded_manager, pipeline_config);
    outcome.shards = shards > 0 ? sharded_manager.num_shards() : 0;
    // Pre-load: rack-local 2-VM tenants committed directly (no allocator
    // search), two per machine pair per pass — identical books for every
    // (worker, shard) configuration.
    {
      const auto& machines = sharded_topo.machines();
      int64_t id = 10'000'000;
      for (int pass = 0;
           pass < preload_passes && outcome.preloaded < shard_tenants;
           ++pass) {
        for (size_t k = 0;
             k + 1 < machines.size() && outcome.preloaded < shard_tenants;
             k += 2) {
          core::Placement placement;
          placement.vm_machine = {machines[k], machines[k + 1]};
          const core::Request tenant =
              core::Request::Homogeneous(id++, 2, 50, 10);
          if (sharded_manager.AdmitPlacement(tenant, std::move(placement))
                  .ok()) {
            ++outcome.preloaded;
          }
        }
      }
    }
    const double start = Now();
    for (int round = 0; round < kShardRounds; ++round) {
      const auto decisions = pipeline.AdmitBatch(shard_requests, replay_alloc);
      for (size_t i = 0; i < decisions.size(); ++i) {
        outcome.verdicts.push_back(decisions[i].ok() ? 1 : 0);
        if (decisions[i].ok()) {
          outcome.roots.push_back(decisions[i]->subtree_root);
          sharded_manager.Release(shard_requests[i].id());
          ++outcome.admitted;
        }
      }
    }
    outcome.seconds = Now() - start;
    outcome.stats = pipeline.stats();
    outcome.histogram = pipeline.touched_shard_histogram();
    outcome.total_free = sharded_manager.slots().total_free();
    outcome.max_occupancy = sharded_manager.MaxOccupancy();
    return outcome;
  };
  const ShardedOutcome sharded_serial = run_sharded(1, 0);
  // Two speculation workers move the stream; the per-shard commit workers
  // and the O(V / shards) snapshot re-captures are what scales.
  const ShardedOutcome sharded =
      run_sharded(2, static_cast<int>(admit_shards));
  const bool sharded_identical =
      sharded.verdicts == sharded_serial.verdicts &&
      sharded.roots == sharded_serial.roots &&
      sharded.total_free == sharded_serial.total_free &&
      sharded.max_occupancy == sharded_serial.max_occupancy;
  const int64_t sharded_total = kShardRounds * shard_iters;
  const double sharded_rate =
      sharded.seconds > 0 ? sharded_total / sharded.seconds : 0.0;
  std::printf(
      "sharded:  %.0f req/s (%d shards, %d shard workers)  %lld tenants  "
      "%lld machines  dispatched %lld cross-shard %lld conflicts %lld  "
      "identical %s\n",
      sharded_rate, sharded.shards, std::max(0, sharded.shards),
      static_cast<long long>(sharded.preloaded),
      static_cast<long long>(sharded_topo.machines().size()),
      static_cast<long long>(sharded.stats.shard_commits),
      static_cast<long long>(sharded.stats.cross_shard_commits),
      static_cast<long long>(sharded.stats.shard_conflicts),
      sharded_identical ? "yes" : "NO");
  if (decisions_on != 0) {
    obs::SetDecisionsEnabled(false);
    std::printf("decisions: %llu records logged (ring keeps last %zu/thread)\n",
                static_cast<unsigned long long>(obs::DecisionCount()),
                obs::DecisionRingCapacity());
  }

  // --- BENCH_PERF.json ---------------------------------------------------
  util::JsonWriter w;
  w.BeginObject();
  w.Member("git_sha", GitSha());
  w.Key("scenario");
  w.BeginObject();
  w.Member("name", perf_scenario.name);
  w.Member("config_hash", sim::ScenarioConfigHash(perf_scenario));
  w.EndObject();
  // Host shape: bench_diff warns when two snapshots ran on hosts with
  // different CPU counts, since their parallel numbers are not comparable.
  w.Member("hardware_threads", util::ThreadPool::HardwareThreads());
  w.Member("threads", common.threads());
  w.Member("admission_identical", admission_identical);
  w.Member("sharded_identical", sharded_identical);
  w.Key("sweep");
  w.BeginObject();
  w.Member("replicas", static_cast<int64_t>(replicas));
  w.Member("jobs_per_replica", static_cast<int64_t>(sweep_jobs));
  w.Member("serial_seconds", serial_seconds);
  w.Member("parallel_seconds", parallel_seconds);
  w.Member("threads", parallel.num_threads());
  w.Member("speedup", speedup);
  w.Member("identical", identical);
  w.EndObject();
  std::vector<bench::BenchRecord> records;
  records.push_back({"step_steady", static_cast<int64_t>(steady_steps),
                     steady_rate > 0 ? 1e9 / steady_rate : 0.0, 0.0,
                     {{"steps_per_sec", steady_rate}}});
  records.push_back({"step_volatile", static_cast<int64_t>(volatile_steps),
                     volatile_rate > 0 ? 1e9 / volatile_rate : 0.0, 0.0,
                     {{"steps_per_sec", volatile_rate}}});
  records.push_back({"allocate_steady", alloc_iters,
                     calls_per_sec > 0 ? 1e9 / calls_per_sec : 0.0, 0.0,
                     {{"calls_per_sec", calls_per_sec},
                      {"allocs_per_call", allocs_per_call}}});
  records.push_back({"allocate_steady_obs", alloc_iters,
                     obs_calls_per_sec > 0 ? 1e9 / obs_calls_per_sec : 0.0,
                     0.0,
                     {{"calls_per_sec", obs_calls_per_sec},
                      {"allocs_per_call", obs_allocs_per_call}}});
  records.push_back({"allocate_hetero_heuristic", hetero_iters,
                     heuristic_calls_per_sec > 0
                         ? 1e9 / heuristic_calls_per_sec
                         : 0.0,
                     0.0,
                     {{"calls_per_sec", heuristic_calls_per_sec}}});
  records.push_back({"allocate_hetero_exact", hetero_iters,
                     exact_calls_per_sec > 0 ? 1e9 / exact_calls_per_sec : 0.0,
                     0.0,
                     {{"calls_per_sec", exact_calls_per_sec}}});
  records.push_back(
      {"admission_throughput_1w", admit_total,
       admit_serial_rate > 0 ? 1e9 / admit_serial_rate : 0.0, 0.0,
       {{"requests_per_sec", admit_serial_rate},
        {"admitted", static_cast<double>(admit_serial.admitted)}}});
  records.push_back(
      {"admission_throughput", admit_total,
       admit_parallel_rate > 0 ? 1e9 / admit_parallel_rate : 0.0, 0.0,
       {{"requests_per_sec", admit_parallel_rate},
        {"speedup", admit_speedup},
        {"workers", static_cast<double>(pipeline_workers)},
        {"admitted", static_cast<double>(admit_parallel.admitted)},
        {"conflicts", static_cast<double>(admit_parallel.stats.conflicts)},
        {"fallbacks", static_cast<double>(admit_parallel.stats.fallbacks)}}});
  {
    // Satellite schema note: same BenchRecord shape as every PR 3-5 record —
    // the shard count and touched-shard histogram ride in the extras map, so
    // tools/bench_diff.py diffs admission_sharded across snapshots unchanged.
    bench::BenchRecord sharded_record{
        "admission_sharded", sharded_total,
        sharded_rate > 0 ? 1e9 / sharded_rate : 0.0, 0.0,
        {{"requests_per_sec", sharded_rate},
         {"shards", static_cast<double>(sharded.shards)},
         {"workers", 2.0},
         {"tenants_preloaded", static_cast<double>(sharded.preloaded)},
         {"machines", static_cast<double>(sharded_topo.machines().size())},
         {"admitted", static_cast<double>(sharded.admitted)},
         {"shard_commits", static_cast<double>(sharded.stats.shard_commits)},
         {"cross_shard_commits",
          static_cast<double>(sharded.stats.cross_shard_commits)},
         {"shard_conflicts",
          static_cast<double>(sharded.stats.shard_conflicts)},
         {"fallbacks", static_cast<double>(sharded.stats.fallbacks)}}};
    for (size_t k = 0; k < sharded.histogram.size(); ++k) {
      sharded_record.counters.push_back(
          {"touched_shards_" + std::to_string(k),
           static_cast<double>(sharded.histogram[k])});
    }
    records.push_back(std::move(sharded_record));
  }
  bench::AddBenchmarksMember(w, records);
  // Snapshot of everything the instrumented sections recorded, so perf
  // regressions can be diffed at metric granularity across runs.
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
  w.Key("histograms");
  w.BeginObject();
  for (const auto& h : snapshot.histograms) {
    w.Key(h.name);
    w.BeginObject();
    w.Member("count", h.count);
    w.Member("sum", h.sum);
    w.Member("max", h.max);
    w.Member("p50", h.p50);
    w.Member("p90", h.p90);
    w.Member("p99", h.p99);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  w.EndObject();
  if (!bench::WriteFile(out, w.str() + "\n")) return 1;
  std::printf("wrote %s\n", out.c_str());

  // Non-zero exit if the parallel sweep, the multi-worker admission
  // pipeline, or the sharded commit plane diverged from serial — the
  // suite's hard correctness gates.
  return identical && admission_identical && sharded_identical ? 0 : 2;
}
