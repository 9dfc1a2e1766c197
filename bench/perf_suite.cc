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
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "bench_common.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/rng.h"
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

  // Non-zero exit if the parallel sweep diverged from serial — the suite's
  // hard correctness gate.
  return identical ? 0 : 2;
}
