// Micro-benchmarks of the allocation algorithms (google-benchmark):
// supports the paper's complexity claims — O(|V| Delta N^2) for Algorithm 1
// and O(|V| Delta N^4) for the heterogeneous substring heuristic — and
// quantifies the cost of the min-max optimization vs the TIVC baseline.
//
// Run with --json[=path] to also write the results as JSON (default path
// BENCH_ALLOC.json) for tools/bench_diff.py.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "obs/core.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/rng.h"
#include "svc/first_fit.h"
#include "svc/hetero_exact.h"
#include "svc/hetero_heuristic.h"
#include "svc/homogeneous_search.h"
#include "svc/manager.h"
#include "svc/scratch_arena.h"
#include "topology/builders.h"
#include "util/json.h"

namespace {

using namespace svc;

topology::Topology BenchFabric(int racks) {
  topology::ThreeTierConfig config;
  config.racks = racks;
  config.machines_per_rack = 20;
  config.racks_per_agg = std::max(1, racks / 5);
  return topology::BuildThreeTier(config);
}

// Pre-loads the datacenter to ~40% so allocations work against a realistic
// ledger, then measures Allocate() only.
core::NetworkManager LoadedManager(const topology::Topology& topo) {
  core::NetworkManager manager(topo, 0.05);
  core::HomogeneousDpAllocator alloc;
  stats::Rng rng(7);
  int64_t id = 1'000'000;
  while (manager.slots().total_free() > topo.total_slots() * 6 / 10) {
    const int n = static_cast<int>(rng.UniformInt(2, 60));
    const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
    const core::Request r =
        core::Request::Homogeneous(id++, n, mu, mu * rng.Uniform(0, 1));
    if (!manager.Admit(r, alloc).ok()) break;
  }
  return manager;
}

void BM_HomogeneousDp(benchmark::State& state) {
  const topology::Topology topo = BenchFabric(50);
  const core::NetworkManager manager = LoadedManager(topo);
  const core::HomogeneousDpAllocator alloc;
  const int n = static_cast<int>(state.range(0));
  const core::Request r = core::Request::Homogeneous(1, n, 200, 100);
  for (auto _ : state) {
    auto result = alloc.Allocate(r, manager.ledger(), manager.slots());
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_HomogeneousDp)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Complexity(benchmark::oNSquared);

void BM_TivcAdapted(benchmark::State& state) {
  const topology::Topology topo = BenchFabric(50);
  const core::NetworkManager manager = LoadedManager(topo);
  const core::TivcAdaptedAllocator alloc;
  const int n = static_cast<int>(state.range(0));
  const core::Request r = core::Request::Homogeneous(1, n, 200, 100);
  for (auto _ : state) {
    auto result = alloc.Allocate(r, manager.ledger(), manager.slots());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TivcAdapted)->Arg(8)->Arg(32)->Arg(128);

void BM_HomogeneousDpTopologyScaling(benchmark::State& state) {
  const topology::Topology topo =
      BenchFabric(static_cast<int>(state.range(0)));
  core::NetworkManager manager(topo, 0.05);
  const core::HomogeneousDpAllocator alloc;
  const core::Request r = core::Request::Homogeneous(1, 49, 200, 100);
  for (auto _ : state) {
    auto result = alloc.Allocate(r, manager.ledger(), manager.slots());
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HomogeneousDpTopologyScaling)
    ->Arg(10)->Arg(25)->Arg(50)->Arg(100)
    ->Complexity(benchmark::oN);

void BM_HeteroHeuristic(benchmark::State& state) {
  const topology::Topology topo = BenchFabric(10);
  core::NetworkManager manager(topo, 0.05);
  const core::HeteroHeuristicAllocator alloc;
  const int n = static_cast<int>(state.range(0));
  stats::Rng rng(3);
  std::vector<stats::Normal> demands;
  for (int i = 0; i < n; ++i) {
    const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
    const double sigma = mu * rng.Uniform(0, 1);
    demands.push_back({mu, sigma * sigma});
  }
  const core::Request r = core::Request::Heterogeneous(1, demands);
  for (auto _ : state) {
    auto result = alloc.Allocate(r, manager.ledger(), manager.slots());
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_HeteroHeuristic)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Complexity();

void BM_HeteroExact(benchmark::State& state) {
  const topology::Topology topo = topology::BuildTwoTier(4, 4, 4, 1000, 2.0);
  core::NetworkManager manager(topo, 0.05);
  const core::HeteroExactAllocator alloc;
  const int n = static_cast<int>(state.range(0));
  stats::Rng rng(5);
  std::vector<stats::Normal> demands;
  for (int i = 0; i < n; ++i) {
    const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
    demands.push_back({mu, mu * mu * 0.25});
  }
  const core::Request r = core::Request::Heterogeneous(1, demands);
  for (auto _ : state) {
    auto result = alloc.Allocate(r, manager.ledger(), manager.slots());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HeteroExact)->Arg(4)->Arg(8)->Arg(12);

void BM_FirstFit(benchmark::State& state) {
  const topology::Topology topo = BenchFabric(10);
  core::NetworkManager manager(topo, 0.05);
  const core::FirstFitAllocator alloc;
  const int n = static_cast<int>(state.range(0));
  stats::Rng rng(9);
  std::vector<stats::Normal> demands;
  for (int i = 0; i < n; ++i) {
    const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
    demands.push_back({mu, mu * mu * 0.25});
  }
  const core::Request r = core::Request::Heterogeneous(1, demands);
  for (auto _ : state) {
    auto result = alloc.Allocate(r, manager.ledger(), manager.slots());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FirstFit)->Arg(8)->Arg(32)->Arg(128);

void BM_AdmitReleaseCycle(benchmark::State& state) {
  const topology::Topology topo = BenchFabric(50);
  core::NetworkManager manager(topo, 0.05);
  const core::HomogeneousDpAllocator alloc;
  int64_t id = 1;
  for (auto _ : state) {
    const core::Request r = core::Request::Homogeneous(id, 49, 200, 100);
    auto result = manager.Admit(r, alloc);
    benchmark::DoNotOptimize(result);
    manager.Release(id);
    ++id;
  }
}
BENCHMARK(BM_AdmitReleaseCycle);

// Heap allocations per Allocate() call in steady state: the DP arena is
// thread-local and the placement buffer is recycled, so after the first
// (warm-up) call the count must be zero (see docs/PERFORMANCE.md).
void BM_HomogeneousDpSteadyAllocs(benchmark::State& state) {
  const topology::Topology topo = BenchFabric(50);
  const core::NetworkManager manager = LoadedManager(topo);
  const core::HomogeneousDpAllocator alloc;
  const core::Request r = core::Request::Homogeneous(1, 49, 200, 100);
  // Warm-up: size the arena and seed the buffer pool.
  if (auto result = alloc.Allocate(r, manager.ledger(), manager.slots())) {
    core::RecycleVmBuffer(std::move(result->vm_machine));
  }
  int64_t allocations = 0;
  int64_t calls = 0;
  for (auto _ : state) {
    const int64_t before = svc::bench::AllocationCount();
    auto result = alloc.Allocate(r, manager.ledger(), manager.slots());
    allocations += svc::bench::AllocationCount() - before;
    ++calls;
    benchmark::DoNotOptimize(result);
    if (result.ok()) core::RecycleVmBuffer(std::move(result->vm_machine));
  }
  state.counters["allocs_per_call"] =
      calls == 0 ? 0.0 : static_cast<double>(allocations) / calls;
}
BENCHMARK(BM_HomogeneousDpSteadyAllocs);

// The same steady-state allocation count with the metrics registry and
// tracing armed: the obs write path (static handle caches, sharded atomic
// bumps, ring-buffer spans) must not add a single heap allocation either.
// The warm-up call registers the metric handles and this thread's trace
// ring, mirroring a real instrumented process after its first request.
void BM_HomogeneousDpSteadyAllocsObsOn(benchmark::State& state) {
  const topology::Topology topo = BenchFabric(50);
  const core::NetworkManager manager = LoadedManager(topo);
  const core::HomogeneousDpAllocator alloc;
  const core::Request r = core::Request::Homogeneous(1, 49, 200, 100);
  const bool metrics_were_on = obs::MetricsEnabled();
  const bool trace_was_on = obs::TraceEnabled();
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(true);
  if (auto result = alloc.Allocate(r, manager.ledger(), manager.slots())) {
    core::RecycleVmBuffer(std::move(result->vm_machine));
  }
  int64_t allocations = 0;
  int64_t calls = 0;
  for (auto _ : state) {
    const int64_t before = svc::bench::AllocationCount();
    auto result = alloc.Allocate(r, manager.ledger(), manager.slots());
    allocations += svc::bench::AllocationCount() - before;
    ++calls;
    benchmark::DoNotOptimize(result);
    if (result.ok()) core::RecycleVmBuffer(std::move(result->vm_machine));
  }
  obs::SetMetricsEnabled(metrics_were_on);
  obs::SetTraceEnabled(trace_was_on);
  state.counters["allocs_per_call"] =
      calls == 0 ? 0.0 : static_cast<double>(allocations) / calls;
}
BENCHMARK(BM_HomogeneousDpSteadyAllocsObsOn);

// One benchmark result as the --json file records it.
struct BenchRecord {
  std::string name;
  int64_t iterations = 0;
  double real_ns_per_iter = 0;
  double cpu_ns_per_iter = 0;
  std::vector<std::pair<std::string, double>> counters;
};

// Appends a "benchmarks": [...] member to the currently open JSON object.
void AddBenchmarksMember(util::JsonWriter& w,
                         const std::vector<BenchRecord>& records) {
  w.Key("benchmarks");
  w.BeginArray();
  for (const BenchRecord& record : records) {
    w.BeginObject();
    w.Member("name", record.name);
    w.Member("iterations", record.iterations);
    w.Member("real_ns_per_iter", record.real_ns_per_iter);
    w.Member("cpu_ns_per_iter", record.cpu_ns_per_iter);
    for (const auto& [key, value] : record.counters) w.Member(key, value);
    w.EndObject();
  }
  w.EndArray();
}

// Console output plus a capture of every run for the --json emitter.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      BenchRecord record;
      record.name = run.benchmark_name();
      record.iterations = run.iterations;
      if (run.iterations > 0) {
        record.real_ns_per_iter =
            run.real_accumulated_time * 1e9 / run.iterations;
        record.cpu_ns_per_iter =
            run.cpu_accumulated_time * 1e9 / run.iterations;
      }
      for (const auto& [name, counter] : run.counters) {
        record.counters.emplace_back(name, counter.value);
      }
      records_.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<BenchRecord> records_;
};

}  // namespace

int main(int argc, char** argv) {
  // Extract --json[=path] before google-benchmark sees the argv.
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_ALLOC.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    svc::util::JsonWriter w;
    w.BeginObject();
    AddBenchmarksMember(w, reporter.records());
    w.EndObject();
    if (!svc::obs::WriteFile(json_path, w.str() + "\n")) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
