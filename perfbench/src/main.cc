// The repository benchmark: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--fabric paper|tiny] [--git-sha <sha>]
//
// Repeats one workload (a fixed amount of work per repetition, generated
// from --seed) for about --seconds of wall time, checks every repetition's
// outputs, and prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 spends half the budget untraced and half traced, reports the
// per-layer metrics from the traced repetitions, and their wall-time ratio
// as trace.overhead_ratio.  Every repetition of one seed must produce the
// same decision digest, traced or not.  The line before the result holds
// the run's provenance.  A human-readable summary goes to stderr.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},           {"admit_p50_us", "us"},
    {"admit_p99_us", "us"},     {"decisions_per_s", "1/s"},
    {"accept_ratio", "ratio"},  {"peak_rss_mb", "MB"},
};

const std::vector<Metric> kPerLayer = {
    {"topology.build_s", "s"},
    {"workload.generate_s", "s"},
    {"workload.jobs", "count"},
    {"sim.fault_schedule_s", "s"},
    {"sim.fault_events", "count"},
    {"svc.alloc.calls", "count"},
    {"svc.alloc.busy_s", "s"},
    {"svc.alloc.p50_us", "us"},
    {"svc.alloc.p99_us", "us"},
    {"svc.alloc.placed_ratio", "ratio"},
    {"svc.survivable.plan_calls", "count"},
    {"svc.survivable.plan_busy_s", "s"},
    {"svc.survivable.plan_p50_us", "us"},
    {"svc.survivable.plan_p99_us", "us"},
    {"svc.survivable.plan_ok_ratio", "ratio"},
    {"svc.manager.commit_calls", "count"},
    {"svc.manager.commit_busy_s", "s"},
    {"svc.manager.commit_p99_us", "us"},
    {"svc.manager.release_calls", "count"},
    {"svc.manager.release_busy_s", "s"},
    {"svc.manager.release_p99_us", "us"},
    {"svc.fault.calls", "count"},
    {"svc.fault.busy_s", "s"},
    {"svc.fault.alloc_busy_s", "s"},
    {"svc.fault.self_s", "s"},
    {"svc.fault.tenants_affected", "count"},
    {"svc.fault.tenants_switched", "count"},
    {"svc.fault.tenants_evicted", "count"},
    {"svc.recovery.calls", "count"},
    {"svc.recovery.busy_s", "s"},
    {"svc.pipeline.batch_calls", "count"},
    {"svc.pipeline.batch_busy_s", "s"},
    {"svc.pipeline.proposed", "count"},
    {"svc.pipeline.conflicts", "count"},
    {"svc.pipeline.fallbacks", "count"},
    {"svc.pipeline.shard_commits", "count"},
    {"svc.pipeline.cross_shard_commits", "count"},
    {"svc.pipeline.useful_ratio", "ratio"},
    {"svc.pipeline.alloc_busy_s", "s"},
    {"sim.engine.run_s", "s"},
    {"sim.engine.alloc_busy_s", "s"},
    {"sim.engine.self_s", "s"},
    {"sim.engine.sim_seconds", "s"},
    {"sim.engine.jobs_done", "count"},
    {"trace.replay_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"fault_p50_us", "us"},
    {"fault_p90_us", "us"},
    {"reject_ratio", "ratio"},
    {"evict_ratio", "ratio"},
    {"outage_rate", "ratio"},
    {"sim_speed", "s/s"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Fabric fabric = Fabric::kPaper;
  std::string git_sha = "unknown";
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--fabric paper|tiny] "
               "[--git-sha <sha>]\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
    } else if (flag == "--fabric") {
      if (value != "paper" && value != "tiny") {
        *error = "--fabric takes paper or tiny";
        return false;
      }
      args->fabric = value == "tiny" ? Fabric::kTiny : Fabric::kPaper;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args->workload) == names.end()) {
    *error = "unknown workload '" + args->workload + "'";
    return false;
  }
  if (!(args->seconds > 0)) {
    *error = "--seconds must be > 0";
    return false;
  }
  return true;
}

int CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Median over repetitions of a per-repetition value.
template <typename F>
double MedianOf(const std::vector<Rep>& reps, F value) {
  std::vector<double> values;
  for (const Rep& rep : reps) values.push_back(value(rep));
  return Median(values);
}

// Every repetition of a seed replays the same operations in the same order
// (the digests check this), so operation i's latency is measured once per
// repetition.  Its fastest measurement is the one least disturbed by other
// load on the host; percentiles are taken over these per-operation bests.
std::vector<double> BestPerOperation(const std::vector<Rep>& reps,
                                     std::vector<double> Rep::*samples) {
  std::vector<double> best = reps.front().*samples;
  for (const Rep& rep : reps) {
    const std::vector<double>& s = rep.*samples;
    best.resize(std::min(best.size(), s.size()));
    for (size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], s[i]);
  }
  return best;
}

// The replay time of a run undisturbed by other load, as far as the
// repetitions show it: the sum of every operation's fastest measurement.
double BestReplaySeconds(const std::vector<Rep>& reps) {
  double total_us = 0;
  for (double us : BestPerOperation(reps, &Rep::op_us)) total_us += us;
  return total_us * 1e-6;
}

// Repeats the workload until `budget_s` would be exceeded by one more
// repetition of the last one's length, but at least `min_reps` times.
std::vector<Rep> RunReps(const RepOptions& options, double budget_s,
                         int min_reps) {
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  double last_s = 0;
  for (;;) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (static_cast<int>(reps.size()) >= min_reps &&
        elapsed + last_s > budget_s) {
      break;
    }
    const Clock::time_point rep_start = Clock::now();
    reps.push_back(RunRep(options));
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    reps.back().peak_rss_mb = usage.ru_maxrss / 1024.0;
    last_s = std::chrono::duration<double>(Clock::now() - rep_start).count();
  }
  return reps;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());

  // Numbers from an unoptimised build measure a different program: Debug
  // also defines SVC_SIM_CHECK_INCREMENTAL, which re-solves max-min on
  // every simulated tick.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  const bool optimized = build_type != "Debug";
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure an unoptimised build "
                 "(build type '%s')\n",
                 build_type.c_str());
    return 2;
  }

  RepOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  options.fabric = args.fabric;
  options.nproc = CpuCount();

  // Two untraced repetitions at least, so that every operation's fastest
  // measurement is taken over two even when a host slowdown stretches a
  // repetition past half the budget.
  std::vector<Rep> untraced, traced;
  if (args.trace) {
    untraced = RunReps(options, args.seconds / 2, 2);
    options.traced = true;
    traced = RunReps(options, args.seconds / 2, 1);
  } else {
    untraced = RunReps(options, args.seconds, 2);
  }

  // Correctness: every repetition's own checks, plus determinism — every
  // repetition of this seed, traced or not, made the same decisions.
  int64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const Rep& reference = untraced.front();
  auto account = [&](const Rep& rep) {
    attempted += rep.attempted + 1;
    failed += rep.failed;
    for (const std::string& e : rep.errors) {
      if (errors.size() < 10) errors.push_back(e);
    }
    if (rep.digest != reference.digest || rep.rejected != reference.rejected) {
      ++failed;
      if (errors.size() < 10) {
        errors.push_back("repetition differs from the first: digest " +
                         Hex(rep.digest) + " vs " + Hex(reference.digest));
      }
    }
  };
  for (const Rep& rep : untraced) account(rep);
  for (const Rep& rep : traced) account(rep);
  const bool correct = failed == 0;

  std::map<std::string, double> metrics;
  const std::vector<Metric>& names = args.trace ? kPerLayer : kEndToEnd;
  const double offered = static_cast<double>(reference.offered);
  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["setup_s"] = MedianOf(untraced, [](const Rep& r) {
      return r.setup_s;
    });
    const std::vector<double> admit = BestPerOperation(untraced, &Rep::admit_us);
    metrics["admit_p50_us"] = Percentile(admit, 0.50);
    metrics["admit_p99_us"] = Percentile(admit, 0.99);
    metrics["decisions_per_s"] =
        static_cast<double>(admit.size()) / BestReplaySeconds(untraced);
    metrics["accept_ratio"] = 1 - reference.rejected / offered;
    // After the first repetition: later ones only add allocator
    // fragmentation that varies with how many repetitions fit the budget.
    metrics["peak_rss_mb"] = untraced.front().peak_rss_mb;
  } else {
    for (const Metric& m : kPerLayer) {
      metrics[m.name] = MedianOf(traced, [&](const Rep& r) {
        auto it = r.layers.find(m.name);
        return it == r.layers.end() ? 0.0 : it->second;
      });
    }
    const double traced_s = BestReplaySeconds(traced);
    metrics["trace.replay_s"] = traced_s;
    metrics["trace.overhead_ratio"] = traced_s / BestReplaySeconds(untraced);
    const std::vector<double> fault = BestPerOperation(untraced, &Rep::fault_us);
    metrics["fault_p50_us"] = Percentile(fault, 0.50);
    metrics["fault_p90_us"] = Percentile(fault, 0.90);
    metrics["reject_ratio"] = reference.rejected / offered;
    metrics["evict_ratio"] =
        reference.stranded == 0
            ? 0
            : static_cast<double>(reference.evicted) / reference.stranded;
    metrics["outage_rate"] = reference.outage_rate;
    metrics["sim_speed"] = reference.sim_seconds / BestReplaySeconds(untraced);
  }

  // Provenance line, then the human summary, then the result line.
  std::ostringstream prov;
  prov << "{\"provenance\": {\"workload\": " << Quoted(args.workload)
       << ", \"seed\": " << args.seed << ", \"fabric\": "
       << Quoted(args.fabric == Fabric::kTiny ? "tiny" : "paper")
       << ", \"seconds\": " << Number(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"nproc\": " << options.nproc
       << ", \"git_sha\": " << Quoted(args.git_sha)
       << ", \"build_type\": " << Quoted(build_type)
       << ", \"reps_untraced\": " << untraced.size()
       << ", \"reps_traced\": " << traced.size()
       << ", \"digest\": " << Quoted(Hex(reference.digest))
       << ", \"digest_traced\": "
       << Quoted(traced.empty() ? "" : Hex(traced.front().digest))
       << ", \"rejected\": " << reference.rejected
       << ", \"offered\": " << reference.offered;
  for (const auto& [key, value] : reference.sizes) {
    prov << ", " << Quoted(key) << ": " << Number(value);
  }
  prov << "}}";
  std::cout << prov.str() << "\n";

  std::fprintf(stderr, "perfbench %s seed=%" PRIu64 " trace=%d reps=%zu+%zu\n",
               args.workload.c_str(), args.seed, args.trace ? 1 : 0,
               untraced.size(), traced.size());
  for (const Metric& m : names) {
    std::fprintf(stderr, "  %-36s %16.6g %s\n", m.name, metrics[m.name],
                 m.unit);
  }
  std::fprintf(stderr, "  replay seconds per repetition:");
  for (const Rep& rep : untraced) std::fprintf(stderr, " %.4g", rep.replay_s);
  if (!traced.empty()) std::fprintf(stderr, " | traced:");
  for (const Rep& rep : traced) std::fprintf(stderr, " %.4g", rep.replay_s);
  std::fprintf(stderr, "\n  attempted=%" PRId64 " failed=%" PRId64 "\n",
               attempted, failed);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "  error: %s\n", e.c_str());
  }

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    out << (i ? ", " : "") << Quoted(names[i].name) << ": {\"value\": "
        << Number(metrics[names[i].name]) << ", \"unit\": "
        << Quoted(names[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
