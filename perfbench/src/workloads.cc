#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>

#include "sim/engine.h"
#include "sim/fault_injector.h"
#include "stats/rng.h"
#include "svc/admission_pipeline.h"
#include "svc/allocator_registry.h"
#include "svc/manager.h"
#include "svc/survivable.h"
#include "timed_allocator.h"
#include "topology/builders.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace core = svc::core;
namespace sim = svc::sim;
namespace topology = svc::topology;
namespace util = svc::util;
namespace workload = svc::workload;
using Clock = std::chrono::steady_clock;

constexpr double kEpsilon = 0.05;  // the registry's SVC risk factor
constexpr double kInf = std::numeric_limits<double>::infinity();

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// What one repetition of a workload does.  The paper fabric sizes are set
// so a repetition takes a few seconds on a 4-CPU host (see README.md); the
// tiny fabric sizes keep the smoke test under a few seconds in total.
struct Sizes {
  int tenants = 0;            // tenants offered (flow_sim: jobs)
  double load = 0;            // offered load of the arrival trace
  double machine_mtbf_s = 0;  // survivable_faults; link MTBF is 3x this
  double preload_fraction = 0;  // admit_burst: slots busy before the bursts
  int burst_size = 0;         // admit_burst: same-instant arrivals per burst
  int bursts = 0;
};

Sizes SizesFor(const std::string& name, Fabric fabric) {
  const bool tiny = fabric == Fabric::kTiny;
  Sizes s;
  if (name == "admit_churn") {
    s.tenants = tiny ? 200 : 15000;
    s.load = 0.9;
  } else if (name == "survivable_faults") {
    s.tenants = tiny ? 60 : 1100;
    s.load = 0.9;
    s.machine_mtbf_s = tiny ? 300 : 32400;
  } else if (name == "flow_sim") {
    s.tenants = tiny ? 60 : 1000;
    s.load = 0.7;
  } else if (name == "admit_burst") {
    s.preload_fraction = 0.6;
    s.burst_size = tiny ? 8 : 48;
    s.bursts = tiny ? 4 : 64;
    s.tenants = s.burst_size * s.bursts;
  }
  return s;
}

topology::ThreeTierConfig FabricConfig(Fabric fabric) {
  topology::ThreeTierConfig config;  // the paper fabric
  if (fabric == Fabric::kTiny) {
    config.racks = 4;
    config.machines_per_rack = 5;
    config.racks_per_agg = 2;
  }
  return config;
}

// The scenario registry's tenant mix (mean size 49, max 400, rate menu
// 50..250 Mbps); the tiny fabric scales job sizes down to fit.
workload::WorkloadConfig TenantMix(Fabric fabric, int jobs) {
  workload::WorkloadConfig config;
  config.num_jobs = jobs;
  config.mean_job_size = fabric == Fabric::kTiny ? 8 : 49;
  config.max_job_size = fabric == Fabric::kTiny ? 16 : 400;
  config.rate_means = {50, 100, 150, 200, 250};
  return config;
}

bool IsRejection(util::ErrorCode code) {
  return code == util::ErrorCode::kCapacity ||
         code == util::ErrorCode::kInfeasible;
}

// FNV-1a over the decision stream.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
  // Request id, verdict, VM machines and backup machine.  The verdict is
  // admitted / rejected / the error code of any other failure: which of
  // kCapacity and kInfeasible a rejection reports depends on whether the
  // pipeline absorbed it from an older snapshot.
  void AddDecision(core::RequestId id,
                   const util::Result<core::Placement>& decision) {
    Add(static_cast<uint64_t>(id));
    if (!decision.ok()) {
      const util::ErrorCode code = decision.status().code();
      Add(IsRejection(code) ? 1 : 2 + static_cast<uint64_t>(code));
      return;
    }
    Add(0);
    Add(decision->vm_machine.size());
    for (topology::VertexId m : decision->vm_machine) {
      Add(static_cast<uint64_t>(m));
    }
    Add(static_cast<uint64_t>(decision->backup_machine));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void Fail(Rep& rep, const std::string& what) {
  ++rep.failed;
  if (rep.errors.size() < 8) rep.errors.push_back(what);
}

void Check(Rep& rep, bool ok, const std::string& what) {
  ++rep.attempted;
  if (!ok) Fail(rep, "check failed: " + what);
}

// Counts an admission decision: a capacity rejection is an outcome, any
// other error a failed operation.
void CountDecision(Rep& rep, const util::Result<core::Placement>& decision) {
  ++rep.attempted;
  if (decision.ok()) return;
  if (IsRejection(decision.status().code())) {
    ++rep.rejected;
  } else {
    Fail(rep, "admit: " + decision.status().ToText());
  }
}

// Durations of one kind of call, for a layer's count / busy / percentiles.
struct CallTimes {
  int64_t calls = 0;
  double busy_s = 0;
  std::vector<double> us;

  void Add(double micros) {
    ++calls;
    busy_s += micros * 1e-6;
    us.push_back(micros);
  }
};

void PutAllocatorLayer(const TimedAllocator& timed, Rep& rep) {
  const TimedAllocator::Totals totals = timed.Collect();
  rep.layers["svc.alloc.calls"] = static_cast<double>(totals.calls);
  rep.layers["svc.alloc.busy_s"] = totals.busy_s;
  rep.layers["svc.alloc.p50_us"] = Percentile(totals.call_us, 0.50);
  rep.layers["svc.alloc.p99_us"] = Percentile(totals.call_us, 0.99);
  rep.layers["svc.alloc.placed_ratio"] =
      totals.calls == 0 ? 0 : static_cast<double>(totals.placed) / totals.calls;
}

// Rescales the arrival times of a trace so that its realized offered load,
// sum(size x compute time) / (slots x span), is exactly `load`.  A Poisson
// trace of a thousand jobs misses its nominal load by several percent from
// seed to seed, and near saturation that moves the fabric's fill, the
// rejection rate and the cost of every decision with it.
void NormalizeLoad(double load, int total_slots,
                   std::vector<workload::JobSpec>* jobs) {
  double work = 0;
  for (const workload::JobSpec& job : *jobs) {
    work += job.size * job.compute_time;
  }
  const double scale =
      work / (load * total_slots * jobs->back().arrival_time);
  for (workload::JobSpec& job : *jobs) job.arrival_time *= scale;
}

// A Poisson arrival trace of `tenants` jobs from the registry mix at
// offered load `load`.  The job sizes are a systematic sample: about 16,000
// jobs are drawn, sorted by size, every stride-th is kept from a seeded
// offset, and the kept jobs take the arrival times of an ordinary trace in
// a seeded order.  The sizes keep the mix's distribution, but on a trace of
// a thousand jobs the largest few -- which set the p99 of admission, since
// the DP and backup planning both grow with job size -- no longer swing
// from seed to seed.  Traces of 16,000 jobs and more are not stratified.
std::vector<workload::JobSpec> OnlineTrace(Fabric fabric, int tenants,
                                           double load, int total_slots,
                                           uint64_t seed) {
  const int stride = std::max(1, 16000 / tenants);
  std::vector<workload::JobSpec> jobs =
      workload::WorkloadGenerator(TenantMix(fabric, tenants), seed)
          .GenerateOnline(load, total_slots);
  std::vector<workload::JobSpec> pool =
      workload::WorkloadGenerator(TenantMix(fabric, tenants * stride),
                                  seed + 2)
          .GenerateBatch();
  std::stable_sort(pool.begin(), pool.end(),
                   [](const workload::JobSpec& a, const workload::JobSpec& b) {
                     return a.size < b.size;
                   });
  svc::stats::Rng rng(seed + 3);
  const int64_t offset = rng.UniformInt(0, stride - 1);
  std::vector<size_t> order(jobs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(0, i - 1)]);
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const double arrival = jobs[order[i]].arrival_time;
    const int64_t id = jobs[order[i]].id;
    jobs[order[i]] = pool[offset + i * stride];
    jobs[order[i]].arrival_time = arrival;
    jobs[order[i]].id = id;
  }
  NormalizeLoad(load, total_slots, &jobs);
  return jobs;
}

// Fault churn with the fault_recovery scenario's shape (link MTBF = 3x
// machine MTBF, MTTR 60 s), conditioned on its expected event count: each
// element class -- machines, ToR uplinks, aggregation uplinks -- gets
// round(elements x horizon / MTBF) failures at uniform times on uniform
// elements, each recovering MTTR later.  A renewal process with the same
// rates would draw these counts at random, and the two or three uplink
// failures it draws per repetition (each strands dozens of tenants) would
// make one seed's fault cost several times another's.
void ScriptFaultChurn(const topology::Topology& topo, double machine_mtbf_s,
                      uint64_t seed, sim::FaultConfig* config) {
  svc::stats::Rng rng(seed);
  const double horizon = config->horizon_seconds;
  const double mttr = config->mttr_seconds;
  auto script = [&](const std::vector<topology::VertexId>& elements,
                    double mtbf, core::FaultKind kind) {
    const long count = std::lround(elements.size() * horizon / mtbf);
    // Failure times per element: an element fails at most once at a time.
    std::map<topology::VertexId, std::vector<double>> down;
    for (long placed = 0, tries = 0; placed < count && tries < 100 * count;
         ++tries) {
      const double time = rng.Uniform(0, horizon);
      const topology::VertexId v = elements[rng.UniformInt(
          0, static_cast<int64_t>(elements.size()) - 1)];
      std::vector<double>& times = down[v];
      if (std::any_of(times.begin(), times.end(), [&](double other) {
            return std::abs(other - time) <= mttr;
          })) {
        continue;
      }
      times.push_back(time);
      sim::FaultEvent event;
      event.time = time;
      event.vertex = v;
      event.kind = kind;
      config->scripted.push_back(event);
      event.time = time + mttr;
      event.fail = false;
      config->scripted.push_back(event);
      ++placed;
    }
  };
  script(topo.machines(), machine_mtbf_s, core::FaultKind::kMachine);
  script(topo.vertices_at_level(1), 3 * machine_mtbf_s, core::FaultKind::kLink);
  script(topo.vertices_at_level(2), 3 * machine_mtbf_s, core::FaultKind::kLink);
}

// --- admit_churn and survivable_faults -------------------------------------

// Closed-loop replay of a Poisson arrival trace against NetworkManager with
// one caller.  Each admitted tenant departs at arrival + compute time; with
// `survivable` set, admission reserves backups and a machine/link fault
// schedule is interleaved and handled by switchover.  A traced repetition
// replaces each Admit by its three public steps (Allocate, PlanBackup when
// survivable, AdmitPlacement) so each is timed on its own; the decisions
// are the same.
Rep RunChurn(const RepOptions& options, bool survivable) {
  const Sizes sizes = SizesFor(options.workload, options.fabric);
  Rep rep;
  const bool traced = options.traced;

  const Clock::time_point setup_start = Clock::now();
  Clock::time_point t = Clock::now();
  const topology::Topology topo =
      topology::BuildThreeTier(FabricConfig(options.fabric));
  rep.layers["topology.build_s"] = SecondsSince(t);
  t = Clock::now();
  const std::vector<workload::JobSpec> jobs =
      OnlineTrace(options.fabric, sizes.tenants, sizes.load,
                  topo.total_slots(), options.seed);
  rep.layers["workload.generate_s"] = SecondsSince(t);
  std::vector<sim::FaultEvent> faults;
  if (survivable) {
    t = Clock::now();
    sim::FaultConfig config;
    config.mttr_seconds = 60;
    config.horizon_seconds = jobs.back().arrival_time;
    config.seed = options.seed + 1;
    config.policy = core::RecoveryPolicy::kSwitchover;
    ScriptFaultChurn(topo, sizes.machine_mtbf_s, options.seed + 1, &config);
    const util::Status valid = sim::ValidateFaultConfig(topo, config);
    Check(rep, valid.ok(), "fault config: " + valid.ToText());
    if (valid.ok()) faults = sim::BuildFaultSchedule(topo, config);
    rep.layers["sim.fault_schedule_s"] = SecondsSince(t);
  }
  core::NetworkManager manager(topo, kEpsilon);
  core::AdmissionOptions admission;
  admission.survivability = survivable;
  manager.set_admission_options(admission);
  const std::unique_ptr<core::Allocator> dp =
      core::MakeAllocatorByName("svc-dp");
  TimedAllocator timed(*dp);
  const core::Allocator& allocator = traced ? timed : *dp;
  rep.setup_s = SecondsSince(setup_start);

  rep.offered = static_cast<int64_t>(jobs.size());
  rep.sizes["tenants"] = static_cast<double>(jobs.size());
  rep.sizes["fault_events"] = static_cast<double>(faults.size());
  rep.sizes["threads"] = 1;
  rep.layers["workload.jobs"] = static_cast<double>(jobs.size());
  rep.layers["sim.fault_events"] = static_cast<double>(faults.size());

  Digest digest;
  CallTimes plan, commit, release, fault, recovery;
  int64_t plan_ok = 0, switched = 0;
  double fault_alloc_s = 0;

  using Departure = std::pair<double, core::RequestId>;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures;
  // Tenants a fault evicted: their scheduled departure is dropped.
  std::unordered_set<core::RequestId> evicted;
  size_t next_fault = 0;
  double last_event = 0;
  // The trace's first compute-time maximum fills the fabric from empty.  It
  // runs untimed as part of set-up, so the measured replay starts from a
  // loaded fabric rather than from whichever tenants happened to arrive
  // first.
  const double warmup_s = TenantMix(options.fabric, 0).compute_time_hi;
  bool measuring = false;
  double measured_from = 0;

  auto depart = [&](core::RequestId id) {
    if (evicted.erase(id) > 0) return;
    ++rep.attempted;
    if (!manager.IsLive(id)) {
      Fail(rep, "release of unknown request id " + std::to_string(id));
      return;
    }
    const Clock::time_point start = Clock::now();
    manager.Release(id);
    if (!measuring) return;
    const double micros = MicrosSince(start);
    rep.op_us.push_back(micros);
    if (traced) release.Add(micros);
  };

  auto apply_fault = [&](const sim::FaultEvent& event) {
    ++rep.attempted;
    if (!event.fail) {
      const Clock::time_point start = Clock::now();
      const util::Status status = manager.HandleRecovery(event.vertex);
      const double micros = MicrosSince(start);
      if (!status.ok()) Fail(rep, "recovery: " + status.ToText());
      if (!measuring) return;
      rep.op_us.push_back(micros);
      if (traced) recovery.Add(micros);
      return;
    }
    const double alloc_before = traced ? timed.BusySeconds() : 0;
    const Clock::time_point start = Clock::now();
    util::Result<core::FaultOutcome> outcome = manager.HandleFault(
        event.kind, event.vertex, core::RecoveryPolicy::kSwitchover,
        measuring ? allocator : *dp);
    const double micros = MicrosSince(start);
    if (measuring) {
      rep.fault_us.push_back(micros);
      rep.op_us.push_back(micros);
    }
    if (traced && measuring) {
      fault.Add(micros);
      fault_alloc_s += timed.BusySeconds() - alloc_before;
    }
    if (!outcome.ok()) {
      Fail(rep, "fault: " + outcome.status().ToText());
      return;
    }
    digest.Add(static_cast<uint64_t>(event.vertex));
    rep.stranded += static_cast<int64_t>(outcome->tenants.size());
    switched += outcome->switched();
    for (const core::TenantOutcome& tenant : outcome->tenants) {
      digest.Add(static_cast<uint64_t>(tenant.id));
      digest.Add(static_cast<uint64_t>(tenant.evict_reason) * 4 +
                 tenant.switched_over * 2 + tenant.recovered);
      if (tenant.evict_reason == core::EvictReason::kNone) continue;
      ++rep.evicted;
      evicted.insert(tenant.id);
      Check(rep, !manager.IsLive(tenant.id), "evicted tenant is gone");
    }
  };

  // Applies departures and fault events due at or before `until`, in time
  // order (departures first on ties).
  auto advance = [&](double until) {
    for (;;) {
      const double dep = departures.empty() ? kInf : departures.top().first;
      const double flt =
          next_fault < faults.size() ? faults[next_fault].time : kInf;
      const double next = std::min(dep, flt);
      if (next > until || next == kInf) return;
      last_event = next;
      if (dep <= flt) {
        const core::RequestId id = departures.top().second;
        departures.pop();
        depart(id);
      } else {
        apply_fault(faults[next_fault++]);
      }
    }
  };

  auto admit = [&](const core::Request& request) {
    if (!traced || !measuring) return manager.Admit(request, *dp);
    util::Result<core::Placement> decision =
        allocator.Allocate(request, manager.ledger(), manager.slots());
    if (decision.ok() && survivable && !decision->survivable()) {
      const Clock::time_point start = Clock::now();
      decision = core::PlanBackup(topo, request, std::move(*decision),
                                  manager.ledger(), manager.slots());
      plan.Add(MicrosSince(start));
      plan_ok += decision.ok();
    }
    if (!decision.ok()) return decision;
    const Clock::time_point start = Clock::now();
    util::Result<core::Placement> committed =
        manager.AdmitPlacement(request, std::move(*decision));
    commit.Add(MicrosSince(start));
    if (committed.ok()) return committed;
    // Admit reports a placement that fails re-validation this way.
    return util::Result<core::Placement>(util::ErrorCode::kFailedPrecondition,
                                         committed.status().message());
  };

  Clock::time_point replay_start = Clock::now();
  for (const workload::JobSpec& job : jobs) {
    advance(job.arrival_time);
    last_event = job.arrival_time;
    if (!measuring && job.arrival_time >= warmup_s) {
      measuring = true;
      measured_from = job.arrival_time;
      rep.setup_s = SecondsSince(setup_start);
      replay_start = Clock::now();
    }
    const core::Request request =
        workload::MakeRequest(job, workload::Abstraction::kSvc);
    const Clock::time_point start = Clock::now();
    const util::Result<core::Placement> decision = admit(request);
    const double micros = MicrosSince(start);
    if (measuring) {
      rep.admit_us.push_back(micros);
      rep.op_us.push_back(micros);
    }
    digest.AddDecision(request.id(), decision);
    CountDecision(rep, decision);
    if (decision.ok()) {
      departures.emplace(job.arrival_time + job.compute_time, request.id());
    }
  }
  advance(kInf);
  // The schedule ends at the last arrival; elements still down come back.
  while (!manager.Faults().empty()) {
    sim::FaultEvent recover;
    recover.vertex = manager.Faults().begin()->first;
    recover.fail = false;
    apply_fault(recover);
    if (manager.IsFailed(recover.vertex)) break;
  }
  rep.replay_s = SecondsSince(replay_start);
  rep.sim_seconds = last_event - measured_from;
  rep.digest = digest.value();

  Check(rep, measuring, "the trace outlasts the warm-up");
  Check(rep, evicted.empty(), "every evicted tenant had a departure");
  Check(rep, manager.live_count() == 0, "every tenant departed");
  Check(rep, manager.Faults().empty(), "every fault recovered");
  Check(rep, manager.StateValid(), "StateValid() at the end");

  if (traced) {
    PutAllocatorLayer(timed, rep);
    rep.layers["svc.survivable.plan_calls"] = static_cast<double>(plan.calls);
    rep.layers["svc.survivable.plan_busy_s"] = plan.busy_s;
    rep.layers["svc.survivable.plan_p50_us"] = Percentile(plan.us, 0.50);
    rep.layers["svc.survivable.plan_p99_us"] = Percentile(plan.us, 0.99);
    rep.layers["svc.survivable.plan_ok_ratio"] =
        plan.calls == 0 ? 0 : static_cast<double>(plan_ok) / plan.calls;
    rep.layers["svc.manager.commit_calls"] = static_cast<double>(commit.calls);
    rep.layers["svc.manager.commit_busy_s"] = commit.busy_s;
    rep.layers["svc.manager.commit_p99_us"] = Percentile(commit.us, 0.99);
    rep.layers["svc.manager.release_calls"] =
        static_cast<double>(release.calls);
    rep.layers["svc.manager.release_busy_s"] = release.busy_s;
    rep.layers["svc.manager.release_p99_us"] = Percentile(release.us, 0.99);
    rep.layers["svc.fault.calls"] = static_cast<double>(fault.calls);
    rep.layers["svc.fault.busy_s"] = fault.busy_s;
    rep.layers["svc.fault.alloc_busy_s"] = fault_alloc_s;
    rep.layers["svc.fault.self_s"] = fault.busy_s - fault_alloc_s;
    rep.layers["svc.fault.tenants_affected"] =
        static_cast<double>(rep.stranded);
    rep.layers["svc.fault.tenants_switched"] = static_cast<double>(switched);
    rep.layers["svc.fault.tenants_evicted"] = static_cast<double>(rep.evicted);
    rep.layers["svc.recovery.calls"] = static_cast<double>(recovery.calls);
    rep.layers["svc.recovery.busy_s"] = recovery.busy_s;
  }
  return rep;
}

// --- flow_sim --------------------------------------------------------------

// One Engine::RunOnline over a fig7-style online SVC trace, outage measured,
// no faults.  The engine makes its admission calls internally, so the
// allocator is always wrapped in the timing decorator: its per-call times
// are this workload's admission latencies, in both traced and untraced
// repetitions (two clock reads per call of ~100 us).
Rep RunFlowSim(const RepOptions& options) {
  const Sizes sizes = SizesFor(options.workload, options.fabric);
  Rep rep;

  const Clock::time_point setup_start = Clock::now();
  Clock::time_point t = Clock::now();
  const topology::Topology topo =
      topology::BuildThreeTier(FabricConfig(options.fabric));
  rep.layers["topology.build_s"] = SecondsSince(t);
  t = Clock::now();
  std::vector<workload::JobSpec> jobs =
      OnlineTrace(options.fabric, sizes.tenants, sizes.load,
                  topo.total_slots(), options.seed);
  rep.layers["workload.generate_s"] = SecondsSince(t);
  const std::unique_ptr<core::Allocator> dp =
      core::MakeAllocatorByName("svc-dp");
  TimedAllocator timed(*dp);
  sim::SimConfig config;
  config.abstraction = workload::Abstraction::kSvc;
  config.epsilon = kEpsilon;
  config.allocator = &timed;
  config.seed = options.seed + 1;
  config.measure_outage = true;
  sim::Engine engine(topo, config);
  rep.setup_s = SecondsSince(setup_start);

  rep.offered = static_cast<int64_t>(jobs.size());
  rep.sizes["tenants"] = static_cast<double>(jobs.size());
  rep.sizes["threads"] = 1;
  rep.layers["workload.jobs"] = static_cast<double>(jobs.size());

  const Clock::time_point replay_start = Clock::now();
  const sim::OnlineResult result = engine.RunOnline(std::move(jobs));
  rep.replay_s = SecondsSince(replay_start);
  rep.op_us.push_back(rep.replay_s * 1e6);

  const TimedAllocator::Totals totals = timed.Collect();
  rep.admit_us = totals.call_us;
  rep.attempted += result.accepted + result.rejected;
  rep.rejected = result.rejected;
  rep.sim_seconds = result.simulated_seconds;
  rep.outage_rate = result.outage.OutageRate();

  std::vector<sim::JobRecord> done = result.jobs;
  std::sort(done.begin(), done.end(),
            [](const sim::JobRecord& a, const sim::JobRecord& b) {
              return a.id < b.id;
            });
  Digest digest;
  for (const sim::JobRecord& job : done) {
    digest.Add(static_cast<uint64_t>(job.id));
    digest.AddDouble(job.start_time);
    digest.AddDouble(job.finish_time);
  }
  digest.Add(static_cast<uint64_t>(result.accepted));
  digest.Add(static_cast<uint64_t>(result.rejected));
  digest.Add(static_cast<uint64_t>(result.outage.outage_link_seconds));
  digest.Add(static_cast<uint64_t>(result.outage.busy_link_seconds));
  rep.digest = digest.value();

  Check(rep, result.accepted + result.rejected == rep.offered,
        "every job decided once");
  Check(rep, static_cast<int64_t>(result.jobs.size()) == result.accepted,
        "every admitted job completed");
  Check(rep, totals.calls == rep.offered, "one allocator call per arrival");
  Check(rep, rep.outage_rate <= kEpsilon,
        "outage rate " + std::to_string(rep.outage_rate) + " <= epsilon");
  Check(rep, engine.manager().live_count() == 0, "every job released");
  Check(rep, engine.manager().StateValid(), "StateValid() at the end");

  rep.layers["sim.engine.run_s"] = rep.replay_s;
  rep.layers["sim.engine.alloc_busy_s"] = totals.busy_s;
  rep.layers["sim.engine.self_s"] = rep.replay_s - totals.busy_s;
  rep.layers["sim.engine.sim_seconds"] = result.simulated_seconds;
  rep.layers["sim.engine.jobs_done"] = static_cast<double>(result.jobs.size());
  if (options.traced) PutAllocatorLayer(timed, rep);
  return rep;
}

// --- admit_burst -----------------------------------------------------------

// Flash-crowd bursts of same-instant arrivals through
// AdmissionPipeline::AdmitBatch (deterministic discipline, commit shards)
// onto a fabric pre-loaded during set-up.  Admitted tenants join the
// background; between bursts the oldest tenants depart until the fabric is
// back at the pre-load occupancy, so every burst meets a loaded fabric in
// a different state.  A decision's latency runs from burst submission to
// its on_decision call.
Rep RunBurst(const RepOptions& options) {
  const Sizes sizes = SizesFor(options.workload, options.fabric);
  Rep rep;
  const bool traced = options.traced;
  // Speculation workers + shard commit workers + the caller <= nproc.  The
  // pipeline needs two workers to leave its serial path.
  const int shards = std::clamp((options.nproc - 1) / 3, 1, 5);
  const int workers = std::max(2, options.nproc - 1 - shards);

  const Clock::time_point setup_start = Clock::now();
  Clock::time_point t = Clock::now();
  const topology::Topology topo =
      topology::BuildThreeTier(FabricConfig(options.fabric));
  rep.layers["topology.build_s"] = SecondsSince(t);
  t = Clock::now();
  // Pre-load candidates first, then the bursts; twice the tenants the
  // pre-load fraction needs on average is plenty.
  const workload::WorkloadConfig mix = TenantMix(options.fabric, 0);
  const int preload_pool = static_cast<int>(
      2 * sizes.preload_fraction * topo.total_slots() / mix.mean_job_size);
  workload::WorkloadGenerator generator(
      TenantMix(options.fabric, preload_pool + sizes.tenants), options.seed);
  const std::vector<workload::JobSpec> jobs = generator.GenerateBatch();
  std::vector<std::vector<core::Request>> bursts(sizes.bursts);
  for (int b = 0; b < sizes.bursts; ++b) {
    for (int i = 0; i < sizes.burst_size; ++i) {
      bursts[b].push_back(workload::MakeRequest(
          jobs[preload_pool + b * sizes.burst_size + i],
          workload::Abstraction::kSvc));
    }
  }
  rep.layers["workload.generate_s"] = SecondsSince(t);
  core::NetworkManager manager(topo, kEpsilon);
  const std::unique_ptr<core::Allocator> dp =
      core::MakeAllocatorByName("svc-dp");
  const int busy_target = static_cast<int>(
      std::ceil(sizes.preload_fraction * topo.total_slots()));
  auto busy_slots = [&] {
    return topo.total_slots() - manager.slots().total_free();
  };
  std::deque<core::RequestId> background;  // live tenants, oldest first
  for (int i = 0; i < preload_pool && busy_slots() < busy_target; ++i) {
    const core::Request request =
        workload::MakeRequest(jobs[i], workload::Abstraction::kSvc);
    const util::Result<core::Placement> decision =
        manager.Admit(request, *dp);
    CountDecision(rep, decision);
    if (decision.ok()) background.push_back(request.id());
  }
  const int preloaded = static_cast<int>(background.size());
  // Pre-load rejections are set-up, not burst outcomes.
  rep.rejected = 0;
  TimedAllocator timed(*dp);
  const core::Allocator& allocator = traced ? timed : *dp;
  core::PipelineConfig pipeline_config;
  pipeline_config.workers = workers;
  pipeline_config.shards = shards;
  pipeline_config.deterministic = true;
  core::AdmissionPipeline pipeline(manager, pipeline_config);
  rep.setup_s = SecondsSince(setup_start);

  rep.offered = sizes.tenants;
  rep.sizes["tenants"] = sizes.tenants;
  rep.sizes["preloaded_tenants"] = preloaded;
  rep.sizes["burst_size"] = sizes.burst_size;
  rep.sizes["bursts"] = sizes.bursts;
  rep.sizes["workers"] = workers;
  rep.sizes["shards"] = pipeline.shard_workers();
  rep.sizes["threads"] = workers + pipeline.shard_workers() + 1;
  rep.layers["workload.jobs"] = static_cast<double>(jobs.size());

  Digest digest;
  CallTimes batch, release;
  const Clock::time_point replay_start = Clock::now();
  for (const std::vector<core::Request>& burst : bursts) {
    std::vector<double> latency(burst.size(), -1);
    size_t delivered = 0;
    const Clock::time_point start = Clock::now();
    const core::AdmissionPipeline::DecisionFn on_decision =
        [&](size_t index, util::Result<core::Placement>&) {
          latency[index] = MicrosSince(start);
          ++delivered;
        };
    const std::vector<util::Result<core::Placement>> decisions =
        pipeline.AdmitBatch(burst, allocator, /*stop_on_failure=*/false,
                            on_decision);
    if (traced) batch.Add(MicrosSince(start));
    Check(rep, decisions.size() == burst.size() && delivered == burst.size(),
          "one delivered decision per request");
    for (size_t i = 0; i < decisions.size(); ++i) {
      digest.AddDecision(burst[i].id(), decisions[i]);
      CountDecision(rep, decisions[i]);
      if (decisions[i].ok()) background.push_back(burst[i].id());
      if (latency[i] >= 0) rep.admit_us.push_back(latency[i]);
    }
    while (busy_slots() > busy_target && !background.empty()) {
      const core::RequestId id = background.front();
      background.pop_front();
      ++rep.attempted;
      if (!manager.IsLive(id)) {
        Fail(rep, "release of unknown request id " + std::to_string(id));
        continue;
      }
      const Clock::time_point release_start = Clock::now();
      manager.Release(id);
      if (traced) release.Add(MicrosSince(release_start));
    }
    rep.op_us.push_back(MicrosSince(start));
  }
  rep.replay_s = SecondsSince(replay_start);

  // committed and rejected are decisions, so every repetition must report
  // the same ones; the other PipelineStats count speculation work and
  // depend on thread timing.
  const core::PipelineStats& stats = pipeline.stats();
  digest.Add(static_cast<uint64_t>(stats.committed));
  digest.Add(static_cast<uint64_t>(stats.rejected));
  rep.digest = digest.value();
  Check(rep, stats.committed + stats.rejected == rep.offered,
        "pipeline stats count every decision");
  Check(rep, manager.live_count() == background.size(),
        "the background is exactly the live tenants");
  Check(rep, manager.StateValid(), "StateValid() at the end");

  if (traced) {
    PutAllocatorLayer(timed, rep);
    rep.layers["svc.pipeline.batch_calls"] = static_cast<double>(batch.calls);
    rep.layers["svc.pipeline.batch_busy_s"] = batch.busy_s;
    rep.layers["svc.pipeline.proposed"] = static_cast<double>(stats.proposed);
    rep.layers["svc.pipeline.conflicts"] =
        static_cast<double>(stats.conflicts);
    rep.layers["svc.pipeline.fallbacks"] =
        static_cast<double>(stats.fallbacks);
    rep.layers["svc.pipeline.shard_commits"] =
        static_cast<double>(stats.shard_commits);
    rep.layers["svc.pipeline.cross_shard_commits"] =
        static_cast<double>(stats.cross_shard_commits);
    // Decisions per allocator run the pipeline made: speculations plus the
    // serial re-runs of stale ones.
    rep.layers["svc.pipeline.useful_ratio"] =
        static_cast<double>(rep.offered) / (stats.proposed + stats.fallbacks);
    rep.layers["svc.pipeline.alloc_busy_s"] = timed.BusySeconds();
    rep.layers["svc.manager.release_calls"] =
        static_cast<double>(release.calls);
    rep.layers["svc.manager.release_busy_s"] = release.busy_s;
    rep.layers["svc.manager.release_p99_us"] = Percentile(release.us, 0.99);
  }
  return rep;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "admit_churn", "survivable_faults", "flow_sim", "admit_burst"};
  return names;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

Rep RunRep(const RepOptions& options) {
  if (options.workload == "admit_churn") return RunChurn(options, false);
  if (options.workload == "survivable_faults") return RunChurn(options, true);
  if (options.workload == "flow_sim") return RunFlowSim(options);
  return RunBurst(options);
}

}  // namespace perfbench
