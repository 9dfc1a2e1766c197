#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/lognormal.h"
#include "svc/scratch_arena.h"
#include "svc/survivable.h"
#include "util/logging.h"

namespace svc::sim {

namespace {

// Simulated seconds per tick: the paper redraws every flow's rate once a
// second.
constexpr double kTimeStep = 1.0;

}  // namespace

Engine::Engine(const topology::Topology& topo, SimConfig config)
    : topo_(&topo),
      config_(config),
      manager_(topo, config.epsilon),
      empty_manager_(topo, config.epsilon),
      scratch_(topo.directed_cable_slots()),
      rng_(config.seed) {
  assert(config_.allocator != nullptr && "SimConfig.allocator is required");
  manager_.set_admission_options(config_.admission);
  empty_manager_.set_admission_options(config_.admission);
  // Full-duplex links, one capacity slot per cable and direction; on
  // untrunked fabrics each link simply has one cable per direction.
  topo.FillCableCapacities(capacity_);
}

core::Request Engine::MakeRequest(const workload::JobSpec& spec) const {
  return workload::MakeRequest(spec, config_.abstraction,
                               config_.vc_quantile);
}

bool Engine::UnallocatableEvenEmpty(const workload::JobSpec& spec) {
  const core::Request request = MakeRequest(spec);
  util::Result<core::Placement> placed = config_.allocator->Allocate(
      request, empty_manager_.ledger(), empty_manager_.slots());
  if (!placed) return true;
  if (config_.admission.survivability) {
    // Survivable admission also needs a backup group; a job whose backup
    // cannot fit even in an empty datacenter can never be admitted either.
    return !core::PlanBackup(*topo_, request, *std::move(placed),
                             empty_manager_.ledger(), empty_manager_.slots())
                .ok();
  }
  return false;
}

bool Engine::TryStart(const workload::JobSpec& spec, double now) {
  util::Result<core::Placement> result =
      manager_.Admit(MakeRequest(spec), *config_.allocator);
  if (!result) {
    if (result.status().code() == util::ErrorCode::kFailedPrecondition) {
      // An allocator bug, not a capacity condition — fail loudly.  The
      // flight-recorder dump is latched and taken at the next quiesced
      // point of the run loop.
      SVC_LOG(Error) << "admission inconsistency: " << result.status().ToText();
      char detail[96];
      std::snprintf(detail, sizeof detail, "job=%lld",
                    static_cast<long long>(spec.id));
      obs::FlightRecorder::Global().LatchTrigger("admission-inconsistency",
                                                 detail);
    }
    return false;
  }
  core::Placement& placement = *result;
  if (placement.subtree_root != topology::kNoVertex) {
    result_.placement_levels.push_back(topo_->level(placement.subtree_root));
  }

  ActiveJob job;
  job.spec = spec;
  job.start_time = now;
  job.compute_done = now + spec.compute_time;
  job.last_flow_finish = now;
  const double cap = workload::RateCap(spec, config_.abstraction, config_.vc_quantile);

  // One flow per task; every task is a source and a destination for exactly
  // one flow (paper's workload model), i.e. dst is a fixed-point-free
  // permutation of the tasks: a random derangement.  Links are full-duplex:
  // per direction, a link that splits the job m / N-m carries about
  // m*(N-m)/(N-1) * mu, between half of the hose-model demand
  // min(m, N-m)*mu the SVC reservation is based on (at an even split) and
  // all of it (when m << N).  Only the two directions combined,
  // 2*m*(N-m)/(N-1) * mu, reach the hose demand, and only at an even split.
  if (spec.size > 1) {
    // Shuffle, then use the cyclic structure of the shuffled order (i ->
    // next in shuffled sequence), which has no fixed points and is exactly
    // one big cycle over a random order.
    std::vector<int> order(spec.size);
    for (int i = 0; i < spec.size; ++i) order[i] = i;
    for (int i = spec.size - 1; i > 0; --i) {
      const int j = static_cast<int>(rng_.UniformInt(0, i));
      std::swap(order[i], order[j]);
    }
    std::vector<int> dst_of(spec.size);
    for (int i = 0; i < spec.size; ++i) {
      dst_of[order[i]] = order[(i + 1) % spec.size];
    }
    for (int i = 0; i < spec.size; ++i) {
      const topology::VertexId src = placement.vm_machine[i];
      const topology::VertexId dst = placement.vm_machine[dst_of[i]];
      SimFlow flow;
      // Per-flow ECMP: one hash pins the flow to a cable on every trunk.
      const uint64_t ecmp_hash = rng_.NextU64();
      topo_->PathCablesDirected(src, dst, ecmp_hash, flow.links);
      flows_.push_back(std::move(flow));
      // Heterogeneous jobs: the source task's own distribution drives the
      // per-second generation-rate draws.
      const double rate_mean = spec.vm_demands.empty()
                                   ? spec.rate_mean
                                   : spec.vm_demands[i].mean;
      const double rate_stddev = spec.vm_demands.empty()
                                     ? spec.rate_stddev
                                     : spec.vm_demands[i].stddev();
      FlowMeta meta{spec.id, spec.flow_mbits, rate_mean, rate_stddev, cap,
                    enforce::TokenBucket{0, 0}};
      if (config_.enforcement == Enforcement::kTokenBucket &&
          std::isfinite(cap)) {
        meta.bucket = enforce::TokenBucket(cap, cap * config_.burst_seconds);
      }
      meta.src_vm = i;
      meta.dst_vm = dst_of[i];
      meta.ecmp_hash = ecmp_hash;
      meta.distribution = spec.rate_distribution;
      if (meta.distribution == workload::RateDistribution::kLogNormal &&
          rate_stddev > 0 && rate_mean > 0) {
        const stats::LogNormal lognormal = stats::LogNormal::FromMeanVariance(
            rate_mean, rate_stddev * rate_stddev);
        meta.log_mu = lognormal.mu_log();
        meta.log_sigma = lognormal.sigma_log();
      } else {
        meta.distribution = workload::RateDistribution::kNormal;
      }
      meta_.push_back(std::move(meta));
      ++job.flows_left;
    }
    flows_dirty_ = true;
  }
  active_.emplace(spec.id, std::move(job));
  // The manager keeps its own copy of the placement; hand this one's
  // buffer back to the allocator's recycling pool.
  core::RecycleVmBuffer(std::move(placement.vm_machine));
  return true;
}

void Engine::CheckIncrementalRates() {
  // Progressive filling over every loaded link, on a copy of the flows: the
  // rates this tick uses (solved over the contended links, or kept from the
  // last solve on a steady tick) must agree bit for bit.
  check_flows_ = flows_;
  MaxMinScratch unfiltered(static_cast<int>(capacity_.size()));
  unfiltered.AllocateUnfiltered(check_flows_, capacity_);
  for (size_t f = 0; f < flows_.size(); ++f) {
    if (flows_[f].rate != check_flows_[f].rate) {
      SVC_LOG(Error) << "max-min mismatch on flow " << f << ": "
                     << flows_[f].rate << " vs unfiltered "
                     << check_flows_[f].rate;
      assert(false && "max-min rates diverged from the unfiltered solve");
    }
  }
}

void Engine::AppendSeriesSample(double now) {
  const int64_t busy = cached_busy_links_;
  const double util_mean =
      busy > 0 ? cached_util_sum_ / static_cast<double>(busy) : 0.0;
  char line[320];
  std::snprintf(
      line, sizeof line,
      "{\"type\":\"sample\",\"t\":%.17g,\"seed\":%llu,\"active_jobs\":%zu,"
      "\"flows\":%zu,\"busy_links\":%lld,\"outage_links\":%lld,"
      "\"util_mean\":%.17g,\"util_max\":%.17g,\"max_occupancy\":%.17g}",
      now, static_cast<unsigned long long>(config_.seed), active_.size(),
      flows_.size(), static_cast<long long>(busy),
      static_cast<long long>(cached_outage_links_), util_mean,
      cached_util_max_, manager_.MaxOccupancy());
  config_.series->Append(line);
}

void Engine::Step(double now, std::vector<JobRecord>& completed) {
  SVC_TRACE_SPAN("engine/step");
  const double dt = kTimeStep;
  const double end = now + dt;

  // Redraw per-source generation rates and apply hypervisor rate limiting.
  // The draws happen every tick (the RNG stream must not depend on the
  // fast path below), but a bit-identical redraw — common under hard-cap
  // enforcement of deterministic reservations, where the cap binds — means
  // the previous max-min solution is still exact.
  const bool token_bucket =
      config_.enforcement == Enforcement::kTokenBucket;
  bool desires_changed = false;
  for (size_t f = 0; f < flows_.size(); ++f) {
    FlowMeta& m = meta_[f];
    const double draw =
        m.distribution == workload::RateDistribution::kLogNormal
            ? std::exp(rng_.Normal(m.log_mu, m.log_sigma))
            : std::max(0.0, rng_.Normal(m.rate_mean, m.rate_stddev));
    double desired;
    if (token_bucket && std::isfinite(m.rate_cap)) {
      desired = m.bucket.Admit(draw, dt);
    } else {
      desired = std::min(draw, m.rate_cap);
    }
    if (desired != flows_[f].desired) {
      flows_[f].desired = desired;
      desires_changed = true;
    }
  }

  // Steady state: same flows, same desires — the offered loads, the outage
  // verdicts, and the max-min rates of the previous tick all still hold.
  const bool steady = !flows_dirty_ && !desires_changed;
  if (steady) {
    SVC_METRIC_INC("engine/steady_ticks");
  } else {
    SVC_METRIC_INC("engine/solve_ticks");
    scratch_.Allocate(flows_, capacity_);
    // Census of the loaded links from the solver's offered-load sums.  A
    // bandwidth outage (paper constraint (1)) is a loaded link whose
    // offered demand exceeds its capacity this second.
    const bool metrics = obs::MetricsEnabled();
    const bool want_util = metrics || config_.series != nullptr;
    const std::span<const int32_t> links = scratch_.loaded_links();
    const std::span<const double> load = scratch_.offered_load();
    cached_busy_links_ = static_cast<int64_t>(links.size());
    cached_outage_links_ = 0;
    cached_util_sum_ = 0;
    cached_util_max_ = 0;
    for (size_t i = 0; i < links.size(); ++i) {
      const double capacity = capacity_[links[i]];
      if (load[i] > capacity * (1 + 1e-9)) ++cached_outage_links_;
      // Offered utilization of the loaded link this second (may exceed 1
      // when the link is in outage; max-min then throttles the flows).
      if (want_util && capacity > 0) {
        const double util = load[i] / capacity;
        cached_util_sum_ += util;
        cached_util_max_ = std::max(cached_util_max_, util);
        if (metrics) {
          SVC_METRIC_HIST("engine/link_utilization", util);
        }
      }
    }
  }

  result_.outage.busy_link_seconds += cached_busy_links_;
  result_.outage.outage_link_seconds += cached_outage_links_;
  // Epoch split: ticks with any element down are charged to the failure
  // bucket too, so steady-epoch outage (where epsilon must still hold) can
  // be reported separately from outage caused by the faults themselves.
  if (failure_epoch_) {
    result_.failure_outage.busy_link_seconds += cached_busy_links_;
    result_.failure_outage.outage_link_seconds += cached_outage_links_;
  }

  SVC_METRIC_GAUGE_SET("engine/flows", static_cast<double>(flows_.size()));
  if (config_.series != nullptr && now >= next_sample_time_) {
    next_sample_time_ = now + config_.series_period;
    AppendSeriesSample(now);
  }
  if (config_.check_incremental) CheckIncrementalRates();
  flows_dirty_ = false;

  // Progress transfers; swap-erase finished flows.
  for (size_t f = 0; f < flows_.size();) {
    meta_[f].remaining_mbits -= flows_[f].rate * dt;
    if (meta_[f].remaining_mbits <= 1e-9) {
      ActiveJob& job = active_.at(meta_[f].job_id);
      --job.flows_left;
      job.last_flow_finish = end;
      flows_[f] = std::move(flows_.back());
      flows_.pop_back();
      meta_[f] = meta_.back();
      meta_.pop_back();
      flows_dirty_ = true;
    } else {
      ++f;
    }
  }

  // Completions: network done and compute done.
  for (auto it = active_.begin(); it != active_.end();) {
    const ActiveJob& job = it->second;
    if (job.flows_left == 0 && end >= job.compute_done - 1e-9) {
      completed.push_back({.id = it->first,
                           .arrival_time = job.spec.arrival_time,
                           .start_time = job.start_time,
                           .finish_time = end});
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void Engine::SetUplinkCables(topology::VertexId vertex, bool up) {
  const int width = topo_->trunk_width(vertex);
  const double cap = up ? topo_->cable_capacity(vertex) : 0.0;
  for (int cable = 0; cable < width; ++cable) {
    capacity_[topo_->DirectedCableSlot(vertex, true, cable)] = cap;
    capacity_[topo_->DirectedCableSlot(vertex, false, cable)] = cap;
  }
}

void Engine::EvictJob(int64_t job_id) {
  for (size_t f = 0; f < flows_.size();) {
    if (meta_[f].job_id == job_id) {
      flows_[f] = std::move(flows_.back());
      flows_.pop_back();
      meta_[f] = meta_.back();
      meta_.pop_back();
    } else {
      ++f;
    }
  }
  active_.erase(job_id);
}

void Engine::RepathJob(int64_t job_id) {
  const core::Placement* placement = manager_.placement_of(job_id);
  assert(placement != nullptr);
  // Re-path the tenant's flows onto the current placement with their
  // original ECMP hashes: no fresh RNG draws, so the seed stream (and
  // everything downstream) is fault-schedule-stable.
  for (size_t f = 0; f < flows_.size(); ++f) {
    if (meta_[f].job_id != job_id) continue;
    flows_[f].links.clear();
    topo_->PathCablesDirected(placement->vm_machine[meta_[f].src_vm],
                              placement->vm_machine[meta_[f].dst_vm],
                              meta_[f].ecmp_hash, flows_[f].links);
  }
}

bool Engine::ApplyFaultEvents(double now) {
  bool applied = false;
  while (next_fault_ < fault_schedule_.size() &&
         fault_schedule_[next_fault_].time <= now) {
    const FaultEvent event = fault_schedule_[next_fault_++];
    if (event.fail && event.drain) {
      // Planned drain: migrate the machine's tenants off (switchover
      // preferred) BEFORE the teardown below takes it down.  Tenants the
      // drain could not move are restored in place and handled reactively
      // by the machine failure that follows.
      util::Result<core::FaultOutcome> drained =
          manager_.DrainMachine(event.vertex, *config_.allocator);
      if (drained) {
        ++result_.planned_drains;
        for (const core::TenantOutcome& tenant : drained->tenants) {
          if (!tenant.recovered) continue;
          ++result_.tenants_migrated;
          if (tenant.switched_over) ++result_.tenants_switched;
          RepathJob(tenant.id);
        }
        if (!drained->tenants.empty()) flows_dirty_ = true;
      } else {
        SVC_LOG(Warning) << "drain event at t=" << event.time
                         << " skipped: " << drained.status().ToText();
      }
    }
    if (event.fail) {
      const auto start = std::chrono::steady_clock::now();
      util::Result<core::FaultOutcome> outcome = manager_.HandleFault(
          event.kind, event.vertex, config_.faults.policy,
          *config_.allocator);
      if (!outcome) {
        // Scripted schedules may name an element the random schedule
        // already took down; skipping keeps the run going.
        SVC_LOG(Warning) << "fault event at t=" << event.time
                         << " skipped: " << outcome.status().ToText();
        continue;
      }
      result_.recovery_latency_us.push_back(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count());
      ++result_.faults_injected;
      result_.tenants_affected +=
          static_cast<int64_t>(outcome->tenants.size());
      SetUplinkCables(event.vertex, false);
      for (const core::TenantOutcome& tenant : outcome->tenants) {
        if (tenant.recovered) {
          ++result_.tenants_recovered;
          if (tenant.switched_over) ++result_.tenants_switched;
          RepathJob(tenant.id);
        } else {
          ++result_.tenants_evicted;
          EvictJob(tenant.id);
        }
      }
    } else {
      const util::Status status = manager_.HandleRecovery(event.vertex);
      if (!status.ok()) {
        SVC_LOG(Warning) << "recovery event at t=" << event.time
                         << " skipped: " << status.ToText();
        continue;
      }
      ++result_.fault_recoveries;
      SetUplinkCables(event.vertex, true);
    }
    // Any applied event changes link capacities: invalidate the cached
    // max-min solution (the steady fast path must not replay stale rates)
    // and re-evaluate which epoch the following ticks belong to.
    applied = true;
    flows_dirty_ = true;
    failure_epoch_ = !manager_.Faults().empty();
  }
  return applied;
}

RunResult Engine::RunBatch(std::vector<workload::JobSpec> jobs) {
  // Every job is queued at t = 0, in the given order.
  for (workload::JobSpec& job : jobs) job.arrival_time = 0;
  return Run(jobs, Misfit::kWait);
}

RunResult Engine::RunOnline(std::vector<workload::JobSpec> jobs) {
  std::sort(jobs.begin(), jobs.end(),
            [](const auto& lhs, const auto& rhs) {
              return lhs.arrival_time < rhs.arrival_time;
            });
  return Run(jobs, Misfit::kReject);
}

RunResult Engine::Run(const std::vector<workload::JobSpec>& jobs,
                      Misfit misfit) {
  result_ = RunResult{};
  if (config_.faults.enabled()) {
    FaultConfig faults = config_.faults;
    if (faults.horizon_seconds <= 0) {
      faults.horizon_seconds = config_.max_seconds;
    }
    fault_schedule_ = BuildFaultSchedule(*topo_, faults);
  }
  next_fault_ = 0;
  failure_epoch_ = false;

  // jobs[0, decided) are decided; jobs[decided, offered) have arrived and
  // wait in the FIFO (only under kWait does it outlast the instant).
  size_t decided = 0;
  size_t offered = 0;
  bool retry = false;  // may the FIFO head fit now?
  double now = 0;
  std::vector<JobRecord> completed;
  while (decided < jobs.size() || !active_.empty()) {
    if (now >= config_.max_seconds) {
      SVC_LOG(Error) << "simulation hit the max_seconds safety stop at "
                     << now;
      break;
    }
    // Faults precede admissions at the same instant: a job decided at the
    // fault time already sees the degraded datacenter.
    if (ApplyFaultEvents(now)) retry = true;
    for (; offered < jobs.size() && jobs[offered].arrival_time <= now;
         ++offered) {
      retry = true;
    }
    for (; retry && decided < offered; ++decided) {
      const workload::JobSpec& spec = jobs[decided];
      if (TryStart(spec, now)) {
        ++result_.accepted;
      } else if (misfit == Misfit::kReject) {
        ++result_.rejected;
      } else if (UnallocatableEvenEmpty(spec)) {
        // The head job cannot fit even in an empty datacenter; skip it
        // immediately so it neither deadlocks the batch nor stalls the
        // FIFO queue until the fabric drains.
        SVC_LOG(Debug) << "job " << spec.id
                       << " unallocatable on an empty datacenter; skipped";
        ++result_.unallocatable_jobs;
      } else {
        break;  // strict FIFO: wait for a completion or a fault event
      }
      if (misfit == Misfit::kReject) {
        // The samples the paper takes at every arrival.
        result_.concurrency_samples.push_back(
            static_cast<int>(active_.size()));
        result_.max_occupancy_samples.push_back(manager_.MaxOccupancy());
        if (config_.admission.survivability) {
          result_.backup_share_samples.push_back(
              manager_.ledger().MaxBackupShare());
        }
      }
    }
    retry = false;
    // The admission group settled, so a latched inconsistency dumps here
    // between admissions.
    obs::FlightRecorder::Global().MaybeTriggerPending();
    if (active_.empty()) {
      // Idle: jump to the next arrival instead of stepping through empty
      // seconds.  A job waiting in the FIFO with nothing running can only
      // be helped by a scheduled recovery, so jump to the next fault event.
      if (offered < jobs.size()) {
        now = std::max(now, jobs[offered].arrival_time);
      } else if (decided < jobs.size() &&
                 next_fault_ < fault_schedule_.size()) {
        now = std::max(now, fault_schedule_[next_fault_].time);
        retry = true;
      } else {
        break;
      }
      continue;
    }
    completed.clear();
    Step(now, completed);
    now += kTimeStep;
    for (const JobRecord& record : completed) {
      manager_.Release(record.id);
      result_.jobs.push_back(record);
      result_.total_completion_time = now;
      retry = true;
    }
  }
  obs::FlightRecorder::Global().MaybeTriggerPending();
  result_.simulated_seconds = now;
  return std::move(result_);
}

}  // namespace svc::sim
