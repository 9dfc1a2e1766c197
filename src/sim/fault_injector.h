// Seeded failure schedules for the simulator's fault plane.
//
// Random faults follow per-element renewal processes: each element draws
// alternating exponential up-times (mean MTBF) and down-times (mean MTTR)
// from its OWN rng seeded by ReplicaSeed(seed, vertex).  The per-element
// streams make the schedule independent of how many other elements churn —
// and, merged with a total (time, vertex, fail) order, bit-identical across
// runs and thread counts.  Scripted one-shot events ride on top for
// targeted drills.
#pragma once

#include <cstdint>
#include <vector>

#include "svc/manager.h"
#include "topology/topology.h"
#include "util/result.h"

namespace svc::sim {

// One scheduled fault-plane event, applied by Engine::RunOnline when
// simulated time reaches `time`.
struct FaultEvent {
  double time = 0;
  topology::VertexId vertex = topology::kNoVertex;
  core::FaultKind kind = core::FaultKind::kLink;
  bool fail = true;   // false = recovery
  // Planned drain (machine fail events only): migrate the machine's tenants
  // off — switchover preferred — BEFORE taking it down, so a covered drain
  // causes no outage.  The recovery event reopens the machine as usual.
  bool drain = false;
};

struct FaultConfig {
  // Mean up-time (seconds) before a machine / fabric-link failure; 0
  // disables that element class.  Fabric links are the uplinks of
  // non-machine vertices (a machine fault already takes its uplink down).
  double machine_mtbf_seconds = 0;
  double link_mtbf_seconds = 0;
  // Mean down-time; must be > 0 when either MTBF is set.
  double mttr_seconds = 0;
  // Random events are generated in [0, horizon_seconds).
  double horizon_seconds = 0;
  uint64_t seed = 1;
  core::RecoveryPolicy policy = core::RecoveryPolicy::kReallocate;
  // Scripted one-shot events, merged into the random schedule.
  std::vector<FaultEvent> scripted;

  bool enabled() const {
    return machine_mtbf_seconds > 0 || link_mtbf_seconds > 0 ||
           !scripted.empty();
  }
};

// Seed for element `index` of a schedule keyed by `base`: two rounds of
// SplitMix64 so that adjacent indices (and adjacent bases) give
// uncorrelated, platform-independent streams.  BuildFaultSchedule seeds
// each element's renewal process with ReplicaSeed(config.seed, vertex).
uint64_t ReplicaSeed(uint64_t base, uint64_t index);

// Validates a FaultConfig against a topology.  Errors (with messages naming
// the offending field/event) instead of silent misbehavior for: an MTBF set
// with mttr_seconds <= 0; negative rates or horizon; scripted events naming
// out-of-range or root vertices; machine-kind events on non-machine
// vertices; drains on non-machine or recovery events; and scripted
// recoveries for elements that never failed (no earlier-or-simultaneous
// scripted failure, and the element's random stream disabled).
util::Status ValidateFaultConfig(const topology::Topology& topo,
                                 const FaultConfig& config);

// Expands the config into one time-sorted schedule (ties broken by vertex,
// failures before recoveries).  Pure function of (topo, config): the same
// inputs yield the same bytes.  The config must pass ValidateFaultConfig.
std::vector<FaultEvent> BuildFaultSchedule(const topology::Topology& topo,
                                           const FaultConfig& config);

// --- Correlated failure scenarios (scripted multi-element groups) ---
//
// Each helper appends deterministic scripted events to `out`; merge order is
// irrelevant because BuildFaultSchedule re-sorts into the documented
// (time, vertex, fail) total order.  `outage_seconds <= 0` means the
// elements stay down for the rest of the run.

// Whole-rack power event: every machine under `rack` fails at `time` and
// (optionally) recovers together at time + outage_seconds.
void AppendRackPowerEvent(const topology::Topology& topo,
                          topology::VertexId rack, double time,
                          double outage_seconds, std::vector<FaultEvent>* out);

// ToR loss: the uplink of `rack` fails — machines below keep their
// intra-rack connectivity but lose the core.
void AppendTorLossEvent(topology::VertexId rack, double time,
                        double outage_seconds, std::vector<FaultEvent>* out);

// Planned drain: migrate tenants off `machine` at `time`, then take it
// down; recovery after outage_seconds reopens it.
void AppendPlannedDrain(topology::VertexId machine, double time,
                        double outage_seconds, std::vector<FaultEvent>* out);

}  // namespace svc::sim
