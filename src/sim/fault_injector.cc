#include "sim/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "stats/rng.h"

namespace svc::sim {

uint64_t ReplicaSeed(uint64_t base, uint64_t index) {
  // SplitMix64 finalizer (Steele, Lea & Flood), applied to base + index and
  // then once more so sequential indices diverge in every bit.
  auto mix = [](uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  return mix(mix(base) + index);
}

namespace {

std::string Num(double v) {
  std::string s = std::to_string(v);
  // Trim trailing zeros for readable error messages (std::to_string pads to
  // six decimals).
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

// True when the element named by a scripted event also has a random renewal
// stream under this config, i.e. it can fail even without a scripted
// failure.
bool HasRandomStream(const topology::Topology& topo, const FaultConfig& config,
                     const FaultEvent& e) {
  if (e.kind == core::FaultKind::kMachine) {
    return config.machine_mtbf_seconds > 0;
  }
  // Random link faults are only generated for non-machine, non-root
  // vertices (machine faults cover machine uplinks).
  return config.link_mtbf_seconds > 0 && e.vertex != topo.root() &&
         !topo.is_machine(e.vertex);
}

// Alternating up/down renewal process for one element, emitted until the
// horizon.  A failure whose repair would land past the horizon still gets
// its recovery event dropped — the element simply stays down to the end.
void EmitElementEvents(topology::VertexId vertex, core::FaultKind kind,
                       double mtbf, double mttr, uint64_t seed, double horizon,
                       std::vector<FaultEvent>& out) {
  stats::Rng rng(ReplicaSeed(seed, static_cast<uint64_t>(vertex)));
  double t = rng.Exponential(mtbf);
  while (t < horizon) {
    out.push_back({t, vertex, kind, /*fail=*/true});
    const double repair = t + rng.Exponential(mttr);
    if (repair >= horizon) break;
    out.push_back({repair, vertex, kind, /*fail=*/false});
    t = repair + rng.Exponential(mtbf);
  }
}

}  // namespace

util::Status ValidateFaultConfig(const topology::Topology& topo,
                                 const FaultConfig& config) {
  if (config.machine_mtbf_seconds < 0 || config.link_mtbf_seconds < 0) {
    return {util::ErrorCode::kInvalidArgument,
            "MTBF must be >= 0 (machine_mtbf_seconds=" +
                Num(config.machine_mtbf_seconds) + ", link_mtbf_seconds=" +
                Num(config.link_mtbf_seconds) + ")"};
  }
  if ((config.machine_mtbf_seconds > 0 || config.link_mtbf_seconds > 0) &&
      config.mttr_seconds <= 0) {
    return {util::ErrorCode::kInvalidArgument,
            "mttr_seconds must be > 0 when an MTBF is set (mttr_seconds=" +
                Num(config.mttr_seconds) + ")"};
  }
  if (config.horizon_seconds < 0) {
    return {util::ErrorCode::kInvalidArgument,
            "horizon_seconds must be >= 0 (got " +
                Num(config.horizon_seconds) + ")"};
  }
  for (size_t i = 0; i < config.scripted.size(); ++i) {
    const FaultEvent& e = config.scripted[i];
    const std::string where = "scripted event " + std::to_string(i);
    if (e.vertex <= topo.root() || e.vertex >= topo.num_vertices()) {
      return {util::ErrorCode::kInvalidArgument,
              where + " names invalid vertex " + std::to_string(e.vertex) +
                  " (must be a non-root vertex < " +
                  std::to_string(topo.num_vertices()) + ")"};
    }
    if (e.kind == core::FaultKind::kMachine && !topo.is_machine(e.vertex)) {
      return {util::ErrorCode::kInvalidArgument,
              where + " is a machine fault on non-machine vertex " +
                  std::to_string(e.vertex)};
    }
    if (e.drain && (e.kind != core::FaultKind::kMachine || !e.fail)) {
      return {util::ErrorCode::kInvalidArgument,
              where + " sets drain on a " +
                  (e.fail ? std::string("link event")
                          : std::string("recovery event")) +
                  "; drains only apply to machine failures"};
    }
    if (!e.fail && !HasRandomStream(topo, config, e)) {
      // A recovery only makes sense for an element that failed: require an
      // earlier-or-simultaneous scripted failure of the same element (the
      // tie case is legal because failures sort before recoveries).
      bool failed_before = false;
      for (const FaultEvent& f : config.scripted) {
        if (f.fail && f.vertex == e.vertex && f.kind == e.kind &&
            f.time <= e.time) {
          failed_before = true;
          break;
        }
      }
      if (!failed_before) {
        return {util::ErrorCode::kInvalidArgument,
                where + " is a scripted recovery for vertex " +
                    std::to_string(e.vertex) + " which never failed"};
      }
    }
  }
  return util::Status::Ok();
}

std::vector<FaultEvent> BuildFaultSchedule(const topology::Topology& topo,
                                           const FaultConfig& config) {
  const util::Status valid = ValidateFaultConfig(topo, config);
  if (!valid.ok()) {
    assert(false && "invalid FaultConfig passed to BuildFaultSchedule");
    return {};
  }
  std::vector<FaultEvent> schedule;
  if (config.machine_mtbf_seconds > 0) {
    for (topology::VertexId machine : topo.machines()) {
      EmitElementEvents(machine, core::FaultKind::kMachine,
                        config.machine_mtbf_seconds, config.mttr_seconds,
                        config.seed, config.horizon_seconds, schedule);
    }
  }
  if (config.link_mtbf_seconds > 0) {
    for (topology::VertexId v = 1; v < topo.num_vertices(); ++v) {
      if (topo.is_machine(v)) continue;  // machine faults cover their uplinks
      EmitElementEvents(v, core::FaultKind::kLink, config.link_mtbf_seconds,
                        config.mttr_seconds, config.seed,
                        config.horizon_seconds, schedule);
    }
  }
  schedule.insert(schedule.end(), config.scripted.begin(),
                  config.scripted.end());
  // Total order: ties between elements at one instant resolve by vertex id,
  // and a same-vertex fail sorts before its recovery.  This is what makes
  // the merged schedule (and everything downstream) replayable.
  std::sort(schedule.begin(), schedule.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.vertex != b.vertex) return a.vertex < b.vertex;
              return a.fail > b.fail;
            });
  return schedule;
}

void AppendRackPowerEvent(const topology::Topology& topo,
                          topology::VertexId rack, double time,
                          double outage_seconds,
                          std::vector<FaultEvent>* out) {
  for (topology::VertexId m : topo.MachinesUnder(rack)) {
    out->push_back({time, m, core::FaultKind::kMachine, /*fail=*/true});
    if (outage_seconds > 0) {
      out->push_back(
          {time + outage_seconds, m, core::FaultKind::kMachine,
           /*fail=*/false});
    }
  }
}

void AppendTorLossEvent(topology::VertexId rack, double time,
                        double outage_seconds, std::vector<FaultEvent>* out) {
  out->push_back({time, rack, core::FaultKind::kLink, /*fail=*/true});
  if (outage_seconds > 0) {
    out->push_back(
        {time + outage_seconds, rack, core::FaultKind::kLink, /*fail=*/false});
  }
}

void AppendPlannedDrain(topology::VertexId machine, double time,
                        double outage_seconds, std::vector<FaultEvent>* out) {
  out->push_back({time, machine, core::FaultKind::kMachine, /*fail=*/true,
                  /*drain=*/true});
  if (outage_seconds > 0) {
    out->push_back({time + outage_seconds, machine, core::FaultKind::kMachine,
                    /*fail=*/false});
  }
}

}  // namespace svc::sim
