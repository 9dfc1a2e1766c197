// Empty-VM-slot bookkeeping per machine.
#pragma once

#include <vector>

#include "topology/topology.h"

namespace svc::core {

class SlotMap {
 public:
  explicit SlotMap(const topology::Topology& topo);

  // Free slots visible to placement: 0 while the machine is failed, so the
  // allocators (which only consult free_slots) avoid down machines with no
  // special-casing of their own.
  int free_slots(topology::VertexId machine) const {
    return failed_[machine] ? 0 : free_[machine];
  }
  int total_free() const { return total_free_; }

  bool machine_up(topology::VertexId machine) const {
    return !failed_[machine];
  }

  // Fault-plane state change.  A failed machine contributes 0 to both
  // free_slots and total_free; recovery restores whatever is genuinely
  // unoccupied (tenants released while the machine was down are accounted
  // for).  Idempotent.
  void SetMachineState(topology::VertexId machine, bool up);

  // Occupies `count` slots on `machine`; asserts availability (and that
  // the machine is up — a failed machine advertises 0 free slots).
  void Occupy(topology::VertexId machine, int count);

  // Releases `count` slots; asserts against over-release.  Legal on a
  // failed machine (a tenant stranded by the fault still releases its
  // slots); the freed slots become visible only after recovery.
  void Release(topology::VertexId machine, int count);

 private:
  const topology::Topology* topo_;
  std::vector<int> free_;      // unoccupied slots, ignoring fault state
  std::vector<char> failed_;   // fault-plane state; indexed by vertex id
  int total_free_ = 0;         // excludes failed machines
};

}  // namespace svc::core
