#include "svc/slot_map.h"

#include <cassert>

namespace svc::core {

SlotMap::SlotMap(const topology::Topology& topo) : topo_(&topo) {
  assert(topo.finalized());
  free_.resize(topo.num_vertices(), 0);
  failed_.resize(topo.num_vertices(), 0);
  for (topology::VertexId machine : topo.machines()) {
    free_[machine] = topo.vm_slots(machine);
    total_free_ += free_[machine];
  }
}

void SlotMap::SetMachineState(topology::VertexId machine, bool up) {
  assert(topo_->is_machine(machine));
  if (machine_up(machine) == up) return;
  if (up) {
    failed_[machine] = 0;
    total_free_ += free_[machine];
  } else {
    failed_[machine] = 1;
    total_free_ -= free_[machine];
  }
}

void SlotMap::Occupy(topology::VertexId machine, int count) {
  assert(count >= 0);
  assert(topo_->is_machine(machine));
  assert(!failed_[machine] && "occupying slots on a failed machine");
  assert(free_[machine] >= count && "occupying more slots than free");
  free_[machine] -= count;
  total_free_ -= count;
}

void SlotMap::Release(topology::VertexId machine, int count) {
  assert(count >= 0);
  assert(topo_->is_machine(machine));
  assert(free_[machine] + count <= topo_->vm_slots(machine) &&
         "releasing more slots than the machine has");
  free_[machine] += count;
  // A failed machine's free slots are invisible until recovery; its
  // total_free contribution is restored by SetMachineState(up).
  if (!failed_[machine]) total_free_ += count;
}

}  // namespace svc::core
