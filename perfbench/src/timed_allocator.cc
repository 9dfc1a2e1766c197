#include "timed_allocator.h"

#include <atomic>
#include <chrono>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_id{1};

}  // namespace

TimedAllocator::TimedAllocator(const svc::core::Allocator& inner)
    : inner_(inner), id_(g_next_id.fetch_add(1)) {}

TimedAllocator::Slot& TimedAllocator::LocalSlot() const {
  // One cached (decorator id, slot) pair per thread.  Ids are never reused,
  // so a cache entry left by a destroyed decorator can never match.
  thread_local uint64_t cached_id = 0;
  thread_local Slot* cached_slot = nullptr;
  if (cached_id != id_) {
    std::lock_guard<std::mutex> lock(slots_mu_);
    slots_.push_back(std::make_unique<Slot>());
    cached_slot = slots_.back().get();
    cached_id = id_;
  }
  return *cached_slot;
}

svc::util::Result<svc::core::Placement> TimedAllocator::Allocate(
    const svc::core::Request& request, const svc::net::LinkLedger& ledger,
    const svc::core::SlotMap& slots) const {
  const auto start = std::chrono::steady_clock::now();
  svc::util::Result<svc::core::Placement> result =
      inner_.Allocate(request, ledger, slots);
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  Slot& slot = LocalSlot();
  std::lock_guard<std::mutex> lock(slot.mu);
  ++slot.calls;
  if (result.ok()) ++slot.placed;
  slot.busy_s += us * 1e-6;
  slot.call_us.push_back(us);
  return result;
}

TimedAllocator::Totals TimedAllocator::Collect() const {
  Totals totals;
  std::lock_guard<std::mutex> lock(slots_mu_);
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> slot_lock(slot->mu);
    totals.calls += slot->calls;
    totals.placed += slot->placed;
    totals.busy_s += slot->busy_s;
    totals.call_us.insert(totals.call_us.end(), slot->call_us.begin(),
                          slot->call_us.end());
  }
  return totals;
}

double TimedAllocator::BusySeconds() const {
  double busy = 0;
  std::lock_guard<std::mutex> lock(slots_mu_);
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> slot_lock(slot->mu);
    busy += slot->busy_s;
  }
  return busy;
}

}  // namespace perfbench
