// Timing decorator for core::Allocator.
//
// Wraps an allocator and records the duration of every Allocate call.  The
// pipeline speculates on worker threads, so each calling thread appends to
// a slot of its own; Totals() merges the slots once the callers are idle.
// name(), monotone_rejections() and monotone_placements() are forwarded:
// the admission pipeline reads the two monotonicity flags to pick its
// commit path, so a decorator that dropped them would make the pipeline
// take its serial re-run path and measure a different program.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "svc/allocator.h"

namespace perfbench {

class TimedAllocator final : public svc::core::Allocator {
 public:
  explicit TimedAllocator(const svc::core::Allocator& inner);

  TimedAllocator(const TimedAllocator&) = delete;
  TimedAllocator& operator=(const TimedAllocator&) = delete;

  std::string_view name() const override { return inner_.name(); }
  bool monotone_rejections() const override {
    return inner_.monotone_rejections();
  }
  bool monotone_placements() const override {
    return inner_.monotone_placements();
  }
  svc::util::Result<svc::core::Placement> Allocate(
      const svc::core::Request& request, const svc::net::LinkLedger& ledger,
      const svc::core::SlotMap& slots) const override;

  struct Totals {
    int64_t calls = 0;
    int64_t placed = 0;
    double busy_s = 0;
    std::vector<double> call_us;  // every call's duration, unordered
  };
  // Merged over every thread that called Allocate.  Call only while no
  // Allocate is running.
  Totals Collect() const;
  // Busy seconds so far, summed over threads (same precondition).
  double BusySeconds() const;

 private:
  struct Slot {
    std::mutex mu;
    int64_t calls = 0;
    int64_t placed = 0;
    double busy_s = 0;
    std::vector<double> call_us;
  };
  Slot& LocalSlot() const;

  const svc::core::Allocator& inner_;
  const uint64_t id_;  // distinguishes decorators in the thread-local cache
  mutable std::mutex slots_mu_;
  mutable std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace perfbench
