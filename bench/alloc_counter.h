// Process-wide heap-allocation counter for the performance benches.
//
// alloc_counter.cc replaces the global operator new/delete with counting
// wrappers around malloc/free.  Linking it into a binary (alloc_microbench
// and tests/obs_alloc_overhead_test only — never the library or the figure
// benches) lets a benchmark assert hot-path properties like "Allocate()
// performs zero heap allocations after warm-up" by differencing
// AllocationCount() around the measured call.
#pragma once

#include <cstdint>

namespace svc::bench {

// Total number of operator-new invocations in this process so far.
// Thread-safe (relaxed atomic); counts every thread's allocations.
int64_t AllocationCount();

}  // namespace svc::bench
