// Low-overhead tracing: RAII scoped spans recorded into per-thread ring
// buffers, serialized as Chrome trace-event JSON that loads directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
//   {
//     SVC_TRACE_SPAN("maxmin/solve");   // B event now, E event at scope end
//     ...
//   }
//
// Recording writes one 24-byte event (a pointer, a timestamp, a phase tag)
// into the calling thread's pre-sized ring buffer — no locks, no heap after
// the thread's first event.  When the ring wraps, the oldest events are
// overwritten: a long run keeps a recent window, which is what one loads a
// trace viewer for.  Span names must be string literals (or otherwise
// outlive serialization); only the pointer is stored.
//
// The runtime switch (SetTraceEnabled) defaults to off; a disabled span
// costs one predicted branch.  Compiling with -DSVC_METRICS_ENABLED=0
// compiles the macros out entirely (one switch for the whole observability
// layer).
//
// Serialization (SerializeChromeTrace / CollectTraceEvents) is a read of
// buffers owned by other threads: call it only when recording threads are
// quiescent — after the recording threads are joined, or at process end.
// That is the single-consumer contract the whole layer is built on; the
// serializer takes no locks against writers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"  // SVC_METRICS_ENABLED default + ThreadId()

namespace svc::obs {

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}
void SetTraceEnabled(bool enabled);

// One recorded event.  phase is Chrome's tag: 'B' begin, 'E' end.
struct TraceEvent {
  const char* name = nullptr;
  char phase = 0;
  uint32_t tid = 0;
  uint64_t ts_ns = 0;  // nanoseconds since process trace epoch
};

// Raw recording entry points (prefer the macros).  No-ops when tracing is
// disabled at runtime.
void TraceBegin(const char* name);
void TraceEnd(const char* name);

// All buffered events across threads in timestamp order.  Quiesced-threads
// contract above.
std::vector<TraceEvent> CollectTraceEvents();

// Events lost to ring wraparound across all threads: each ring retains the
// last 64K events, so anything older has been overwritten.  Derived from
// the ring heads (no extra work on the record path); resets with
// ClearTrace().  Quiesced-threads contract above.  Surfaced as the
// `obs/trace_dropped` gauge and as per-thread drop markers in
// SerializeChromeTrace(), so a truncated postmortem bundle is detectable.
uint64_t TraceDroppedTotal();

// Chrome trace-event JSON ({"traceEvents":[...]}).  Load in Perfetto or
// chrome://tracing.  Quiesced-threads contract above.
std::string SerializeChromeTrace();

// Drops every buffered event (buffers stay registered).
void ClearTrace();

// RAII span; emits the matching end event even if tracing is toggled off
// mid-scope, so B/E pairs stay balanced per thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (TraceEnabled()) {
      name_ = name;
      TraceBegin(name);
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) TraceEnd(name_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
};

}  // namespace svc::obs

#if SVC_METRICS_ENABLED

#define SVC_OBS_CONCAT_INNER(a, b) a##b
#define SVC_OBS_CONCAT(a, b) SVC_OBS_CONCAT_INNER(a, b)

#define SVC_TRACE_SPAN(name) \
  ::svc::obs::ScopedSpan SVC_OBS_CONCAT(svc_trace_span_, __LINE__)(name)

#else  // !SVC_METRICS_ENABLED

#define SVC_TRACE_SPAN(name) \
  do {                       \
  } while (0)

#endif  // SVC_METRICS_ENABLED
