#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/core.h"

namespace svc::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

void SetTraceEnabled(bool enabled) {
  internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

// Events kept per thread: 64K x 24 B = 1.5 MiB.  Wrapping keeps the most
// recent window.
using TraceRing = ThreadRing<TraceEvent, 1u << 16>;

void Push(const char* name, char phase) {
  TraceRing::Push([name, phase](TraceEvent& slot) {
    slot.name = name;
    slot.phase = phase;
    slot.tid = ThreadId();
    slot.ts_ns = NowNs();
  });
}

}  // namespace

void TraceBegin(const char* name) {
  if (!TraceEnabled()) return;
  Push(name, 'B');
}

void TraceEnd(const char* name) { Push(name, 'E'); }

std::vector<TraceEvent> CollectTraceEvents() {
  std::vector<TraceEvent> events;
  TraceRing::ForEach([&events](const TraceEvent& e) { events.push_back(e); });
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

uint64_t TraceDroppedTotal() {
  uint64_t total = 0;
  TraceRing::ForEachWrapped(
      [&total](const TraceEvent&, uint64_t dropped) { total += dropped; });
  return total;
}

std::string SerializeChromeTrace() {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[128];
  // Per-thread drop markers: a ring that wrapped has overwritten its oldest
  // events, so the serialized window is truncated.  Emit one
  // `obs/trace_dropped` counter sample per affected thread at the
  // timestamp of its oldest *retained* event, so the viewer shows exactly
  // where the record begins and how much history is missing before it.
  TraceRing::ForEachWrapped([&](const TraceEvent& oldest, uint64_t dropped) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"obs/trace_dropped\",\"cat\":\"svc\","
                  "\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"args\":{\"value\":%llu}}",
                  oldest.tid, static_cast<double>(oldest.ts_ns) / 1000.0,
                  static_cast<unsigned long long>(dropped));
    out += buf;
  });
  for (const TraceEvent& e : CollectTraceEvents()) {
    if (e.name == nullptr) continue;
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonString(out, e.name);
    // Chrome trace timestamps are in microseconds.
    std::snprintf(buf, sizeof buf,
                  ",\"cat\":\"svc\",\"ph\":\"%c\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f",
                  e.phase, e.tid, static_cast<double>(e.ts_ns) / 1000.0);
    out += buf;
    out += "}";
  }
  out += "]}\n";
  return out;
}

void ClearTrace() { TraceRing::Clear(); }

}  // namespace svc::obs
