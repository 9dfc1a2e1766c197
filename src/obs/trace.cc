#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

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
constexpr size_t kRingCapacity = 1u << 16;

uint64_t NowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

// Per-thread ring.  The writer publishes each slot with a release store of
// head; a quiesced-thread reader (see trace.h) acquires head and walks the
// last min(head, capacity) slots.
struct Ring {
  explicit Ring(uint32_t thread_id) : tid(thread_id) {
    slots.resize(kRingCapacity);
  }

  void Push(const char* name, char phase) {
    const uint64_t h = head.load(std::memory_order_relaxed);
    TraceEvent& slot = slots[h % kRingCapacity];
    slot.name = name;
    slot.phase = phase;
    slot.tid = tid;
    slot.ts_ns = NowNs();
    head.store(h + 1, std::memory_order_release);
  }

  std::vector<TraceEvent> slots;
  std::atomic<uint64_t> head{0};
  uint32_t tid;
};

// Rings are owned by this global list (never freed) so events survive the
// recording thread's exit; the thread_local below is just a cached pointer.
std::mutex g_rings_mu;
std::vector<std::unique_ptr<Ring>>& GlobalRings() {
  static auto* rings = new std::vector<std::unique_ptr<Ring>>();
  return *rings;
}

Ring& LocalRing() {
  thread_local Ring* ring = [] {
    auto owned = std::make_unique<Ring>(ThreadId());
    Ring* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_rings_mu);
    GlobalRings().push_back(std::move(owned));
    return raw;
  }();
  return *ring;
}

void AppendJsonName(std::string& out, const char* name) {
  out.push_back('"');
  for (const char* p = name; *p; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

void TraceBegin(const char* name) {
  if (!TraceEnabled()) return;
  LocalRing().Push(name, 'B');
}

void TraceEnd(const char* name) { LocalRing().Push(name, 'E'); }

std::vector<TraceEvent> CollectTraceEvents() {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(g_rings_mu);
    for (const auto& ring : GlobalRings()) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t count = std::min<uint64_t>(head, kRingCapacity);
      for (uint64_t i = head - count; i < head; ++i) {
        events.push_back(ring->slots[i % kRingCapacity]);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

uint64_t TraceDroppedTotal() {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(g_rings_mu);
  for (const auto& ring : GlobalRings()) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > kRingCapacity) total += head - kRingCapacity;
  }
  return total;
}

std::string SerializeChromeTrace() {
  // Per-thread drop markers: a ring whose head ran past the capacity has
  // overwritten its oldest events, so the serialized window is truncated.
  // Emit one `obs/trace_dropped` counter sample per affected thread at the
  // timestamp of its oldest *retained* event, so the viewer shows exactly
  // where the record begins and how much history is missing before it.
  struct DropMark {
    uint32_t tid = 0;
    uint64_t dropped = 0;
    uint64_t ts_ns = 0;
  };
  std::vector<DropMark> drops;
  {
    std::lock_guard<std::mutex> lock(g_rings_mu);
    for (const auto& ring : GlobalRings()) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      if (head > kRingCapacity) {
        const TraceEvent& oldest = ring->slots[head % kRingCapacity];
        drops.push_back({ring->tid, head - kRingCapacity, oldest.ts_ns});
      }
    }
  }
  const std::vector<TraceEvent> events = CollectTraceEvents();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[128];
  for (const DropMark& d : drops) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"obs/trace_dropped\",\"cat\":\"svc\","
                  "\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"args\":{\"value\":%llu}}",
                  d.tid, static_cast<double>(d.ts_ns) / 1000.0,
                  static_cast<unsigned long long>(d.dropped));
    out += buf;
  }
  for (const TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonName(out, e.name);
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

void ClearTrace() {
  std::lock_guard<std::mutex> lock(g_rings_mu);
  for (const auto& ring : GlobalRings()) {
    ring->head.store(0, std::memory_order_release);
  }
}

}  // namespace svc::obs
