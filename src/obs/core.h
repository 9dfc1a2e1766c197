// The pieces every observability emitter shares: the dense per-thread id,
// the process-relative steady clock, the JSON string escaper, the checked
// whole-file writer, and the per-thread ring that the trace spans
// (obs/trace.h) and the decision records (obs/decision_log.h) are recorded
// into.
//
// This header intentionally depends on nothing outside the standard
// library so every layer (including util) can link it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace svc::obs {

// Small dense id of the calling thread (0, 1, 2, ...), assigned on first
// use: the metric shard index, the trace tid, the decision record's
// worker and the log-line thread tag, so one id names a thread everywhere.
uint32_t ThreadId();

// Steady-clock nanoseconds since the process's first call.
uint64_t NowNs();

// Appends `text` as a quoted JSON string literal: `"` and `\` are
// backslash-escaped, newline, carriage return and tab use their short
// escapes, and any other control character becomes \u00XX.
void AppendJsonString(std::string& out, std::string_view text);

// Writes `content` to `path`, replacing the file.  Checks the open, the
// write and the close (a full disk often shows only at the close); on a
// failure prints "cannot write <path>: <reason>" to stderr and returns
// false.
bool WriteFile(const std::string& path, const std::string& content);

// Per-thread rings of fixed-size records of type T, kCapacity records per
// thread.  One set of rings exists per record type.
//
//   * Write path: Push() fills the next slot of the calling thread's ring
//     in place, then release-stores the ring's head — no locks, and no
//     heap after the thread's first record.  When a ring wraps, its oldest
//     records are overwritten: each thread keeps its most recent window.
//   * Rings are owned by a process-wide list and never freed, so records
//     survive their thread's exit; the thread_local is a cached pointer.
//   * Read path (ForEach, ForEachWrapped, Clear): walks rings owned by
//     other threads without locking against writers.  Call it only while
//     the recording threads are quiescent — after they are joined, between
//     admissions, or at process end.  That single-consumer contract is
//     what lets the writer skip every lock.
template <typename T, size_t kCapacity>
class ThreadRing {
 public:
  static constexpr size_t capacity() { return kCapacity; }

  // Calls fill(slot) on the calling thread's next slot, then publishes it.
  template <typename Fill>
  static void Push(Fill&& fill) {
    Ring& ring = Local();
    const uint64_t h = ring.head.load(std::memory_order_relaxed);
    fill(ring.slots[h % kCapacity]);
    ring.head.store(h + 1, std::memory_order_release);
  }

  // Calls visit(record) on every retained record, ring by ring, oldest
  // first within a ring.
  template <typename Visit>
  static void ForEach(Visit&& visit) {
    std::lock_guard<std::mutex> lock(Mutex());
    for (const auto& ring : Rings()) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      for (uint64_t i = head - std::min<uint64_t>(head, kCapacity); i < head;
           ++i) {
        visit(ring->slots[i % kCapacity]);
      }
    }
  }

  // Calls visit(oldest_retained, dropped) once for each ring that has
  // wrapped, where `dropped` counts the records it overwrote.
  template <typename Visit>
  static void ForEachWrapped(Visit&& visit) {
    std::lock_guard<std::mutex> lock(Mutex());
    for (const auto& ring : Rings()) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      if (head > kCapacity) {
        visit(ring->slots[head % kCapacity], head - kCapacity);
      }
    }
  }

  // Drops every retained record; the rings stay registered.
  static void Clear() {
    std::lock_guard<std::mutex> lock(Mutex());
    for (const auto& ring : Rings()) {
      ring->head.store(0, std::memory_order_release);
    }
  }

 private:
  struct Ring {
    std::vector<T> slots = std::vector<T>(kCapacity);
    std::atomic<uint64_t> head{0};
  };

  static std::mutex& Mutex() {
    static auto* mu = new std::mutex();
    return *mu;
  }

  static std::vector<std::unique_ptr<Ring>>& Rings() {
    static auto* rings = new std::vector<std::unique_ptr<Ring>>();
    return *rings;
  }

  static Ring& Local() {
    thread_local Ring* ring = [] {
      auto owned = std::make_unique<Ring>();
      Ring* raw = owned.get();
      std::lock_guard<std::mutex> lock(Mutex());
      Rings().push_back(std::move(owned));
      return raw;
    }();
    return *ring;
  }
};

}  // namespace svc::obs
