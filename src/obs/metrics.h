// Process-wide metrics registry: named counters, gauges, and log-linear
// histograms with a lock-free, allocation-free write path.
//
// Design (see docs/OBSERVABILITY.md for the full story):
//
//   * Write path: counters and histograms make plain relaxed-atomic
//     increments into cache-line-padded shards indexed by a per-thread
//     shard id — no locks, no heap, and no cross-core cache-line ping-pong
//     under the sweep runner's concurrency; a gauge is one relaxed store.
//     Aggregation across shards happens only at scrape time (Collect()).
//   * Disabled cost: every macro checks MetricsEnabled() first — a relaxed
//     atomic-bool load and one predicted branch; the registry is off until
//     a bench, test or tool turns it on.
//   * Registration: Registry::Global() interns metrics by name under a
//     shared_mutex (exclusive only on first registration).  Returned
//     references are stable for the process lifetime, so hot call sites
//     cache them in a function-local static and never touch the map again.
//
// Hot-path usage (fixed names — the handle is looked up once):
//
//   SVC_METRIC_INC("manager/admit_attempt");
//   SVC_METRIC_HIST("manager/admit_latency_us", micros);
//   SVC_METRIC_GAUGE_SET("engine/flows", flows.size());
//
// Dynamic names (e.g. per-allocator counters) go through the registry
// directly with a stack-composed name; lookups after the first take only a
// shared lock and never allocate:
//
//   if (obs::MetricsEnabled()) {
//     char name[64];
//     std::snprintf(name, sizeof name, "alloc/%s/success", alloc_name);
//     obs::Registry::Global().GetCounter(name).Increment();
//   }
//
// This header intentionally depends on nothing outside the standard
// library so every layer (including util) can instrument itself.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/core.h"

namespace svc::obs {

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

// Runtime switch; defaults to off so instrumented hot paths cost one
// predicted branch unless a bench/test/tool opts in.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

// Write shards per counter and histogram.  A power of two; threads map to
// shards by ThreadId() % kShards, so up to kShards writers proceed with no
// shared cache lines at all and larger fleets degrade gracefully.
inline constexpr uint32_t kShards = 16;

struct alignas(64) CounterShard {
  std::atomic<int64_t> value{0};
};

// Monotonic counter.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    shards_[ThreadId() % kShards].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  // Aggregate over shards (scrape path; approximate under concurrent
  // writes, exact once writers quiesce).
  int64_t Value() const {
    int64_t total = 0;
    for (const CounterShard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }
  void Reset();

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::array<CounterShard, kShards> shards_;
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  void Reset() { Set(0); }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<double> value_{0};
};

// One aggregated histogram bucket: count of samples in [lower, upper).
struct HistogramBucket {
  double lower = 0;
  double upper = 0;
  int64_t count = 0;
};

// Log-linear-bucket histogram for non-negative values (latencies in
// microseconds, ratios, sizes).  Each power-of-two octave is split into
// kSubBuckets linear sub-buckets, so the relative quantization error is
// bounded by 1/kSubBuckets (~6%) across ~14 decades of range.  Recording
// is two shifts, a multiply, and one relaxed fetch_add.
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;   // per octave
  static constexpr int kMinExp = -8;       // values below 2^-8 underflow
  static constexpr int kMaxExp = 40;       // values >= 2^40 overflow
  static constexpr int kNumBuckets =
      2 + (kMaxExp - kMinExp) * kSubBuckets;  // + underflow + overflow

  void Record(double value) {
    const int b = BucketOf(value);
    auto& shard = shards_[ThreadId() % kShards];
    shard.buckets[b].fetch_add(1, std::memory_order_relaxed);
    // Relaxed CAS loop; uncontended within a shard.
    double sum = shard.sum.load(std::memory_order_relaxed);
    while (!shard.sum.compare_exchange_weak(sum, sum + value,
                                            std::memory_order_relaxed)) {
    }
    double max = shard.max.load(std::memory_order_relaxed);
    while (value > max && !shard.max.compare_exchange_weak(
                              max, value, std::memory_order_relaxed)) {
    }
  }

  // Bucket index of a value (public for the boundary tests).
  static int BucketOf(double value);
  // Inclusive lower bound of bucket b (0 for the underflow bucket).
  static double BucketLowerBound(int b);
  // Exclusive upper bound of bucket b.
  static double BucketUpperBound(int b);

  int64_t TotalCount() const;
  double Sum() const;
  double Max() const;

  // q-quantile (q in [0, 1]) with linear interpolation inside the landing
  // bucket.  Returns 0 on an empty histogram.
  double Quantile(double q) const;

  // Aggregated non-empty buckets in ascending order.
  std::vector<HistogramBucket> Buckets() const;

  const std::string& name() const { return name_; }
  void Reset();

 private:
  friend class Registry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Shard {
    std::array<std::atomic<int64_t>, kNumBuckets> buckets{};
    std::atomic<double> sum{0};
    std::atomic<double> max{0};
  };

  std::string name_;
  std::array<Shard, kShards> shards_;
};

// Point-in-time aggregated view of the registry, ordered by name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    int64_t value;
  };
  struct GaugeValue {
    std::string name;
    double value;
  };
  struct HistogramValue {
    std::string name;
    int64_t count = 0;
    double sum = 0;
    double max = 0;
    double p50 = 0, p90 = 0, p99 = 0;
    std::vector<HistogramBucket> buckets;  // non-empty buckets only
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  // One JSON object per line: {"type":"counter","name":...,"value":...},
  // {"type":"gauge",...}, {"type":"histogram",...,"buckets":[[lo,hi,n]...]}.
  // The same line-oriented format as the engine's time-series sink and the
  // decision records, so every emitter shares one consumer.
  std::string ToJsonl() const;
};

class Registry {
 public:
  // The process-wide registry.  Never destroyed (function-local static
  // leak), so metric references stay valid in thread-exit paths.
  static Registry& Global();

  // Interns by name; the returned reference is stable forever.  Lookups of
  // existing metrics take a shared lock and perform no allocation (the map
  // is keyed with transparent comparison).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Collect() const;

  // Zeroes every registered metric (names stay registered).  For tests and
  // for benches that scope a measurement.
  void ResetAll();

 private:
  Registry() = default;

  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace svc::obs

#define SVC_METRIC_ADD(name, delta)                            \
  do {                                                         \
    if (::svc::obs::MetricsEnabled()) {                        \
      static ::svc::obs::Counter& svc_metric_counter_ =        \
          ::svc::obs::Registry::Global().GetCounter(name);     \
      svc_metric_counter_.Increment(delta);                    \
    }                                                          \
  } while (0)

#define SVC_METRIC_INC(name) SVC_METRIC_ADD(name, 1)

#define SVC_METRIC_HIST(name, value)                           \
  do {                                                         \
    if (::svc::obs::MetricsEnabled()) {                        \
      static ::svc::obs::Histogram& svc_metric_hist_ =         \
          ::svc::obs::Registry::Global().GetHistogram(name);   \
      svc_metric_hist_.Record(value);                          \
    }                                                          \
  } while (0)

#define SVC_METRIC_GAUGE_SET(name, value)                      \
  do {                                                         \
    if (::svc::obs::MetricsEnabled()) {                        \
      static ::svc::obs::Gauge& svc_metric_gauge_ =            \
          ::svc::obs::Registry::Global().GetGauge(name);       \
      svc_metric_gauge_.Set(value);                            \
    }                                                          \
  } while (0)
