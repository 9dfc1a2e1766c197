#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>

namespace svc::obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// --- Counter ---------------------------------------------------------------

void Counter::Reset() {
  for (CounterShard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

// --- Histogram -------------------------------------------------------------

int Histogram::BucketOf(double value) {
  if (!(value > 0)) return 0;  // non-positive (and NaN) -> underflow bucket
  int exp = 0;
  const double frac = std::frexp(value, &exp);  // value = frac * 2^exp
  // value lies in [2^(exp-1), 2^exp): octave index relative to kMinExp.
  const int octave = exp - 1 - kMinExp;
  if (octave < 0) return 0;
  if (octave >= kMaxExp - kMinExp) return kNumBuckets - 1;
  int sub = static_cast<int>((frac * 2.0 - 1.0) * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;  // fp guard at octave edge
  return 1 + octave * kSubBuckets + sub;
}

double Histogram::BucketLowerBound(int b) {
  if (b <= 0) return 0;
  if (b >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const int i = b - 1;
  const int octave = i / kSubBuckets;
  const int sub = i % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                    kMinExp + octave);
}

double Histogram::BucketUpperBound(int b) {
  if (b >= kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return BucketLowerBound(b + 1);
}

int64_t Histogram::TotalCount() const {
  int64_t total = 0;
  for (const Shard& s : shards_) {
    for (const auto& bucket : s.buckets) {
      total += bucket.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Max() const {
  double max = 0;
  for (const Shard& s : shards_) {
    max = std::max(max, s.max.load(std::memory_order_relaxed));
  }
  return max;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  std::array<int64_t, kNumBuckets> counts{};
  int64_t total = 0;
  for (const Shard& s : shards_) {
    for (int b = 0; b < kNumBuckets; ++b) {
      const int64_t c = s.buckets[b].load(std::memory_order_relaxed);
      counts[b] += c;
      total += c;
    }
  }
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (counts[b] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[b]);
    if (next >= target) {
      if (b == 0) return 0;
      const double lower = BucketLowerBound(b);
      const double upper = b == kNumBuckets - 1 ? lower : BucketUpperBound(b);
      const double fraction =
          counts[b] == 0 ? 0
                         : (target - cumulative) / static_cast<double>(counts[b]);
      // Interpolated position, clamped by the true maximum so the top
      // quantiles cannot overshoot the observed range.
      return std::min(lower + fraction * (upper - lower), Max());
    }
    cumulative = next;
  }
  return Max();
}

std::vector<HistogramBucket> Histogram::Buckets() const {
  std::vector<HistogramBucket> result;
  for (int b = 0; b < kNumBuckets; ++b) {
    int64_t count = 0;
    for (const Shard& s : shards_) {
      count += s.buckets[b].load(std::memory_order_relaxed);
    }
    if (count > 0) {
      result.push_back({BucketLowerBound(b), BucketUpperBound(b), count});
    }
  }
  return result;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (auto& bucket : s.buckets) bucket.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

// --- Snapshot --------------------------------------------------------------

namespace {

void AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON cannot represent inf/nan
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::ToJsonl() const {
  std::string out;
  for (const CounterValue& c : counters) {
    out += "{\"type\":\"counter\",\"name\":";
    AppendJsonString(out, c.name);
    out += ",\"value\":" + std::to_string(c.value) + "}\n";
  }
  for (const GaugeValue& g : gauges) {
    out += "{\"type\":\"gauge\",\"name\":";
    AppendJsonString(out, g.name);
    out += ",\"value\":";
    AppendDouble(out, g.value);
    out += "}\n";
  }
  for (const HistogramValue& h : histograms) {
    out += "{\"type\":\"histogram\",\"name\":";
    AppendJsonString(out, h.name);
    out += ",\"count\":" + std::to_string(h.count) + ",\"sum\":";
    AppendDouble(out, h.sum);
    out += ",\"max\":";
    AppendDouble(out, h.max);
    out += ",\"p50\":";
    AppendDouble(out, h.p50);
    out += ",\"p90\":";
    AppendDouble(out, h.p90);
    out += ",\"p99\":";
    AppendDouble(out, h.p99);
    out += ",\"buckets\":[";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ",";
      out += "[";
      AppendDouble(out, h.buckets[i].lower);
      out += ",";
      // The overflow bucket's upper bound is +inf -> null per AppendDouble.
      AppendDouble(out, h.buckets[i].upper);
      out += "," + std::to_string(h.buckets[i].count) + "]";
    }
    out += "]}\n";
  }
  return out;
}

// --- Registry --------------------------------------------------------------

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // intentionally leaked
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
  }
  std::unique_lock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return *it->second;
  }
  std::unique_lock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return *it->second;
  }
  std::unique_lock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::unique_ptr<Histogram>(
                                             new Histogram(std::string(name))))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::Collect() const {
  MetricsSnapshot snapshot;
  std::shared_lock lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramValue value;
    value.name = name;
    value.count = hist->TotalCount();
    value.sum = hist->Sum();
    value.max = hist->Max();
    value.p50 = hist->Quantile(0.5);
    value.p90 = hist->Quantile(0.9);
    value.p99 = hist->Quantile(0.99);
    value.buckets = hist->Buckets();
    snapshot.histograms.push_back(std::move(value));
  }
  return snapshot;
}

void Registry::ResetAll() {
  std::shared_lock lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace svc::obs
