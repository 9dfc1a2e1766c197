// Tests for the obs metrics registry: histogram bucket geometry, quantile
// accuracy against the exact empirical CDF, cross-thread counter
// aggregation, and the enable-gated macros.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "stats/ecdf.h"
#include "stats/rng.h"

namespace svc::obs {
namespace {

// Restores the runtime switch so tests compose in one process.
class MetricsOn {
 public:
  MetricsOn() : was_(MetricsEnabled()) { SetMetricsEnabled(true); }
  ~MetricsOn() { SetMetricsEnabled(was_); }

 private:
  bool was_;
};

TEST(HistogramBuckets, EveryValueLandsInsideItsBucket) {
  stats::Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform over the full tracked range (2^-8 .. 2^40).
    const double value = std::exp2(rng.Uniform(-8.0, 40.0));
    const int b = Histogram::BucketOf(value);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kNumBuckets);
    EXPECT_LE(Histogram::BucketLowerBound(b), value)
        << "value " << value << " below bucket " << b;
    EXPECT_LT(value, Histogram::BucketUpperBound(b))
        << "value " << value << " beyond bucket " << b;
  }
}

TEST(HistogramBuckets, BoundariesAreContiguousAndMonotonic) {
  for (int b = 1; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketUpperBound(b - 1),
              Histogram::BucketLowerBound(b))
        << "gap between buckets " << b - 1 << " and " << b;
    EXPECT_LT(Histogram::BucketLowerBound(b), Histogram::BucketUpperBound(b));
  }
}

TEST(HistogramBuckets, UnderflowOverflowAndZero) {
  EXPECT_EQ(Histogram::BucketOf(0.0), 0);
  EXPECT_EQ(Histogram::BucketOf(-1.0), 0);  // negatives clamp to underflow
  EXPECT_EQ(Histogram::BucketOf(std::exp2(-9)), 0);
  EXPECT_EQ(Histogram::BucketOf(std::exp2(41)), Histogram::kNumBuckets - 1);
  // The relative width of every finite bucket is bounded by 1/kSubBuckets.
  const int b = Histogram::BucketOf(1234.5);
  const double lo = Histogram::BucketLowerBound(b);
  const double hi = Histogram::BucketUpperBound(b);
  EXPECT_LE((hi - lo) / lo, 1.0 / Histogram::kSubBuckets + 1e-12);
}

TEST(Histogram, QuantilesMatchEmpiricalCdf) {
  MetricsOn on;
  Histogram& hist =
      Registry::Global().GetHistogram("test/quantiles_vs_ecdf");
  hist.Reset();
  stats::Rng rng(7);
  stats::EmpiricalCdf cdf;
  for (int i = 0; i < 20000; ++i) {
    // Skewed latency-like distribution across several octaves.
    const double sample = std::exp2(rng.Uniform(2.0, 12.0));
    hist.Record(sample);
    cdf.Add(sample);
  }
  EXPECT_EQ(hist.TotalCount(), 20000);
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact = cdf.Percentile(q);
    const double approx = hist.Quantile(q);
    // Log-linear bucketing bounds relative error by ~1/kSubBuckets (6%).
    EXPECT_NEAR(approx, exact, 0.10 * exact)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  EXPECT_LE(hist.Quantile(1.0), hist.Max() + 1e-9);
}

TEST(Counter, AggregatesAcrossThreads) {
  MetricsOn on;
  Counter& counter = Registry::Global().GetCounter("test/mt_counter");
  counter.Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<int64_t>(kThreads) * kIncrements);
}

TEST(Histogram, AggregatesAcrossThreads) {
  MetricsOn on;
  Histogram& hist = Registry::Global().GetHistogram("test/mt_hist");
  hist.Reset();
  constexpr int kThreads = 4;
  constexpr int kSamples = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kSamples; ++i) hist.Record(100.0 + t);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.TotalCount(), static_cast<int64_t>(kThreads) * kSamples);
  EXPECT_NEAR(hist.Sum(), kThreads * kSamples * 101.5, kSamples * 2.0);
  EXPECT_DOUBLE_EQ(hist.Max(), 103.0);
}

TEST(Gauge, SetIsLastWriteWins) {
  MetricsOn on;
  Gauge& gauge = Registry::Global().GetGauge("test/gauge");
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(42.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 42.0);
  gauge.Set(7.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 7.0);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(Registry, InternsByNameAndCollectsSorted) {
  MetricsOn on;
  Counter& a = Registry::Global().GetCounter("test/intern_b");
  Counter& b = Registry::Global().GetCounter("test/intern_a");
  Counter& a2 = Registry::Global().GetCounter("test/intern_b");
  EXPECT_EQ(&a, &a2);
  a.Reset();
  b.Reset();
  a.Increment(5);
  const MetricsSnapshot snapshot = Registry::Global().Collect();
  int64_t seen_a = -1;
  size_t index_a = 0, index_b = 0;
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (snapshot.counters[i].name == "test/intern_b") {
      seen_a = snapshot.counters[i].value;
      index_a = i;
    }
    if (snapshot.counters[i].name == "test/intern_a") index_b = i;
  }
  EXPECT_EQ(seen_a, 5);
  EXPECT_LT(index_b, index_a);  // ordered by name
}

TEST(Macros, DisabledMacroDoesNotCount) {
  const bool was = MetricsEnabled();
  SetMetricsEnabled(true);
  SVC_METRIC_INC("test/macro_counter");
  SVC_METRIC_INC("test/macro_counter");
  SetMetricsEnabled(false);
  SVC_METRIC_INC("test/macro_counter");
  SetMetricsEnabled(was);
  EXPECT_EQ(Registry::Global().GetCounter("test/macro_counter").Value(), 2);
  Registry::Global().GetCounter("test/macro_counter").Reset();
}

TEST(Snapshot, ToJsonlEmitsOneObjectPerLine) {
  MetricsOn on;
  Registry::Global().GetCounter("test/jsonl_counter").Increment(3);
  Registry::Global().GetHistogram("test/jsonl_hist").Record(10.0);
  const std::string jsonl = Registry::Global().Collect().ToJsonl();
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  size_t start = 0;
  int lines = 0;
  while (start < jsonl.size()) {
    const size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = jsonl.substr(start, end - start);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":"), std::string::npos);
    ++lines;
    start = end + 1;
  }
  EXPECT_GE(lines, 2);
  Registry::Global().GetCounter("test/jsonl_counter").Reset();
  Registry::Global().GetHistogram("test/jsonl_hist").Reset();
}

}  // namespace
}  // namespace svc::obs
