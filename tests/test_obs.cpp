/// \file test_obs.cpp
/// \brief The observability subsystem (src/obs/): log-linear histogram
/// bucket math and quantile edge cases, snapshot-merge associativity,
/// registry semantics (kind safety, disabled registries, reset), the
/// ScopedTimer span, and the JSON/Prometheus exposition round-trip. The
/// concurrent-recording test doubles as the TSan CI job's coverage of
/// the striped-shard recording path.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"

namespace adept::obs {
namespace {

// ------------------------------------------------------------ bucket math --

TEST(ObsHistogramBuckets, PowerOfTwoLandsInTheFirstSubBucketOfItsOctave) {
  // 1.0 ms opens the octave [1, 2): its bucket's lower edge is exactly 1.
  const std::uint32_t index = Histogram::bucket_index(1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower(index), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(index), 1.125);
  // Just below a power of two stays in the previous octave's last bucket.
  const std::uint32_t below = Histogram::bucket_index(0.999999);
  EXPECT_EQ(below, index - 1);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(below), 1.0);
}

TEST(ObsHistogramBuckets, EveryBucketContainsItsOwnEdges) {
  for (std::uint32_t i = 1; i < Histogram::kOverflowIndex; ++i) {
    const double lower = Histogram::bucket_lower(i);
    const double upper = Histogram::bucket_upper(i);
    ASSERT_LT(lower, upper);
    EXPECT_EQ(Histogram::bucket_index(lower), i) << "lower edge of " << i;
    // The largest representable double below `upper` still maps to i.
    const double inside =
        std::nextafter(upper, 0.0);
    EXPECT_EQ(Histogram::bucket_index(inside), i) << "top of " << i;
  }
}

TEST(ObsHistogramBuckets, OutOfRangeValuesUseTheSentinelBuckets) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e-7), 0u);  // below 2^-10 ms
  EXPECT_EQ(Histogram::bucket_index(1e30), Histogram::kOverflowIndex);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            Histogram::kOverflowIndex);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower(0), 0.0);
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kOverflowIndex)));
}

// ------------------------------------------------------------- quantiles --

TEST(ObsHistogramQuantiles, EmptyHistogramReportsZeroes) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(s.buckets.empty());
}

TEST(ObsHistogramQuantiles, SingleSampleIsExactAtEveryQuantile) {
  Histogram h;
  h.record(3.7);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 3.7);
  EXPECT_DOUBLE_EQ(s.max, 3.7);
  // The min/max clamp makes the one sample exact at every p, including
  // the out-of-range p values (clamped into [0, 1]).
  for (const double p : {-1.0, 0.0, 0.25, 0.5, 0.99, 1.0, 2.0})
    EXPECT_DOUBLE_EQ(s.quantile(p), 3.7) << "p = " << p;
}

TEST(ObsHistogramQuantiles, OverflowBucketSaturatesAtTheObservedMax) {
  Histogram h;
  h.record(1e30);
  h.record(2e30);
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 1u);
  EXPECT_EQ(s.buckets[0].first, Histogram::kOverflowIndex);
  EXPECT_EQ(s.buckets[0].second, 2u);
  // No finite upper edge: interpolation is bounded by the observed
  // min/max instead of running off toward infinity.
  EXPECT_GE(s.quantile(0.99), 1e30);
  EXPECT_LE(s.quantile(0.99), 2e30);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 2e30);
  EXPECT_DOUBLE_EQ(s.max, 2e30);
}

TEST(ObsHistogramQuantiles, UniformStreamQuantilesLandNearTheTrueRanks) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  // Log-linear buckets with 8 sub-buckets per octave bound the relative
  // error by 1/16 within a bucket; allow 10%.
  EXPECT_NEAR(s.quantile(0.50), 500.0, 50.0);
  EXPECT_NEAR(s.quantile(0.95), 950.0, 95.0);
  EXPECT_NEAR(s.quantile(0.99), 990.0, 99.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

// ---------------------------------------------------------------- merging --

TEST(ObsHistogramSnapshots, MergeIsAssociativeOnExactValues) {
  // Power-of-two-ish values whose sums are exactly representable, so the
  // floating-point `sum` field is associative too and the comparison can
  // be exact across every field.
  Histogram a, b, c;
  a.record(0.5);
  a.record(1.0);
  b.record(2.0);
  b.record(1024.0);
  c.record(0.25);
  c.record(1e30);  // lands in the overflow bucket

  const HistogramSnapshot sa = a.snapshot();
  const HistogramSnapshot sb = b.snapshot();
  const HistogramSnapshot sc = c.snapshot();

  HistogramSnapshot left = sa;   // (a + b) + c
  left.merge(sb);
  left.merge(sc);
  HistogramSnapshot right = sb;  // a + (b + c)
  right.merge(sc);
  HistogramSnapshot right_total = sa;
  right_total.merge(right);

  EXPECT_EQ(left.count, right_total.count);
  EXPECT_DOUBLE_EQ(left.sum, right_total.sum);
  EXPECT_DOUBLE_EQ(left.min, right_total.min);
  EXPECT_DOUBLE_EQ(left.max, right_total.max);
  EXPECT_EQ(left.buckets, right_total.buckets);
  EXPECT_EQ(left.count, 6u);
  EXPECT_DOUBLE_EQ(left.min, 0.25);
  EXPECT_DOUBLE_EQ(left.max, 1e30);
}

TEST(ObsHistogramSnapshots, MergingAnEmptySnapshotIsIdentity) {
  Histogram h;
  h.record(7.0);
  HistogramSnapshot s = h.snapshot();
  const HistogramSnapshot before = s;
  s.merge(HistogramSnapshot{});
  EXPECT_EQ(s.count, before.count);
  EXPECT_DOUBLE_EQ(s.min, before.min);
  EXPECT_DOUBLE_EQ(s.max, before.max);
  EXPECT_EQ(s.buckets, before.buckets);

  HistogramSnapshot empty;
  empty.merge(before);
  EXPECT_DOUBLE_EQ(empty.min, 7.0);
  EXPECT_DOUBLE_EQ(empty.max, 7.0);
  EXPECT_EQ(empty.count, 1u);
}

// --------------------------------------------------------------- registry --

TEST(ObsRegistry, FindsOrCreatesAndKeepsStableReferences) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("a.b.c");
  c1.inc(3);
  Counter& c2 = registry.counter("a.b.c");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);
}

TEST(ObsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("service.jobs");
  EXPECT_THROW(registry.histogram("service.jobs"), Error);
  EXPECT_THROW(registry.gauge("service.jobs"), Error);
}

TEST(ObsRegistry, RejectsInvalidNames) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter(""), Error);
  EXPECT_THROW(registry.counter("has space"), Error);
  EXPECT_THROW(registry.counter("has\"quote"), Error);
  registry.counter("ok.name-with_all.allowed-Chars123");
}

TEST(ObsRegistry, DisabledRegistryRecordsNothing) {
  MetricsRegistry off(false);
  EXPECT_FALSE(off.enabled());
  Counter& c = off.counter("x");
  Gauge& g = off.gauge("y");
  Histogram& h = off.histogram("z");
  c.inc(5);
  ++c;
  g.set(9.0);
  h.record(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
  // Names still register (snapshot shape is stable either way).
  const RegistrySnapshot s = off.snapshot();
  EXPECT_EQ(s.counters.at("x"), 0u);
}

TEST(ObsRegistry, ResetZeroesEverythingButKeepsNames) {
  MetricsRegistry registry;
  registry.counter("c").inc(4);
  registry.gauge("g").set(2.5);
  registry.histogram("h").record(1.0);
  registry.reset();
  const RegistrySnapshot s = registry.snapshot();
  EXPECT_EQ(s.counters.at("c"), 0u);
  EXPECT_DOUBLE_EQ(s.gauges.at("g"), 0.0);
  EXPECT_EQ(s.histograms.at("h").count, 0u);
}

TEST(ObsRegistry, SnapshotMergeSumsCountersAndMergesHistograms) {
  MetricsRegistry a, b;
  a.counter("shared").inc(2);
  b.counter("shared").inc(5);
  b.counter("only_b").inc(1);
  a.gauge("depth").set(3.0);
  b.gauge("depth").set(7.0);
  a.histogram("lat").record(1.0);
  b.histogram("lat").record(4.0);
  RegistrySnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("shared"), 7u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("depth"), 7.0);  // other wins
  EXPECT_EQ(merged.histograms.at("lat").count, 2u);
  EXPECT_DOUBLE_EQ(merged.histograms.at("lat").max, 4.0);
}

// ------------------------------------------------------------ scoped timer --

TEST(ObsScopedTimer, RecordsElapsedOnDestructionAndStopDisarms) {
  Histogram h;
  {
    ScopedTimer timer(h);
  }
  EXPECT_EQ(h.snapshot().count, 1u);
  {
    ScopedTimer timer(h);
    const double ms = timer.stop_ms();
    EXPECT_GE(ms, 0.0);
  }  // stop_ms() already recorded; the destructor must not double-record
  EXPECT_EQ(h.snapshot().count, 2u);
  {
    ScopedTimer timer(h);
    timer.dismiss();
  }
  EXPECT_EQ(h.snapshot().count, 2u);
}

TEST(ObsHistogramSnapshots, CountIsTheBucketTotal) {
  // record() stores no count of its own: the snapshot derives it from
  // the buckets, sentinel buckets included.
  Histogram histogram;
  const double values[] = {-1.0, 0.0, 1e-9, 0.5, 1.0, 3.0, 1e9,
                           std::numeric_limits<double>::quiet_NaN()};
  for (int round = 0; round < 25; ++round)
    for (const double value : values) histogram.record(value);
  const HistogramSnapshot s = histogram.snapshot();
  std::uint64_t total = 0;
  for (const auto& bucket : s.buckets) total += bucket.second;
  EXPECT_EQ(s.count, 25u * std::size(values));
  EXPECT_EQ(s.count, total);
  histogram.reset();
  EXPECT_EQ(histogram.snapshot().count, 0u);
}

// ------------------------------------------------- concurrent recording ----

// The TSan CI job runs this binary: 8 writers hammering one histogram,
// one counter and one gauge through the striped shards, with snapshots
// taken mid-flight. Counts are exact once the writers join; the values
// are chosen so the shard `sum` fields stay exactly representable.
TEST(ObsConcurrency, ParallelRecordingIsExactAndRaceFree) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("stress.count");
  Gauge& gauge = registry.gauge("stress.gauge");
  Histogram& histogram = registry.histogram("stress.lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        gauge.set(static_cast<double>(t));
        histogram.record(1.0);
      }
    });
  }
  // Concurrent snapshots must be clean (values racy by design, reads not).
  for (int i = 0; i < 50; ++i) (void)registry.snapshot();
  for (std::thread& w : writers) w.join();
  const HistogramSnapshot s = histogram.snapshot();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
}

// -------------------------------------------------------------- exposition --

TEST(ObsExposition, JsonRoundTripIsAFixedPoint) {
  MetricsRegistry registry;
  registry.counter("service.cache.hits").inc(12);
  registry.gauge("serve.pending").set(3.0);
  Histogram& h = registry.histogram("service.plan.latency_ms");
  h.record(0.5);
  h.record(250.0);
  h.record(1e30);

  const json::Value first = to_json(registry.snapshot());
  const RegistrySnapshot reloaded = snapshot_from_json(first);
  const json::Value second = to_json(reloaded);
  // Derived fields (mean, quantiles) are recomputed from the same
  // authoritative fields, so dump-parse-dump is byte-stable.
  EXPECT_EQ(first.dump(), second.dump());
  EXPECT_EQ(reloaded.counters.at("service.cache.hits"), 12u);
  EXPECT_EQ(reloaded.histograms.at("service.plan.latency_ms").count, 3u);
}

TEST(ObsExposition, JsonCarriesQuantilesAndBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const json::Value doc = to_json(registry.snapshot());
  const json::Value& hist = doc.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 100.0);
  EXPECT_NEAR(hist.at("p50").as_number(), 50.0, 5.0);
  EXPECT_NEAR(hist.at("p99").as_number(), 99.0, 10.0);
  EXPECT_GT(hist.at("buckets").as_array().size(), 10u);
}

TEST(ObsExposition, MalformedSnapshotsThrow) {
  EXPECT_THROW(snapshot_from_json(json::parse("{}")), Error);
  // Unsorted bucket list.
  EXPECT_THROW(
      snapshot_from_json(json::parse(
          R"({"counters":{},"gauges":{},"histograms":{"h":{"count":2,)"
          R"("sum":2.0,"min":1.0,"max":1.0,"buckets":[[5,1],[3,1]]}}})")),
      Error);
  // Bucket index out of range.
  EXPECT_THROW(
      snapshot_from_json(json::parse(
          R"({"counters":{},"gauges":{},"histograms":{"h":{"count":1,)"
          R"("sum":1.0,"min":1.0,"max":1.0,"buckets":[[9999,1]]}}})")),
      Error);
}

TEST(ObsExposition, PrometheusFormatFollowsTheTextConventions) {
  MetricsRegistry registry;
  registry.counter("service.cache.hits").inc(3);
  registry.gauge("serve.pending").set(2.0);
  Histogram& h = registry.histogram("serve.request_ms");
  h.record(1.0);
  h.record(1.0);
  h.record(1e30);  // overflow: only counted by the +Inf line
  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE adept_service_cache_hits counter\n"
                      "adept_service_cache_hits 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE adept_serve_pending gauge\n"
                      "adept_serve_pending 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE adept_serve_request_ms histogram\n"),
            std::string::npos);
  // Cumulative buckets: the finite le edge counts the two 1.0 samples,
  // +Inf counts all three, and _count/_sum close the series.
  EXPECT_NE(text.find("adept_serve_request_ms_bucket{le=\"1.125\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("adept_serve_request_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("adept_serve_request_ms_count 3\n"), std::string::npos);
}

}  // namespace
}  // namespace adept::obs
