// Tests for the ckr_obs observability layer: metric semantics (histogram
// bucket boundaries above all), deterministic sorted-key snapshots, and
// FakeClock-driven stage timers. Every duration here flows through a
// FakeClock, so the expected snapshots are exact strings, not ranges.
#include <string>
#include <thread>
#include <vector>

#include "detect/entity_detector.h"
#include "framework/runtime_ranker.h"
#include "gtest/gtest.h"
#include "obs/clock.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace ckr {
namespace obs {
namespace {

TEST(ObsCounterTest, IncrementAddResetValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsGaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.Value(), -1.25);
  g.Reset();
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(ObsHistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0});
  ASSERT_EQ(h.NumBuckets(), 3u);  // two bounds + overflow

  h.Record(0.5);   // <= 1.0     -> bucket 0
  h.Record(1.0);   // == bound   -> bucket 0 (v <= bounds[i])
  h.Record(1.5);   // <= 2.0     -> bucket 1
  h.Record(2.0);   // == bound   -> bucket 1
  h.Record(3.0);   // above last -> overflow bucket

  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_DOUBLE_EQ(h.Sum(), 8.0);
}

TEST(ObsHistogramTest, ResetZeroesCountsButKeepsBounds) {
  Histogram h({1.0});
  h.Record(0.5);
  h.Record(5.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.BucketCount(0), 0u);
  EXPECT_EQ(h.BucketCount(1), 0u);
  ASSERT_EQ(h.bounds().size(), 1u);
  EXPECT_EQ(h.bounds()[0], 1.0);
}

TEST(ObsHistogramTest, PercentileInterpolatesWithinTheCoveringBucket) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.Percentile(0.5), 0.0);  // Empty histogram.
  for (int i = 0; i < 10; ++i) h.Record(1.5);  // All in bucket (1, 2].
  // Rank q*10 sits at fraction q inside the covering bucket [1, 2].
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0.1), 1.1);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 2.0);
  // Out-of-range q values clamp.
  EXPECT_DOUBLE_EQ(h.Percentile(-0.5), h.Percentile(0.0));
  EXPECT_DOUBLE_EQ(h.Percentile(2.0), 2.0);
}

TEST(ObsHistogramTest, PercentileTailsOfASkewedDistribution) {
  // The serving-latency shape: 90 fast, 9 slow, 1 very slow.
  Histogram h({0.001, 0.01, 0.1, 1.0});
  for (int i = 0; i < 90; ++i) h.Record(0.0005);
  for (int i = 0; i < 9; ++i) h.Record(0.005);
  h.Record(0.05);
  // p50: rank 50 of 90 in [0, 0.001].
  EXPECT_DOUBLE_EQ(h.Percentile(0.50), 50.0 / 90.0 * 0.001);
  // p99: rank 99 is exactly the last of the 9 in (0.001, 0.01].
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 0.01);
  // p999: rank 99.9 interpolates 90% into (0.01, 0.1]. NEAR, not
  // DOUBLE_EQ: 0.999 * 100 rounds a few ulps above 99.9.
  EXPECT_NEAR(h.Percentile(0.999), 0.01 + 0.9 * 0.09, 1e-12);
}

TEST(ObsHistogramTest, PercentileInOverflowReportsLastFiniteBound) {
  Histogram h({1.0, 2.0});
  h.Record(0.5);
  h.Record(50.0);  // Overflow bucket.
  // Any rank landing in overflow cannot be resolved beyond the last
  // finite bound.
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.9), 2.0);
}

TEST(ObsHistogramTest, PercentileOfEmptyHistogramIsZeroForEveryQuantile) {
  // The pinned zero-sample contract: no NaN, no sentinel, no division by
  // the zero total — 0.0 across the whole q range, bounds or not.
  Histogram with_bounds({1.0, 2.0, 4.0});
  Histogram no_bounds((std::vector<double>()));
  for (double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_EQ(with_bounds.Percentile(q), 0.0) << q;
    EXPECT_EQ(no_bounds.Percentile(q), 0.0) << q;
  }
}

TEST(ObsHistogramTest, PercentileWithSingleSampleCoversAllQuantiles) {
  // One sample in (1, 2]: every q > 0 has target rank in (0, 1], so the
  // single covering bucket answers all of them by interpolation; q = 0
  // degenerates to the bucket's lower bound.
  Histogram h({1.0, 2.0, 4.0});
  h.Record(1.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 2.0);
}

TEST(ObsHistogramTest, PercentileWithAllSamplesInOverflowPinsLastBound) {
  // Every sample above the last finite bound: the histogram cannot
  // resolve any quantile beyond that bound, so all of them report it.
  Histogram h({1.0, 2.0});
  for (int i = 0; i < 5; ++i) h.Record(100.0);
  for (double q : {0.01, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(q), 2.0) << q;
  }
}

TEST(ObsHistogramTest, PercentileIsDeterministicOnQuiescentData) {
  Histogram a(DefaultLatencyBoundsSeconds());
  Histogram b(DefaultLatencyBoundsSeconds());
  for (int i = 0; i < 1000; ++i) {
    const double v = 1e-6 * static_cast<double>((i * 37) % 997);
    a.Record(v);
    b.Record(v);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.Percentile(q), b.Percentile(q)) << q;  // Bit-identical.
  }
}

TEST(ObsHistogramTest, DefaultLatencyBoundsAreDecades) {
  const std::vector<double>& b = DefaultLatencyBoundsSeconds();
  ASSERT_EQ(b.size(), 8u);
  EXPECT_EQ(b.front(), 1e-6);
  EXPECT_EQ(b.back(), 10.0);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(ObsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricRegistry reg;
  Counter* c1 = reg.GetCounter("reqs");
  Counter* c2 = reg.GetCounter("reqs");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.GetGauge("depth");
  EXPECT_EQ(g1, reg.GetGauge("depth"));
  Histogram* h1 = reg.GetHistogram("lat");
  EXPECT_EQ(h1, reg.GetHistogram("lat"));
}

TEST(ObsRegistryTest, CrossKindNameCollisionNeverAborts) {
  MetricRegistry reg;
  reg.GetCounter("x");
  // Same name as a different kind: served under a "!kind" suffix so the
  // caller still gets a live metric and serving never aborts.
  Gauge* g = reg.GetGauge("x");
  ASSERT_NE(g, nullptr);
  g->Set(7.0);
  std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"x!gauge\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"x\": 0"), std::string::npos);
}

TEST(ObsRegistryTest, SnapshotKeysAreSorted) {
  MetricRegistry reg;
  // Created out of order; the snapshot must render bytewise-sorted.
  reg.GetCounter("zebra")->Add(1);
  reg.GetCounter("alpha")->Add(2);
  reg.GetCounter("mango")->Add(3);
  std::string json = reg.SnapshotJson();
  size_t a = json.find("\"alpha\"");
  size_t m = json.find("\"mango\"");
  size_t z = json.find("\"zebra\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

TEST(ObsRegistryTest, EmptySnapshotIsStable) {
  MetricRegistry reg;
  const std::string expected =
      "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n";
  EXPECT_EQ(reg.SnapshotJson(), expected);
}

TEST(ObsRegistryTest, SnapshotIsByteStableAcrossCalls) {
  MetricRegistry reg;
  reg.GetCounter("docs")->Add(12);
  reg.GetGauge("workers")->Set(4.0);
  reg.GetHistogram("stage", {0.5, 1.0})->Record(0.25);
  std::string first = reg.SnapshotJson();
  std::string second = reg.SnapshotJson();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"docs\": 12"), std::string::npos);
  EXPECT_NE(first.find("\"workers\": 4"), std::string::npos);
  EXPECT_NE(first.find("\"le\": \"+Inf\""), std::string::npos);
}

TEST(ObsRegistryTest, ResetAllForTestingZeroesEverything) {
  MetricRegistry reg;
  reg.GetCounter("c")->Add(5);
  reg.GetGauge("g")->Set(5.0);
  reg.GetHistogram("h")->Record(0.5);
  reg.ResetAllForTesting();
  EXPECT_EQ(reg.GetCounter("c")->Value(), 0u);
  EXPECT_EQ(reg.GetGauge("g")->Value(), 0.0);
  EXPECT_EQ(reg.GetHistogram("h")->Count(), 0u);
}

TEST(ObsRegistryTest, ConcurrentUpdatesAreLossless) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("hits");
  Histogram* h = reg.GetHistogram("lat", {1.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->Count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->BucketCount(0), uint64_t{kThreads} * kPerThread);
}

TEST(ObsClockTest, FakeClockAdvancesExactly) {
  FakeClock clock(1000);
  EXPECT_EQ(clock.NowNanos(), 1000);
  clock.AdvanceNanos(500);
  EXPECT_EQ(clock.NowNanos(), 1500);
  clock.AdvanceSeconds(2.0);
  EXPECT_EQ(clock.NowNanos(), 1500 + 2000000000);
  EXPECT_DOUBLE_EQ(clock.SecondsSince(1500), 2.0);
  clock.SetNanos(0);
  EXPECT_EQ(clock.NowNanos(), 0);
}

TEST(ObsClockTest, RealClockIsMonotonic) {
  const Clock& clock = RealClock();
  int64_t a = clock.NowNanos();
  int64_t b = clock.NowNanos();
  EXPECT_LE(a, b);
}

TEST(ObsStageTimerTest, RecordsExactFakeClockAdvance) {
  FakeClock clock;
  Histogram h({1e-3, 1.0});
  {
    StageTimer timer(&h, &clock);
    clock.AdvanceSeconds(0.5);
  }
  ASSERT_EQ(h.Count(), 1u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5);
  EXPECT_EQ(h.BucketCount(1), 1u);  // 1e-3 < 0.5 <= 1.0
}

TEST(ObsStageTimerTest, StopRecordsOnceAndReturnsElapsed) {
  FakeClock clock;
  Histogram h({1.0});
  StageTimer timer(&h, &clock);
  clock.AdvanceSeconds(0.25);
  EXPECT_DOUBLE_EQ(timer.Stop(), 0.25);
  clock.AdvanceSeconds(10.0);
  EXPECT_DOUBLE_EQ(timer.Stop(), 0.25);  // Second Stop is a no-op.
  EXPECT_EQ(h.Count(), 1u);              // Destructor must not re-record.
}

TEST(ObsStageTimerTest, RegistryTimerUsesInjectedClock) {
  MetricRegistry reg;
  FakeClock clock;
  reg.SetClockForTesting(&clock);
  {
    StageTimer timer(&reg, "stage.lat");
    clock.AdvanceSeconds(0.003);
  }
  Histogram* h = reg.GetHistogram("stage.lat");
  ASSERT_EQ(h->Count(), 1u);
  EXPECT_DOUBLE_EQ(h->Sum(), 0.003);
}

TEST(ObsStageTimerTest, SnapshotWithFakeClockIsExact) {
  MetricRegistry reg;
  FakeClock clock;
  reg.SetClockForTesting(&clock);
  {
    StageTimer timer(&reg, "t");
    clock.AdvanceSeconds(0.01);
  }
  const std::string expected =
      "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {\n"
      "    \"t\": {\"count\": 1, \"sum\": 0.01, \"buckets\": "
      "[{\"le\": 9.9999999999999995e-07, \"count\": 0}, "
      "{\"le\": 1.0000000000000001e-05, \"count\": 0}, "
      "{\"le\": 0.0001, \"count\": 0}, "
      "{\"le\": 0.001, \"count\": 0}, "
      "{\"le\": 0.01, \"count\": 1}, "
      "{\"le\": 0.10000000000000001, \"count\": 0}, "
      "{\"le\": 1, \"count\": 0}, "
      "{\"le\": 10, \"count\": 0}, "
      "{\"le\": \"+Inf\", \"count\": 0}]}\n  }\n}\n";
  EXPECT_EQ(reg.SnapshotJson(), expected);
}

TEST(ObsHooksTest, MacrosReportIntoGlobalRegistry) {
  MetricRegistry& reg = MetricRegistry::Global();
  uint64_t before = reg.GetCounter("obs_test.hook_events")->Value();
  CKR_OBS_COUNTER_INC("obs_test.hook_events");
  CKR_OBS_COUNTER_ADD("obs_test.hook_events", 2);
  EXPECT_EQ(reg.GetCounter("obs_test.hook_events")->Value(), before + 3);

  CKR_OBS_GAUGE_SET("obs_test.hook_gauge", 12.5);
  EXPECT_EQ(reg.GetGauge("obs_test.hook_gauge")->Value(), 12.5);

  uint64_t hist_before = reg.GetHistogram("obs_test.hook_hist")->Count();
  CKR_OBS_HISTOGRAM_RECORD("obs_test.hook_hist", 0.5);
  EXPECT_EQ(reg.GetHistogram("obs_test.hook_hist")->Count(), hist_before + 1);
}

TEST(ObsHooksTest, ScopedTimerMacroRecords) {
  MetricRegistry& reg = MetricRegistry::Global();
  uint64_t before = reg.GetHistogram("obs_test.scoped")->Count();
  {
    CKR_OBS_SCOPED_TIMER("obs_test.scoped");
  }
  EXPECT_EQ(reg.GetHistogram("obs_test.scoped")->Count(), before + 1);
}

// The runtime Stemmer's memo counters: one hit or miss per token, a reset
// whenever a non-empty memo is dropped, all added once per document.
TEST(ObsHooksTest, StemMemoCountersPerDocument) {
  EntityDetector detector({{"brown cats", EntityType::kConcept, 0}}, nullptr);
  GlobalTidTable tids;
  tids.Intern("cat");
  ConceptStore concepts;
  concepts.Finalize(&tids);
  RuntimeRanker a(detector, concepts, tids, RankSvmModel());
  RuntimeRanker b(detector, concepts, tids, RankSvmModel());

  MetricRegistry& reg = MetricRegistry::Global();
  Counter* hits = reg.GetCounter("ckr.runtime.stem_memo_hits");
  Counter* misses = reg.GetCounter("ckr.runtime.stem_memo_misses");
  Counter* resets = reg.GetCounter("ckr.runtime.stem_memo_resets");
  uint64_t h = hits->Value(), m = misses->Value(), r = resets->Value();
  auto expect_delta = [&](uint64_t dh, uint64_t dm, uint64_t dr) {
    EXPECT_EQ(hits->Value() - h, dh);
    EXPECT_EQ(misses->Value() - m, dm);
    EXPECT_EQ(resets->Value() - r, dr);
    h = hits->Value(), m = misses->Value(), r = resets->Value();
  };

  // 6 tokens, 4 distinct forms ("the" twice, "cats" twice).
  const std::string doc = "The cats chased the brown cats.";
  RankerScratch scratch;
  a.ProcessDocument(doc, &scratch, nullptr);
  expect_delta(2, 4, 0);
  a.ProcessDocument(doc, &scratch, nullptr);
  expect_delta(6, 0, 0);
  b.ProcessDocument(doc, &scratch, nullptr);  // Another ranker: dropped.
  expect_delta(2, 4, 1);
  tids.Intern("chase");  // The table grew: dropped again.
  b.ProcessDocument(doc, &scratch, nullptr);
  expect_delta(2, 4, 1);
}

}  // namespace
}  // namespace obs
}  // namespace ckr
