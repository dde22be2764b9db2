// Pins the benchmark's arithmetic: nearest-rank percentiles, operation
// and failure counting, counter-delta ratios, span self time and the
// tracer's per-request totals.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_math.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(NearestRankTest, PicksAMeasuredSampleAtCeilRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(NearestRank(v, 0.5), 3);   // ceil(2.5) = 3rd smallest.
  EXPECT_EQ(NearestRank(v, 0.2), 1);   // ceil(1.0) = 1st: exact ranks hold.
  EXPECT_EQ(NearestRank(v, 0.21), 2);  // Just above a rank rounds up.
  EXPECT_EQ(NearestRank(v, 1.0), 5);
  EXPECT_EQ(NearestRank(v, 0.0), 1);
}

TEST(NearestRankTest, NinetyNinthOfAHundredIsTheNinetyNinthSample) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // 0.99 * 100 is not exactly 99 in binary; the rank must not slip to 100.
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 0.50), 50);
  v.push_back(101);
  EXPECT_EQ(NearestRank(v, 0.99), 100);  // ceil(99.99) = 100.
}

TEST(NearestRankTest, EmptyAndSingle) {
  std::vector<double> empty;
  EXPECT_EQ(NearestRank(empty, 0.5), 0.0);
  std::vector<double> one = {7.5};
  EXPECT_EQ(NearestRank(one, 0.5), 7.5);
  EXPECT_EQ(NearestRank(one, 0.99), 7.5);
}

TEST(OpCountsTest, OnlyVerifiedOperationsCountTowardThroughput) {
  OpCounts ops;
  for (int i = 0; i < 8; ++i) ops.Record(true);
  ops.Record(false);
  ops.Record(false);
  EXPECT_EQ(ops.attempted, 10u);
  EXPECT_EQ(ops.failed, 2u);
  EXPECT_EQ(ops.succeeded(), 8u);
  EXPECT_DOUBLE_EQ(ops.OpsPerSecond(2.0), 4.0);
  EXPECT_EQ(ops.OpsPerSecond(0.0), 0.0);
}

TEST(DeltaRatioTest, UsesDeltasNotTotals) {
  // 30 of 40 new attempts were useful; the totals before do not matter.
  EXPECT_DOUBLE_EQ(DeltaRatio(100, 130, 1000, 1040), 0.75);
  // Nothing attempted in the phase: 0, never NaN.
  EXPECT_EQ(DeltaRatio(5, 5, 9, 9), 0.0);
}

TEST(FingerprintTest, Fnv1aKnownValueAndScoreBits) {
  // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
  EXPECT_EQ(Fnv1a(kFnvOffset, "a", 1), 0xaf63dc4c8601ec8cull);
  // Scores hash by bits: +0.0 and -0.0 differ.
  EXPECT_NE(Fnv1aDouble(kFnvOffset, 0.0), Fnv1aDouble(kFnvOffset, -0.0));
}

TEST(SelfTimeTest, DurationMinusChildCoverage) {
  std::vector<Span> spans = {
      {"root", 1, -1, 0, 100},
      {"a", 1, 0, 10, 40},
      {"b", 1, 0, 30, 60},   // Overlaps a: the union is [10, 60).
      {"c", 1, 1, 15, 20},   // Grandchild: covers a, not root.
      {"d", 1, 0, 90, 120},  // Runs past the root: clipped to [90, 100).
  };
  EXPECT_EQ(SelfTimeNs(spans, 0), 100 - 50 - 10);
  EXPECT_EQ(SelfTimeNs(spans, 1), 30 - 5);
  EXPECT_EQ(SelfTimeNs(spans, 2), 30);
  EXPECT_EQ(SelfTimeNs(spans, 3), 5);
}

TEST(UnionCoveredTest, DisjointTouchingAndEmpty) {
  EXPECT_EQ(UnionCoveredNs({{0, 10}, {10, 20}, {30, 35}}, 0, 100), 25);
  EXPECT_EQ(UnionCoveredNs({{5, 5}}, 0, 100), 0);
  EXPECT_EQ(UnionCoveredNs({}, 0, 100), 0);
}

TEST(TracerTest, MeanSelfTimeAndCoveragePerRequest) {
  Tracer t(100);
  for (uint64_t r = 0; r < 2; ++r) {
    t.Begin(r);
    const int32_t root = t.Add("client", -1, 0, 0);
    t.Add("shard", root, 10, 30);  // Two shard spans per request.
    t.Add("shard", root, 30, 60);
    t.SetEnd(root, 100);
    t.End();
  }
  EXPECT_DOUBLE_EQ(t.MeanSelfUs("shard"), 50 / 1e3);  // Summed per request.
  EXPECT_DOUBLE_EQ(t.MeanSelfUs("client"), 50 / 1e3);
  EXPECT_DOUBLE_EQ(t.Coverage("client"), 0.5);
  EXPECT_EQ(t.MeanSelfUs("absent"), 0.0);
  EXPECT_EQ(t.kept(), 6u);
}

TEST(TracerTest, MergeAddsTotalsAndCapsTheDump) {
  Tracer a(3);
  Tracer b(3);
  for (Tracer* t : {&a, &b}) {
    t->Begin(0);
    t->Add("client", -1, 0, 10);
    t->Add("leaf", 0, 0, 4);
    t->End();
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.MeanSelfUs("leaf"), 4 / 1e3);
  EXPECT_DOUBLE_EQ(a.Coverage("client"), 0.4);
  EXPECT_EQ(a.kept(), 3u);
  EXPECT_EQ(a.dropped(), 1u);
}

TEST(TracerTest, WritesOneLinePerKeptSpan) {
  Tracer t(10);
  t.Begin(7);
  t.Add("client", -1, 1000, 1010);
  t.Add("leaf", 0, 1002, 1004);
  t.End();
  const std::string path = testing::TempDir() + "perfbench_spans.tsv";
  ASSERT_TRUE(t.WriteTsv(path, 1000));
  std::ifstream in(path);
  std::string header, root, leaf;
  std::getline(in, header);
  std::getline(in, root);
  std::getline(in, leaf);
  EXPECT_EQ(root, "7\t0\t-1\tclient\t0\t10");
  EXPECT_EQ(leaf, "7\t1\t0\tleaf\t2\t4");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench
