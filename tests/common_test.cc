// Unit tests for ckr_common: Status, RNG, samplers, hashing, strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cwchar>
#include <map>
#include <set>

#include "common/epoch_set.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace ckr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("k must be > 0");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "k must be > 0");
  EXPECT_EQ(s.ToString(), "InvalidArgument: k must be > 0");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<StatusCode> codes;
  codes.insert(Status::InvalidArgument("").code());
  codes.insert(Status::NotFound("").code());
  codes.insert(Status::AlreadyExists("").code());
  codes.insert(Status::OutOfRange("").code());
  codes.insert(Status::FailedPrecondition("").code());
  codes.insert(Status::Internal("").code());
  codes.insert(Status::IOError("").code());
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

Status FailThenPropagate() {
  CKR_RETURN_IF_ERROR(Status::Internal("boom"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  Status s = FailThenPropagate();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedCoversRangeUniformly) {
  Rng rng(99);
  std::map<uint64_t, int> counts;
  const int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(6)];
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [value, count] : counts) {
    EXPECT_LT(value, 6u);
    // Each bucket should hold ~1/6 of draws (10000), within 10%.
    EXPECT_NEAR(count, kDraws / 6, kDraws / 60);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(1234);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRateMatchesP) {
  Rng rng(8);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(10);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextCategorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

// The prefix-sum sampler must pick exactly the index the linear scan
// picks, draw for draw, so swapping one for the other changes no output.
TEST(CategoricalSamplerTest, SameIndexSequenceAsNextCategorical) {
  Rng gen(2024);
  std::vector<std::vector<double>> cases = {
      {5.0},
      {0.0, 0.0, 1.0},
      {1.0, 0.0, 0.0},
      {0.0, 2.5, 0.0, 0.0, 7.0, 0.0},
      {1e-300, 1.0, 1e300},
  };
  for (size_t n : {2u, 7u, 64u, 1600u}) {
    std::vector<double> w(n);
    for (double& x : w) x = gen.NextDouble();
    cases.push_back(w);
    // Zeros sprinkled through, plus leading and trailing runs.
    for (size_t i = 0; i < n; ++i) {
      if (gen.NextBernoulli(0.3)) w[i] = 0.0;
    }
    w.front() = 0.0;
    w.back() = 0.0;
    w[n / 2] = 1.0;  // Keep the total positive (at n = 2, the back).
    cases.push_back(w);
    // The query generator's shape: a floor plus a squared popularity.
    for (double& x : w) x = 0.01 + gen.NextDouble() * gen.NextDouble();
    cases.push_back(w);
  }
  for (size_t c = 0; c < cases.size(); ++c) {
    const CategoricalSampler sampler(cases[c]);
    Rng scan(c + 1);
    Rng bisect(c + 1);
    for (int draw = 0; draw < 20000; ++draw) {
      const size_t want = scan.NextCategorical(cases[c]);
      ASSERT_EQ(sampler.Sample(bisect), want)
          << "case " << c << " draw " << draw;
    }
    EXPECT_EQ(scan.Next(), bisect.Next()) << "case " << c;
  }
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(21);
  auto perm = rng.Permutation(50);
  std::set<size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, ForkedStreamsAreDecorrelated) {
  Rng parent(42);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(1000, 1.1);
  double total = 0;
  for (size_t r = 1; r <= 1000; ++r) total += zipf.Pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, RankOneMostFrequent) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(77);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  // Monotone-ish decay: rank 1 beats rank 10 beats rank 100.
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
}

TEST(ZipfTest, SampleInRange) {
  ZipfSampler zipf(10, 1.5);
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    size_t r = zipf.Sample(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 10u);
  }
}

TEST(HashTest, Fnv1aKnownValues) {
  // FNV-1a 64 reference: hash of "" is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("concept"), Fnv1a64("concept"));
}

TEST(HashTest, Mix64Avalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t a = Mix64(0x1234567890abcdefULL);
  uint64_t b = Mix64(0x1234567890abcdeeULL);
  int diff = __builtin_popcountll(a ^ b);
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  auto parts = SplitString("a,,b, c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, "-"), "x-y-z");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("Hello WORLD 123"), "hello world 123");
}

TEST(StringUtilTest, TrimView) {
  EXPECT_EQ(TrimView("  hi \n"), "hi");
  EXPECT_EQ(TrimView("\t\n  "), "");
  EXPECT_EQ(TrimView("abc"), "abc");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("contextual", "con"));
  EXPECT_FALSE(StartsWith("con", "contextual"));
  EXPECT_TRUE(EndsWith("ranking", "ing"));
  EXPECT_FALSE(EndsWith("ing", "ranking"));
}

TEST(ParallelTest, CoversAllIndicesOnce) {
  for (unsigned threads : {0u, 1u, 2u, 4u, 16u}) {
    std::vector<int> hits(1000, 0);
    ParallelFor(hits.size(), threads, [&](size_t i) { ++hits[i]; });
    for (int h : hits) ASSERT_EQ(h, 1) << "threads=" << threads;
  }
}

TEST(ParallelTest, EmptyAndSingle) {
  ParallelFor(0, 8, [](size_t) { FAIL() << "must not be called"; });
  int calls = 0;
  ParallelFor(1, 8, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, MoreThreadsThanWork) {
  std::vector<int> hits(3, 0);
  ParallelFor(hits.size(), 64, [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0] + hits[1] + hits[2], 3);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringUtilTest, StrFormatEncodingErrorReturnsSentinel) {
  // A wide character outside the encodable range makes vsnprintf return
  // a negative count (EILSEQ). The result must be the distinguishable
  // sentinel, never a silently empty string or a (size_t)-1 resize.
  EXPECT_EQ(StrFormat("%lc", static_cast<wint_t>(0x110000)), "<format-error>");
  const wchar_t bad[2] = {static_cast<wchar_t>(0x110000), L'\0'};
  EXPECT_EQ(StrFormat("before %ls after", bad), "<format-error>");
  // A legitimately empty expansion stays "", not the sentinel.
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(ParallelWorkersTest, CoversAllIndicesOnceWithValidWorkerIds) {
  for (unsigned threads : {0u, 1u, 2u, 4u, 16u}) {
    std::vector<int> hits(1000, 0);
    std::vector<std::atomic<int>> worker_hits(16);
    ParallelForWorkers(hits.size(), threads, [&](unsigned worker, size_t i) {
      ASSERT_LT(worker, std::max(threads, 1u));
      ++hits[i];
      ++worker_hits[worker];
    });
    for (int h : hits) ASSERT_EQ(h, 1) << "threads=" << threads;
    int total = 0;
    for (auto& w : worker_hits) total += w.load();
    EXPECT_EQ(total, 1000) << "threads=" << threads;
  }
}

TEST(ParallelWorkersTest, EmptySingleAndOversubscribed) {
  ParallelForWorkers(0, 8, [](unsigned, size_t) {
    FAIL() << "must not be called";
  });
  int calls = 0;
  ParallelForWorkers(1, 8, [&](unsigned worker, size_t i) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  std::vector<int> hits(3, 0);
  ParallelForWorkers(hits.size(), 64, [&](unsigned, size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0] + hits[1] + hits[2], 3);
}

TEST(EpochSetTest, InsertContainsAndDuplicates) {
  EpochSet set;
  set.Reset(100);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.Insert(5));
  EXPECT_TRUE(set.Insert(99));
  EXPECT_FALSE(set.Insert(5));  // Duplicate.
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(5));
  EXPECT_TRUE(set.Contains(99));
  EXPECT_FALSE(set.Contains(0));
  // Out of universe: rejected by both operations.
  EXPECT_FALSE(set.Insert(100));
  EXPECT_FALSE(set.Contains(100));
}

TEST(EpochSetTest, ResetClearsWithoutShrinkingUniverse) {
  EpochSet set;
  set.Reset(10);
  for (uint32_t v = 0; v < 10; ++v) EXPECT_TRUE(set.Insert(v));
  set.Reset(10);
  EXPECT_EQ(set.size(), 0u);
  for (uint32_t v = 0; v < 10; ++v) EXPECT_FALSE(set.Contains(v));
  EXPECT_TRUE(set.Insert(3));
  // Growing the universe preserves O(1) clearing semantics.
  set.Reset(1000);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(999));
  EXPECT_TRUE(set.Contains(999));
}

TEST(EpochSetTest, ManyResetsStayCorrect) {
  EpochSet set;
  for (int round = 0; round < 1000; ++round) {
    set.Reset(16);
    uint32_t v = static_cast<uint32_t>(round % 16);
    EXPECT_FALSE(set.Contains(v));
    EXPECT_TRUE(set.Insert(v));
    EXPECT_TRUE(set.Contains(v));
  }
}

}  // namespace
}  // namespace ckr
