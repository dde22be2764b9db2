// Parameterized property suites: invariants swept over parameter grids
// (TEST_P / INSTANTIATE_TEST_SUITE_P), plus randomized cross-checks of
// optimized components against brute-force references.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "corpus/document.h"
#include "detect/aho_corasick.h"
#include "index/inverted_index.h"
#include "index/legacy_index.h"
#include "eval/metrics.h"
#include "framework/bitstream.h"
#include "framework/golomb.h"
#include "obs/clock.h"
#include "ranksvm/rank_svm.h"
#include "serve/sharded_index.h"
#include "text/porter_stemmer.h"
#include "text/sentence.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

// ---------- Golomb coding over a parameter grid ----------

class GolombSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GolombSweep, RoundTripRandomValues) {
  const uint64_t m = GetParam();
  Rng rng(m * 977 + 1);
  std::vector<uint8_t> bytes;
  BitWriter writer(&bytes);
  std::vector<uint64_t> values;
  for (int i = 0; i < 200; ++i) {
    uint64_t v = rng.NextBounded(1 + m * 20);
    values.push_back(v);
    GolombEncode(v, m, &writer);
  }
  writer.Finish();
  BitReader reader(bytes);
  for (uint64_t v : values) {
    ASSERT_EQ(GolombDecode(m, &reader), v) << "m=" << m;
  }
  EXPECT_FALSE(reader.overflow());
}

INSTANTIATE_TEST_SUITE_P(Parameters, GolombSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 31,
                                           64, 100, 1000));

// ---------- Window partitioning over (size, window, overlap) ----------

class WindowSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(WindowSweep, CoverageStrideAndBounds) {
  auto [text_size, window, overlap] = GetParam();
  if (overlap >= window) {
    GTEST_SKIP() << "invalid combination (API requires overlap < window)";
  }
  auto spans = PartitionIntoWindows(text_size, window, overlap);
  if (text_size == 0) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().begin, 0u);
  EXPECT_EQ(spans.back().end, text_size);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_LT(spans[i].begin, spans[i].end);
    EXPECT_LE(spans[i].size(), window);
    if (i > 0) {
      EXPECT_EQ(spans[i].begin, spans[i - 1].begin + (window - overlap));
      EXPECT_LE(spans[i].begin, spans[i - 1].end);  // No gaps.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Parameters, WindowSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 100u, 2499u, 2500u, 2501u,
                                         9999u, 20000u),
                       ::testing::Values(2500u, 1000u, 300u),
                       ::testing::Values(0u, 100u, 500u)));

// ---------- Zipf sampler over (n, exponent) ----------

class ZipfSweep
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(ZipfSweep, PmfNormalizedAndMonotone) {
  auto [n, exponent] = GetParam();
  ZipfSampler zipf(n, exponent);
  double total = 0;
  for (size_t r = 1; r <= n; ++r) {
    total += zipf.Pmf(r);
    if (r > 1) {
      EXPECT_LE(zipf.Pmf(r), zipf.Pmf(r - 1) + 1e-15);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  Rng rng(static_cast<uint64_t>(static_cast<double>(n * 1000) +
                                 exponent * 10));
  for (int i = 0; i < 1000; ++i) {
    size_t r = zipf.Sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Parameters, ZipfSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 10u, 100u, 5000u),
                       ::testing::Values(0.5, 1.0, 1.07, 1.5, 2.0)));

// ---------- Porter stemmer over random pseudo-words ----------

class StemmerSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StemmerSweep, OutputIsSaneForRandomWords) {
  Rng rng(GetParam());
  const char alphabet[] = "abcdefghijklmnopqrstuvwxyz";
  for (int i = 0; i < 500; ++i) {
    size_t len = 1 + rng.NextBounded(14);
    std::string word;
    for (size_t c = 0; c < len; ++c) {
      word.push_back(alphabet[rng.NextBounded(26)]);
    }
    std::string stem = PorterStem(word);
    ASSERT_FALSE(stem.empty()) << word;
    EXPECT_LE(stem.size(), word.size() + 1) << word;  // "+1": -iz -> -ize.
    // Stem is a lower-case alphabetic string.
    for (char c : stem) {
      EXPECT_TRUE(c >= 'a' && c <= 'z') << word << " -> " << stem;
    }
    // Stemming never touches words of length <= 2.
    if (word.size() <= 2) {
      EXPECT_EQ(stem, word);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StemmerSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- Tokenizer offsets over random byte soup ----------

class TokenizerSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerSweep, OffsetsAlwaysConsistent) {
  Rng rng(GetParam());
  const char charset[] =
      "abc XYZ 019 .,!?()'\"\t\n-@/:;sS";
  for (int trial = 0; trial < 60; ++trial) {
    size_t len = rng.NextBounded(300);
    std::string text;
    for (size_t i = 0; i < len; ++i) {
      text.push_back(charset[rng.NextBounded(sizeof(charset) - 1)]);
    }
    for (const Token& tok : Tokenize(text)) {
      ASSERT_LT(tok.begin, tok.end);
      ASSERT_LE(tok.end, text.size());
      // The slice is the surface form; lower-cased and with a possessive
      // "'s" stripped, it is exactly the normalized text.
      std::string surface = ToLowerAscii(
          std::string_view(text).substr(tok.begin, tok.end - tok.begin));
      if (surface.size() > 2 && EndsWith(surface, "'s")) {
        surface.resize(surface.size() - 2);
      }
      EXPECT_EQ(surface, tok.text);
      EXPECT_FALSE(tok.text.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerSweep,
                         ::testing::Values(11, 22, 33));

// ---------- Pairwise error metric properties ----------

class MetricsSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsSweep, ErrorRateBoundsAndExtremes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 2 + rng.NextBounded(10);
    std::vector<double> ctr(n), pred(n);
    for (size_t i = 0; i < n; ++i) {
      ctr[i] = rng.NextDouble();
      pred[i] = rng.NextDouble();
    }
    for (bool weighted : {false, true}) {
      double e = PairwiseErrorRate(pred, ctr, weighted);
      ASSERT_GE(e, 0.0);
      ASSERT_LE(e, 1.0);
      // Ranking by the labels themselves is perfect; by their negation,
      // maximally wrong.
      EXPECT_DOUBLE_EQ(PairwiseErrorRate(ctr, ctr, weighted), 0.0);
      std::vector<double> neg(n);
      for (size_t i = 0; i < n; ++i) neg[i] = -ctr[i];
      EXPECT_DOUBLE_EQ(PairwiseErrorRate(neg, ctr, weighted), 1.0);
      // Complement property: flipping the prediction flips the error.
      double flipped = PairwiseErrorRate(neg, ctr, weighted);
      EXPECT_NEAR(e + PairwiseErrorRate(pred, ctr, weighted), e + e, 1e-12);
      (void)flipped;
    }
  }
}

TEST_P(MetricsSweep, NdcgBoundsAndPerfection) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 1 + rng.NextBounded(12);
    std::vector<double> ctr(n), pred(n);
    for (size_t i = 0; i < n; ++i) {
      ctr[i] = rng.NextDouble() * 0.2;
      pred[i] = rng.NextDouble();
    }
    CtrBucketizer buckets(ctr);
    for (size_t k = 1; k <= 3; ++k) {
      double x = NdcgAtK(pred, ctr, buckets, k);
      ASSERT_GE(x, 0.0);
      ASSERT_LE(x, 1.0 + 1e-12);
      EXPECT_NEAR(NdcgAtK(ctr, ctr, buckets, k), 1.0, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsSweep, ::testing::Values(7, 17, 27));

// ---------- Aho-Corasick vs brute force ----------

class AhoCorasickSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AhoCorasickSweep, MatchesBruteForceOnRandomStreams) {
  Rng rng(GetParam());
  const char* vocab[] = {"a", "b", "c", "d", "e"};
  for (int trial = 0; trial < 20; ++trial) {
    // Random patterns of 1-3 tokens.
    PhraseMatcher matcher;
    std::vector<std::vector<std::string>> patterns;
    size_t n_patterns = 1 + rng.NextBounded(8);
    std::set<std::string> seen_phrases;
    for (size_t p = 0; p < n_patterns; ++p) {
      size_t len = 1 + rng.NextBounded(3);
      std::vector<std::string> pat;
      std::string phrase;
      for (size_t t = 0; t < len; ++t) {
        pat.push_back(vocab[rng.NextBounded(5)]);
        if (t > 0) phrase += " ";
        phrase += pat.back();
      }
      if (!seen_phrases.insert(phrase).second) continue;
      ASSERT_TRUE(
          matcher.AddPhrase(phrase, static_cast<uint32_t>(patterns.size()))
              .ok());
      patterns.push_back(pat);
    }
    matcher.Build();

    // Random token stream.
    std::vector<std::string> tokens;
    size_t stream_len = rng.NextBounded(60);
    for (size_t i = 0; i < stream_len; ++i) {
      tokens.emplace_back(vocab[rng.NextBounded(5)]);
    }

    // Brute force: every (start, pattern) pair.
    std::set<std::tuple<uint32_t, uint32_t, uint32_t>> expected;
    for (uint32_t p = 0; p < patterns.size(); ++p) {
      const auto& pat = patterns[p];
      for (uint32_t s = 0; s + pat.size() <= tokens.size(); ++s) {
        bool match = true;
        for (size_t t = 0; t < pat.size(); ++t) {
          if (tokens[s + t] != pat[t]) {
            match = false;
            break;
          }
        }
        if (match) {
          expected.insert({s, static_cast<uint32_t>(pat.size()), p});
        }
      }
    }
    std::set<std::tuple<uint32_t, uint32_t, uint32_t>> actual;
    for (const PhraseMatch& m : matcher.FindAll(tokens)) {
      actual.insert({m.token_begin, m.token_count, m.payload});
    }
    ASSERT_EQ(actual, expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AhoCorasickSweep,
                         ::testing::Values(101, 202, 303, 404));

// ---------- RankSVM learnability across problem shapes ----------

class RankSvmSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(RankSvmSweep, LearnsAcrossShapes) {
  auto [dim, group_size] = GetParam();
  Rng rng(dim * 131 + group_size);
  std::vector<double> w(dim);
  for (double& x : w) x = rng.NextGaussian();
  std::vector<RankingInstance> data;
  for (size_t i = 0; i < 300; ++i) {
    RankingInstance inst;
    inst.features.resize(dim);
    double score = 0;
    for (size_t d = 0; d < dim; ++d) {
      inst.features[d] = rng.NextGaussian();
      score += w[d] * inst.features[d];
    }
    inst.label = score;
    inst.group = static_cast<uint32_t>(i / group_size);
    data.push_back(std::move(inst));
  }
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  size_t correct = 0, total = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = i + 1; j < data.size(); ++j) {
      if (data[i].group != data[j].group) continue;
      ++total;
      double si = model->Score(data[i].features);
      double sj = model->Score(data[j].features);
      if ((si > sj) == (data[i].label > data[j].label)) ++correct;
    }
  }
  ASSERT_GT(total, 50u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.92)
      << "dim=" << dim << " group=" << group_size;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RankSvmSweep,
    ::testing::Combine(::testing::Values(1u, 3u, 8u, 17u),
                       ::testing::Values(2u, 5u, 10u)));

// ---------- Top-k evaluator equivalence over random corpora ----------
//
// MaxScore and Block-Max-WAND prune with bounds that dominate the exact
// scores with zero slack (index/block_max_index.h), so on ANY corpus and
// query they must return exactly the exhaustive top-k — same docs, same
// order, bit-identical doubles. This sweep hammers that claim with random
// Zipf-ish corpora and random multi-term queries.

class EvaluatorSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorSweep, PrunedTopKIsBitIdenticalToExhaustive) {
  Rng rng(GetParam());
  InvertedIndex index;
  const size_t num_docs = 150 + rng.NextBounded(250);
  for (size_t d = 0; d < num_docs; ++d) {
    std::string text;
    const size_t len = 3 + rng.NextBounded(50);
    for (size_t i = 0; i < len; ++i) {
      // Zipf-ish: skewed list lengths exercise skipping; a small head
      // vocabulary forces frequent score ties.
      const uint64_t u = rng.NextBounded(100);
      const uint64_t term = u < 55   ? rng.NextBounded(6)
                            : u < 85 ? 6 + rng.NextBounded(30)
                                     : 36 + rng.NextBounded(300);
      text += "w" + std::to_string(term) + " ";
    }
    Document doc;
    doc.id = static_cast<DocId>(d * 3 + 1);
    doc.text = std::move(text);
    index.Add(std::move(doc));
  }
  index.Finalize();

  for (int q = 0; q < 40; ++q) {
    std::string query;
    const size_t terms = 1 + rng.NextBounded(6);
    for (size_t t = 0; t < terms; ++t) {
      query += "w" + std::to_string(rng.NextBounded(340)) + " ";
    }
    for (size_t k : {1u, 10u, 50u}) {
      const auto oracle = index.Search(query, k);
      for (QueryEvaluator evaluator :
           {QueryEvaluator::kMaxScore, QueryEvaluator::kBlockMaxWand}) {
        const auto got = index.Search(query, k, Bm25Params{}, evaluator);
        ASSERT_EQ(oracle.size(), got.size())
            << "query=" << query << " k=" << k;
        for (size_t i = 0; i < oracle.size(); ++i) {
          ASSERT_EQ(oracle[i].doc, got[i].doc)
              << "query=" << query << " k=" << k << " rank=" << i;
          // Bit-identity, not tolerance: the pruned evaluators sum the
          // same doubles in the same order as the exhaustive scorer.
          ASSERT_EQ(oracle[i].score, got[i].score)
              << "query=" << query << " k=" << k << " rank=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorSweep,
                         ::testing::Values(11u, 23u, 37u, 51u),
                         [](const auto& pinfo) {
                           return "Seed" + std::to_string(pinfo.param);
                         });

// ---------- Sharded scatter/gather exactness (the serving contract) -----
//
// Doc-partitioned sharding with merged collection stats must be
// *bit-identical* to the single-index oracle: every document carries the
// same tf/length/norm/idf in its shard as in the union (the stats
// override), each shard's local top-k is exact under the total ranking
// order, and the merge uses the same comparator — so the global top-k is
// reproduced score-bit for score-bit at ANY shard count, under every
// evaluator.

class ShardedSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(ShardedSweep, TopKIsBitIdenticalToSingleIndexOracle) {
  auto [seed, num_shards] = GetParam();
  Rng rng(seed);
  const size_t num_docs = 180 + rng.NextBounded(200);

  // Oracle over the union, plus one shard per contiguous range. The
  // skewed vocabulary (as in EvaluatorSweep) forces long postings and
  // frequent cross-shard score ties.
  InvertedIndex oracle;
  std::vector<std::unique_ptr<InvertedIndex>> shards;
  for (size_t s = 0; s < num_shards; ++s) {
    shards.push_back(std::make_unique<InvertedIndex>());
  }
  for (size_t d = 0; d < num_docs; ++d) {
    std::string text;
    const size_t len = 3 + rng.NextBounded(40);
    for (size_t i = 0; i < len; ++i) {
      const uint64_t u = rng.NextBounded(100);
      const uint64_t term = u < 55   ? rng.NextBounded(6)
                            : u < 85 ? 6 + rng.NextBounded(25)
                                     : 31 + rng.NextBounded(200);
      text += "w" + std::to_string(term) + " ";
    }
    Document doc;
    doc.id = static_cast<DocId>(d * 7 + 3);
    doc.text = text;
    oracle.Add(doc);
    for (size_t s = 0; s < num_shards; ++s) {
      const ShardRange range = ShardRangeOf(s, num_shards, num_docs);
      if (d >= range.begin && d < range.end) {
        shards[s]->Add(std::move(doc));
        break;
      }
    }
  }
  oracle.Finalize();
  oracle.RebuildBlockIndex();
  for (auto& shard : shards) {
    shard->Finalize();
    // Built BEFORE the stats override: FromShards must rebuild it with
    // the merged (global) idf, or the pruned evaluators' maxima would
    // reflect shard-local stats and the sweep below would diverge.
    shard->RebuildBlockIndex();
  }
  auto sharded_or = ShardedIndex::FromShards(std::move(shards));
  ASSERT_TRUE(sharded_or.ok()) << sharded_or.status().message();
  const ShardedIndex& sharded = sharded_or.value();

  for (int q = 0; q < 30; ++q) {
    std::string query;
    const size_t terms = 1 + rng.NextBounded(5);
    for (size_t t = 0; t < terms; ++t) {
      query += "w" + std::to_string(rng.NextBounded(240)) + " ";
    }
    // k=1 sits far below the tie width of the head terms: the merge must
    // resolve cross-shard ties exactly as the oracle's heap does.
    for (size_t k : {1u, 7u, 40u}) {
      const auto expected = oracle.Search(query, k);
      for (QueryEvaluator evaluator :
           {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore,
            QueryEvaluator::kBlockMaxWand}) {
        const auto got = sharded.Search(query, k, Bm25Params{}, evaluator);
        ASSERT_EQ(got.size(), expected.size())
            << "query=" << query << " k=" << k << " shards=" << num_shards;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].doc, expected[i].doc)
              << "query=" << query << " k=" << k << " rank=" << i;
          ASSERT_EQ(got[i].score, expected[i].score)
              << "query=" << query << " k=" << k << " rank=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShardCounts, ShardedSweep,
    ::testing::Combine(::testing::Values(13u, 29u, 61u),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto& pinfo) {
      return "Seed" + std::to_string(std::get<0>(pinfo.param)) + "Shards" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(ShardedEdgeCases, EmptyShardsAreValidAndInvisible) {
  // Shards 1 and 3 hold no documents at all; search behaves as if they
  // did not exist, and FromShards accepts them.
  std::vector<std::unique_ptr<InvertedIndex>> shards;
  for (int s = 0; s < 4; ++s) {
    shards.push_back(std::make_unique<InvertedIndex>());
  }
  InvertedIndex oracle;
  for (size_t d = 0; d < 12; ++d) {
    Document doc;
    doc.id = static_cast<DocId>(d);
    doc.text = "alpha beta gamma w" + std::to_string(d % 3);
    oracle.Add(doc);
    shards[d % 2 == 0 ? 0 : 2]->Add(std::move(doc));
  }
  oracle.Finalize();
  for (auto& shard : shards) shard->Finalize();
  auto sharded_or = ShardedIndex::FromShards(std::move(shards));
  ASSERT_TRUE(sharded_or.ok()) << sharded_or.status().message();
  const ShardedIndex& sharded = sharded_or.value();
  EXPECT_EQ(sharded.NumDocs(), 12u);
  const auto expected = oracle.Search("alpha w1", 20);
  const auto got = sharded.Search("alpha w1", 20);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, expected[i].doc);
    EXPECT_EQ(got[i].score, expected[i].score);
  }
}

TEST(ShardedEdgeCases, DuplicateExternalIdsAcrossShardsAreRejected) {
  std::vector<std::unique_ptr<InvertedIndex>> shards;
  for (int s = 0; s < 2; ++s) {
    auto shard = std::make_unique<InvertedIndex>();
    Document doc;
    doc.id = 42;  // Same external id in both shards.
    doc.text = "duplicate";
    shard->Add(std::move(doc));
    shard->Finalize();
    shards.push_back(std::move(shard));
  }
  EXPECT_FALSE(ShardedIndex::FromShards(std::move(shards)).ok());
}

// ---------- Search scratch: no state survives a call ----------
//
// The exhaustive scorer works in a per-thread
// scratch sized to the largest index the thread has searched, and each
// call resets only the entries it touched. One thread runs a seeded mix
// of queries over indexes whose sizes grow, shrink and grow again (so a
// small index is searched through a scratch a large one left wide, and
// the scratch must grow mid-run), and every answer must be bit-identical
// to LegacyInvertedIndex, which builds a fresh accumulator per call.

bool BitIdentical(const std::vector<SearchResult>& a,
                  const std::vector<SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::bit_cast<uint64_t>(a[i].score) !=
            std::bit_cast<uint64_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

std::string SkewedDocText(Rng& rng) {
  std::string text;
  const size_t len = 1 + rng.NextBounded(30);
  for (size_t i = 0; i < len; ++i) {
    const uint64_t u = rng.NextBounded(100);
    const uint64_t term =
        u < 50 ? rng.NextBounded(6) : 6 + rng.NextBounded(200);
    text += "w" + std::to_string(term) + " ";
  }
  return text;
}

/// One query of the mix: random terms, or an edge case the scorer must
/// answer without leaving state behind.
std::string ScratchSweepQuery(Rng& rng) {
  switch (rng.NextBounded(8)) {
    case 0:
      return rng.NextBounded(2) == 0 ? "" : "  \t ";
    case 1:
      return "zz" + std::to_string(rng.NextBounded(9)) + " unknownterm";
    case 2: {
      const std::string w = "w" + std::to_string(rng.NextBounded(8));
      return w + " " + w + " w" + std::to_string(rng.NextBounded(40)) + " " +
             w;
    }
    default: {
      std::string query;
      const size_t terms = 1 + rng.NextBounded(5);
      for (size_t t = 0; t < terms; ++t) {
        query += "w" + std::to_string(rng.NextBounded(220)) + " ";
      }
      return query;
    }
  }
}

TEST(SearchScratchSweep, EveryCallMatchesAFreshOracle) {
  Rng rng(2026);
  std::vector<std::unique_ptr<InvertedIndex>> flats;
  std::vector<std::unique_ptr<LegacyInvertedIndex>> legacies;
  DocId next_id = 1;
  // Single indexes; the empty one scores nothing.
  for (size_t size : {40u, 0u, 900u, 7u, 2600u, 1u, 150u}) {
    auto flat = std::make_unique<InvertedIndex>();
    auto legacy = std::make_unique<LegacyInvertedIndex>();
    for (size_t d = 0; d < size; ++d) {
      Document doc;
      doc.id = next_id++;
      doc.text = SkewedDocText(rng);
      flat->Add(doc);
      legacy->Add(doc);
    }
    flat->Finalize();
    legacy->Finalize();
    flats.push_back(std::move(flat));
    legacies.push_back(std::move(legacy));
  }
  // A sharded index of unequal shards (one empty) over its own documents,
  // with the legacy index over their union as its oracle.
  std::vector<std::unique_ptr<InvertedIndex>> shards;
  LegacyInvertedIndex union_oracle;
  for (size_t size : {300u, 0u, 1700u, 60u}) {
    auto shard = std::make_unique<InvertedIndex>();
    for (size_t d = 0; d < size; ++d) {
      Document doc;
      doc.id = next_id++;
      doc.text = SkewedDocText(rng);
      shard->Add(doc);
      union_oracle.Add(doc);
    }
    shard->Finalize();
    shards.push_back(std::move(shard));
  }
  union_oracle.Finalize();
  auto sharded_or = ShardedIndex::FromShards(std::move(shards));
  ASSERT_TRUE(sharded_or.ok()) << sharded_or.status().message();
  const ShardedIndex& sharded = sharded_or.value();

  const Bm25Params params_mix[] = {{}, {2.0, 0.3}, {0.5, 1.0}};
  const size_t k_mix[] = {1, 10, 1000};
  for (int step = 0; step < 1500; ++step) {
    const std::string query = ScratchSweepQuery(rng);
    const Bm25Params& params = params_mix[rng.NextBounded(3)];
    const size_t k = k_mix[rng.NextBounded(3)];
    const size_t target = rng.NextBounded(flats.size() + 1);
    if (target < flats.size()) {
      ASSERT_TRUE(BitIdentical(flats[target]->Search(query, k, params),
                               legacies[target]->Search(query, k, params)))
          << "step " << step << " index " << target << " query '" << query
          << "' k=" << k << " k1=" << params.k1;
      continue;
    }
    const std::vector<SearchResult> expected =
        union_oracle.Search(query, k, params);
    ASSERT_TRUE(BitIdentical(sharded.Search(query, k, params), expected))
        << "step " << step << " sharded query '" << query << "' k=" << k
        << " k1=" << params.k1;
    if (params.k1 == Bm25Params{}.k1 && params.b == Bm25Params{}.b) {
      const ShardedIndex::PartialResult scatter = sharded.SearchWithDeadline(
          query, k, QueryEvaluator::kExhaustive, RealClock(), 0);
      ASSERT_TRUE(scatter.complete);
      ASSERT_TRUE(BitIdentical(scatter.results, expected))
          << "step " << step << " scatter query '" << query << "'";
    }
  }
}

}  // namespace
}  // namespace ckr
