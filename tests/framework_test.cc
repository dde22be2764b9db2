// Unit tests for ckr_framework: bit I/O, Golomb coding, quantized stores,
// TID table, and the runtime ranker.
#include <gtest/gtest.h>

#include <cmath>

#include "framework/bitstream.h"
#include "framework/golomb.h"
#include "framework/runtime_ranker.h"

namespace ckr {
namespace {

TEST(BitstreamTest, BitRoundTrip) {
  std::vector<uint8_t> bytes;
  BitWriter w(&bytes);
  w.WriteBit(true);
  w.WriteBit(false);
  w.WriteBits(0b10110, 5);
  w.WriteUnary(3);
  w.Finish();
  BitReader r(bytes);
  EXPECT_TRUE(r.ReadBit());
  EXPECT_FALSE(r.ReadBit());
  EXPECT_EQ(r.ReadBits(5), 0b10110u);
  EXPECT_EQ(r.ReadUnary(), 3u);
  EXPECT_FALSE(r.overflow());
}

TEST(BitstreamTest, OverflowDetected) {
  std::vector<uint8_t> bytes;
  BitWriter w(&bytes);
  w.WriteBits(0xff, 8);
  w.Finish();
  BitReader r(bytes);
  r.ReadBits(8);
  r.ReadBit();
  EXPECT_TRUE(r.overflow());
}

TEST(BitstreamTest, LargeValues) {
  std::vector<uint8_t> bytes;
  BitWriter w(&bytes);
  w.WriteBits(0xdeadbeefcafebabeULL, 64);
  w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(64), 0xdeadbeefcafebabeULL);
}

TEST(GolombTest, EncodeDecodeSingleValues) {
  for (uint64_t m : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 100ull}) {
    for (uint64_t v : {0ull, 1ull, 2ull, 7ull, 63ull, 1000ull}) {
      std::vector<uint8_t> bytes;
      BitWriter w(&bytes);
      GolombEncode(v, m, &w);
      w.Finish();
      BitReader r(bytes);
      EXPECT_EQ(GolombDecode(m, &r), v) << "m=" << m << " v=" << v;
    }
  }
}

TEST(GolombTest, OptimalParameterRule) {
  EXPECT_EQ(OptimalGolombParameter(0.5), 1u);
  EXPECT_EQ(OptimalGolombParameter(1.0), 1u);
  EXPECT_EQ(OptimalGolombParameter(10.0), 7u);   // ceil(6.9)
  EXPECT_EQ(OptimalGolombParameter(100.0), 69u);
}

TEST(GolombTest, SortedIdsRoundTrip) {
  std::vector<uint32_t> ids = {3, 7, 8, 100, 1024, 4000, 4001, 99999};
  auto encoded = EncodeSortedIds(ids, 1u << 22);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeSortedIds(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, ids);
}

TEST(GolombTest, EmptyList) {
  auto encoded = EncodeSortedIds({}, 100);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeSortedIds(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(GolombTest, RejectsUnsortedAndOutOfRange) {
  EXPECT_FALSE(EncodeSortedIds({5, 4}, 100).ok());
  EXPECT_FALSE(EncodeSortedIds({5, 5}, 100).ok());
  EXPECT_FALSE(EncodeSortedIds({5, 200}, 100).ok());
}

TEST(GolombTest, CompressesDenseLists) {
  // 100 ids in a 4M universe: raw = 400 bytes; Golomb should beat it.
  std::vector<uint32_t> ids;
  Rng rng(5);
  uint32_t cur = 0;
  for (int i = 0; i < 100; ++i) {
    cur += 1 + static_cast<uint32_t>(rng.NextBounded(60000));
    ids.push_back(cur);
  }
  auto encoded = EncodeSortedIds(ids, 1u << 22);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LT(encoded->size(), ids.size() * sizeof(uint32_t));
  auto decoded = DecodeSortedIds(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, ids);
}

TEST(GolombTest, RandomizedRoundTripProperty) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.NextBounded(200);
    std::vector<uint32_t> ids;
    uint32_t cur = 0;
    for (size_t i = 0; i < n; ++i) {
      cur += 1 + static_cast<uint32_t>(rng.NextBounded(1000));
      ids.push_back(cur);
    }
    auto encoded = EncodeSortedIds(ids, cur + 1);
    ASSERT_TRUE(encoded.ok());
    auto decoded = DecodeSortedIds(*encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, ids);
  }
}

TEST(TidTableTest, InternAndLookup) {
  GlobalTidTable tids;
  uint32_t a = tids.Intern("alpha");
  uint32_t b = tids.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(tids.Intern("alpha"), a);  // Idempotent.
  EXPECT_EQ(tids.Lookup("alpha"), a);
  EXPECT_EQ(tids.Lookup("gamma"), GlobalTidTable::kMaxTid);
  EXPECT_EQ(tids.size(), 2u);
  EXPECT_FALSE(tids.overflowed());
  EXPECT_LE(a, GlobalTidTable::kMaxTid);
}

TEST(QuantizedStoreTest, RoundTripWithinGranularity) {
  GlobalTidTable tids;
  ConceptStore store;
  InterestingnessVector v;
  v.freq_exact = 5.5;
  v.freq_phrase_contained = 7.25;
  v.unit_score = 0.42;
  v.searchengine_phrase = 3.0;
  v.concept_size = 2;
  v.number_of_chars = 17;
  v.subconcepts = 1;
  v.wiki_word_count = 6.2;
  v.high_level_type[2] = 1.0;
  store.Add("concept a", v, {});
  InterestingnessVector w;  // A second vector to span the ranges.
  w.freq_exact = 0.0;
  w.unit_score = 1.0;
  store.Add("concept b", w, {});
  store.Finalize(&tids);

  std::vector<double> out;
  ASSERT_TRUE(store.Lookup("concept a", &out));
  std::vector<double> raw = v.Flatten();
  ASSERT_EQ(out.size(), raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    // 16-bit quantization over the observed range: tiny error.
    EXPECT_NEAR(out[i], raw[i], 1e-3) << i;
  }
  EXPECT_FALSE(store.Lookup("missing", &out));
  EXPECT_EQ(store.InterestingnessBytes(),
            2 * InterestingnessVector::Dim() * sizeof(uint16_t));
}

TEST(PackedRelevanceTest, ScoreMatchesUnpackedWithinQuantization) {
  GlobalTidTable tids;
  ConceptStore store;
  std::vector<RelevantTerm> terms = {
      {"alpha", 40.0}, {"beta", 25.0}, {"gamma", 10.0}, {"delta", 2.0}};
  store.Add("my concept", {}, terms);
  store.Finalize(&tids);

  std::unordered_set<uint32_t> context = {tids.Lookup("alpha"),
                                          tids.Lookup("gamma")};
  double score = store.Score("my concept", context);
  EXPECT_NEAR(score, 50.0, 0.1);  // 10-bit quantization error bound.
  EXPECT_DOUBLE_EQ(store.Score("unknown", context), 0.0);
  EXPECT_DOUBLE_EQ(store.Score("my concept", {}), 0.0);
}

TEST(PackedRelevanceTest, KeepsAtMostHundredTerms) {
  GlobalTidTable tids;
  ConceptStore store;
  std::vector<RelevantTerm> terms;
  for (int i = 0; i < 150; ++i) {
    terms.push_back({std::string("t").append(std::to_string(i)), 150.0 - i});
  }
  store.Add("big", {}, terms);
  store.Finalize(&tids);
  // 100 pairs * 4 bytes.
  EXPECT_EQ(store.RelevanceBytes(), 400u);
}

TEST(PackedRelevanceTest, GolombCompressionSavesSpace) {
  GlobalTidTable tids;
  ConceptStore store;
  for (int c = 0; c < 50; ++c) {
    std::vector<RelevantTerm> terms;
    for (int i = 0; i < 100; ++i) {
      // Heavy term sharing across concepts => dense TID space.
      terms.push_back({"shared" + std::to_string((c * 37 + i) % 600),
                       1.0 + i});
    }
    store.Add("concept " + std::to_string(c), {}, terms);
  }
  store.Finalize(&tids);
  EXPECT_LT(store.GolombCompressedBytes(), store.RelevanceBytes());
}

TEST(RuntimeStatsTest, ThroughputMath) {
  RuntimeStats stats;
  stats.bytes_processed = 10'000'000;
  stats.stemmer_seconds = 2.0;
  stats.ranker_seconds = 4.0;
  EXPECT_DOUBLE_EQ(stats.StemmerMBps(), 5.0);
  EXPECT_DOUBLE_EQ(stats.RankerMBps(), 2.5);
  RuntimeStats zero;
  EXPECT_DOUBLE_EQ(zero.StemmerMBps(), 0.0);
}

TEST(RuntimeStatsTest, ComponentThroughputIsDivideByZeroSafe) {
  RuntimeStats zero;
  EXPECT_DOUBLE_EQ(zero.RankerMBps(), 0.0);
  EXPECT_DOUBLE_EQ(zero.MatchMBps(), 0.0);
  EXPECT_DOUBLE_EQ(zero.ScoreMBps(), 0.0);
  EXPECT_DOUBLE_EQ(zero.DocsPerSec(), 0.0);

  RuntimeStats stats;
  stats.bytes_processed = 20'000'000;
  stats.match_seconds = 4.0;
  stats.score_seconds = 1.0;
  stats.ranker_seconds = stats.match_seconds + stats.score_seconds;
  stats.stemmer_seconds = 5.0;
  stats.documents = 100;
  EXPECT_DOUBLE_EQ(stats.MatchMBps(), 5.0);
  EXPECT_DOUBLE_EQ(stats.ScoreMBps(), 20.0);
  EXPECT_DOUBLE_EQ(stats.DocsPerSec(), 10.0);
}

TEST(RuntimeStatsTest, MergeAccumulatesEveryCounter) {
  RuntimeStats a;
  a.stemmer_seconds = 1.0;
  a.ranker_seconds = 2.0;
  a.match_seconds = 1.5;
  a.score_seconds = 0.5;
  a.bytes_processed = 100;
  a.documents = 3;
  a.detections = 7;
  RuntimeStats b;
  b.stemmer_seconds = 0.5;
  b.ranker_seconds = 1.0;
  b.match_seconds = 0.75;
  b.score_seconds = 0.25;
  b.bytes_processed = 50;
  b.documents = 2;
  b.detections = 4;
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.stemmer_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.ranker_seconds, 3.0);
  EXPECT_DOUBLE_EQ(a.match_seconds, 2.25);
  EXPECT_DOUBLE_EQ(a.score_seconds, 0.75);
  EXPECT_EQ(a.bytes_processed, 150u);
  EXPECT_EQ(a.documents, 5u);
  EXPECT_EQ(a.detections, 11u);
}

TEST(TidTableTest, OverflowReturnsSentinelWithoutMutatingState) {
  GlobalTidTable tids;
  tids.SetCapacityForTesting(2);
  uint32_t a = tids.Intern("alpha");
  uint32_t b = tids.Intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_FALSE(tids.overflowed());

  // The table is full: a new term must get the unknown sentinel and must
  // not change the table.
  EXPECT_EQ(tids.Intern("gamma"), GlobalTidTable::kMaxTid);
  EXPECT_TRUE(tids.overflowed());
  EXPECT_EQ(tids.size(), 2u);
  EXPECT_EQ(tids.Lookup("gamma"), GlobalTidTable::kMaxTid);

  // Lookups and re-interns of existing terms still resolve after overflow.
  EXPECT_EQ(tids.Lookup("alpha"), a);
  EXPECT_EQ(tids.Intern("alpha"), a);
  EXPECT_EQ(tids.Intern("beta"), b);
  EXPECT_EQ(tids.Intern("delta"), GlobalTidTable::kMaxTid);
  EXPECT_EQ(tids.size(), 2u);
}

TEST(QuantizedStoreTest, DenseIdsAreContiguousAndSorted) {
  GlobalTidTable tids;
  ConceptStore store;
  InterestingnessVector vec;
  store.Add("zebra", vec, {});
  store.Add("apple", vec, {});
  store.Add("mango", vec, {});
  store.Finalize(&tids);
  ASSERT_EQ(store.NumConcepts(), 3u);
  EXPECT_EQ(store.IdOf("apple"), 0u);
  EXPECT_EQ(store.IdOf("mango"), 1u);
  EXPECT_EQ(store.IdOf("zebra"), 2u);
  EXPECT_EQ(store.KeyOf(1), "mango");
  EXPECT_EQ(store.IdOf("unknown"), kInvalidConcept);
}

TEST(QuantizedStoreTest, SerializationRoundTripsDenseLayout) {
  GlobalTidTable tids;
  ConceptStore store;
  for (int c = 0; c < 5; ++c) {
    InterestingnessVector vec;
    vec.freq_exact = c * 10.0;
    vec.unit_score = 1.0 + c * 0.5;
    vec.number_of_chars = 7.0 + c;
    vec.high_level_type[c % kNumEntityTypes] = 1.0;
    store.Add("concept " + std::to_string(c), vec, {});
  }
  store.Finalize(&tids);

  BinaryWriter writer;
  store.SaveTo(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded_or = ConceptStore::LoadFrom(&reader);
  ASSERT_TRUE(loaded_or.ok());
  const ConceptStore& loaded = *loaded_or;

  ASSERT_EQ(loaded.NumConcepts(), store.NumConcepts());
  std::vector<double> got, want;
  for (int c = 0; c < 5; ++c) {
    std::string key = "concept " + std::to_string(c);
    EXPECT_EQ(loaded.IdOf(key), store.IdOf(key));
    EXPECT_EQ(loaded.KeyOf(loaded.IdOf(key)), key);
    ASSERT_TRUE(store.Lookup(key, &want));
    ASSERT_TRUE(loaded.Lookup(key, &got));
    EXPECT_EQ(got, want);  // Bit-identical dequantization.
    ASSERT_TRUE(loaded.LookupById(loaded.IdOf(key), &got));
    EXPECT_EQ(got, want);
  }
  EXPECT_FALSE(loaded.Lookup("unknown", &got));
  EXPECT_FALSE(loaded.LookupById(kInvalidConcept, &got));
}

TEST(QuantizedStoreTest, EmptyStoreSerializationRoundTrip) {
  GlobalTidTable tids;
  ConceptStore store;
  store.Finalize(&tids);
  BinaryWriter writer;
  store.SaveTo(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded_or = ConceptStore::LoadFrom(&reader);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ(loaded_or->NumConcepts(), 0u);
  EXPECT_EQ(loaded_or->IdOf("anything"), kInvalidConcept);
  std::vector<double> out;
  EXPECT_FALSE(loaded_or->Lookup("anything", &out));
}

TEST(PackedRelevanceTest, SerializationRoundTripsDenseLayout) {
  GlobalTidTable tids;
  ConceptStore store;
  store.Add("windsurfing", {},
            {{"board", 40.0}, {"sail", 25.0}, {"wave", 5.0}});
  store.Add("alpha", {}, {{"board", 12.0}, {"first", 30.0}});
  store.Finalize(&tids);

  BinaryWriter writer;
  store.SaveTo(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded_or = ConceptStore::LoadFrom(&reader);
  ASSERT_TRUE(loaded_or.ok());
  const ConceptStore& loaded = *loaded_or;

  ASSERT_EQ(loaded.NumConcepts(), store.NumConcepts());
  EXPECT_EQ(loaded.IdOf("alpha"), store.IdOf("alpha"));
  EXPECT_EQ(loaded.IdOf("windsurfing"), store.IdOf("windsurfing"));
  EXPECT_EQ(loaded.IdOf("unknown"), kInvalidConcept);

  std::unordered_set<uint32_t> context = {tids.Lookup("board"),
                                          tids.Lookup("wave")};
  EXPECT_DOUBLE_EQ(loaded.Score("windsurfing", context),
                   store.Score("windsurfing", context));
  EXPECT_DOUBLE_EQ(loaded.Score("alpha", context),
                   store.Score("alpha", context));
  EXPECT_GT(loaded.Score("windsurfing", context), 0.0);

  // The id-indexed hot path must agree with the string-keyed lookup.
  EpochSet eset;
  eset.Reset(tids.size());
  for (uint32_t tid : context) eset.Insert(tid);
  EXPECT_DOUBLE_EQ(loaded.ScoreById(loaded.IdOf("windsurfing"), eset),
                   store.Score("windsurfing", context));
  EXPECT_DOUBLE_EQ(loaded.ScoreById(kInvalidConcept, eset), 0.0);
}

TEST(PackedRelevanceTest, EmptyStoreSerializationRoundTrip) {
  GlobalTidTable tids;
  ConceptStore store;
  store.Finalize(&tids);
  BinaryWriter writer;
  store.SaveTo(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded_or = ConceptStore::LoadFrom(&reader);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ(loaded_or->NumConcepts(), 0u);
  EXPECT_DOUBLE_EQ(loaded_or->Score("anything", {}), 0.0);
}

}  // namespace
}  // namespace ckr
