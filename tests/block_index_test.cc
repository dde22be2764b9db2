// Tests for the block-compressed postings layer: varint-GB round-trip
// fuzzing (including block-boundary and single-element edge cases and
// truncated-blob rejection), skip-cursor traversal, block-max index
// evaluator equivalence, the versioned serialization format, and a seeded
// mutation sweep over serialized blobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "blob_mutation.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "corpus/document.h"
#include "index/block_codecs.h"
#include "index/block_max_index.h"
#include "index/block_postings.h"
#include "index/inverted_index.h"

namespace ckr {
namespace {

Document MakeDoc(DocId id, std::string text) {
  Document d;
  d.id = id;
  d.text = std::move(text);
  return d;
}

// ---------- Codec round-trip fuzzing ----------

std::vector<uint32_t> DecodeOrDie(const std::vector<uint8_t>& blob,
                                  size_t count) {
  std::vector<uint32_t> out(count);
  Status s = DecodeBlock(blob.data(), blob.size(), count, out.data());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(CodecTest, RoundTripEdgeCounts) {
  // Counts around group (4) and block (128) boundaries.
  const size_t counts[] = {1, 2, 3, 4, 5, 7, 8, 59, 60, 61, 63, 64, 127, 128};
  Rng rng(42);
  for (size_t count : counts) {
    for (int style = 0; style < 4; ++style) {
      std::vector<uint32_t> values(count);
      for (uint32_t& v : values) {
        switch (style) {
          case 0: v = 0; break;                                     // zeros
          case 1: v = static_cast<uint32_t>(rng.NextBounded(4)); break;
          case 2: v = static_cast<uint32_t>(rng.NextBounded(1 << 20)); break;
          default: v = static_cast<uint32_t>(rng.Next()); break;    // full
        }
      }
      std::vector<uint8_t> blob;
      EncodeBlock(values.data(), count, &blob);
      EXPECT_EQ(DecodeOrDie(blob, count), values)
          << "count=" << count << " style=" << style;
    }
  }
}

TEST(CodecTest, RoundTripRandomFuzz) {
  Rng rng(7);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t count = 1 + rng.NextBounded(kPostingBlockSize);
    // Mix magnitudes within one block: shift by a random bit width.
    std::vector<uint32_t> values(count);
    for (uint32_t& v : values) {
      const uint32_t width = static_cast<uint32_t>(rng.NextBounded(33));
      v = width == 0 ? 0
                     : static_cast<uint32_t>(rng.Next() >>
                                             (32 + (32 - width)));
    }
    std::vector<uint8_t> blob;
    EncodeBlock(values.data(), count, &blob);
    ASSERT_EQ(DecodeOrDie(blob, count), values) << "iter=" << iter;
  }
}

TEST(CodecTest, EveryTruncationRejected) {
  Rng rng(11);
  std::vector<uint32_t> values(100);
  for (uint32_t& v : values) {
    v = static_cast<uint32_t>(rng.NextBounded(1u << 17));
  }
  std::vector<uint8_t> blob;
  EncodeBlock(values.data(), values.size(), &blob);
  std::vector<uint32_t> out(values.size());
  // Every strict prefix must fail: the decoder demands exactly `count`
  // values from exactly the blob's bytes.
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    Status s = DecodeBlock(blob.data(), cut, values.size(), out.data());
    EXPECT_FALSE(s.ok()) << "prefix " << cut << " accepted";
  }
  // Trailing bytes beyond the encoding must fail too.
  std::vector<uint8_t> padded = blob;
  padded.resize(blob.size() + 8, 0);
  Status s = DecodeBlock(padded.data(), padded.size(), values.size(),
                         out.data());
  EXPECT_FALSE(s.ok());
}

TEST(CodecEdge, EmptyBlock) {
  std::vector<uint8_t> blob;
  EncodeBlock(nullptr, 0, &blob);
  EXPECT_TRUE(blob.empty());
  EXPECT_TRUE(DecodeBlock(nullptr, 0, 0, nullptr).ok());
  uint8_t junk = 0;
  EXPECT_FALSE(DecodeBlock(&junk, 1, 0, nullptr).ok());
}

TEST(CodecEdge, VarintGbTailControlBitsChecked) {
  // Two values leave the upper four control bits unused; the encoder
  // zeroes them, so a nonzero tail is corruption.
  const uint32_t values[] = {5, 9};
  std::vector<uint8_t> blob;
  EncodeBlock(values, 2, &blob);
  blob[0] |= 0x10;  // Set a tail control bit.
  uint32_t out[2];
  EXPECT_FALSE(DecodeBlock(blob.data(), blob.size(), 2, out).ok());
}

// ---------- Posting store + cursor ----------

struct TermList {
  std::vector<uint32_t> docs;
  std::vector<uint32_t> tfs;
};

TermList RandomTermList(Rng* rng, uint32_t num_docs, size_t target_size) {
  TermList list;
  uint32_t doc = static_cast<uint32_t>(rng->NextBounded(3));
  while (list.docs.size() < target_size && doc < num_docs) {
    list.docs.push_back(doc);
    list.tfs.push_back(1 + static_cast<uint32_t>(rng->NextBounded(5)));
    doc += 1 + static_cast<uint32_t>(rng->NextBounded(7));
  }
  return list;
}

BlockPostingsStore MakeStore(const std::vector<TermList>& terms) {
  BlockPostingsStore::Builder builder;
  std::vector<double> scores;
  for (const TermList& t : terms) {
    scores.assign(t.tfs.size(), 0.0);
    for (size_t i = 0; i < t.tfs.size(); ++i) {
      scores[i] = static_cast<double>(t.tfs[i]);
    }
    builder.AddTerm(MakeSpan(t.docs), MakeSpan(t.tfs), MakeSpan(scores));
  }
  return builder.Finish();
}

TEST(StoreTest, BlockGeometry) {
  // 129 postings: one full 128-doc block plus a 1-doc tail block.
  TermList t;
  for (uint32_t d = 0; d < 129; ++d) {
    t.docs.push_back(d * 2);
    t.tfs.push_back(1 + d % 3);
  }
  BlockPostingsStore store = MakeStore({t});
  EXPECT_EQ(store.NumTerms(), 1u);
  EXPECT_EQ(store.NumBlocks(), 2u);
  EXPECT_EQ(store.TermBlocks(0), 2u);
  EXPECT_EQ(store.TermPostings(0), 129u);
  EXPECT_EQ(store.BlockDocCount(0, 0), 128u);
  EXPECT_EQ(store.BlockDocCount(0, 1), 1u);
  EXPECT_EQ(store.BlockLastDoc(0), 127u * 2);
  EXPECT_EQ(store.BlockLastDoc(1), 128u * 2);
}

TEST(StoreTest, CursorWalksExactPostings) {
  Rng rng(3);
  std::vector<TermList> terms;
  for (size_t size : {1u, 2u, 127u, 128u, 129u, 300u, 1000u}) {
    terms.push_back(RandomTermList(&rng, 1u << 20, size));
  }
  BlockPostingsStore store = MakeStore(terms);
  for (uint32_t tid = 0; tid < terms.size(); ++tid) {
    PostingCursor cur(&store, tid);
    for (size_t i = 0; i < terms[tid].docs.size(); ++i) {
      ASSERT_FALSE(cur.AtEnd()) << "tid=" << tid << " i=" << i;
      ASSERT_EQ(cur.doc(), terms[tid].docs[i]);
      ASSERT_EQ(cur.tf(), terms[tid].tfs[i]);
      cur.Next();
    }
    EXPECT_TRUE(cur.AtEnd());
  }
}

TEST(StoreTest, NextGeqMatchesLowerBound) {
  Rng rng(5);
  TermList t = RandomTermList(&rng, 1u << 18, 700);
  BlockPostingsStore store = MakeStore({t});
  for (int iter = 0; iter < 500; ++iter) {
    PostingCursor cur(&store, 0);
    uint32_t target = 0;
    // A few monotone jumps per cursor, mirroring evaluator use.
    for (int hop = 0; hop < 4; ++hop) {
      target += static_cast<uint32_t>(rng.NextBounded(1u << 16));
      cur.NextGEQ(target);
      auto it = std::lower_bound(t.docs.begin(), t.docs.end(), target);
      if (it == t.docs.end()) {
        EXPECT_TRUE(cur.AtEnd());
        break;
      }
      ASSERT_EQ(cur.doc(), *it) << "target=" << target;
      const size_t idx = static_cast<size_t>(it - t.docs.begin());
      ASSERT_EQ(cur.tf(), t.tfs[idx]);
    }
  }
}

TEST(StoreTest, ShallowBoundMatchesContainingBlock) {
  Rng rng(9);
  TermList t = RandomTermList(&rng, 1u << 18, 900);
  BlockPostingsStore store = MakeStore({t});
  PostingCursor cur(&store, 0);
  for (uint32_t target = 0; target < (1u << 18) && !cur.AtEnd();
       target += 997) {
    if (cur.doc() > target) continue;
    PostingCursor::BlockBound bb = cur.ShallowBound(target);
    auto it = std::lower_bound(t.docs.begin(), t.docs.end(), target);
    if (it == t.docs.end()) {
      EXPECT_EQ(bb.last_doc, PostingCursor::kEndDoc);
      EXPECT_EQ(bb.max_score, 0.0);
    } else {
      // The reported block covers the first posting >= target, and its
      // max dominates that posting's score (scores here are the tfs).
      const size_t idx = static_cast<size_t>(it - t.docs.begin());
      EXPECT_GE(bb.last_doc, *it);
      EXPECT_GE(bb.max_score, static_cast<double>(t.tfs[idx]));
    }
  }
}

// ---------- Block-max index: evaluators + serialization ----------

InvertedIndex BuildSyntheticIndex(uint64_t seed, size_t num_docs) {
  // Zipf-ish vocabulary so posting lists have very uneven lengths (the
  // regime pruning thrives in) and scores collide often (tie coverage).
  Rng rng(seed);
  InvertedIndex index;
  for (size_t d = 0; d < num_docs; ++d) {
    std::string text;
    const size_t len = 5 + rng.NextBounded(60);
    for (size_t i = 0; i < len; ++i) {
      const uint64_t u = rng.NextBounded(1000);
      uint64_t term;
      if (u < 500) {
        term = rng.NextBounded(8);  // Frequent head terms.
      } else if (u < 850) {
        term = 8 + rng.NextBounded(40);
      } else {
        term = 48 + rng.NextBounded(400);  // Rare tail.
      }
      text += "w" + std::to_string(term) + " ";
    }
    index.Add(MakeDoc(static_cast<DocId>(d * 7 + 3), std::move(text)));
  }
  index.Finalize();
  return index;
}

void ExpectIdenticalResults(const std::vector<SearchResult>& expected,
                            const std::vector<SearchResult>& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].doc, actual[i].doc) << label << " rank " << i;
    // Bit-identical scores, not approximately equal.
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " rank " << i;
  }
}

TEST(BlockMaxIndexTest, EvaluatorsMatchExhaustive) {
  InvertedIndex index = BuildSyntheticIndex(123, 400);
  const char* queries[] = {"w0",
                           "w0 w1",
                           "w3 w17 w99",
                           "w1 w2 w3 w4 w5",
                           "w7 w300 w301",
                           "w0 w0 w0",
                           "absentterm",
                           "w5 absentterm w12"};
  for (const char* q : queries) {
    for (size_t k : {1u, 3u, 10u, 50u, 1000u}) {
      auto oracle = index.Search(q, k);
      auto ms = index.Search(q, k, Bm25Params{}, QueryEvaluator::kMaxScore);
      auto bmw =
          index.Search(q, k, Bm25Params{}, QueryEvaluator::kBlockMaxWand);
      ExpectIdenticalResults(oracle, ms,
                             std::string("maxscore q=") + q + " k=" +
                                 std::to_string(k));
      ExpectIdenticalResults(oracle, bmw,
                             std::string("bmw q=") + q + " k=" +
                                 std::to_string(k));
    }
  }
}

TEST(BlockMaxIndexTest, DeferredBuildMatchesEagerExactly) {
  // build_block_index=false defers the eager Finalize() build (the
  // out-of-core path): pruned evaluators must fall back to the exhaustive
  // scorer until RebuildBlockIndex(), after which the block index must be
  // byte-for-byte the one the eager path would have built.
  Rng rng(99);
  std::vector<Document> docs;
  for (size_t d = 0; d < 300; ++d) {
    std::string text;
    const size_t len = 5 + rng.NextBounded(60);
    for (size_t i = 0; i < len; ++i) {
      text += "w" + std::to_string(rng.NextBounded(120)) + " ";
    }
    docs.push_back(MakeDoc(static_cast<DocId>(d * 7 + 3), std::move(text)));
  }
  InvertedIndex eager;
  IndexBuildOptions deferred_opts;
  deferred_opts.build_block_index = false;
  InvertedIndex deferred(deferred_opts);
  for (const Document& d : docs) {
    eager.Add(d);
    deferred.Add(d);
  }
  eager.Finalize();
  deferred.Finalize();
  EXPECT_TRUE(eager.has_block_index());
  EXPECT_FALSE(deferred.has_block_index());

  const char* queries[] = {"w0 w1", "w3 w17 w99", "w1 w2 w3 w4 w5",
                           "absentterm"};
  for (const char* q : queries) {
    auto oracle = eager.Search(q, 10);
    for (QueryEvaluator evaluator :
         {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore,
          QueryEvaluator::kBlockMaxWand}) {
      ExpectIdenticalResults(
          oracle, deferred.Search(q, 10, Bm25Params{}, evaluator),
          std::string("deferred q=") + q);
    }
  }
  deferred.RebuildBlockIndex();
  EXPECT_TRUE(deferred.has_block_index());
  EXPECT_EQ(eager.SerializeBlockIndex(), deferred.SerializeBlockIndex());
  for (const char* q : queries) {
    ExpectIdenticalResults(
        eager.Search(q, 10, Bm25Params{}, QueryEvaluator::kBlockMaxWand),
        deferred.Search(q, 10, Bm25Params{}, QueryEvaluator::kBlockMaxWand),
        std::string("rebuilt q=") + q);
  }
}

TEST(BlockMaxIndexTest, DirectBuilderArbitraryQueryOrder) {
  // Drive BlockMaxIndex without an InvertedIndex: queries pass term ids in
  // arbitrary (not sorted) order, and all evaluators must agree anyway —
  // every sum replays the *query* order, whatever it is.
  Rng rng(55);
  const uint32_t num_docs = 600;
  std::vector<DocId> ext(num_docs);
  std::vector<double> norms(num_docs);
  for (uint32_t d = 0; d < num_docs; ++d) {
    ext[d] = d * 3 + 1;
    norms[d] = 0.5 + rng.NextDouble() * 2.0;
  }
  std::vector<TermList> terms;
  for (size_t size : {400u, 350u, 120u, 40u, 7u, 1u}) {
    terms.push_back(RandomTermList(&rng, num_docs, size));
  }
  BlockMaxIndex::Builder builder(ext, norms);
  for (const TermList& t : terms) {
    builder.AddTerm(MakeSpan(t.docs), MakeSpan(t.tfs));
  }
  BlockMaxIndex idx = builder.Finish();
  const std::vector<std::vector<uint32_t>> queries = {
      {0}, {5, 0, 2}, {3, 1}, {5, 4, 3, 2, 1, 0}, {2, 5}};
  for (const auto& tids : queries) {
    for (size_t k : {1u, 10u, 50u}) {
      auto oracle = idx.TopK(MakeSpan(tids), k, QueryEvaluator::kExhaustive);
      auto ms = idx.TopK(MakeSpan(tids), k, QueryEvaluator::kMaxScore);
      auto bmw = idx.TopK(MakeSpan(tids), k, QueryEvaluator::kBlockMaxWand);
      ExpectIdenticalResults(oracle, ms, "direct maxscore");
      ExpectIdenticalResults(oracle, bmw, "direct bmw");
    }
  }
}

TEST(BlockMaxIndexTest, NonDefaultParamsFallBackToExhaustive) {
  InvertedIndex index = BuildSyntheticIndex(5, 120);
  Bm25Params params;
  params.k1 = 1.6;
  auto a = index.Search("w0 w3", 10, params);
  auto b = index.Search("w0 w3", 10, params, QueryEvaluator::kMaxScore);
  ExpectIdenticalResults(a, b, "non-default fallback");
}

TEST(BlockMaxIndexTest, CompressionBeatsCsrColumns) {
  InvertedIndex index = BuildSyntheticIndex(999, 800);
  const size_t postings = index.block_index().store().NumPostings();
  ASSERT_GT(postings, 0u);
  // CSR stores 8 bytes per posting (u32 doc + u32 tf).
  const size_t csr_bytes = postings * 8;
  EXPECT_LE(index.block_index().CompressedPostingBytes() * 2, csr_bytes)
      << "block compression below the 2x acceptance floor";
}

TEST(BlockIndexSerdeTest, RoundTripCurrentVersion) {
  InvertedIndex index = BuildSyntheticIndex(17, 250);
  auto before =
      index.Search("w0 w5 w33", 15, Bm25Params{}, QueryEvaluator::kMaxScore);
  const std::string blob = index.SerializeBlockIndex();
  Status s = index.LoadBlockIndex(blob);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto after =
      index.Search("w0 w5 w33", 15, Bm25Params{}, QueryEvaluator::kMaxScore);
  ExpectIdenticalResults(before, after, "serde round trip");
  auto bmw = index.Search("w0 w5 w33", 15, Bm25Params{},
                          QueryEvaluator::kBlockMaxWand);
  ExpectIdenticalResults(before, bmw, "serde round trip bmw");
}

TEST(BlockIndexSerdeTest, V1BlobLoadsAndRebuildsMaxima) {
  InvertedIndex index = BuildSyntheticIndex(29, 250);
  auto before =
      index.Search("w1 w8 w50", 15, Bm25Params{}, QueryEvaluator::kBlockMaxWand);
  // A v1 blob predates the max-score columns; the loader recomputes them
  // from the postings, bit-identically.
  const std::string v1 = index.block_index().SerializeVersion(1);
  const std::string v2 = index.block_index().SerializeVersion(2);
  EXPECT_LT(v1.size(), v2.size());
  Status s = index.LoadBlockIndex(v1);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto after = index.Search("w1 w8 w50", 15, Bm25Params{},
                            QueryEvaluator::kBlockMaxWand);
  ExpectIdenticalResults(before, after, "v1 upgrade");
}

TEST(BlockIndexSerdeRejects, EveryTruncationFailsCleanly) {
  InvertedIndex index = BuildSyntheticIndex(31, 60);
  const std::string blob = index.SerializeBlockIndex();
  // Every strict prefix must be rejected with a Status — never a crash,
  // never a silently short index (the store-pack discipline).
  for (size_t cut = 0; cut < blob.size();
       cut += (cut < 64 ? 1 : 37)) {  // Dense over the header, strided after.
    auto result = BlockMaxIndex::Deserialize(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(result.ok()) << "prefix " << cut << " accepted";
  }
}

TEST(BlockIndexSerdeRejects, BadMagicVersionCodecTrailing) {
  InvertedIndex index = BuildSyntheticIndex(37, 60);
  const std::string blob = index.SerializeBlockIndex();

  std::string bad_magic = blob;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x01);
  EXPECT_FALSE(BlockMaxIndex::Deserialize(bad_magic).ok());

  std::string bad_version = blob;
  bad_version[4] = 9;  // u16 version little-endian low byte.
  EXPECT_FALSE(BlockMaxIndex::Deserialize(bad_version).ok());
  bad_version[4] = 0;  // Version 0 is below the floor.
  EXPECT_FALSE(BlockMaxIndex::Deserialize(bad_version).ok());

  std::string bad_codec = blob;
  bad_codec[6] = 0x7f;  // u16 codec low byte.
  EXPECT_FALSE(BlockMaxIndex::Deserialize(bad_codec).ok());

  std::string trailing = blob + std::string(4, '\0');
  EXPECT_FALSE(BlockMaxIndex::Deserialize(trailing).ok());

  // The untouched blob still loads (the mutations above were the cause).
  EXPECT_TRUE(BlockMaxIndex::Deserialize(blob).ok());
}

TEST(BlockIndexSerdeRejects, MismatchedIndexRefused) {
  InvertedIndex a = BuildSyntheticIndex(41, 80);
  InvertedIndex b = BuildSyntheticIndex(43, 90);
  const std::string blob_a = a.SerializeBlockIndex();
  Status s = b.LoadBlockIndex(blob_a);
  EXPECT_FALSE(s.ok());
}

// ---------- Format compatibility ----------

// SerializeBlockIndex() of GoldenIndex(), written by the format's earlier
// writer (the one that could also emit Simple8b, codec id 1). Codec field
// 0 = varint-GB, at byte offset 6.
constexpr char kGoldenBlobHex[] =
    "58524b430200000003000000000000000400000000000000030000000a000000"
    "07000000c2f5285c8fc2f13f14ae47e17a14f63fc2f5285c8fc2f13f04000000"
    "0000000004000000000000000800000000000000000000000100000002000000"
    "0300000004000000020000000200000003000000010000000200000001000000"
    "0200000001000000000000000000000003000000000000000600000000000000"
    "0a000000000000000c0000000000000000000000000000000300000000000000"
    "06000000000000000a000000000000000c000000000000000c00000000000100"
    "00000000000000010c00000000000100000100000000000005d303b35347e53f"
    "bf178b792f94e33f66c74c1931d2c13f893e15884403ed3f05d303b35347e53f"
    "bf178b792f94e33f66c74c1931d2c13f893e15884403ed3f";

InvertedIndex GoldenIndex() {
  InvertedIndex index;
  index.Add(MakeDoc(3, "alpha beta gamma"));
  index.Add(MakeDoc(10, "beta gamma delta beta"));
  index.Add(MakeDoc(7, "gamma alpha alpha"));
  index.Finalize();
  return index;
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(BlockIndexSerdeTest, EarlierVarintGbBlobLoadsUnchanged) {
  const std::string golden = FromHex(kGoldenBlobHex);
  ASSERT_EQ(golden.size(), 312u);
  InvertedIndex index = GoldenIndex();
  // The writer still emits these exact bytes, codec field included.
  EXPECT_EQ(index.SerializeBlockIndex(), golden);
  Status s = index.LoadBlockIndex(golden);
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (const char* q : {"alpha", "beta gamma", "alpha gamma delta"}) {
    const auto oracle = index.Search(q, 3);
    for (QueryEvaluator ev :
         {QueryEvaluator::kMaxScore, QueryEvaluator::kBlockMaxWand}) {
      ExpectIdenticalResults(oracle, index.Search(q, 3, Bm25Params{}, ev),
                             std::string("golden q=") + q);
    }
  }
}

TEST(BlockIndexSerdeRejects, Simple8bCodecIdIsRejected) {
  std::string blob = FromHex(kGoldenBlobHex);
  ASSERT_EQ(blob[6], 0);
  blob[6] = 1;  // Codec id 1 was Simple8b; no reader for it remains.
  StatusOr<BlockMaxIndex> loaded = BlockMaxIndex::Deserialize(blob);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unknown codec"),
            std::string::npos)
      << loaded.status().message();
  InvertedIndex index = GoldenIndex();
  EXPECT_FALSE(index.LoadBlockIndex(blob).ok());
}

// ---------- Mutation sweep over serialized blobs ----------
//
// A serialized block index is untrusted input. Every mutant of a valid
// blob — random byte flips, truncations, splices of two blobs, and
// extreme values planted over count/offset fields — must either be
// rejected with a Status or load into an index that answers queries
// without faulting. Seeded and bounded, so the asan and ubsan scripts
// run it as-is.

/// A loaded index may carry corrupted score maxima (they are stored, not
/// recomputed), so pruned results may differ from exhaustive ones; what
/// must hold is the shape: at most k results, in ranking order.
void ExpectRankingShape(const std::vector<SearchResult>& results, size_t k,
                        const std::string& label) {
  ASSERT_LE(results.size(), k) << label;
  for (size_t i = 1; i < results.size(); ++i) {
    const SearchResult& a = results[i - 1];
    const SearchResult& b = results[i];
    ASSERT_TRUE(a.score > b.score || (a.score == b.score && a.doc < b.doc))
        << label << " rank " << i;
  }
}

TEST(BlockIndexMutationTest, MutantsAreRejectedOrServeSafely) {
  InvertedIndex index = BuildSyntheticIndex(47, 160);
  const std::string blob = index.SerializeBlockIndex();
  const std::string v1 = index.block_index().SerializeVersion(1);
  const std::string other = BuildSyntheticIndex(53, 90).SerializeBlockIndex();
  const char* queries[] = {"w0", "w1 w9", "w0 w3 w17 w60 w200"};
  Rng rng(20090331);
  size_t rejected = 0;
  size_t served = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string label = "mutant " + std::to_string(i);
    const std::string mutant = MutateBlob(&rng, i % 5 == 0 ? v1 : blob, other);
    StatusOr<BlockMaxIndex> loaded = BlockMaxIndex::Deserialize(mutant);
    if (!loaded.ok()) {
      EXPECT_FALSE(index.LoadBlockIndex(mutant).ok()) << label;
      ++rejected;
      continue;
    }
    ++served;
    std::vector<uint32_t> tids;
    for (uint32_t t = 0; t < loaded->NumTerms() && t < 6; ++t) {
      tids.push_back(t);
    }
    for (QueryEvaluator ev :
         {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore,
          QueryEvaluator::kBlockMaxWand}) {
      ExpectRankingShape(loaded->TopK(MakeSpan(tids), 10, ev), 10, label);
    }
    // Through the owning index too: a blob that disagrees with it is
    // refused; one that agrees serves every evaluator.
    if (index.LoadBlockIndex(mutant).ok()) {
      for (const char* q : queries) {
        for (QueryEvaluator ev :
             {QueryEvaluator::kMaxScore, QueryEvaluator::kBlockMaxWand}) {
          ExpectRankingShape(index.Search(q, 10, Bm25Params{}, ev), 10,
                             label + " q=" + q);
        }
      }
    }
  }
  // Both outcomes occur, so the sweep reaches past the header checks.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(served, 0u);
  // The untouched blob still loads and serves the exhaustive answer.
  ASSERT_TRUE(index.LoadBlockIndex(blob).ok());
  for (const char* q : queries) {
    ExpectIdenticalResults(
        index.Search(q, 10),
        index.Search(q, 10, Bm25Params{}, QueryEvaluator::kBlockMaxWand), q);
  }
}

}  // namespace
}  // namespace ckr
