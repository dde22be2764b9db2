// Tests for the block layer over the CSR postings: skip-cursor traversal
// against std::lower_bound, block geometry and exact block/term maxima,
// and block-max evaluator equivalence with the exhaustive oracle, built
// eagerly, deferred, and driven directly in arbitrary query order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "corpus/document.h"
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

// ---------- Block cursor over a CSR row ----------

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

/// Per-block maxima of `t` scored by tf alone — enough for a cursor test,
/// which checks positions and bounds, not BM25.
std::vector<double> TfBlockMaxima(const TermList& t) {
  std::vector<double> maxima(BlocksFor(t.docs.size()), 0.0);
  for (size_t i = 0; i < t.tfs.size(); ++i) {
    double& m = maxima[i / kPostingBlockSize];
    m = std::max(m, static_cast<double>(t.tfs[i]));
  }
  return maxima;
}

PostingCursor TfCursor(const TermList& t, const std::vector<double>& maxima) {
  return PostingCursor(MakeSpan(t.docs), MakeSpan(t.tfs), MakeSpan(maxima));
}

/// CSR columns over hand-made term lists, as an index would hold them,
/// with `num_docs` documents of random norm.
struct Columns {
  std::vector<size_t> offset{0};
  std::vector<uint32_t> doc;
  std::vector<uint32_t> tf;
  std::vector<double> norm;
  std::vector<DocId> ext_id;

  PostingColumns View() const {
    return {MakeSpan(offset), MakeSpan(doc), MakeSpan(tf), MakeSpan(norm),
            MakeSpan(ext_id)};
  }
  /// The local BM25 idf of every term, as an unsharded index scores.
  std::vector<double> LocalIdf() const {
    const double n = static_cast<double>(ext_id.size());
    std::vector<double> idf;
    for (size_t t = 0; t + 1 < offset.size(); ++t) {
      const double dfd = static_cast<double>(offset[t + 1] - offset[t]);
      idf.push_back(std::log(1.0 + (n - dfd + 0.5) / (dfd + 0.5)));
    }
    return idf;
  }
};

Columns MakeColumns(const std::vector<TermList>& terms, uint32_t num_docs,
                    Rng* rng) {
  Columns c;
  for (const TermList& t : terms) {
    c.doc.insert(c.doc.end(), t.docs.begin(), t.docs.end());
    c.tf.insert(c.tf.end(), t.tfs.begin(), t.tfs.end());
    c.offset.push_back(c.doc.size());
  }
  for (uint32_t d = 0; d < num_docs; ++d) {
    c.ext_id.push_back(d * 3 + 1);
    c.norm.push_back(0.5 + rng->NextDouble() * 2.0);
  }
  return c;
}

/// The exhaustive scorer's contribution of one posting.
double Contribution(double idf, uint32_t tf, double norm) {
  const Bm25Params defaults;
  const double tfd = static_cast<double>(tf);
  return idf * tfd * (defaults.k1 + 1.0) / (tfd + norm);
}

TEST(StoreTest, BlockGeometry) {
  // 129 postings: one full 128-slot block plus a 1-slot tail block, and a
  // second term of 3 postings after it.
  TermList t;
  for (uint32_t d = 0; d < 129; ++d) {
    t.docs.push_back(d * 2);
    t.tfs.push_back(1 + d % 3);
  }
  TermList u{{1, 5, 9}, {4, 1, 2}};
  Rng rng(1);
  const Columns cols = MakeColumns({t, u}, 257, &rng);
  const std::vector<double> idf = cols.LocalIdf();
  const BlockMaxIndex index(cols.View(), idf);
  EXPECT_EQ(index.NumTerms(), 2u);
  EXPECT_EQ(index.NumBlocks(), 3u);
  EXPECT_EQ(index.TermFirstBlock(0), 0u);
  EXPECT_EQ(index.TermBlocks(0), 2u);
  EXPECT_EQ(index.TermFirstBlock(1), 2u);
  EXPECT_EQ(index.TermBlocks(1), 1u);

  // Each block maximum is the exact largest contribution in its slots,
  // and each term maximum the largest of its blocks.
  const std::vector<TermList> terms = {t, u};
  uint32_t block = 0;
  for (uint32_t tid = 0; tid < 2; ++tid) {
    EXPECT_EQ(index.TermIdf(tid), idf[tid]);
    double term_max = 0.0;
    const TermList& list = terms[tid];
    for (size_t begin = 0; begin < list.docs.size();
         begin += kPostingBlockSize, ++block) {
      double block_max = 0.0;
      for (size_t i = begin;
           i < std::min(list.docs.size(), begin + kPostingBlockSize); ++i) {
        block_max = std::max(
            block_max, Contribution(idf[tid], list.tfs[i],
                                    cols.norm[list.docs[i]]));
      }
      EXPECT_EQ(index.BlockMaxScore(block), block_max) << "block " << block;
      term_max = std::max(term_max, block_max);
    }
    EXPECT_EQ(index.TermMaxScore(tid), term_max) << "tid " << tid;
  }

  // A block's last doc is the row's doc at its last slot.
  const std::vector<double> maxima = TfBlockMaxima(t);
  PostingCursor cur = TfCursor(t, maxima);
  EXPECT_EQ(cur.ShallowBound(0).last_doc, 127u * 2);
  EXPECT_EQ(cur.ShallowBound(127 * 2 + 1).last_doc, 128u * 2);
  EXPECT_EQ(cur.ShallowBound(128 * 2 + 1).last_doc, PostingCursor::kEndDoc);
}

TEST(StoreTest, CursorWalksExactPostings) {
  Rng rng(3);
  std::vector<TermList> terms;
  for (size_t size : {1u, 2u, 127u, 128u, 129u, 300u, 1000u}) {
    terms.push_back(RandomTermList(&rng, 1u << 20, size));
  }
  for (uint32_t tid = 0; tid < terms.size(); ++tid) {
    const std::vector<double> maxima = TfBlockMaxima(terms[tid]);
    PostingCursor cur = TfCursor(terms[tid], maxima);
    EXPECT_EQ(cur.postings(), terms[tid].docs.size());
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
  const std::vector<double> maxima = TfBlockMaxima(t);
  for (int iter = 0; iter < 500; ++iter) {
    PostingCursor cur = TfCursor(t, maxima);
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
  const std::vector<double> maxima = TfBlockMaxima(t);
  PostingCursor cur = TfCursor(t, maxima);
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

// ---------- Block-max index: evaluators ----------

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
      text.append("w").append(std::to_string(term)).append(" ");
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
  // scorer until RebuildBlockIndex(), after which the block index must
  // hold exactly the metadata the eager path computed.
  Rng rng(99);
  std::vector<Document> docs;
  for (size_t d = 0; d < 300; ++d) {
    std::string text;
    const size_t len = 5 + rng.NextBounded(60);
    for (size_t i = 0; i < len; ++i) {
      text.append("w").append(std::to_string(rng.NextBounded(120))).append(" ");
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
  const BlockMaxIndex& a = eager.block_index();
  const BlockMaxIndex& b = deferred.block_index();
  ASSERT_EQ(a.NumTerms(), b.NumTerms());
  ASSERT_EQ(a.NumBlocks(), b.NumBlocks());
  for (uint32_t tid = 0; tid < a.NumTerms(); ++tid) {
    EXPECT_EQ(a.TermFirstBlock(tid), b.TermFirstBlock(tid));
    EXPECT_EQ(a.TermBlocks(tid), b.TermBlocks(tid));
    EXPECT_EQ(a.TermMaxScore(tid), b.TermMaxScore(tid));
    EXPECT_EQ(a.TermIdf(tid), b.TermIdf(tid));
  }
  for (uint32_t block = 0; block < a.NumBlocks(); ++block) {
    EXPECT_EQ(a.BlockMaxScore(block), b.BlockMaxScore(block));
  }
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
  std::vector<TermList> terms;
  for (size_t size : {400u, 350u, 120u, 40u, 7u, 1u}) {
    terms.push_back(RandomTermList(&rng, num_docs, size));
  }
  const Columns cols = MakeColumns(terms, num_docs, &rng);
  const BlockMaxIndex idx(cols.View(), cols.LocalIdf());
  const std::vector<std::vector<uint32_t>> queries = {
      {0}, {5, 0, 2}, {3, 1}, {5, 4, 3, 2, 1, 0}, {2, 5}};
  for (const auto& tids : queries) {
    for (size_t k : {1u, 10u, 50u}) {
      const PostingColumns view = cols.View();
      auto oracle =
          idx.TopK(view, MakeSpan(tids), k, QueryEvaluator::kExhaustive);
      auto ms = idx.TopK(view, MakeSpan(tids), k, QueryEvaluator::kMaxScore);
      auto bmw =
          idx.TopK(view, MakeSpan(tids), k, QueryEvaluator::kBlockMaxWand);
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

TEST(BlockMaxIndexTest, TermMaximaAreTopSingleTermScores) {
  // A one-term query's best score is the term's largest contribution, so
  // the exhaustive top-1 must equal the stored maximum bit for bit.
  InvertedIndex index = BuildSyntheticIndex(999, 800);
  const std::vector<std::string_view> terms = index.TermsById();
  ASSERT_EQ(terms.size(), index.block_index().NumTerms());
  for (uint32_t tid = 0; tid < terms.size(); ++tid) {
    const auto top = index.Search(terms[tid], 1);
    ASSERT_EQ(top.size(), 1u) << terms[tid];
    EXPECT_EQ(top[0].score, index.block_index().TermMaxScore(tid))
        << terms[tid];
  }
}

}  // namespace
}  // namespace ckr
