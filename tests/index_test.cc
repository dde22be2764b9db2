// Unit tests for ckr_index: postings, BM25 search, phrase search, snippet
// windows.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "corpus/doc_generator.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "fnv_fold.h"
#include "index/inverted_index.h"
#include "index/legacy_index.h"
#include "obs/hooks.h"
#include "obs/metrics.h"

namespace ckr {

/// Folds the postings layout Finalize() freezes: the slot offset table
/// and every slot's (doc, tf).
class InvertedIndexLayoutPeer {
 public:
  static uint64_t FoldLayout(const InvertedIndex& index) {
    using testing_fnv::FoldValue;
    uint64_t h = testing_fnv::kFnvOffsetBasis;
    const uint64_t num_terms = index.post_offset_.size();
    h = FoldValue(h, num_terms);
    for (size_t offset : index.post_offset_) {
      h = FoldValue(h, static_cast<uint64_t>(offset));
    }
    const size_t num_slots = index.post_doc_.size();
    h = FoldValue(h, static_cast<uint64_t>(num_slots));
    for (size_t slot = 0; slot < num_slots; ++slot) {
      h = FoldValue(h, index.post_doc_[slot]);
      h = FoldValue(h, index.post_tf_[slot]);
    }
    return h;
  }
};

namespace {

Document MakeDoc(DocId id, std::string text) {
  Document d;
  d.id = id;
  d.text = std::move(text);
  return d;
}

// The terms of a token-id span, joined by single spaces.
std::string Terms(const InvertedIndex& index, std::span<const uint32_t> tids) {
  const std::vector<std::string_view> terms = index.TermsById();
  std::string out;
  for (uint32_t tid : tids) {
    if (!out.empty()) out += ' ';
    out += terms[tid];
  }
  return out;
}

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.Add(MakeDoc(0, "the quick brown fox jumps over the lazy dog"));
    index_.Add(MakeDoc(1, "quick brown foxes are quick and brown"));
    index_.Add(MakeDoc(2, "the lazy dog sleeps all day long today"));
    index_.Add(MakeDoc(3, "a completely unrelated document about turtles"));
    index_.Finalize();
  }
  InvertedIndex index_;
};

TEST_F(IndexTest, DocFreq) {
  EXPECT_EQ(index_.DocFreq("quick"), 2u);
  EXPECT_EQ(index_.DocFreq("dog"), 2u);
  EXPECT_EQ(index_.DocFreq("turtles"), 1u);
  EXPECT_EQ(index_.DocFreq("absent"), 0u);
  EXPECT_EQ(index_.NumDocs(), 4u);
}

TEST_F(IndexTest, SearchRanksMatchingDocsFirst) {
  auto results = index_.Search("quick brown", 10);
  ASSERT_GE(results.size(), 2u);
  // Doc 1 has double occurrences of both terms: should rank first.
  EXPECT_EQ(results[0].doc, 1u);
  EXPECT_GT(results[0].score, results[1].score);
  for (const auto& r : results) EXPECT_NE(r.doc, 3u);
}

TEST_F(IndexTest, SearchRespectsK) {
  auto results = index_.Search("the", 1);
  EXPECT_EQ(results.size(), 1u);
}

TEST_F(IndexTest, SearchUnknownTermsEmpty) {
  EXPECT_TRUE(index_.Search("zzz qqq", 10).empty());
  EXPECT_TRUE(index_.Search("", 10).empty());
}

TEST_F(IndexTest, PhraseSearchRequiresAdjacency) {
  // "quick brown" is contiguous in docs 0 and 1.
  EXPECT_EQ(index_.PhraseResultCount("quick brown"), 2u);
  // "quick dog" never occurs contiguously though both terms exist.
  EXPECT_EQ(index_.PhraseResultCount("quick dog"), 0u);
  // Order matters.
  EXPECT_EQ(index_.PhraseResultCount("brown quick"), 0u);
}

TEST_F(IndexTest, PhraseSearchSingleTerm) {
  EXPECT_EQ(index_.PhraseResultCount("lazy"), 2u);
}

TEST_F(IndexTest, PhraseSearchNormalizesCase) {
  EXPECT_EQ(index_.PhraseResultCount("Quick BROWN"), 2u);
}

TEST_F(IndexTest, SnippetContainsQueryTerm) {
  auto results = index_.PhraseSearch("lazy dog", 10);
  ASSERT_FALSE(results.empty());
  EXPECT_NE(Terms(index_, index_.HitWindow(results[0].doc, "lazy dog"))
                .find("lazy dog"),
            std::string::npos);
  // A 4-token window still holds the phrase.
  EXPECT_EQ(Terms(index_, index_.HitWindow(0, "lazy dog", 4)),
            "over the lazy dog");
}

TEST_F(IndexTest, SnippetForUnknownDocEmpty) {
  EXPECT_TRUE(index_.HitWindow(999, "anything").empty());
}

TEST_F(IndexTest, SnippetWindowBounded) {
  // 4-token window: a slice of the document's token stream around "fox".
  const std::span<const uint32_t> window = index_.HitWindow(0, "fox", 4);
  const std::span<const uint32_t> doc = index_.DocTokenIds(0);
  ASSERT_EQ(window.size(), 4u);
  EXPECT_EQ(window.data(), doc.data() + 1);
  EXPECT_EQ(Terms(index_, window), "quick brown fox jumps");
  // No hit: the document head. A window at the end shifts back inside.
  EXPECT_EQ(Terms(index_, index_.HitWindow(0, "zzz", 3)), "the quick brown");
  EXPECT_EQ(Terms(index_, index_.HitWindow(0, "dog", 3)), "the lazy dog");
  EXPECT_EQ(Terms(index_, index_.HitWindow(0, "dog", 5)),
            "jumps over the lazy dog");
}

TEST_F(IndexTest, DocTextRoundTrip) {
  EXPECT_EQ(Terms(index_, index_.DocTokenIds(3)),
            "a completely unrelated document about turtles");
  EXPECT_TRUE(index_.DocTokenIds(12345).empty());
}

TEST(IndexLargeTest, PhraseCountMatchesBruteForce) {
  // Property test: phrase counts agree with a brute-force scan.
  InvertedIndex index;
  std::vector<std::string> texts = {
      "a b c a b", "b c a", "c c c a b c", "a a a", "b a b a b",
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    index.Add(MakeDoc(static_cast<DocId>(i), texts[i]));
  }
  index.Finalize();
  const char* phrases[] = {"a b", "b c", "c a", "a b c", "b a b", "c c"};
  for (const char* phrase : phrases) {
    uint64_t brute = 0;
    for (const std::string& t : texts) {
      const std::string padded = std::string(" ").append(t).append(" ");
      if (padded.find(std::string(" ").append(phrase).append(" ")) !=
          std::string::npos) {
        ++brute;
      }
    }
    EXPECT_EQ(index.PhraseResultCount(phrase), brute) << phrase;
  }
}

TEST(IndexLargeTest, Bm25PrefersRareTerms) {
  InvertedIndex index;
  // "rare" appears once; "common" appears everywhere.
  index.Add(MakeDoc(0, "common words common words rare"));
  for (DocId i = 1; i < 20; ++i) {
    index.Add(MakeDoc(i, "common words again and again"));
  }
  index.Finalize();
  auto results = index.Search("rare common", 20);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc, 0u);
  EXPECT_GT(results[0].score, 2.0 * results[1].score);
}

TEST(IndexLargeTest, DeterministicTieBreak) {
  // Ranking contract (inverted_index.h): descending score, equal scores
  // broken by ascending external doc id — a total order every evaluator
  // (exhaustive, MaxScore, Block-Max-WAND) must honor, including when the
  // tie straddles the k-th slot.
  InvertedIndex index;
  index.Add(MakeDoc(5, "same text here"));
  index.Add(MakeDoc(2, "same text here"));
  index.Add(MakeDoc(9, "same text here"));
  index.Finalize();
  for (QueryEvaluator evaluator :
       {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore,
        QueryEvaluator::kBlockMaxWand}) {
    auto results = index.Search("same text", 3, Bm25Params{}, evaluator);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].doc, 2u);  // Equal scores: ordered by doc id.
    EXPECT_EQ(results[1].doc, 5u);
    EXPECT_EQ(results[2].doc, 9u);
    EXPECT_EQ(results[0].score, results[2].score);

    // k below the tie width: the heap must keep the *smallest* doc ids of
    // the tied band, not whichever arrived first.
    auto top2 = index.Search("same text", 2, Bm25Params{}, evaluator);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0].doc, 2u);
    EXPECT_EQ(top2[1].doc, 5u);
  }
}

TEST(IndexLargeTest, AddOrderDoesNotChangeResults) {
  // Internal doc ids follow Add() order, but no public read depends on
  // it: scores use per-document statistics only and equal scores break on
  // the external id. Two indexes over the same documents, one added in
  // external-id order and one shuffled, must answer identically. Every
  // fourth document repeats one text, so the tied band (75 docs) is wider
  // than k and its members sit in different 128-doc blocks of the
  // shuffled index.
  Rng rng(61);
  std::vector<Document> docs;
  for (DocId d = 0; d < 300; ++d) {
    std::string text = "tie band";
    if (d % 4 != 0) {
      for (int i = 0; i < 6; ++i) {
        text += " w" + std::to_string(rng.NextBounded(40));
      }
    }
    docs.push_back(MakeDoc(d * 3 + 1, text));
  }
  InvertedIndex sorted;
  for (const Document& doc : docs) sorted.Add(doc);
  for (size_t i = docs.size(); i > 1; --i) {
    std::swap(docs[i - 1], docs[static_cast<size_t>(rng.NextBounded(i))]);
  }
  InvertedIndex shuffled;
  for (const Document& doc : docs) shuffled.Add(doc);
  sorted.Finalize();
  shuffled.Finalize();

  auto expect_same = [](const std::vector<SearchResult>& want,
                        const std::vector<SearchResult>& got,
                        const std::string& label) {
    ASSERT_EQ(want.size(), got.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].doc, got[i].doc) << label << " rank " << i;
      EXPECT_EQ(want[i].score, got[i].score) << label << " rank " << i;
    }
  };
  for (const char* q : {"tie band", "tie", "w3 tie", "w1 w2 w7", "band w39"}) {
    for (size_t k : {1u, 10u, 100u}) {
      const auto want = sorted.Search(q, k);
      // The tied band comes out in ascending external id.
      for (size_t i = 1; i < want.size(); ++i) {
        if (want[i - 1].score == want[i].score) {
          EXPECT_LT(want[i - 1].doc, want[i].doc) << q << " rank " << i;
        }
      }
      for (QueryEvaluator ev :
           {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore,
            QueryEvaluator::kBlockMaxWand}) {
        expect_same(want, shuffled.Search(q, k, Bm25Params{}, ev),
                    std::string(q) + " k=" + std::to_string(k));
      }
    }
    EXPECT_EQ(sorted.PhraseResultCount(q), shuffled.PhraseResultCount(q))
        << q;
    expect_same(sorted.PhraseSearch(q, 20), shuffled.PhraseSearch(q, 20), q);
  }
}

TEST(IndexOptionsTest, PhraseContractHoldsWithoutStoredText) {
  // store_text=false hides the token streams from readers outside the
  // index only; the index keeps them and the position pool, so every
  // phrase and search result is bit-identical to the store_text=true
  // build. DocTokenIds and HitWindow return empty spans instead of
  // failing — the documented contract.
  InvertedIndex full;
  IndexBuildOptions lean_opts;
  lean_opts.store_text = false;
  InvertedIndex lean(lean_opts);
  const char* texts[] = {"the quick brown fox", "quick brown foxes run",
                         "brown the quick", "nothing in common"};
  for (DocId d = 0; d < 4; ++d) {
    full.Add(MakeDoc(d * 2 + 1, texts[d]));
    lean.Add(MakeDoc(d * 2 + 1, texts[d]));
  }
  full.Finalize();
  lean.Finalize();

  for (const char* phrase :
       {"quick brown", "brown fox", "the quick brown", "quick the", "",
        "   ", "zzz", "quick zzz", "quick"}) {
    EXPECT_EQ(lean.PhraseResultCount(phrase), full.PhraseResultCount(phrase))
        << phrase;
    const auto a = lean.PhraseSearch(phrase, 10);
    const auto b = full.PhraseSearch(phrase, 10);
    ASSERT_EQ(a.size(), b.size()) << phrase;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc) << phrase;
      EXPECT_EQ(a[i].score, b[i].score) << phrase;
    }
  }
  const auto a = lean.Search("quick brown", 10);
  const auto b = full.Search("quick brown", 10);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].doc, b[i].doc);

  // The degraded accessors return empty spans (not a crash, not stale
  // ids).
  EXPECT_TRUE(lean.DocTokenIds(1).empty());
  EXPECT_TRUE(lean.HitWindow(1, "quick", 30).empty());
  EXPECT_FALSE(full.DocTokenIds(1).empty());
  EXPECT_FALSE(full.HitWindow(1, "quick", 30).empty());
}

TEST(IndexOptionsTest, PhraseContractHoldsWithDeferredBlockIndex) {
  // build_block_index=false defers the pruning structure; phrase paths
  // never touch it, so counts and hits are identical before the deferred
  // RebuildBlockIndex() and unchanged after it. Pruned evaluators fall
  // back to the exhaustive scorer while it is absent.
  IndexBuildOptions deferred_opts;
  deferred_opts.build_block_index = false;
  InvertedIndex deferred(deferred_opts);
  InvertedIndex eager;
  const char* texts[] = {"alpha beta gamma", "beta gamma delta",
                         "gamma alpha beta"};
  for (DocId d = 0; d < 3; ++d) {
    deferred.Add(MakeDoc(d, texts[d]));
    eager.Add(MakeDoc(d, texts[d]));
  }
  deferred.Finalize();
  eager.Finalize();
  ASSERT_FALSE(deferred.has_block_index());
  ASSERT_TRUE(eager.has_block_index());

  auto expect_phrases_match = [&](const InvertedIndex& idx) {
    for (const char* phrase :
         {"beta gamma", "alpha beta", "gamma delta", "delta alpha", "",
          "zzz beta"}) {
      EXPECT_EQ(idx.PhraseResultCount(phrase),
                eager.PhraseResultCount(phrase))
          << phrase;
      const auto a = idx.PhraseSearch(phrase, 5);
      const auto b = eager.PhraseSearch(phrase, 5);
      ASSERT_EQ(a.size(), b.size()) << phrase;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].doc, b[i].doc) << phrase;
        EXPECT_EQ(a[i].score, b[i].score) << phrase;
      }
    }
  };
  expect_phrases_match(deferred);
  // Pruned evaluators route through the exhaustive scorer while the block
  // index is deferred — same results, no crash.
  for (QueryEvaluator evaluator :
       {QueryEvaluator::kMaxScore, QueryEvaluator::kBlockMaxWand}) {
    const auto a = deferred.Search("beta gamma", 5, Bm25Params{}, evaluator);
    const auto b = eager.Search("beta gamma", 5, Bm25Params{}, evaluator);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].doc, b[i].doc);
  }

  deferred.RebuildBlockIndex();
  ASSERT_TRUE(deferred.has_block_index());
  expect_phrases_match(deferred);
}

#if CKR_OBS_ENABLED
// A pruned evaluator that cannot run falls back to the exhaustive scorer
// loudly: one ckr.index.evaluator_fallbacks per search, for each of the two
// causes, and none on the default paths.
TEST(IndexOptionsTest, EvaluatorFallbacksAreCounted) {
  IndexBuildOptions no_block_opts;
  no_block_opts.build_block_index = false;
  InvertedIndex no_block(no_block_opts);
  InvertedIndex eager;
  const char* texts[] = {"alpha beta gamma", "beta gamma delta",
                         "gamma alpha beta"};
  for (DocId d = 0; d < 3; ++d) {
    no_block.Add(MakeDoc(d, texts[d]));
    eager.Add(MakeDoc(d, texts[d]));
  }
  no_block.Finalize();
  eager.Finalize();
  ASSERT_FALSE(no_block.has_block_index());
  ASSERT_TRUE(eager.has_block_index());

  const obs::Counter* fallbacks = obs::MetricRegistry::Global().GetCounter(
      "ckr.index.evaluator_fallbacks");
  const auto count = [&](auto&& search) {
    const uint64_t before = fallbacks->Value();
    EXPECT_FALSE(search().empty());
    return fallbacks->Value() - before;
  };
  Bm25Params tuned;
  tuned.k1 = 2.0;
  for (QueryEvaluator pruned :
       {QueryEvaluator::kMaxScore, QueryEvaluator::kBlockMaxWand}) {
    // Default paths: nothing falls back.
    EXPECT_EQ(count([&] { return eager.Search("beta gamma", 5); }), 0u);
    EXPECT_EQ(count([&] {
                return eager.Search("beta gamma", 5, Bm25Params{}, pruned);
              }),
              0u);
    EXPECT_EQ(count([&] { return no_block.Search("beta gamma", 5, tuned); }),
              0u);
    // Non-default parameters.
    EXPECT_EQ(count([&] {
                return eager.Search("beta gamma", 5, tuned, pruned);
              }),
              1u);
    // No block index.
    EXPECT_EQ(count([&] {
                return no_block.Search("beta gamma", 5, Bm25Params{}, pruned);
              }),
              1u);
  }
}
#endif

TEST(IndexOptionsTest, PhraseEarlyExitsOnEmptyAndOovInput) {
  // The ResolvePhrase early exits (inverted_index.cc): empty input,
  // whitespace-only input, and any out-of-vocabulary term resolve to "no
  // results" across both phrase entry points.
  InvertedIndex index;
  index.Add(MakeDoc(7, "only one document here"));
  index.Finalize();
  for (const char* phrase : {"", "   ", "\t\n", "missing", "one missing"}) {
    EXPECT_EQ(index.PhraseResultCount(phrase), 0u)
        << "phrase='" << phrase << "'";
    EXPECT_TRUE(index.PhraseSearch(phrase, 10).empty())
        << "phrase='" << phrase << "'";
  }
  EXPECT_EQ(index.PhraseResultCount("one document"), 1u);
}

// Docs 12 and 13 contain "quick" and "brown" but not adjacently, so the
// phrase seed loop must verify positions rather than trust term presence.
class PhraseIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const auto& [id, text] : kDocs) {
      index_.Add(MakeDoc(id, text));
      legacy_.Add(MakeDoc(id, text));
    }
    index_.Finalize();
    legacy_.Finalize();
  }
  static constexpr std::pair<DocId, const char*> kDocs[] = {
      {10, "the quick brown fox jumps"},
      {11, "quick brown foxes are quick"},
      {12, "quick dogs and brown cats"},
      {13, "brown bread with quick jam"},
      {14, "nothing relevant in here"},
  };
  InvertedIndex index_;
  LegacyInvertedIndex legacy_;
};

TEST_F(PhraseIndexTest, PhraseCountsMatchLegacyIndex) {
  const char* phrases[] = {"quick brown",  "brown fox",   "quick",
                           "quick dogs",   "brown cats",  "fox jumps",
                           "quick jam",    "dogs quick",  "the quick brown",
                           "quick quick",  "zzz",         "quick zzz",
                           "",             "   ",         "quick quick brown"};
  for (const char* p : phrases) {
    EXPECT_EQ(index_.PhraseResultCount(p), legacy_.PhraseResultCount(p))
        << "phrase: '" << p << "'";
    const auto got = index_.PhraseSearch(p, 10);
    const auto want = legacy_.PhraseSearch(p, 10);
    ASSERT_EQ(got.size(), want.size()) << "phrase: '" << p << "'";
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doc, want[i].doc);
      EXPECT_EQ(got[i].score, want[i].score);
    }
  }
}

TEST_F(PhraseIndexTest, DegenerateQueriesAreSafe) {
  // Empty/whitespace-only queries: no terms, nothing matches.
  EXPECT_EQ(index_.PhraseResultCount(""), 0u);
  EXPECT_EQ(index_.PhraseResultCount("   \t  "), 0u);
  EXPECT_TRUE(index_.PhraseSearch("", 10).empty());
  EXPECT_TRUE(index_.Search("", 10).empty());
  EXPECT_TRUE(index_.Search("   ", 10).empty());
  EXPECT_EQ(index_.PhraseResultCount("quick quick"), 0u);  // Not adjacent.
  auto dup = index_.Search("quick quick", 10);
  auto single = index_.Search("quick", 10);
  ASSERT_EQ(dup.size(), single.size());
  for (size_t i = 0; i < dup.size(); ++i) {
    EXPECT_EQ(dup[i].doc, single[i].doc);
    EXPECT_EQ(dup[i].score, single[i].score);
  }
  // Out-of-vocabulary phrase terms early-exit to zero.
  EXPECT_EQ(index_.PhraseResultCount("quick zzzz"), 0u);
  EXPECT_TRUE(index_.PhraseSearch("zzzz quick", 5).empty());
}

// ---------------------------------------------------------------------
// Golden postings layout. A fixed seeded corpus, finalized, folded with
// InvertedIndexLayoutPeer. The corpus mixes empty and one-token
// documents, a single term repeated (Golomb m = 1), head terms with long
// position lists, terms seen once at the far end of a long document
// (long unary runs), and generated web documents. The constant was
// recorded from the Finalize that still built a Golomb position pool
// beside the (doc, tf) columns; any change to the slot order, the doc
// ids or the term frequencies changes it.

InvertedIndex LayoutGoldenIndex(bool store_text) {
  IndexBuildOptions options;
  options.store_text = store_text;
  InvertedIndex index(options);
  DocId next = 1;
  auto add = [&](std::string text) { index.Add(MakeDoc(next++, text)); };
  add("");
  add("solo");
  add("rep rep rep rep rep rep rep rep rep rep rep rep");
  std::string tail;
  for (int i = 0; i < 900; ++i) tail += "pad" + std::to_string(i % 7) + " ";
  add(tail + "farend");
  Rng rng(2024);
  for (int d = 0; d < 300; ++d) {
    std::string text;
    const size_t len = rng.NextBounded(d % 10 == 0 ? 700 : 90);
    for (size_t i = 0; i < len; ++i) {
      const uint64_t u = rng.NextBounded(100);
      const uint64_t term = u < 45   ? rng.NextBounded(6)
                            : u < 80 ? rng.NextBounded(120)
                                     : rng.NextBounded(3000);
      text.append("t").append(std::to_string(term)).append(" ");
    }
    add(std::move(text));
  }
  WorldConfig cfg;
  cfg.num_topics = 6;
  cfg.background_vocab = 600;
  cfg.words_per_topic = 40;
  cfg.num_named_entities = 150;
  cfg.num_concepts = 80;
  cfg.num_generic_concepts = 10;
  auto world_or = World::Create(cfg);
  CKR_CHECK(world_or.ok());
  DocGenerator gen(**world_or);
  for (DocId id = 0; id < 60; ++id) {
    add(gen.Generate(Document::Kind::kWeb, id).text);
  }
  index.Finalize();
  return index;
}

TEST(IndexLayoutGoldenTest, FinalizedLayoutIsPinned) {
  for (const bool store_text : {true, false}) {
    const InvertedIndex index = LayoutGoldenIndex(store_text);
    EXPECT_EQ(index.NumDocs(), 364u);
    const uint64_t h = InvertedIndexLayoutPeer::FoldLayout(index);
    EXPECT_EQ(h, 0xe44b2049aaa1513cull) << "store_text=" << store_text
                         << " fingerprint: " << std::hex << h;
  }
}

}  // namespace
}  // namespace ckr
