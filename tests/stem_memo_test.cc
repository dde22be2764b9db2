// StemMemo: the per-scratch surface-form -> TID memo of the runtime
// Stemmer. Unit tests pin its bounds and reset rules; the ranker tests pin
// exactness — ProcessDocument, which resolves every token through the
// memo, must stay bit-identical to ProcessDocumentLegacy, which never
// touches it, across seeds, rankers sharing a scratch, mid-document
// clears and a TID table that grows between calls.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/contextual_ranker.h"
#include "corpus/doc_generator.h"
#include "framework/stem_memo.h"
#include "obs/hooks.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

// A distinct lower-case form for every n ("zqa", "zqb", ..., "zqba", ...).
std::string SyntheticForm(size_t n) {
  std::string s = "zq";
  do {
    s.push_back(static_cast<char>('a' + n % 26));
    n /= 26;
  } while (n > 0);
  return s;
}

// Stand-in for the stemming chain: a value that differs per form, plus a
// call count.
struct CountingCompute {
  size_t* calls;
  uint32_t operator()(std::string_view form) const {
    ++*calls;
    return static_cast<uint32_t>(std::hash<std::string_view>{}(form) >> 40);
  }
};

TEST(StemMemoTest, MissThenHit) {
  StemMemo memo;
  size_t calls = 0;
  memo.Bind(1, 10);
  const uint32_t first = memo.Resolve("cats", CountingCompute{&calls});
  EXPECT_EQ(memo.Resolve("cats", CountingCompute{&calls}), first);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(memo.size(), 1u);
  StemMemo::Tally t = memo.TakeTally();
  EXPECT_EQ(t.hits, 1u);
  EXPECT_EQ(t.misses, 1u);
  EXPECT_EQ(t.resets, 0u);
  t = memo.TakeTally();  // Taking zeroes the counts.
  EXPECT_EQ(t.hits + t.misses + t.resets, 0u);
}

TEST(StemMemoTest, EveryFormKeepsItsOwnValueAcrossAClear) {
  StemMemo memo;
  size_t calls = 0;
  memo.Bind(1, 10);
  const size_t n = StemMemo::kMaxEntries + StemMemo::kMaxEntries / 2;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      const std::string form = SyntheticForm(i);
      size_t unused = 0;
      ASSERT_EQ(memo.Resolve(form, CountingCompute{&calls}),
                CountingCompute{&unused}(form))
          << form;
      ASSERT_LE(memo.size(), StemMemo::kMaxEntries);
    }
  }
  // Each pass overflows the memo once, so nothing survives to be hit.
  const StemMemo::Tally t = memo.TakeTally();
  EXPECT_EQ(t.resets, 2u);
  EXPECT_EQ(t.misses, 2 * n);
  EXPECT_EQ(calls, 2 * n);
}

TEST(StemMemoTest, ClearsExactlyWhenHalfFull) {
  StemMemo memo;
  size_t calls = 0;
  memo.Bind(1, 10);
  for (size_t i = 0; i < StemMemo::kMaxEntries; ++i) {
    memo.Resolve(SyntheticForm(i), CountingCompute{&calls});
  }
  EXPECT_EQ(memo.size(), StemMemo::kMaxEntries);
  EXPECT_EQ(memo.TakeTally().resets, 0u);
  memo.Resolve(SyntheticForm(StemMemo::kMaxEntries), CountingCompute{&calls});
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.TakeTally().resets, 1u);
  // The first form was dropped with the rest: resolving it runs the chain.
  memo.Resolve(SyntheticForm(0), CountingCompute{&calls});
  EXPECT_EQ(calls, StemMemo::kMaxEntries + 2);
}

TEST(StemMemoTest, RebindClearsOnNewOwnerOrTableSize) {
  StemMemo memo;
  size_t calls = 0;
  memo.Bind(1, 10);
  memo.Resolve("cats", CountingCompute{&calls});
  memo.Bind(1, 10);  // Same owner and size: kept.
  memo.Resolve("cats", CountingCompute{&calls});
  EXPECT_EQ(calls, 1u);
  memo.Bind(2, 10);  // Another ranker.
  EXPECT_EQ(memo.size(), 0u);
  memo.Resolve("cats", CountingCompute{&calls});
  memo.Bind(2, 11);  // The table grew.
  EXPECT_EQ(memo.size(), 0u);
  memo.Resolve("cats", CountingCompute{&calls});
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(memo.TakeTally().resets, 2u);
  memo.Bind(3, 11);  // Drops "cats".
  memo.Bind(4, 12);  // Nothing cached to drop: not a reset.
  EXPECT_EQ(memo.TakeTally().resets, 1u);
}

TEST(StemMemoTest, LongFormsAreResolvedButNotStored) {
  StemMemo memo;
  size_t calls = 0;
  memo.Bind(1, 10);
  const std::string longest(StemMemo::kMaxFormBytes, 'a');
  const std::string too_long(StemMemo::kMaxFormBytes + 1, 'a');
  memo.Resolve(longest, CountingCompute{&calls});
  memo.Resolve(longest, CountingCompute{&calls});
  memo.Resolve(too_long, CountingCompute{&calls});
  memo.Resolve(too_long, CountingCompute{&calls});
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(memo.size(), 1u);
}

// ---------------------------------------------------------------------
// Exactness on the ranker.

bool SameRanking(const std::vector<RankedAnnotation>& a,
                 const std::vector<RankedAnnotation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].begin != b[i].begin ||
        a[i].end != b[i].end || a[i].type != b[i].type ||
        a[i].score != b[i].score) {  // Exact: bit-identical scores.
      return false;
    }
  }
  return true;
}

// The context TIDs the memo-free chain gives `text` under `tids`.
std::unordered_set<uint32_t> ChainContext(std::string_view text,
                                          const GlobalTidTable& tids) {
  std::unordered_set<uint32_t> out;
  for (const std::string& tok : TokenizeToStrings(text)) {
    if (IsStopWord(tok)) continue;
    const uint32_t tid = tids.Lookup(PorterStem(tok));
    if (tid != GlobalTidTable::kMaxTid) out.insert(tid);
  }
  return out;
}

// The scratch's context must hold exactly the chain's TIDs.
void ExpectContext(const RankerScratch& scratch, std::string_view text,
                   const GlobalTidTable& tids) {
  const std::unordered_set<uint32_t> want = ChainContext(text, tids);
  EXPECT_EQ(scratch.context.size(), want.size());
  for (uint32_t tid : want) EXPECT_TRUE(scratch.context.Contains(tid)) << tid;
}

class StemMemoRankerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ContextualRankerOptions options;
    options.pipeline = PipelineConfig::SmallForTests();
    auto ranker_or = ContextualRanker::Train(options);
    ASSERT_TRUE(ranker_or.ok()) << ranker_or.status().ToString();
    ranker_ = ranker_or->release();
  }

  static void TearDownTestSuite() {
    delete ranker_;
    ranker_ = nullptr;
  }

  static std::vector<std::string> Docs(uint64_t seed, size_t n) {
    DocGenerator gen(ranker_->pipeline().world());
    std::vector<std::string> docs;
    const DocId first = 720000 + static_cast<DocId>(seed) * 1000;
    for (size_t i = 0; i < n; ++i) {
      const auto kind =
          i % 3 == 2 ? Document::Kind::kWeb : Document::Kind::kNews;
      docs.push_back(gen.Generate(kind, first + static_cast<DocId>(i)).text);
    }
    return docs;
  }

  // A ranker over the trained detector, stores and model but another TID
  // table.
  static std::unique_ptr<RuntimeRanker> WithTable(const GlobalTidTable& t) {
    return std::make_unique<RuntimeRanker>(
        ranker_->pipeline().detector(), ranker_->interestingness_store(),
        ranker_->relevance_store(), t, ranker_->model());
  }

  static ContextualRanker* ranker_;
};

ContextualRanker* StemMemoRankerTest::ranker_ = nullptr;

TEST_F(StemMemoRankerTest, BitIdenticalToLegacyAcrossSeeds) {
  const RuntimeRanker& runtime = ranker_->runtime();
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const std::vector<std::string> docs = Docs(seed, 24);
    Rng rng(seed);
    RankerScratch scratch;  // Warm across documents, as in serving.
    size_t nonempty = 0;
    // Two passes: the second runs almost entirely on memo hits.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i : rng.Permutation(docs.size())) {
        auto flat = runtime.ProcessDocument(docs[i], &scratch, nullptr);
        EXPECT_TRUE(SameRanking(flat, runtime.ProcessDocumentLegacy(docs[i])))
            << "seed " << seed << " doc " << i << " pass " << pass;
        ExpectContext(scratch, docs[i], ranker_->tid_table());
        if (!flat.empty()) ++nonempty;
      }
    }
    EXPECT_GT(nonempty, docs.size());  // Not vacuous.
    EXPECT_GT(scratch.stem_memo.size(), 0u);
  }
}

TEST_F(StemMemoRankerTest, OneScratchAlternatesBetweenRankers) {
  const std::vector<std::string> docs = Docs(5, 12);
  // Two tables over the same stems in opposite order: equal size, so only
  // the ranker id tells their memos apart, and every TID means another
  // term in the other table.
  std::vector<std::string> stems;
  std::unordered_set<std::string> seen;
  for (const std::string& doc : docs) {
    for (const std::string& tok : TokenizeToStrings(doc)) {
      std::string stem = PorterStem(tok);
      if (!IsStopWord(tok) && seen.insert(stem).second) stems.push_back(stem);
    }
  }
  GlobalTidTable forward;
  GlobalTidTable backward;
  for (size_t i = 0; i < stems.size(); ++i) {
    forward.Intern(stems[i]);
    backward.Intern(stems[stems.size() - 1 - i]);
  }
  ASSERT_EQ(forward.size(), backward.size());
  const auto a = WithTable(forward);
  const auto b = WithTable(backward);
  const RuntimeRanker* rankers[] = {a.get(), b.get(), &ranker_->runtime()};
  const GlobalTidTable* tables[] = {&forward, &backward,
                                    &ranker_->tid_table()};

  RankerScratch shared;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < docs.size(); ++i) {
      for (size_t r = 0; r < 3; ++r) {
        auto flat = rankers[r]->ProcessDocument(docs[i], &shared, nullptr);
        EXPECT_TRUE(
            SameRanking(flat, rankers[r]->ProcessDocumentLegacy(docs[i])))
            << "ranker " << r << " doc " << i << " pass " << pass;
        ExpectContext(shared, docs[i], *tables[r]);
      }
    }
  }
}

TEST_F(StemMemoRankerTest, ClearsMidDocumentWithoutChangingRanks) {
  const RuntimeRanker& runtime = ranker_->runtime();
  const std::vector<std::string> docs = Docs(6, 4);
  // Real text, more distinct forms than the memo holds, then the real
  // text again: its forms must be resolved afresh after the clear.
  std::string filler;
  for (size_t i = 0; i < StemMemo::kMaxEntries + 1000; ++i) {
    filler += SyntheticForm(i);
    filler += ' ';
  }
  RankerScratch scratch;
  size_t nonempty = 0;
#if CKR_OBS_ENABLED
  const obs::Counter* resets =
      obs::MetricRegistry::Global().GetCounter("ckr.runtime.stem_memo_resets");
  const uint64_t resets_before = resets->Value();
#endif
  for (const std::string& doc : docs) {
    const std::string text = doc + "\n" + filler + "\n" + doc;
    auto flat = runtime.ProcessDocument(text, &scratch, nullptr);
    EXPECT_TRUE(SameRanking(flat, runtime.ProcessDocumentLegacy(text)));
    if (!flat.empty()) ++nonempty;
    ExpectContext(scratch, text, ranker_->tid_table());
    EXPECT_LE(scratch.stem_memo.size(), StemMemo::kMaxEntries);
  }
  EXPECT_GT(nonempty, 0u);
#if CKR_OBS_ENABLED
  EXPECT_GE(resets->Value() - resets_before, docs.size());
#endif
}

TEST_F(StemMemoRankerTest, InternAfterCachedUnknownIsSeen) {
  GlobalTidTable tids = ranker_->tid_table();  // A copy we may grow.
  const auto runtime = WithTable(tids);
  const std::string doc = Docs(7, 1)[0] + " Zqxjvorpal zqxjvorpal.";
  const std::string stem = PorterStem("zqxjvorpal");
  ASSERT_EQ(tids.Lookup(stem), GlobalTidTable::kMaxTid);

  RankerScratch scratch;
  auto before = runtime->ProcessDocument(doc, &scratch, nullptr);
  EXPECT_TRUE(SameRanking(before, runtime->ProcessDocumentLegacy(doc)));
  ExpectContext(scratch, doc, tids);

  // The memo now holds "zqxjvorpal" as unknown; interning its stem must
  // make the next call see the new TID.
  const uint32_t tid = tids.Intern(stem);
  ASSERT_NE(tid, GlobalTidTable::kMaxTid);
  auto after = runtime->ProcessDocument(doc, &scratch, nullptr);
  EXPECT_TRUE(scratch.context.Contains(tid));
  ExpectContext(scratch, doc, tids);
  EXPECT_TRUE(SameRanking(after, runtime->ProcessDocumentLegacy(doc)));
}

}  // namespace
}  // namespace ckr
