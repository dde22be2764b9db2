// StemMemo: the per-scratch surface-form -> (TID, term id) memo of the
// runtime Stemmer. Unit tests pin its bounds and reset rules; the ranker
// tests pin exactness — ProcessDocument, which resolves every token
// through the memo, must stay bit-identical to ProcessDocumentLegacy,
// which never touches it, across seeds, rankers sharing a scratch,
// mid-document clears and a TID table that grows between calls — and pin
// that the term ids it hands the detector are the detector's own.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/contextual_ranker.h"
#include "corpus/doc_generator.h"
#include "detect/aho_corasick.h"
#include "detect/entity_detector.h"
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

// Stand-in for the stemming chain and the term lookup: two values that
// differ per form, plus a call count.
struct CountingCompute {
  size_t* calls;
  StemMemo::Ids operator()(std::string_view form) const {
    ++*calls;
    const uint64_t h = std::hash<std::string_view>{}(form);
    return {static_cast<uint32_t>(h >> 40), static_cast<uint32_t>(h)};
  }
};

TEST(StemMemoTest, MissThenHit) {
  StemMemo memo;
  size_t calls = 0;
  memo.Bind(1, 10);
  const StemMemo::Ids first = memo.Resolve("cats", CountingCompute{&calls});
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

  // `n` generated documents; every third is a web page unless
  // `news_only`.
  static std::vector<std::string> Docs(uint64_t seed, size_t n,
                                       bool news_only = false) {
    DocGenerator gen(ranker_->pipeline().world());
    std::vector<std::string> docs;
    const DocId first = 720000 + static_cast<DocId>(seed) * 1000;
    for (size_t i = 0; i < n; ++i) {
      const auto kind = !news_only && i % 3 == 2 ? Document::Kind::kWeb
                                                 : Document::Kind::kNews;
      docs.push_back(gen.Generate(kind, first + static_cast<DocId>(i)).text);
    }
    return docs;
  }

  // A form the memo resolves but never stores.
  static std::string LongForm() {
    return std::string(StemMemo::kMaxFormBytes + 16, 'q');
  }

  // Another detector over the trained pipeline's dictionary and units:
  // the dictionary in reverse order, so shared terms get other matcher
  // term ids, plus an entry whose first term is LongForm().
  static std::unique_ptr<EntityDetector> ReversedDetector() {
    const Pipeline& pipeline = ranker_->pipeline();
    std::vector<EntityDetector::DictionaryEntry> dict;
    for (const Entity& e : pipeline.world().entities()) {
      if (e.in_dictionary) dict.push_back({e.key, e.type, e.subtype});
    }
    std::reverse(dict.begin(), dict.end());
    dict.push_back({LongForm() + " harbor", EntityType::kConcept, 0});
    return std::make_unique<EntityDetector>(dict, &pipeline.units());
  }

  // A ranker over the trained stores, model and TID table but `detector`.
  static std::unique_ptr<RuntimeRanker> WithDetector(
      const EntityDetector& detector) {
    return std::make_unique<RuntimeRanker>(
        detector, ranker_->interestingness_store(), ranker_->relevance_store(),
        ranker_->tid_table(), ranker_->model());
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

// After ProcessDocument the scratch's term ids are the detector's own
// TermId of every token, whether the memo was cold, warm, or skipped the
// form for its length. Returns how many tokens had a known term id.
size_t ExpectTermIds(const RankerScratch& scratch,
                     const EntityDetector& detector) {
  const EntityDetector::Scratch& d = scratch.detect;
  EXPECT_EQ(d.token_tids.size(), d.tokens.size());
  size_t known = 0;
  for (size_t i = 0; i < d.tokens.size() && i < d.token_tids.size(); ++i) {
    const uint32_t want = detector.TermId(d.tokens[i].text);
    EXPECT_EQ(d.token_tids[i], want) << "token " << i << " '"
                                     << d.tokens[i].text << "'";
    known += want != PhraseMatcher::kUnknownTerm;
  }
  return known;
}

TEST_F(StemMemoRankerTest, TokenTermIdsEqualTheDetectorsOnColdAndWarmMemo) {
  const std::unique_ptr<EntityDetector> reversed = ReversedDetector();
  const std::unique_ptr<RuntimeRanker> other = WithDetector(*reversed);
  const RuntimeRanker* rankers[] = {&ranker_->runtime(), other.get()};
  const EntityDetector* detectors[] = {&ranker_->pipeline().detector(),
                                       reversed.get()};
  std::vector<std::string> docs = Docs(8, 200, /*news_only=*/true);
  for (size_t i = 0; i < docs.size(); i += 10) {
    docs[i] += " " + LongForm() + " harbor.";
  }
  for (size_t r = 0; r < 2; ++r) {
    RankerScratch warm;
    size_t known = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& doc : docs) {
        RankerScratch cold;
        rankers[r]->ProcessDocument(doc, &cold, nullptr);
        known += ExpectTermIds(cold, *detectors[r]);
        rankers[r]->ProcessDocument(doc, &warm, nullptr);
        known += ExpectTermIds(warm, *detectors[r]);
      }
    }
    EXPECT_GT(known, 4 * docs.size()) << "ranker " << r;  // Not vacuous.
  }
  // The long form is a real term of the reversed detector only.
  EXPECT_EQ(detectors[0]->TermId(LongForm()), PhraseMatcher::kUnknownTerm);
  EXPECT_NE(detectors[1]->TermId(LongForm()), PhraseMatcher::kUnknownTerm);
}

TEST_F(StemMemoRankerTest, OneScratchAlternatesBetweenDetectors) {
  const std::unique_ptr<EntityDetector> reversed = ReversedDetector();
  const std::unique_ptr<RuntimeRanker> other = WithDetector(*reversed);
  // Same TID table, so only the ranker id tells the two memos apart.
  const RuntimeRanker* rankers[] = {&ranker_->runtime(), other.get()};
  const std::vector<std::string> docs = Docs(9, 40, /*news_only=*/true);
  RankerScratch shared;
  RankerScratch separate[2];
  size_t nonempty = 0;
  size_t differing_term_ids = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < docs.size(); ++i) {
      std::vector<uint32_t> term_ids[2];
      for (size_t r = 0; r < 2; ++r) {
        auto got = rankers[r]->ProcessDocument(docs[i], &shared, nullptr);
        term_ids[r] = shared.detect.token_tids;
        auto want =
            rankers[r]->ProcessDocument(docs[i], &separate[r], nullptr);
        EXPECT_TRUE(SameRanking(got, want))
            << "ranker " << r << " doc " << i << " pass " << pass;
        if (!got.empty()) ++nonempty;
      }
      differing_term_ids += term_ids[0] != term_ids[1];
    }
  }
  EXPECT_GT(nonempty, docs.size());
  EXPECT_GT(differing_term_ids, docs.size());  // The detectors disagree.
}

}  // namespace
}  // namespace ckr
