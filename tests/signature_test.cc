// Unit tests for the exact-safe signature prefilter: bit packing,
// AND-mask cover semantics and the InvertedIndex phrase-path gate. The
// randomized bit-identity sweep lives in property_test.cc; these pin the
// layout and the edge cases directly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/document.h"
#include "index/doc_signature.h"
#include "index/inverted_index.h"

namespace ckr {
namespace {

Document MakeDoc(DocId id, std::string text) {
  Document d;
  d.id = id;
  d.text = std::move(text);
  return d;
}

// ---- SignatureMatrix packing ----

TEST(SignatureMatrixTest, BitPositionsDeterministicAndInRange) {
  for (uint32_t tid : {0u, 1u, 17u, 123456u}) {
    for (uint32_t probe = 0; probe < 4; ++probe) {
      const uint32_t pos = SignatureBitPosition(tid, probe);
      EXPECT_LT(pos, kSignatureBits);
      // Stable: the layout is part of the determinism contract.
      EXPECT_EQ(pos, SignatureBitPosition(tid, probe));
    }
  }
  // Sanity: different tids do not all land on one position.
  EXPECT_NE(SignatureBitPosition(1, 0), SignatureBitPosition(2, 0));
}

TEST(SignatureMatrixTest, AddTermSetsExactlyTheProbeBits) {
  SignatureMatrix m;
  m.Reset(1);
  const std::vector<uint32_t> row0 = {0};
  m.AddTermToRows(42, MakeSpan(row0));
  std::vector<uint64_t> expected(kSignatureWords, 0);
  for (uint32_t p = 0; p < kSignatureProbes; ++p) {
    const uint32_t pos = SignatureBitPosition(42, p);
    expected[pos >> 6] |= uint64_t{1} << (pos & 63);
  }
  const Span<const uint64_t> row = m.Row(0);
  ASSERT_EQ(row.size(), expected.size());
  for (size_t w = 0; w < expected.size(); ++w) EXPECT_EQ(row[w], expected[w]);
}

TEST(SignatureMatrixTest, BuildersAgree) {
  const std::vector<uint32_t> tids = {3, 9, 9, 77, 1024};
  // CSR-style term-major build of one row, next to an untouched one.
  SignatureMatrix m;
  m.Reset(2);
  const std::vector<uint32_t> row1 = {1};
  for (uint32_t t : tids) m.AddTermToRows(t, MakeSpan(row1));

  // The query-side builder sets the same bits.
  const Signature sig = SignatureMatrix::BuildSignature(MakeSpan(tids));
  for (size_t w = 0; w < kSignatureWords; ++w) {
    EXPECT_EQ(m.Row(1)[w], sig[w]);
  }
  for (uint64_t w : m.Row(0)) EXPECT_EQ(w, 0u);
}

TEST(SignatureMatrixTest, CoversAllIsSupersetTest) {
  SignatureMatrix m;
  m.Reset(1);
  const std::vector<uint32_t> row0 = {0};
  for (uint32_t t : {1u, 2u, 3u}) m.AddTermToRows(t, MakeSpan(row0));
  auto sig_of = [](std::vector<uint32_t> tids) {
    return SignatureMatrix::BuildSignature(MakeSpan(tids));
  };

  EXPECT_TRUE(m.CoversAll(0, sig_of({1, 3})));
  // Duplicate terms OR the same bits: still covered.
  EXPECT_TRUE(m.CoversAll(0, sig_of({1, 1, 2, 2})));
  // The empty signature is covered by every row (degenerate queries can
  // never be falsely rejected).
  EXPECT_TRUE(m.CoversAll(0, sig_of({})));

  // Some absent term must be rejected: with 2 probes over 256 bits and
  // only 6 bits set, not every candidate can collide into the row.
  bool rejected_any = false;
  for (uint32_t t = 100; t < 140 && !rejected_any; ++t) {
    rejected_any = !m.CoversAll(0, sig_of({t}));
  }
  EXPECT_TRUE(rejected_any);
}

// ---- InvertedIndex integration ----

class SignatureIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Docs 2 and 3 both contain "quick" and "brown" but only docs 0/1
    // contain them adjacently — the seed loop must reject nothing it
    // needs (2 and 3 pass the signature test but fail the window check).
    index_.Add(MakeDoc(10, "the quick brown fox jumps"));
    index_.Add(MakeDoc(11, "quick brown foxes are quick"));
    index_.Add(MakeDoc(12, "quick dogs and brown cats"));
    index_.Add(MakeDoc(13, "brown bread with quick jam"));
    index_.Add(MakeDoc(14, "nothing relevant in here"));
    index_.Finalize();

    IndexBuildOptions off;
    off.build_signature_filter = false;
    ungated_ = InvertedIndex(off);
    ungated_.Add(MakeDoc(10, "the quick brown fox jumps"));
    ungated_.Add(MakeDoc(11, "quick brown foxes are quick"));
    ungated_.Add(MakeDoc(12, "quick dogs and brown cats"));
    ungated_.Add(MakeDoc(13, "brown bread with quick jam"));
    ungated_.Add(MakeDoc(14, "nothing relevant in here"));
    ungated_.Finalize();
  }
  InvertedIndex index_;
  InvertedIndex ungated_;
};

TEST_F(SignatureIndexTest, BuiltByDefaultAndSizedPerDoc) {
  EXPECT_TRUE(index_.has_signatures());
  EXPECT_EQ(index_.signatures().num_rows(), index_.NumDocs());
  EXPECT_FALSE(ungated_.has_signatures());
  EXPECT_GT(index_.MemoryBytes(), ungated_.MemoryBytes());
}

TEST_F(SignatureIndexTest, PhraseCountsMatchUngatedIndex) {
  const char* phrases[] = {"quick brown",  "brown fox",   "quick",
                           "quick dogs",   "brown cats",  "fox jumps",
                           "quick jam",    "dogs quick",  "the quick brown",
                           "quick quick",  "zzz",         "quick zzz",
                           "",             "   ",         "quick quick brown"};
  for (const char* p : phrases) {
    EXPECT_EQ(index_.PhraseResultCount(p), ungated_.PhraseResultCount(p))
        << "phrase: '" << p << "'";
    const auto gated = index_.PhraseSearch(p, 10);
    const auto plain = ungated_.PhraseSearch(p, 10);
    ASSERT_EQ(gated.size(), plain.size()) << "phrase: '" << p << "'";
    for (size_t i = 0; i < gated.size(); ++i) {
      EXPECT_EQ(gated[i].doc, plain[i].doc);
      EXPECT_EQ(gated[i].score, plain[i].score);
    }
  }
}

TEST_F(SignatureIndexTest, DegenerateQueriesAreSafe) {
  // Empty/whitespace-only queries: no terms, nothing matches, and the
  // prefilter must not manufacture a rejection path that changes this.
  EXPECT_EQ(index_.PhraseResultCount(""), 0u);
  EXPECT_EQ(index_.PhraseResultCount("   \t  "), 0u);
  EXPECT_TRUE(index_.PhraseSearch("", 10).empty());
  EXPECT_EQ(index_.RegularResultCount(""), 0u);
  EXPECT_EQ(index_.RegularResultCount("  \t "), 0u);
  EXPECT_TRUE(index_.Search("", 10).empty());
  EXPECT_TRUE(index_.Search("   ", 10).empty());
  // Duplicate terms collapse to one: same count as the single term.
  EXPECT_EQ(index_.RegularResultCount("quick quick quick"),
            index_.RegularResultCount("quick"));
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

}  // namespace
}  // namespace ckr
