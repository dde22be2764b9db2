// Golden equivalence suite: the flat term-id index must be bit-identical
// to LegacyInvertedIndex on every public entry point, over a generated
// corpus large enough to exercise multi-block postings, phrase adjacency,
// and snippet windowing. A flat snippet is a token-id window, and the
// legacy one is text, so the two agree when the window's terms are the
// tokens of the legacy snippet.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "corpus/doc_generator.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "index/inverted_index.h"
#include "index/legacy_index.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

// The terms of a token-id window, spelled through `terms` (TermsById()).
std::vector<std::string> WindowTerms(const std::vector<std::string_view>& terms,
                                     std::span<const uint32_t> window) {
  std::vector<std::string> out;
  out.reserve(window.size());
  for (uint32_t tid : window) out.emplace_back(terms[tid]);
  return out;
}

// The snippet windows' oracle: for every doc, query and window width, the
// flat window's terms are the tokens of the legacy text snippet.
void ExpectWindowsMatchLegacy(const InvertedIndex& flat,
                              const LegacyInvertedIndex& legacy,
                              const std::vector<DocId>& docs,
                              const std::vector<std::string>& queries) {
  const std::vector<std::string_view> terms = flat.TermsById();
  for (const std::string& q : queries) {
    for (DocId doc : docs) {
      for (size_t context : {4u, 8u, 30u}) {
        EXPECT_EQ(WindowTerms(terms, flat.HitWindow(doc, q, context)),
                  TokenizeToStrings(legacy.Snippet(doc, q, context)))
            << "query '" << q << "' doc " << doc << " context " << context;
      }
    }
  }
}

class IndexEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig config;
    config.num_topics = 8;
    config.background_vocab = 900;
    config.words_per_topic = 60;
    config.num_named_entities = 120;
    config.num_concepts = 80;
    config.num_generic_concepts = 12;
    config.num_web_docs = 300;
    config.num_news_stories = 40;
    config.num_answers_snippets = 30;
    auto world = World::Create(config);
    ASSERT_TRUE(world.ok()) << world.status().message();
    world_ = world.value().release();

    DocGenerator gen(*world_);
    corpus_ = new std::vector<Document>(
        gen.GenerateCorpus(Document::Kind::kWeb, config.num_web_docs));

    legacy_ = new LegacyInvertedIndex();
    flat_ = new InvertedIndex();
    for (const Document& doc : *corpus_) {
      legacy_->Add(doc);
      flat_->Add(doc);
    }
    legacy_->Finalize();
    flat_->Finalize();
  }

  static void TearDownTestSuite() {
    delete flat_;
    delete legacy_;
    delete corpus_;
    delete world_;
    flat_ = nullptr;
    legacy_ = nullptr;
    corpus_ = nullptr;
    world_ = nullptr;
  }

  /// Queries covering single terms, multi-term disjunctions, entities
  /// (multi-token phrases that actually occur), and unseen terms.
  static std::vector<std::string> Queries() {
    std::vector<std::string> queries;
    for (size_t i = 0; i < world_->NumEntities(); i += 7) {
      queries.push_back(world_->entity(static_cast<EntityId>(i)).key);
    }
    queries.push_back("the");
    queries.push_back("zzz unseen qqq");
    queries.push_back("");
    // Mixed seen/unseen.
    queries.push_back(world_->entity(0).key + " zzzunseen");
    return queries;
  }

  static void ExpectSameResults(const std::vector<SearchResult>& a,
                                const std::vector<SearchResult>& b,
                                const std::string& query) {
    ASSERT_EQ(a.size(), b.size()) << "query: " << query;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc) << "query: " << query << " rank " << i;
      // Bit-identical, not approximately equal.
      EXPECT_EQ(a[i].score, b[i].score) << "query: " << query << " rank " << i;
    }
  }

  static World* world_;
  static std::vector<Document>* corpus_;
  static LegacyInvertedIndex* legacy_;
  static InvertedIndex* flat_;
};

World* IndexEquivalenceTest::world_ = nullptr;
std::vector<Document>* IndexEquivalenceTest::corpus_ = nullptr;
LegacyInvertedIndex* IndexEquivalenceTest::legacy_ = nullptr;
InvertedIndex* IndexEquivalenceTest::flat_ = nullptr;

TEST_F(IndexEquivalenceTest, CollectionStats) {
  EXPECT_EQ(flat_->NumDocs(), legacy_->NumDocs());
  EXPECT_EQ(flat_->NumTerms(), legacy_->NumTerms());
}

TEST_F(IndexEquivalenceTest, DocFreq) {
  for (const std::string& q : Queries()) {
    EXPECT_EQ(flat_->DocFreq(q), legacy_->DocFreq(q)) << q;
  }
  EXPECT_EQ(flat_->DocFreq("absent"), 0u);
}

TEST_F(IndexEquivalenceTest, SearchTopK) {
  for (const std::string& q : Queries()) {
    for (size_t k : {1u, 10u, 100u, 100000u}) {
      ExpectSameResults(flat_->Search(q, k), legacy_->Search(q, k), q);
    }
  }
}

TEST_F(IndexEquivalenceTest, SearchNonDefaultParams) {
  Bm25Params params;
  params.k1 = 0.9;
  params.b = 0.4;
  for (const std::string& q : Queries()) {
    ExpectSameResults(flat_->Search(q, 50, params),
                      legacy_->Search(q, 50, params), q);
  }
}

TEST_F(IndexEquivalenceTest, PhraseSearchTopK) {
  for (const std::string& q : Queries()) {
    for (size_t k : {1u, 10u, 100000u}) {
      ExpectSameResults(flat_->PhraseSearch(q, k), legacy_->PhraseSearch(q, k),
                        q);
    }
  }
}

TEST_F(IndexEquivalenceTest, PhraseResultCount) {
  for (const std::string& q : Queries()) {
    EXPECT_EQ(flat_->PhraseResultCount(q), legacy_->PhraseResultCount(q)) << q;
  }
}

TEST_F(IndexEquivalenceTest, Snippets) {
  // Every query against its phrase hits (the contiguous-hit branch), its
  // disjunctive hits (the any-term branch) and the first document (the
  // head fallback, for the empty and unseen queries too).
  const std::vector<std::string> queries = Queries();
  for (const std::string& q : queries) {
    std::vector<DocId> docs = {corpus_->front().id};
    for (const SearchResult& r : legacy_->PhraseSearch(q, 10)) {
      docs.push_back(r.doc);
    }
    for (const SearchResult& r : legacy_->Search(q, 10)) docs.push_back(r.doc);
    ExpectWindowsMatchLegacy(*flat_, *legacy_, docs, {q});
  }
}

TEST_F(IndexEquivalenceTest, DocText) {
  // The token-id stream is the document: its terms are the legacy text's
  // tokens.
  const std::vector<std::string_view> terms = flat_->TermsById();
  for (const Document& doc : *corpus_) {
    EXPECT_EQ(WindowTerms(terms, flat_->DocTokenIds(doc.id)),
              TokenizeToStrings(legacy_->DocText(doc.id)));
  }
}

TEST_F(IndexEquivalenceTest, MemoryFootprintShrinks) {
  // The flat layout must not be larger than the node-based legacy layout.
  EXPECT_LT(flat_->MemoryBytes(), legacy_->MemoryBytes());
}

// CRLF text: the legacy snippet normalizes \r (as well as \n and \t) to
// spaces so it stays single-line, and the flat window holds its tokens.
TEST(IndexSnippetNormalizationTest, CarriageReturnsBecomeSpaces) {
  Document doc;
  doc.id = 7;
  doc.text = "alpha beta\r\ngamma delta\ttail\rend";

  LegacyInvertedIndex legacy;
  InvertedIndex flat;
  legacy.Add(doc);
  flat.Add(doc);
  legacy.Finalize();
  flat.Finalize();

  std::string legacy_snip = legacy.Snippet(7, "gamma", 4);
  EXPECT_EQ(WindowTerms(flat.TermsById(), flat.HitWindow(7, "gamma", 4)),
            TokenizeToStrings(legacy_snip));
  EXPECT_EQ(legacy_snip.find('\r'), std::string::npos);
  EXPECT_EQ(legacy_snip.find('\n'), std::string::npos);
  EXPECT_EQ(legacy_snip.find('\t'), std::string::npos);
}

// The window oracle on the text shapes the generated corpus lacks: line
// breaks and tabs, possessives, punctuation around and between tokens,
// empty and punctuation-only documents, documents shorter than the
// window, queries with unseen terms, and an unknown doc id.
TEST(IndexSnippetNormalizationTest, WindowsMatchLegacyOnEdgeCases) {
  const char* texts[] = {
      "alpha beta\r\ngamma delta\ttail\rend\n\nlast line",
      "Obama's speech at John's farm's gate, Obama's farm policy's end",
      "(Leading, quoted) words... and --dashes-- then trailing! marks?",
      "",
      "!!! ??? ... --",
      "two words",
      "rock band plays rock music; the rock band tours. A band of rock "
      "fans hears the band play rock and roll all night at the rock band "
      "show, then the band and the fans go home after the rock show",
  };
  LegacyInvertedIndex legacy;
  InvertedIndex flat;
  std::vector<DocId> docs;
  for (const char* text : texts) {
    Document doc;
    doc.id = static_cast<DocId>(10 + docs.size());
    doc.text = text;
    legacy.Add(doc);
    flat.Add(doc);
    docs.push_back(doc.id);
  }
  legacy.Finalize();
  flat.Finalize();
  docs.push_back(999);  // Unknown id.

  ExpectWindowsMatchLegacy(
      flat, legacy, docs,
      {"gamma", "tail end", "obama", "Obama's", "john's farm", "farm policy",
       "leading quoted", "dashes", "marks", "words", "two words",
       "rock band", "band rock", "the band", "show", "zzzunseen",
       "zzzunseen rock", "rock zzzunseen", "", "  ", "!!!"});
}

// Phrase checks at the edges of the token-stream scan. Seeded documents
// of 0-40 tokens over a vocabulary of three or four words, skewed so the
// rarest term falls at every offset of some phrase; every phrase of one
// to four terms is asked. Phrases repeat terms ("w0 w0", "w0 w1 w0"),
// overlap their own starts, sit at a document's head and tail, and are
// longer than the shortest documents, whose neighbours in the index's
// token stream must not complete them.
TEST(IndexPhraseSweepTest, SmallVocabularyPhrasesMatchLegacy) {
  for (const uint64_t vocab : {3u, 4u}) {
    for (const uint64_t seed : {7u, 8u}) {
      Rng rng(seed * 10 + vocab);
      LegacyInvertedIndex legacy;
      InvertedIndex flat;
      for (DocId id = 0; id < 80; ++id) {
        Document doc;
        doc.id = id;
        const size_t len = rng.NextBounded(41);
        for (size_t i = 0; i < len; ++i) {
          // w0 about half the time, the rest ever rarer.
          uint64_t w = 0;
          while (w + 1 < vocab && rng.NextBounded(2) == 1) ++w;
          doc.text.append("w").append(std::to_string(w)).append(" ");
        }
        legacy.Add(doc);
        flat.Add(doc);
      }
      legacy.Finalize();
      flat.Finalize();

      std::vector<std::string> phrases = {""};
      for (size_t width = 1; width <= 4; ++width) {
        std::vector<std::string> longer;
        for (const std::string& head : phrases) {
          for (uint64_t w = 0; w < vocab; ++w) {
            longer.push_back(head + " w" + std::to_string(w));
          }
        }
        phrases = std::move(longer);
        for (const std::string& phrase : phrases) {
          SCOPED_TRACE("vocab " + std::to_string(vocab) + " seed " +
                       std::to_string(seed) + " phrase '" + phrase + "'");
          EXPECT_EQ(flat.PhraseResultCount(phrase),
                    legacy.PhraseResultCount(phrase));
          const std::vector<SearchResult> got = flat.PhraseSearch(phrase, 100);
          const std::vector<SearchResult> want =
              legacy.PhraseSearch(phrase, 100);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
            EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
                      std::bit_cast<uint64_t>(want[i].score))
                << "rank " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ckr
