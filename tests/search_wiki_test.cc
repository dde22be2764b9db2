// Unit tests for ckr_search (facade: snippet windows, result counts,
// Prisma, suggestions) and ckr_wiki.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string_view>

#include "corpus/doc_generator.h"
#include "corpus/term_dictionary.h"
#include "corpus/world.h"
#include "index/inverted_index.h"
#include "querylog/query_generator.h"
#include "search/search_service.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "wiki/wiki_store.h"

namespace ckr {
namespace {

class SearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig cfg;
    cfg.num_topics = 6;
    cfg.background_vocab = 600;
    cfg.words_per_topic = 40;
    cfg.num_named_entities = 150;
    cfg.num_concepts = 100;
    cfg.num_generic_concepts = 12;
    cfg.num_web_docs = 400;
    world_ = World::Create(cfg)->release();
    DocGenerator gen(*world_);
    docs_ = new std::vector<Document>(
        gen.GenerateCorpus(Document::Kind::kWeb, cfg.num_web_docs));
    dict_ = new TermDictionary();
    index_ = new InvertedIndex();
    for (const Document& d : *docs_) {
      dict_->AddDocument(d.text);
      index_->Add(d);
    }
    index_->Finalize();
    QueryGeneratorConfig qcfg;
    qcfg.num_submissions = 30000;
    log_ = new QueryLog(QueryGenerator(*world_, qcfg).Generate());
    search_ = new SearchService(*index_, *log_, *dict_);
  }
  static void TearDownTestSuite() {
    delete search_;
    delete log_;
    delete index_;
    delete dict_;
    delete docs_;
    delete world_;
    search_ = nullptr;
  }

  // Most popular multi-term entity: guaranteed web presence and queries.
  static const Entity& PopularEntity() {
    const Entity* best = nullptr;
    for (const Entity& e : world_->entities()) {
      if (e.is_generic || e.TermCount() < 2) continue;
      if (best == nullptr || e.popularity > best->popularity) best = &e;
    }
    return *best;
  }

  static World* world_;
  static std::vector<Document>* docs_;
  static TermDictionary* dict_;
  static InvertedIndex* index_;
  static QueryLog* log_;
  static SearchService* search_;
};

World* SearchTest::world_ = nullptr;
std::vector<Document>* SearchTest::docs_ = nullptr;
TermDictionary* SearchTest::dict_ = nullptr;
InvertedIndex* SearchTest::index_ = nullptr;
QueryLog* SearchTest::log_ = nullptr;
SearchService* SearchTest::search_ = nullptr;

TEST(ChooseEvaluatorTest, CrossoverPolicyIsPinned) {
  // Regression pin of the evaluator auto-selection: MaxScore exactly at
  // the crossover and above, and only when a block index exists.
  EXPECT_EQ(ChooseEvaluator(kEvaluatorCrossoverDocs - 1, true),
            QueryEvaluator::kExhaustive);
  EXPECT_EQ(ChooseEvaluator(kEvaluatorCrossoverDocs, true),
            QueryEvaluator::kMaxScore);
  EXPECT_EQ(ChooseEvaluator(10 * kEvaluatorCrossoverDocs, true),
            QueryEvaluator::kMaxScore);
  // No block index -> nothing to prune with, regardless of size.
  EXPECT_EQ(ChooseEvaluator(10 * kEvaluatorCrossoverDocs, false),
            QueryEvaluator::kExhaustive);
  EXPECT_EQ(ChooseEvaluator(0, true), QueryEvaluator::kExhaustive);
}

TEST_F(SearchTest, EvaluatorAutoSelectedFromCorpusSize) {
  // Paper-scale corpus (400 docs, below the crossover): exhaustive.
  EXPECT_EQ(search_->evaluator(), QueryEvaluator::kExhaustive);
}

TEST_F(SearchTest, SnippetsMentionTheConcept) {
  const Entity& e = PopularEntity();
  auto snippets = search_->Snippets(e.key, 50);
  ASSERT_FALSE(snippets.empty());
  // The concept's terms as ids, to find the phrase inside each window.
  std::vector<uint32_t> phrase;
  const std::vector<std::string_view> terms = index_->TermsById();
  for (const std::string& t : TokenizeToStrings(e.key)) {
    phrase.push_back(static_cast<uint32_t>(
        std::find(terms.begin(), terms.end(), t) - terms.begin()));
  }
  size_t mentioning = 0;
  for (std::span<const uint32_t> s : snippets) {
    if (std::search(s.begin(), s.end(), phrase.begin(), phrase.end()) !=
        s.end()) {
      ++mentioning;
    }
  }
  // Phrase-query snippets are centered on the occurrence.
  EXPECT_GT(mentioning, snippets.size() / 2);
}

TEST_F(SearchTest, SnippetCountBoundedByPhraseHits) {
  const Entity& e = PopularEntity();
  uint64_t hits = search_->PhraseResultCount(e.key);
  auto snippets = search_->Snippets(e.key, 100);
  EXPECT_LE(snippets.size(), std::min<uint64_t>(hits, 100));
}

TEST_F(SearchTest, ResultCountsOrdering) {
  const Entity& e = PopularEntity();
  // Disjunctive retrieval can only widen the result set.
  EXPECT_GE(index_->Search(e.key, index_->NumDocs()).size(),
            search_->PhraseResultCount(e.key));
  EXPECT_EQ(search_->PhraseResultCount("zzz unknown phrase"), 0u);
}

TEST_F(SearchTest, PrismaReturnsAtMostTwenty) {
  const Entity& e = PopularEntity();
  auto terms = search_->PrismaFeedbackTerms(e.key);
  EXPECT_LE(terms.size(), 20u);
  EXPECT_FALSE(terms.empty());
  // Feedback terms never echo the concept's own terms.
  for (const std::string& t : terms) {
    EXPECT_EQ(e.key.find(" " + t + " "), std::string::npos);
  }
}

TEST_F(SearchTest, PrismaNeverReturnsTheConceptsOwnTerms) {
  size_t concepts_with_terms = 0;
  for (const Entity& e : world_->entities()) {
    const std::vector<std::string> own = TokenizeToStrings(e.key);
    const std::vector<std::string> terms = search_->PrismaFeedbackTerms(e.key);
    if (!terms.empty()) ++concepts_with_terms;
    for (const std::string& t : terms) {
      EXPECT_EQ(std::find(own.begin(), own.end(), t), own.end())
          << e.key << " -> " << t;
      EXPECT_FALSE(IsStopWord(t)) << e.key << " -> " << t;
    }
  }
  EXPECT_GT(concepts_with_terms, 100u);
}

TEST_F(SearchTest, PrismaYieldsNothingForStopWordOrUnknownConcepts) {
  // Stop words and out-of-vocabulary terms retrieve no feedback pool.
  EXPECT_TRUE(search_->PrismaFeedbackTerms("the").empty());
  EXPECT_TRUE(search_->PrismaFeedbackTerms("of the and").empty());
  EXPECT_TRUE(search_->PrismaFeedbackTerms("zzzq yyyq").empty());
  EXPECT_TRUE(search_->PrismaFeedbackTerms("").empty());
}

TEST_F(SearchTest, PrismaYieldsNothingWithoutStoredText) {
  // store_text=false keeps the token streams for search but hides them
  // from DocTokenIds and HitWindow, the readers Prisma and the snippets
  // go through.
  IndexBuildOptions options;
  options.store_text = false;
  InvertedIndex textless(options);
  for (const Document& d : *docs_) textless.Add(d);
  textless.Finalize();
  SearchService service(textless, *log_, *dict_);
  const Entity& e = PopularEntity();
  EXPECT_FALSE(search_->PrismaFeedbackTerms(e.key).empty());
  EXPECT_TRUE(service.PrismaFeedbackTerms(e.key).empty());
  EXPECT_TRUE(textless.DocTokenIds(docs_->front().id).empty());
  EXPECT_FALSE(index_->DocTokenIds(docs_->front().id).empty());
  EXPECT_TRUE(service.Snippets(e.key).empty());
  EXPECT_FALSE(search_->Snippets(e.key).empty());
}

// A four-document index where the feedback pool of "alpha" is the first
// document alone: "zeta" and "beta" each occur once there and in no other
// document, so their scores are equal, while "the" and "of" are stop words.
class PrismaTieSearchTest : public ::testing::Test {
 protected:
  PrismaTieSearchTest() {
    const char* texts[] = {"alpha zeta the beta of", "gamma delta epsilon",
                           "gamma delta epsilon", "delta epsilon"};
    for (DocId id = 0; id < 4; ++id) {
      Document d;
      d.id = id + 1;
      d.text = texts[id];
      docs_.push_back(std::move(d));
    }
    for (const Document& d : docs_) {
      dict_.AddDocument(d.text);
      index_.Add(d);
    }
    index_.Finalize();
    log_.Finalize();
  }

  std::vector<Document> docs_;
  TermDictionary dict_;
  InvertedIndex index_;
  QueryLog log_;
};

TEST_F(PrismaTieSearchTest, EqualScoresOrderByAscendingTermText) {
  SearchService search(index_, log_, dict_);
  // "zeta" is interned before "beta", so term-id order would put it first.
  EXPECT_EQ(search.PrismaFeedbackTerms("alpha"),
            (std::vector<std::string>{"beta", "zeta"}));
  EXPECT_EQ(search.PrismaFeedbackTerms("alpha", 1),
            (std::vector<std::string>{"beta"}));
}

TEST_F(PrismaTieSearchTest, MaxTermsAboveDistinctCountAndZeroFeedbackDocs) {
  SearchService search(index_, log_, dict_);
  EXPECT_EQ(search.PrismaFeedbackTerms("alpha", 1000),
            (std::vector<std::string>{"beta", "zeta"}));
  EXPECT_TRUE(search.PrismaFeedbackTerms("alpha", 20, 0).empty());
  EXPECT_TRUE(search.PrismaFeedbackTerms("alpha", 0).empty());
}

TEST_F(SearchTest, SuggestionsShareTermsAndCarryFreqs) {
  const Entity& e = PopularEntity();
  auto suggestions = search_->RelatedSuggestions(e.key, 300);
  ASSERT_FALSE(suggestions.empty());
  EXPECT_LE(suggestions.size(), 300u);
  // Sorted by descending frequency.
  for (size_t i = 1; i < suggestions.size(); ++i) {
    EXPECT_GE(suggestions[i - 1].freq, suggestions[i].freq);
  }
  // None equals the concept itself.
  for (const auto& s : suggestions) EXPECT_NE(s.query, e.key);
}

TEST_F(SearchTest, SuggestionsEmptyForUnknownConcept) {
  EXPECT_TRUE(search_->RelatedSuggestions("zzz yyy xxx").empty());
}

TEST(WikiTest, CoverageAndLengthCorrelateWithNotability) {
  WorldConfig cfg;
  cfg.num_topics = 6;
  cfg.background_vocab = 600;
  cfg.words_per_topic = 40;
  cfg.num_named_entities = 400;
  cfg.num_concepts = 100;
  cfg.num_generic_concepts = 20;
  auto world_or = World::Create(cfg);
  ASSERT_TRUE(world_or.ok());
  const World& world = **world_or;
  WikiStore wiki = WikiStore::Build(world, 77);
  EXPECT_GT(wiki.NumArticles(), 100u);

  double hi_sum = 0, lo_sum = 0;
  size_t hi_n = 0, lo_n = 0;
  for (const Entity& e : world.entities()) {
    if (e.is_generic) {
      // Junk units never have articles.
      EXPECT_EQ(wiki.ArticleWordCount(e.key), 0u) << e.key;
      continue;
    }
    uint32_t words = wiki.ArticleWordCount(e.key);
    if (e.notability > 0.6) {
      hi_sum += words;
      ++hi_n;
    } else if (e.notability < 0.2) {
      lo_sum += words;
      ++lo_n;
    }
  }
  ASSERT_GT(hi_n, 5u);
  ASSERT_GT(lo_n, 5u);
  EXPECT_GT(hi_sum / static_cast<double>(hi_n),
            2.0 * (lo_sum / static_cast<double>(lo_n) + 1.0));
}

TEST(WikiTest, DeterministicInSeed) {
  WorldConfig cfg;
  cfg.num_topics = 4;
  cfg.background_vocab = 400;
  cfg.words_per_topic = 30;
  cfg.num_named_entities = 100;
  cfg.num_concepts = 50;
  cfg.num_generic_concepts = 5;
  auto world = World::Create(cfg);
  ASSERT_TRUE(world.ok());
  WikiStore a = WikiStore::Build(**world, 5);
  WikiStore b = WikiStore::Build(**world, 5);
  WikiStore c = WikiStore::Build(**world, 6);
  EXPECT_EQ(a.NumArticles(), b.NumArticles());
  size_t diff = 0;
  for (const Entity& e : (*world)->entities()) {
    EXPECT_EQ(a.ArticleWordCount(e.key), b.ArticleWordCount(e.key));
    if (a.ArticleWordCount(e.key) != c.ArticleWordCount(e.key)) ++diff;
  }
  EXPECT_GT(diff, 0u);
}

TEST(WikiTest, ArticleTextMatchesRegisteredLength) {
  WorldConfig cfg;
  cfg.num_topics = 4;
  cfg.background_vocab = 400;
  cfg.words_per_topic = 30;
  cfg.num_named_entities = 60;
  cfg.num_concepts = 30;
  cfg.num_generic_concepts = 5;
  auto world = World::Create(cfg);
  ASSERT_TRUE(world.ok());
  WikiStore wiki = WikiStore::Build(**world, 9);
  for (const Entity& e : (*world)->entities()) {
    uint32_t words = wiki.ArticleWordCount(e.key);
    if (words == 0) {
      EXPECT_EQ(wiki.ArticleText(**world, e.key), "");
      continue;
    }
    std::string text = wiki.ArticleText(**world, e.key);
    ASSERT_FALSE(text.empty());
    // Starts with the subject, like an encyclopedia lead.
    EXPECT_EQ(text.find(e.surface), 0u);
    return;  // One full-text check is enough (generation is costly).
  }
}

}  // namespace
}  // namespace ckr
