// Unit tests for ckr_corpus: taxonomy, vocabulary, world, document
// generation, term dictionary.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "corpus/doc_generator.h"
#include "corpus/document.h"
#include "corpus/taxonomy.h"
#include "corpus/term_dictionary.h"
#include "corpus/vocabulary.h"
#include "corpus/world.h"
#include "common/string_util.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

WorldConfig SmallConfig() {
  WorldConfig cfg;
  cfg.num_topics = 6;
  cfg.background_vocab = 600;
  cfg.words_per_topic = 40;
  cfg.num_named_entities = 120;
  cfg.num_concepts = 80;
  cfg.num_generic_concepts = 12;
  cfg.num_web_docs = 60;
  cfg.num_news_stories = 30;
  cfg.num_answers_snippets = 20;
  return cfg;
}

TEST(TaxonomyTest, EveryDictionaryTypeHasSubtypes) {
  Taxonomy tax;
  for (EntityType t : {EntityType::kPerson, EntityType::kPlace,
                       EntityType::kOrganization, EntityType::kEvent,
                       EntityType::kAnimal, EntityType::kProduct}) {
    EXPECT_FALSE(tax.Subtypes(t).empty()) << EntityTypeName(t);
  }
  EXPECT_GT(tax.NodeCount(), 30u);
}

TEST(TaxonomyTest, TypeNameRoundTrip) {
  for (int i = 0; i < kNumEntityTypes; ++i) {
    EntityType t = static_cast<EntityType>(i);
    EXPECT_EQ(ParseEntityType(EntityTypeName(t)), t);
  }
  EXPECT_EQ(ParseEntityType("no-such-type"), EntityType::kConcept);
}

TEST(VocabularyTest, SizesAndLookup) {
  Vocabulary vocab(500, 4, 30, 1);
  EXPECT_EQ(vocab.size(), 500u + 4 * 30);
  WordId id = 0;
  EXPECT_TRUE(vocab.Lookup(vocab.Word(37), &id));
  EXPECT_EQ(id, 37u);
  EXPECT_FALSE(vocab.Lookup("definitely-not-a-word", &id));
}

TEST(VocabularyTest, WordsAreUniqueAndNotStopwords) {
  Vocabulary vocab(800, 4, 30, 2);
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < vocab.size(); ++i) {
    const std::string& w = vocab.Word(static_cast<WordId>(i));
    EXPECT_TRUE(seen.insert(w).second) << "duplicate: " << w;
    EXPECT_FALSE(IsStopWord(w)) << w;
  }
}

TEST(VocabularyTest, TopicOfIsConsistent) {
  Vocabulary vocab(300, 5, 20, 3);
  for (size_t t = 0; t < 5; ++t) {
    for (WordId id : vocab.TopicWords(t)) {
      EXPECT_EQ(vocab.TopicOf(id), static_cast<int>(t));
      EXPECT_TRUE(vocab.IsTopicWord(id, t));
    }
  }
  EXPECT_EQ(vocab.TopicOf(0), -1);  // Background word.
}

TEST(VocabularyTest, BackgroundSamplingIsZipfian) {
  Vocabulary vocab(1000, 2, 10, 4);
  Rng rng(5);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[vocab.SampleBackground(rng)];
  // Low ids (top ranks) dominate.
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(VocabularyTest, TopicSamplingMixesTopicWords) {
  Vocabulary vocab(500, 3, 25, 6);
  Rng rng(7);
  int topic_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    WordId id = vocab.SampleForTopic(1, 0.4, rng);
    if (vocab.IsTopicWord(id, 1)) ++topic_hits;
  }
  EXPECT_NEAR(topic_hits / static_cast<double>(n), 0.4, 0.03);
}

TEST(WorldTest, InvalidConfigRejected) {
  WorldConfig cfg = SmallConfig();
  cfg.num_topics = 0;
  EXPECT_FALSE(World::Create(cfg).ok());
  cfg = SmallConfig();
  cfg.topic_word_prob = 1.5;
  EXPECT_FALSE(World::Create(cfg).ok());
  cfg = SmallConfig();
  cfg.on_topic_entities_min = 9;
  cfg.on_topic_entities_max = 3;
  EXPECT_FALSE(World::Create(cfg).ok());
}

TEST(WorldTest, EntityPopulationShape) {
  auto world_or = World::Create(SmallConfig());
  ASSERT_TRUE(world_or.ok()) << world_or.status().ToString();
  const World& world = **world_or;
  // A couple of duplicate-key skips are tolerated.
  EXPECT_GE(world.NumEntities(), 190u);
  size_t dict = 0, concepts = 0, generic = 0;
  for (const Entity& e : world.entities()) {
    EXPECT_FALSE(e.key.empty());
    EXPECT_GE(e.interestingness, 0.0);
    EXPECT_LE(e.interestingness, 1.0);
    EXPECT_GE(e.popularity, 0.0);
    EXPECT_LE(e.popularity, 1.0);
    if (e.in_dictionary) ++dict;
    if (e.type == EntityType::kConcept && !e.is_generic) ++concepts;
    if (e.is_generic) ++generic;
    EXPECT_GE(e.primary_topic, 0);
    EXPECT_LT(e.primary_topic, 6);
  }
  EXPECT_GT(dict, 100u);
  EXPECT_GT(concepts, 60u);
  EXPECT_GT(generic, 5u);
}

TEST(WorldTest, KeysAreNormalizedAndIndexed) {
  auto world_or = World::Create(SmallConfig());
  ASSERT_TRUE(world_or.ok());
  const World& world = **world_or;
  for (const Entity& e : world.entities()) {
    EXPECT_EQ(e.key, NormalizePhrase(e.surface));
    EXPECT_EQ(world.FindByKey(e.key), e.id);
  }
  EXPECT_EQ(world.FindByKey("zz zz zz"), kInvalidEntity);
}

TEST(WorldTest, DeterministicAcrossConstructions) {
  auto w1 = World::Create(SmallConfig());
  auto w2 = World::Create(SmallConfig());
  ASSERT_TRUE(w1.ok() && w2.ok());
  ASSERT_EQ((*w1)->NumEntities(), (*w2)->NumEntities());
  for (size_t i = 0; i < (*w1)->NumEntities(); ++i) {
    const Entity& a = (*w1)->entity(static_cast<EntityId>(i));
    const Entity& b = (*w2)->entity(static_cast<EntityId>(i));
    EXPECT_EQ(a.surface, b.surface);
    EXPECT_DOUBLE_EQ(a.interestingness, b.interestingness);
  }
}

TEST(WorldTest, GenericConceptsComeFromFrequentWords) {
  auto world_or = World::Create(SmallConfig());
  ASSERT_TRUE(world_or.ok());
  const World& world = **world_or;
  for (EntityId id : world.GenericConcepts()) {
    const Entity& e = world.entity(id);
    EXPECT_TRUE(e.is_generic);
    // Every constituent word is a top background word.
    for (const std::string& tok : SplitString(e.key, " ")) {
      WordId wid = 0;
      ASSERT_TRUE(world.vocabulary().Lookup(tok, &wid)) << tok;
      EXPECT_LT(wid, 160u);
    }
  }
}

TEST(WorldTest, OffTopicSamplerAvoidsTopic) {
  auto world_or = World::Create(SmallConfig());
  ASSERT_TRUE(world_or.ok());
  const World& world = **world_or;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    EntityId id = world.SampleOffTopicEntity(2, rng);
    ASSERT_NE(id, kInvalidEntity);
    const Entity& e = world.entity(id);
    EXPECT_NE(e.primary_topic, 2);
    EXPECT_NE(e.secondary_topic, 2);
  }
}

class DocGeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world_or = World::Create(SmallConfig());
    ASSERT_TRUE(world_or.ok());
    world_ = std::move(*world_or);
    gen_ = std::make_unique<DocGenerator>(*world_);
  }
  std::unique_ptr<World> world_;
  std::unique_ptr<DocGenerator> gen_;
};

TEST_F(DocGeneratorTest, MentionOffsetsMatchText) {
  for (DocId id = 0; id < 20; ++id) {
    Document doc = gen_->Generate(Document::Kind::kNews, id);
    ASSERT_FALSE(doc.text.empty());
    ASSERT_FALSE(doc.mentions.empty());
    for (const MentionTruth& m : doc.mentions) {
      ASSERT_LE(m.end, doc.text.size());
      std::string span = doc.text.substr(m.begin, m.end - m.begin);
      EXPECT_EQ(span, world_->entity(m.entity).surface);
      EXPECT_GE(m.relevance, 0.0);
      EXPECT_LE(m.relevance, 1.0);
    }
  }
}

TEST_F(DocGeneratorTest, MentionsAreSortedByPosition) {
  Document doc = gen_->Generate(Document::Kind::kNews, 3);
  for (size_t i = 1; i < doc.mentions.size(); ++i) {
    EXPECT_GE(doc.mentions[i].begin, doc.mentions[i - 1].begin);
  }
}

TEST_F(DocGeneratorTest, DeterministicPerId) {
  Document a = gen_->Generate(Document::Kind::kWeb, 17);
  Document b = gen_->Generate(Document::Kind::kWeb, 17);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.mentions.size(), b.mentions.size());
  Document c = gen_->Generate(Document::Kind::kWeb, 18);
  EXPECT_NE(a.text, c.text);
}

TEST_F(DocGeneratorTest, OnTopicMentionsMoreRelevantThanOffTopic) {
  double on_sum = 0, off_sum = 0;
  int on_n = 0, off_n = 0;
  for (DocId id = 0; id < 60; ++id) {
    Document doc = gen_->Generate(Document::Kind::kNews, id);
    for (const MentionTruth& m : doc.mentions) {
      const Entity& e = world_->entity(m.entity);
      bool on_topic = e.primary_topic == doc.topic ||
                      e.secondary_topic == doc.topic;
      if (e.is_generic) continue;
      if (on_topic) {
        on_sum += m.relevance;
        ++on_n;
      } else {
        off_sum += m.relevance;
        ++off_n;
      }
    }
  }
  ASSERT_GT(on_n, 0);
  ASSERT_GT(off_n, 0);
  EXPECT_GT(on_sum / on_n, off_sum / off_n + 0.2);
}

TEST_F(DocGeneratorTest, AnswersAreShorterThanNews) {
  size_t news_total = 0, ans_total = 0;
  for (DocId id = 0; id < 10; ++id) {
    news_total += gen_->Generate(Document::Kind::kNews, id).text.size();
    ans_total += gen_->Generate(Document::Kind::kAnswers, id).text.size();
  }
  EXPECT_GT(news_total, 2 * ans_total);
}

TEST_F(DocGeneratorTest, TruthRelevanceQueriesMentions) {
  Document doc = gen_->Generate(Document::Kind::kNews, 5);
  ASSERT_FALSE(doc.mentions.empty());
  const MentionTruth& m = doc.mentions[0];
  EXPECT_GE(doc.TruthRelevance(m.entity), m.relevance);
  EXPECT_EQ(doc.TruthRelevance(kInvalidEntity), 0.0);
}

TEST_F(DocGeneratorTest, CorpusGenerationCount) {
  auto docs = gen_->GenerateCorpus(Document::Kind::kWeb, 25);
  ASSERT_EQ(docs.size(), 25u);
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(docs[i].id, static_cast<DocId>(i));
    EXPECT_EQ(docs[i].kind, Document::Kind::kWeb);
  }
}

TEST(TermDictionaryTest, CountsDocumentFrequencies) {
  TermDictionary dict;
  dict.AddDocument("apple banana apple");
  dict.AddDocument("banana cherry");
  dict.AddDocument("durian");
  EXPECT_EQ(dict.NumDocs(), 3u);
  EXPECT_EQ(dict.DocFreq("apple"), 1u);   // Per-doc, not per-occurrence.
  EXPECT_EQ(dict.DocFreq("banana"), 2u);
  EXPECT_EQ(dict.DocFreq("missing"), 0u);
}

TEST(TermDictionaryTest, IdfOrderingAndPositivity) {
  TermDictionary dict;
  for (int i = 0; i < 100; ++i) {
    dict.AddDocument(i % 2 == 0 ? "common rare0" : "common");
  }
  EXPECT_GT(dict.Idf("rare0"), dict.Idf("common"));
  EXPECT_GT(dict.Idf("common"), 0.0);
  EXPECT_GT(dict.Idf("never-seen"), dict.Idf("rare0"));
}

TEST(TermDictionaryTest, BuildFromCorpus) {
  auto world_or = World::Create(SmallConfig());
  ASSERT_TRUE(world_or.ok());
  DocGenerator gen(**world_or);
  auto docs = gen.GenerateCorpus(Document::Kind::kWeb, 40);
  TermDictionary dict;
  for (const Document& doc : docs) dict.AddDocument(doc.text);
  EXPECT_EQ(dict.NumDocs(), 40u);
  EXPECT_GT(dict.NumTerms(), 200u);
}

}  // namespace
}  // namespace ckr
