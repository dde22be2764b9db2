// Focused edge-case coverage for paths not exercised elsewhere:
// detector filtering, query-mix extremes, unit-extractor caps, store-pack
// corruption, sentence-boundary details, runtime stats bookkeeping.
#include <gtest/gtest.h>

#include "corpus/world.h"
#include "detect/entity_detector.h"
#include "framework/binary_io.h"
#include "framework/store_pack.h"
#include "querylog/query_generator.h"
#include "text/sentence.h"
#include "units/unit_extractor.h"

namespace ckr {
namespace {

TEST(DetectorOptionsTest, MinConceptCharsFiltersShortSingles) {
  UnitDictionary units;
  units.Add({"ab", 1, 100, 0.0, 0.9});       // 2 chars, single-term.
  units.Add({"abcdef", 1, 100, 0.0, 0.9});   // Long single-term.
  EntityDetector detector({}, &units);
  // Single-term units are always ignored as concept candidates; only
  // multi-term units enter the candidate set.
  EXPECT_EQ(detector.NumConceptEntries(), 0u);
}

TEST(DetectorOptionsTest, MultiTermUnitsBecomeCandidates) {
  UnitDictionary units;
  units.Add({"ab cd", 2, 100, 1.0, 0.9});
  EntityDetector detector({}, &units);
  EXPECT_EQ(detector.NumConceptEntries(), 1u);
  auto dets = detector.Detect("ab cd appears here");
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].key, "ab cd");
}

TEST(DetectorOptionsTest, EmptyDictionaryDetectsNothing) {
  EntityDetector detector({}, nullptr);
  EXPECT_TRUE(detector.Detect("any text at all").empty());
  EXPECT_EQ(detector.NumDictionaryEntries(), 0u);
}

TEST(QueryMixTest, AllEntityTraffic) {
  WorldConfig wcfg;
  wcfg.num_topics = 4;
  wcfg.background_vocab = 400;
  wcfg.words_per_topic = 30;
  wcfg.num_named_entities = 60;
  wcfg.num_concepts = 30;
  wcfg.num_generic_concepts = 5;
  auto world = World::Create(wcfg);
  ASSERT_TRUE(world.ok());
  QueryGeneratorConfig qcfg;
  qcfg.num_submissions = 5000;
  qcfg.entity_query_prob = 1.0;
  qcfg.exact_prob = 1.0;  // Every query is an exact entity surface.
  qcfg.context_prob = 0.0;
  QueryLog log = QueryGenerator(**world, qcfg).Generate();
  // Every distinct query must be an entity key.
  for (const QueryEntry& q : log.entries()) {
    EXPECT_NE((*world)->FindByKey(q.text), kInvalidEntity) << q.text;
  }
}

TEST(QueryMixTest, AllBackgroundTraffic) {
  WorldConfig wcfg;
  wcfg.num_topics = 4;
  wcfg.background_vocab = 400;
  wcfg.words_per_topic = 30;
  wcfg.num_named_entities = 60;
  wcfg.num_concepts = 30;
  wcfg.num_generic_concepts = 5;
  auto world = World::Create(wcfg);
  ASSERT_TRUE(world.ok());
  QueryGeneratorConfig qcfg;
  qcfg.num_submissions = 5000;
  qcfg.entity_query_prob = 0.0;
  QueryLog log = QueryGenerator(**world, qcfg).Generate();
  EXPECT_EQ(log.TotalSubmissions(), 5000u);
  // Multi-term entity keys should essentially never appear exactly.
  size_t exact_hits = 0;
  for (const Entity& e : (*world)->entities()) {
    if (e.TermCount() >= 2 && log.ExactFreq(e.key) > 0) ++exact_hits;
  }
  EXPECT_LT(exact_hits, 3u);
}

TEST(UnitCapTest, MaxUnitsBoundsDictionary) {
  QueryLog log;
  for (int i = 0; i < 50; ++i) {
    log.AddQuery("w" + std::to_string(i), 20);
  }
  log.Finalize();
  UnitExtractorConfig cfg;
  cfg.min_term_freq = 1;
  cfg.max_units = 10;
  auto dict = UnitExtractor(cfg).Extract(log);
  ASSERT_TRUE(dict.ok());
  // Single-term units are admitted before the cap applies to growth;
  // multi-term growth must respect the cap.
  EXPECT_LE(dict->MultiTermUnits().size(), 10u);
}

TEST(StorePackTest, TrailingBytesRejected) {
  GlobalTidTable tids;
  tids.Intern("alpha");
  QuantizedInterestingnessStore interest;
  interest.Finalize();
  PackedRelevanceStore relevance(&tids);
  relevance.Finalize();
  std::string blob =
      SerializeStorePack(tids, interest, relevance, RankSvmModel());
  EXPECT_TRUE(StorePack::Deserialize(blob).ok());
  blob += "junk";
  auto bad = StorePack::Deserialize(blob);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StorePackTest, TruncatedBlobRejected) {
  GlobalTidTable tids;
  tids.Intern("alpha");
  QuantizedInterestingnessStore interest;
  interest.Finalize();
  PackedRelevanceStore relevance(&tids);
  relevance.Finalize();
  std::string blob =
      SerializeStorePack(tids, interest, relevance, RankSvmModel());
  for (size_t cut : {blob.size() / 4, blob.size() / 2, blob.size() - 1}) {
    EXPECT_FALSE(StorePack::Deserialize(blob.substr(0, cut)).ok()) << cut;
  }
}

TEST(SentenceEdgeTest, ExclamationAndQuestionChains) {
  auto spans = DetectSentences("Really?! Yes! Sure.");
  // "Really?" then "!" merges into trailing handling; at minimum the three
  // logical sentences are separated without losing text.
  ASSERT_GE(spans.size(), 2u);
  EXPECT_EQ(spans.front().begin, 0u);
}

TEST(SentenceEdgeTest, QuotedSentenceEnd) {
  std::string text = "He said \"stop.\" Then he left.";
  auto spans = DetectSentences(text);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(text.substr(spans[1].begin, spans[1].size()), "Then he left.");
}

TEST(SentenceEdgeTest, NoTerminatorYieldsOneSentence) {
  auto spans = DetectSentences("no terminator here");
  ASSERT_EQ(spans.size(), 1u);
}

TEST(WorldEdgeTest, PlacesCarryGeoMetadata) {
  WorldConfig cfg;
  cfg.num_topics = 4;
  cfg.background_vocab = 400;
  cfg.words_per_topic = 30;
  cfg.num_named_entities = 200;
  cfg.num_concepts = 20;
  cfg.num_generic_concepts = 5;
  auto world = World::Create(cfg);
  ASSERT_TRUE(world.ok());
  size_t places = 0;
  for (const Entity& e : (*world)->entities()) {
    if (e.type != EntityType::kPlace) continue;
    ++places;
    EXPECT_GE(e.latitude, -90.0f);
    EXPECT_LE(e.latitude, 90.0f);
    EXPECT_GE(e.longitude, -180.0f);
    EXPECT_LE(e.longitude, 180.0f);
  }
  EXPECT_GT(places, 10u);
}

TEST(WorldEdgeTest, TypePriorsShiftInterestingness) {
  WorldConfig cfg;
  cfg.num_topics = 6;
  cfg.background_vocab = 500;
  cfg.words_per_topic = 30;
  cfg.num_named_entities = 600;
  cfg.num_concepts = 20;
  cfg.num_generic_concepts = 5;
  auto world = World::Create(cfg);
  ASSERT_TRUE(world.ok());
  double person_sum = 0, animal_sum = 0;
  size_t person_n = 0, animal_n = 0;
  for (const Entity& e : (*world)->entities()) {
    if (e.type == EntityType::kPerson) {
      person_sum += e.interestingness;
      ++person_n;
    } else if (e.type == EntityType::kAnimal) {
      animal_sum += e.interestingness;
      ++animal_n;
    }
  }
  ASSERT_GT(person_n, 20u);
  ASSERT_GT(animal_n, 5u);
  EXPECT_GT(person_sum / static_cast<double>(person_n),
            animal_sum / static_cast<double>(animal_n) + 0.1);
}

}  // namespace
}  // namespace ckr
