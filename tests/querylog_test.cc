// Unit tests for ckr_querylog: aggregated log lookups and the traffic
// generator.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "corpus/world.h"
#include "fnv_fold.h"
#include "querylog/query_generator.h"
#include "querylog/query_log.h"

namespace ckr {
namespace {

QueryLog MakeSmallLog() {
  QueryLog log;
  log.AddQuery("tom cruise", 50);
  log.AddQuery("tom cruise movies", 20);
  log.AddQuery("cruise ship", 10);
  log.AddQuery("tom", 5);
  log.AddQuery("global warming", 30);
  log.Finalize();
  return log;
}

TEST(QueryLogTest, ExactFreq) {
  QueryLog log = MakeSmallLog();
  EXPECT_EQ(log.ExactFreq("tom cruise"), 50u);
  EXPECT_EQ(log.ExactFreq("Tom  Cruise!"), 50u);  // Normalization applies.
  EXPECT_EQ(log.ExactFreq("cruise"), 0u);
  EXPECT_EQ(log.ExactFreq("unseen query"), 0u);
}

TEST(QueryLogTest, PhraseContainedFreq) {
  QueryLog log = MakeSmallLog();
  // "tom cruise" appears in "tom cruise" (50) and "tom cruise movies" (20).
  EXPECT_EQ(log.PhraseContainedFreq("tom cruise"), 70u);
  // "cruise" appears in three queries: 50 + 20 + 10.
  EXPECT_EQ(log.PhraseContainedFreq("cruise"), 80u);
  // Non-contiguous "tom movies" is not a contained phrase.
  EXPECT_EQ(log.PhraseContainedFreq("tom movies"), 0u);
}

TEST(QueryLogTest, AggregationAcrossAddCalls) {
  QueryLog log;
  log.AddQuery("iraq war", 3);
  log.AddQuery("iraq war", 4);
  log.Finalize();
  EXPECT_EQ(log.ExactFreq("iraq war"), 7u);
  EXPECT_EQ(log.NumDistinctQueries(), 1u);
  EXPECT_EQ(log.TotalSubmissions(), 7u);
}

TEST(QueryLogTest, TermAndPairFreq) {
  QueryLog log = MakeSmallLog();
  EXPECT_EQ(log.TermFreq("tom"), 75u);     // 50 + 20 + 5.
  EXPECT_EQ(log.TermFreq("cruise"), 80u);  // 50 + 20 + 10.
  EXPECT_EQ(log.PairFreq("tom", "cruise"), 70u);
  EXPECT_EQ(log.PairFreq("cruise", "tom"), 70u);  // Order-independent.
  EXPECT_EQ(log.PairFreq("tom", "warming"), 0u);
}

TEST(QueryLogTest, MutualInformationPositiveForAssociatedTerms) {
  QueryLog log = MakeSmallLog();
  // p(tom, cruise) >> p(tom) p(cruise) over 115 submissions.
  double mi = log.MutualInformation("tom", "cruise");
  double expected = std::log((70.0 / 115.0) / ((75.0 / 115.0) * (80.0 / 115.0)));
  EXPECT_NEAR(mi, expected, 1e-12);
  EXPECT_GT(mi, 0.0);
  EXPECT_EQ(log.MutualInformation("tom", "nosuch"), 0.0);
}

TEST(QueryLogTest, QueriesWithTermIndex) {
  QueryLog log = MakeSmallLog();
  const auto& qids = log.QueriesWithTerm("cruise");
  EXPECT_EQ(qids.size(), 3u);
  for (uint32_t qid : qids) {
    const QueryEntry& q = log.entries()[qid];
    bool found = false;
    for (const auto& t : q.terms) found |= (t == "cruise");
    EXPECT_TRUE(found) << q.text;
  }
  EXPECT_TRUE(log.QueriesWithTerm("nosuch").empty());
}

TEST(QueryLogTest, EmptyQueriesIgnored) {
  QueryLog log;
  log.AddQuery("", 10);
  log.AddQuery("   ", 10);
  log.AddQuery("real", 1);
  log.Finalize();
  EXPECT_EQ(log.NumDistinctQueries(), 1u);
}

TEST(QueryLogTest, FinalizeIsDeterministic) {
  QueryLog a = MakeSmallLog();
  QueryLog b = MakeSmallLog();
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (size_t i = 0; i < a.entries().size(); ++i) {
    EXPECT_EQ(a.entries()[i].text, b.entries()[i].text);
    EXPECT_EQ(a.entries()[i].freq, b.entries()[i].freq);
  }
}

class QueryGeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorldConfig cfg;
    cfg.num_topics = 6;
    cfg.background_vocab = 600;
    cfg.words_per_topic = 40;
    cfg.num_named_entities = 150;
    cfg.num_concepts = 100;
    cfg.num_generic_concepts = 10;
    auto world_or = World::Create(cfg);
    ASSERT_TRUE(world_or.ok());
    world_ = std::move(*world_or);
  }
  std::unique_ptr<World> world_;
};

TEST_F(QueryGeneratorTest, GeneratesRequestedVolume) {
  QueryGeneratorConfig cfg;
  cfg.num_submissions = 20000;
  QueryGenerator gen(*world_, cfg);
  QueryLog log = gen.Generate();
  EXPECT_TRUE(log.finalized());
  EXPECT_EQ(log.TotalSubmissions(), 20000u);
  EXPECT_GT(log.NumDistinctQueries(), 1000u);
}

TEST_F(QueryGeneratorTest, PopularEntitiesQueriedMore) {
  QueryGeneratorConfig cfg;
  cfg.num_submissions = 60000;
  QueryGenerator gen(*world_, cfg);
  QueryLog log = gen.Generate();
  // Average exact-query frequency of the top popularity quartile should
  // dominate the bottom quartile.
  std::vector<const Entity*> sorted;
  for (const Entity& e : world_->entities()) {
    if (!e.is_generic) sorted.push_back(&e);
  }
  std::sort(sorted.begin(), sorted.end(), [](const Entity* a, const Entity* b) {
    return a->popularity > b->popularity;
  });
  size_t q = sorted.size() / 4;
  double top = 0, bottom = 0;
  for (size_t i = 0; i < q; ++i) {
    top += static_cast<double>(log.ExactFreq(sorted[i]->key));
    bottom += static_cast<double>(
        log.ExactFreq(sorted[sorted.size() - 1 - i]->key));
  }
  EXPECT_GT(top, 5.0 * (bottom + 1.0));
}

TEST_F(QueryGeneratorTest, DeterministicInSeed) {
  QueryGeneratorConfig cfg;
  cfg.num_submissions = 5000;
  QueryLog a = QueryGenerator(*world_, cfg).Generate();
  QueryLog b = QueryGenerator(*world_, cfg).Generate();
  EXPECT_EQ(a.NumDistinctQueries(), b.NumDistinctQueries());
  cfg.seed = 8;
  QueryLog c = QueryGenerator(*world_, cfg).Generate();
  EXPECT_NE(a.NumDistinctQueries(), c.NumDistinctQueries());
}

TEST_F(QueryGeneratorTest, PhraseContainmentAtLeastExact) {
  QueryGeneratorConfig cfg;
  cfg.num_submissions = 20000;
  QueryLog log = QueryGenerator(*world_, cfg).Generate();
  for (const Entity& e : world_->entities()) {
    EXPECT_GE(log.PhraseContainedFreq(e.key), log.ExactFreq(e.key)) << e.key;
  }
}

// Golden log at the SmallForTests world and query-log config: an FNV-1a
// fold of every (text, freq) entry. The constant was recorded before the
// entity draw moved from Rng::NextCategorical to a prefix-sum sampler, so
// it pins that every draw still picks the same entity.
TEST(QueryGeneratorGoldenTest, SmallForTestsLogIsPinned) {
  const PipelineConfig cfg = PipelineConfig::SmallForTests();
  auto world_or = World::Create(cfg.world);
  ASSERT_TRUE(world_or.ok());
  const QueryLog log = QueryGenerator(**world_or, cfg.querylog).Generate();
  ASSERT_EQ(log.TotalSubmissions(), cfg.querylog.num_submissions);
  uint64_t h = testing_fnv::kFnvOffsetBasis;
  h = testing_fnv::FoldValue(h, static_cast<uint64_t>(log.entries().size()));
  for (const QueryEntry& e : log.entries()) {
    h = testing_fnv::FoldString(h, e.text);
    h = testing_fnv::FoldValue(h, e.freq);
  }
  EXPECT_EQ(h, 0xd9a19a54b7bf90edull) << "fingerprint: " << std::hex << h;
}

}  // namespace
}  // namespace ckr
