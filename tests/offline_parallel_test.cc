// Determinism of the parallel offline fan-out: OfflineConceptMiner must
// produce exactly the same MinedConcept slots, and DatasetBuilder the same
// ClickDataset, for any worker count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/dataset.h"
#include "core/pipeline.h"
#include "features/offline_miner.h"

namespace ckr {
namespace {

class ParallelMiningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto built = Pipeline::Build(PipelineConfig::SmallForTests());
    ASSERT_TRUE(built.ok()) << built.status().message();
    pipeline_ = built.value().release();
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static std::vector<ConceptKey> SampleConcepts(size_t stride) {
    std::vector<ConceptKey> concepts;
    const World& world = pipeline_->world();
    for (size_t i = 0; i < world.NumEntities(); i += stride) {
      const Entity& e = world.entity(static_cast<EntityId>(i));
      concepts.push_back({e.key, e.type});
    }
    return concepts;
  }

  static void ExpectSameVector(const InterestingnessVector& a,
                               const InterestingnessVector& b, size_t c) {
    // Exact equality: parallel mining must be bit-identical to serial.
    EXPECT_EQ(a.freq_exact, b.freq_exact) << c;
    EXPECT_EQ(a.freq_phrase_contained, b.freq_phrase_contained) << c;
    EXPECT_EQ(a.unit_score, b.unit_score) << c;
    EXPECT_EQ(a.searchengine_phrase, b.searchengine_phrase) << c;
    EXPECT_EQ(a.concept_size, b.concept_size) << c;
    EXPECT_EQ(a.number_of_chars, b.number_of_chars) << c;
    EXPECT_EQ(a.subconcepts, b.subconcepts) << c;
    EXPECT_EQ(a.wiki_word_count, b.wiki_word_count) << c;
    EXPECT_EQ(a.high_level_type, b.high_level_type) << c;
  }

  static void ExpectSameMined(const std::vector<MinedConcept>& a,
                              const std::vector<MinedConcept>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      ExpectSameVector(a[c].interestingness, b[c].interestingness, c);
      for (size_t r = 0; r < kNumRelevanceResources; ++r) {
        ASSERT_EQ(a[c].relevance[r].size(), b[c].relevance[r].size())
            << "concept " << c << " resource " << r;
        for (size_t t = 0; t < a[c].relevance[r].size(); ++t) {
          EXPECT_EQ(a[c].relevance[r][t].term, b[c].relevance[r][t].term);
          EXPECT_EQ(a[c].relevance[r][t].score, b[c].relevance[r][t].score);
        }
      }
    }
  }

  static Pipeline* pipeline_;
};

Pipeline* ParallelMiningTest::pipeline_ = nullptr;

TEST_F(ParallelMiningTest, OutputIdenticalAcrossWorkerCounts) {
  std::vector<ConceptKey> concepts = SampleConcepts(9);
  ASSERT_GE(concepts.size(), 8u);

  OfflineConceptMiner miner(pipeline_->interestingness(),
                            pipeline_->relevance_miner());
  std::vector<MinedConcept> serial = miner.MineAll(concepts, 25, 1);
  for (unsigned workers : {2u, 4u}) {
    std::vector<MinedConcept> parallel = miner.MineAll(concepts, 25, workers);
    ExpectSameMined(serial, parallel);
  }
}

// DatasetBuilder::Build runs its story reports, mining and window
// assembly on the workers; every field of the dataset — including the
// story, position and window bookkeeping the core_test golden does not
// hash — must come out the same for any worker count.
TEST_F(ParallelMiningTest, DatasetIdenticalAcrossWorkerCounts) {
  auto build = [](unsigned workers) {
    DatasetConfig cfg;
    cfg.num_threads = workers;
    auto ds = DatasetBuilder(*pipeline_, cfg).Build();
    EXPECT_TRUE(ds.ok()) << ds.status().message();
    return ds.ok() ? std::move(*ds) : ClickDataset();
  };
  const ClickDataset serial = build(1);
  ASSERT_GT(serial.instances.size(), 100u);
  ASSERT_GT(serial.num_windows, 20u);
  for (unsigned workers : {2u, 4u}) {
    SCOPED_TRACE(workers);
    const ClickDataset parallel = build(workers);
    EXPECT_EQ(parallel.surviving_stories, serial.surviving_stories);
    EXPECT_EQ(parallel.story_fold, serial.story_fold);
    EXPECT_EQ(parallel.num_windows, serial.num_windows);
    EXPECT_EQ(parallel.total_clicks, serial.total_clicks);
    EXPECT_EQ(parallel.num_distinct_concepts, serial.num_distinct_concepts);
    ASSERT_EQ(parallel.instances.size(), serial.instances.size());
    for (size_t i = 0; i < serial.instances.size(); ++i) {
      const WindowInstance& a = serial.instances[i];
      const WindowInstance& b = parallel.instances[i];
      EXPECT_EQ(b.key, a.key) << i;
      EXPECT_EQ(b.type, a.type) << i;
      EXPECT_EQ(b.window_group, a.window_group) << i;
      EXPECT_EQ(b.story_index, a.story_index) << i;
      EXPECT_EQ(b.position, a.position) << i;
      EXPECT_EQ(b.views, a.views) << i;
      EXPECT_EQ(b.clicks, a.clicks) << i;
      EXPECT_EQ(b.ctr, a.ctr) << i;
      EXPECT_EQ(b.baseline_score, a.baseline_score) << i;
      ExpectSameVector(b.interestingness, a.interestingness, i);
      EXPECT_EQ(b.relevance, a.relevance) << i;
    }
  }
}

TEST_F(ParallelMiningTest, PrismaIdenticalAcrossWorkerCounts) {
  // Prisma feedback keeps its accumulators local to each call, so
  // concurrent calls on one SearchService share no mutable state.
  std::vector<ConceptKey> concepts = SampleConcepts(3);
  ASSERT_GE(concepts.size(), 50u);
  struct Slot {
    std::vector<std::string> feedback;
    std::vector<RelevantTerm> mined;
  };
  auto run = [&](unsigned workers) {
    std::vector<Slot> out(concepts.size());
    ParallelFor(concepts.size(), workers, [&](size_t c) {
      const std::string& key = concepts[c].key;
      out[c].feedback = pipeline_->search().PrismaFeedbackTerms(key);
      out[c].mined = pipeline_->relevance_miner().Mine(
          key, RelevanceResource::kPrisma, 25);
    });
    return out;
  };
  const std::vector<Slot> serial = run(1);
  size_t with_feedback = 0;
  for (const Slot& s : serial) with_feedback += s.feedback.empty() ? 0 : 1;
  EXPECT_GT(with_feedback, concepts.size() / 2);
  for (unsigned workers : {2u, 4u}) {
    const std::vector<Slot> parallel = run(workers);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t c = 0; c < serial.size(); ++c) {
      EXPECT_EQ(parallel[c].feedback, serial[c].feedback) << concepts[c].key;
      ASSERT_EQ(parallel[c].mined.size(), serial[c].mined.size()) << c;
      for (size_t t = 0; t < serial[c].mined.size(); ++t) {
        EXPECT_EQ(parallel[c].mined[t].term, serial[c].mined[t].term);
        EXPECT_EQ(parallel[c].mined[t].score, serial[c].mined[t].score);
      }
    }
  }
}

TEST_F(ParallelMiningTest, StatsAccountForEveryConcept) {
  std::vector<ConceptKey> concepts = SampleConcepts(17);
  OfflineConceptMiner miner(pipeline_->interestingness(),
                            pipeline_->relevance_miner());
  OfflineMiningStats stats;
  miner.MineAll(concepts, 10, 3, &stats);
  EXPECT_EQ(stats.workers, 3u);
  ASSERT_EQ(stats.worker_busy_seconds.size(), 3u);
  ASSERT_EQ(stats.worker_concepts.size(), 3u);
  uint64_t mined = 0;
  for (uint64_t n : stats.worker_concepts) mined += n;
  EXPECT_EQ(mined, concepts.size());
  EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST_F(ParallelMiningTest, ZeroWorkersMeansHardwareDefault) {
  std::vector<ConceptKey> concepts = SampleConcepts(40);
  OfflineConceptMiner miner(pipeline_->interestingness(),
                            pipeline_->relevance_miner());
  OfflineMiningStats stats;
  std::vector<MinedConcept> a = miner.MineAll(concepts, 10, 0, &stats);
  EXPECT_GE(stats.workers, 1u);
  std::vector<MinedConcept> b = miner.MineAll(concepts, 10, 1);
  ExpectSameMined(a, b);
}

TEST_F(ParallelMiningTest, EmptyInputYieldsEmptyOutput) {
  OfflineConceptMiner miner(pipeline_->interestingness(),
                            pipeline_->relevance_miner());
  EXPECT_TRUE(miner.MineAll({}, 10, 4).empty());
}

}  // namespace
}  // namespace ckr
