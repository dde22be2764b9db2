// Cross-module integration and edge-case tests: determinism of the full
// pipeline, dataset configuration variants, and runtime edge behaviour.
#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/pipeline.h"
#include "framework/runtime_ranker.h"
#include "text/html.h"

namespace ckr {
namespace {

TEST(PipelineDeterminismTest, IdenticalConfigsYieldIdenticalWorlds) {
  PipelineConfig cfg = PipelineConfig::SmallForTests();
  auto a = Pipeline::Build(cfg);
  auto b = Pipeline::Build(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ((*a)->world().NumEntities(), (*b)->world().NumEntities());
  EXPECT_EQ((*a)->query_log().NumDistinctQueries(),
            (*b)->query_log().NumDistinctQueries());
  EXPECT_EQ((*a)->units().size(), (*b)->units().size());
  EXPECT_EQ((*a)->news_stories()[3].text, (*b)->news_stories()[3].text);

  auto ds_a = DatasetBuilder(**a, {}).Build();
  auto ds_b = DatasetBuilder(**b, {}).Build();
  ASSERT_TRUE(ds_a.ok() && ds_b.ok());
  ASSERT_EQ(ds_a->instances.size(), ds_b->instances.size());
  for (size_t i = 0; i < ds_a->instances.size(); i += 37) {
    EXPECT_EQ(ds_a->instances[i].key, ds_b->instances[i].key);
    EXPECT_DOUBLE_EQ(ds_a->instances[i].ctr, ds_b->instances[i].ctr);
    EXPECT_DOUBLE_EQ(ds_a->instances[i].baseline_score,
                     ds_b->instances[i].baseline_score);
  }
}

TEST(PipelineDeterminismTest, DifferentSeedsDiffer) {
  PipelineConfig cfg = PipelineConfig::SmallForTests();
  auto a = Pipeline::Build(cfg);
  cfg.world.seed ^= 1;
  auto b = Pipeline::Build(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)->news_stories()[0].text, (*b)->news_stories()[0].text);
}

class DatasetVariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto p = Pipeline::Build(PipelineConfig::SmallForTests());
    ASSERT_TRUE(p.ok());
    pipeline_ = p->release();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static Pipeline* pipeline_;
};

Pipeline* DatasetVariantsTest::pipeline_ = nullptr;

TEST_F(DatasetVariantsTest, NoAnnotationCutYieldsMoreInstances) {
  DatasetConfig cut;
  DatasetConfig no_cut;
  no_cut.max_annotations_per_story = 0;
  auto with = DatasetBuilder(*pipeline_, cut).Build();
  auto without = DatasetBuilder(*pipeline_, no_cut).Build();
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_GT(without->instances.size(), with->instances.size());
}

TEST_F(DatasetVariantsTest, StricterFilterKeepsFewerStories) {
  DatasetConfig loose;
  DatasetConfig strict;
  strict.filter.min_views = 200;
  auto a = DatasetBuilder(*pipeline_, loose).Build();
  auto b = DatasetBuilder(*pipeline_, strict).Build();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(b->surviving_stories.size(), a->surviving_stories.size());
}

TEST_F(DatasetVariantsTest, SmallerWindowsMakeMoreGroups) {
  DatasetConfig big;
  DatasetConfig small;
  small.window_size = 800;
  small.window_overlap = 100;
  auto a = DatasetBuilder(*pipeline_, big).Build();
  auto b = DatasetBuilder(*pipeline_, small).Build();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b->num_windows, a->num_windows);
}

TEST_F(DatasetVariantsTest, FoldCountHonored) {
  DatasetConfig cfg;
  cfg.cv_folds = 3;
  auto ds = DatasetBuilder(*pipeline_, cfg).Build();
  ASSERT_TRUE(ds.ok());
  int max_fold = 0;
  for (int f : ds->story_fold) max_fold = std::max(max_fold, f);
  EXPECT_EQ(max_fold, 2);
}

TEST_F(DatasetVariantsTest, ThreadCountDoesNotChangeResults) {
  DatasetConfig serial;
  serial.num_threads = 1;
  DatasetConfig parallel;
  parallel.num_threads = 4;
  auto a = DatasetBuilder(*pipeline_, serial).Build();
  auto b = DatasetBuilder(*pipeline_, parallel).Build();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->instances.size(), b->instances.size());
  for (size_t i = 0; i < a->instances.size(); ++i) {
    ASSERT_EQ(a->instances[i].key, b->instances[i].key);
    ASSERT_DOUBLE_EQ(a->instances[i].ctr, b->instances[i].ctr);
    ASSERT_DOUBLE_EQ(a->instances[i].relevance[0], b->instances[i].relevance[0]);
  }
}

TEST(RuntimeEdgeTest, EmptyStoresProduceNoAnnotations) {
  std::vector<EntityDetector::DictionaryEntry> dict = {
      {"something", EntityType::kPlace, 0}};
  EntityDetector detector(dict, nullptr);
  GlobalTidTable tids;
  ConceptStore concepts;
  concepts.Finalize(&tids);
  RankSvmModel model;  // Default-constructed: zero-dimensional.
  RuntimeRanker ranker(detector, concepts, tids, model);
  RuntimeStats stats;
  auto out = ranker.ProcessDocument("something happened here", &stats);
  EXPECT_TRUE(out.empty());  // No store entry -> candidate skipped.
  EXPECT_EQ(stats.documents, 1u);
}

TEST(RuntimeEdgeTest, EmptyDocument) {
  std::vector<EntityDetector::DictionaryEntry> dict = {
      {"x y", EntityType::kPlace, 0}};
  EntityDetector detector(dict, nullptr);
  GlobalTidTable tids;
  ConceptStore concepts;
  concepts.Finalize(&tids);
  RuntimeRanker ranker(detector, concepts, tids, RankSvmModel());
  EXPECT_TRUE(ranker.ProcessDocument("").empty());
}

TEST(HtmlEdgeTest, TruncatedAndHostileInput) {
  EXPECT_EQ(StripHtml("text <unclosed"), "text ");
  EXPECT_EQ(StripHtml("<script>never closed"), "");
  EXPECT_EQ(StripHtml("<!-- never closed"), "");
  EXPECT_EQ(StripHtml("&;"), "&;");
  EXPECT_EQ(StripHtml("&#99999;"), " ");  // Non-ASCII code point.
  EXPECT_EQ(StripHtml(""), "");
}

}  // namespace
}  // namespace ckr
