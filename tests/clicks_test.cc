// Unit tests for ckr_clicks: the click model and tracking reports.
#include <gtest/gtest.h>

#include "clicks/click_model.h"
#include "corpus/doc_generator.h"
#include "corpus/world.h"
#include "detect/entity_detector.h"

namespace ckr {
namespace {

WorldConfig SmallWorld() {
  WorldConfig cfg;
  cfg.num_topics = 6;
  cfg.background_vocab = 600;
  cfg.words_per_topic = 40;
  cfg.num_named_entities = 150;
  cfg.num_concepts = 80;
  cfg.num_generic_concepts = 10;
  return cfg;
}

class ClicksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world_or = World::Create(SmallWorld());
    ASSERT_TRUE(world_or.ok());
    world_ = std::move(*world_or);
    gen_ = std::make_unique<DocGenerator>(*world_);
    detector_ = std::make_unique<EntityDetector>(
        EntityDetector::FromWorld(*world_, nullptr));
  }

  StoryReport SimulateStory(DocId id, const ClickModelConfig& cfg = {}) {
    Document story = gen_->Generate(Document::Kind::kNews, id);
    ClickSimulator sim(*world_, cfg);
    return sim.Simulate(story, detector_->Detect(story.text));
  }

  std::unique_ptr<World> world_;
  std::unique_ptr<DocGenerator> gen_;
  std::unique_ptr<EntityDetector> detector_;
};

TEST_F(ClicksTest, ReportShape) {
  StoryReport report = SimulateStory(1);
  EXPECT_GT(report.views, 0u);
  ASSERT_FALSE(report.annotations.empty());
  for (const AnnotationRecord& a : report.annotations) {
    EXPECT_EQ(a.views, report.views);  // Paper: views == story views.
    EXPECT_LE(a.clicks, a.views);
    EXPECT_NE(a.type, EntityType::kPattern);
    EXPECT_FALSE(a.key.empty());
  }
}

TEST_F(ClicksTest, DistinctKeysCollapseToEarliestPosition) {
  StoryReport report = SimulateStory(2);
  std::unordered_set<std::string> keys;
  for (const AnnotationRecord& a : report.annotations) {
    EXPECT_TRUE(keys.insert(a.key).second) << "duplicate " << a.key;
  }
}

TEST_F(ClicksTest, DeterministicPerStory) {
  StoryReport a = SimulateStory(3);
  StoryReport b = SimulateStory(3);
  ASSERT_EQ(a.annotations.size(), b.annotations.size());
  EXPECT_EQ(a.views, b.views);
  for (size_t i = 0; i < a.annotations.size(); ++i) {
    EXPECT_EQ(a.annotations[i].clicks, b.annotations[i].clicks);
  }
}

TEST_F(ClicksTest, ViewScaleMultipliesViews) {
  Document story = gen_->Generate(Document::Kind::kNews, 4);
  ClickSimulator sim(*world_, {});
  auto dets = detector_->Detect(story.text);
  StoryReport r1 = sim.Simulate(story, dets, 1.0);
  StoryReport r4 = sim.Simulate(story, dets, 4.0);
  EXPECT_NEAR(static_cast<double>(r4.views),
              4.0 * static_cast<double>(r1.views), 2.0);
}

TEST_F(ClicksTest, RelevantInterestingEntitiesEarnHigherCtr) {
  // Aggregate over many stories: CTR of high-latent annotations beats
  // low-latent ones.
  double hi_ctr = 0, lo_ctr = 0;
  size_t hi_n = 0, lo_n = 0;
  for (DocId id = 0; id < 120; ++id) {
    Document story = gen_->Generate(Document::Kind::kNews, id);
    ClickSimulator sim(*world_, {});
    StoryReport report = sim.Simulate(story, detector_->Detect(story.text));
    for (const AnnotationRecord& a : report.annotations) {
      EntityId eid = world_->FindByKey(a.key);
      if (eid == kInvalidEntity) continue;
      double g = world_->entity(eid).interestingness;
      double r = story.TruthRelevance(eid);
      double quality = 0.45 * r + 0.3 * g + 0.25 * r * g;
      if (quality > 0.4) {
        hi_ctr += a.Ctr();
        ++hi_n;
      } else if (quality < 0.1) {
        lo_ctr += a.Ctr();
        ++lo_n;
      }
    }
  }
  ASSERT_GT(hi_n, 20u);
  ASSERT_GT(lo_n, 20u);
  EXPECT_GT(hi_ctr / static_cast<double>(hi_n),
            2.0 * (lo_ctr / static_cast<double>(lo_n) + 1e-4));
}

TEST_F(ClicksTest, PositionBiasReducesClickProbability) {
  Document story = gen_->Generate(Document::Kind::kNews, 7);
  ClickSimulator sim(*world_, {});
  ASSERT_FALSE(story.mentions.empty());
  const std::string& key = world_->entity(story.mentions[0].entity).key;
  // Average the noisy probability over many draws at both positions.
  double front = 0, back = 0;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    front += sim.ClickProbability(story, key, 0, rng);
    back += sim.ClickProbability(story, key, story.text.size() - 1, rng);
  }
  EXPECT_GT(front, 1.5 * back);
}

TEST_F(ClicksTest, UnknownKeysGetFloorLatents) {
  Document story = gen_->Generate(Document::Kind::kNews, 8);
  ClickSimulator sim(*world_, {});
  Rng rng(6);
  double unknown = 0;
  for (int i = 0; i < 500; ++i) {
    unknown += sim.ClickProbability(story, "zz unknown zz", 0, rng);
  }
  unknown /= 500;
  EXPECT_LT(unknown, sim.config().base_ctr * 0.1);
}

TEST(FilterReportsTest, AppliesCleaningRules) {
  auto make = [](uint64_t views, std::vector<uint64_t> clicks) {
    StoryReport r;
    r.views = views;
    for (size_t i = 0; i < clicks.size(); ++i) {
      AnnotationRecord a;
      a.key = std::string("k").append(std::to_string(i));
      a.views = views;
      a.clicks = clicks[i];
      r.annotations.push_back(a);
    }
    return r;
  };
  std::vector<StoryReport> reports = {
      make(100, {5, 2}),   // Kept.
      make(10, {5, 2}),    // Dropped: < 30 views.
      make(100, {9}),      // Dropped: single concept.
      make(100, {3, 3}),   // Dropped: no concept with > 3 clicks.
      make(35, {4, 0, 0}), // Kept: exactly at the boundaries.
  };
  auto kept = FilterReports(reports, {});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].views, 100u);
  EXPECT_EQ(kept[1].views, 35u);
}

TEST(FilterReportsTest, CustomThresholds) {
  StoryReport r;
  r.views = 50;
  for (int i = 0; i < 3; ++i) {
    AnnotationRecord a;
    a.key = std::string("k").append(std::to_string(i));
    a.views = 50;
    a.clicks = 2;
    r.annotations.push_back(a);
  }
  ReportFilter strict;
  strict.min_top_clicks = 1;
  EXPECT_EQ(FilterReports({r}, strict).size(), 1u);
  strict.min_views = 60;
  EXPECT_TRUE(FilterReports({r}, strict).empty());
}

}  // namespace
}  // namespace ckr
