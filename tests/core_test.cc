// Integration tests for ckr_core: the full pipeline, dataset construction,
// the experiment runner, and the end-to-end ContextualRanker.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <unordered_set>

#include "core/contextual_ranker.h"
#include "core/dataset.h"
#include "core/experiment.h"
#include "core/pipeline.h"
#include "corpus/doc_generator.h"
#include "fnv_fold.h"
#include "obs/clock.h"
#include "obs/hooks.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

// One shared small pipeline + dataset for the whole file.
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto p = Pipeline::Build(PipelineConfig::SmallForTests());
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    pipeline_ = p->release();
    DatasetBuilder builder(*pipeline_, DatasetConfig{});
    auto ds = builder.Build();
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new ClickDataset(std::move(*ds));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete pipeline_;
    pipeline_ = nullptr;
    dataset_ = nullptr;
  }

  /// The documents the pipeline indexed: generation is counter-seeded
  /// per document id, so a second generator yields them again.
  static std::vector<Document> WebCorpus() {
    return DocGenerator(pipeline_->world())
        .GenerateCorpus(Document::Kind::kWeb,
                        pipeline_->config().world.num_web_docs);
  }

  static Pipeline* pipeline_;
  static ClickDataset* dataset_;
};

Pipeline* CoreTest::pipeline_ = nullptr;
ClickDataset* CoreTest::dataset_ = nullptr;

TEST_F(CoreTest, PipelineComponentsAreWired) {
  EXPECT_GT(pipeline_->world().NumEntities(), 200u);
  EXPECT_EQ(pipeline_->index().NumDocs(),
            pipeline_->config().world.num_web_docs);
  EXPECT_TRUE(pipeline_->index().finalized());
  EXPECT_TRUE(pipeline_->query_log().finalized());
  EXPECT_GT(pipeline_->units().size(), 100u);
  EXPECT_GT(pipeline_->wiki().NumArticles(), 20u);
  EXPECT_GT(pipeline_->detector().NumDictionaryEntries(), 100u);
  EXPECT_GT(pipeline_->term_dictionary().NumDocs(), 0u);
  EXPECT_GT(pipeline_->stemmed_term_dictionary().NumTerms(), 0u);
}

// The pipeline reads both term dictionaries off the inverted index. They
// must equal what counting the web corpus directly gives: per document, the
// set of its tokens (Porter-stemmed for the stemmed copy).
TEST_F(CoreTest, TermDictionariesMatchCorpusCounts) {
  const std::vector<Document> corpus = WebCorpus();
  for (bool stemmed : {false, true}) {
    std::map<std::string, uint32_t> want;
    for (const Document& doc : corpus) {
      std::set<std::string> seen;
      for (std::string& tok : TokenizeToStrings(doc.text)) {
        seen.insert(stemmed ? PorterStem(tok) : std::move(tok));
      }
      for (const std::string& t : seen) ++want[t];
    }
    const TermDictionary& dict = stemmed
                                     ? pipeline_->stemmed_term_dictionary()
                                     : pipeline_->term_dictionary();
    SCOPED_TRACE(stemmed ? "stemmed" : "unstemmed");
    EXPECT_EQ(dict.NumDocs(), corpus.size());
    ASSERT_EQ(dict.NumTerms(), want.size());
    ASSERT_GT(want.size(), 500u);
    for (const auto& [term, df] : want) {
      ASSERT_EQ(dict.DocFreq(term), df) << term;
    }
  }
}

TEST_F(CoreTest, PipelineRejectsBadConfig) {
  PipelineConfig cfg = PipelineConfig::SmallForTests();
  cfg.world.num_topics = 0;
  EXPECT_FALSE(Pipeline::Build(cfg).ok());
}

TEST_F(CoreTest, DatasetShape) {
  const ClickDataset& ds = *dataset_;
  EXPECT_GT(ds.surviving_stories.size(), 20u);
  EXPECT_GT(ds.num_windows, 20u);
  EXPECT_GT(ds.instances.size(), 100u);
  EXPECT_GT(ds.total_clicks, 100u);
  EXPECT_GT(ds.num_distinct_concepts, 50u);
  EXPECT_EQ(ds.story_fold.size(), ds.surviving_stories.size());
  // The production annotation cut holds per story.
  std::unordered_map<uint32_t, std::unordered_set<std::string>> per_story;
  for (const WindowInstance& inst : ds.instances) {
    per_story[inst.story_index].insert(inst.key);
  }
  for (const auto& [story, keys] : per_story) {
    EXPECT_LE(keys.size(), DatasetConfig{}.max_annotations_per_story);
  }
}

TEST_F(CoreTest, InstancesCarryFeaturesAndLabels) {
  for (const WindowInstance& inst : dataset_->instances) {
    EXPECT_FALSE(inst.key.empty());
    EXPECT_GE(inst.ctr, 0.0);
    EXPECT_LE(inst.ctr, 1.0);
    EXPECT_GE(inst.baseline_score, 0.0);
    for (double r : inst.relevance) EXPECT_GE(r, 0.0);
    EXPECT_GE(inst.views, ReportFilter{}.min_views);
  }
}

TEST_F(CoreTest, WindowsHaveAtLeastTwoInstances) {
  for (const auto& group : dataset_->GroupByWindow()) {
    EXPECT_GE(group.size(), 2u);
  }
}

TEST_F(CoreTest, ExperimentOrderingMatchesPaper) {
  ExperimentRunner runner(*dataset_);
  EvalResult random = runner.EvaluateRandom();
  EvalResult baseline = runner.EvaluateBaseline();
  EvalResult relevance =
      runner.EvaluateRelevanceOnly(RelevanceResource::kSnippets);
  ModelSpec combined;
  combined.include_relevance = true;
  auto combined_or = runner.EvaluateModelCV(combined);
  ASSERT_TRUE(combined_or.ok()) << combined_or.status().ToString();

  // The paper's qualitative ordering (Table V): random worst, baseline
  // clearly better, the combined learned model best.
  EXPECT_NEAR(random.weighted_error_rate, 0.5, 0.06);
  EXPECT_LT(baseline.weighted_error_rate, random.weighted_error_rate - 0.03);
  EXPECT_LT(combined_or->weighted_error_rate,
            baseline.weighted_error_rate - 0.03);
  EXPECT_LT(combined_or->weighted_error_rate,
            relevance.weighted_error_rate + 0.02);
  // NDCG mirrors the error ordering (Figures 1-3): combined beats random
  // at every cutoff.
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_GT(combined_or->ndcg[k], random.ndcg[k]);
  }
}

TEST_F(CoreTest, AblationDegradesButStaysUseful) {
  ExperimentRunner runner(*dataset_);
  ModelSpec full;
  auto full_or = runner.EvaluateModelCV(full);
  ASSERT_TRUE(full_or.ok());
  ModelSpec no_logs;
  no_logs.group_mask = MaskWithout(FeatureGroup::kQueryLogs);
  auto no_logs_or = runner.EvaluateModelCV(no_logs);
  ASSERT_TRUE(no_logs_or.ok());
  // Dropping the strongest group should not *improve* things materially
  // (generous tolerance: the reduced test scale is noisy).
  EXPECT_GT(no_logs_or->weighted_error_rate,
            full_or->weighted_error_rate - 0.05);
}

TEST_F(CoreTest, TrainFullModelProducesServingScores) {
  ExperimentRunner runner(*dataset_);
  ModelSpec spec;
  spec.include_relevance = true;
  auto model_or = runner.TrainFullModel(spec);
  ASSERT_TRUE(model_or.ok());
  const WindowInstance& inst = dataset_->instances.front();
  double s = model_or->Score(ExperimentRunner::Features(inst, spec));
  EXPECT_TRUE(std::isfinite(s));
}

// ---------------------------------------------------------------------
// Golden mining fingerprints at PipelineConfig::SmallForTests. The
// constants were recorded before Prisma feedback moved onto the index's
// term-id streams and before Train began reusing the dataset's mined
// concepts; any change to what the offline phase mines changes them.

using testing_fnv::FoldString;
using testing_fnv::FoldValue;
using testing_fnv::kFnvOffsetBasis;

uint64_t FoldInterestingness(uint64_t h, const InterestingnessVector& v) {
  for (double x : {v.freq_exact, v.freq_phrase_contained, v.unit_score,
                   v.searchengine_phrase, v.concept_size, v.number_of_chars,
                   v.subconcepts, v.wiki_word_count}) {
    h = FoldValue(h, x);
  }
  for (double x : v.high_level_type) h = FoldValue(h, x);
  return h;
}

// Every detector candidate Train stores: the dictionary entities, then
// the multi-term units that are not dictionary entities.
std::vector<std::string> StoreCandidateKeys(const Pipeline& p) {
  std::vector<std::string> keys;
  for (const Entity& e : p.world().entities()) {
    if (e.in_dictionary) keys.push_back(e.key);
  }
  for (const UnitInfo* u : p.units().MultiTermUnits()) {
    EntityId id = p.world().FindByKey(u->phrase);
    if (id != kInvalidEntity && p.world().entity(id).in_dictionary) continue;
    keys.push_back(u->phrase);
  }
  return keys;
}

TEST_F(CoreTest, DatasetFingerprintIsPinned) {
  uint64_t h = kFnvOffsetBasis;
  h = FoldValue(h, static_cast<uint64_t>(dataset_->instances.size()));
  for (const WindowInstance& inst : dataset_->instances) {
    h = FoldString(h, inst.key);
    h = FoldValue(h, static_cast<int32_t>(inst.type));
    h = FoldValue(h, inst.window_group);
    h = FoldValue(h, inst.views);
    h = FoldValue(h, inst.clicks);
    h = FoldValue(h, inst.ctr);
    h = FoldValue(h, inst.baseline_score);
    h = FoldInterestingness(h, inst.interestingness);
    for (double r : inst.relevance) h = FoldValue(h, r);
  }
  EXPECT_EQ(h, 0xbaaef7b6d05c68bdull) << "fingerprint: " << std::hex << h;
}

TEST_F(CoreTest, PrismaFingerprintIsPinned) {
  const std::vector<std::string> keys = StoreCandidateKeys(*pipeline_);
  ASSERT_GT(keys.size(), 300u);
  uint64_t h = kFnvOffsetBasis;
  size_t terms = 0;
  for (const std::string& key : keys) {
    std::vector<std::string> feedback =
        pipeline_->search().PrismaFeedbackTerms(key);
    terms += feedback.size();
    h = FoldString(h, key);
    h = FoldValue(h, static_cast<uint64_t>(feedback.size()));
    for (const std::string& t : feedback) h = FoldString(h, t);
  }
  EXPECT_GT(terms, 10 * keys.size());
  EXPECT_EQ(h, 0x0b920375b3159110ull) << "fingerprint: " << std::hex << h;
}

// The pack's bytes are independent of the standard library: the TID
// table lists its entries by tid, not in hash order.
TEST(ContextualRankerTest, PackFingerprintIsPinned) {
  ContextualRankerOptions options;
  options.pipeline = PipelineConfig::SmallForTests();
  auto ranker_or = ContextualRanker::Train(options);
  ASSERT_TRUE(ranker_or.ok()) << ranker_or.status().ToString();
  const std::string pack = (*ranker_or)->SerializePack();
  const uint64_t h = FoldString(kFnvOffsetBasis, pack);
  EXPECT_EQ(h, 0xe852dfbb038954b1ull) << "fingerprint: " << std::hex << h;
}

TEST(ContextualRankerTest, StageTimersRecordOncePerTrainWithinWallTime) {
  if (!CKR_OBS_ENABLED) GTEST_SKIP() << "observability hooks compiled out";
  // Train's top-level stages, which run one after another...
  const std::vector<std::string> train_stages = {
      "ckr.offline.stage.pipeline_build_seconds",
      "ckr.offline.stage.dataset_build_seconds",
      "ckr.ranksvm.stage.train_seconds",
      "ckr.offline.stage.store_population_seconds"};
  // ...the parts of Pipeline::Build timed inside the first...
  const std::vector<std::string> pipeline_parts = {
      "ckr.offline.stage.corpora_seconds",
      "ckr.offline.stage.index_seconds",
      "ckr.offline.stage.term_dictionary_seconds",
      "ckr.offline.stage.stemmed_term_dictionary_seconds",
      "ckr.offline.stage.query_log_seconds",
      "ckr.offline.stage.units_seconds"};
  // ...and the parts of DatasetBuilder::Build timed inside the second.
  const std::vector<std::string> dataset_parts = {
      "ckr.offline.stage.story_reports_seconds",
      "ckr.offline.stage.mine_all_seconds",
      "ckr.offline.stage.window_assembly_seconds"};
  struct Reading {
    uint64_t count;
    double sum;
  };
  auto read = [](const std::vector<std::string>& names) {
    std::vector<Reading> out;
    for (const std::string& name : names) {
      const obs::Histogram* h =
          obs::MetricRegistry::Global().GetHistogram(name);
      out.push_back({h->Count(), h->Sum()});
    }
    return out;
  };
  const std::vector<Reading> stages_before = read(train_stages);
  const std::vector<Reading> parts_before = read(pipeline_parts);
  const std::vector<Reading> dataset_before = read(dataset_parts);

  ContextualRankerOptions options;
  options.pipeline = PipelineConfig::SmallForTests();
  const int64_t start = RealClock().NowNanos();
  auto ranker_or = ContextualRanker::Train(options);
  const double wall_s = RealClock().SecondsSince(start);
  ASSERT_TRUE(ranker_or.ok()) << ranker_or.status().ToString();

  const std::vector<Reading> stages_after = read(train_stages);
  const std::vector<Reading> parts_after = read(pipeline_parts);
  const std::vector<Reading> dataset_after = read(dataset_parts);
  double stages_s = 0.0;
  for (size_t i = 0; i < train_stages.size(); ++i) {
    EXPECT_EQ(stages_after[i].count - stages_before[i].count, 1u)
        << train_stages[i];
    stages_s += stages_after[i].sum - stages_before[i].sum;
  }
  double parts_s = 0.0;
  for (size_t i = 0; i < pipeline_parts.size(); ++i) {
    EXPECT_EQ(parts_after[i].count - parts_before[i].count, 1u)
        << pipeline_parts[i];
    parts_s += parts_after[i].sum - parts_before[i].sum;
  }
  double dataset_parts_s = 0.0;
  for (size_t i = 0; i < dataset_parts.size(); ++i) {
    EXPECT_EQ(dataset_after[i].count - dataset_before[i].count, 1u)
        << dataset_parts[i];
    dataset_parts_s += dataset_after[i].sum - dataset_before[i].sum;
  }
  const double pipeline_s = stages_after[0].sum - stages_before[0].sum;
  const double dataset_s = stages_after[1].sum - stages_before[1].sum;
  EXPECT_GT(stages_s, 0.0);
  EXPECT_LE(stages_s, wall_s);
  EXPECT_LE(parts_s, pipeline_s);
  EXPECT_GT(dataset_parts_s, 0.0);
  EXPECT_LE(dataset_parts_s, dataset_s);
}

TEST(ContextualRankerTest, EndToEndTrainAndRank) {
  ContextualRankerOptions options;
  options.pipeline = PipelineConfig::SmallForTests();
  auto ranker_or = ContextualRanker::Train(options);
  ASSERT_TRUE(ranker_or.ok()) << ranker_or.status().ToString();
  const ContextualRanker& ranker = **ranker_or;

  EXPECT_GT(ranker.concept_store().NumConcepts(), 200u);
  EXPECT_FALSE(ranker.tid_table().overflowed());

  // Rank a held-out story; scores must be sorted and keys unique.
  DocGenerator gen(ranker.pipeline().world());
  Document story = gen.Generate(Document::Kind::kNews, 424242);
  auto ranked = ranker.Rank(story.text);
  ASSERT_GT(ranked.size(), 2u);
  std::unordered_set<std::string> keys;
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_TRUE(keys.insert(ranked[i].key).second);
    if (i > 0) {
      EXPECT_GE(ranked[i - 1].score, ranked[i].score);
    }
    EXPECT_NE(ranked[i].type, EntityType::kPattern);
  }

  // top_n truncation.
  auto top3 = ranker.Rank(story.text, 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].key, ranked[0].key);

  // Stats accumulated across the two calls.
  EXPECT_EQ(ranker.stats().documents, 2u);
  EXPECT_GT(ranker.stats().bytes_processed, story.text.size());
}

TEST(ContextualRankerTest, RankedTopBeatsBottomInLatentQuality) {
  ContextualRankerOptions options;
  options.pipeline = PipelineConfig::SmallForTests();
  auto ranker_or = ContextualRanker::Train(options);
  ASSERT_TRUE(ranker_or.ok());
  const ContextualRanker& ranker = **ranker_or;
  const World& world = ranker.pipeline().world();
  DocGenerator gen(world);

  double top_quality = 0, bottom_quality = 0;
  size_t n = 0;
  for (DocId id = 500000; id < 500040; ++id) {
    Document story = gen.Generate(Document::Kind::kNews, id);
    auto ranked = ranker.Rank(story.text);
    if (ranked.size() < 4) continue;
    auto quality = [&](const RankedAnnotation& a) {
      EntityId eid = world.FindByKey(a.key);
      if (eid == kInvalidEntity) return 0.0;
      double g = world.entity(eid).interestingness;
      double r = story.TruthRelevance(eid);
      return 0.45 * r + 0.3 * g + 0.25 * r * g;
    };
    top_quality += quality(ranked.front());
    bottom_quality += quality(ranked.back());
    ++n;
  }
  ASSERT_GT(n, 10u);
  EXPECT_GT(top_quality / static_cast<double>(n),
            bottom_quality / static_cast<double>(n) + 0.1);
}

}  // namespace
}  // namespace ckr
