#include "core/pipeline.h"

#include "obs/hooks.h"

namespace ckr {

PipelineConfig PipelineConfig::SmallForTests() {
  PipelineConfig cfg;
  cfg.world.num_topics = 8;
  cfg.world.background_vocab = 800;
  cfg.world.words_per_topic = 50;
  cfg.world.num_named_entities = 180;
  cfg.world.num_concepts = 120;
  cfg.world.num_generic_concepts = 16;
  cfg.world.num_web_docs = 500;
  cfg.world.num_news_stories = 120;
  cfg.world.num_answers_snippets = 60;
  cfg.querylog.num_submissions = 30000;
  cfg.units.min_term_freq = 3;
  cfg.units.min_unit_freq = 3;
  return cfg;
}

StatusOr<std::unique_ptr<Pipeline>> Pipeline::Build(
    const PipelineConfig& config) {
  // One histogram per stage, so Train's set-up time is explained by its
  // parts; the stages not timed separately (world, wiki and the
  // substrates built over the others) are the rest of pipeline_build.
  CKR_OBS_SCOPED_TIMER("ckr.offline.stage.pipeline_build_seconds");
  std::unique_ptr<Pipeline> p(new Pipeline());
  p->config_ = config;

  auto world_or = World::Create(config.world);
  if (!world_or.ok()) return world_or.status();
  p->world_ = std::move(*world_or);

  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.corpora_seconds");
    DocGenerator gen(*p->world_);
    p->web_corpus_ =
        gen.GenerateCorpus(Document::Kind::kWeb, config.world.num_web_docs);
    p->news_stories_ = gen.GenerateCorpus(Document::Kind::kNews,
                                          config.world.num_news_stories);
    p->answers_snippets_ = gen.GenerateCorpus(
        Document::Kind::kAnswers, config.world.num_answers_snippets);
  }
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.term_dictionary_seconds");
    p->term_dict_.Build(p->web_corpus_);
  }
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.stemmed_term_dictionary_seconds");
    p->stemmed_term_dict_.Build(p->web_corpus_, /*stemmed=*/true);
  }
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.index_seconds");
    for (const Document& doc : p->web_corpus_) p->index_.Add(doc);
    p->index_.Finalize();
  }
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.query_log_seconds");
    QueryGenerator qgen(*p->world_, config.querylog);
    p->query_log_ = qgen.Generate();
  }
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.units_seconds");
    UnitExtractor extractor(config.units);
    auto units_or = extractor.Extract(p->query_log_);
    if (!units_or.ok()) return units_or.status();
    p->units_ = std::move(*units_or);
  }

  p->wiki_ = WikiStore::Build(*p->world_, config.world.seed ^ 0x817ac1e);

  p->search_ = std::make_unique<SearchService>(p->index_, p->query_log_,
                                               p->term_dict_);
  p->detector_ = std::make_unique<EntityDetector>(
      EntityDetector::FromWorld(*p->world_, &p->units_));
  p->conceptvec_ = std::make_unique<ConceptVectorGenerator>(
      p->term_dict_, p->units_, config.conceptvec);
  p->interestingness_ = std::make_unique<InterestingnessExtractor>(
      p->query_log_, p->units_, *p->search_, p->wiki_);
  p->relevance_miner_ =
      std::make_unique<RelevanceMiner>(*p->search_, p->stemmed_term_dict_);
  p->clicks_ = std::make_unique<ClickSimulator>(*p->world_, config.clicks);
  return p;
}

}  // namespace ckr
