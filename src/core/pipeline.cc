#include "core/pipeline.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/hooks.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"

namespace ckr {
namespace {

// The paper's term dictionary holds web-corpus document frequencies
// (Section II-B). The index counted exactly those while building its
// postings, with the same tokenizer, so both dictionaries are read off it
// rather than re-tokenizing the corpus.
void FillTermDictionary(const InvertedIndex& index, TermDictionary* dict) {
  const std::vector<std::string_view> terms = index.TermsById();
  std::vector<std::pair<std::string_view, uint32_t>> doc_freqs;
  doc_freqs.reserve(terms.size());
  for (std::string_view term : terms) {
    doc_freqs.emplace_back(term, index.DocFreq(term));
  }
  dict->Assign(index.NumDocs(), doc_freqs);
}

// The stemmed copy stems each distinct index term once, into the table
// snippet mining reads (`term_stems`), then counts the documents
// containing each stem over the index's token-id streams; a stem's
// last-counted document stands in for a per-document set.
void FillStemmedTermDictionary(const InvertedIndex& index,
                               TermDictionary* dict, TermStems* term_stems) {
  const std::vector<std::string_view> terms = index.TermsById();
  std::unordered_map<std::string, uint32_t> stem_ids;
  std::vector<std::string>& stems = term_stems->stems;
  std::vector<uint32_t>& stem_of = term_stems->stem_of;
  stem_of.resize(terms.size());
  term_stems->stop_word.resize(terms.size());
  for (size_t tid = 0; tid < terms.size(); ++tid) {
    auto [it, inserted] = stem_ids.emplace(
        PorterStem(terms[tid]), static_cast<uint32_t>(stems.size()));
    if (inserted) stems.push_back(it->first);
    stem_of[tid] = it->second;
    term_stems->stop_word[tid] = IsStopWord(terms[tid]) ? 1 : 0;
  }

  constexpr uint32_t kNoDoc = 0xffffffffu;
  std::vector<uint32_t> df(stems.size(), 0);
  std::vector<uint32_t> last_doc(stems.size(), kNoDoc);
  for (uint32_t d = 0; d < index.NumDocs(); ++d) {
    for (uint32_t tid : index.DocTokenIds(index.ExternalDocId(d))) {
      const uint32_t s = stem_of[tid];
      if (last_doc[s] == d) continue;
      last_doc[s] = d;
      ++df[s];
    }
  }

  std::vector<std::pair<std::string_view, uint32_t>> doc_freqs;
  doc_freqs.reserve(stems.size());
  for (size_t s = 0; s < stems.size(); ++s) {
    doc_freqs.emplace_back(stems[s], df[s]);
  }
  dict->Assign(index.NumDocs(), doc_freqs);
}

}  // namespace

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

  // The web corpus lives only until the index has taken its tokens.
  std::vector<Document> web_corpus;
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.corpora_seconds");
    DocGenerator gen(*p->world_);
    web_corpus =
        gen.GenerateCorpus(Document::Kind::kWeb, config.world.num_web_docs);
    p->news_stories_ = gen.GenerateCorpus(Document::Kind::kNews,
                                          config.world.num_news_stories);
    p->answers_snippets_ = gen.GenerateCorpus(
        Document::Kind::kAnswers, config.world.num_answers_snippets);
  }
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.index_seconds");
    for (const Document& doc : web_corpus) p->index_.Add(doc);
    web_corpus = std::vector<Document>();
    p->index_.Finalize();
  }
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.term_dictionary_seconds");
    FillTermDictionary(p->index_, &p->term_dict_);
  }
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.stemmed_term_dictionary_seconds");
    FillStemmedTermDictionary(p->index_, &p->stemmed_term_dict_,
                              &p->term_stems_);
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
  p->relevance_miner_ = std::make_unique<RelevanceMiner>(
      *p->search_, p->stemmed_term_dict_, p->term_stems_);
  p->clicks_ = std::make_unique<ClickSimulator>(*p->world_, config.clicks);
  return p;
}

}  // namespace ckr
