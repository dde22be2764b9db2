// The assembled Contextual Shortcuts laboratory: one object owning the
// synthetic world and every substrate built from it, wired exactly as the
// paper's production system consumed its proprietary counterparts.
//
// Construction order (all offline in the paper):
//   world -> corpora (web / news / answers) -> inverted index -> term
//   dictionaries (read off the index) -> query log -> unit dictionary ->
//   search services -> wiki store -> entity detector -> concept-vector
//   baseline -> interestingness extractor -> relevance miners/scorers ->
//   click simulator.
#ifndef CKR_CORE_PIPELINE_H_
#define CKR_CORE_PIPELINE_H_

#include <memory>
#include <vector>

#include "clicks/click_model.h"
#include "common/status.h"
#include "conceptvec/concept_vector.h"
#include "corpus/doc_generator.h"
#include "corpus/document.h"
#include "corpus/term_dictionary.h"
#include "corpus/world.h"
#include "detect/entity_detector.h"
#include "features/interestingness.h"
#include "features/relevance.h"
#include "index/inverted_index.h"
#include "querylog/query_generator.h"
#include "querylog/query_log.h"
#include "search/search_service.h"
#include "units/unit_extractor.h"
#include "wiki/wiki_store.h"

namespace ckr {

/// Every knob of the end-to-end system.
struct PipelineConfig {
  WorldConfig world;
  QueryGeneratorConfig querylog;
  UnitExtractorConfig units;
  ConceptVectorConfig conceptvec;
  ClickModelConfig clicks;

  /// Returns a configuration scaled down for fast tests.
  static PipelineConfig SmallForTests();
};

/// Immutable after Build(); thread-safe for concurrent reads.
class Pipeline {
 public:
  /// Builds the full laboratory. Deterministic in the config seeds.
  [[nodiscard]] static StatusOr<std::unique_ptr<Pipeline>> Build(const PipelineConfig& config);

  const PipelineConfig& config() const { return config_; }
  const World& world() const { return *world_; }
  const std::vector<Document>& news_stories() const { return news_stories_; }
  const std::vector<Document>& answers_snippets() const {
    return answers_snippets_;
  }
  const TermDictionary& term_dictionary() const { return term_dict_; }
  const TermDictionary& stemmed_term_dictionary() const {
    return stemmed_term_dict_;
  }
  const InvertedIndex& index() const { return index_; }
  const QueryLog& query_log() const { return query_log_; }
  const UnitDictionary& units() const { return units_; }
  const SearchService& search() const { return *search_; }
  const WikiStore& wiki() const { return wiki_; }
  const EntityDetector& detector() const { return *detector_; }
  const ConceptVectorGenerator& concept_vectors() const {
    return *conceptvec_;
  }
  const InterestingnessExtractor& interestingness() const {
    return *interestingness_;
  }
  const RelevanceMiner& relevance_miner() const { return *relevance_miner_; }
  const ClickSimulator& clicks() const { return *clicks_; }

 private:
  Pipeline() = default;

  PipelineConfig config_;
  std::unique_ptr<World> world_;
  std::vector<Document> news_stories_;
  std::vector<Document> answers_snippets_;
  TermDictionary term_dict_;
  TermDictionary stemmed_term_dict_;
  TermStems term_stems_;  ///< Per index term: its stem in the dict above.
  InvertedIndex index_;
  QueryLog query_log_;
  UnitDictionary units_;
  WikiStore wiki_;
  std::unique_ptr<SearchService> search_;
  std::unique_ptr<EntityDetector> detector_;
  std::unique_ptr<ConceptVectorGenerator> conceptvec_;
  std::unique_ptr<InterestingnessExtractor> interestingness_;
  std::unique_ptr<RelevanceMiner> relevance_miner_;
  std::unique_ptr<ClickSimulator> clicks_;
};

}  // namespace ckr

#endif  // CKR_CORE_PIPELINE_H_
