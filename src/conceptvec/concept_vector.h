// Concept vector generation (paper Section II-B) — the production baseline
// ranker that the learned model is evaluated against.
//
// Pipeline: (1) a tf*idf term vector over the document (stop words
// removed, weights normalized to [0,1], low weights punished then
// dropped); (2) a unit vector of all query-log units occurring in the
// document (same normalize/punish/drop treatment); (3) a merge with the
// paper's three cases; (4) the multi-term bonus that adds each contained
// term's term- and unit-vector scores so "more specific concepts
// eventually bubble up in the overall rank".
#ifndef CKR_CONCEPTVEC_CONCEPT_VECTOR_H_
#define CKR_CONCEPTVEC_CONCEPT_VECTOR_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "corpus/term_dictionary.h"
#include "detect/aho_corasick.h"
#include "units/unit_extractor.h"

namespace ckr {

/// Thresholds of the normalize/punish/drop treatment and the merge.
struct ConceptVectorConfig {
  double term_punish_threshold = 0.45;  ///< Below: weight is punished.
  double term_drop_threshold = 0.05;    ///< Below (post-punish): dropped.
  double unit_punish_threshold = 0.45;
  double unit_drop_threshold = 0.05;
  double punish_factor = 0.5;           ///< Multiplier applied when punishing.
  /// Merge case 1: a term absent from the unit vector "did not appear as a
  /// popular query", so its term weight is punished in the merge.
  double no_unit_punish_factor = 0.5;
  /// Step (4): the multi-term specificity bonus. Disable for the ablation
  /// bench.
  bool multi_term_bonus = true;
};

/// A scored concept.
struct ConceptScore {
  std::string phrase;
  double score = 0.0;
};

/// Generates concept vectors for documents. Thread-safe after construction.
class ConceptVectorGenerator {
 public:
  /// `term_dict` supplies idf; `units` supplies the unit dictionary (both
  /// must outlive the generator).
  ConceptVectorGenerator(const TermDictionary& term_dict,
                         const UnitDictionary& units,
                         const ConceptVectorConfig& config = {});

  /// Full merged concept vector of a document, sorted by descending score.
  std::vector<ConceptScore> Generate(std::string_view text) const;

  /// Scores an explicit candidate set against the document's concept
  /// vector: each score is bit-equal to the candidate's Generate() entry.
  /// A candidate absent from the vector scores 0, plus the step-(4) parts
  /// bonus when it is multi-term. Order matches `candidates`.
  std::vector<double> ScoreCandidates(
      std::string_view text, const std::vector<std::string>& candidates) const;

 private:
  std::unordered_map<std::string, double> BuildTermVector(
      const std::vector<std::string>& tokens) const;
  std::unordered_map<std::string, double> BuildUnitVector(
      const std::vector<std::string>& tokens) const;
  /// Merged weight of `phrase` (steps 3 and 4) given the document's two
  /// vectors; 0 plus any parts bonus when neither vector holds it.
  double MergedWeight(
      const std::string& phrase,
      const std::unordered_map<std::string, double>& term_vec,
      const std::unordered_map<std::string, double>& unit_vec) const;

  const TermDictionary& term_dict_;
  const UnitDictionary& units_;
  ConceptVectorConfig config_;
  PhraseMatcher unit_matcher_;
  std::vector<const UnitInfo*> matcher_payloads_;
};

}  // namespace ckr

#endif  // CKR_CONCEPTVEC_CONCEPT_VECTOR_H_
