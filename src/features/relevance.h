// Relevance of a concept in a context (paper Section IV-B).
//
// Offline, for each concept c_i the miner extracts the top m=100 relevant
// context keywords relevantTerms_i = {(t_1, s_1), ..., (t_m, s_m)} from one
// of three resources: search engine snippets (tf*idf over the snippets of
// the top-100 results), Prisma feedback terms (tf*idf over the feedback
// "document"), or related query suggestions (score = sum_k
// ln(query_freq_k) * idf(term)). Terms are stemmed, lower-cased, and
// stripped of surrounding punctuation.
//
// At runtime the relevance score of a concept in a context is the
// co-occurrence mass of its pre-mined keywords in that context. Generic or
// low-quality concepts mine only low-scoring keywords (their snippet
// distribution does not cluster), so their score stays low in every
// context — the paper's "safety net" (discussion in Section IV-C and
// Table II).
#ifndef CKR_FEATURES_RELEVANCE_H_
#define CKR_FEATURES_RELEVANCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "corpus/term_dictionary.h"
#include "search/search_service.h"

namespace ckr {

/// The three mining resources of Section IV-B.1.
enum class RelevanceResource {
  kSnippets = 0,
  kPrisma,
  kQuerySuggestions,
};

std::string_view RelevanceResourceName(RelevanceResource r);

/// One mined keyword with its confidence score.
struct RelevantTerm {
  std::string term;   ///< Stemmed, lower-cased.
  double score = 0.0;
};

/// The stem of every index term, from the one Porter pass over the
/// index's vocabulary that also fills the stemmed term dictionary. Snippet
/// mining reads token-id windows through it, so no token is stemmed again.
struct TermStems {
  std::vector<uint32_t> stem_of;   ///< Stem id of each index term id.
  std::vector<uint8_t> stop_word;  ///< 1 where the index term is a stop word.
  std::vector<std::string> stems;  ///< Text of each stem id.
};

/// Mines relevantTerms_i for concepts from a chosen resource.
class RelevanceMiner {
 public:
  /// `stemmed_dict` must be a *stemmed* term dictionary (mined terms are
  /// stems, so idf lookups must be stem-keyed), and `term_stems` must
  /// cover the vocabulary of the index `search` reads. Terms whose
  /// document-frequency ratio exceeds `max_df_ratio` are excluded from
  /// mining — they occur in so much of the corpus that they carry no
  /// relevance signal (the df-cutoff analogue of the engine's deep stop
  /// lists). All three must outlive the miner.
  RelevanceMiner(const SearchService& search,
                 const TermDictionary& stemmed_dict,
                 const TermStems& term_stems, double max_df_ratio = 0.15);

  /// Top `m` relevant keywords for the concept, sorted by descending
  /// score.
  std::vector<RelevantTerm> Mine(std::string_view concept_phrase,
                                 RelevanceResource resource,
                                 size_t m = 100) const;

  /// Table II's diagnostic: the summation of the mined keywords' scores.
  static double SummationOfScores(const std::vector<RelevantTerm>& terms);

 private:
  std::vector<RelevantTerm> FromSnippets(std::string_view concept_phrase,
                                         size_t m) const;
  std::vector<RelevantTerm> FromPrisma(std::string_view concept_phrase,
                                       size_t m) const;
  std::vector<RelevantTerm> FromSuggestions(std::string_view concept_phrase,
                                            size_t m) const;

  const SearchService& search_;
  const TermDictionary& term_dict_;
  const TermStems& term_stems_;
  double max_df_ratio_;
};

/// Runtime scorer: holds the mined keyword lists of all supported concepts
/// and scores any (concept, context) pair by keyword co-occurrence.
class RelevanceScorer {
 public:
  /// Registers a concept's mined keywords (replaces earlier entries).
  void AddConcept(std::string_view concept_phrase,
                  std::vector<RelevantTerm> terms);

  bool HasConcept(std::string_view concept_phrase) const;
  size_t NumConcepts() const { return concept_terms_.size(); }

  /// Pre-processes a context once for scoring many concepts against it:
  /// stems every token and counts occurrences.
  static std::unordered_map<std::string, uint32_t> StemContext(
      std::string_view context);

  /// Relevance score: sum of mined-term scores over terms present in the
  /// context (each mined term counted once — presence, not frequency,
  /// following the paper's co-occurrence formulation). Unknown concepts
  /// score 0.
  double Score(std::string_view concept_phrase,
               const std::unordered_map<std::string, uint32_t>& stemmed_context)
      const;

  /// Convenience overload that stems the raw context itself.
  double Score(std::string_view concept_phrase,
               std::string_view context) const;

 private:
  std::unordered_map<std::string, std::vector<RelevantTerm>> concept_terms_;
};

}  // namespace ckr

#endif  // CKR_FEATURES_RELEVANCE_H_
