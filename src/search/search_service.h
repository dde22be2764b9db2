// Search-services facade — the substitute for the Yahoo! Developer Network
// APIs the paper mines for relevant keywords (Section IV-B.1):
//  (a) search engine result snippets (top-100 results of a phrase query),
//  (b) Prisma query-refinement feedback terms (pseudo-relevance feedback
//      over the top-50 documents, capped at 20 feedback terms — the
//      limitation the paper reports), and
//  (c) related query suggestions (up to 300, with query frequencies).
#ifndef CKR_SEARCH_SEARCH_SERVICE_H_
#define CKR_SEARCH_SEARCH_SERVICE_H_

#include <string>
#include <string_view>
#include <vector>

#include "corpus/term_dictionary.h"
#include "index/inverted_index.h"
#include "querylog/query_log.h"

namespace ckr {

/// A related-query suggestion with its submission frequency.
struct Suggestion {
  std::string query;
  uint64_t freq = 0;
};

/// Corpus size at which the pruned evaluators start beating the
/// exhaustive scorer wall-clock: below it posting lists are too short
/// for skipping to pay for its bookkeeping (BENCH_offline.json
/// scale_legs — exhaustive wins at 6k docs, MaxScore wins by ~7.6x at
/// 1M; the crossover sits near 100k).
inline constexpr size_t kEvaluatorCrossoverDocs = 100000;

/// Evaluator policy for a corpus of `num_docs` documents: MaxScore once
/// the corpus crosses kEvaluatorCrossoverDocs *and* a block index exists
/// to run it on; the exhaustive scorer otherwise. Every evaluator
/// returns bit-identical results (index/top_k.h), so this is purely a
/// latency policy. SearchService and the serving snapshot loader both
/// apply it; set_evaluator overrides.
QueryEvaluator ChooseEvaluator(size_t num_docs, bool has_block_index);

/// Read-only facade over the index, the query log and the term dictionary.
/// All referenced objects must outlive the service, and the index must be
/// finalized before the service is built.
class SearchService {
 public:
  SearchService(const InvertedIndex& index, const QueryLog& log,
                const TermDictionary& term_dict);

  /// Result snippets for the concept submitted as a phrase query; falls
  /// back to disjunctive retrieval when phrase matches are scarce.
  std::vector<std::string> Snippets(std::string_view concept_phrase,
                                    size_t k = 100) const;

  /// Number of results of the phrase query (feature searchengine_phrase).
  uint64_t PhraseResultCount(std::string_view concept_phrase) const;

  /// Number of results of the regular (disjunctive) query — the feature
  /// variation the paper tried and discarded during feature selection.
  uint64_t RegularResultCount(std::string_view concept_phrase) const;

  /// Prisma feedback terms: pseudo-relevance feedback over the top
  /// `feedback_docs` results, returning at most `max_terms` terms, best
  /// first (equal scores by ascending term text). Stop words and the
  /// concept's own terms are never returned. Reads the documents' token-id
  /// streams, so an index built with store_text=false yields no terms.
  std::vector<std::string> PrismaFeedbackTerms(std::string_view concept_phrase,
                                               size_t max_terms = 20,
                                               size_t feedback_docs = 50) const;

  /// Related query suggestions: queries sharing a non-stop-word term with
  /// the concept, ranked by frequency.
  std::vector<Suggestion> RelatedSuggestions(std::string_view concept_phrase,
                                             size_t max_suggestions = 300) const;

  const InvertedIndex& index() const { return index_; }
  const TermDictionary& term_dictionary() const { return term_dict_; }

  /// Top-k algorithm used for the service's disjunctive retrieval (the
  /// Prisma feedback pool). Every evaluator returns identical results
  /// (index/top_k.h); the pruned ones skip postings that cannot reach the
  /// top-k. Default: auto-selected from the corpus size at construction
  /// (ChooseEvaluator) — exhaustive at paper scale, MaxScore past the
  /// ~100k-doc crossover.
  QueryEvaluator evaluator() const { return evaluator_; }
  void set_evaluator(QueryEvaluator evaluator) { evaluator_ = evaluator; }

 private:
  const InvertedIndex& index_;
  const QueryLog& log_;
  const TermDictionary& term_dict_;
  QueryEvaluator evaluator_;
  // Per-tid tables for Prisma feedback, built once from the index's
  // vocabulary: each term's text, and its idf from term_dict_ — 0 for a
  // stop word, which marks it as never a feedback term (idf is otherwise
  // always positive).
  std::vector<std::string_view> terms_;
  std::vector<double> feedback_idf_;
};

}  // namespace ckr

#endif  // CKR_SEARCH_SEARCH_SERVICE_H_
