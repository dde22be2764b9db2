#include "search/search_service.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace ckr {

QueryEvaluator ChooseEvaluator(size_t num_docs, bool has_block_index) {
  return has_block_index && num_docs >= kEvaluatorCrossoverDocs
             ? QueryEvaluator::kMaxScore
             : QueryEvaluator::kExhaustive;
}

SearchService::SearchService(const InvertedIndex& index, const QueryLog& log,
                             const TermDictionary& term_dict)
    : index_(index),
      log_(log),
      term_dict_(term_dict),
      evaluator_(ChooseEvaluator(index.NumDocs(), index.has_block_index())),
      terms_(index.TermsById()) {
  CKR_DCHECK(index.finalized());
  feedback_idf_.reserve(terms_.size());
  for (std::string_view term : terms_) {
    feedback_idf_.push_back(IsStopWord(term) ? 0.0 : term_dict_.Idf(term));
  }
}

std::vector<std::span<const uint32_t>> SearchService::Snippets(
    std::string_view concept_phrase, size_t k) const {
  // Phrase-query semantics: concepts with little web presence return few
  // results and therefore few snippets — exactly the sparsity that keeps
  // weak concepts' mined keyword mass low (Section IV-C).
  std::vector<SearchResult> hits = index_.PhraseSearch(concept_phrase, k);
  std::vector<std::span<const uint32_t>> snippets;
  snippets.reserve(hits.size());
  for (const SearchResult& h : hits) {
    const std::span<const uint32_t> window =
        index_.HitWindow(h.doc, concept_phrase);
    if (!window.empty()) snippets.push_back(window);
  }
  return snippets;
}

uint64_t SearchService::PhraseResultCount(std::string_view concept_phrase) const {
  return index_.PhraseResultCount(concept_phrase);
}

std::vector<std::string> SearchService::PrismaFeedbackTerms(
    std::string_view concept_phrase, size_t max_terms, size_t feedback_docs) const {
  // Pseudo-relevance feedback [19][20]: weight terms of the top documents
  // by tf * idf, discounted by document rank.
  // Prisma refines *regular* queries, so the feedback pool is the
  // disjunctive top-50 - on loosely-matching queries it mixes senses,
  // which is why the paper finds its keywords noisier than phrase-query
  // snippets.
  std::vector<SearchResult> hits =
      index_.Search(concept_phrase, feedback_docs, Bm25Params{}, evaluator_);

  // Dense accumulators indexed by term id, local to the call. A term's
  // score gathers its per-document contributions in rank order, so every
  // sum is the same double whatever order the terms are visited in.
  std::vector<uint32_t> tf(terms_.size(), 0);
  std::vector<double> scores(terms_.size(), 0.0);
  std::vector<uint32_t> doc_terms;
  std::vector<uint32_t> scored;  // Every tid with a nonzero score.
  for (size_t rank = 0; rank < hits.size(); ++rank) {
    doc_terms.clear();
    for (uint32_t tid : index_.DocTokenIds(hits[rank].doc)) {
      if (feedback_idf_[tid] == 0.0) continue;  // Stop word.
      if (tf[tid]++ == 0) doc_terms.push_back(tid);
    }
    double rank_discount = 1.0 / std::log(2.0 + static_cast<double>(rank));
    for (uint32_t tid : doc_terms) {
      if (scores[tid] == 0.0) scored.push_back(tid);
      scores[tid] += static_cast<double>(tf[tid]) * feedback_idf_[tid] *
                     rank_discount;
      tf[tid] = 0;
    }
  }

  // The concept's own terms are never feedback.
  const std::vector<std::string> concept_terms =
      TokenizeToStrings(concept_phrase);
  std::erase_if(scored, [&](uint32_t tid) {
    return std::find(concept_terms.begin(), concept_terms.end(),
                     terms_[tid]) != concept_terms.end();
  });
  const size_t n = std::min(max_terms, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + n, scored.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return terms_[a] < terms_[b];
                    });
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.emplace_back(terms_[scored[i]]);
  return out;
}

std::vector<Suggestion> SearchService::RelatedSuggestions(
    std::string_view concept_phrase, size_t max_suggestions) const {
  std::vector<std::string> terms = TokenizeToStrings(concept_phrase);
  std::unordered_set<uint32_t> query_ids;
  for (const std::string& t : terms) {
    if (IsStopWord(t)) continue;
    for (uint32_t qid : log_.QueriesWithTerm(t)) query_ids.insert(qid);
  }
  std::string norm = NormalizePhrase(concept_phrase);
  std::vector<Suggestion> out;
  out.reserve(query_ids.size());
  for (uint32_t qid : query_ids) {
    const QueryEntry& q = log_.entries()[qid];
    if (q.text == norm) continue;  // The query itself is not a suggestion.
    out.push_back({q.text, q.freq});
  }
  std::sort(out.begin(), out.end(), [](const Suggestion& a, const Suggestion& b) {
    if (a.freq != b.freq) return a.freq > b.freq;
    return a.query < b.query;
  });
  if (out.size() > max_suggestions) out.resize(max_suggestions);
  return out;
}

}  // namespace ckr
