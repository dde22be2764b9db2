#include "features/relevance.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

// Stemmed, stop-word-free token stream of a text blob.
std::vector<std::string> StemmedTokens(std::string_view text) {
  std::vector<std::string> out;
  for (std::string& tok : TokenizeToStrings(text)) {
    if (IsStopWord(tok)) continue;
    out.push_back(PorterStem(tok));
  }
  return out;
}

// A mined stem and its weight before idf: its tf, or for suggestions its
// summed log query frequency.
struct StemWeight {
  std::string_view stem;
  double weight = 0.0;
};

// The scoring every resource shares. Drops the concept's own stems (they
// trivially co-occur) and stems whose df ratio exceeds `max_df_ratio`,
// scores the rest weight * idf, and returns the best `m` by descending
// score, equal scores by ascending stem. `weights` holds each stem once.
std::vector<RelevantTerm> TopStems(std::string_view concept_phrase,
                                   std::vector<StemWeight> weights,
                                   const TermDictionary& term_dict,
                                   double max_df_ratio, size_t m) {
  const std::vector<std::string> own = StemmedTokens(concept_phrase);
  std::erase_if(weights, [&](const StemWeight& w) {
    return std::find(own.begin(), own.end(), w.stem) != own.end() ||
           term_dict.DocFreqRatio(w.stem) > max_df_ratio;
  });
  for (StemWeight& w : weights) w.weight *= term_dict.Idf(w.stem);
  const size_t n = std::min(m, weights.size());
  std::partial_sort(weights.begin(), weights.begin() + n, weights.end(),
                    [](const StemWeight& a, const StemWeight& b) {
                      if (a.weight != b.weight) return a.weight > b.weight;
                      return a.stem < b.stem;
                    });
  std::vector<RelevantTerm> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back({std::string(weights[i].stem), weights[i].weight});
  }
  return out;
}

// The entries of a stem-keyed map, as weights that view its keys.
std::vector<StemWeight> Weights(
    const std::unordered_map<std::string, double>& by_stem) {
  std::vector<StemWeight> out;
  out.reserve(by_stem.size());
  for (const auto& [stem, weight] : by_stem) out.push_back({stem, weight});
  return out;
}

}  // namespace

std::string_view RelevanceResourceName(RelevanceResource r) {
  switch (r) {
    case RelevanceResource::kSnippets:
      return "snippets";
    case RelevanceResource::kPrisma:
      return "prisma";
    case RelevanceResource::kQuerySuggestions:
      return "query_suggestions";
  }
  return "unknown";
}

RelevanceMiner::RelevanceMiner(const SearchService& search,
                               const TermDictionary& stemmed_dict,
                               const TermStems& term_stems,
                               double max_df_ratio)
    : search_(search),
      term_dict_(stemmed_dict),
      term_stems_(term_stems),
      max_df_ratio_(max_df_ratio) {}

std::vector<RelevantTerm> RelevanceMiner::Mine(std::string_view concept_phrase,
                                               RelevanceResource resource,
                                               size_t m) const {
  switch (resource) {
    case RelevanceResource::kSnippets:
      return FromSnippets(concept_phrase, m);
    case RelevanceResource::kPrisma:
      return FromPrisma(concept_phrase, m);
    case RelevanceResource::kQuerySuggestions:
      return FromSuggestions(concept_phrase, m);
  }
  return {};
}

std::vector<RelevantTerm> RelevanceMiner::FromSnippets(
    std::string_view concept_phrase, size_t m) const {
  // "We pretend that the returned snippets constitute a single document
  // and then use a bag-of-words model" — tf over the concatenated
  // snippets, idf from the term dictionary. A snippet is a window of term
  // ids, so each token's stem is a table lookup; the counts are dense and
  // local to the call.
  std::vector<uint32_t> tf(term_stems_.stems.size(), 0);
  std::vector<uint32_t> counted;  // Every stem id with a nonzero tf.
  for (std::span<const uint32_t> window :
       search_.Snippets(concept_phrase, 100)) {
    for (uint32_t tid : window) {
      if (term_stems_.stop_word[tid]) continue;
      const uint32_t stem = term_stems_.stem_of[tid];
      if (tf[stem]++ == 0) counted.push_back(stem);
    }
  }
  std::vector<StemWeight> weights;
  weights.reserve(counted.size());
  for (uint32_t stem : counted) {
    weights.push_back(
        {term_stems_.stems[stem], static_cast<double>(tf[stem])});
  }
  return TopStems(concept_phrase, std::move(weights), term_dict_,
                  max_df_ratio_, m);
}

std::vector<RelevantTerm> RelevanceMiner::FromPrisma(
    std::string_view concept_phrase, size_t m) const {
  // The 20 feedback terms form one small document; tf*idf over it. The
  // tight cap is the coverage limitation the paper reports for Prisma.
  std::vector<std::string> feedback =
      search_.PrismaFeedbackTerms(concept_phrase, 20);
  std::unordered_map<std::string, double> tf;
  for (const std::string& f : feedback) {
    for (std::string& tok : StemmedTokens(f)) ++tf[tok];
  }
  return TopStems(concept_phrase, Weights(tf), term_dict_, max_df_ratio_, m);
}

std::vector<RelevantTerm> RelevanceMiner::FromSuggestions(
    std::string_view concept_phrase, size_t m) const {
  // score(term) = sum over suggestions containing it of ln(query_freq) *
  // idf(term).
  std::vector<Suggestion> suggestions =
      search_.RelatedSuggestions(concept_phrase, 300);
  std::unordered_map<std::string, double> log_freq_sum;
  for (const Suggestion& s : suggestions) {
    std::vector<std::string> toks = StemmedTokens(s.query);
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    double lf = std::log(1.0 + static_cast<double>(s.freq));
    for (const std::string& t : toks) log_freq_sum[t] += lf;
  }
  return TopStems(concept_phrase, Weights(log_freq_sum), term_dict_,
                  max_df_ratio_, m);
}

double RelevanceMiner::SummationOfScores(
    const std::vector<RelevantTerm>& terms) {
  double total = 0.0;
  for (const RelevantTerm& t : terms) total += t.score;
  return total;
}

void RelevanceScorer::AddConcept(std::string_view concept_phrase,
                                 std::vector<RelevantTerm> terms) {
  concept_terms_[NormalizePhrase(concept_phrase)] = std::move(terms);
}

bool RelevanceScorer::HasConcept(std::string_view concept_phrase) const {
  return concept_terms_.count(NormalizePhrase(concept_phrase)) > 0;
}

std::unordered_map<std::string, uint32_t> RelevanceScorer::StemContext(
    std::string_view context) {
  std::unordered_map<std::string, uint32_t> counts;
  for (std::string& tok : TokenizeToStrings(context)) {
    if (IsStopWord(tok)) continue;
    ++counts[PorterStem(tok)];
  }
  return counts;
}

double RelevanceScorer::Score(
    std::string_view concept_phrase,
    const std::unordered_map<std::string, uint32_t>& stemmed_context) const {
  auto it = concept_terms_.find(NormalizePhrase(concept_phrase));
  if (it == concept_terms_.end()) return 0.0;
  double score = 0.0;
  for (const RelevantTerm& t : it->second) {
    if (stemmed_context.count(t.term) > 0) score += t.score;
  }
  return score;
}

double RelevanceScorer::Score(std::string_view concept_phrase,
                              std::string_view context) const {
  return Score(concept_phrase, StemContext(context));
}

}  // namespace ckr
