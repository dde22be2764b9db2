#include "conceptvec/concept_vector.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

// Normalize to [0,1] by the max, punish below `punish_thr`, drop below
// `drop_thr` — the treatment the paper applies to both vectors.
void NormalizePunishDrop(std::unordered_map<std::string, double>* weights,
                         double punish_thr, double drop_thr,
                         double punish_factor) {
  double max_w = 0.0;
  for (const auto& [k, w] : *weights) max_w = std::max(max_w, w);
  if (max_w <= 0.0) {
    weights->clear();
    return;
  }
  for (auto it = weights->begin(); it != weights->end();) {
    double w = it->second / max_w;
    if (w < punish_thr) w *= punish_factor;
    if (w < drop_thr) {
      it = weights->erase(it);
    } else {
      it->second = w;
      ++it;
    }
  }
}

}  // namespace

ConceptVectorGenerator::ConceptVectorGenerator(const TermDictionary& term_dict,
                                               const UnitDictionary& units,
                                               const ConceptVectorConfig& config)
    : term_dict_(term_dict), units_(units), config_(config) {
  for (const UnitInfo& u : units_.units()) {
    Status s = unit_matcher_.AddPhrase(
        u.phrase, static_cast<uint32_t>(matcher_payloads_.size()));
    CKR_DCHECK(s.ok());
    (void)s;
    matcher_payloads_.push_back(&u);
  }
  unit_matcher_.Build();
}

std::unordered_map<std::string, double> ConceptVectorGenerator::BuildTermVector(
    const std::vector<std::string>& tokens) const {
  std::unordered_map<std::string, double> tf;
  for (const std::string& t : tokens) {
    if (IsStopWord(t)) continue;
    tf[t] += 1.0;
  }
  for (auto& [term, f] : tf) f *= term_dict_.Idf(term);
  NormalizePunishDrop(&tf, config_.term_punish_threshold,
                      config_.term_drop_threshold, config_.punish_factor);
  return tf;
}

std::unordered_map<std::string, double> ConceptVectorGenerator::BuildUnitVector(
    const std::vector<std::string>& tokens) const {
  std::unordered_map<std::string, double> uv;
  for (const PhraseMatch& m : unit_matcher_.FindAll(tokens)) {
    const UnitInfo* info = matcher_payloads_[m.payload];
    // The unit vector holds the unit's (already normalized) score; repeat
    // occurrences do not accumulate.
    uv[info->phrase] = info->score;
  }
  NormalizePunishDrop(&uv, config_.unit_punish_threshold,
                      config_.unit_drop_threshold, config_.punish_factor);
  return uv;
}

double ConceptVectorGenerator::MergedWeight(
    const std::string& phrase,
    const std::unordered_map<std::string, double>& term_vec,
    const std::unordered_map<std::string, double>& unit_vec) const {
  // Merge (Section II-B cases 1-3).
  double w = 0.0;
  auto t = term_vec.find(phrase);
  auto u = unit_vec.find(phrase);
  if (t != term_vec.end() && u == unit_vec.end()) {
    w = t->second * config_.no_unit_punish_factor;  // Case 1.
  } else if (t != term_vec.end()) {
    w = t->second + u->second;  // Case 3.
  } else if (u != unit_vec.end()) {
    w = u->second;  // Case 2.
  }

  // Step (4): multi-term specificity bonus. It applies to a multi-term
  // phrase absent from both vectors too (e.g. a dictionary entity that is
  // not a query-log unit): its merged weight is zero, but the sum of its
  // constituent terms' term- and unit-vector scores still counts.
  if (config_.multi_term_bonus && phrase.find(' ') != std::string::npos) {
    for (const std::string& part : SplitString(phrase, " ")) {
      auto pt = term_vec.find(part);
      if (pt != term_vec.end()) w += pt->second;
      auto pu = unit_vec.find(part);
      if (pu != unit_vec.end()) w += pu->second;
    }
  }
  return w;
}

std::vector<ConceptScore> ConceptVectorGenerator::Generate(
    std::string_view text) const {
  std::vector<std::string> tokens = TokenizeToStrings(text);
  std::unordered_map<std::string, double> term_vec = BuildTermVector(tokens);
  std::unordered_map<std::string, double> unit_vec = BuildUnitVector(tokens);

  std::vector<ConceptScore> out;
  out.reserve(term_vec.size() + unit_vec.size());
  for (const auto& term : term_vec) {
    out.push_back({term.first, MergedWeight(term.first, term_vec, unit_vec)});
  }
  for (const auto& unit : unit_vec) {
    if (term_vec.count(unit.first) > 0) continue;  // Merged above (case 3).
    out.push_back({unit.first, MergedWeight(unit.first, term_vec, unit_vec)});
  }
  std::sort(out.begin(), out.end(),
            [](const ConceptScore& a, const ConceptScore& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.phrase < b.phrase;
            });
  return out;
}

std::vector<double> ConceptVectorGenerator::ScoreCandidates(
    std::string_view text, const std::vector<std::string>& candidates) const {
  // One pair of vectors per call: each candidate's weight is the entry
  // Generate(text) would list for it, computed without the full merge.
  std::vector<std::string> tokens = TokenizeToStrings(text);
  std::unordered_map<std::string, double> term_vec = BuildTermVector(tokens);
  std::unordered_map<std::string, double> unit_vec = BuildUnitVector(tokens);
  std::vector<double> scores;
  scores.reserve(candidates.size());
  for (const std::string& c : candidates) {
    scores.push_back(MergedWeight(NormalizePhrase(c), term_vec, unit_vec));
  }
  return scores;
}

}  // namespace ckr
