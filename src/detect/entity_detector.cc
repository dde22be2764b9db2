#include "detect/entity_detector.h"

#include <algorithm>

#include "common/check.h"
#include "obs/hooks.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

/// Single-term concept matches shorter than this many characters are
/// dropped (too noisy to annotate).
constexpr size_t kMinConceptChars = 3;

}  // namespace

EntityDetector::EntityDetector(const std::vector<DictionaryEntry>& dictionary,
                               const UnitDictionary* units) {
  std::unordered_map<std::string, size_t> by_key;
  for (const DictionaryEntry& d : dictionary) {
    if (d.key.empty()) continue;
    if (by_key.count(d.key) > 0) continue;  // First definition wins.
    CandidateEntry e;
    e.key = d.key;
    e.type = d.type;
    e.subtype = d.subtype;
    e.from_dictionary = true;
    e.unit_score = 0.0;
    by_key[e.key] = entries_.size();
    entries_.push_back(std::move(e));
    ++num_dictionary_entries_;
  }
  if (units != nullptr) {
    for (const UnitInfo* u : units->MultiTermUnits()) {
      auto it = by_key.find(u->phrase);
      if (it != by_key.end()) {
        // Disambiguation: the editorial identity wins, but the unit score
        // is still attached so ranking features can use it.
        entries_[it->second].unit_score = u->score;
        continue;
      }
      CandidateEntry e;
      e.key = u->phrase;
      e.type = EntityType::kConcept;
      e.subtype = 0;
      e.from_dictionary = false;
      e.unit_score = u->score;
      by_key[e.key] = entries_.size();
      entries_.push_back(std::move(e));
      ++num_concept_entries_;
    }
  }
  for (uint32_t i = 0; i < entries_.size(); ++i) {
    Status s = matcher_.AddPhrase(entries_[i].key, i);
    CKR_DCHECK(s.ok());
    (void)s;
  }
  matcher_.Build();
}

EntityDetector EntityDetector::FromWorld(const World& world,
                                         const UnitDictionary* units) {
  std::vector<DictionaryEntry> dict;
  dict.reserve(world.NumEntities());
  for (const Entity& e : world.entities()) {
    if (!e.in_dictionary) continue;
    dict.push_back({e.key, e.type, e.subtype});
  }
  return EntityDetector(dict, units);
}

const std::vector<RawDetection>& EntityDetector::DetectRaw(
    std::string_view text, Scratch* scratch) const {
  TokenizeInto(text, &scratch->tokens);
  scratch->token_tids.clear();
  for (const Token& t : scratch->tokens) {
    scratch->token_tids.push_back(matcher_.TermId(t.text));
  }
  return DetectRawInterned(text, scratch);
}

const std::vector<RawDetection>& EntityDetector::DetectRawInterned(
    std::string_view text, Scratch* scratch) const {
  const std::vector<Token>& tokens = scratch->tokens;
  CKR_DCHECK_EQ(tokens.size(), scratch->token_tids.size());
  scratch->raw.clear();

  // Stage 1: pattern detectors (regex-equivalent scanners). Patterns are
  // never subject to collision pruning by phrase matches; instead phrase
  // matches overlapping a pattern are dropped below.
  DetectPatternsInto(text, &scratch->patterns);
  for (uint32_t pi = 0; pi < scratch->patterns.size(); ++pi) {
    const PatternMatch& p = scratch->patterns[pi];
    RawDetection d;
    d.entry_id = kPatternEntry;
    d.pattern_idx = pi;
    d.type = EntityType::kPattern;
    d.subtype = static_cast<int>(p.kind);
    d.begin = p.begin;
    d.end = p.end;
    scratch->raw.push_back(d);
  }

  // Stage 2: one Aho-Corasick pass over the pre-interned term ids for
  // dictionary entities and concepts.
  matcher_.FindAllTids(scratch->token_tids.data(), scratch->token_tids.size(),
                       &scratch->matches);

  // Stage 3: filtering.
  std::vector<PhraseMatch>& kept = scratch->kept;
  kept.clear();
  for (const PhraseMatch& m : scratch->matches) {
    const CandidateEntry& e = entries_[m.payload];
    if (!e.from_dictionary) {
      if (m.token_count == 1 &&
          (e.key.size() < kMinConceptChars || IsStopWord(e.key))) {
        continue;
      }
    }
    size_t byte_begin = tokens[m.token_begin].begin;
    size_t byte_end = tokens[m.token_begin + m.token_count - 1].end;
    // Drop phrase matches that overlap a pattern entity.
    bool overlaps_pattern = false;
    for (const PatternMatch& p : scratch->patterns) {
      if (byte_begin < p.end && p.begin < byte_end) {
        overlaps_pattern = true;
        break;
      }
    }
    if (!overlaps_pattern) kept.push_back(m);
  }

  // Stage 4: collision resolution between overlapping phrase matches:
  // longest match wins; ties broken leftmost, then dictionary-first.
  std::sort(kept.begin(), kept.end(),
            [this](const PhraseMatch& a, const PhraseMatch& b) {
              if (a.token_count != b.token_count) {
                return a.token_count > b.token_count;
              }
              if (a.token_begin != b.token_begin) {
                return a.token_begin < b.token_begin;
              }
              return entries_[a.payload].from_dictionary &&
                     !entries_[b.payload].from_dictionary;
            });
  scratch->taken.assign(tokens.size(), 0);
  size_t num_kept = 0;
  for (size_t ki = 0; ki < kept.size(); ++ki) {
    const PhraseMatch& m = kept[ki];
    bool clash = false;
    for (uint32_t t = m.token_begin; t < m.token_begin + m.token_count; ++t) {
      if (scratch->taken[t] != 0) {
        clash = true;
        break;
      }
    }
    if (clash) continue;
    for (uint32_t t = m.token_begin; t < m.token_begin + m.token_count; ++t) {
      scratch->taken[t] = 1;
    }
    kept[num_kept++] = m;
  }

  bool token_texts_ready = false;
  for (size_t ki = 0; ki < num_kept; ++ki) {
    const PhraseMatch& m = kept[ki];
    const CandidateEntry& e = entries_[m.payload];
    RawDetection d;
    d.entry_id = m.payload;
    d.type = e.type;
    d.subtype = e.subtype;
    if (disambiguator_ != nullptr && disambiguator_->HasSenses(e.key)) {
      if (!token_texts_ready) {
        // Materialized lazily: only documents containing an ambiguous
        // surface pay for the per-token strings the sense profiles need.
        size_t count = 0;
        for (const Token& t : tokens) {
          if (count == scratch->token_texts.size()) {
            scratch->token_texts.emplace_back();
          }
          scratch->token_texts[count++].assign(t.text);
        }
        scratch->token_texts.resize(count);
        token_texts_ready = true;
      }
      const Sense* sense = disambiguator_->Resolve(
          e.key, scratch->token_texts, m.token_begin,
          m.token_begin + m.token_count);
      if (sense != nullptr) {
        d.type = sense->type;
        d.subtype = sense->subtype;
      }
    }
    d.begin = tokens[m.token_begin].begin;
    d.end = tokens[m.token_begin + m.token_count - 1].end;
    scratch->raw.push_back(d);
  }

  std::sort(scratch->raw.begin(), scratch->raw.end(),
            [](const RawDetection& a, const RawDetection& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end > b.end;
            });
  CKR_OBS_COUNTER_INC("ckr.detect.documents");
  CKR_OBS_COUNTER_ADD("ckr.detect.tokens", tokens.size());
  CKR_OBS_COUNTER_ADD("ckr.detect.pattern_matches", scratch->patterns.size());
  CKR_OBS_COUNTER_ADD("ckr.detect.phrase_matches", scratch->matches.size());
  CKR_OBS_COUNTER_ADD("ckr.detect.raw_detections", scratch->raw.size());
  return scratch->raw;
}

std::vector<Detection> EntityDetector::Detect(std::string_view text) const {
  Scratch scratch;
  const std::vector<RawDetection>& raw = DetectRaw(text, &scratch);
  std::vector<Detection> detections;
  detections.reserve(raw.size());
  for (const RawDetection& r : raw) {
    Detection d;
    d.type = r.type;
    d.subtype = r.subtype;
    d.begin = r.begin;
    d.end = r.end;
    if (r.entry_id == kPatternEntry) {
      d.surface = scratch.patterns[r.pattern_idx].text;
    } else {
      const CandidateEntry& e = entries_[r.entry_id];
      d.key = e.key;
      d.from_dictionary = e.from_dictionary;
      d.unit_score = e.unit_score;
      d.surface = std::string(text.substr(d.begin, d.end - d.begin));
    }
    detections.push_back(std::move(d));
  }
  return detections;
}

}  // namespace ckr
