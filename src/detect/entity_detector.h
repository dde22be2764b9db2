// The Contextual Shortcuts detection pipeline (paper Section II):
// pre-processing -> specialized detectors (patterns, dictionary named
// entities, query-log concepts) -> post-processing (collision resolution
// between overlapping entities, disambiguation, filtering).
#ifndef CKR_DETECT_ENTITY_DETECTOR_H_
#define CKR_DETECT_ENTITY_DETECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "corpus/taxonomy.h"
#include "corpus/world.h"
#include "detect/aho_corasick.h"
#include "detect/disambiguator.h"
#include "detect/pattern_detector.h"
#include "text/tokenizer.h"
#include "units/unit_extractor.h"

namespace ckr {

/// One annotated entity occurrence in a document.
struct Detection {
  std::string key;       ///< Normalized phrase (empty for patterns).
  std::string surface;   ///< Text as it appears in the document.
  EntityType type = EntityType::kConcept;
  int subtype = 0;
  size_t begin = 0;      ///< Byte span in the source text.
  size_t end = 0;
  bool from_dictionary = false;  ///< Editorial dictionary vs query-log unit.
  double unit_score = 0.0;       ///< Normalized unit score (concepts).
};

/// An id-keyed detection: the allocation-free core of the pipeline's
/// output. `entry_id` indexes the detector's candidate table (EntryKey()
/// recovers the normalized phrase); pattern hits carry kPatternEntry and
/// a `pattern_idx` into the scratch's pattern list instead.
struct RawDetection {
  uint32_t entry_id = 0;
  uint32_t pattern_idx = 0;
  EntityType type = EntityType::kConcept;
  int subtype = 0;
  size_t begin = 0;  ///< Byte span in the source text.
  size_t end = 0;
};

/// Immutable, thread-safe after construction.
class EntityDetector {
 public:
  /// RawDetection::entry_id of pattern entities.
  static constexpr uint32_t kPatternEntry = static_cast<uint32_t>(-1);

  /// An editorial-dictionary entry.
  struct DictionaryEntry {
    std::string key;  ///< Normalized phrase.
    EntityType type = EntityType::kConcept;
    int subtype = 0;
  };

  /// Reusable working state for the allocation-free detection path. One
  /// per thread; contents are overwritten by every DetectRaw call and the
  /// backing buffers are reused across documents.
  struct Scratch {
    std::vector<Token> tokens;
    std::vector<uint32_t> token_tids;
    std::vector<std::string> token_texts;  ///< Built only for sense lookup.
    std::vector<PatternMatch> patterns;
    std::vector<PhraseMatch> matches;
    std::vector<PhraseMatch> kept;
    std::vector<RawDetection> raw;
    std::vector<uint8_t> taken;
  };

  /// Builds a detector from explicit dictionary entries and (optionally)
  /// a unit dictionary of query-log concepts. Multi-term units become
  /// concept detections; single-term units are ignored (too noisy), as are
  /// units colliding with dictionary keys (dictionary identity wins —
  /// the platform's disambiguation step).
  EntityDetector(const std::vector<DictionaryEntry>& dictionary,
                 const UnitDictionary* units);

  /// Convenience: dictionary = the world's editorial entities.
  static EntityDetector FromWorld(const World& world,
                                  const UnitDictionary* units);

  /// Attaches a sense disambiguator for ambiguous surfaces (e.g.
  /// "jaguar"); resolved matches get their type/subtype overridden by the
  /// winning sense. Pass nullptr to detach; must outlive the detector.
  void SetDisambiguator(const SenseDisambiguator* disambiguator) {
    disambiguator_ = disambiguator;
  }

  /// Runs the full pipeline over plain text: the pattern scan, then one
  /// Aho-Corasick pass over the token ids, then filtering and collision
  /// resolution (longest-leftmost wins). Every document takes this path.
  /// Output is sorted by begin offset.
  std::vector<Detection> Detect(std::string_view text) const;

  /// Allocation-free pipeline: tokenizes into `scratch->tokens`, interns
  /// them into `scratch->token_tids` and runs DetectRawInterned.
  const std::vector<RawDetection>& DetectRaw(std::string_view text,
                                             Scratch* scratch) const;

  /// The pipeline core. Trusts the caller-provided `scratch->tokens`
  /// (must be Tokenize(text)) and `scratch->token_tids` (must be TermId
  /// of each token's text), which lets the runtime ranker tokenize and
  /// hash each token once for both stemming and detection. Fills
  /// `scratch->raw` with id-keyed detections in the same order Detect()
  /// returns them; the returned reference aliases scratch->raw.
  const std::vector<RawDetection>& DetectRawInterned(std::string_view text,
                                                     Scratch* scratch) const;

  /// Matcher term id of a normalized token: what DetectRawInterned expects
  /// in `token_tids`. PhraseMatcher::kUnknownTerm if the token appears in
  /// no entry.
  uint32_t TermId(std::string_view token) const {
    return matcher_.TermId(token);
  }

  size_t NumDictionaryEntries() const { return num_dictionary_entries_; }
  size_t NumConceptEntries() const { return num_concept_entries_; }
  /// Total candidate entries; RawDetection::entry_id < NumEntries().
  size_t NumEntries() const { return entries_.size(); }
  /// Normalized phrase of a candidate entry.
  const std::string& EntryKey(uint32_t entry_id) const {
    return entries_[entry_id].key;
  }

 private:
  struct CandidateEntry {
    std::string key;
    EntityType type;
    int subtype;
    bool from_dictionary;
    double unit_score;
  };

  std::vector<CandidateEntry> entries_;
  const SenseDisambiguator* disambiguator_ = nullptr;
  PhraseMatcher matcher_;
  size_t num_dictionary_entries_ = 0;
  size_t num_concept_entries_ = 0;
};

}  // namespace ckr

#endif  // CKR_DETECT_ENTITY_DETECTOR_H_
