// Token-level Aho-Corasick multi-phrase matcher.
//
// The Contextual Shortcuts platform matches hundreds of thousands of
// dictionary entities and query-log concepts against each document in one
// pass (paper Sections II and VI). Patterns are sequences of normalized
// tokens; matching runs over a document's token stream in O(tokens +
// matches). Token-level matching gives word-boundary correctness for free.
//
// Build() freezes the trie into a flat CSR-style automaton: one contiguous
// node array, transitions stored as sorted (term, target) spans probed
// with a linear/binary scan, and output lists flattened into one array.
// The root, which every unmatched token and every fail chain returns to,
// gets a dense row instead: one target per term id, so its step is a
// single load. The per-node hash maps used during construction are
// discarded, so the matching loop touches only contiguous arrays — the
// index-layout discipline of PISA-style engines applied to the matcher.
#ifndef CKR_DETECT_AHO_CORASICK_H_
#define CKR_DETECT_AHO_CORASICK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace ckr {

/// A phrase match over a token stream.
struct PhraseMatch {
  uint32_t token_begin = 0;  ///< Index of the first matched token.
  uint32_t token_count = 0;  ///< Number of tokens matched.
  uint32_t payload = 0;      ///< Caller-supplied id of the phrase.
};

/// Builds once, matches many times. Not thread-safe during construction;
/// FindAll is const and thread-safe after Build().
class PhraseMatcher {
 public:
  /// Sentinel term id for tokens that appear in no registered phrase.
  static constexpr uint32_t kUnknownTerm = static_cast<uint32_t>(-1);

  PhraseMatcher() = default;

  /// Registers a phrase (whitespace-separated normalized tokens) with a
  /// caller-defined payload. Duplicate phrases keep the first payload.
  /// Must be called before Build().
  [[nodiscard]] Status AddPhrase(std::string_view phrase, uint32_t payload);

  /// Constructs goto/fail links and freezes the flat automaton.
  /// Idempotent.
  void Build();

  bool built() const { return built_; }
  size_t NumPhrases() const { return num_phrases_; }
  size_t NumTerms() const { return term_ids_.size(); }

  /// Term id of a normalized token, kUnknownTerm if it appears in no
  /// phrase. Usable any time; stable across Build().
  uint32_t TermId(std::string_view term) const;

  /// All (possibly overlapping) phrase occurrences in the token stream.
  std::vector<PhraseMatch> FindAll(
      const std::vector<std::string>& tokens) const;

  /// Allocation-free variant over pre-interned term ids (from TermId);
  /// kUnknownTerm entries reset the automaton, exactly like tokens that
  /// appear in no phrase, and so do ids >= NumTerms(). Clears and fills
  /// `*out`.
  void FindAllTids(const uint32_t* tids, size_t n,
                   std::vector<PhraseMatch>* out) const;

 private:
  static constexpr int kRoot = 0;

  /// Construction-only trie node; discarded by Build().
  struct BuildNode {
    std::unordered_map<uint32_t, int> next;  ///< term id -> node.
    int fail = kRoot;
    std::vector<std::pair<uint32_t, uint32_t>> outputs;  ///< (payload, len).
  };

  /// Frozen node: half-open spans into trans_terms_/trans_targets_ and
  /// outputs_. The root's transition span is empty; root_next_ holds them.
  struct FlatNode {
    uint32_t trans_begin = 0;
    uint32_t trans_end = 0;
    uint32_t out_begin = 0;
    uint32_t out_end = 0;
    int32_t fail = kRoot;
  };

  uint32_t InternTerm(const std::string& term);
  /// Flat-automaton transition: target of `node` on `tid`, or -1.
  int32_t FlatStep(int32_t node, uint32_t tid) const;

  std::vector<BuildNode> nodes_{1};  ///< Cleared once frozen.
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      term_ids_;
  size_t num_phrases_ = 0;
  bool built_ = false;

  // Frozen CSR automaton (valid iff built_).
  std::vector<FlatNode> flat_;
  std::vector<uint32_t> trans_terms_;    ///< Sorted within each node span.
  std::vector<int32_t> trans_targets_;   ///< Parallel to trans_terms_.
  std::vector<int32_t> root_next_;  ///< Root target per term id, -1 = none.
  std::vector<std::pair<uint32_t, uint32_t>> outputs_;  ///< (payload, len).
};

}  // namespace ckr

#endif  // CKR_DETECT_AHO_CORASICK_H_
