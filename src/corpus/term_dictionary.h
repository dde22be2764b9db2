// Term dictionary with document frequencies — the paper's "term dictionary
// which contains the term-document frequencies (i.e. the number of
// documents of a large web corpus containing the dictionary term)"
// (Section II-B). Built once over the web corpus and shared by concept-
// vector generation and relevant-keyword mining.
#ifndef CKR_CORPUS_TERM_DICTIONARY_H_
#define CKR_CORPUS_TERM_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace ckr {

/// Immutable once filled; lookup is by normalized token.
class TermDictionary {
 public:
  TermDictionary() = default;

  /// Replaces the contents with document frequencies counted elsewhere:
  /// `num_docs` documents, and one (term, df) pair per distinct term. The
  /// pipeline fills its dictionaries this way from the inverted index,
  /// which counted the same corpus with the same tokenizer.
  void Assign(size_t num_docs,
              const std::vector<std::pair<std::string_view, uint32_t>>&
                  doc_freqs);

  /// Adds one more document's tokens (normalized by the standard
  /// tokenizer; stop words are kept so callers can decide). With
  /// `stemmed`, tokens are Porter-stemmed first — relevance mining needs a
  /// stemmed dictionary because its mined terms are stems.
  void AddDocument(std::string_view text, bool stemmed = false);

  /// Document-frequency ratio df(t)/N in [0, 1]; 0 for unseen terms.
  double DocFreqRatio(std::string_view term) const;

  size_t NumDocs() const { return num_docs_; }
  size_t NumTerms() const { return doc_freq_.size(); }

  /// Document frequency of a term (0 if unseen).
  uint32_t DocFreq(std::string_view term) const;

  /// Smoothed inverse document frequency:
  ///   idf(t) = ln((N + 1) / (df(t) + 1)) + 1.
  /// Always positive; unseen terms get the maximum value.
  double Idf(std::string_view term) const;

 private:
  // Transparent hasher: DocFreq/Idf are called per mined term in the
  // offline fan-out, so lookups must not allocate a temporary std::string.
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      doc_freq_;
  size_t num_docs_ = 0;
};

}  // namespace ckr

#endif  // CKR_CORPUS_TERM_DICTIONARY_H_
