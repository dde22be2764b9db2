#include "corpus/term_dictionary.h"

#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace ckr {

void TermDictionary::Assign(
    size_t num_docs,
    const std::vector<std::pair<std::string_view, uint32_t>>& doc_freqs) {
  doc_freq_.clear();
  doc_freq_.reserve(doc_freqs.size());
  for (const auto& [term, df] : doc_freqs) {
    bool inserted = doc_freq_.emplace(std::string(term), df).second;
    CKR_DCHECK(inserted);
    (void)inserted;
  }
  num_docs_ = num_docs;
}

void TermDictionary::AddDocument(std::string_view text, bool stemmed) {
  std::unordered_set<std::string> seen;
  for (std::string& tok : TokenizeToStrings(text)) {
    seen.insert(stemmed ? PorterStem(tok) : std::move(tok));
  }
  for (const std::string& t : seen) ++doc_freq_[t];
  ++num_docs_;
}

double TermDictionary::DocFreqRatio(std::string_view term) const {
  if (num_docs_ == 0) return 0.0;
  return static_cast<double>(DocFreq(term)) / static_cast<double>(num_docs_);
}

uint32_t TermDictionary::DocFreq(std::string_view term) const {
  auto it = doc_freq_.find(term);
  return it == doc_freq_.end() ? 0 : it->second;
}

double TermDictionary::Idf(std::string_view term) const {
  double n = static_cast<double>(num_docs_);
  double df = static_cast<double>(DocFreq(term));
  return std::log((n + 1.0) / (df + 1.0)) + 1.0;
}

}  // namespace ckr
