#include "index/legacy_index.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace ckr {

void LegacyInvertedIndex::Add(const Document& doc) {
  CKR_DCHECK(!finalized_);
  StoredDoc stored;
  stored.id = doc.id;
  stored.text = doc.text;
  std::vector<Token> toks = Tokenize(stored.text);
  stored.tokens.reserve(toks.size());
  stored.token_begin.reserve(toks.size());
  stored.token_end.reserve(toks.size());
  for (Token& t : toks) {
    stored.tokens.push_back(std::move(t.text));
    stored.token_begin.push_back(static_cast<uint32_t>(t.begin));
    stored.token_end.push_back(static_cast<uint32_t>(t.end));
  }
  doc_index_[stored.id] = static_cast<uint32_t>(docs_.size());
  docs_.push_back(std::move(stored));
}

void LegacyInvertedIndex::Finalize() {
  postings_.clear();
  uint64_t total_len = 0;
  for (uint32_t d = 0; d < docs_.size(); ++d) {
    const StoredDoc& doc = docs_[d];
    total_len += doc.tokens.size();
    for (uint32_t pos = 0; pos < doc.tokens.size(); ++pos) {
      std::vector<Posting>& plist = postings_[doc.tokens[pos]];
      if (plist.empty() || plist.back().doc_index != d) {
        plist.push_back({d, {}});
      }
      plist.back().positions.push_back(pos);
    }
  }
  avg_doc_len_ = docs_.empty()
                     ? 0.0
                     : static_cast<double>(total_len) /
                           static_cast<double>(docs_.size());
  finalized_ = true;
}

uint32_t LegacyInvertedIndex::DocFreq(std::string_view term) const {
  auto it = postings_.find(std::string(term));
  return it == postings_.end() ? 0
                               : static_cast<uint32_t>(it->second.size());
}

std::vector<SearchResult> LegacyInvertedIndex::Search(
    std::string_view query, size_t k, const Bm25Params& params) const {
  CKR_DCHECK(finalized_);
  std::vector<std::string> terms = TokenizeToStrings(query);
  // Deduplicate query terms.
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  std::unordered_map<uint32_t, double> scores;
  const double n = static_cast<double>(docs_.size());
  for (const std::string& term : terms) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    const auto& plist = it->second;
    const double df = static_cast<double>(plist.size());
    double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    for (const Posting& p : plist) {
      double tf = static_cast<double>(p.positions.size());
      double dl = static_cast<double>(docs_[p.doc_index].tokens.size());
      double denom =
          tf + params.k1 * (1.0 - params.b + params.b * dl / avg_doc_len_);
      scores[p.doc_index] += idf * tf * (params.k1 + 1.0) / denom;
    }
  }
  std::vector<SearchResult> results;
  results.reserve(scores.size());
  for (const auto& [d, s] : scores) {
    results.push_back({docs_[d].id, s});
  }
  std::sort(results.begin(), results.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;  // Deterministic tie-break.
            });
  if (results.size() > k) results.resize(k);
  return results;
}

std::vector<uint32_t> LegacyInvertedIndex::PhrasePositions(
    const std::vector<const Posting*>& term_postings, size_t /*doc_index*/) {
  // term_postings[i] is the posting of term i in the same document.
  std::vector<uint32_t> starts;
  const std::vector<uint32_t>& first = term_postings[0]->positions;
  for (uint32_t p : first) {
    bool match = true;
    for (size_t t = 1; t < term_postings.size(); ++t) {
      const auto& pos = term_postings[t]->positions;
      if (!std::binary_search(pos.begin(), pos.end(),
                              p + static_cast<uint32_t>(t))) {
        match = false;
        break;
      }
    }
    if (match) starts.push_back(p);
  }
  return starts;
}

uint64_t LegacyInvertedIndex::PhraseResultCount(std::string_view phrase) const {
  return PhraseSearch(phrase, docs_.size() + 1).size();
}

std::vector<SearchResult> LegacyInvertedIndex::PhraseSearch(
    std::string_view phrase, size_t k) const {
  CKR_DCHECK(finalized_);
  std::vector<std::string> terms = TokenizeToStrings(phrase);
  std::vector<SearchResult> results;
  if (terms.empty()) return results;

  // Gather posting lists; bail if any term is absent.
  std::vector<const std::vector<Posting>*> lists;
  for (const std::string& t : terms) {
    auto it = postings_.find(t);
    if (it == postings_.end()) return results;
    lists.push_back(&it->second);
  }
  // Intersect by doc via the rarest list.
  size_t rarest = 0;
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i]->size() < lists[rarest]->size()) rarest = i;
  }
  const double n = static_cast<double>(docs_.size());
  for (const Posting& seed : *lists[rarest]) {
    uint32_t d = seed.doc_index;
    std::vector<const Posting*> in_doc(lists.size(), nullptr);
    bool all = true;
    for (size_t i = 0; i < lists.size(); ++i) {
      const auto& plist = *lists[i];
      auto it = std::lower_bound(
          plist.begin(), plist.end(), d,
          [](const Posting& p, uint32_t doc) { return p.doc_index < doc; });
      if (it == plist.end() || it->doc_index != d) {
        all = false;
        break;
      }
      in_doc[i] = &*it;
    }
    if (!all) continue;
    std::vector<uint32_t> starts = PhrasePositions(in_doc, d);
    if (starts.empty()) continue;
    // Score: phrase tf * idf of the rarest term, normalized by length.
    double idf = std::log(
        1.0 + (n - static_cast<double>(lists[rarest]->size()) + 0.5) /
                  (static_cast<double>(lists[rarest]->size()) + 0.5));
    double dl = static_cast<double>(docs_[d].tokens.size());
    double score = idf * static_cast<double>(starts.size()) /
                   (1.0 + 0.002 * dl);
    results.push_back({docs_[d].id, score});
  }
  std::sort(results.begin(), results.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (results.size() > k) results.resize(k);
  return results;
}

const LegacyInvertedIndex::StoredDoc* LegacyInvertedIndex::FindDoc(
    DocId id) const {
  auto it = doc_index_.find(id);
  return it == doc_index_.end() ? nullptr : &docs_[it->second];
}

const std::string& LegacyInvertedIndex::DocText(DocId doc) const {
  static const std::string* const kEmpty = new std::string();
  const StoredDoc* d = FindDoc(doc);
  return d == nullptr ? *kEmpty : d->text;
}

std::string LegacyInvertedIndex::Snippet(DocId doc, std::string_view query,
                                         size_t context_tokens) const {
  const StoredDoc* d = FindDoc(doc);
  if (d == nullptr || d->tokens.empty()) return "";
  std::vector<std::string> terms = TokenizeToStrings(query);
  std::unordered_set<std::string> term_set(terms.begin(), terms.end());

  // Prefer the first contiguous phrase hit; fall back to the first hit of
  // any query term; fall back to the document head.
  size_t center = 0;
  bool found = false;
  if (!terms.empty()) {
    for (size_t i = 0; i + terms.size() <= d->tokens.size() && !found; ++i) {
      bool match = true;
      for (size_t j = 0; j < terms.size(); ++j) {
        if (d->tokens[i + j] != terms[j]) {
          match = false;
          break;
        }
      }
      if (match) {
        center = i + terms.size() / 2;
        found = true;
      }
    }
    for (size_t i = 0; i < d->tokens.size() && !found; ++i) {
      if (term_set.count(d->tokens[i]) > 0) {
        center = i;
        found = true;
      }
    }
  }
  size_t half = context_tokens / 2;
  size_t lo = center > half ? center - half : 0;
  size_t hi = std::min(d->tokens.size(), lo + context_tokens);
  if (hi - lo < context_tokens && hi == d->tokens.size()) {
    lo = hi > context_tokens ? hi - context_tokens : 0;
  }
  size_t byte_lo = d->token_begin[lo];
  size_t byte_hi = d->token_end[hi - 1];
  std::string out = d->text.substr(byte_lo, byte_hi - byte_lo);
  // Normalize whitespace (including CR) so snippets are single-line.
  for (char& c : out) {
    if (c == '\n' || c == '\t' || c == '\r') c = ' ';
  }
  return out;
}

size_t LegacyInvertedIndex::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const StoredDoc& d : docs_) {
    bytes += sizeof(StoredDoc) + d.text.capacity();
    bytes += d.token_begin.capacity() * sizeof(uint32_t);
    bytes += d.token_end.capacity() * sizeof(uint32_t);
    bytes += d.tokens.capacity() * sizeof(std::string);
    for (const std::string& t : d.tokens) {
      // Small-string contents live inside the std::string object.
      if (t.capacity() > sizeof(std::string)) bytes += t.capacity();
    }
  }
  // unordered_map node + bucket overhead, approximated at one pointer per
  // bucket plus two per node (next pointer + hash cache).
  bytes += doc_index_.bucket_count() * sizeof(void*);
  bytes += doc_index_.size() *
           (sizeof(std::pair<DocId, uint32_t>) + 2 * sizeof(void*));
  bytes += postings_.bucket_count() * sizeof(void*);
  for (const auto& [term, plist] : postings_) {
    bytes += sizeof(std::pair<std::string, std::vector<Posting>>) +
             2 * sizeof(void*);
    if (term.capacity() > sizeof(std::string)) bytes += term.capacity();
    bytes += plist.capacity() * sizeof(Posting);
    for (const Posting& p : plist) {
      bytes += p.positions.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

}  // namespace ckr
