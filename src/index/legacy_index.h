// The original string-keyed inverted index (unordered_map postings, full
// result-set materialization for counts). Superseded by the term-id flat
// layout in inverted_index.h; kept as the reference implementation for the
// equivalence suite and the old-vs-new rows of bench_offline_perf.
#ifndef CKR_INDEX_LEGACY_INDEX_H_
#define CKR_INDEX_LEGACY_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "corpus/document.h"
#include "index/inverted_index.h"

namespace ckr {

/// Immutable after Finalize(). Stores normalized token streams per document
/// for phrase matching and snippeting.
class LegacyInvertedIndex {
 public:
  LegacyInvertedIndex() = default;

  /// Indexes a document; `doc.id` must be unique within the index.
  void Add(const Document& doc);

  /// Builds postings and collection statistics; call once after all Add()s.
  void Finalize();

  bool finalized() const { return finalized_; }
  size_t NumDocs() const { return docs_.size(); }
  size_t NumTerms() const { return postings_.size(); }

  /// Document frequency of a term.
  uint32_t DocFreq(std::string_view term) const;

  /// BM25 disjunctive retrieval over the query's normalized terms.
  std::vector<SearchResult> Search(std::string_view query, size_t k,
                                   const Bm25Params& params = {}) const;

  /// Number of documents containing the phrase contiguously. Materializes
  /// and sorts the full result set just to take its size — the cost the
  /// flat index's count-only path removes.
  uint64_t PhraseResultCount(std::string_view phrase) const;

  /// Ranked documents containing the phrase contiguously.
  std::vector<SearchResult> PhraseSearch(std::string_view phrase,
                                         size_t k) const;

  /// Builds a query-biased snippet for a result.
  std::string Snippet(DocId doc, std::string_view query,
                      size_t context_tokens = 30) const;

  /// Raw text of an indexed document.
  const std::string& DocText(DocId doc) const;

  /// Approximate heap footprint of the index structures (postings, token
  /// streams, doc map) — the memory row of bench_offline_perf.
  size_t MemoryBytes() const;

 private:
  struct Posting {
    uint32_t doc_index = 0;          ///< Index into docs_.
    std::vector<uint32_t> positions; ///< Token positions.
  };
  struct StoredDoc {
    DocId id = 0;
    std::string text;
    std::vector<std::string> tokens;      ///< Normalized tokens.
    std::vector<uint32_t> token_begin;    ///< Byte offset per token.
    std::vector<uint32_t> token_end;
  };

  const StoredDoc* FindDoc(DocId id) const;
  /// Positions where the phrase's tokens occur contiguously in `doc`.
  static std::vector<uint32_t> PhrasePositions(
      const std::vector<const Posting*>& term_postings, size_t doc_index);

  std::vector<StoredDoc> docs_;
  std::unordered_map<DocId, uint32_t> doc_index_;
  std::unordered_map<std::string, std::vector<Posting>> postings_;
  double avg_doc_len_ = 0.0;
  bool finalized_ = false;
};

}  // namespace ckr

#endif  // CKR_INDEX_LEGACY_INDEX_H_
