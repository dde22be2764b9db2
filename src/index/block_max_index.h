// Block-max query evaluation: the pruning-capable retrieval structure that
// answers disjunctive BM25 top-k queries without scoring every posting.
// Wraps a BlockPostingsStore (block-compressed postings + skip and
// max-score metadata) together with everything scoring needs — the
// external doc ids results are ranked by, the precomputed default-parameter
// norms, and per-term idf — so the structure is self-contained and
// serializable independently of the full InvertedIndex.
//
// Three evaluators, one contract: TopK returns the *identical* result list
// (same documents, bit-identical scores, same order) for every
// QueryEvaluator; the pruned ones merely skip work. The exactness argument
// (also enforced by the equivalence tests):
//  * a document's score is the IEEE left-to-right sum of its terms' exact
//    contributions in query order — the very accumulation order the
//    exhaustive CSR scorer uses, and absent terms add an exact 0.0, which
//    is an identity on the nonnegative partial sums;
//  * every upper bound (per-term maxima for MaxScore, per-block maxima for
//    Block-Max-WAND) is the fl-sum *in the same query order* of values
//    that dominate the exact contributions elementwise; round-to-nearest
//    addition is monotone, so the bound dominates any achievable score
//    with zero ULP of slack;
//  * a candidate is discarded only when its bound is *strictly* below the
//    current k-th score — a document tying the threshold can still enter
//    through the ascending-doc-id tie-break (top_k.h) — so no document of
//    the true top-k is ever pruned.
#ifndef CKR_INDEX_BLOCK_MAX_INDEX_H_
#define CKR_INDEX_BLOCK_MAX_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "corpus/document.h"
#include "index/block_postings.h"
#include "index/top_k.h"

namespace ckr {

/// On-disk magic of a serialized BlockMaxIndex ('CKRX').
inline constexpr uint32_t kBlockIndexMagic = 0x434b5258;
/// Current format version. v1 blobs (no max-score columns) load too: the
/// loader rebuilds the maxima from the postings, bit-identically, since
/// they are pure functions of (df, tf, norm).
inline constexpr uint16_t kBlockIndexVersion = 2;
/// The header's u16 codec field. Varint-GB (block_codecs.h) is the only
/// codec, so it is always 0; the loader rejects any other value.
inline constexpr uint16_t kBlockIndexCodecVarintGB = 0;

/// Immutable after Builder::Finish() / Deserialize(); thread-safe for
/// concurrent reads (TopK shares no mutable state).
class BlockMaxIndex {
 public:
  /// Assembles the index (defined after the class — it holds the index it
  /// grows by value). Terms must be added in dense term-id order with
  /// doc indices strictly ascending; `ext_ids[d]` is the external id
  /// results carry for internal doc `d`, `default_norm[d]` the
  /// precomputed k1*(1-b+b*dl/avg) BM25 norm.
  class Builder;

  BlockMaxIndex() = default;

  size_t NumDocs() const { return ext_id_.size(); }
  size_t NumTerms() const { return store_.NumTerms(); }
  const BlockPostingsStore& store() const { return store_; }
  /// External id of internal doc `d` (the id results rank by).
  DocId ExternalId(uint32_t d) const { return ext_id_[d]; }

  /// BM25 top-k over the disjunction of `tids` (dense term ids, distinct,
  /// in *query evaluation order* — score sums follow this order, which is
  /// what makes all evaluators bit-identical to the exhaustive CSR path).
  /// Ranking contract: descending score, ties by ascending external id.
  std::vector<SearchResult> TopK(Span<const uint32_t> tids, size_t k,
                                 QueryEvaluator evaluator) const;

  /// Serializes at the current format version.
  std::string Serialize() const { return SerializeVersion(kBlockIndexVersion); }
  /// Serializes at an explicit version (1 drops the max-score columns) —
  /// exposed so tests can exercise the backward-compatible load path.
  std::string SerializeVersion(uint16_t version) const;

  /// Parses a Serialize() blob. Every declared count is validated against
  /// the bytes present before allocation; every block is decoded and
  /// checked (codec well-formedness, strictly ascending in-range doc ids,
  /// nonzero tfs, skip-pointer consistency); external ids must be unique
  /// and norms finite and positive. v1 blobs get their max-score columns
  /// rebuilt. Term idf is never stored — it is recomputed from (df, n)
  /// with the exact formula the scorer uses, so a loaded index scores
  /// bit-identically to a built one.
  [[nodiscard]] static StatusOr<BlockMaxIndex> Deserialize(
      std::string_view blob);

  /// Bytes of the two compressed posting pools (the compression-ratio
  /// numerator in bench_offline_perf; the CSR baseline is 8 bytes per
  /// posting for the doc + tf columns).
  size_t CompressedPostingBytes() const {
    return store_.CompressedPostingBytes();
  }
  size_t MemoryBytes() const;

 private:
  /// Exact BM25 contribution of (term, doc, tf) under default parameters —
  /// the same expression, in the same operation order, as the exhaustive
  /// scorer, so the doubles are identical.
  double Contribution(uint32_t tid, uint32_t doc, uint32_t tf) const;

  /// Rebuilds term_idf_ from document frequencies; the one code path both
  /// Builder::Finish and Deserialize use.
  void RecomputeIdf();

  std::vector<SearchResult> TopKExhaustive(Span<const uint32_t> tids,
                                           size_t k) const;
  std::vector<SearchResult> TopKMaxScore(Span<const uint32_t> tids,
                                         size_t k) const;
  std::vector<SearchResult> TopKBlockMaxWand(Span<const uint32_t> tids,
                                             size_t k) const;

  BlockPostingsStore store_;
  std::vector<DocId> ext_id_;         ///< Internal doc index -> external id.
  std::vector<double> default_norm_;  ///< Default-parameter BM25 norm.
  std::vector<double> term_idf_;      ///< Recomputed, never serialized.
};

class BlockMaxIndex::Builder {
 public:
  Builder(std::vector<DocId> ext_ids, std::vector<double> default_norm);

  /// Appends the postings of the next term id. Per-posting exact BM25
  /// contributions (default parameters) are computed here and folded
  /// into the store's block/term maxima.
  void AddTerm(Span<const uint32_t> docs, Span<const uint32_t> tfs);

  /// Same, with an explicit idf instead of one derived from the local
  /// (df, n) — the collection-stats-override path: a sharded index scores
  /// with the whole collection's idf (inverted_index.h CollectionStats).
  /// A builder must use one AddTerm flavour for every term; Finish()
  /// keeps the explicit idfs instead of recomputing local ones. Note a
  /// Serialize()d index never stores idf, so deserializing one built this
  /// way reverts to local idf — callers rebuild instead (the
  /// InvertedIndex::LoadBlockIndex guard).
  void AddTerm(Span<const uint32_t> docs, Span<const uint32_t> tfs,
               double idf);

  BlockMaxIndex Finish();

 private:
  void AddTermScored(Span<const uint32_t> docs, Span<const uint32_t> tfs,
                     double idf);

  BlockMaxIndex index_;
  BlockPostingsStore::Builder store_builder_;
  std::vector<double> scores_;
  std::vector<double> explicit_idf_;
  size_t terms_added_ = 0;
};

}  // namespace ckr

#endif  // CKR_INDEX_BLOCK_MAX_INDEX_H_
