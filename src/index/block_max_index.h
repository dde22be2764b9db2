// Block-max query evaluation: the pruning metadata that lets disjunctive
// BM25 top-k queries skip postings, and the evaluators that use it. The
// postings themselves stay in the owning index's CSR doc/tf columns; a
// BlockMaxIndex holds only what pruning adds to them — per-term idf and
// list-wide maximum contribution, and per 128-slot block (block_postings.h)
// the maximum contribution — and reads the columns through a
// PostingColumns view the owner passes to every call.
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
#include <vector>

#include "common/check.h"
#include "corpus/document.h"
#include "index/block_postings.h"
#include "index/top_k.h"

namespace ckr {

/// Read-only view of the columns a BlockMaxIndex ranks over: CSR postings
/// by dense term id, and per internal document its default-parameter BM25
/// norm k1*(1-b+b*dl/avg) and the external id results carry. The owning
/// index builds one per call from its own vectors.
struct PostingColumns {
  Span<const size_t> offset;  ///< terms+1 slot offsets.
  Span<const uint32_t> doc;   ///< Internal doc per slot, ascending per term.
  Span<const uint32_t> tf;    ///< Term frequency per slot.
  Span<const double> norm;    ///< Default-parameter norm per internal doc.
  Span<const DocId> ext_id;   ///< External id per internal doc.

  size_t NumTerms() const { return offset.empty() ? 0 : offset.size() - 1; }
  Span<const uint32_t> Docs(uint32_t tid) const {
    return doc.subspan(offset[tid], offset[tid + 1] - offset[tid]);
  }
  Span<const uint32_t> Tfs(uint32_t tid) const {
    return tf.subspan(offset[tid], offset[tid + 1] - offset[tid]);
  }
};

/// Immutable once built; thread-safe for concurrent reads (TopK shares no
/// mutable state).
class BlockMaxIndex {
 public:
  BlockMaxIndex() = default;
  /// Computes every term's block and list maxima over `cols`, scoring term
  /// `t` with `idf[t]` under the default Bm25Params — the expression the
  /// exhaustive scorer evaluates, so the maxima are scores it produces.
  BlockMaxIndex(const PostingColumns& cols, std::vector<double> idf);

  size_t NumTerms() const { return term_max_score_.size(); }
  size_t NumBlocks() const { return block_max_score_.size(); }
  uint32_t TermFirstBlock(uint32_t tid) const {
    return term_block_offset_[tid];
  }
  uint32_t TermBlocks(uint32_t tid) const {
    return term_block_offset_[tid + 1] - term_block_offset_[tid];
  }
  double TermMaxScore(uint32_t tid) const { return term_max_score_[tid]; }
  double BlockMaxScore(uint32_t block) const {
    return block_max_score_[block];
  }
  double TermIdf(uint32_t tid) const { return term_idf_[tid]; }

  /// BM25 top-k over the disjunction of `tids` (dense term ids, distinct,
  /// in *query evaluation order* — score sums follow this order, which is
  /// what makes all evaluators bit-identical to the exhaustive CSR path).
  /// `cols` must be the columns this index was built over.
  /// Ranking contract: descending score, ties by ascending external id.
  std::vector<SearchResult> TopK(const PostingColumns& cols,
                                 Span<const uint32_t> tids, size_t k,
                                 QueryEvaluator evaluator) const;

  size_t MemoryBytes() const;

 private:
  /// Exact BM25 contribution of (term, doc, tf) under default parameters —
  /// the same expression, in the same operation order, as the exhaustive
  /// scorer, so the doubles are identical.
  double Contribution(const PostingColumns& cols, uint32_t tid, uint32_t doc,
                      uint32_t tf) const;
  PostingCursor Cursor(const PostingColumns& cols, uint32_t tid) const;

  std::vector<SearchResult> TopKExhaustive(const PostingColumns& cols,
                                           Span<const uint32_t> tids,
                                           size_t k) const;
  std::vector<SearchResult> TopKMaxScore(const PostingColumns& cols,
                                         Span<const uint32_t> tids,
                                         size_t k) const;
  std::vector<SearchResult> TopKBlockMaxWand(const PostingColumns& cols,
                                             Span<const uint32_t> tids,
                                             size_t k) const;

  std::vector<uint32_t> term_block_offset_;  ///< terms+1, global block CSR.
  std::vector<double> term_max_score_;       ///< Max contribution per term.
  std::vector<double> block_max_score_;      ///< Max contribution per block.
  std::vector<double> term_idf_;             ///< Idf each term scores with.
};

}  // namespace ckr

#endif  // CKR_INDEX_BLOCK_MAX_INDEX_H_
