// Block-partitioned posting lists with skip metadata — the view the
// MaxScore / Block-Max-WAND evaluators (block_max_index.h) walk.
//
// Layout: a term's postings are one row of the index's CSR doc/tf columns
// (inverted_index.h); the block layer stores no copy of them. The row is
// cut into fixed 128-slot blocks. A block's last doc — the skip pointer
// NextGEQ and ShallowBound probe — is simply the row's doc at the block's
// last slot. The only per-block column is the maximum exact BM25
// contribution of any posting in the block (the Block-Max-WAND upper
// bound); per term the list-wide maximum is the MaxScore upper bound.
//
// Upper-bound exactness: block/term maxima are the *same doubles* the
// scorer computes (idf * tf * (k1+1) / (tf + norm)), so bounds dominate
// scores by IEEE monotonicity — no epsilon slack, which is what lets the
// pruned evaluators return bit-identical top-k sets (see
// block_max_index.cc for the dominance argument).
#ifndef CKR_INDEX_BLOCK_POSTINGS_H_
#define CKR_INDEX_BLOCK_POSTINGS_H_

#include <cstdint>

#include "common/check.h"

namespace ckr {

/// Slots per block. 128 matches the granularity PISA-style engines use
/// for block-max metadata: fine enough to skip, coarse enough that the
/// maxima cost 8 bytes per 128 postings.
inline constexpr uint32_t kPostingBlockSize = 128;

/// Number of blocks covering `postings` slots.
inline uint32_t BlocksFor(size_t postings) {
  return static_cast<uint32_t>((postings + kPostingBlockSize - 1) /
                               kPostingBlockSize);
}

/// Skip-capable iterator over one term's posting row. The cursor is
/// always positioned on a real posting (or at the end); NextGEQ jumps
/// straight to the target's block via the blocks' last docs and never
/// reads the postings in between. The cursor borrows its spans: they must
/// outlive it.
class PostingCursor {
 public:
  /// doc() value once the list is exhausted; compares greater than every
  /// real doc id.
  static constexpr uint32_t kEndDoc = 0xffffffffu;

  PostingCursor() = default;
  /// Walks `docs`/`tfs` (one term's row, docs strictly ascending);
  /// `block_max[b]` bounds the contributions of slots [128b, 128b+128).
  PostingCursor(Span<const uint32_t> docs, Span<const uint32_t> tfs,
                Span<const double> block_max);

  uint32_t doc() const { return cur_doc_; }
  /// Term frequency at the current posting (undefined at end).
  uint32_t tf() const {
    CKR_DCHECK(!AtEnd());
    return tfs_[pos_];
  }
  bool AtEnd() const { return cur_doc_ == kEndDoc; }

  uint32_t postings() const { return size_; }

  /// Advances one posting.
  void Next();
  /// Advances to the first posting with doc >= target (no-op when already
  /// there). Skips, and never reads into, blocks whose last doc < target.
  void NextGEQ(uint32_t target);

  /// Shallow Block-Max-WAND probe: the max score and last doc of the
  /// block that contains the first posting >= target, without moving the
  /// cursor. Requires doc() <= target < kEndDoc.
  struct BlockBound {
    double max_score = 0.0;
    uint32_t last_doc = kEndDoc;
  };
  BlockBound ShallowBound(uint32_t target) const;

 private:
  /// Doc at block `b`'s last slot (a term's last block may be short).
  uint32_t BlockLastDoc(uint32_t b) const {
    const uint32_t end = (b + 1) * kPostingBlockSize;
    return docs_[(end < size_ ? end : size_) - 1];
  }
  /// Positions the cursor on the first slot of block `b`, counting the
  /// block as entered.
  void EnterBlock(uint32_t b);

  const uint32_t* docs_ = nullptr;
  const uint32_t* tfs_ = nullptr;
  const double* block_max_ = nullptr;
  uint32_t size_ = 0;
  uint32_t num_blocks_ = 0;
  uint32_t pos_ = 0;  ///< Slot index into the row.
  uint32_t cur_doc_ = kEndDoc;
};

}  // namespace ckr

#endif  // CKR_INDEX_BLOCK_POSTINGS_H_
