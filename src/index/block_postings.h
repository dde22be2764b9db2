// Block-compressed posting lists with skip metadata — the pruning-capable
// postings representation that backs the MaxScore / Block-Max-WAND
// evaluators (block_max_index.h).
//
// Layout (all CSR, frozen by the builder):
//  * each term's postings are cut into fixed 128-entry blocks; every block
//    encodes its doc-id gaps (minus one) and tf values (minus one)
//    independently through the varint-GB codec (block_codecs.h), so a
//    cursor decodes only the blocks a query actually visits;
//  * per block the store keeps the last doc id (the skip pointer NextGEQ
//    binary-searches / scans), the byte offsets of its two blobs, and the
//    maximum exact BM25 contribution of any posting in the block (the
//    Block-Max-WAND upper bound);
//  * per term it keeps the posting count and the list-wide maximum
//    contribution (the MaxScore upper bound).
//
// Upper-bound exactness: block/term maxima are the *same doubles* the
// scorer computes (idf * tf * (k1+1) / (tf + norm)), so bounds dominate
// scores by IEEE monotonicity — no epsilon slack, which is what lets the
// pruned evaluators return bit-identical top-k sets (see
// block_max_index.cc for the dominance argument).
#ifndef CKR_INDEX_BLOCK_POSTINGS_H_
#define CKR_INDEX_BLOCK_POSTINGS_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace ckr {

class BinaryReader;
class BinaryWriter;

/// Docs per block. 128 keeps a decoded block (docs + tfs) within two
/// cache lines per column and matches the granularity PISA-style engines
/// use for block-max metadata.
inline constexpr uint32_t kPostingBlockSize = 128;

/// Immutable block-compressed postings for a whole term dictionary.
class BlockPostingsStore {
 public:
  /// Assembles a store term by term (defined after the class — it holds
  /// the store it grows by value). Terms must be added in dense id order,
  /// docs strictly ascending within a term.
  class Builder;

  BlockPostingsStore() = default;

  size_t NumTerms() const {
    return term_block_offset_.empty() ? 0 : term_block_offset_.size() - 1;
  }
  size_t NumBlocks() const { return block_last_doc_.size(); }
  uint64_t NumPostings() const { return num_postings_; }

  uint32_t TermPostings(uint32_t tid) const { return term_postings_[tid]; }
  uint32_t TermBlocks(uint32_t tid) const {
    return term_block_offset_[tid + 1] - term_block_offset_[tid];
  }
  double TermMaxScore(uint32_t tid) const { return term_max_score_[tid]; }

  /// Bytes of the two encoded pools — the number the >= 2x-vs-CSR
  /// compression acceptance compares.
  size_t CompressedPostingBytes() const {
    return doc_pool_.size() + tf_pool_.size();
  }
  /// Pools plus every metadata column.
  size_t MemoryBytes() const;

  /// Serializes every column (pools, offsets, skip + max metadata) in
  /// index order. `include_maxes` matches the format version: v1 blobs
  /// predate the max-score columns, v2 blobs carry them.
  void AppendTo(BinaryWriter* writer, bool include_maxes) const;

  /// Parses an AppendTo payload. Validates counts against the remaining
  /// bytes before any allocation, CSR monotonicity, and blob offsets;
  /// callers owning the blob format must then run ValidateBlocksDecode
  /// (codec well-formedness, doc ordering). When `expect_maxes` is false
  /// (a v1 blob), the max columns come back empty; call
  /// RecomputeMaxScores before handing the store to a cursor.
  [[nodiscard]] static StatusOr<BlockPostingsStore> ReadFrom(
      BinaryReader* reader, bool expect_maxes);

  /// Rebuilds the per-block / per-term max-score columns by decoding
  /// every block and evaluating the exact default-parameter contribution
  /// idf * tf * (k1+1) / (tf + norm) — the v1-blob upgrade path.
  [[nodiscard]] Status RecomputeMaxScores(Span<const double> term_idf,
                                          Span<const double> default_norm);

  /// Decodes every block and rejects malformed codec payloads,
  /// non-ascending or out-of-range doc ids, zero tfs, and skip pointers
  /// that disagree with block contents. Run on every untrusted load (v1
  /// gets the decode for free via RecomputeMaxScores but still needs the
  /// range checks).
  [[nodiscard]] Status ValidateBlocksDecode(uint64_t num_docs) const;

  // ---- Cursor support (read-only views over the frozen columns) ----
  uint32_t TermFirstBlock(uint32_t tid) const {
    return term_block_offset_[tid];
  }
  uint32_t BlockLastDoc(uint32_t block) const {
    return block_last_doc_[block];
  }
  double BlockMaxScore(uint32_t block) const { return block_max_score_[block]; }
  /// Docs held by global block `block` of term `tid` (all blocks are full
  /// except a term's last).
  uint32_t BlockDocCount(uint32_t tid, uint32_t block) const;
  /// Decodes one block's doc ids and tfs into `docs[0..count)` /
  /// `tfs[0..count)`; count = BlockDocCount. Encoded gaps are rebased on
  /// the previous block's last doc (0 for a term's first block).
  [[nodiscard]] Status DecodeBlockInto(uint32_t tid, uint32_t block,
                                       uint32_t* docs, uint32_t* tfs) const;

 private:
  friend class Builder;

  [[nodiscard]] Status LoadColumns(BinaryReader* reader, bool expect_maxes);
  [[nodiscard]] Status ValidateAfterLoad(bool expect_maxes);

  uint64_t num_postings_ = 0;
  std::vector<uint32_t> term_block_offset_;  ///< terms+1, global block CSR.
  std::vector<uint32_t> term_postings_;      ///< Postings per term.
  std::vector<double> term_max_score_;       ///< Max contribution per term.
  std::vector<uint32_t> block_last_doc_;     ///< Skip pointer per block.
  std::vector<double> block_max_score_;      ///< Max contribution per block.
  std::vector<uint64_t> block_doc_offset_;   ///< blocks+1 into doc_pool_.
  std::vector<uint64_t> block_tf_offset_;    ///< blocks+1 into tf_pool_.
  std::vector<uint8_t> doc_pool_;            ///< Encoded doc-gap blobs.
  std::vector<uint8_t> tf_pool_;             ///< Encoded tf-1 blobs.
};

class BlockPostingsStore::Builder {
 public:
  /// Appends term `tid` (== number of AddTerm calls so far). `scores[i]`
  /// is the exact BM25 contribution of posting i (default parameters);
  /// the builder folds these into per-block and per-term maxima.
  void AddTerm(Span<const uint32_t> docs, Span<const uint32_t> tfs,
               Span<const double> scores);

  BlockPostingsStore Finish();

 private:
  BlockPostingsStore store_;
  std::vector<uint32_t> scratch_;
  bool finished_ = false;
};

/// Skip-capable decoding iterator over one term's block postings. The
/// cursor is always positioned on a real posting (or at the end); blocks
/// are decoded lazily, so NextGEQ jumps straight to the target's block via
/// the last-doc skip pointers and never touches the blocks in between.
class PostingCursor {
 public:
  /// doc() value once the list is exhausted; compares greater than every
  /// real doc id.
  static constexpr uint32_t kEndDoc = 0xffffffffu;

  PostingCursor() = default;
  PostingCursor(const BlockPostingsStore* store, uint32_t tid);

  uint32_t doc() const { return cur_doc_; }
  /// Term frequency at the current posting (undefined at end).
  uint32_t tf() const {
    CKR_DCHECK(!AtEnd());
    return tfs_[pos_];
  }
  bool AtEnd() const { return cur_doc_ == kEndDoc; }

  uint32_t postings() const { return postings_; }
  double term_max_score() const { return term_max_; }
  /// Upper bound of the current block (undefined at end).
  double block_max_score() const {
    CKR_DCHECK(!AtEnd());
    return store_->BlockMaxScore(first_block_ + cur_block_);
  }

  /// Advances one posting.
  void Next();
  /// Advances to the first posting with doc >= target (no-op when already
  /// there). Skips and never decodes blocks whose last doc < target.
  void NextGEQ(uint32_t target);

  /// Shallow Block-Max-WAND probe: the max score and last doc of the
  /// block that contains the first posting >= target, without moving the
  /// cursor or decoding anything. Requires doc() <= target < kEndDoc.
  struct BlockBound {
    double max_score = 0.0;
    uint32_t last_doc = kEndDoc;
  };
  BlockBound ShallowBound(uint32_t target) const;

 private:
  void DecodeBlock(uint32_t rel_block);

  const BlockPostingsStore* store_ = nullptr;
  uint32_t tid_ = 0;
  uint32_t first_block_ = 0;
  uint32_t num_blocks_ = 0;
  uint32_t postings_ = 0;
  double term_max_ = 0.0;
  uint32_t cur_block_ = 0;  ///< Relative to first_block_.
  uint32_t count_ = 0;      ///< Postings in the decoded block.
  uint32_t pos_ = 0;        ///< Index into the decoded block.
  uint32_t cur_doc_ = kEndDoc;
  uint32_t docs_[kPostingBlockSize];
  uint32_t tfs_[kPostingBlockSize];
};

}  // namespace ckr

#endif  // CKR_INDEX_BLOCK_POSTINGS_H_
