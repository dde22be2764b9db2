#include "index/block_postings.h"

#include <algorithm>

#include "obs/hooks.h"

namespace ckr {

PostingCursor::PostingCursor(Span<const uint32_t> docs,
                             Span<const uint32_t> tfs,
                             Span<const double> block_max)
    : docs_(docs.data()),
      tfs_(tfs.data()),
      block_max_(block_max.data()),
      size_(static_cast<uint32_t>(docs.size())),
      num_blocks_(BlocksFor(docs.size())) {
  CKR_DCHECK_EQ(docs.size(), tfs.size());
  CKR_DCHECK_EQ(block_max.size(), num_blocks_);
  if (size_ == 0) return;  // cur_doc_ stays kEndDoc.
  EnterBlock(0);
  cur_doc_ = docs_[0];
}

void PostingCursor::EnterBlock(uint32_t b) {
  pos_ = b * kPostingBlockSize;
  // The name dates from block-compressed postings, when entering a block
  // meant decoding it; dashboards and benches read it under that name.
  CKR_OBS_COUNTER_INC("ckr.index.blocks_decoded");
}

void PostingCursor::Next() {
  CKR_DCHECK(!AtEnd());
  const uint32_t next = pos_ + 1;
  if (next >= size_) {
    cur_doc_ = kEndDoc;
    return;
  }
  if (next % kPostingBlockSize == 0) {
    EnterBlock(next / kPostingBlockSize);
  } else {
    pos_ = next;
  }
  cur_doc_ = docs_[pos_];
}

void PostingCursor::NextGEQ(uint32_t target) {
  if (cur_doc_ >= target) return;  // Covers AtEnd: kEndDoc >= everything.
  const uint32_t cur_block = pos_ / kPostingBlockSize;
  uint32_t b = cur_block;
  if (target > BlockLastDoc(b)) {
    // Skip forward over whole blocks via their last docs; the postings
    // passed over are never read.
    ++b;
    while (b < num_blocks_ && BlockLastDoc(b) < target) ++b;
    CKR_OBS_COUNTER_ADD("ckr.index.blocks_skipped", b - cur_block - 1);
    if (b >= num_blocks_) {
      cur_doc_ = kEndDoc;
      return;
    }
    EnterBlock(b);
  }
  // The target's first posting lies in block b, at or after pos_.
  const uint32_t end = std::min((b + 1) * kPostingBlockSize, size_);
  pos_ = static_cast<uint32_t>(
      std::lower_bound(docs_ + pos_, docs_ + end, target) - docs_);
  CKR_DCHECK_LT(pos_, end);
  cur_doc_ = docs_[pos_];
}

PostingCursor::BlockBound PostingCursor::ShallowBound(uint32_t target) const {
  CKR_DCHECK(!AtEnd());
  CKR_DCHECK_LE(cur_doc_, target);
  uint32_t b = pos_ / kPostingBlockSize;
  while (b < num_blocks_ && BlockLastDoc(b) < target) ++b;
  if (b >= num_blocks_) return {0.0, kEndDoc};
  return {block_max_[b], BlockLastDoc(b)};
}

}  // namespace ckr
