#include "index/block_postings.h"

#include <algorithm>
#include <string_view>

#include "common/binary_io.h"
#include "index/block_codecs.h"
#include "index/top_k.h"
#include "obs/hooks.h"

namespace ckr {
namespace {

/// Number of 128-entry blocks covering `postings`.
inline uint32_t BlocksFor(uint32_t postings) {
  return (postings + kPostingBlockSize - 1) / kPostingBlockSize;
}

}  // namespace

// ---- Builder ----

void BlockPostingsStore::Builder::AddTerm(Span<const uint32_t> docs,
                                          Span<const uint32_t> tfs,
                                          Span<const double> scores) {
  CKR_DCHECK(!finished_);
  CKR_DCHECK_EQ(docs.size(), tfs.size());
  CKR_DCHECK_EQ(docs.size(), scores.size());
  BlockPostingsStore& s = store_;
  if (s.term_block_offset_.empty()) {
    s.term_block_offset_.push_back(0);
    s.block_doc_offset_.push_back(0);
    s.block_tf_offset_.push_back(0);
  }
  const uint32_t n = static_cast<uint32_t>(docs.size());
  s.term_postings_.push_back(n);
  s.num_postings_ += n;

  double term_max = 0.0;
  for (uint32_t begin = 0; begin < n; begin += kPostingBlockSize) {
    const uint32_t count = std::min(kPostingBlockSize, n - begin);
    // Doc column: gaps minus one, rebased on the previous block's last
    // doc (a term's first block starts from zero).
    const uint32_t base = begin == 0 ? 0 : docs[begin - 1] + 1;
    scratch_.resize(count);
    CKR_DCHECK_LE(base, docs[begin]);
    scratch_[0] = docs[begin] - base;
    for (uint32_t j = 1; j < count; ++j) {
      CKR_DCHECK_LT(docs[begin + j - 1], docs[begin + j]);
      scratch_[j] = docs[begin + j] - docs[begin + j - 1] - 1;
    }
    EncodeBlock(scratch_.data(), count, &s.doc_pool_);
    s.block_doc_offset_.push_back(s.doc_pool_.size());
    // Tf column: tf minus one (every posting has tf >= 1).
    for (uint32_t j = 0; j < count; ++j) {
      CKR_DCHECK_GE(tfs[begin + j], 1u);
      scratch_[j] = tfs[begin + j] - 1;
    }
    EncodeBlock(scratch_.data(), count, &s.tf_pool_);
    s.block_tf_offset_.push_back(s.tf_pool_.size());

    s.block_last_doc_.push_back(docs[begin + count - 1]);
    double block_max = 0.0;
    for (uint32_t j = 0; j < count; ++j) {
      block_max = std::max(block_max, scores[begin + j]);
    }
    s.block_max_score_.push_back(block_max);
    term_max = std::max(term_max, block_max);
  }
  s.term_block_offset_.push_back(
      static_cast<uint32_t>(s.block_last_doc_.size()));
  s.term_max_score_.push_back(term_max);
}

BlockPostingsStore BlockPostingsStore::Builder::Finish() {
  CKR_DCHECK(!finished_);
  finished_ = true;
  BlockPostingsStore& s = store_;
  if (s.term_block_offset_.empty()) {
    s.term_block_offset_.push_back(0);
    s.block_doc_offset_.push_back(0);
    s.block_tf_offset_.push_back(0);
  }
  s.doc_pool_.shrink_to_fit();
  s.tf_pool_.shrink_to_fit();
  return std::move(store_);
}

// ---- Store ----

uint32_t BlockPostingsStore::BlockDocCount(uint32_t tid,
                                           uint32_t block) const {
  CKR_DCHECK_LE(term_block_offset_[tid], block);
  CKR_DCHECK_LT(block, term_block_offset_[tid + 1]);
  if (block + 1 < term_block_offset_[tid + 1]) return kPostingBlockSize;
  const uint32_t full_blocks = term_block_offset_[tid + 1] -
                               term_block_offset_[tid] - 1;
  return term_postings_[tid] - full_blocks * kPostingBlockSize;
}

Status BlockPostingsStore::DecodeBlockInto(uint32_t tid, uint32_t block,
                                           uint32_t* docs,
                                           uint32_t* tfs) const {
  const uint32_t count = BlockDocCount(tid, block);
  const size_t doc_begin = block_doc_offset_[block];
  Status s = DecodeBlock(doc_pool_.data() + doc_begin,
                         block_doc_offset_[block + 1] - doc_begin, count,
                         docs);
  if (!s.ok()) return s;
  const size_t tf_begin = block_tf_offset_[block];
  s = DecodeBlock(tf_pool_.data() + tf_begin,
                  block_tf_offset_[block + 1] - tf_begin, count, tfs);
  if (!s.ok()) return s;
  const uint32_t base =
      block == term_block_offset_[tid] ? 0 : block_last_doc_[block - 1] + 1;
  docs[0] += base;
  for (uint32_t j = 1; j < count; ++j) {
    docs[j] += docs[j - 1] + 1;
  }
  for (uint32_t j = 0; j < count; ++j) {
    tfs[j] += 1;
  }
  return Status::OK();
}

Status BlockPostingsStore::ValidateBlocksDecode(uint64_t num_docs) const {
  uint32_t docs[kPostingBlockSize];
  uint32_t tfs[kPostingBlockSize];
  for (size_t t = 0; t < NumTerms(); ++t) {
    const uint32_t tid = static_cast<uint32_t>(t);
    for (uint32_t b = term_block_offset_[t]; b < term_block_offset_[t + 1];
         ++b) {
      Status s = DecodeBlockInto(tid, b, docs, tfs);
      if (!s.ok()) return s;
      const uint32_t count = BlockDocCount(tid, b);
      for (uint32_t j = 0; j < count; ++j) {
        if (j > 0 && docs[j] <= docs[j - 1]) {
          return Status::InvalidArgument(
              "block postings: doc ids not strictly ascending");
        }
        if (docs[j] >= num_docs) {
          return Status::InvalidArgument(
              "block postings: doc id out of range");
        }
        if (tfs[j] == 0) {
          return Status::InvalidArgument("block postings: zero tf");
        }
      }
      if (docs[count - 1] != block_last_doc_[b]) {
        return Status::InvalidArgument(
            "block postings: skip pointer disagrees with block contents");
      }
    }
  }
  return Status::OK();
}

size_t BlockPostingsStore::MemoryBytes() const {
  return doc_pool_.capacity() + tf_pool_.capacity() +
         term_block_offset_.capacity() * sizeof(uint32_t) +
         term_postings_.capacity() * sizeof(uint32_t) +
         term_max_score_.capacity() * sizeof(double) +
         block_last_doc_.capacity() * sizeof(uint32_t) +
         block_max_score_.capacity() * sizeof(double) +
         block_doc_offset_.capacity() * sizeof(uint64_t) +
         block_tf_offset_.capacity() * sizeof(uint64_t);
}

void BlockPostingsStore::AppendTo(BinaryWriter* writer,
                                  bool include_maxes) const {
  const size_t terms = NumTerms();
  const size_t blocks = NumBlocks();
  writer->U64(static_cast<uint64_t>(terms));
  writer->U64(static_cast<uint64_t>(blocks));
  writer->U64(num_postings_);
  for (uint32_t v : term_block_offset_) writer->U32(v);
  for (uint32_t v : term_postings_) writer->U32(v);
  for (uint32_t v : block_last_doc_) writer->U32(v);
  for (uint64_t v : block_doc_offset_) writer->U64(v);
  for (uint64_t v : block_tf_offset_) writer->U64(v);
  CKR_CHECK(doc_pool_.size() <= 0xffffffffull);
  CKR_CHECK(tf_pool_.size() <= 0xffffffffull);
  auto pool_view = [](const std::vector<uint8_t>& pool) {
    return pool.empty()
               ? std::string_view()
               : std::string_view(reinterpret_cast<const char*>(pool.data()),
                                  pool.size());
  };
  writer->Str(pool_view(doc_pool_));
  writer->Str(pool_view(tf_pool_));
  if (include_maxes) {
    for (double v : block_max_score_) writer->F64(v);
    for (double v : term_max_score_) writer->F64(v);
  }
}

Status BlockPostingsStore::LoadColumns(BinaryReader* reader,
                                       bool expect_maxes) {
  const uint64_t terms = reader->U64();
  const uint64_t blocks = reader->U64();
  num_postings_ = reader->U64();
  if (!reader->ok()) {
    return Status::InvalidArgument("block postings: truncated header");
  }
  // Every declared count is checked against the bytes actually present
  // before any resize (the store-pack deserialization discipline).
  auto fits = [&](uint64_t count, size_t elem) {
    return count <= reader->remaining() / elem;
  };
  if (!fits(terms + 1, 4) || terms > 0xffffffffull) {
    return Status::InvalidArgument("block postings: term count too large");
  }
  if (!fits(blocks, 4) || blocks > 0xfffffffeull) {
    return Status::InvalidArgument("block postings: block count too large");
  }
  term_block_offset_.resize(static_cast<size_t>(terms) + 1);
  for (uint32_t& v : term_block_offset_) v = reader->U32();
  term_postings_.resize(static_cast<size_t>(terms));
  for (uint32_t& v : term_postings_) v = reader->U32();
  if (!fits(blocks, 4)) {
    return Status::InvalidArgument("block postings: truncated skip column");
  }
  block_last_doc_.resize(static_cast<size_t>(blocks));
  for (uint32_t& v : block_last_doc_) v = reader->U32();
  if (!fits(2 * (blocks + 1), 8)) {
    return Status::InvalidArgument("block postings: truncated offsets");
  }
  block_doc_offset_.resize(static_cast<size_t>(blocks) + 1);
  for (uint64_t& v : block_doc_offset_) v = reader->U64();
  block_tf_offset_.resize(static_cast<size_t>(blocks) + 1);
  for (uint64_t& v : block_tf_offset_) v = reader->U64();
  const std::string doc_bytes = reader->Str();
  doc_pool_.assign(doc_bytes.begin(), doc_bytes.end());
  const std::string tf_bytes = reader->Str();
  tf_pool_.assign(tf_bytes.begin(), tf_bytes.end());
  if (expect_maxes) {
    if (!fits(blocks + terms, 8)) {
      return Status::InvalidArgument("block postings: truncated max columns");
    }
    block_max_score_.resize(static_cast<size_t>(blocks));
    for (double& v : block_max_score_) v = reader->F64();
    term_max_score_.resize(static_cast<size_t>(terms));
    for (double& v : term_max_score_) v = reader->F64();
  }
  if (!reader->ok()) {
    return Status::InvalidArgument("block postings: truncated payload");
  }
  return Status::OK();
}

Status BlockPostingsStore::ValidateAfterLoad(bool expect_maxes) {
  const size_t terms = NumTerms();
  const size_t blocks = NumBlocks();
  if (term_block_offset_.front() != 0 ||
      term_block_offset_.back() != blocks) {
    return Status::InvalidArgument("block postings: bad block CSR bounds");
  }
  uint64_t postings = 0;
  for (size_t t = 0; t < terms; ++t) {
    if (term_block_offset_[t] > term_block_offset_[t + 1]) {
      return Status::InvalidArgument("block postings: block CSR not sorted");
    }
    const uint32_t nblocks = term_block_offset_[t + 1] - term_block_offset_[t];
    if (nblocks != BlocksFor(term_postings_[t])) {
      return Status::InvalidArgument(
          "block postings: block count disagrees with posting count");
    }
    postings += term_postings_[t];
  }
  if (postings != num_postings_) {
    return Status::InvalidArgument("block postings: posting count mismatch");
  }
  if (block_doc_offset_.front() != 0 ||
      block_doc_offset_.back() != doc_pool_.size() ||
      block_tf_offset_.front() != 0 ||
      block_tf_offset_.back() != tf_pool_.size()) {
    return Status::InvalidArgument("block postings: pool offset bounds");
  }
  for (size_t b = 0; b < blocks; ++b) {
    if (block_doc_offset_[b] > block_doc_offset_[b + 1] ||
        block_tf_offset_[b] > block_tf_offset_[b + 1]) {
      return Status::InvalidArgument("block postings: offsets not sorted");
    }
  }
  if (expect_maxes && (block_max_score_.size() != blocks ||
                       term_max_score_.size() != terms)) {
    return Status::InvalidArgument("block postings: max column size");
  }
  return Status::OK();
}

StatusOr<BlockPostingsStore> BlockPostingsStore::ReadFrom(
    BinaryReader* reader, bool expect_maxes) {
  BlockPostingsStore store;
  Status s = store.LoadColumns(reader, expect_maxes);
  if (!s.ok()) return s;
  s = store.ValidateAfterLoad(expect_maxes);
  if (!s.ok()) return s;
  return store;
}

Status BlockPostingsStore::RecomputeMaxScores(
    Span<const double> term_idf, Span<const double> default_norm) {
  const Bm25Params defaults;
  const size_t terms = NumTerms();
  if (term_idf.size() != terms) {
    return Status::InvalidArgument("recompute maxes: idf size mismatch");
  }
  block_max_score_.assign(NumBlocks(), 0.0);
  term_max_score_.assign(terms, 0.0);
  uint32_t docs[kPostingBlockSize];
  uint32_t tfs[kPostingBlockSize];
  for (size_t t = 0; t < terms; ++t) {
    const uint32_t tid = static_cast<uint32_t>(t);
    double term_max = 0.0;
    for (uint32_t b = term_block_offset_[t]; b < term_block_offset_[t + 1];
         ++b) {
      Status s = DecodeBlockInto(tid, b, docs, tfs);
      if (!s.ok()) return s;
      const uint32_t count = BlockDocCount(tid, b);
      double block_max = 0.0;
      for (uint32_t j = 0; j < count; ++j) {
        if (docs[j] >= default_norm.size()) {
          return Status::InvalidArgument("recompute maxes: doc out of range");
        }
        const double tf = static_cast<double>(tfs[j]);
        const double c = term_idf[t] * tf * (defaults.k1 + 1.0) /
                         (tf + default_norm[docs[j]]);
        block_max = std::max(block_max, c);
      }
      block_max_score_[b] = block_max;
      term_max = std::max(term_max, block_max);
    }
    term_max_score_[t] = term_max;
  }
  return Status::OK();
}

// ---- PostingCursor ----

PostingCursor::PostingCursor(const BlockPostingsStore* store, uint32_t tid)
    : store_(store), tid_(tid) {
  first_block_ = store->TermFirstBlock(tid);
  num_blocks_ = store->TermBlocks(tid);
  postings_ = store->TermPostings(tid);
  term_max_ = store->TermMaxScore(tid);
  if (num_blocks_ == 0) return;  // cur_doc_ stays kEndDoc.
  DecodeBlock(0);
  pos_ = 0;
  cur_doc_ = docs_[0];
}

void PostingCursor::DecodeBlock(uint32_t rel_block) {
  cur_block_ = rel_block;
  count_ = store_->BlockDocCount(tid_, first_block_ + rel_block);
  Status s =
      store_->DecodeBlockInto(tid_, first_block_ + rel_block, docs_, tfs_);
  (void)s;
  CKR_DCHECK(s.ok());
  CKR_OBS_COUNTER_INC("ckr.index.blocks_decoded");
}

void PostingCursor::Next() {
  CKR_DCHECK(!AtEnd());
  if (pos_ + 1 < count_) {
    ++pos_;
    cur_doc_ = docs_[pos_];
    return;
  }
  if (cur_block_ + 1 >= num_blocks_) {
    cur_doc_ = kEndDoc;
    return;
  }
  DecodeBlock(cur_block_ + 1);
  pos_ = 0;
  cur_doc_ = docs_[0];
}

void PostingCursor::NextGEQ(uint32_t target) {
  if (cur_doc_ >= target) return;  // Covers AtEnd: kEndDoc >= everything.
  if (target <= store_->BlockLastDoc(first_block_ + cur_block_)) {
    // Target lives in the already-decoded block.
    while (docs_[pos_] < target) {
      ++pos_;
      CKR_DCHECK_LT(pos_, count_);
    }
    cur_doc_ = docs_[pos_];
    return;
  }
  // Skip forward over whole blocks via the last-doc pointers; the blocks
  // passed over are never decoded.
  uint32_t b = cur_block_ + 1;
  while (b < num_blocks_ &&
         store_->BlockLastDoc(first_block_ + b) < target) {
    ++b;
  }
  CKR_OBS_COUNTER_ADD("ckr.index.blocks_skipped", b - cur_block_ - 1);
  if (b >= num_blocks_) {
    cur_doc_ = kEndDoc;
    return;
  }
  DecodeBlock(b);
  pos_ = 0;
  while (docs_[pos_] < target) {
    ++pos_;
    CKR_DCHECK_LT(pos_, count_);
  }
  cur_doc_ = docs_[pos_];
}

PostingCursor::BlockBound PostingCursor::ShallowBound(uint32_t target) const {
  CKR_DCHECK(!AtEnd());
  CKR_DCHECK_LE(cur_doc_, target);
  uint32_t b = cur_block_;
  while (b < num_blocks_ &&
         store_->BlockLastDoc(first_block_ + b) < target) {
    ++b;
  }
  if (b >= num_blocks_) return {0.0, kEndDoc};
  return {store_->BlockMaxScore(first_block_ + b),
          store_->BlockLastDoc(first_block_ + b)};
}

}  // namespace ckr
