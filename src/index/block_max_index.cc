#include "index/block_max_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/binary_io.h"
#include "obs/hooks.h"

namespace ckr {
namespace {

/// One live query term inside an evaluator. `orig` is the term's position
/// in the query's tids span — the summation slot that keeps every fl-sum
/// in query order.
struct QueryTerm {
  size_t orig = 0;
  uint32_t tid = 0;
  double max_score = 0.0;
  PostingCursor cursor;
};

/// fl-adds (orig, value) pairs in ascending orig order. Bitwise equal to
/// the exhaustive accumulator's per-doc sum: that sum adds the same
/// positive values in the same query order, and the terms missing here
/// would add an exact 0.0 — an identity on the nonnegative partial sums.
double SumInQueryOrder(std::vector<std::pair<size_t, double>>* vals) {
  std::sort(vals->begin(), vals->end(),
            [](const std::pair<size_t, double>& a,
               const std::pair<size_t, double>& b) {
              return a.first < b.first;
            });
  double s = 0.0;
  for (const auto& [orig, v] : *vals) {
    (void)orig;
    s += v;
  }
  return s;
}

/// Pushes into the heap and counts k-th-score (pruning threshold) changes.
void PushCounted(TopKHeap* heap, const SearchResult& r) {
  const bool was_full = heap->Full();
  const double old_threshold = was_full ? heap->ThresholdScore() : 0.0;
  heap->Push(r);
  if (heap->Full() &&
      (!was_full || heap->ThresholdScore() != old_threshold)) {
    CKR_OBS_COUNTER_INC("ckr.index.threshold_updates");
  }
}

}  // namespace

// ---- Builder ----

BlockMaxIndex::Builder::Builder(std::vector<DocId> ext_ids,
                                std::vector<double> default_norm) {
  CKR_CHECK_EQ(ext_ids.size(), default_norm.size());
  index_.ext_id_ = std::move(ext_ids);
  index_.default_norm_ = std::move(default_norm);
}

void BlockMaxIndex::Builder::AddTerm(Span<const uint32_t> docs,
                                     Span<const uint32_t> tfs) {
  CKR_CHECK(explicit_idf_.empty());  // One AddTerm flavour per builder.
  const double n = static_cast<double>(index_.ext_id_.size());
  const double dfd = static_cast<double>(docs.size());
  const double idf = std::log(1.0 + (n - dfd + 0.5) / (dfd + 0.5));
  AddTermScored(docs, tfs, idf);
}

void BlockMaxIndex::Builder::AddTerm(Span<const uint32_t> docs,
                                     Span<const uint32_t> tfs, double idf) {
  CKR_CHECK_EQ(explicit_idf_.size(), terms_added_);
  explicit_idf_.push_back(idf);
  AddTermScored(docs, tfs, idf);
}

void BlockMaxIndex::Builder::AddTermScored(Span<const uint32_t> docs,
                                           Span<const uint32_t> tfs,
                                           double idf) {
  const Bm25Params defaults;
  scores_.resize(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    const double tf = static_cast<double>(tfs[i]);
    scores_[i] = idf * tf * (defaults.k1 + 1.0) /
                 (tf + index_.default_norm_[docs[i]]);
  }
  store_builder_.AddTerm(docs, tfs, MakeSpan(scores_));
  ++terms_added_;
}

BlockMaxIndex BlockMaxIndex::Builder::Finish() {
  index_.store_ = store_builder_.Finish();
  if (explicit_idf_.empty()) {
    index_.RecomputeIdf();
  } else {
    CKR_CHECK_EQ(explicit_idf_.size(), index_.store_.NumTerms());
    index_.term_idf_ = std::move(explicit_idf_);
  }
  return std::move(index_);
}

// ---- Scoring ----

double BlockMaxIndex::Contribution(uint32_t tid, uint32_t doc,
                                   uint32_t tf) const {
  const Bm25Params defaults;
  const double tfd = static_cast<double>(tf);
  return term_idf_[tid] * tfd * (defaults.k1 + 1.0) /
         (tfd + default_norm_[doc]);
}

void BlockMaxIndex::RecomputeIdf() {
  const double n = static_cast<double>(ext_id_.size());
  term_idf_.resize(store_.NumTerms());
  for (size_t t = 0; t < term_idf_.size(); ++t) {
    const double dfd =
        static_cast<double>(store_.TermPostings(static_cast<uint32_t>(t)));
    term_idf_[t] = std::log(1.0 + (n - dfd + 0.5) / (dfd + 0.5));
  }
}

std::vector<SearchResult> BlockMaxIndex::TopK(Span<const uint32_t> tids,
                                              size_t k,
                                              QueryEvaluator evaluator) const {
  switch (evaluator) {
    case QueryEvaluator::kExhaustive:
      return TopKExhaustive(tids, k);
    case QueryEvaluator::kMaxScore:
      return TopKMaxScore(tids, k);
    case QueryEvaluator::kBlockMaxWand:
      return TopKBlockMaxWand(tids, k);
  }
  CKR_CHECK(false && "unreachable evaluator");
  return {};
}

// ---- Exhaustive (cursor-driven document-at-a-time union) ----

std::vector<SearchResult> BlockMaxIndex::TopKExhaustive(
    Span<const uint32_t> tids, size_t k) const {
  std::vector<QueryTerm> terms;
  terms.reserve(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    QueryTerm qt;
    qt.orig = i;
    qt.tid = tids[i];
    qt.cursor = PostingCursor(&store_, tids[i]);
    if (!qt.cursor.AtEnd()) terms.push_back(std::move(qt));
  }
  TopKHeap heap(k);
  std::vector<std::pair<size_t, double>> vals;
  while (true) {
    uint32_t d = PostingCursor::kEndDoc;
    for (const QueryTerm& t : terms) d = std::min(d, t.cursor.doc());
    if (d == PostingCursor::kEndDoc) break;
    vals.clear();
    for (QueryTerm& t : terms) {
      if (t.cursor.doc() != d) continue;
      vals.emplace_back(t.orig, Contribution(t.tid, d, t.cursor.tf()));
    }
    CKR_OBS_COUNTER_ADD("ckr.index.postings_scored", vals.size());
    PushCounted(&heap, {ext_id_[d], SumInQueryOrder(&vals)});
    for (QueryTerm& t : terms) {
      if (t.cursor.doc() == d) t.cursor.Next();
    }
  }
  return heap.Take();
}

// ---- MaxScore ----
//
// Terms are ordered by ascending list-wide maximum; the non-essential set
// is the longest prefix whose query-order max-sum stays strictly below
// the current k-th score — a document found *only* in those lists scores
// at most that sum (elementwise dominance, monotone fl-addition) and so
// can never enter. Candidates are generated from the essential lists in
// ascending doc order; non-essential lists are probed with NextGEQ only
// while the candidate's score bound still reaches the threshold. The
// threshold never decreases, so the non-essential prefix only grows and
// demoted cursors are never consulted as candidate generators again.

std::vector<SearchResult> BlockMaxIndex::TopKMaxScore(
    Span<const uint32_t> tids, size_t k) const {
  const size_t m_all = tids.size();
  std::vector<QueryTerm> terms;
  terms.reserve(m_all);
  for (size_t i = 0; i < m_all; ++i) {
    QueryTerm qt;
    qt.orig = i;
    qt.tid = tids[i];
    qt.max_score = store_.TermMaxScore(tids[i]);
    qt.cursor = PostingCursor(&store_, tids[i]);
    if (!qt.cursor.AtEnd()) terms.push_back(std::move(qt));
  }
  std::sort(terms.begin(), terms.end(),
            [](const QueryTerm& a, const QueryTerm& b) {
              if (a.max_score != b.max_score) return a.max_score < b.max_score;
              return a.orig < b.orig;
            });
  const size_t m = terms.size();
  TopKHeap heap(k);
  if (m == 0 || k == 0) return heap.Take();

  // contrib[orig] carries each term's current value for the candidate:
  // the exact contribution once the term's list was consulted, the term
  // maximum while it was not. Summed in query (orig) order it is the
  // candidate's score upper bound, and once every entry is exact it *is*
  // the candidate's score, bit-identical to the exhaustive sum.
  std::vector<double> contrib(m_all, 0.0);
  auto sum_contrib = [&contrib, m_all]() {
    double s = 0.0;
    for (size_t i = 0; i < m_all; ++i) s += contrib[i];
    return s;
  };
  // Query-order max-sum of the first `p` (lowest-max) terms.
  auto prefix_bound = [&](size_t p) {
    for (size_t j = 0; j < p; ++j) contrib[terms[j].orig] = terms[j].max_score;
    const double s = sum_contrib();
    for (size_t j = 0; j < p; ++j) contrib[terms[j].orig] = 0.0;
    return s;
  };

  size_t ness = 0;  // terms[0..ness) are non-essential.
  while (true) {
    if (heap.Full()) {
      const double theta = heap.ThresholdScore();
      while (ness < m && prefix_bound(ness + 1) < theta) ++ness;
      if (ness == m) break;  // Even all terms together fall short.
    }
    uint32_t d = PostingCursor::kEndDoc;
    for (size_t j = ness; j < m; ++j) {
      d = std::min(d, terms[j].cursor.doc());
    }
    if (d == PostingCursor::kEndDoc) break;

    for (size_t i = 0; i < m_all; ++i) contrib[i] = 0.0;
    for (size_t j = 0; j < ness; ++j) {
      contrib[terms[j].orig] = terms[j].max_score;
    }
    for (size_t j = ness; j < m; ++j) {
      if (terms[j].cursor.doc() != d) continue;
      contrib[terms[j].orig] = Contribution(terms[j].tid, d,
                                            terms[j].cursor.tf());
      CKR_OBS_COUNTER_INC("ckr.index.postings_scored");
    }
    double bound = sum_contrib();
    // Probe non-essential lists from the largest maximum down; every probe
    // replaces a maximum with the exact contribution (or 0), so the bound
    // only tightens and the strict-threshold exit stays safe.
    bool rejected = false;
    for (size_t j = ness; j-- > 0;) {
      if (heap.Full() && bound < heap.ThresholdScore()) {
        rejected = true;
        break;
      }
      terms[j].cursor.NextGEQ(d);
      if (terms[j].cursor.doc() == d) {
        contrib[terms[j].orig] = Contribution(terms[j].tid, d,
                                              terms[j].cursor.tf());
        CKR_OBS_COUNTER_INC("ckr.index.postings_scored");
      } else {
        contrib[terms[j].orig] = 0.0;
      }
      bound = sum_contrib();
    }
    if (!rejected) {
      // Every contrib entry is exact now; bound == score.
      PushCounted(&heap, {ext_id_[d], bound});
    }
    for (size_t j = ness; j < m; ++j) {
      if (terms[j].cursor.doc() == d) terms[j].cursor.Next();
    }
  }
  return heap.Take();
}

// ---- Block-Max-WAND ----
//
// Cursors stay sorted by current doc. The pivot is the first position
// where the query-order sum of list-wide maxima reaches the threshold:
// no document before the pivot's can enter (it appears only in lists
// whose max-sum falls strictly short). The pivot document is then tested
// against the *block* maxima of the lists at or before it — a much
// tighter bound. If even that falls short, every doc up to the smallest
// involved block boundary is skipped without decoding anything;
// otherwise the pivot is either scored exactly (when all preceding
// cursors align on it) or a preceding cursor is advanced to it.

std::vector<SearchResult> BlockMaxIndex::TopKBlockMaxWand(
    Span<const uint32_t> tids, size_t k) const {
  std::vector<QueryTerm> terms;
  terms.reserve(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    QueryTerm qt;
    qt.orig = i;
    qt.tid = tids[i];
    qt.max_score = store_.TermMaxScore(tids[i]);
    qt.cursor = PostingCursor(&store_, tids[i]);
    if (!qt.cursor.AtEnd()) terms.push_back(std::move(qt));
  }
  TopKHeap heap(k);
  if (terms.empty() || k == 0) return heap.Take();

  std::vector<QueryTerm*> order(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) order[i] = &terms[i];
  std::vector<std::pair<size_t, double>> vals;
  while (true) {
    std::sort(order.begin(), order.end(),
              [](const QueryTerm* a, const QueryTerm* b) {
                if (a->cursor.doc() != b->cursor.doc()) {
                  return a->cursor.doc() < b->cursor.doc();
                }
                return a->orig < b->orig;
              });
    size_t live = order.size();
    while (live > 0 && order[live - 1]->cursor.AtEnd()) --live;
    if (live == 0) break;

    // Pivot: smallest prefix whose query-order max-sum reaches theta.
    size_t p = 0;
    if (heap.Full()) {
      const double theta = heap.ThresholdScore();
      vals.clear();
      bool found = false;
      for (p = 0; p < live; ++p) {
        vals.emplace_back(order[p]->orig, order[p]->max_score);
        std::vector<std::pair<size_t, double>> copy = vals;
        if (SumInQueryOrder(&copy) >= theta) {
          found = true;
          break;
        }
      }
      if (!found) break;  // No remaining document can enter.
    }
    const uint32_t pivot_doc = order[p]->cursor.doc();
    // Extend over cursors already sitting on the pivot document.
    size_t pe = p;
    while (pe + 1 < live && order[pe + 1]->cursor.doc() == pivot_doc) ++pe;

    // Shallow probe: per-list block maxima at the pivot document.
    double block_bound = 0.0;
    uint32_t min_last = PostingCursor::kEndDoc;
    {
      vals.clear();
      for (size_t j = 0; j <= pe; ++j) {
        const PostingCursor::BlockBound bb =
            order[j]->cursor.ShallowBound(pivot_doc);
        vals.emplace_back(order[j]->orig, bb.max_score);
        min_last = std::min(min_last, bb.last_doc);
      }
      block_bound = SumInQueryOrder(&vals);
    }
    if (heap.Full() && block_bound < heap.ThresholdScore()) {
      // Not even the block maxima reach the threshold: every document up
      // to the nearest involved block boundary is unreachable. Jump past
      // it (clamped by the next list's current doc, whose contributions
      // the bound does not cover).
      uint32_t dprime = min_last == PostingCursor::kEndDoc
                            ? PostingCursor::kEndDoc
                            : min_last + 1;
      if (pe + 1 < live) {
        dprime = std::min(dprime, order[pe + 1]->cursor.doc());
      }
      dprime = std::max(dprime, pivot_doc + 1);
      for (size_t j = 0; j <= pe; ++j) {
        if (order[j]->cursor.doc() < dprime) order[j]->cursor.NextGEQ(dprime);
      }
      continue;
    }
    if (order[0]->cursor.doc() == pivot_doc) {
      // All cursors up to pe sit on the pivot: score it exactly.
      vals.clear();
      for (size_t j = 0; j <= pe; ++j) {
        vals.emplace_back(order[j]->orig,
                          Contribution(order[j]->tid, pivot_doc,
                                       order[j]->cursor.tf()));
      }
      CKR_OBS_COUNTER_ADD("ckr.index.postings_scored", pe + 1);
      PushCounted(&heap, {ext_id_[pivot_doc], SumInQueryOrder(&vals)});
      for (size_t j = 0; j <= pe; ++j) order[j]->cursor.Next();
    } else {
      // Advance the highest-impact trailing cursor up to the pivot.
      size_t adv = 0;
      for (size_t j = 1; j <= pe; ++j) {
        if (order[j]->cursor.doc() >= pivot_doc) continue;
        if (order[adv]->cursor.doc() >= pivot_doc ||
            order[j]->max_score > order[adv]->max_score ||
            (order[j]->max_score == order[adv]->max_score &&
             order[j]->orig < order[adv]->orig)) {
          adv = j;
        }
      }
      order[adv]->cursor.NextGEQ(pivot_doc);
    }
  }
  return heap.Take();
}

// ---- Serialization ----

std::string BlockMaxIndex::SerializeVersion(uint16_t version) const {
  CKR_CHECK(version >= 1 && version <= kBlockIndexVersion);
  BinaryWriter writer;
  writer.U32(kBlockIndexMagic);
  writer.U16(version);
  writer.U16(kBlockIndexCodecVarintGB);
  writer.U64(static_cast<uint64_t>(ext_id_.size()));
  writer.U64(static_cast<uint64_t>(store_.NumTerms()));
  for (DocId id : ext_id_) writer.U32(id);
  for (double v : default_norm_) writer.F64(v);
  store_.AppendTo(&writer, /*include_maxes=*/version >= 2);
  return writer.Release();
}

StatusOr<BlockMaxIndex> BlockMaxIndex::Deserialize(std::string_view blob) {
  BinaryReader reader(blob);
  if (reader.U32() != kBlockIndexMagic) {
    return Status::InvalidArgument("block index: bad magic");
  }
  const uint16_t version = reader.U16();
  if (version < 1 || version > kBlockIndexVersion) {
    return Status::InvalidArgument("block index: unsupported version");
  }
  if (reader.U16() != kBlockIndexCodecVarintGB) {
    return Status::InvalidArgument("block index: unknown codec");
  }
  const uint64_t num_docs = reader.U64();
  const uint64_t num_terms = reader.U64();
  if (!reader.ok()) {
    return Status::InvalidArgument("block index: truncated header");
  }
  // Doc indices are u32 with 0xffffffff reserved as the cursor's end
  // sentinel; counts beyond that (or beyond the bytes present) are
  // rejected before any allocation.
  if (num_docs >= 0xffffffffull ||
      num_docs > reader.remaining() / 12) {
    return Status::InvalidArgument("block index: doc count too large");
  }
  BlockMaxIndex index;
  index.ext_id_.resize(static_cast<size_t>(num_docs));
  for (DocId& id : index.ext_id_) id = reader.U32();
  index.default_norm_.resize(static_cast<size_t>(num_docs));
  for (double& v : index.default_norm_) {
    v = reader.F64();
    if (!(std::isfinite(v) && v > 0.0)) {
      return Status::InvalidArgument("block index: bad norm");
    }
  }
  if (!reader.ok()) {
    return Status::InvalidArgument("block index: truncated doc columns");
  }
  StatusOr<BlockPostingsStore> store_or =
      BlockPostingsStore::ReadFrom(&reader, /*expect_maxes=*/version >= 2);
  if (!store_or.ok()) return store_or.status();
  index.store_ = std::move(store_or).value();
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("block index: trailing bytes");
  }
  if (index.store_.NumTerms() != num_terms) {
    return Status::InvalidArgument("block index: term count mismatch");
  }
  CKR_RETURN_IF_ERROR(index.store_.ValidateBlocksDecode(num_docs));
  std::vector<DocId> sorted_ids = index.ext_id_;
  std::sort(sorted_ids.begin(), sorted_ids.end());
  if (std::adjacent_find(sorted_ids.begin(), sorted_ids.end()) !=
      sorted_ids.end()) {
    return Status::InvalidArgument("block index: duplicate external doc id");
  }
  index.RecomputeIdf();
  if (version < 2) {
    CKR_RETURN_IF_ERROR(index.store_.RecomputeMaxScores(
        MakeSpan(index.term_idf_), MakeSpan(index.default_norm_)));
  }
  return index;
}

size_t BlockMaxIndex::MemoryBytes() const {
  return store_.MemoryBytes() + ext_id_.capacity() * sizeof(DocId) +
         default_norm_.capacity() * sizeof(double) +
         term_idf_.capacity() * sizeof(double);
}

}  // namespace ckr
