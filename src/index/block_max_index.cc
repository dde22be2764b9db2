#include "index/block_max_index.h"

#include <algorithm>
#include <utility>

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

// ---- Build ----

BlockMaxIndex::BlockMaxIndex(const PostingColumns& cols,
                             std::vector<double> idf)
    : term_idf_(std::move(idf)) {
  const size_t num_terms = cols.NumTerms();
  CKR_CHECK_EQ(term_idf_.size(), num_terms);
  CKR_CHECK_EQ(cols.norm.size(), cols.ext_id.size());
  size_t num_blocks = 0;
  for (uint32_t t = 0; t < num_terms; ++t) {
    num_blocks += BlocksFor(cols.offset[t + 1] - cols.offset[t]);
  }
  term_block_offset_.reserve(num_terms + 1);
  term_block_offset_.push_back(0);
  term_max_score_.reserve(num_terms);
  block_max_score_.reserve(num_blocks);
  for (uint32_t t = 0; t < num_terms; ++t) {
    const Span<const uint32_t> docs = cols.Docs(t);
    const Span<const uint32_t> tfs = cols.Tfs(t);
    double term_max = 0.0;
    for (size_t begin = 0; begin < docs.size(); begin += kPostingBlockSize) {
      const size_t end =
          std::min<size_t>(docs.size(), begin + kPostingBlockSize);
      double block_max = 0.0;
      for (size_t i = begin; i < end; ++i) {
        block_max =
            std::max(block_max, Contribution(cols, t, docs[i], tfs[i]));
      }
      block_max_score_.push_back(block_max);
      term_max = std::max(term_max, block_max);
    }
    term_block_offset_.push_back(
        static_cast<uint32_t>(block_max_score_.size()));
    term_max_score_.push_back(term_max);
  }
}

// ---- Scoring ----

double BlockMaxIndex::Contribution(const PostingColumns& cols, uint32_t tid,
                                   uint32_t doc, uint32_t tf) const {
  const Bm25Params defaults;
  const double tfd = static_cast<double>(tf);
  return term_idf_[tid] * tfd * (defaults.k1 + 1.0) / (tfd + cols.norm[doc]);
}

PostingCursor BlockMaxIndex::Cursor(const PostingColumns& cols,
                                    uint32_t tid) const {
  return PostingCursor(
      cols.Docs(tid), cols.Tfs(tid),
      MakeSpan(block_max_score_).subspan(TermFirstBlock(tid), TermBlocks(tid)));
}

std::vector<SearchResult> BlockMaxIndex::TopK(const PostingColumns& cols,
                                              Span<const uint32_t> tids,
                                              size_t k,
                                              QueryEvaluator evaluator) const {
  switch (evaluator) {
    case QueryEvaluator::kExhaustive:
      return TopKExhaustive(cols, tids, k);
    case QueryEvaluator::kMaxScore:
      return TopKMaxScore(cols, tids, k);
    case QueryEvaluator::kBlockMaxWand:
      return TopKBlockMaxWand(cols, tids, k);
  }
  CKR_CHECK(false && "unreachable evaluator");
  return {};
}

// ---- Exhaustive (cursor-driven document-at-a-time union) ----

std::vector<SearchResult> BlockMaxIndex::TopKExhaustive(
    const PostingColumns& cols, Span<const uint32_t> tids,
    size_t k) const {
  std::vector<QueryTerm> terms;
  terms.reserve(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    QueryTerm qt;
    qt.orig = i;
    qt.tid = tids[i];
    qt.cursor = Cursor(cols, tids[i]);
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
      vals.emplace_back(t.orig, Contribution(cols, t.tid, d, t.cursor.tf()));
    }
    CKR_OBS_COUNTER_ADD("ckr.index.postings_scored", vals.size());
    PushCounted(&heap, {cols.ext_id[d], SumInQueryOrder(&vals)});
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
    const PostingColumns& cols, Span<const uint32_t> tids,
    size_t k) const {
  const size_t m_all = tids.size();
  std::vector<QueryTerm> terms;
  terms.reserve(m_all);
  for (size_t i = 0; i < m_all; ++i) {
    QueryTerm qt;
    qt.orig = i;
    qt.tid = tids[i];
    qt.max_score = term_max_score_[tids[i]];
    qt.cursor = Cursor(cols, tids[i]);
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
  // At most every posting of every list is pushed: one heap allocation.
  size_t pushes = 0;
  for (const QueryTerm& t : terms) pushes += t.cursor.postings();
  heap.Reserve(pushes);

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
      contrib[terms[j].orig] = Contribution(cols, terms[j].tid, d,
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
        contrib[terms[j].orig] = Contribution(cols, terms[j].tid, d,
                                              terms[j].cursor.tf());
        CKR_OBS_COUNTER_INC("ckr.index.postings_scored");
      } else {
        contrib[terms[j].orig] = 0.0;
      }
      bound = sum_contrib();
    }
    if (!rejected) {
      // Every contrib entry is exact now; bound == score.
      PushCounted(&heap, {cols.ext_id[d], bound});
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
// involved block boundary is skipped without scoring any posting;
// otherwise the pivot is either scored exactly (when all preceding
// cursors align on it) or a preceding cursor is advanced to it.

std::vector<SearchResult> BlockMaxIndex::TopKBlockMaxWand(
    const PostingColumns& cols, Span<const uint32_t> tids,
    size_t k) const {
  std::vector<QueryTerm> terms;
  terms.reserve(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    QueryTerm qt;
    qt.orig = i;
    qt.tid = tids[i];
    qt.max_score = term_max_score_[tids[i]];
    qt.cursor = Cursor(cols, tids[i]);
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
                          Contribution(cols, order[j]->tid, pivot_doc,
                                       order[j]->cursor.tf()));
      }
      CKR_OBS_COUNTER_ADD("ckr.index.postings_scored", pe + 1);
      PushCounted(&heap, {cols.ext_id[pivot_doc], SumInQueryOrder(&vals)});
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

size_t BlockMaxIndex::MemoryBytes() const {
  return term_block_offset_.capacity() * sizeof(uint32_t) +
         term_max_score_.capacity() * sizeof(double) +
         block_max_score_.capacity() * sizeof(double) +
         term_idf_.capacity() * sizeof(double);
}

}  // namespace ckr
