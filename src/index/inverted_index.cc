#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/check.h"
#include "obs/hooks.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

/// The parameters the precomputed norms and max-scores hold for.
bool IsDefaultParams(const Bm25Params& params) {
  return params.k1 == Bm25Params{}.k1 && params.b == Bm25Params{}.b;
}

/// Per-thread working state of the scorers, sized to the largest index
/// the thread has searched. Between calls every `acc` entry is +0.0,
/// every `seen` entry 0 and `touched` empty: a call resets exactly the
/// entries it marked. `tids` keeps only its capacity.
struct SearchScratch {
  std::vector<double> acc;
  std::vector<uint8_t> seen;
  std::vector<uint32_t> touched;
  std::vector<uint32_t> tids;  ///< A pruned search's term ids.

  /// Grows the scratch to cover `num_docs` documents.
  void Fit(size_t num_docs) {
    CKR_DCHECK(touched.empty());
    if (acc.size() < num_docs) {
      acc.resize(num_docs, 0.0);
      seen.resize(num_docs, 0);
    }
  }
};

SearchScratch& ThreadSearchScratch() {
  static thread_local SearchScratch scratch;
  return scratch;
}

}  // namespace

ParsedQuery::ParsedQuery(std::string_view query) {
  static thread_local std::vector<Token> toks;
  TokenizeInto(query, &toks);
  terms_.reserve(toks.size());
  for (Token& t : toks) terms_.push_back(std::move(t.text));
  std::sort(terms_.begin(), terms_.end());
  terms_.erase(std::unique(terms_.begin(), terms_.end()), terms_.end());
}

void CollectionStats::Absorb(const CollectionStats& other) {
  num_docs += other.num_docs;
  total_tokens += other.total_tokens;
  // ckr-lint: ordered(sums into a map; the result has no order)
  for (const auto& [term, df] : other.doc_freq) {
    doc_freq[term] += df;
  }
}

uint32_t InvertedIndex::InternTerm(std::string_view token) {
  auto it = term_ids_.find(token);
  if (it != term_ids_.end()) return it->second;
  uint32_t tid = static_cast<uint32_t>(term_ids_.size());
  term_ids_.emplace(std::string(token), tid);
  return tid;
}

uint32_t InvertedIndex::LookupTerm(std::string_view term) const {
  auto it = term_ids_.find(term);
  return it == term_ids_.end() ? kInvalidTid : it->second;
}

void InvertedIndex::Add(const Document& doc) {
  CKR_DCHECK(!finalized_);
  if (doc_tok_offset_.empty()) doc_tok_offset_.push_back(0);
  static thread_local std::vector<Token> toks;
  TokenizeInto(doc.text, &toks);
  for (const Token& t : toks) tok_tid_.push_back(InternTerm(t.text));
  doc_tok_offset_.push_back(tok_tid_.size());
  doc_index_[doc.id] = static_cast<uint32_t>(doc_id_.size());
  doc_id_.push_back(doc.id);
}

void InvertedIndex::Finalize() {
  const size_t num_docs = doc_id_.size();
  const size_t num_terms = term_ids_.size();
  if (doc_tok_offset_.empty()) doc_tok_offset_.push_back(0);

  doc_len_.resize(num_docs);
  uint64_t total_len = 0;
  for (size_t d = 0; d < num_docs; ++d) {
    doc_len_[d] =
        static_cast<uint32_t>(doc_tok_offset_[d + 1] - doc_tok_offset_[d]);
    total_len += doc_len_[d];
  }
  avg_doc_len_ =
      num_docs == 0
          ? 0.0
          : static_cast<double>(total_len) / static_cast<double>(num_docs);
  score_num_docs_ = static_cast<double>(num_docs);

  const Bm25Params defaults;
  default_norm_.resize(num_docs);
  for (size_t d = 0; d < num_docs; ++d) {
    double dl = static_cast<double>(doc_len_[d]);
    default_norm_[d] = defaults.k1 * (1.0 - defaults.b +
                                      defaults.b * dl / avg_doc_len_);
  }

  // Pass 1: document frequency per term = number of posting slots.
  std::vector<uint32_t> df(num_terms, 0);
  std::vector<uint32_t> last_doc(num_terms, kInvalidTid);
  for (size_t d = 0; d < num_docs; ++d) {
    for (size_t i = doc_tok_offset_[d]; i < doc_tok_offset_[d + 1]; ++i) {
      uint32_t tid = tok_tid_[i];
      if (last_doc[tid] != d) {
        last_doc[tid] = static_cast<uint32_t>(d);
        ++df[tid];
      }
    }
  }
  post_offset_.assign(num_terms + 1, 0);
  for (size_t t = 0; t < num_terms; ++t) {
    post_offset_[t + 1] = post_offset_[t] + df[t];
  }
  const size_t num_slots = post_offset_[num_terms];
  post_doc_.resize(num_slots);
  post_tf_.resize(num_slots);

  // Pass 2 (doc-major, so each term's slots come out sorted by doc): a
  // term's first occurrence in a document opens its slot with tf 1, and
  // each later occurrence counts into that slot.
  std::fill(last_doc.begin(), last_doc.end(), kInvalidTid);
  std::vector<size_t> cursor(post_offset_.begin(), post_offset_.end() - 1);
  for (size_t d = 0; d < num_docs; ++d) {
    for (size_t i = doc_tok_offset_[d]; i < doc_tok_offset_[d + 1]; ++i) {
      const uint32_t tid = tok_tid_[i];
      if (last_doc[tid] != d) {
        last_doc[tid] = static_cast<uint32_t>(d);
        const size_t slot = cursor[tid]++;
        post_doc_[slot] = static_cast<uint32_t>(d);
        post_tf_[slot] = 1;
      } else {
        ++post_tf_[cursor[tid] - 1];
      }
    }
  }
  tok_tid_.shrink_to_fit();
  doc_tok_offset_.shrink_to_fit();
#if CKR_DEBUG_CHECKS
  // Frozen-layout invariants: the slot offset table is monotone and fully
  // consumed, and every slot's doc index is in range and strictly
  // ascending within its term (pass 2 emits doc-major).
  CKR_DCHECK_EQ(post_offset_.size(), num_terms + 1);
  for (size_t t = 0; t < num_terms; ++t) {
    CKR_DCHECK_LE(post_offset_[t], post_offset_[t + 1]);
    CKR_DCHECK_EQ(cursor[t], post_offset_[t + 1]);
    for (size_t slot = post_offset_[t]; slot < post_offset_[t + 1]; ++slot) {
      CKR_DCHECK_LT(post_doc_[slot], num_docs);
      if (slot > post_offset_[t]) {
        CKR_DCHECK_LT(post_doc_[slot - 1], post_doc_[slot]);
      }
    }
  }
  for (uint32_t tid : tok_tid_) CKR_DCHECK_LT(tid, num_terms);
#endif
  finalized_ = true;
  if (options_.build_block_index) RebuildBlockIndex();
}

double InvertedIndex::TermIdf(uint32_t tid) const {
  const double dfd =
      stats_overridden_
          ? score_df_[tid]
          : static_cast<double>(post_offset_[tid + 1] - post_offset_[tid]);
  return std::log(1.0 + (score_num_docs_ - dfd + 0.5) / (dfd + 0.5));
}

PostingColumns InvertedIndex::Columns() const {
  return {MakeSpan(post_offset_), MakeSpan(post_doc_), MakeSpan(post_tf_),
          MakeSpan(default_norm_), MakeSpan(doc_id_)};
}

void InvertedIndex::RebuildBlockIndex() {
  CKR_DCHECK(finalized_);
  // The exhaustive scorer's idf, under the overridden (n, df) when there
  // is an override, so the maxima and per-posting scores stay
  // bit-identical to the single-index oracle.
  std::vector<double> idf(term_ids_.size());
  for (size_t t = 0; t < idf.size(); ++t) {
    idf[t] = TermIdf(static_cast<uint32_t>(t));
  }
  block_index_ = BlockMaxIndex(Columns(), std::move(idf));
  has_block_index_ = true;
}

uint32_t InvertedIndex::DocFreq(std::string_view term) const {
  uint32_t tid = LookupTerm(term);
  if (tid == kInvalidTid) return 0;
  return static_cast<uint32_t>(post_offset_[tid + 1] - post_offset_[tid]);
}

CollectionStats InvertedIndex::LocalCollectionStats() const {
  CKR_DCHECK(finalized_);
  CollectionStats stats;
  stats.num_docs = doc_id_.size();
  stats.total_tokens = tok_tid_.size();
  stats.doc_freq.reserve(term_ids_.size());
  // ckr-lint: ordered(fills a map; the result has no order)
  for (const auto& [term, tid] : term_ids_) {
    stats.doc_freq.emplace(
        term, static_cast<uint64_t>(post_offset_[tid + 1] - post_offset_[tid]));
  }
  return stats;
}

Status InvertedIndex::OverrideCollectionStats(const CollectionStats& stats) {
  if (!finalized_) {
    return Status::FailedPrecondition(
        "OverrideCollectionStats requires a finalized index");
  }
  if (stats.num_docs < doc_id_.size()) {
    return Status::InvalidArgument(
        "collection stats: num_docs below this index's document count");
  }
  if (stats.total_tokens < tok_tid_.size()) {
    return Status::InvalidArgument(
        "collection stats: total_tokens below this index's token count");
  }
  // Validate and gather per-tid df before mutating anything.
  std::vector<double> df(term_ids_.size(), 0.0);
  // Each term fills its own tid slot; only which bad term an error names
  // can depend on hash order.
  // ckr-lint: ordered(each term fills its own tid slot)
  for (const auto& [term, tid] : term_ids_) {
    auto it = stats.doc_freq.find(term);
    if (it == stats.doc_freq.end()) {
      return Status::InvalidArgument(
          "collection stats: missing document frequency for term '" + term +
          "'");
    }
    const uint64_t local = post_offset_[tid + 1] - post_offset_[tid];
    if (it->second < local) {
      return Status::InvalidArgument(
          "collection stats: document frequency of term '" + term +
          "' below this index's local df");
    }
    df[tid] = static_cast<double>(it->second);
  }
  score_df_ = std::move(df);
  score_num_docs_ = static_cast<double>(stats.num_docs);
  avg_doc_len_ = stats.num_docs == 0
                     ? 0.0
                     : static_cast<double>(stats.total_tokens) /
                           static_cast<double>(stats.num_docs);
  stats_overridden_ = true;
  // Same expression, in the same operation order, as Finalize() — the
  // oracle index computes its norms with this exact arithmetic, so each
  // shard's norms are bit-identical to the oracle's for shared documents.
  const Bm25Params defaults;
  for (size_t d = 0; d < doc_id_.size(); ++d) {
    const double dl = static_cast<double>(doc_len_[d]);
    default_norm_[d] =
        defaults.k1 * (1.0 - defaults.b + defaults.b * dl / avg_doc_len_);
  }
  if (has_block_index_) RebuildBlockIndex();
  return Status::OK();
}

QueryEvaluator InvertedIndex::EffectiveEvaluator(
    QueryEvaluator requested, const Bm25Params& params) const {
  return IsDefaultParams(params) && has_block_index_
             ? requested
             : QueryEvaluator::kExhaustive;
}

std::vector<SearchResult> InvertedIndex::Search(
    std::string_view query, size_t k, const Bm25Params& params,
    QueryEvaluator evaluator) const {
  return Search(ParsedQuery(query), k, params, evaluator);
}

std::vector<SearchResult> InvertedIndex::Search(
    const ParsedQuery& query, size_t k, const Bm25Params& params,
    QueryEvaluator evaluator) const {
  CKR_DCHECK(finalized_);
  // Sorted and deduplicated: the legacy path's accumulation order, so
  // per-doc floating-point sums are bit-identical.
  const std::vector<std::string>& terms = query.terms();

  // Empty/whitespace-only query: no terms, no results (all evaluators
  // agree on {}).
  if (terms.empty()) {
    CKR_OBS_COUNTER_INC("ckr.index.searches");
    return {};
  }

  const bool default_params = IsDefaultParams(params);
  if (EffectiveEvaluator(evaluator, params) != QueryEvaluator::kExhaustive) {
    // Pruned evaluation on the block index. Term ids are passed in the
    // sorted-term order used below, so the pruned score sums replay the
    // exhaustive accumulation order addend by addend (bit-identical).
    std::vector<uint32_t>& tids = ThreadSearchScratch().tids;
    tids.clear();
    for (const std::string& term : terms) {
      uint32_t tid = LookupTerm(term);
      if (tid != kInvalidTid) tids.push_back(tid);
    }
    CKR_OBS_COUNTER_INC("ckr.index.searches");
    CKR_OBS_COUNTER_ADD("ckr.index.search_terms", terms.size());
    return block_index_.TopK(Columns(), MakeSpan(tids), k, evaluator);
  }
  if (evaluator != QueryEvaluator::kExhaustive) {
    // A pruned evaluator cannot run here: its max-score metadata holds
    // only for the default parameters, or there is no block index. The
    // exhaustive scorer answers instead, with the same result.
    CKR_OBS_COUNTER_INC("ckr.index.evaluator_fallbacks");
  }
  SearchScratch& scratch = ThreadSearchScratch();
  scratch.Fit(doc_id_.size());
  double* const acc = scratch.acc.data();
  uint8_t* const seen = scratch.seen.data();
  std::vector<uint32_t>& touched = scratch.touched;
  for (const std::string& term : terms) {
    uint32_t tid = LookupTerm(term);
    if (tid == kInvalidTid) continue;
    const Span<const uint32_t> slot_docs = CsrRow(post_doc_, post_offset_, tid);
    const Span<const uint32_t> slot_tfs = CsrRow(post_tf_, post_offset_, tid);
    CKR_OBS_COUNTER_ADD("ckr.index.postings_scored", slot_docs.size());
    const double idf = TermIdf(tid);
    for (size_t slot = 0; slot < slot_docs.size(); ++slot) {
      uint32_t d = slot_docs[slot];
      double tf = static_cast<double>(slot_tfs[slot]);
      double norm =
          default_params
              ? default_norm_[d]
              : params.k1 * (1.0 - params.b +
                             params.b * static_cast<double>(doc_len_[d]) /
                                 avg_doc_len_);
      acc[d] += idf * tf * (params.k1 + 1.0) / (tf + norm);
      if (!seen[d]) {
        seen[d] = 1;
        touched.push_back(d);
      }
    }
  }
  // Draining resets each touched entry, leaving the scratch clean for the
  // thread's next call.
  TopKHeap heap(k);
  heap.Reserve(touched.size());
  for (uint32_t d : touched) {
    heap.Push({doc_id_[d], acc[d]});
    acc[d] = 0.0;
    seen[d] = 0;
  }
  CKR_OBS_COUNTER_INC("ckr.index.searches");
  CKR_OBS_COUNTER_ADD("ckr.index.search_terms", terms.size());
  CKR_OBS_COUNTER_ADD("ckr.index.search_docs_touched", touched.size());
  touched.clear();
  return heap.Take();
}

bool InvertedIndex::ResolvePhrase(std::string_view phrase,
                                  std::vector<uint32_t>* tids,
                                  size_t* rarest) const {
  std::vector<std::string> terms = TokenizeToStrings(phrase);
  if (terms.empty()) return false;
  tids->clear();
  tids->reserve(terms.size());
  for (const std::string& t : terms) {
    uint32_t tid = LookupTerm(t);
    if (tid == kInvalidTid) return false;
    tids->push_back(tid);
  }
  // Rarest-term selection drives both the seeding posting list and the
  // PhraseSearch idf. Under a collection-stats override the comparison
  // uses the global df so every shard (and the oracle) picks the same
  // term — any term is a correct positional seed, but the idf must match.
  auto eff_df = [this](uint32_t tid) {
    return stats_overridden_
               ? score_df_[tid]
               : static_cast<double>(post_offset_[tid + 1] -
                                     post_offset_[tid]);
  };
  *rarest = 0;
  for (size_t i = 1; i < tids->size(); ++i) {
    if (eff_df((*tids)[i]) < eff_df((*tids)[*rarest])) *rarest = i;
  }
  return true;
}

bool InvertedIndex::PhraseInDoc(uint32_t d, const std::vector<uint32_t>& tids,
                                size_t rarest, uint32_t rarest_tf,
                                uint32_t* num_starts) const {
  const Span<const uint32_t> toks = CsrRow(tok_tid_, doc_tok_offset_, d);
  CKR_DCHECK_EQ(toks.size(), doc_len_[d]);
  const size_t width = tids.size();
  if (toks.size() < width) return false;  // No window fits.
  // Each start p in [0, size - width] is found through its window's
  // rarest-term slot q = p + rarest, and only a window with the rarest
  // term in place is compared in full. The doc holds `rarest_tf` of that
  // term, so the scan ends at its last one.
  const uint32_t seed = tids[rarest];
  const uint32_t* const last = toks.end() - (width - 1 - rarest);
  uint32_t starts = 0;
  uint32_t seen = 0;
  for (const uint32_t* q = std::find(toks.begin() + rarest, last, seed);
       q != last; q = std::find(q + 1, last, seed)) {
    if (std::equal(tids.begin(), tids.end(), q - rarest)) {
      if (num_starts == nullptr) return true;
      ++starts;
    }
    if (++seen == rarest_tf) break;
  }
  if (num_starts != nullptr) *num_starts = starts;
  return starts > 0;
}

uint64_t InvertedIndex::PhraseResultCount(std::string_view phrase) const {
  CKR_DCHECK(finalized_);
  std::vector<uint32_t> tids;
  size_t rarest = 0;
  if (!ResolvePhrase(phrase, &tids, &rarest)) return 0;
  const size_t rb = post_offset_[tids[rarest]];
  const size_t re = post_offset_[tids[rarest] + 1];
  // Single-term phrase: every posting slot is a match.
  if (tids.size() == 1) return re - rb;

  uint64_t count = 0;
  for (size_t seed = rb; seed < re; ++seed) {
    if (PhraseInDoc(post_doc_[seed], tids, rarest, post_tf_[seed], nullptr)) {
      ++count;
    }
  }
  return count;
}

std::vector<SearchResult> InvertedIndex::PhraseSearch(std::string_view phrase,
                                                      size_t k) const {
  CKR_DCHECK(finalized_);
  CKR_OBS_COUNTER_INC("ckr.index.phrase_searches");
  std::vector<uint32_t> tids;
  size_t rarest = 0;
  if (!ResolvePhrase(phrase, &tids, &rarest)) return {};

  const size_t rb = post_offset_[tids[rarest]];
  const size_t re = post_offset_[tids[rarest] + 1];
  // Loop-invariant in the legacy code; identical expression, same bits.
  const double idf = TermIdf(tids[rarest]);

  TopKHeap heap(k);
  for (size_t seed = rb; seed < re; ++seed) {
    uint32_t d = post_doc_[seed];
    uint32_t starts = 0;
    if (tids.size() == 1) {
      starts = post_tf_[seed];  // Every occurrence is a phrase start.
    } else if (!PhraseInDoc(d, tids, rarest, post_tf_[seed], &starts)) {
      continue;
    }
    double dl = static_cast<double>(doc_len_[d]);
    double score =
        idf * static_cast<double>(starts) / (1.0 + 0.002 * dl);
    heap.Push({doc_id_[d], score});
  }
  return heap.Take();
}

int32_t InvertedIndex::FindDocIndex(DocId id) const {
  auto it = doc_index_.find(id);
  return it == doc_index_.end() ? -1 : static_cast<int32_t>(it->second);
}

std::span<const uint32_t> InvertedIndex::DocTokenIds(DocId doc) const {
  if (!options_.store_text) return {};
  int32_t di = FindDocIndex(doc);
  if (di < 0) return {};
  const size_t d = static_cast<size_t>(di);
  return std::span<const uint32_t>(tok_tid_).subspan(
      doc_tok_offset_[d], doc_tok_offset_[d + 1] - doc_tok_offset_[d]);
}

std::vector<std::string_view> InvertedIndex::TermsById() const {
  std::vector<std::string_view> terms(term_ids_.size());
  // ckr-lint: ordered(written by tid slot, so hash order cannot leak)
  for (const auto& [term, tid] : term_ids_) terms[tid] = term;
  return terms;
}

std::span<const uint32_t> InvertedIndex::HitWindow(
    DocId doc, std::string_view query, size_t context_tokens) const {
  const std::span<const uint32_t> tids = DocTokenIds(doc);
  const size_t num_tokens = tids.size();
  if (num_tokens == 0) return {};

  // Query tokens as term ids; out-of-vocabulary terms get the invalid id,
  // which matches no document token (every document token is interned).
  std::vector<std::string> terms = TokenizeToStrings(query);
  std::vector<uint32_t> qtids;
  qtids.reserve(terms.size());
  for (const std::string& t : terms) qtids.push_back(LookupTerm(t));

  // Prefer the first contiguous phrase hit; fall back to the first hit of
  // any query term; fall back to the document head.
  size_t center = 0;
  bool found = false;
  if (!qtids.empty()) {
    for (size_t i = 0; i + qtids.size() <= num_tokens && !found; ++i) {
      if (std::equal(qtids.begin(), qtids.end(), tids.begin() + i)) {
        center = i + qtids.size() / 2;
        found = true;
      }
    }
    for (size_t i = 0; i < num_tokens && !found; ++i) {
      if (std::find(qtids.begin(), qtids.end(), tids[i]) != qtids.end()) {
        center = i;
        found = true;
      }
    }
  }
  size_t half = context_tokens / 2;
  size_t lo = center > half ? center - half : 0;
  size_t hi = std::min(num_tokens, lo + context_tokens);
  if (hi - lo < context_tokens && hi == num_tokens) {
    lo = hi > context_tokens ? hi - context_tokens : 0;
  }
  return tids.subspan(lo, hi - lo);
}

size_t InvertedIndex::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += doc_id_.capacity() * sizeof(DocId);
  bytes += doc_index_.bucket_count() * sizeof(void*);
  bytes += doc_index_.size() *
           (sizeof(std::pair<DocId, uint32_t>) + 2 * sizeof(void*));
  bytes += doc_tok_offset_.capacity() * sizeof(size_t);
  bytes += tok_tid_.capacity() * sizeof(uint32_t);
  bytes += term_ids_.bucket_count() * sizeof(void*);
  // ckr-lint: ordered(a byte count; the sum has no order)
  for (const auto& [term, tid] : term_ids_) {
    (void)tid;
    bytes += sizeof(std::pair<std::string, uint32_t>) + 2 * sizeof(void*);
    if (term.capacity() > sizeof(std::string)) bytes += term.capacity();
  }
  bytes += post_offset_.capacity() * sizeof(size_t);
  bytes += post_doc_.capacity() * sizeof(uint32_t);
  bytes += post_tf_.capacity() * sizeof(uint32_t);
  bytes += doc_len_.capacity() * sizeof(uint32_t);
  bytes += default_norm_.capacity() * sizeof(double);
  bytes += score_df_.capacity() * sizeof(double);
  bytes += block_index_.MemoryBytes();
  return bytes;
}

}  // namespace ckr
