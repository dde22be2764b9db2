// Inverted index with BM25 ranked retrieval, phrase search, and
// snippet windows — the substitute for the Yahoo! Search backend used by
// the paper's feature pipeline:
//  * feature (4) searchengine_phrase = number of results of a phrase query;
//  * relevant-keyword mining reads the snippets of the top-100 results, as
//    token-id windows of the documents (HitWindow);
//  * Prisma runs pseudo-relevance feedback over the top-50 results.
//
// Layout (PISA-style, frozen by Finalize()):
//  * terms are interned into dense ids at Add() time, in a TermTable
//    probed with the hash the tokenizer's scan already computed
//    (Token::hash), so Add() never hashes a term again;
//  * postings live in CSR flat arrays — per-term slot ranges over
//    contiguous (doc, tf) columns, filled by Finalize in two doc-major
//    walks over the token streams (count the slots, then open and count
//    each one); the index stores no word positions;
//  * per-doc token-id streams are CSR too, and are the only form of a
//    document the index keeps: a phrase check scans the candidate
//    document's stream for windows equal to the phrase, and a snippet is
//    a window of it — no text and no per-document string vectors survive
//    Add(). A search-only index (store_text=false) frees the streams in
//    Finalize();
//  * per-doc lengths and the default-parameter BM25 norm are precomputed;
//  * the doc/tf columns are the only copy of the postings: the exhaustive
//    scorer and the phrase seed loops read them directly, and the
//    MaxScore / Block-Max-WAND evaluators walk the same rows through
//    block cursors (block_postings.h). The BlockMaxIndex adds only the
//    pruning metadata — per-term idf and maximum contribution, and the
//    maximum contribution of every 128-slot block of every row.
// Search/PhraseSearch select the top k through a bounded heap instead of
// sorting the full result set, and PhraseResultCount counts without
// materializing results at all. All results are bit-identical to
// LegacyInvertedIndex, and a snippet window holds exactly the tokens of
// the legacy text snippet (the equivalence suite enforces both).
#ifndef CKR_INDEX_INVERTED_INDEX_H_
#define CKR_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "corpus/document.h"
#include "index/block_max_index.h"
#include "index/top_k.h"
#include "text/term_table.h"

namespace ckr {

/// Collection-level scoring statistics: everything BM25 takes from the
/// corpus as a whole rather than from one document. A sharded deployment
/// computes each shard's LocalCollectionStats(), folds them together with
/// Absorb(), and pushes the merged totals back into every shard via
/// InvertedIndex::OverrideCollectionStats() — after which each shard
/// scores with the *union's* n / df / avg_doc_len, so per-document BM25
/// contributions are bit-identical to a single index over all documents
/// (the sharded-serving exactness contract, see src/serve/).
struct CollectionStats {
  uint64_t num_docs = 0;
  uint64_t total_tokens = 0;
  /// Term -> number of documents containing it, collection-wide.
  std::unordered_map<std::string, uint64_t, StringViewHash, std::equal_to<>>
      doc_freq;

  /// Folds `other` into this: counts add, term frequencies union+add.
  /// Commutative and associative over integers, so any merge order yields
  /// the same stats.
  void Absorb(const CollectionStats& other);
};

/// A search query parsed once: its normalized terms, sorted and
/// deduplicated. The scorers accumulate each document's BM25 addends in
/// this order, so a query parsed once and scored on every shard sums
/// bit for bit what parsing it again on each shard would.
class ParsedQuery {
 public:
  explicit ParsedQuery(std::string_view query);

  const std::vector<std::string>& terms() const { return terms_; }

 private:
  std::vector<std::string> terms_;
};

/// Build-time knobs for million-doc, out-of-core-friendly index builds.
/// Fixed at construction. Neither changes a Search result.
struct IndexBuildOptions {
  /// Keep each document's token-id stream after Finalize(). Phrase checks,
  /// snippets and Prisma feedback read the streams; BM25 search does not.
  ///
  /// store_text=false builds a search-only index (a serving shard, a
  /// streamed corpus): Finalize() keeps the streams' token total for the
  /// collection statistics and frees the streams themselves. Search
  /// returns exactly what a store_text=true build returns, while
  /// PhraseResultCount, PhraseSearch, DocTokenIds and HitWindow fail a
  /// CKR_CHECK, since nothing is left for them to read (tested in
  /// tests/index_test.cc).
  bool store_text = true;
  /// Compute the BlockMaxIndex's maxima inside Finalize(). The maxima
  /// depend on the scoring statistics, so a build that will override them
  /// (a shard, OverrideCollectionStats) switches this off and calls
  /// RebuildBlockIndex() once, after the override, instead of computing
  /// them twice. Left off, pruned evaluators fall back to the exhaustive
  /// scorer (identical results) until the block index exists.
  bool build_block_index = true;
};

/// Immutable after Finalize(); thread-safe for concurrent reads.
class InvertedIndex {
 public:
  InvertedIndex() = default;
  explicit InvertedIndex(IndexBuildOptions options)
      : options_(std::move(options)) {}

  /// Indexes a document; `doc.id` must be unique within the index.
  void Add(const Document& doc);

  /// Builds postings and collection statistics; call once after all Add()s.
  /// Internal doc ids follow Add() order. A store_text=false index frees
  /// its token streams here.
  void Finalize();

  bool finalized() const { return finalized_; }
  size_t NumDocs() const { return doc_id_.size(); }
  size_t NumTerms() const { return term_table_.size(); }
  /// Posting slots, one per (term, document) pair (requires finalized()).
  size_t NumPostings() const { return post_doc_.size(); }

  /// External id of internal document `d` (requires d < NumDocs()). The
  /// serving layer uses this to validate that shards hold disjoint
  /// document sets.
  DocId ExternalDocId(uint32_t d) const { return doc_id_[d]; }

  /// Document frequency of a term (heterogeneous lookup — no allocation).
  uint32_t DocFreq(std::string_view term) const;

  /// This index's own collection statistics (requires finalized()).
  CollectionStats LocalCollectionStats() const;

  /// Replaces the statistics BM25 scores with (n, per-term df,
  /// avg_doc_len) by collection-wide values — the sharded-serving seam.
  /// Validates first (`stats` must dominate the local statistics: at
  /// least as many docs/tokens, and every local term present with df >=
  /// its local df); nothing is mutated on failure. On success the
  /// default-parameter norms are recomputed and, when a block index
  /// exists, it is rebuilt so the pruned evaluators score with the same
  /// statistics.
  [[nodiscard]] Status OverrideCollectionStats(const CollectionStats& stats);

  /// True after a successful OverrideCollectionStats().
  bool collection_stats_overridden() const { return stats_overridden_; }

  /// BM25 disjunctive retrieval over the query's normalized terms.
  ///
  /// Ranking contract (every evaluator): results are ordered by
  /// descending score; equal-score documents by ascending external doc
  /// id. The order is total, so the returned top-k is unique.
  ///
  /// `evaluator` selects the top-k algorithm (top_k.h). The pruned
  /// evaluators (MaxScore, Block-Max-WAND) walk the same postings with
  /// the block index's maxima and return the exact exhaustive result —
  /// same documents, bit-identical scores. Their max-score metadata is
  /// precomputed for the default Bm25Params, so a pruned evaluator asked
  /// for with non-default parameters, or on an index without a block
  /// index (has_block_index()), runs the exhaustive scorer instead and
  /// counts it in `ckr.index.evaluator_fallbacks`. The result is the same.
  ///
  /// The exhaustive scorer accumulates into a per-thread scratch (`acc`,
  /// `seen`, `touched`) sized to the largest index the thread has
  /// searched. A call resets exactly the entries it touched as it drains
  /// them into the top-k heap, so a warm call allocates only the heap
  /// that becomes its result. A pruned call resolves its term ids into
  /// the same scratch. Concurrent calls on different threads never share
  /// a scratch; the scorers call out to nothing that searches, so a
  /// scratch is never reentered on one thread.
  std::vector<SearchResult> Search(
      std::string_view query, size_t k, const Bm25Params& params = {},
      QueryEvaluator evaluator = QueryEvaluator::kExhaustive) const;

  /// Search() over a query parsed once — the per-shard leg of a sharded
  /// search. Search(string_view) parses and calls this.
  std::vector<SearchResult> Search(
      const ParsedQuery& query, size_t k, const Bm25Params& params = {},
      QueryEvaluator evaluator = QueryEvaluator::kExhaustive) const;

  /// The evaluator Search() scores with when asked for `requested` under
  /// `params`: `requested` itself, or kExhaustive when a pruned evaluator
  /// falls back (non-default parameters, or no block index).
  QueryEvaluator EffectiveEvaluator(QueryEvaluator requested,
                                    const Bm25Params& params = {}) const;

  /// Number of documents containing the phrase contiguously — the paper's
  /// "number of result pages returned" for a phrase query. Count-only:
  /// walks the rarest term's doc list and stops at the first phrase
  /// window per document instead of materializing a ranked result set.
  ///
  /// An empty/whitespace-only phrase or one containing an
  /// out-of-vocabulary term returns 0 (no document can contain it).
  /// Requires store_text.
  uint64_t PhraseResultCount(std::string_view phrase) const;

  /// Ranked documents containing the phrase contiguously (BM25 over the
  /// phrase's terms, restricted to phrase matches). Requires store_text.
  std::vector<SearchResult> PhraseSearch(std::string_view phrase,
                                         size_t k) const;

  /// A query-biased snippet of a result, as the term ids of its tokens: a
  /// window of at most `context_tokens` consecutive tokens of DocTokenIds
  /// centered on the first contiguous occurrence of the query, else on
  /// the first token that is any query term, else at the document head,
  /// and shifted back inside the document where it would run off its end.
  /// The span points into this index. Empty for an unknown or empty
  /// document. Requires store_text.
  std::span<const uint32_t> HitWindow(DocId doc, std::string_view query,
                                      size_t context_tokens = 30) const;

  /// Term ids of an indexed document's tokens, in text order — the stream
  /// the postings were built from. Empty for an unknown document. Requires
  /// store_text.
  std::span<const uint32_t> DocTokenIds(DocId doc) const;

  /// Every indexed term by id: slot `tid` holds that term's text, for all
  /// NumTerms() ids. The views point into this index and stay valid while
  /// it lives and takes no more Add()s.
  std::vector<std::string_view> TermsById() const;

  /// Approximate heap footprint of the index structures — the memory row
  /// of bench_offline_perf.
  size_t MemoryBytes() const;

  /// The pruning metadata backing the MaxScore / Block-Max-WAND
  /// evaluators. Finalize() builds it unless options.build_block_index is
  /// false.
  const BlockMaxIndex& block_index() const { return block_index_; }

  /// True once a block index exists (eager Finalize build or explicit
  /// RebuildBlockIndex). While false, Search() routes pruned evaluators
  /// through the exhaustive scorer (a counted fallback).
  bool has_block_index() const { return has_block_index_; }

  /// Build options this index was constructed with.
  const IndexBuildOptions& build_options() const { return options_; }

  /// Computes (or recomputes) the block index's maxima from the postings
  /// and the current scoring statistics — the deferred half of a
  /// build_block_index=false build.
  void RebuildBlockIndex();

 private:
  /// Read-only view of the frozen postings layout for the layout golden
  /// and sharded-build tests; defined in tests/index_layout_peer.h.
  friend class InvertedIndexLayoutPeer;

  static constexpr uint32_t kInvalidTid = TermTable::kNotFound;

  /// Dense id of a term, or kInvalidTid if unseen.
  uint32_t LookupTerm(std::string_view term) const {
    return term_table_.Find(term);
  }

  int32_t FindDocIndex(DocId id) const;
  /// BM25 idf of term `tid` under the scoring statistics (the
  /// collection-wide ones after an override).
  double TermIdf(uint32_t tid) const;
  /// The postings and per-doc columns the block index ranks over.
  PostingColumns Columns() const;
  /// Resolves a phrase to term ids and per-term posting slot ranges;
  /// returns false if the phrase is empty or any term is unseen.
  bool ResolvePhrase(std::string_view phrase, std::vector<uint32_t>* tids,
                     size_t* rarest) const;
  /// True if doc `d` contains the phrase `tids` contiguously. Scans the
  /// doc's token-id stream for starts whose window holds term `rarest` in
  /// place and equals `tids` in full, and stops after the `rarest_tf`-th
  /// occurrence of that term (its tf in `d`), past which no start can
  /// lie. With `num_starts`, every start is counted and the count stored
  /// there on a true return; without it the first witness returns early.
  bool PhraseInDoc(uint32_t d, const std::vector<uint32_t>& tids,
                   size_t rarest, uint32_t rarest_tf,
                   uint32_t* num_starts) const;

  // ---- Documents (CSR token streams; built during Add, freed by a
  // store_text=false Finalize) ----
  std::vector<DocId> doc_id_;            ///< External id per internal doc.
  std::unordered_map<DocId, uint32_t> doc_index_;
  std::vector<size_t> doc_tok_offset_;   ///< docs+1 offsets into tok_tid_.
  std::vector<uint32_t> tok_tid_;        ///< Token term ids, all docs.

  // ---- Term dictionary ----
  TermTable term_table_;                 ///< Tid = first-Add() order.

  // ---- Postings (CSR; built by Finalize) ----
  std::vector<size_t> post_offset_;      ///< terms+1 slot offsets.
  std::vector<uint32_t> post_doc_;       ///< Doc index per slot.
  std::vector<uint32_t> post_tf_;        ///< Term frequency per slot.

  // ---- Collection statistics ----
  std::vector<uint32_t> doc_len_;        ///< Tokens per doc.
  uint64_t total_tokens_ = 0;            ///< Sum of doc_len_.
  std::vector<double> default_norm_;     ///< k1*(1-b+b*dl/avg), default params.
  double avg_doc_len_ = 0.0;             ///< Scoring avg (global if overridden).
  double score_num_docs_ = 0.0;          ///< n used by idf (global if overridden).
  std::vector<double> score_df_;         ///< Per-tid df override (empty unless
                                         ///< stats_overridden_).
  bool stats_overridden_ = false;
  bool finalized_ = false;

  // ---- Pruning metadata over the postings (built by Finalize) ----
  BlockMaxIndex block_index_;
  bool has_block_index_ = false;

  IndexBuildOptions options_;
};

}  // namespace ckr

#endif  // CKR_INDEX_INVERTED_INDEX_H_
