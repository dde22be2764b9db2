// Positional inverted index with BM25 ranked retrieval, phrase search, and
// snippet generation — the substitute for the Yahoo! Search backend used by
// the paper's feature pipeline:
//  * feature (4) searchengine_phrase = number of results of a phrase query;
//  * relevant-keyword mining reads the snippets of the top-100 results;
//  * Prisma runs pseudo-relevance feedback over the top-50 results.
//
// Layout (PISA-style, frozen by Finalize()):
//  * terms are interned into dense ids at Add() time; lookups are
//    heterogeneous (string_view, no temporary std::string);
//  * postings live in CSR flat arrays — per-term slot ranges over
//    contiguous (doc, tf) columns, with each slot's token positions
//    delta-encoded through the framework's Golomb coder into one shared
//    byte pool (decoded only when a phrase check actually needs them);
//  * per-doc token-id streams + byte offsets (for phrase snippets) are
//    CSR too — no per-document string vectors survive Finalize();
//  * per-doc lengths and the default-parameter BM25 norm are precomputed.
// Search/PhraseSearch select the top k through a bounded heap instead of
// sorting the full result set, and the *ResultCount entry points count
// without materializing results at all. All results are bit-identical to
// LegacyInvertedIndex (the equivalence suite enforces this).
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
  std::unordered_map<std::string, uint64_t> doc_freq;

  /// Folds `other` into this: counts add, term frequencies union+add.
  /// Commutative and associative over integers, so any merge order yields
  /// the same stats.
  void Absorb(const CollectionStats& other);
};

/// Build-time knobs for million-doc, out-of-core-friendly index builds.
/// Must be fixed at construction (Add() consults store_text). Neither
/// changes a Search or phrase result.
struct IndexBuildOptions {
  /// Keep raw document text and per-token byte offsets. Required by
  /// Snippet()/DocText(); at corpus scale the text dominates peak memory,
  /// so streaming builds switch it off (Snippet/DocText then return "").
  ///
  /// Degraded-path contract: only the *text* surface degrades. The
  /// per-doc token-id streams and the Golomb position pool are always
  /// retained, so Search, RegularResultCount, PhraseResultCount and
  /// PhraseSearch return exactly the same results/counts as a
  /// store_text=true build (regression-tested in tests/index_test.cc);
  /// Snippet()/DocText() return "" instead of failing.
  bool store_text = true;
  /// Build the BlockMaxIndex eagerly inside Finalize(). Switching it off
  /// avoids doubling peak memory during million-doc builds; call
  /// RebuildBlockIndex() later, or leave it off — pruned evaluators fall
  /// back to the exhaustive scorer (identical results) until it exists.
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
  /// Internal doc ids follow Add() order.
  void Finalize();

  bool finalized() const { return finalized_; }
  size_t NumDocs() const { return docs_.size(); }
  size_t NumTerms() const { return term_ids_.size(); }

  /// External id of internal document `d` (requires d < NumDocs()). The
  /// serving layer uses this to validate that shards hold disjoint
  /// document sets.
  DocId ExternalDocId(uint32_t d) const { return docs_[d].id; }

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
  /// statistics. Serialized block indexes do not carry the override:
  /// LoadBlockIndex() refuses while one is active (rebuild instead).
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
  /// evaluators (MaxScore, Block-Max-WAND) run on the block-compressed
  /// index and return the exact exhaustive result — same documents,
  /// bit-identical scores. Their max-score metadata is precomputed for
  /// the default Bm25Params, so a pruned evaluator asked for with
  /// non-default parameters, or on an index without a block index
  /// (has_block_index()), runs the exhaustive scorer instead and counts
  /// it in `ckr.index.evaluator_fallbacks`. The result is the same.
  std::vector<SearchResult> Search(
      std::string_view query, size_t k, const Bm25Params& params = {},
      QueryEvaluator evaluator = QueryEvaluator::kExhaustive) const;

  /// Number of documents matching the disjunctive query. Count-only fast
  /// path: marks the posting union in a doc bitmap, no scoring/sorting.
  uint64_t RegularResultCount(std::string_view query) const;

  /// Number of documents containing the phrase contiguously — the paper's
  /// "number of result pages returned" for a phrase query. Count-only:
  /// intersects doc lists and stops at the first adjacency witness per
  /// document instead of materializing a ranked result set.
  ///
  /// An empty/whitespace-only phrase or one containing an
  /// out-of-vocabulary term returns 0 (no document can contain it).
  uint64_t PhraseResultCount(std::string_view phrase) const;

  /// Ranked documents containing the phrase contiguously (BM25 over the
  /// phrase's terms, restricted to phrase matches).
  std::vector<SearchResult> PhraseSearch(std::string_view phrase,
                                         size_t k) const;

  /// Builds a query-biased snippet for a result: a window of
  /// `context_tokens` tokens centered on the first query-term hit.
  std::string Snippet(DocId doc, std::string_view query,
                      size_t context_tokens = 30) const;

  /// Raw text of an indexed document.
  const std::string& DocText(DocId doc) const;

  /// Term ids of an indexed document's tokens, in text order — the stream
  /// the postings were built from. Empty for an unknown document, and
  /// empty when the index was built with store_text=false, so text-derived
  /// consumers degrade exactly as with DocText().
  std::span<const uint32_t> DocTokenIds(DocId doc) const;

  /// Every indexed term by id: slot `tid` holds that term's text, for all
  /// NumTerms() ids. The views point into this index and stay valid while
  /// it lives and takes no more Add()s.
  std::vector<std::string_view> TermsById() const;

  /// Approximate heap footprint of the index structures — the memory row
  /// of bench_offline_perf.
  size_t MemoryBytes() const;

  /// Bytes of the Golomb-compressed positions pool (diagnostics).
  size_t PositionPoolBytes() const { return pos_pool_.size(); }

  /// The block-compressed pruning index backing the MaxScore /
  /// Block-Max-WAND evaluators. Finalize() builds it unless
  /// options.build_block_index is false.
  const BlockMaxIndex& block_index() const { return block_index_; }

  /// True once a block index exists (eager Finalize build, explicit
  /// RebuildBlockIndex, or LoadBlockIndex). While false, Search() routes
  /// pruned evaluators through the exhaustive scorer (a counted fallback).
  bool has_block_index() const { return has_block_index_; }

  /// Build options this index was constructed with.
  const IndexBuildOptions& build_options() const { return options_; }

  /// Builds (or rebuilds) the block index from the postings and the
  /// current scoring statistics — the deferred half of a
  /// build_block_index=false build.
  void RebuildBlockIndex();

  /// Serialized block index (current format version).
  std::string SerializeBlockIndex() const { return block_index_.Serialize(); }

  /// Replaces the block index with a deserialized blob after validating it
  /// agrees with this index (same doc count, external ids, and term
  /// count). The blob is fully validated before anything is replaced.
  [[nodiscard]] Status LoadBlockIndex(std::string_view blob);

 private:
  static constexpr uint32_t kInvalidTid = 0xffffffffu;

  struct StoredDoc {
    DocId id = 0;
    std::string text;
  };

  /// Interns `token`, assigning the next dense id on first sight.
  uint32_t InternTerm(std::string_view token);
  /// Dense id of a term, or kInvalidTid if unseen.
  uint32_t LookupTerm(std::string_view term) const;

  int32_t FindDocIndex(DocId id) const;
  /// Decodes the positions blob of posting slot `slot` into `*out`.
  void DecodePositions(size_t slot, std::vector<uint32_t>* out) const;
  /// Resolves a phrase to term ids and per-term posting slot ranges;
  /// returns false if the phrase is empty or any term is unseen.
  bool ResolvePhrase(std::string_view phrase, std::vector<uint32_t>* tids,
                     size_t* rarest) const;
  /// True if doc `d` contains the phrase starting at any position. Decodes
  /// only the rarest term's position list (slot `rarest_slot`, reusable
  /// buffer `pos_buf`) and verifies each candidate window directly against
  /// the doc's token-id stream — no other position list is touched. With
  /// `num_starts` all starts are counted; without it the first witness
  /// returns early.
  bool PhraseInDoc(uint32_t d, const std::vector<uint32_t>& tids,
                   size_t rarest, size_t rarest_slot,
                   std::vector<uint32_t>* pos_buf,
                   uint32_t* num_starts) const;

  // ---- Documents (CSR token streams; built during Add) ----
  std::vector<StoredDoc> docs_;
  std::unordered_map<DocId, uint32_t> doc_index_;
  std::vector<size_t> doc_tok_offset_;   ///< docs+1 offsets into pools below.
  std::vector<uint32_t> tok_tid_;        ///< Token term ids, all docs.
  std::vector<uint32_t> tok_begin_;      ///< Byte offset per token.
  std::vector<uint32_t> tok_end_;

  // ---- Term dictionary ----
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      term_ids_;

  // ---- Postings (CSR; built by Finalize) ----
  std::vector<size_t> post_offset_;      ///< terms+1 slot offsets.
  std::vector<uint32_t> post_doc_;       ///< Doc index per slot.
  std::vector<uint32_t> post_tf_;        ///< Term frequency per slot.
  std::vector<uint64_t> pos_offset_;     ///< Positions blob start per slot.
  std::vector<uint32_t> pos_len_;        ///< Positions blob length per slot.
  std::vector<uint32_t> pos_first_;      ///< First position per slot (phrase
                                         ///< checks skip the decode when
                                         ///< tf == 1 or the first occurrence
                                         ///< is already a witness).
  std::vector<uint8_t> pos_pool_;        ///< Golomb-coded positions.

  // ---- Collection statistics ----
  std::vector<uint32_t> doc_len_;        ///< Tokens per doc.
  std::vector<double> default_norm_;     ///< k1*(1-b+b*dl/avg), default params.
  double avg_doc_len_ = 0.0;             ///< Scoring avg (global if overridden).
  double score_num_docs_ = 0.0;          ///< n used by idf (global if overridden).
  std::vector<double> score_df_;         ///< Per-tid df override (empty unless
                                         ///< stats_overridden_).
  bool stats_overridden_ = false;
  bool finalized_ = false;

  // ---- Block-compressed pruning index (built by Finalize) ----
  BlockMaxIndex block_index_;
  bool has_block_index_ = false;

  IndexBuildOptions options_;
};

}  // namespace ckr

#endif  // CKR_INDEX_INVERTED_INDEX_H_
