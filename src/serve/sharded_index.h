// Doc-partitioned index sharding for the serving daemon.
//
// A ShardedIndex splits the corpus into N contiguous document ranges,
// each owned by one InvertedIndex shard. Build() hands whole shards to a
// worker pool: a worker generates its shard's documents in ascending id
// order (each from its own counter-seeded stream, so a shard sees the
// same documents in the same order on any worker), indexes and finalizes
// them. After every shard is finalized their LocalCollectionStats() are
// merged and pushed back into every shard (OverrideCollectionStats), so
// each shard computes BM25 with the whole collection's n / df /
// avg_doc_len.
//
// Exactness contract: sharded top-k is *bit-identical* to a single index
// over the union, for any shard count and every QueryEvaluator. The
// argument, enforced by tests/property_test.cc and serve_smoke_test:
//  * every document lives in exactly one shard, with the same length,
//    term frequencies, and (after the stats override) the same norms and
//    idf the oracle uses — so its score is the same IEEE left-to-right
//    sum over the same sorted-deduplicated query terms, bit for bit;
//  * each shard returns its exact local top-k under the ranking contract
//    (desc score, ties by asc external id — a total order), and the
//    global top-k of a disjoint union is a subset of the per-shard
//    top-ks; merging by the same comparator and truncating to k is
//    therefore exactly the oracle's list.
#ifndef CKR_SERVE_SHARDED_INDEX_H_
#define CKR_SERVE_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "index/inverted_index.h"
#include "index/top_k.h"
#include "obs/clock.h"

namespace ckr {

/// Contiguous [begin, end) document-index range owned by one shard.
struct ShardRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t size() const { return end - begin; }
};

/// Range of shard `shard` of `num_shards` over `num_docs` documents:
/// contiguous near-equal split, the first num_docs % num_shards shards
/// one document larger. Requires shard < num_shards.
ShardRange ShardRangeOf(size_t shard, size_t num_shards, uint64_t num_docs);

/// Build knobs for a sharded build.
struct ShardedIndexConfig {
  size_t num_shards = 4;
  /// Per-shard build options. build_block_index applies after the
  /// collection-stats override (so block maxima carry global stats).
  /// store_text=false (the serving setting) frees each shard's token
  /// streams as its worker finalizes it.
  IndexBuildOptions build;
  /// Build parallelism.
  struct Stream {
    /// Shards generated, indexed and finalized at once (0 or 1: one
    /// after another on the calling thread). Also the fan-out of the
    /// stats override and block-index rebuild.
    unsigned workers = 1;
  };
  Stream stream;

  [[nodiscard]] Status Validate() const;
};

/// Merges per-shard top-k lists (each sorted by the ranking contract:
/// descending score, ties by ascending external doc id) into the global
/// top-k — same comparator, truncated to k. Pure function, property-
/// tested against the single-index oracle and edge cases (empty shards,
/// k below the cross-shard tie width).
std::vector<SearchResult> MergeShardTopK(
    const std::vector<std::vector<SearchResult>>& per_shard, size_t k);

/// Immutable after construction; Search* methods are safe to call
/// concurrently (shards are read-only).
class ShardedIndex {
 public:
  /// Result of a deadline-bounded scatter: shards that could not run
  /// before the deadline are *flagged*, never silently dropped.
  struct PartialResult {
    std::vector<SearchResult> results;
    size_t shards_answered = 0;
    bool complete = true;
    /// The evaluator that scored: the requested one, or kExhaustive when
    /// an answered leg fell back to it (InvertedIndex::EffectiveEvaluator).
    /// The requested one when no leg ran.
    QueryEvaluator evaluator_used = QueryEvaluator::kExhaustive;
    /// The injected clock read once every leg has run or been skipped,
    /// before the merge.
    int64_t scatter_end_nanos = 0;
  };

  /// Builds one shard per ShardRangeOf range of [0, num_docs) on up to
  /// config.stream.workers threads; each worker generates, indexes and
  /// finalizes whole shards. Then merges and overrides collection stats
  /// (see file comment). The shards are the same for any worker count.
  /// The ckr.serve.build.{ingest,finalize}_seconds histograms get one
  /// sample per shard (its worker's time, so concurrent shards overlap);
  /// ckr.serve.build.stats_seconds one per build.
  [[nodiscard]] static StatusOr<ShardedIndex> Build(
      const World& world, Document::Kind kind, uint64_t num_docs,
      const ShardedIndexConfig& config);

  /// Wraps externally built, finalized shards (tests and custom builds).
  /// Validates that external doc ids are disjoint across shards, then
  /// applies the merged-stats override to every shard. Shards may be
  /// empty.
  [[nodiscard]] static StatusOr<ShardedIndex> FromShards(
      std::vector<std::unique_ptr<InvertedIndex>> shards);

  size_t NumShards() const { return shards_.size(); }
  uint64_t NumDocs() const { return num_docs_; }
  const InvertedIndex& shard(size_t s) const { return *shards_[s]; }
  /// Documents per shard — the corpus size the evaluator policy
  /// (ChooseEvaluator) judges, since each scatter leg runs on one shard.
  uint64_t MaxShardDocs() const;

  /// Scatter/gather top-k over every shard, sequential scatter — the
  /// deterministic oracle-equivalent entry point. The query is parsed
  /// once (ParsedQuery) and every shard leg scores those terms.
  std::vector<SearchResult> Search(std::string_view query, size_t k,
                                   const Bm25Params& params = {},
                                   QueryEvaluator evaluator =
                                       QueryEvaluator::kExhaustive) const;

  /// Deadline-bounded scatter/gather, parsing the query once as Search()
  /// does. Before each shard leg runs, the injected clock is checked
  /// against `deadline_nanos` (absolute, 0 = none): legs that cannot
  /// start in time are skipped and the result is marked incomplete.
  /// `shard_parallelism` > 1 fans the scatter across ParallelForWorkers
  /// threads (per-shard slots, so executed legs stay deterministic); 1
  /// runs inline — the default for the daemon, whose parallelism comes
  /// from its worker pool. The per-leg result slots live in thread-local
  /// scratch owned by the calling thread, so a warm call allocates only
  /// the parsed query, each leg's result and the merged list.
  PartialResult SearchWithDeadline(std::string_view query, size_t k,
                                   QueryEvaluator evaluator,
                                   const Clock& clock, int64_t deadline_nanos,
                                   unsigned shard_parallelism = 1) const;

 private:
  explicit ShardedIndex(std::vector<std::unique_ptr<InvertedIndex>> shards);

  std::vector<std::unique_ptr<InvertedIndex>> shards_;
  uint64_t num_docs_ = 0;
};

}  // namespace ckr

#endif  // CKR_SERVE_SHARDED_INDEX_H_
