#include "serve/sharded_index.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "corpus/doc_generator.h"
#include "obs/hooks.h"

namespace ckr {

namespace {

/// SearchWithDeadline's per-leg slots, one set per calling thread.
struct ScatterScratch {
  std::vector<std::vector<SearchResult>> per_shard;
  std::vector<uint8_t> answered;
};

ScatterScratch& ThreadScatterScratch() {
  static thread_local ScatterScratch scratch;
  return scratch;
}

}  // namespace

ShardRange ShardRangeOf(size_t shard, size_t num_shards, uint64_t num_docs) {
  CKR_CHECK_LT(shard, num_shards);
  const uint64_t base = num_docs / num_shards;
  const uint64_t rem = num_docs % num_shards;
  ShardRange r;
  r.begin = static_cast<uint64_t>(shard) * base +
            std::min<uint64_t>(shard, rem);
  r.end = r.begin + base + (shard < rem ? 1 : 0);
  return r;
}

Status ShardedIndexConfig::Validate() const {
  if (num_shards == 0) {
    return Status::InvalidArgument("sharded index needs at least one shard");
  }
  return Status::OK();
}

std::vector<SearchResult> MergeShardTopK(
    const std::vector<std::vector<SearchResult>>& per_shard, size_t k) {
  std::vector<SearchResult> merged;
  size_t total = 0;
  for (const auto& shard : per_shard) total += shard.size();
  merged.reserve(total);
  for (const auto& shard : per_shard) {
    merged.insert(merged.end(), shard.begin(), shard.end());
  }
  // Each input list is already RankBefore-sorted, but a flat sort of at
  // most NumShards * k entries is cheap and keeps the function total-order
  // correct even for unsorted inputs. RankBefore is a strict total order
  // over distinct doc ids, so the result is unique.
  std::sort(merged.begin(), merged.end(), RankBefore);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

ShardedIndex::ShardedIndex(std::vector<std::unique_ptr<InvertedIndex>> shards)
    : shards_(std::move(shards)) {
  for (const auto& shard : shards_) num_docs_ += shard->NumDocs();
}

StatusOr<ShardedIndex> ShardedIndex::Build(const World& world,
                                           Document::Kind kind,
                                           uint64_t num_docs,
                                           const ShardedIndexConfig& config) {
  CKR_RETURN_IF_ERROR(config.Validate());
  // Shards ingest with the block index deferred: it must be built *after*
  // the collection-stats override so its maxima carry the global idf.
  IndexBuildOptions shard_opts = config.build;
  shard_opts.build_block_index = false;
  const DocGenerator generator(world);
  const size_t num_shards = config.num_shards;
  const unsigned workers = config.stream.workers;
  std::vector<std::unique_ptr<InvertedIndex>> shards(num_shards);
  // A worker owns whole shards. It generates a shard's range in ascending
  // id order, so the shard is what a serial build makes, and finalizes it
  // at once, so a search-only shard's token streams are freed before the
  // worker takes its next shard.
  auto build_shard = [&](size_t s) {
    auto shard = std::make_unique<InvertedIndex>(shard_opts);
    const ShardRange range = ShardRangeOf(s, num_shards, num_docs);
    {
      CKR_OBS_SCOPED_TIMER("ckr.serve.build.ingest_seconds");
      for (uint64_t id = range.begin; id < range.end; ++id) {
        shard->Add(generator.Generate(kind, static_cast<DocId>(id)));
      }
    }
    {
      CKR_OBS_SCOPED_TIMER("ckr.serve.build.finalize_seconds");
      shard->Finalize();
    }
    shards[s] = std::move(shard);
  };
  ParallelFor(num_shards, workers, build_shard);

  CKR_OBS_SCOPED_TIMER("ckr.serve.build.stats_seconds");
  CollectionStats merged;
  for (const auto& shard : shards) {
    merged.Absorb(shard->LocalCollectionStats());
  }
  std::vector<Status> overridden(num_shards);
  auto override_shard = [&](size_t s) {
    overridden[s] = shards[s]->OverrideCollectionStats(merged);
    if (overridden[s].ok() && config.build.build_block_index) {
      shards[s]->RebuildBlockIndex();
    }
  };
  ParallelFor(num_shards, workers, override_shard);
  for (const Status& status : overridden) CKR_RETURN_IF_ERROR(status);
  return ShardedIndex(std::move(shards));
}

StatusOr<ShardedIndex> ShardedIndex::FromShards(
    std::vector<std::unique_ptr<InvertedIndex>> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("sharded index needs at least one shard");
  }
  std::unordered_set<DocId> seen;
  for (const auto& shard : shards) {
    if (shard == nullptr || !shard->finalized()) {
      return Status::InvalidArgument(
          "every shard must be a finalized index");
    }
    for (uint32_t d = 0; d < shard->NumDocs(); ++d) {
      if (!seen.insert(shard->ExternalDocId(d)).second) {
        return Status::InvalidArgument(
            "shards must hold disjoint document sets");
      }
    }
  }
  CollectionStats merged;
  for (const auto& shard : shards) {
    merged.Absorb(shard->LocalCollectionStats());
  }
  // OverrideCollectionStats rebuilds an existing block index itself;
  // shards without one keep their exhaustive-fallback behaviour.
  for (auto& shard : shards) {
    CKR_RETURN_IF_ERROR(shard->OverrideCollectionStats(merged));
  }
  return ShardedIndex(std::move(shards));
}

uint64_t ShardedIndex::MaxShardDocs() const {
  uint64_t max_docs = 0;
  for (const auto& shard : shards_) {
    max_docs = std::max<uint64_t>(max_docs, shard->NumDocs());
  }
  return max_docs;
}

std::vector<SearchResult> ShardedIndex::Search(std::string_view query,
                                               size_t k,
                                               const Bm25Params& params,
                                               QueryEvaluator evaluator) const {
  const ParsedQuery parsed(query);
  std::vector<std::vector<SearchResult>> per_shard(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    per_shard[s] = shards_[s]->Search(parsed, k, params, evaluator);
  }
  return MergeShardTopK(per_shard, k);
}

ShardedIndex::PartialResult ShardedIndex::SearchWithDeadline(
    std::string_view query, size_t k, QueryEvaluator evaluator,
    const Clock& clock, int64_t deadline_nanos,
    unsigned shard_parallelism) const {
  const size_t n = shards_.size();
  // Parsed once for every leg; each shard scores the same sorted terms.
  const ParsedQuery parsed(query);
  // The calling thread's slots, reused across requests: emptied here,
  // filled by the legs (on this thread or, with shard_parallelism > 1,
  // on helpers that finish before ParallelForWorkers returns).
  ScatterScratch& scratch = ThreadScatterScratch();
  std::vector<std::vector<SearchResult>>& per_shard = scratch.per_shard;
  std::vector<uint8_t>& answered = scratch.answered;
  per_shard.resize(n);
  for (std::vector<SearchResult>& slot : per_shard) slot.clear();
  answered.assign(n, 0);
  auto run_shard = [&](size_t s) {
    // Admission per leg: a leg that cannot *start* before the deadline is
    // skipped; one that started runs to completion (bounded by one
    // shard's worth of work).
    if (deadline_nanos > 0 && clock.NowNanos() > deadline_nanos) return;
    per_shard[s] = shards_[s]->Search(parsed, k, Bm25Params{}, evaluator);
    answered[s] = 1;
  };
  if (shard_parallelism > 1) {
    ParallelForWorkers(n, shard_parallelism,
                       [&](unsigned worker, size_t s) {
                         (void)worker;
                         run_shard(s);
                       });
  } else {
    for (size_t s = 0; s < n; ++s) run_shard(s);
  }
  PartialResult out;
  out.scatter_end_nanos = clock.NowNanos();
  out.evaluator_used = evaluator;
  for (size_t s = 0; s < n; ++s) {
    if (answered[s] == 0) continue;
    ++out.shards_answered;
    if (shards_[s]->EffectiveEvaluator(evaluator) != evaluator) {
      out.evaluator_used = QueryEvaluator::kExhaustive;
    }
  }
  out.complete = out.shards_answered == n;
  out.results = MergeShardTopK(per_shard, k);
  return out;
}

}  // namespace ckr
