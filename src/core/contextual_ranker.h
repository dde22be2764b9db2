// Public entry point of the library.
//
// ContextualRanker bundles the full system the paper deploys: it builds
// the world and substrates, simulates click traffic, trains the combined
// interestingness+relevance ranking model, loads the quantized runtime
// stores of Section VI, and then ranks the key concepts of any new
// document through the production RuntimeRanker.
//
//   auto ranker = ContextualRanker::Train({});
//   auto ranked = (*ranker)->Rank(document_text, /*top_n=*/5);
#ifndef CKR_CORE_CONTEXTUAL_RANKER_H_
#define CKR_CORE_CONTEXTUAL_RANKER_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "core/experiment.h"
#include "core/pipeline.h"
#include "framework/runtime_ranker.h"
#include "framework/store_pack.h"

namespace ckr {

/// End-to-end options. The deployed model always uses the full feature
/// layout (all interestingness groups + the snippet relevance score) so
/// that the runtime store layout matches; experiment-time ablations go
/// through ExperimentRunner instead.
struct ContextualRankerOptions {
  PipelineConfig pipeline;
  DatasetConfig dataset;
  RankSvmConfig svm;
  RelevanceResource relevance_resource = RelevanceResource::kSnippets;
};

/// Immutable after Train(); Rank() is const and thread-compatible (stats
/// accumulation aside).
class ContextualRanker {
 public:
  /// Builds + trains the whole system (offline phase): about 5 s at paper
  /// scale on 2 training threads, under a second at test scale. Each stage
  /// records into a `ckr.offline.stage.*` histogram (pipeline build and
  /// its parts, dataset build, RankSVM fit, store population), and the
  /// stages add up to the wall time.
  [[nodiscard]] static StatusOr<std::unique_ptr<ContextualRanker>> Train(
      const ContextualRankerOptions& options);

  /// Ranks the key concepts of a document, best first. `top_n` == 0 means
  /// all.
  std::vector<RankedAnnotation> Rank(std::string_view text,
                                     size_t top_n = 0) const;

  /// Batch serving: ranks every document using up to `num_threads` workers
  /// (0 or 1 = inline). Output slot i corresponds to docs[i]; results are
  /// deterministic and identical to per-document Rank() calls regardless
  /// of thread count. Stats are accumulated as with Rank().
  std::vector<std::vector<RankedAnnotation>> RankBatch(
      std::span<const std::string_view> docs, unsigned num_threads,
      size_t top_n = 0) const;

  const Pipeline& pipeline() const { return *pipeline_; }
  const ClickDataset& dataset() const { return dataset_; }
  const RankSvmModel& model() const { return model_; }
  /// The underlying Section VI runtime (for benchmarks and direct batch
  /// access with caller-managed stats/scratch).
  const RuntimeRanker& runtime() const { return *runtime_; }

  const ConceptStore& concept_store() const { return concepts_; }
  const GlobalTidTable& tid_table() const { return tids_; }

  /// Throughput counters accumulated across Rank() calls (Section VI
  /// performance experiment).
  const RuntimeStats& stats() const { return stats_; }
  void ResetStats() { stats_ = RuntimeStats(); }

  /// Serializes the deployable runtime artifact (model + TID table +
  /// quantized stores) in the StorePack format; see
  /// framework/store_pack.h.
  std::string SerializePack() const {
    return SerializeStorePack(tids_, concepts_, model_);
  }

  /// Attaches a live CTR tracker (Section VIII online adaptation); its
  /// per-concept adjustments are added to every Rank() score. Pass
  /// nullptr to detach. The tracker must outlive this object.
  void SetOnlineTracker(const CtrTracker* tracker) {
    runtime_->SetOnlineTracker(tracker);
  }

 private:
  ContextualRanker() = default;

  std::unique_ptr<Pipeline> pipeline_;
  ClickDataset dataset_;
  RankSvmModel model_;
  GlobalTidTable tids_;
  ConceptStore concepts_;
  std::unique_ptr<RuntimeRanker> runtime_;
  mutable RuntimeStats stats_;
};

}  // namespace ckr

#endif  // CKR_CORE_CONTEXTUAL_RANKER_H_
