#include "core/contextual_ranker.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "obs/hooks.h"

namespace ckr {

StatusOr<std::unique_ptr<ContextualRanker>> ContextualRanker::Train(
    const ContextualRankerOptions& options) {
  std::unique_ptr<ContextualRanker> ranker(new ContextualRanker());

  auto pipeline_or = Pipeline::Build(options.pipeline);
  if (!pipeline_or.ok()) return pipeline_or.status();
  ranker->pipeline_ = std::move(*pipeline_or);
  const Pipeline& p = *ranker->pipeline_;

  DatasetBuilder builder(p, options.dataset);
  MinedConceptCache dataset_mined;
  auto dataset_or = builder.Build(&dataset_mined);
  if (!dataset_or.ok()) return dataset_or.status();
  ranker->dataset_ = std::move(*dataset_or);

  // The deployed model: full interestingness layout + relevance feature,
  // relevance tie-break (Section V-A.6).
  ModelSpec spec;
  spec.group_mask = kAllFeatureGroups;
  spec.use_interestingness = true;
  spec.include_relevance = true;
  spec.relevance_resource = options.relevance_resource;
  spec.tie_break_relevance = true;
  spec.svm = options.svm;
  ExperimentRunner runner(ranker->dataset_);
  auto model_or = runner.TrainFullModel(spec);
  if (!model_or.ok()) return model_or.status();
  ranker->model_ = std::move(*model_or);

  // Offline store population: every candidate the detector can emit (the
  // editorial dictionaries plus all multi-term units).
  CKR_OBS_SCOPED_TIMER("ckr.offline.stage.store_population_seconds");
  std::vector<std::pair<std::string, EntityType>> candidates;
  for (const Entity& e : p.world().entities()) {
    if (e.in_dictionary) candidates.emplace_back(e.key, e.type);
  }
  for (const UnitInfo* u : p.units().MultiTermUnits()) {
    EntityId id = p.world().FindByKey(u->phrase);
    if (id != kInvalidEntity && p.world().entity(id).in_dictionary) continue;
    candidates.emplace_back(u->phrase, EntityType::kConcept);
  }

  // A candidate the dataset already mined under the same key and type
  // takes that result (mining is a pure function of key and type); only
  // the others are mined here, in parallel into per-candidate slots.
  std::vector<InterestingnessVector> ivecs(candidates.size());
  std::vector<std::vector<RelevantTerm>> mined(candidates.size());
  std::unordered_map<std::string_view, size_t> dataset_slot;
  for (size_t c = 0; c < dataset_mined.concepts.size(); ++c) {
    dataset_slot.emplace(dataset_mined.concepts[c].key, c);
  }
  const size_t resource = static_cast<size_t>(options.relevance_resource);
  std::vector<size_t> to_mine;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const auto& [key, type] = candidates[i];
    auto it = dataset_slot.find(key);
    if (it == dataset_slot.end() ||
        dataset_mined.concepts[it->second].type != type) {
      to_mine.push_back(i);
      continue;
    }
    MinedConcept& m = dataset_mined.mined[it->second];
    ivecs[i] = m.interestingness;
    mined[i] = std::move(m.relevance[resource]);
    dataset_slot.erase(it);  // Moved from: a repeated key mines afresh.
  }
  unsigned workers = options.dataset.num_threads == 0
                         ? DefaultWorkerCount()
                         : options.dataset.num_threads;
  ParallelFor(to_mine.size(), workers, [&](size_t j) {
    const size_t i = to_mine[j];
    const auto& [key, type] = candidates[i];
    ivecs[i] = p.interestingness().Extract(key, type);
    mined[i] = p.relevance_miner().Mine(key, options.relevance_resource,
                                        options.dataset.relevance_terms);
  });
  dataset_slot.clear();
  dataset_mined = MinedConceptCache();

  // Store insertions stay sequential: a repeated key keeps its last entry.
  for (size_t i = 0; i < candidates.size(); ++i) {
    ranker->concepts_.Add(candidates[i].first, ivecs[i], mined[i]);
  }
  ranker->concepts_.Finalize(&ranker->tids_);

  ranker->runtime_ = std::make_unique<RuntimeRanker>(
      p.detector(), ranker->concepts_, ranker->tids_, ranker->model_);
  return ranker;
}

std::vector<RankedAnnotation> ContextualRanker::Rank(std::string_view text,
                                                     size_t top_n) const {
  std::vector<RankedAnnotation> ranked =
      runtime_->ProcessDocument(text, &stats_);
  if (top_n > 0 && ranked.size() > top_n) ranked.resize(top_n);
  return ranked;
}

std::vector<std::vector<RankedAnnotation>> ContextualRanker::RankBatch(
    std::span<const std::string_view> docs, unsigned num_threads,
    size_t top_n) const {
  std::vector<std::vector<RankedAnnotation>> results =
      runtime_->ProcessBatch(docs, num_threads, &stats_);
  if (top_n > 0) {
    for (auto& ranked : results) {
      if (ranked.size() > top_n) ranked.resize(top_n);
    }
  }
  return results;
}

}  // namespace ckr
