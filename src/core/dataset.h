// Click-through dataset construction (paper Sections III and V-A.1).
//
// News stories are annotated by the detector, traffic is simulated, the
// cleaning rules are applied, large documents are partitioned into
// overlapping 2500-character windows (position-bias mitigation), and each
// surviving annotation becomes a labeled ranking instance carrying: the
// CTR label, the concept-vector baseline score, the nine interestingness
// features, and the mined relevance score against the window context for
// each of the three resources.
#ifndef CKR_CORE_DATASET_H_
#define CKR_CORE_DATASET_H_

#include <array>
#include <string>
#include <vector>

#include "clicks/click_model.h"
#include "core/pipeline.h"
#include "eval/cross_validation.h"
#include "features/interestingness.h"
#include "features/offline_miner.h"
#include "features/relevance.h"
#include "text/sentence.h"

namespace ckr {

/// Windowing, cleaning and CV knobs.
struct DatasetConfig {
  size_t window_size = 2500;
  size_t window_overlap = 500;
  /// The production system annotates only its top-ranked entities per
  /// story (the paper's data averages ~7.4 annotated concepts/story);
  /// detections beyond this cut, ranked by concept-vector score, receive
  /// no Shortcut and therefore no click data. 0 disables the cut.
  size_t max_annotations_per_story = 8;
  ReportFilter filter;
  int cv_folds = 5;
  uint64_t cv_seed = 31337;
  size_t relevance_terms = 100;  ///< m: mined keywords kept per concept.
  /// Worker threads for the offline phase (detection, click simulation,
  /// per-concept mining). Deterministic for any value: work is
  /// partitioned per story / per concept with no cross-item state.
  unsigned num_threads = 0;  ///< 0 = use all hardware threads.
};

/// One labeled ranking instance (a concept in a window).
struct WindowInstance {
  std::string key;
  EntityType type = EntityType::kConcept;
  uint32_t window_group = 0;  ///< Global window id (pairing group).
  uint32_t story_index = 0;   ///< Index into ClickDataset::stories.
  size_t position = 0;        ///< Byte offset within the story.
  uint64_t views = 0;
  uint64_t clicks = 0;
  double ctr = 0.0;
  double baseline_score = 0.0;  ///< Concept-vector score in the window.
  InterestingnessVector interestingness;
  /// Relevance score per resource, indexed by RelevanceResource.
  std::array<double, 3> relevance{};
};

/// The assembled dataset.
struct ClickDataset {
  std::vector<WindowInstance> instances;
  std::vector<uint32_t> surviving_stories;  ///< Story ids after cleaning.
  std::vector<int> story_fold;              ///< Fold per surviving story.
  size_t num_windows = 0;
  uint64_t total_clicks = 0;
  size_t num_distinct_concepts = 0;

  /// All CTR labels (for the NDCG bucketizer).
  std::vector<double> AllCtrs() const;

  /// Instance indexes grouped by window, in window order.
  std::vector<std::vector<size_t>> GroupByWindow() const;
};

/// The per-concept mining Build() did: slot c of `mined` holds what was
/// mined for `concepts[c]` (the dataset's distinct concepts, in first-seen
/// order).
struct MinedConceptCache {
  std::vector<ConceptKey> concepts;
  std::vector<MinedConcept> mined;
};

/// Builds the dataset from a pipeline. Mining results are cached per
/// concept, so the cost is O(distinct concepts) resource calls.
class DatasetBuilder {
 public:
  DatasetBuilder(const Pipeline& pipeline, const DatasetConfig& config = {});

  /// When `mined` is non-null it receives the mining cache, so a caller
  /// that needs the same concepts mined again (Train's store population)
  /// can take them instead.
  [[nodiscard]] StatusOr<ClickDataset> Build(
      MinedConceptCache* mined = nullptr) const;

 private:
  const Pipeline& pipeline_;
  DatasetConfig config_;
};

}  // namespace ckr

#endif  // CKR_CORE_DATASET_H_
