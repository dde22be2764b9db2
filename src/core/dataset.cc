#include "core/dataset.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/parallel.h"
#include "obs/hooks.h"

namespace ckr {

std::vector<double> ClickDataset::AllCtrs() const {
  std::vector<double> out;
  out.reserve(instances.size());
  for (const WindowInstance& inst : instances) out.push_back(inst.ctr);
  return out;
}

std::vector<std::vector<size_t>> ClickDataset::GroupByWindow() const {
  std::unordered_map<uint32_t, size_t> group_index;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < instances.size(); ++i) {
    uint32_t g = instances[i].window_group;
    auto it = group_index.find(g);
    if (it == group_index.end()) {
      group_index.emplace(g, groups.size());
      groups.emplace_back();
      groups.back().push_back(i);
    } else {
      groups[it->second].push_back(i);
    }
  }
  return groups;
}

DatasetBuilder::DatasetBuilder(const Pipeline& pipeline,
                               const DatasetConfig& config)
    : pipeline_(pipeline), config_(config) {}

StatusOr<ClickDataset> DatasetBuilder::Build(
    MinedConceptCache* mined) const {
  CKR_OBS_SCOPED_TIMER("ckr.offline.stage.dataset_build_seconds");
  CKR_OBS_COUNTER_INC("ckr.offline.dataset_builds");
  const auto& stories = pipeline_.news_stories();
  const unsigned workers =
      config_.num_threads == 0 ? DefaultWorkerCount() : config_.num_threads;
  CKR_OBS_COUNTER_ADD("ckr.offline.stories_in", stories.size());

  // Stage 1 (parallel over stories): annotate, apply the production
  // annotation cut, simulate traffic. Each story writes only its own slot,
  // so the result is independent of thread scheduling.
  std::vector<StoryReport> reports(stories.size());
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.story_reports_seconds");
    ParallelFor(stories.size(), workers, [&](size_t s) {
      const Document& story = stories[s];
      std::vector<Detection> detections =
          pipeline_.detector().Detect(story.text);
      // The production baseline annotates only its top-ranked entities; the
      // rest get no Shortcut and therefore produce no click data.
      if (config_.max_annotations_per_story > 0) {
        std::vector<std::string> keys;
        std::unordered_set<std::string> seen;
        for (const Detection& d : detections) {
          if (d.type == EntityType::kPattern) continue;
          if (seen.insert(d.key).second) keys.push_back(d.key);
        }
        if (keys.size() > config_.max_annotations_per_story) {
          std::vector<double> scores =
              pipeline_.concept_vectors().ScoreCandidates(story.text, keys);
          std::vector<size_t> order(keys.size());
          for (size_t i = 0; i < order.size(); ++i) order[i] = i;
          std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            if (scores[a] != scores[b]) return scores[a] > scores[b];
            return keys[a] < keys[b];
          });
          std::unordered_set<std::string> kept_keys;
          for (size_t i = 0; i < config_.max_annotations_per_story; ++i) {
            kept_keys.insert(keys[order[i]]);
          }
          std::vector<Detection> pruned;
          for (Detection& d : detections) {
            if (d.type == EntityType::kPattern || kept_keys.count(d.key) > 0) {
              pruned.push_back(std::move(d));
            }
          }
          detections = std::move(pruned);
        }
      }
      reports[s] = pipeline_.clicks().Simulate(story, detections);
    });
  }

  // Stage 2: the cleaning rules of Section V-A.1.
  std::vector<StoryReport> kept = FilterReports(reports, config_.filter);
  CKR_OBS_COUNTER_ADD("ckr.offline.stories_kept", kept.size());
  if (kept.empty()) {
    return Status::FailedPrecondition(
        "no stories survive the cleaning rules; scale up the world");
  }

  // Stage 3: distinct concepts across surviving reports (insertion order
  // fixed by report order, so ids are deterministic).
  std::vector<ConceptKey> concepts;
  std::unordered_map<std::string, size_t> concept_index;
  for (const StoryReport& report : kept) {
    for (const AnnotationRecord& a : report.annotations) {
      if (concept_index.emplace(a.key, concepts.size()).second) {
        concepts.push_back({a.key, a.type});
      }
    }
  }

  // Stage 4: the per-concept offline fan-out — static interestingness
  // vectors and relevant-keyword mining from all three resources, spread
  // across workers with one output slot per concept.
  OfflineConceptMiner miner(pipeline_.interestingness(),
                            pipeline_.relevance_miner());
  std::vector<MinedConcept> cache =
      miner.MineAll(concepts, config_.relevance_terms, workers);
  RelevanceScorer scorers[kNumRelevanceResources];
  for (size_t c = 0; c < concepts.size(); ++c) {
    for (size_t r = 0; r < kNumRelevanceResources; ++r) {
      scorers[r].AddConcept(concepts[c].key, cache[c].relevance[r]);
    }
  }

  // Stage 5 (parallel over kept stories): windowing + instance assembly.
  // A sequential pass first counts each story's ranked windows and
  // instances, so every story then writes only its own slice of one
  // preallocated instance array, and window groups number the windows in
  // story order exactly as a sequential assembly would.
  ClickDataset ds;
  {
    CKR_OBS_SCOPED_TIMER("ckr.offline.stage.window_assembly_seconds");
    using InWindow = std::vector<const AnnotationRecord*>;
    // Calls fn(window, in_window) for each window of the story holding at
    // least two annotations (fewer give no ranking signal), in text order;
    // in_window lists the annotations whose first occurrence falls inside.
    auto for_each_ranked_window = [&](const StoryReport& report, auto&& fn) {
      InWindow in_window;
      for (const TextSpan& w : PartitionIntoWindows(
               stories[report.story].text.size(), config_.window_size,
               config_.window_overlap)) {
        in_window.clear();
        for (const AnnotationRecord& a : report.annotations) {
          if (a.position >= w.begin && a.position < w.end) {
            in_window.push_back(&a);
          }
        }
        if (in_window.size() >= 2) fn(w, in_window);
      }
    };

    std::vector<size_t> first_instance(kept.size() + 1, 0);
    std::vector<uint32_t> first_group(kept.size() + 1, 0);
    for (size_t s = 0; s < kept.size(); ++s) {
      first_instance[s + 1] = first_instance[s];
      first_group[s + 1] = first_group[s];
      for_each_ranked_window(kept[s], [&](const TextSpan&,
                                          const InWindow& in_window) {
        first_instance[s + 1] += in_window.size();
        ++first_group[s + 1];
      });
    }
    ds.instances.resize(first_instance.back());

    ParallelFor(kept.size(), workers, [&](size_t s) {
      const std::string& text = stories[kept[s].story].text;
      WindowInstance* inst = ds.instances.data() + first_instance[s];
      uint32_t group = first_group[s];
      for_each_ranked_window(kept[s], [&](const TextSpan& w,
                                          const InWindow& in_window) {
        std::string_view window_text(text.data() + w.begin, w.size());
        auto stemmed = RelevanceScorer::StemContext(window_text);

        // Baseline concept-vector scores for the window's candidates.
        std::vector<std::string> keys;
        keys.reserve(in_window.size());
        for (const AnnotationRecord* a : in_window) keys.push_back(a->key);
        std::vector<double> baseline =
            pipeline_.concept_vectors().ScoreCandidates(window_text, keys);

        for (size_t i = 0; i < in_window.size(); ++i, ++inst) {
          const AnnotationRecord& a = *in_window[i];
          const MinedConcept& entry = cache[concept_index.at(a.key)];
          inst->key = a.key;
          inst->type = a.type;
          inst->window_group = group;
          inst->story_index = static_cast<uint32_t>(s);
          inst->position = a.position;
          inst->views = a.views;
          inst->clicks = a.clicks;
          inst->ctr = a.Ctr();
          inst->baseline_score = baseline[i];
          inst->interestingness = entry.interestingness;
          for (int r = 0; r < 3; ++r) {
            inst->relevance[static_cast<size_t>(r)] =
                scorers[r].Score(a.key, stemmed);
          }
        }
        ++group;
      });
      CKR_DCHECK(inst == ds.instances.data() + first_instance[s + 1]);
      CKR_DCHECK_EQ(group, first_group[s + 1]);
    });

    ds.surviving_stories.reserve(kept.size());
    for (const StoryReport& report : kept) {
      ds.surviving_stories.push_back(report.story);
    }
    for (const WindowInstance& inst : ds.instances) {
      ds.total_clicks += inst.clicks;
    }
    ds.num_windows = first_group.back();
  }
  ds.num_distinct_concepts = concepts.size();
  CKR_OBS_COUNTER_ADD("ckr.offline.windows", ds.num_windows);
  CKR_OBS_COUNTER_ADD("ckr.offline.instances", ds.instances.size());
  CKR_OBS_COUNTER_ADD("ckr.offline.distinct_concepts", concepts.size());
  ds.story_fold = KFoldAssignment(ds.surviving_stories.size(),
                                  config_.cv_folds, config_.cv_seed);
  if (mined != nullptr) {
    mined->concepts = std::move(concepts);
    mined->mined = std::move(cache);
  }
  return ds;
}

}  // namespace ckr
