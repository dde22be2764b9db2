// Training & evaluation engine performance: the contiguous-matrix trainer
// vs the preserved nested-vector legacy trainer, plus the parallel CV and
// bootstrap fan-outs.
//
// The trainer rewrite keeps every floating-point operation and RNG draw in
// the legacy order, so weights are bit-identical — the speedup comes from
// memory layout (one flat pre-transformed matrix, precomputed pair
// difference rows), prefetching, and hoisting the RNG off the SGD critical
// path. This binary builds the paper-scale dataset, asserts the
// equivalences (legacy vs. flat Train for both kernels; legacy sequential
// CV vs. the parallel EvaluateModelCV, every metric field), and only then
// times: the RFF pre-transform (per-row loop vs. flat batch, worker
// scaling), full Train for both kernels, cross-validated evaluation, and
// the Table III ablation sweep. Everything lands in BENCH_training.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/experiment.h"
#include "eval/metrics.h"
#include "ranksvm/legacy_rank_svm.h"
#include "ranksvm/rank_svm.h"

namespace {

using namespace ckr;

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<RankingInstance> BuildTrainingData(const ClickDataset& dataset,
                                               const ModelSpec& spec) {
  std::vector<RankingInstance> train;
  train.reserve(dataset.instances.size());
  for (const WindowInstance& inst : dataset.instances) {
    RankingInstance ri;
    ri.features = ExperimentRunner::Features(inst, spec);
    ri.label = inst.ctr;
    ri.group = inst.window_group;
    train.push_back(std::move(ri));
  }
  return train;
}

// The pre-parallel evaluation path: sequential folds, legacy trainer,
// single-threaded bootstrap. Mirrors ExperimentRunner::EvaluateModelCV +
// EvaluateScores exactly (same accumulation order) so the comparison with
// the parallel engine is bit-for-bit.
EvalResult LegacySequentialCv(const ClickDataset& dataset,
                              const ModelSpec& spec) {
  int folds = 0;
  for (int f : dataset.story_fold) folds = std::max(folds, f + 1);
  std::vector<double> scores(dataset.instances.size(), 0.0);
  for (int fold = 0; fold < folds; ++fold) {
    std::vector<RankingInstance> train;
    for (const WindowInstance& inst : dataset.instances) {
      if (dataset.story_fold[inst.story_index] == fold) continue;
      RankingInstance ri;
      ri.features = ExperimentRunner::Features(inst, spec);
      ri.label = inst.ctr;
      ri.group = inst.window_group;
      train.push_back(std::move(ri));
    }
    auto model_or = LegacyRankSvmTrainer(spec.svm).Train(train);
    if (!model_or.ok()) {
      std::fprintf(stderr, "legacy fold %d: %s\n", fold,
                   model_or.status().ToString().c_str());
      std::exit(1);
    }
    for (size_t i = 0; i < dataset.instances.size(); ++i) {
      const WindowInstance& inst = dataset.instances[i];
      if (dataset.story_fold[inst.story_index] != fold) continue;
      double s = model_or->Score(ExperimentRunner::Features(inst, spec));
      if (spec.tie_break_relevance) {
        s += 1e-9 * inst.relevance[static_cast<size_t>(
                        spec.relevance_resource)];
      }
      scores[i] = s;
    }
  }

  EvalResult result;
  const auto window_groups = dataset.GroupByWindow();
  const CtrBucketizer buckets(dataset.AllCtrs());
  PairwiseErrorAccumulator weighted, plain;
  double ndcg_sum[3] = {0, 0, 0};
  std::vector<std::pair<double, double>> window_masses;
  window_masses.reserve(window_groups.size());
  for (const auto& group : window_groups) {
    std::vector<double> pred, ctr;
    pred.reserve(group.size());
    ctr.reserve(group.size());
    for (size_t idx : group) {
      pred.push_back(scores[idx]);
      ctr.push_back(dataset.instances[idx].ctr);
    }
    PairwiseErrorAccumulator window_acc;
    AccumulatePairwiseError(pred, ctr, /*weighted=*/true, &window_acc);
    window_masses.emplace_back(window_acc.error_mass, window_acc.total_mass);
    weighted.error_mass += window_acc.error_mass;
    weighted.total_mass += window_acc.total_mass;
    AccumulatePairwiseError(pred, ctr, /*weighted=*/false, &plain);
    for (size_t k = 0; k < 3; ++k) {
      ndcg_sum[k] += NdcgAtK(pred, ctr, buckets, k + 1);
    }
  }
  result.weighted_error_rate = weighted.Rate();
  result.weighted_error_ci = BootstrapRatioCi(
      window_masses, /*resamples=*/2000, /*confidence=*/0.95,
      /*seed=*/8675309, /*num_threads=*/1);
  result.error_rate = plain.Rate();
  result.windows = window_groups.size();
  for (size_t k = 0; k < 3; ++k) {
    result.ndcg[k] = result.windows > 0
                         ? ndcg_sum[k] / static_cast<double>(result.windows)
                         : 0.0;
  }
  return result;
}

bool SameEval(const EvalResult& a, const EvalResult& b) {
  return a.weighted_error_rate == b.weighted_error_rate &&
         a.error_rate == b.error_rate && a.windows == b.windows &&
         a.ndcg[0] == b.ndcg[0] && a.ndcg[1] == b.ndcg[1] &&
         a.ndcg[2] == b.ndcg[2] &&
         a.weighted_error_ci.mean == b.weighted_error_ci.mean &&
         a.weighted_error_ci.lo == b.weighted_error_ci.lo &&
         a.weighted_error_ci.hi == b.weighted_error_ci.hi;
}

struct TimedPair {
  double legacy_seconds = 0.0;
  double flat_seconds = 0.0;
  double Speedup() const {
    return flat_seconds > 0 ? legacy_seconds / flat_seconds : 0.0;
  }
};

struct ScalePoint {
  unsigned workers = 0;
  double seconds = 0.0;
};

// Minimum wall time over `repeats` runs of `fn`.
template <typename Fn>
double MinSeconds(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    double s = WallSeconds(t0);
    if (r == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  ckr_bench::Lab lab = ckr_bench::BuildLab();
  const ClickDataset& dataset = lab.dataset;

  std::printf("=== training engine: flat matrices + deterministic "
              "parallelism vs legacy ===\n");
  ckr_bench::PrintDatasetHeader(lab);

  ModelSpec linear_spec;  // Default: all interestingness groups, linear.
  ModelSpec rbf_spec;
  rbf_spec.svm.kernel = SvmKernel::kRbfFourier;

  const std::vector<RankingInstance> train_data =
      BuildTrainingData(dataset, linear_spec);
  const size_t feat_dim =
      train_data.empty() ? 0 : train_data[0].features.size();

  // ---- Equivalence gates: the speedup claims are void unless the flat
  // engine reproduces the legacy engine bit for bit. ----

  auto legacy_linear = LegacyRankSvmTrainer(linear_spec.svm).Train(train_data);
  auto flat_linear = RankSvmTrainer(linear_spec.svm).Train(train_data);
  auto legacy_rbf = LegacyRankSvmTrainer(rbf_spec.svm).Train(train_data);
  auto flat_rbf = RankSvmTrainer(rbf_spec.svm).Train(train_data);
  if (!legacy_linear.ok() || !flat_linear.ok() || !legacy_rbf.ok() ||
      !flat_rbf.ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }
  const bool train_linear_identical =
      flat_linear->SerializeBinary() == legacy_linear->SerializeBinary();
  const bool train_rbf_identical =
      flat_rbf->SerializeBinary() == legacy_rbf->SerializeBinary();

  ExperimentRunner runner1(dataset, 1);
  EvalResult legacy_cv = LegacySequentialCv(dataset, linear_spec);
  auto flat_cv = runner1.EvaluateModelCV(linear_spec);
  if (!flat_cv.ok()) {
    std::fprintf(stderr, "cv: %s\n", flat_cv.status().ToString().c_str());
    return 1;
  }
  const bool cv_identical = SameEval(legacy_cv, *flat_cv);

  std::printf("weights bit-identical to legacy: linear %s, rbf %s\n",
              train_linear_identical ? "yes" : "NO",
              train_rbf_identical ? "yes" : "NO");
  std::printf("CV metrics bit-identical to legacy sequential: %s "
              "(weighted error %.4f%%)\n",
              cv_identical ? "yes" : "NO",
              100.0 * flat_cv->weighted_error_rate);
  if (!train_linear_identical || !train_rbf_identical || !cv_identical) {
    std::fprintf(stderr, "EQUIVALENCE FAILED — timings not comparable\n");
    return 1;
  }

  constexpr int kRepeats = 5;

  // ---- Full Train, both kernels, measured first while the process is
  // quiet — the linear run is ~40ms and latency-sensitive, so it goes
  // before the phases that allocate tens of MB of transform output. The
  // linear run is the headline: the RBF margin loop is FP-add
  // latency-bound, so layout can't buy as much there without changing
  // summation order (which would break bit-identity). ----
  TimedPair train_linear, train_rbf;
  // Short enough that scheduler noise on a busy host can dominate a
  // min-of-5; use more repeats so both minima converge.
  constexpr int kTrainLinearRepeats = 15;
  train_linear.legacy_seconds = MinSeconds(kTrainLinearRepeats, [&] {
    benchmark::DoNotOptimize(
        LegacyRankSvmTrainer(linear_spec.svm).Train(train_data));
  });
  train_linear.flat_seconds = MinSeconds(kTrainLinearRepeats, [&] {
    benchmark::DoNotOptimize(
        RankSvmTrainer(linear_spec.svm).Train(train_data));
  });
  train_rbf.legacy_seconds = MinSeconds(kRepeats, [&] {
    benchmark::DoNotOptimize(
        LegacyRankSvmTrainer(rbf_spec.svm).Train(train_data));
  });
  train_rbf.flat_seconds = MinSeconds(kRepeats, [&] {
    benchmark::DoNotOptimize(
        RankSvmTrainer(rbf_spec.svm).Train(train_data));
  });

  // ---- RFF pre-transform: legacy one-row-at-a-time loop vs one flat
  // batched matrix, plus worker scaling of the batch. ----
  std::vector<std::vector<double>> rows;
  rows.reserve(train_data.size());
  for (const RankingInstance& ri : train_data) rows.push_back(ri.features);

  TimedPair transform;
  transform.legacy_seconds = MinSeconds(kRepeats, [&] {
    std::vector<std::vector<double>> one(1);
    for (const auto& row : rows) {
      one[0] = row;
      benchmark::DoNotOptimize(flat_rbf->TransformBatch(one, 1));
    }
  });
  transform.flat_seconds = MinSeconds(kRepeats, [&] {
    benchmark::DoNotOptimize(flat_rbf->TransformBatch(rows, 1));
  });
  const std::vector<double> transform_ref = flat_rbf->TransformBatch(rows, 1);
  bool transform_identical = true;
  std::vector<ScalePoint> transform_scaling;
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    transform_scaling.push_back({workers, MinSeconds(kRepeats, [&] {
      benchmark::DoNotOptimize(flat_rbf->TransformBatch(rows, workers));
    })});
    transform_identical = transform_identical &&
                          flat_rbf->TransformBatch(rows, workers) ==
                              transform_ref;
  }

  // ---- Cross-validated evaluation: legacy sequential vs the parallel
  // engine at several worker counts. ----
  const double cv_legacy_seconds =
      MinSeconds(2, [&] { LegacySequentialCv(dataset, linear_spec); });
  std::vector<ScalePoint> cv_scaling;
  for (unsigned workers : {1u, 2u, 4u}) {
    ExperimentRunner runner(dataset, workers);
    cv_scaling.push_back({workers, MinSeconds(2, [&] {
      auto r = runner.EvaluateModelCV(linear_spec);
      if (!r.ok()) std::exit(1);
      benchmark::DoNotOptimize(r);
    })});
  }

  // ---- Table III ablation sweep: the All-Features model plus the five
  // leave-one-group-out rows, end to end. ----
  std::vector<ModelSpec> sweep;
  sweep.push_back(linear_spec);
  for (FeatureGroup g :
       {FeatureGroup::kQueryLogs, FeatureGroup::kTaxonomy,
        FeatureGroup::kSearchResults, FeatureGroup::kOther,
        FeatureGroup::kTextBased}) {
    ModelSpec spec;
    spec.group_mask = MaskWithout(g);
    sweep.push_back(spec);
  }
  auto t0 = std::chrono::steady_clock::now();
  for (const ModelSpec& spec : sweep) {
    LegacySequentialCv(dataset, spec);
  }
  const double sweep_legacy_seconds = WallSeconds(t0);
  ExperimentRunner runner_all(dataset, 0);  // All hardware threads.
  t0 = std::chrono::steady_clock::now();
  for (const ModelSpec& spec : sweep) {
    auto r = runner_all.EvaluateModelCV(spec);
    if (!r.ok()) return 1;
    benchmark::DoNotOptimize(r);
  }
  const double sweep_flat_seconds = WallSeconds(t0);

  // ---- Report. ----
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("\ninstances %zu, feature dim %zu, rff dim %zu, hardware "
              "threads %u\n",
              train_data.size(), feat_dim, rbf_spec.svm.rff_dim, hardware);
  std::printf("phase                      legacy s      flat s   speedup\n");
  std::printf("rff pre-transform        %10.4f  %10.4f  %7.2fx\n",
              transform.legacy_seconds, transform.flat_seconds,
              transform.Speedup());
  std::printf("train (linear)           %10.4f  %10.4f  %7.2fx\n",
              train_linear.legacy_seconds, train_linear.flat_seconds,
              train_linear.Speedup());
  std::printf("train (rbf)              %10.4f  %10.4f  %7.2fx\n",
              train_rbf.legacy_seconds, train_rbf.flat_seconds,
              train_rbf.Speedup());
  std::printf("cv eval (1 worker)       %10.4f  %10.4f  %7.2fx\n",
              cv_legacy_seconds, cv_scaling[0].seconds,
              cv_scaling[0].seconds > 0
                  ? cv_legacy_seconds / cv_scaling[0].seconds
                  : 0.0);
  std::printf("ablation sweep (%zu specs) %9.3f  %10.3f  %7.2fx\n",
              sweep.size(), sweep_legacy_seconds, sweep_flat_seconds,
              sweep_flat_seconds > 0
                  ? sweep_legacy_seconds / sweep_flat_seconds
                  : 0.0);
  std::printf("transform scaling (batch, outputs identical: %s):\n",
              transform_identical ? "yes" : "NO");
  for (const ScalePoint& p : transform_scaling) {
    std::printf("  %u worker%s  %.4f s  %.2fx\n", p.workers,
                p.workers == 1 ? " " : "s", p.seconds,
                p.seconds > 0 ? transform_scaling.front().seconds / p.seconds
                              : 0.0);
  }
  std::printf("cv eval worker scaling:\n");
  for (const ScalePoint& p : cv_scaling) {
    std::printf("  %u worker%s  %.3f s  %.2fx vs legacy\n", p.workers,
                p.workers == 1 ? " " : "s", p.seconds,
                p.seconds > 0 ? cv_legacy_seconds / p.seconds : 0.0);
  }

  std::FILE* f = std::fopen("BENCH_training.json", "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_training.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"instances\": %zu,\n", train_data.size());
  std::fprintf(f, "  \"feature_dim\": %zu,\n", feat_dim);
  std::fprintf(f, "  \"rff_dim\": %zu,\n", rbf_spec.svm.rff_dim);
  // Parallel scaling is bounded by the physical cores available; record
  // them so consumers can judge the speedup columns.
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hardware);
  std::fprintf(f, "  \"train_weights_identical_linear\": %s,\n",
               train_linear_identical ? "true" : "false");
  std::fprintf(f, "  \"train_weights_identical_rbf\": %s,\n",
               train_rbf_identical ? "true" : "false");
  std::fprintf(f, "  \"cv_metrics_identical\": %s,\n",
               cv_identical ? "true" : "false");
  std::fprintf(f, "  \"transform_identical_across_workers\": %s,\n",
               transform_identical ? "true" : "false");
  std::fprintf(f,
               "  \"rff_transform\": {\"legacy_seconds\": %.6f, "
               "\"flat_seconds\": %.6f, \"speedup\": %.4f},\n",
               transform.legacy_seconds, transform.flat_seconds,
               transform.Speedup());
  std::fprintf(f, "  \"transform_scaling\": [\n");
  for (size_t i = 0; i < transform_scaling.size(); ++i) {
    const ScalePoint& p = transform_scaling[i];
    std::fprintf(f,
                 "    {\"workers\": %u, \"seconds\": %.6f, "
                 "\"speedup_vs_1\": %.4f}%s\n",
                 p.workers, p.seconds,
                 p.seconds > 0 ? transform_scaling.front().seconds / p.seconds
                               : 0.0,
                 i + 1 < transform_scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"train_linear\": {\"legacy_seconds\": %.6f, "
               "\"flat_seconds\": %.6f, \"speedup\": %.4f},\n",
               train_linear.legacy_seconds, train_linear.flat_seconds,
               train_linear.Speedup());
  std::fprintf(f,
               "  \"train_rbf\": {\"legacy_seconds\": %.6f, "
               "\"flat_seconds\": %.6f, \"speedup\": %.4f},\n",
               train_rbf.legacy_seconds, train_rbf.flat_seconds,
               train_rbf.Speedup());
  std::fprintf(f, "  \"cv_legacy_seconds\": %.6f,\n", cv_legacy_seconds);
  std::fprintf(f, "  \"cv_scaling\": [\n");
  for (size_t i = 0; i < cv_scaling.size(); ++i) {
    const ScalePoint& p = cv_scaling[i];
    std::fprintf(f,
                 "    {\"workers\": %u, \"seconds\": %.6f, "
                 "\"speedup_vs_legacy\": %.4f}%s\n",
                 p.workers, p.seconds,
                 p.seconds > 0 ? cv_legacy_seconds / p.seconds : 0.0,
                 i + 1 < cv_scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"ablation_sweep\": {\"specs\": %zu, \"legacy_seconds\": "
               "%.6f, \"flat_seconds\": %.6f, \"speedup\": %.4f}\n",
               sweep.size(), sweep_legacy_seconds, sweep_flat_seconds,
               sweep_flat_seconds > 0
                   ? sweep_legacy_seconds / sweep_flat_seconds
                   : 0.0);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_training.json\n");
  benchmark::Shutdown();
  return 0;
}
