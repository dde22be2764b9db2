#include "ranksvm/rank_svm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/hooks.h"

namespace ckr {

namespace {

/// Header of the compact binary model format.
constexpr char kBinaryMagic[] = "ckr.ranksvm.v2";

/// Pair-diff rows are precomputed when they fit this budget — sized so
/// the matrix stays roughly last-level-cache resident, where halving the
/// per-step traffic pays for the build. Above it (RFF-width rows) the
/// matrix would be pure DRAM and materializing loses; the SGD loop reads
/// the two phi rows per step instead (same arithmetic).
constexpr size_t kPairDiffBudgetBytes = 32u << 20;

/// Picks are drawn kPickAhead steps early through a small ring so the
/// upcoming row can be prefetched and the RNG arithmetic overlaps the
/// latency-bound SGD chain. Ring size must be a power of two > ahead.
constexpr size_t kPickRing = 16;
constexpr size_t kPickAhead = 8;

/// Row `p` of a row-major (rows x dim) matrix backed by `pool`. Bounds-
/// checked under CKR_DCHECK; identical codegen to raw pointer arithmetic
/// in release.
inline Span<const double> RowSpan(const std::vector<double>& pool, size_t p,
                                  size_t dim) {
  CKR_DCHECK_LE((p + 1) * dim, pool.size());
  return Span<const double>(pool.data() + p * dim, dim);
}

}  // namespace

void RankSvmModel::TransformRowInto(const double* features, double* out,
                                    double* scratch) const {
  const size_t dim = mean_.size();
  if (kernel_ == SvmKernel::kLinear) {
    for (size_t i = 0; i < dim; ++i) {
      out[i] = (features[i] - mean_[i]) * inv_sd_[i];
    }
    return;
  }
  double* x = scratch;
  for (size_t i = 0; i < dim; ++i) {
    x[i] = (features[i] - mean_[i]) * inv_sd_[i];
  }
  const size_t rff_dim = rff_b_.size();
  const double scale = std::sqrt(2.0 / static_cast<double>(rff_dim));
  const double* w_row = rff_w_.data();
  for (size_t d = 0; d < rff_dim; ++d, w_row += dim) {
    double dot = rff_b_[d];
    for (size_t i = 0; i < dim; ++i) dot += w_row[i] * x[i];
    out[d] = scale * std::cos(dot);
  }
}

std::vector<double> RankSvmModel::Transform(
    const std::vector<double>& features) const {
  std::vector<double> out(FeatureDim());
  std::vector<double> scratch(kernel_ == SvmKernel::kLinear ? 0
                                                            : mean_.size());
  TransformRowInto(features.data(), out.data(), scratch.data());
  return out;
}

std::vector<double> RankSvmModel::TransformBatch(
    const std::vector<std::vector<double>>& rows,
    unsigned num_threads) const {
  const size_t feat_dim = FeatureDim();
  std::vector<double> out(rows.size() * feat_dim);
  unsigned workers = num_threads == 0 ? DefaultWorkerCount() : num_threads;
  std::vector<std::vector<double>> scratch(
      std::max(1u, workers),
      std::vector<double>(kernel_ == SvmKernel::kLinear ? 0 : mean_.size()));
  ParallelForWorkers(rows.size(), workers, [&](unsigned worker, size_t i) {
    CKR_DCHECK_EQ(rows[i].size(), mean_.size());
    TransformRowInto(rows[i].data(), out.data() + i * feat_dim,
                     scratch[worker].data());
  });
  return out;
}

double RankSvmModel::Score(const std::vector<double>& features) const {
  if (features.size() != mean_.size()) {
    LogWarn("ranksvm: Score called with " + std::to_string(features.size()) +
            " features on a model expecting " + std::to_string(mean_.size()) +
            "; returning 0");
    return 0.0;
  }
  std::vector<double> phi = Transform(features);
  double s = 0.0;
  for (size_t i = 0; i < phi.size(); ++i) s += weights_[i] * phi[i];
  return s;
}

StatusOr<double> RankSvmModel::ScoreChecked(
    const std::vector<double>& features) const {
  if (features.size() != mean_.size()) {
    return Status::InvalidArgument(
        "feature dimension mismatch: got " +
        std::to_string(features.size()) + ", model expects " +
        std::to_string(mean_.size()));
  }
  std::vector<double> phi = Transform(features);
  double s = 0.0;
  for (size_t i = 0; i < phi.size(); ++i) s += weights_[i] * phi[i];
  return s;
}

std::string RankSvmModel::SerializeBinary() const {
  BinaryWriter writer;
  writer.Str(kBinaryMagic);
  writer.U16(static_cast<uint16_t>(kernel_));
  writer.U32(static_cast<uint32_t>(mean_.size()));
  writer.U32(static_cast<uint32_t>(weights_.size()));
  writer.U32(static_cast<uint32_t>(rff_b_.size()));
  auto dump = [&writer](const std::vector<double>& v) {
    for (double x : v) writer.F64(x);
  };
  dump(mean_);
  dump(inv_sd_);
  dump(weights_);
  dump(rff_w_);
  dump(rff_b_);
  return writer.Release();
}

StatusOr<RankSvmModel> RankSvmModel::Deserialize(const std::string& blob) {
  BinaryReader reader(blob);
  if (reader.Str() != kBinaryMagic) {
    return Status::InvalidArgument("bad model header");
  }
  RankSvmModel m;
  const uint16_t kernel = reader.U16();
  if (kernel > static_cast<uint16_t>(SvmKernel::kRbfFourier)) {
    return Status::InvalidArgument("unknown kernel id " +
                                   std::to_string(kernel));
  }
  m.kernel_ = static_cast<SvmKernel>(kernel);
  const size_t dim = reader.U32();
  const size_t weights = reader.U32();
  const size_t rff_dim = reader.U32();
  if (!reader.ok()) {
    return Status::InvalidArgument("truncated model header");
  }
  const size_t expected_weights =
      m.kernel_ == SvmKernel::kLinear ? dim : rff_dim;
  if (weights != expected_weights) {
    return Status::InvalidArgument("weight count does not match kernel");
  }
  // Validate the declared counts against the bytes actually present
  // before any allocation: a corrupted size field must fail cleanly, not
  // resize vectors to bogus lengths. Each count is bounded by the doubles
  // remaining, which also keeps rff_dim * dim free of overflow.
  const uint64_t max_doubles = reader.remaining() / sizeof(double);
  if (dim > max_doubles || weights > max_doubles || rff_dim > max_doubles ||
      (rff_dim != 0 && dim > max_doubles / rff_dim)) {
    CKR_OBS_COUNTER_INC("ckr.ranksvm.deserialize_rejected");
    return Status::InvalidArgument("model size fields exceed blob size");
  }
  const uint64_t need = 2 * static_cast<uint64_t>(dim) + weights +
                        static_cast<uint64_t>(rff_dim) * dim + rff_dim;
  if (need > max_doubles) {
    CKR_OBS_COUNTER_INC("ckr.ranksvm.deserialize_rejected");
    return Status::InvalidArgument("truncated model blob");
  }
  auto load = [&reader](std::vector<double>* v, size_t n) {
    v->resize(n);
    for (size_t i = 0; i < n; ++i) (*v)[i] = reader.F64();
  };
  load(&m.mean_, dim);
  load(&m.inv_sd_, dim);
  load(&m.weights_, weights);
  load(&m.rff_w_, rff_dim * dim);
  load(&m.rff_b_, rff_dim);
  if (!reader.AtEnd()) {
    CKR_OBS_COUNTER_INC("ckr.ranksvm.deserialize_rejected");
    return Status::InvalidArgument("truncated or oversized model blob");
  }
  return m;
}

RankSvmTrainer::RankSvmTrainer(const RankSvmConfig& config)
    : config_(config) {}

StatusOr<RankSvmModel> RankSvmTrainer::Train(
    const std::vector<RankingInstance>& data) const {
  if (data.empty()) return Status::InvalidArgument("no training data");
  const size_t dim = data[0].features.size();
  if (dim == 0) return Status::InvalidArgument("zero-dimensional features");
  for (const RankingInstance& inst : data) {
    if (inst.features.size() != dim) {
      return Status::InvalidArgument("inconsistent feature dimensions");
    }
  }
  if (data.size() > UINT32_MAX) {
    return Status::InvalidArgument("too many instances");
  }
  CKR_OBS_SCOPED_TIMER("ckr.ranksvm.stage.train_seconds");
  CKR_OBS_COUNTER_INC("ckr.ranksvm.train_calls");
  CKR_OBS_COUNTER_ADD("ckr.ranksvm.train_instances", data.size());

  RankSvmModel model;
  model.kernel_ = config_.kernel;

  // Standardization fitted on the training data.
  model.mean_.assign(dim, 0.0);
  model.inv_sd_.assign(dim, 0.0);
  for (const RankingInstance& inst : data) {
    for (size_t i = 0; i < dim; ++i) model.mean_[i] += inst.features[i];
  }
  for (double& m : model.mean_) m /= static_cast<double>(data.size());
  std::vector<double> var(dim, 0.0);
  for (const RankingInstance& inst : data) {
    for (size_t i = 0; i < dim; ++i) {
      double d = inst.features[i] - model.mean_[i];
      var[i] += d * d;
    }
  }
  // Binary indicator dimensions (e.g. the taxonomy one-hots) are centered
  // but not variance-scaled: scaling a rare indicator by 1/sd blows it up
  // to +-5 and lets it dominate the RBF distance.
  std::vector<bool> is_binary(dim, true);
  for (const RankingInstance& inst : data) {
    for (size_t i = 0; i < dim; ++i) {
      if (inst.features[i] != 0.0 && inst.features[i] != 1.0) {
        is_binary[i] = false;
      }
    }
  }
  for (size_t i = 0; i < dim; ++i) {
    if (is_binary[i]) {
      model.inv_sd_[i] = 1.0;
      continue;
    }
    double sd = std::sqrt(var[i] / static_cast<double>(data.size()));
    model.inv_sd_[i] = sd > 1e-12 ? 1.0 / sd : 0.0;
  }

  Rng rng(config_.seed);
  if (config_.kernel == SvmKernel::kRbfFourier) {
    // W rows ~ N(0, 2*gamma I); b ~ U[0, 2pi). Draw order matches the
    // legacy trainer row by row, so the projection is bit-identical.
    model.rff_w_.resize(config_.rff_dim * dim);
    model.rff_b_.resize(config_.rff_dim);
    // Scale-free width: the configured gamma is divided by the input
    // dimensionality (the classic 1/num_features heuristic), so kernel
    // width stays comparable across feature ablations.
    const double w_sd =
        std::sqrt(2.0 * config_.rbf_gamma / static_cast<double>(dim));
    for (size_t d = 0; d < config_.rff_dim; ++d) {
      for (size_t i = 0; i < dim; ++i) {
        model.rff_w_[d * dim + i] = w_sd * rng.NextGaussian();
      }
      model.rff_b_[d] = 2.0 * M_PI * rng.NextDouble();
    }
  }

  // Pre-transform all instances into one contiguous n x feat_dim matrix.
  // Rows are independent, so the fan-out is bit-identical for any worker
  // count.
  const size_t n = data.size();
  const size_t feat_dim = model.FeatureDim();
  const unsigned workers =
      config_.num_threads == 0 ? DefaultWorkerCount() : config_.num_threads;
  std::vector<double> phi(n * feat_dim);
  {
    std::vector<std::vector<double>> scratch(
        std::max(1u, workers),
        std::vector<double>(config_.kernel == SvmKernel::kLinear ? 0 : dim));
    ParallelForWorkers(n, workers, [&](unsigned worker, size_t i) {
      model.TransformRowInto(data[i].features.data(),
                             phi.data() + i * feat_dim,
                             scratch[worker].data());
    });
  }

  // Materialize preference pairs within groups: one stable sort brings
  // each group's members together in ascending (group, instance) order —
  // the same order the legacy std::map pass produced — and a linear walk
  // emits the pairs.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return data[a].group < data[b].group;
  });
  std::vector<uint32_t> winners, losers;
  bool truncated = false;
  size_t groups_consumed = 0;
  for (size_t start = 0; start < n && !truncated;) {
    size_t end = start + 1;
    while (end < n && data[order[end]].group == data[order[start]].group) {
      ++end;
    }
    for (size_t a = start; a < end && !truncated; ++a) {
      for (size_t b = a + 1; b < end; ++b) {
        const uint32_t i = order[a], j = order[b];
        double gap = data[i].label - data[j].label;
        if (std::abs(gap) < config_.min_label_gap) continue;
        if (gap > 0) {
          winners.push_back(i);
          losers.push_back(j);
        } else {
          winners.push_back(j);
          losers.push_back(i);
        }
        if (winners.size() >= config_.max_pairs) {
          truncated = true;
          break;
        }
      }
    }
    ++groups_consumed;
    start = end;
  }
  if (truncated) {
    // The cap silently biases training toward early (low-id) groups;
    // count how many groups never contributed and say so.
    size_t groups_total = 0;
    for (size_t start = 0; start < n;) {
      size_t end = start + 1;
      while (end < n && data[order[end]].group == data[order[start]].group) {
        ++end;
      }
      ++groups_total;
      start = end;
    }
    LogWarn("ranksvm: max_pairs=" + std::to_string(config_.max_pairs) +
            " truncated pair materialization after " +
            std::to_string(groups_consumed) + " of " +
            std::to_string(groups_total) +
            " groups; training is biased toward early groups");
  }
  if (truncated) CKR_OBS_COUNTER_INC("ckr.ranksvm.pair_cap_truncations");
  if (winners.empty()) {
    return Status::FailedPrecondition("no preference pairs (all labels tied)");
  }
  const size_t num_pairs = winners.size();
  CKR_OBS_COUNTER_ADD("ckr.ranksvm.train_pairs", num_pairs);

  // Precompute each pair's difference row when the whole matrix fits a
  // last-level-cache-sized budget: the SGD step then streams one short,
  // cache-resident row instead of chasing two, and the margin/update
  // arithmetic is unchanged (same subtractions, same order). Past the
  // budget (e.g. RFF-dim rows) materializing loses — the matrix would be
  // pure DRAM traffic at twice phi's footprint — so the step instead
  // reads both phi rows and fuses the subtraction into the margin and
  // update loops exactly like the legacy trainer does.
  std::vector<double> diff;
  const bool use_diff =
      num_pairs <= kPairDiffBudgetBytes / sizeof(double) / feat_dim;
  if (use_diff) {
    diff.resize(num_pairs * feat_dim);
    ParallelForWorkers(num_pairs, workers, [&](unsigned, size_t p) {
      const Span<const double> xw = RowSpan(phi, winners[p], feat_dim);
      const Span<const double> xl = RowSpan(phi, losers[p], feat_dim);
      double* out = diff.data() + p * feat_dim;
      for (size_t d = 0; d < feat_dim; ++d) out[d] = xw[d] - xl[d];
    });
  }

  // A column whose difference is exactly zero in every pair never moves
  // its weight: the weight starts at +0.0, the shrink step maps +0.0 to
  // +0.0, and the hinge step adds eta * (+-0.0), which keeps +0.0 — the
  // legacy trainer computes exactly +0.0 for that dimension at every
  // step. Its margin terms are +-0.0 additions, which never change the
  // running sum either. So dead columns can be compacted out of the hot
  // loop entirely, shortening the latency-bound margin chain, and the
  // final weights scattered back with literal +0.0 in the gaps. This
  // fires in practice: ablation masks zero out whole feature groups, and
  // a feature that is constant within every window cancels in every
  // within-group pair.
  size_t sgd_dim = feat_dim;
  std::vector<uint32_t> live_cols;
  if (use_diff) {
    std::vector<char> col_live(feat_dim, 0);
    for (size_t p = 0; p < num_pairs; ++p) {
      const double* row = diff.data() + p * feat_dim;
      for (size_t d = 0; d < feat_dim; ++d) {
        col_live[d] |= row[d] != 0.0 ? 1 : 0;
      }
    }
    for (size_t d = 0; d < feat_dim; ++d) {
      if (col_live[d]) live_cols.push_back(static_cast<uint32_t>(d));
    }
    if (live_cols.size() < feat_dim) {
      sgd_dim = live_cols.size();
      // In-place row compaction: each destination row starts at or
      // before its source row, and within a row live_cols[j] >= j, so
      // reads stay ahead of writes.
      for (size_t p = 0; p < num_pairs; ++p) {
        const double* src = diff.data() + p * feat_dim;
        double* dst = diff.data() + p * sgd_dim;
        for (size_t j = 0; j < sgd_dim; ++j) dst[j] = src[live_cols[j]];
      }
      diff.resize(num_pairs * sgd_dim);
    } else {
      live_cols.clear();
    }
  }

  // Pegasos-style SGD over the pairwise hinge loss. The loop is
  // sequential (each step reads the previous step's weights) but works on
  // contiguous rows. Picks are drawn through a small ring, kPickAhead
  // steps early — the identical NextBounded sequence the legacy per-step
  // calls consumed, in the identical order. Drawing ahead serves two
  // purposes: the upcoming row can be prefetched while earlier steps
  // retire, and the RNG arithmetic itself executes in the issue slots the
  // latency-bound margin chain leaves idle instead of forming its own
  // serial phase.
  //
  // The update is written branchlessly in both paths below: the hinge is
  // active on roughly half the steps of a converged run, so the classic
  // two-loop form (hit: shrink+add, miss: shrink only) mispredicts
  // constantly and each mispredict stalls the whole serial
  // margin->update->margin dependency chain. Folding the condition into
  // the step size (e = eta or 0.0) keeps one straight-line loop. This is
  // bit-identical to the legacy two-branch update: when e == 0,
  // e * d_row[d] is +-0.0 and adding +-0.0 to shrink * w[d] leaves it
  // unchanged (w never holds -0.0: weights start at +0.0 and an
  // exactly-zero update sum rounds to +0.0; shrink * w underflowing to a
  // signed zero would need |w| near DBL_TRUE_MIN, far below anything the
  // O(eta)-sized updates can produce).
  std::vector<double> sgd_w(sgd_dim, 0.0);
  double* const w = sgd_w.data();
  const double lambda = config_.lambda;
  const uint64_t total_steps =
      static_cast<uint64_t>(config_.epochs) * num_pairs;
  uint32_t ring[kPickRing];
  const uint64_t warmup = std::min<uint64_t>(total_steps, kPickAhead);
  for (uint64_t i = 0; i < warmup; ++i) {
    ring[i & (kPickRing - 1)] =
        static_cast<uint32_t>(rng.NextBounded(num_pairs));
  }
  if (use_diff) {
    for (uint64_t s = 0; s < total_steps; ++s) {
      const uint32_t pick = ring[s & (kPickRing - 1)];
      const uint64_t draw = s + kPickAhead;
      if (draw < total_steps) {
        const uint32_t next =
            static_cast<uint32_t>(rng.NextBounded(num_pairs));
        ring[draw & (kPickRing - 1)] = next;
        __builtin_prefetch(diff.data() + size_t{next} * sgd_dim);
      }
      const Span<const double> d_row = RowSpan(diff, pick, sgd_dim);
      double margin = 0.0;
      for (size_t d = 0; d < sgd_dim; ++d) margin += w[d] * d_row[d];
      const double eta = 1.0 / (lambda * static_cast<double>(s + 1));
      // w <- (1 - eta*lambda) w [+ eta * (xw - xl) if margin < 1]
      const double shrink = 1.0 - eta * lambda;
      const double e = margin < 1.0 ? eta : 0.0;
      for (size_t d = 0; d < sgd_dim; ++d) {
        w[d] = shrink * w[d] + e * d_row[d];
      }
    }
  } else {
    for (uint64_t s = 0; s < total_steps; ++s) {
      const uint32_t pick = ring[s & (kPickRing - 1)];
      const uint64_t draw = s + kPickAhead;
      if (draw < total_steps) {
        const uint32_t next =
            static_cast<uint32_t>(rng.NextBounded(num_pairs));
        ring[draw & (kPickRing - 1)] = next;
        __builtin_prefetch(phi.data() + size_t{winners[next]} * feat_dim);
        __builtin_prefetch(phi.data() + size_t{losers[next]} * feat_dim);
      }
      const Span<const double> xw = RowSpan(phi, winners[pick], feat_dim);
      const Span<const double> xl = RowSpan(phi, losers[pick], feat_dim);
      // Same fused subtraction as the legacy trainer — the update's
      // second pass over xw/xl hits rows the margin pass just loaded.
      double margin = 0.0;
      for (size_t d = 0; d < feat_dim; ++d) {
        margin += w[d] * (xw[d] - xl[d]);
      }
      const double eta = 1.0 / (lambda * static_cast<double>(s + 1));
      const double shrink = 1.0 - eta * lambda;
      const double e = margin < 1.0 ? eta : 0.0;
      for (size_t d = 0; d < feat_dim; ++d) {
        w[d] = shrink * w[d] + e * (xw[d] - xl[d]);
      }
    }
  }
  CKR_OBS_COUNTER_ADD("ckr.ranksvm.sgd_steps", total_steps);
  CKR_OBS_COUNTER_ADD("ckr.ranksvm.dead_columns_compacted",
                      feat_dim - sgd_dim);
  model.weights_.assign(feat_dim, 0.0);
  if (live_cols.empty()) {
    model.weights_ = std::move(sgd_w);
  } else {
    for (size_t j = 0; j < sgd_dim; ++j) {
      model.weights_[live_cols[j]] = sgd_w[j];
    }
  }
  return model;
}

}  // namespace ckr
