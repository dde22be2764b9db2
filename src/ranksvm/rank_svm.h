// Ranking SVM (paper Section III, after Joachims [9] / liblinear [10]).
//
// Learns a scoring function f(x) = w . phi(x) such that f(x_i) > f(x_j)
// whenever instance i should rank above instance j. Preference pairs are
// formed within each group (document window) from CTR labels. Training
// minimizes the pairwise hinge loss with L2 regularization via
// Pegasos-style stochastic subgradient descent.
//
// Kernels: linear, and an RBF approximation via random Fourier features
// (Rahimi & Recht) — the from-scratch substitute for SVM-light's RBF
// kernel ("we test with both linear and the radial basis function
// kernels", Section V-A.3). Features are standardized on the training
// split inside the model.
//
// Layout: the RFF projection and every batch intermediate are contiguous
// row-major matrices. The trainer pre-transforms instances in parallel
// (ParallelForWorkers; per-row outputs, so bit-identical for any worker
// count), materializes pairs with a sort-by-group pass, and runs the
// Pegasos loop sequentially over contiguous rows. Weights are
// bit-identical to the scalar reference in legacy_rank_svm.h, which the
// golden tests and bench_training_perf assert.
#ifndef CKR_RANKSVM_RANK_SVM_H_
#define CKR_RANKSVM_RANK_SVM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace ckr {

/// One ranking instance: a feature vector, its graded label (CTR), and the
/// group (document window) it belongs to. Pairs are only formed within a
/// group.
struct RankingInstance {
  std::vector<double> features;
  double label = 0.0;
  uint32_t group = 0;
};

/// Kernel choice.
enum class SvmKernel { kLinear = 0, kRbfFourier };

/// Training hyper-parameters (defaults mirror "default parameters" use in
/// the paper).
struct RankSvmConfig {
  SvmKernel kernel = SvmKernel::kLinear;
  double lambda = 1e-4;      ///< L2 regularization strength.
  int epochs = 60;           ///< Passes over the pair set.
  uint64_t seed = 13;
  double rbf_gamma = 4.0;    ///< RBF width; effective gamma = this / dim.
  size_t rff_dim = 768;      ///< Random Fourier feature dimensionality.
  double min_label_gap = 1e-9;  ///< Pairs need |label_i - label_j| above this.
  size_t max_pairs = 2000000;   ///< Safety cap on materialized pairs.
  /// Worker threads for the batch phases (RFF pre-transform, pair-diff
  /// materialization). Results are bit-identical for any value: every
  /// worker writes only per-row output slots. 0 = all hardware threads;
  /// the default stays 1 so nested callers (parallel CV folds) don't
  /// oversubscribe.
  unsigned num_threads = 1;
};

/// A trained scorer. Value type; cheap to copy relative to training.
class RankSvmModel {
 public:
  RankSvmModel() = default;

  /// Score of a raw (unstandardized) feature vector; higher ranks first.
  /// A feature-dimension mismatch returns 0.0 and logs a warning (see
  /// ScoreChecked for the Status-returning variant).
  double Score(const std::vector<double>& features) const;

  /// Like Score, but a feature-dimension mismatch is an InvalidArgument
  /// error instead of a silent 0.0.
  [[nodiscard]] StatusOr<double> ScoreChecked(const std::vector<double>& features) const;

  /// Dimensionality of raw input vectors.
  size_t InputDim() const { return mean_.size(); }

  /// Dimensionality of the transformed space the weights live in
  /// (InputDim for linear, rff_dim for RFF models).
  size_t FeatureDim() const {
    return kernel_ == SvmKernel::kLinear ? mean_.size() : rff_b_.size();
  }

  /// Standardizes + projects a batch into a row-major rows.size() x
  /// FeatureDim() matrix. Rows are transformed in parallel; the output is
  /// bit-identical for any worker count (0 = all hardware threads).
  std::vector<double> TransformBatch(
      const std::vector<std::vector<double>>& rows,
      unsigned num_threads = 1) const;

  /// Serializes to the compact little-endian binary blob (exact double
  /// round-trip).
  std::string SerializeBinary() const;

  /// Parses a blob produced by SerializeBinary().
  [[nodiscard]] static StatusOr<RankSvmModel> Deserialize(const std::string& blob);

  /// Linear weights in standardized space (linear kernel only; empty for
  /// RFF models). Useful for inspecting feature contributions.
  const std::vector<double>& weights() const { return weights_; }

 private:
  friend class RankSvmTrainer;
  friend class LegacyRankSvmTrainer;

  std::vector<double> Transform(const std::vector<double>& features) const;


  /// Transforms one raw row of InputDim() doubles into `out`
  /// (FeatureDim() doubles). `scratch` must hold InputDim() doubles when
  /// the kernel is RFF; it may alias nothing.
  void TransformRowInto(const double* features, double* out,
                        double* scratch) const;

  SvmKernel kernel_ = SvmKernel::kLinear;
  std::vector<double> mean_;   ///< Per-dim standardization mean.
  std::vector<double> inv_sd_; ///< Per-dim 1/sd (0 for constant dims).
  std::vector<double> weights_;
  // RFF projection: z(x) = sqrt(2/D) cos(Wx + b). W is a flat row-major
  // rff_dim x InputDim matrix (row d at rff_w_[d * InputDim()]).
  std::vector<double> rff_w_;
  std::vector<double> rff_b_;
};

/// Trains models from labeled instances.
class RankSvmTrainer {
 public:
  explicit RankSvmTrainer(const RankSvmConfig& config = {});

  /// Fails when no valid preference pair exists or dimensions disagree.
  [[nodiscard]] StatusOr<RankSvmModel> Train(
      const std::vector<RankingInstance>& data) const;

 private:
  RankSvmConfig config_;
};

}  // namespace ckr

#endif  // CKR_RANKSVM_RANK_SVM_H_
