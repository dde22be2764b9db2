// Unit tests for ckr_ranksvm: pairwise training, kernels, serialization,
// and bit-equivalence of the flat trainer against the legacy scalar one.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "blob_mutation.h"
#include "common/log.h"
#include "common/rng.h"
#include "ranksvm/legacy_rank_svm.h"
#include "ranksvm/rank_svm.h"

namespace ckr {
namespace {

// Synthetic ranking problem: label = w . x (+ optional noise), grouped.
std::vector<RankingInstance> LinearProblem(size_t n, size_t dim,
                                           size_t group_size, double noise,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(dim);
  for (double& x : w) x = rng.NextGaussian();
  std::vector<RankingInstance> data;
  for (size_t i = 0; i < n; ++i) {
    RankingInstance inst;
    inst.features.resize(dim);
    double score = 0;
    for (size_t d = 0; d < dim; ++d) {
      inst.features[d] = rng.NextGaussian();
      score += w[d] * inst.features[d];
    }
    inst.label = score + noise * rng.NextGaussian();
    inst.group = static_cast<uint32_t>(i / group_size);
    data.push_back(std::move(inst));
  }
  return data;
}

// Fraction of correctly ordered within-group pairs.
double PairAccuracy(const RankSvmModel& model,
                    const std::vector<RankingInstance>& data) {
  size_t correct = 0, total = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = i + 1; j < data.size(); ++j) {
      if (data[i].group != data[j].group) continue;
      if (data[i].label == data[j].label) continue;
      ++total;
      double si = model.Score(data[i].features);
      double sj = model.Score(data[j].features);
      if ((si > sj) == (data[i].label > data[j].label)) ++correct;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) / static_cast<double>(total);
}

TEST(RankSvmTest, RejectsDegenerateInput) {
  RankSvmTrainer trainer;
  EXPECT_FALSE(trainer.Train({}).ok());

  std::vector<RankingInstance> empty_features(3);
  for (auto& inst : empty_features) inst.group = 0;
  EXPECT_FALSE(trainer.Train(empty_features).ok());

  std::vector<RankingInstance> mismatched = {
      {{1.0, 2.0}, 0.5, 0}, {{1.0}, 0.2, 0}};
  EXPECT_FALSE(trainer.Train(mismatched).ok());

  // All labels tied: no preference pairs.
  std::vector<RankingInstance> tied = {
      {{1.0}, 0.5, 0}, {{2.0}, 0.5, 0}, {{3.0}, 0.5, 0}};
  auto result = trainer.Train(tied);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RankSvmTest, LearnsLinearOrdering) {
  auto data = LinearProblem(400, 6, 8, 0.0, 42);
  RankSvmTrainer trainer;
  auto model = trainer.Train(data);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(PairAccuracy(*model, data), 0.95);
}

TEST(RankSvmTest, GeneralizesToHeldOut) {
  auto train = LinearProblem(400, 6, 8, 0.1, 7);
  auto test = LinearProblem(200, 6, 8, 0.1, 7);  // Same w (same seed).
  RankSvmTrainer trainer;
  auto model = trainer.Train(train);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(PairAccuracy(*model, test), 0.85);
}

TEST(RankSvmTest, PairsOnlyFormWithinGroups) {
  // Two groups with opposite label-feature relationships within a shared
  // global scale. If cross-group pairs were used the problem would be
  // unlearnable; within groups it is exactly learnable.
  std::vector<RankingInstance> data;
  for (int g = 0; g < 40; ++g) {
    double offset = (g % 2 == 0) ? 0.0 : 100.0;
    data.push_back({{1.0 + offset}, offset + 2.0, static_cast<uint32_t>(g)});
    data.push_back({{0.0 + offset}, offset + 1.0, static_cast<uint32_t>(g)});
  }
  RankSvmTrainer trainer;
  auto model = trainer.Train(data);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(PairAccuracy(*model, data), 0.99);
}

TEST(RankSvmTest, RbfSolvesNonlinearProblem) {
  // label depends on |x| — linearly unlearnable, easy for RBF features.
  Rng rng(3);
  std::vector<RankingInstance> data;
  for (size_t i = 0; i < 600; ++i) {
    double x = rng.NextGaussian();
    RankingInstance inst;
    inst.features = {x};
    inst.label = std::abs(x);
    inst.group = static_cast<uint32_t>(i / 6);
    data.push_back(std::move(inst));
  }
  RankSvmConfig linear_cfg;
  RankSvmConfig rbf_cfg;
  rbf_cfg.kernel = SvmKernel::kRbfFourier;
  rbf_cfg.rbf_gamma = 1.0;
  auto linear = RankSvmTrainer(linear_cfg).Train(data);
  auto rbf = RankSvmTrainer(rbf_cfg).Train(data);
  ASSERT_TRUE(linear.ok());
  ASSERT_TRUE(rbf.ok());
  double lin_acc = PairAccuracy(*linear, data);
  double rbf_acc = PairAccuracy(*rbf, data);
  EXPECT_LT(lin_acc, 0.65);  // Linear is near chance.
  EXPECT_GT(rbf_acc, 0.8);
  EXPECT_GT(rbf_acc, lin_acc + 0.15);
}

TEST(RankSvmTest, DeterministicTraining) {
  auto data = LinearProblem(200, 4, 5, 0.2, 11);
  RankSvmTrainer trainer;
  auto a = trainer.Train(data);
  auto b = trainer.Train(data);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->weights().size(), b->weights().size());
  for (size_t i = 0; i < a->weights().size(); ++i) {
    EXPECT_DOUBLE_EQ(a->weights()[i], b->weights()[i]);
  }
}

// Captures every log line emitted while in scope.
class ScopedLogCapture {
 public:
  ScopedLogCapture() {
    previous_ = SetLogSink([this](LogLevel level, std::string_view msg) {
      levels_.push_back(level);
      messages_.emplace_back(msg);
    });
  }
  ~ScopedLogCapture() { SetLogSink(std::move(previous_)); }

  const std::vector<std::string>& messages() const { return messages_; }
  const std::vector<LogLevel>& levels() const { return levels_; }

 private:
  LogSink previous_;
  std::vector<LogLevel> levels_;
  std::vector<std::string> messages_;
};

TEST(RankSvmTest, ScoreDimensionMismatchIsZeroAndLogs) {
  auto data = LinearProblem(100, 4, 5, 0.0, 2);
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  ScopedLogCapture capture;
  EXPECT_EQ(model->Score({1.0, 2.0}), 0.0);
  EXPECT_EQ(model->InputDim(), 4u);
  ASSERT_EQ(capture.messages().size(), 1u);
  EXPECT_EQ(capture.levels()[0], LogLevel::kWarn);
  EXPECT_NE(capture.messages()[0].find("expecting"), std::string::npos)
      << capture.messages()[0];
  // A well-shaped vector logs nothing.
  EXPECT_NE(model->Score({1.0, 2.0, 3.0, 4.0}), 0.0);
  EXPECT_EQ(capture.messages().size(), 1u);
}

TEST(RankSvmTest, ScoreCheckedRejectsDimensionMismatch) {
  auto data = LinearProblem(100, 4, 5, 0.0, 2);
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  auto bad = model->ScoreChecked({1.0, 2.0});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto good = model->ScoreChecked({1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(*good, model->Score({1.0, 2.0, 3.0, 4.0}));
}

TEST(RankSvmTest, ConstantFeatureDimensionIsIgnored) {
  // A constant dimension has sd 0; standardization must not divide by it.
  Rng rng(9);
  std::vector<RankingInstance> data;
  for (size_t i = 0; i < 200; ++i) {
    double x = rng.NextGaussian();
    data.push_back({{x, 5.0}, x, static_cast<uint32_t>(i / 5)});
  }
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(PairAccuracy(*model, data), 0.95);
}

TEST(RankSvmTest, SerializationRoundTripLinear) {
  auto data = LinearProblem(200, 5, 5, 0.1, 21);
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  std::string blob = model->SerializeBinary();
  auto restored = RankSvmModel::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const auto& inst : data) {
    EXPECT_NEAR(model->Score(inst.features), restored->Score(inst.features),
                1e-12);
  }
}

TEST(RankSvmTest, SerializationRoundTripRbf) {
  RankSvmConfig cfg;
  cfg.kernel = SvmKernel::kRbfFourier;
  cfg.rff_dim = 64;
  auto data = LinearProblem(200, 3, 5, 0.1, 23);
  auto model = RankSvmTrainer(cfg).Train(data);
  ASSERT_TRUE(model.ok());
  auto restored = RankSvmModel::Deserialize(model->SerializeBinary());
  ASSERT_TRUE(restored.ok());
  for (const auto& inst : data) {
    EXPECT_NEAR(model->Score(inst.features), restored->Score(inst.features),
                1e-9);
  }
}

TEST(RankSvmTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RankSvmModel::Deserialize("not a model").ok());
  EXPECT_FALSE(RankSvmModel::Deserialize("").ok());
  EXPECT_FALSE(RankSvmModel::Deserialize("ranksvm v1\nkernel linear\n").ok());
}

TEST(RankSvmTest, DeserializeRejectsUnknownKernel) {
  auto data = LinearProblem(100, 3, 5, 0.1, 17);
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  std::string blob = model->SerializeBinary();
  blob[4 + 14] = 2;  // Kernel id u16 right after the magic string.
  auto restored = RankSvmModel::Deserialize(blob);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().ToString().find("kernel"), std::string::npos);
}

TEST(RankSvmTest, BinarySerializationRoundTripLinear) {
  auto data = LinearProblem(200, 5, 5, 0.1, 21);
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  std::string blob = model->SerializeBinary();
  auto restored = RankSvmModel::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const auto& inst : data) {
    // Binary F64 fields round-trip exactly.
    EXPECT_DOUBLE_EQ(model->Score(inst.features),
                     restored->Score(inst.features));
  }
  EXPECT_EQ(restored->SerializeBinary(), blob);
}

TEST(RankSvmTest, BinarySerializationRoundTripRbfAndIsCompact) {
  RankSvmConfig cfg;
  cfg.kernel = SvmKernel::kRbfFourier;
  cfg.rff_dim = 64;
  auto data = LinearProblem(200, 3, 5, 0.1, 23);
  auto model = RankSvmTrainer(cfg).Train(data);
  ASSERT_TRUE(model.ok());
  std::string blob = model->SerializeBinary();
  auto restored = RankSvmModel::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const auto& inst : data) {
    EXPECT_DOUBLE_EQ(model->Score(inst.features),
                     restored->Score(inst.features));
  }
  // Header (magic string, kernel id, three sizes), then the doubles.
  const size_t doubles = 2 * 3 + 64 + 64 * 3 + 64;
  EXPECT_EQ(blob.size(), 4 + 14 + 2 + 12 + doubles * sizeof(double));
}

TEST(RankSvmTest, BinaryDeserializeRejectsCorruption) {
  auto data = LinearProblem(100, 3, 5, 0.1, 29);
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  std::string blob = model->SerializeBinary();
  EXPECT_FALSE(RankSvmModel::Deserialize(blob.substr(0, blob.size() - 4))
                   .ok());  // Truncated.
  EXPECT_FALSE(RankSvmModel::Deserialize(blob + "xx").ok());  // Trailing.
  std::string bad_kernel = blob;
  bad_kernel[4 + 14] = 9;  // Kernel id u16 right after the magic string.
  EXPECT_FALSE(RankSvmModel::Deserialize(bad_kernel).ok());
}

TEST(RankSvmTest, BinaryDeserializeRejectsEveryTruncatedPrefix) {
  auto data = LinearProblem(50, 3, 5, 0.1, 29);
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  std::string blob = model->SerializeBinary();
  for (size_t len = 0; len < blob.size(); len += 7) {
    auto truncated = RankSvmModel::Deserialize(blob.substr(0, len));
    EXPECT_FALSE(truncated.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(RankSvmTest, BinaryDeserializeRejectsCorruptSizeFields) {
  auto data = LinearProblem(50, 3, 5, 0.1, 31);
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  std::string blob = model->SerializeBinary();
  // Layout: u32 magic length + 14 magic bytes + u16 kernel, then the
  // three u32 size fields (dim, weights, rff_dim) at offset 20.
  const size_t sizes_at = 4 + 14 + 2;
  std::string corrupt = blob;
  for (size_t i = 0; i < 12; ++i) corrupt[sizes_at + i] = '\xFF';
  // The declared counts exceed the blob by orders of magnitude; the
  // loader must reject before allocating, not abort or overread.
  auto res = RankSvmModel::Deserialize(corrupt);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);

  // A single inflated dimension (weights kept consistent for the linear
  // kernel) must also be caught by the byte-budget check.
  std::string inflated = blob;
  inflated[sizes_at + 3] = '\x7F';      // dim high byte
  inflated[sizes_at + 4 + 3] = '\x7F';  // weights high byte, same value
  EXPECT_FALSE(RankSvmModel::Deserialize(inflated).ok());
}

// BlockIndexMutationTest's mutation sweep on the model loader: every
// mutant is rejected with a Status, or loads a model that scores a vector
// of its own input width and re-serializes to a blob that loads again.
TEST(RankSvmMutationTest, MutantsAreRejectedOrScoreSafely) {
  auto linear = RankSvmTrainer().Train(LinearProblem(60, 4, 5, 0.1, 37));
  ASSERT_TRUE(linear.ok());
  RankSvmConfig rbf_cfg;
  rbf_cfg.kernel = SvmKernel::kRbfFourier;
  rbf_cfg.rff_dim = 8;
  auto rbf = RankSvmTrainer(rbf_cfg).Train(LinearProblem(60, 4, 5, 0.1, 41));
  ASSERT_TRUE(rbf.ok());
  const std::string blobs[] = {linear->SerializeBinary(),
                               rbf->SerializeBinary()};
  Rng rng(20090402);
  size_t rejected = 0;
  size_t served = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string label = "mutant " + std::to_string(i);
    const size_t pick = rng.NextBounded(2);
    const std::string mutant =
        MutateBlob(&rng, blobs[pick], blobs[pick ^ 1]);
    auto model = RankSvmModel::Deserialize(mutant);
    if (!model.ok()) {
      ++rejected;
      continue;
    }
    ++served;
    const std::vector<double> features(model->InputDim(), 0.5);
    const double score = model->Score(features);
    auto checked = model->ScoreChecked(features);
    ASSERT_TRUE(checked.ok()) << label;
    EXPECT_EQ(std::isnan(*checked), std::isnan(score)) << label;
    auto again = RankSvmModel::Deserialize(model->SerializeBinary());
    ASSERT_TRUE(again.ok()) << label << ": " << again.status().ToString();
    EXPECT_EQ(again->SerializeBinary(), model->SerializeBinary()) << label;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(served, 0u);
}

// --- Golden equivalence: flat trainer vs the preserved scalar trainer ---

void ExpectBitIdentical(const RankSvmModel& a, const RankSvmModel& b) {
  // Serialized blobs cover every field (standardization, weights, RFF
  // projection) with exact doubles, so blob equality is bit equality.
  EXPECT_EQ(a.SerializeBinary(), b.SerializeBinary());
  ASSERT_EQ(a.weights().size(), b.weights().size());
  for (size_t i = 0; i < a.weights().size(); ++i) {
    EXPECT_EQ(a.weights()[i], b.weights()[i]) << "weight " << i;
  }
}

TEST(RankSvmGoldenTest, LinearWeightsBitIdenticalToLegacy) {
  auto data = LinearProblem(400, 6, 8, 0.1, 42);
  RankSvmConfig cfg;
  auto legacy = LegacyRankSvmTrainer(cfg).Train(data);
  auto flat = RankSvmTrainer(cfg).Train(data);
  ASSERT_TRUE(legacy.ok() && flat.ok());
  ExpectBitIdentical(*flat, *legacy);
}

TEST(RankSvmGoldenTest, RbfWeightsBitIdenticalToLegacy) {
  RankSvmConfig cfg;
  cfg.kernel = SvmKernel::kRbfFourier;
  cfg.rff_dim = 96;
  auto data = LinearProblem(300, 5, 6, 0.2, 77);
  auto legacy = LegacyRankSvmTrainer(cfg).Train(data);
  auto flat = RankSvmTrainer(cfg).Train(data);
  ASSERT_TRUE(legacy.ok() && flat.ok());
  ExpectBitIdentical(*flat, *legacy);
}

TEST(RankSvmGoldenTest, ParallelTransformBitIdenticalToLegacy) {
  RankSvmConfig cfg;
  cfg.kernel = SvmKernel::kRbfFourier;
  cfg.rff_dim = 48;
  auto data = LinearProblem(300, 4, 6, 0.2, 5);
  auto legacy = LegacyRankSvmTrainer(cfg).Train(data);
  ASSERT_TRUE(legacy.ok());
  for (unsigned threads : {1u, 2u, 4u}) {
    cfg.num_threads = threads;
    auto flat = RankSvmTrainer(cfg).Train(data);
    ASSERT_TRUE(flat.ok());
    ExpectBitIdentical(*flat, *legacy);
  }
}

TEST(RankSvmGoldenTest, MaxPairsTruncationMatchesLegacyAndWarns) {
  auto data = LinearProblem(200, 4, 10, 0.1, 33);
  RankSvmConfig cfg;
  cfg.max_pairs = 50;  // Far fewer than the ~900 candidate pairs.
  auto legacy = LegacyRankSvmTrainer(cfg).Train(data);
  ASSERT_TRUE(legacy.ok());
  ScopedLogCapture capture;
  auto flat = RankSvmTrainer(cfg).Train(data);
  ASSERT_TRUE(flat.ok());
  ExpectBitIdentical(*flat, *legacy);
  ASSERT_EQ(capture.messages().size(), 1u);
  EXPECT_EQ(capture.levels()[0], LogLevel::kWarn);
  EXPECT_NE(capture.messages()[0].find("max_pairs=50"), std::string::npos)
      << capture.messages()[0];
  EXPECT_NE(capture.messages()[0].find("biased"), std::string::npos);
}

TEST(RankSvmTest, NoTruncationWarningBelowCap) {
  auto data = LinearProblem(100, 4, 5, 0.1, 33);
  ScopedLogCapture capture;
  auto model = RankSvmTrainer().Train(data);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(capture.messages().empty());
}

TEST(RankSvmTest, TransformBatchDeterministicAcrossWorkers) {
  RankSvmConfig cfg;
  cfg.kernel = SvmKernel::kRbfFourier;
  cfg.rff_dim = 32;
  auto data = LinearProblem(150, 4, 5, 0.1, 61);
  auto model = RankSvmTrainer(cfg).Train(data);
  ASSERT_TRUE(model.ok());
  std::vector<std::vector<double>> rows;
  for (const auto& inst : data) rows.push_back(inst.features);
  const std::vector<double> serial = model->TransformBatch(rows, 1);
  EXPECT_EQ(serial.size(), rows.size() * model->FeatureDim());
  for (unsigned threads : {2u, 4u}) {
    const std::vector<double> parallel = model->TransformBatch(rows, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i]) << "row element " << i;
    }
  }
}

}  // namespace
}  // namespace ckr
