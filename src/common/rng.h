// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng (xoshiro256** seeded via SplitMix64). Experiments are therefore
// bit-reproducible across runs and machines; no component ever touches
// std::random_device or wall-clock time.
#ifndef CKR_COMMON_RNG_H_
#define CKR_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ckr {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
uint64_t SplitMix64(uint64_t& state);

/// Deterministic pseudo-random generator (xoshiro256**).
class Rng {
 public:
  /// Constructs a generator whose full 256-bit state is derived from
  /// `seed` via SplitMix64.
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) using Lemire rejection; bound must be
  /// > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Samples from an unnormalized weight vector; returns the chosen index.
  /// Precondition (DCHECKed): the vector is non-empty, every weight is
  /// non-negative, and not all weights are zero.
  size_t NextCategorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Derives an independent child generator; `stream` distinguishes
  /// children of the same parent.
  Rng Fork(uint64_t stream);

 private:
  uint64_t s_[4];
  bool has_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Zipf(s, n) sampler over ranks {1..n} with exponent s, implemented with a
/// precomputed CDF and binary search. Rank 1 is the most frequent outcome.
/// A guide table narrows each search to the ranks whose CDF entries fall
/// in the draw's bucket of [0, 1), so a draw returns exactly the rank a
/// search of the whole CDF would.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);

  /// Returns a rank in [1, n].
  size_t Sample(Rng& rng) const;

  /// Probability mass of a given rank.
  double Pmf(size_t rank) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  std::vector<double> pmf_;
  /// guide_[b]: the first index whose CDF entry is >= b / buckets, where
  /// buckets = guide_.size() - 1 is a power of two.
  std::vector<uint32_t> guide_;
};

/// Repeated draws from one fixed unnormalized weight vector in O(log n).
/// The prefix sums are accumulated once, in the order NextCategorical
/// sums, so they equal its running total exactly: Sample(rng) consumes the
/// same single NextDouble() and returns the same index as
/// rng.NextCategorical(weights) would.
class CategoricalSampler {
 public:
  /// Same precondition as Rng::NextCategorical (DCHECKed): non-empty,
  /// every weight non-negative, and not all weights zero.
  explicit CategoricalSampler(const std::vector<double>& weights);

  /// Returns an index into the weight vector.
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> prefix_;
};

}  // namespace ckr

#endif  // CKR_COMMON_RNG_H_
