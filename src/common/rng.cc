#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace ckr {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(sm);
  // xoshiro requires a nonzero state; SplitMix64 of any seed gives one with
  // overwhelming probability, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  CKR_DCHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  CKR_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextGaussian() {
  if (has_gaussian_) {
    has_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  // Avoid log(0).
  if (u1 < 1e-300) u1 = 1e-300;
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_gaussian_ = true;
  return r * std::cos(theta);
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

size_t Rng::NextCategorical(const std::vector<double>& weights) {
  CKR_DCHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    CKR_DCHECK(w >= 0.0);
    total += w;
  }
  CKR_DCHECK(total > 0.0);
  double x = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (x < acc) return i;
  }
  return weights.size() - 1;  // Floating-point edge: return last index.
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = NextBounded(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

Rng Rng::Fork(uint64_t stream) {
  // Derive a child seed from fresh output mixed with the stream id so
  // different streams are decorrelated.
  uint64_t mix = Next() ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return Rng(mix);
}

ZipfSampler::ZipfSampler(size_t n, double exponent) {
  CKR_DCHECK(n > 0 && n <= UINT32_MAX);
  pmf_.resize(n);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t r = 1; r <= n; ++r) {
    pmf_[r - 1] = 1.0 / std::pow(static_cast<double>(r), exponent);
    total += pmf_[r - 1];
  }
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    pmf_[i] /= total;
    acc += pmf_[i];
    cdf_[i] = acc;
  }
  cdf_.back() = 1.0;
  // Bucket bounds b / buckets are exact in binary, and so is the draw's
  // bucket index below.
  const size_t buckets = std::bit_ceil(std::min<size_t>(n, 4096));
  guide_.resize(buckets + 1);
  for (size_t b = 0; b <= buckets; ++b) {
    const double bound =
        static_cast<double>(b) / static_cast<double>(buckets);
    guide_[b] = static_cast<uint32_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), bound) - cdf_.begin());
  }
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double x = rng.NextDouble();
  const size_t b =
      static_cast<size_t>(x * static_cast<double>(guide_.size() - 1));
  // Every entry before guide_[b] is below b / buckets <= x, and the entry
  // at guide_[b + 1] is >= (b + 1) / buckets > x, so the first entry >= x
  // lies in [guide_[b], guide_[b + 1]].
  auto it = std::lower_bound(cdf_.begin() + guide_[b],
                             cdf_.begin() + guide_[b + 1], x);
  return static_cast<size_t>(it - cdf_.begin()) + 1;
}

double ZipfSampler::Pmf(size_t rank) const {
  CKR_DCHECK(rank >= 1 && rank <= pmf_.size());
  return pmf_[rank - 1];
}

CategoricalSampler::CategoricalSampler(const std::vector<double>& weights) {
  CKR_DCHECK(!weights.empty());
  prefix_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    CKR_DCHECK(w >= 0.0);
    acc += w;
    prefix_.push_back(acc);
  }
  CKR_DCHECK(acc > 0.0);
}

size_t CategoricalSampler::Sample(Rng& rng) const {
  double x = rng.NextDouble() * prefix_.back();
  // First index whose running sum exceeds x — NextCategorical's scan.
  auto it = std::upper_bound(prefix_.begin(), prefix_.end(), x);
  if (it == prefix_.end()) return prefix_.size() - 1;  // Same FP edge.
  return static_cast<size_t>(it - prefix_.begin());
}

}  // namespace ckr
