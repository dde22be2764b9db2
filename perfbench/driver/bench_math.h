// The benchmark's arithmetic: percentiles, operation counting, counter
// ratios, result fingerprints and span self time. Pure functions, so
// perfbench/tests/bench_math_test.cc pins each one without running a
// workload.
#ifndef PERFBENCH_DRIVER_BENCH_MATH_H_
#define PERFBENCH_DRIVER_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// q * n samples are <= it, i.e. sorted[ceil(q * n) - 1] (clamped to the
/// first sample for q <= 0). No interpolation, so the result is always a
/// measured value. Returns 0 for an empty sample set. Sorts `samples`.
inline double NearestRank(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // The tolerance keeps q * n == 99.000000000000014 (0.99 * 100 in
  // binary) from rounding up a whole rank.
  const double rank =
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9);
  const size_t r = std::clamp<size_t>(
      rank < 1.0 ? 1 : static_cast<size_t>(rank), 1, samples.size());
  return samples[r - 1];
}

/// Operations of one measured phase. Every attempted operation is either
/// verified good or failed; throughput counts only the good ones.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  uint64_t succeeded() const { return attempted - failed; }
  /// Verified successful operations per second of measured wall time.
  double OpsPerSecond(double wall_seconds) const {
    return wall_seconds > 0.0
               ? static_cast<double>(succeeded()) / wall_seconds
               : 0.0;
  }
};

/// Useful-over-attempted ratio of two counter deltas (after - before).
/// A phase that attempted nothing reports 0, not NaN.
inline double DeltaRatio(uint64_t useful_before, uint64_t useful_after,
                         uint64_t attempts_before, uint64_t attempts_after) {
  const uint64_t attempts = attempts_after - attempts_before;
  if (attempts == 0) return 0.0;
  return static_cast<double>(useful_after - useful_before) /
         static_cast<double>(attempts);
}

/// 64-bit FNV-1a, continued from `h` (start from kFnvOffset).
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
inline uint64_t Fnv1aU64(uint64_t h, uint64_t v) {
  return Fnv1a(h, &v, sizeof(v));
}
inline uint64_t Fnv1aDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return Fnv1aU64(h, bits);
}

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` indexes the causing span within that request's
/// span list (-1 for the request's root).
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Length of the union of [start, end) intervals, clipped to
/// [lo, hi). Overlapping children (a parallel scatter) count once.
inline int64_t UnionCoveredNs(std::vector<std::pair<int64_t, int64_t>> iv,
                              int64_t lo, int64_t hi) {
  for (auto& [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_s = 0;
  int64_t cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) covered += cur_e - cur_s;
  return covered;
}

/// Self time of span `i` of one request: its duration minus the part of
/// its interval that its direct children cover.
inline int64_t SelfTimeNs(const std::vector<Span>& spans, size_t i) {
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& s : spans) {
    if (s.parent == static_cast<int32_t>(i)) {
      children.emplace_back(s.start_ns, s.end_ns);
    }
  }
  const Span& self = spans[i];
  return self.duration_ns() -
         UnionCoveredNs(std::move(children), self.start_ns, self.end_ns);
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_MATH_H_
