// Shared types of the benchmark driver: run options, the metric report
// each workload fills, and the small process helpers they use.
#ifndef PERFBENCH_DRIVER_WORKLOAD_H_
#define PERFBENCH_DRIVER_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_math.h"

namespace perfbench {

/// Fixed thread counts (never above the 4 hardware threads the benchmark
/// is sized for). Printed in every run's header.
inline constexpr unsigned kTrainThreads = 2;
inline constexpr unsigned kStreamThreads = 2;
inline constexpr unsigned kDaemonWorkers = 2;
inline constexpr unsigned kSearchClients = 2;

/// Set-ups per run; setup_s reports their median. A search_large build
/// takes ~45 s, so that workload sets up once.
inline constexpr int kSetupRepeats = 3;

/// Traced runs alternate untraced and traced windows of this length, so
/// slow stretches of the machine fall on both sides of the overhead
/// comparison alike.
inline constexpr double kTraceWindowSeconds = 0.25;

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string spans_path;  ///< Traced runs write their spans here.
};

/// What one run measured. Metric names must match BENCHMARK.json.
struct Report {
  OpCounts ops;
  bool correct = true;
  std::map<std::string, double> metrics;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Whether the request starting at `now_ns` falls in a traced window.
inline bool InTracedWindow(int64_t phase_start_ns, int64_t now_ns) {
  const int64_t window = static_cast<int64_t>(kTraceWindowSeconds * 1e9);
  return ((now_ns - phase_start_ns) / window) % 2 == 1;
}

/// Prints `message` to stderr and exits 1 without a result line.
[[noreturn]] void Fail(const std::string& message);

/// Peak resident set (VmHWM) of this process in MiB; 0 if unreadable.
double PeakRssMb();

/// Client-side latency of one measured phase: nearest-rank percentiles
/// over every sample.
struct LatencyStats {
  size_t samples = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};
LatencyStats Summarize(std::vector<double> latencies_us);

inline double Median(std::vector<double> v) { return NearestRank(v, 0.5); }

Report RunAnnotateNews(const RunOptions& options);
Report RunSearch(const RunOptions& options, bool large);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOAD_H_
