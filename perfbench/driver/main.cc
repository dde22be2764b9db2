// perfbench driver: runs one named workload and prints its metrics.
//
//   perfbench_driver --workload annotate_news|search_small|search_large
//                    --seed N --seconds S --trace 0|1 --spans FILE
//                    [--git-sha SHA]
//
// Human-readable lines first; the last line of stdout is one JSON object
// with keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (and writes the spans).
// Exits 1 when any output fails verification, 2 on bad usage, 3 on a
// build that is not optimized.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

/// Which workloads produce a metric; the others report it as 0.
enum Scope { kAll, kAnnotate, kSearch };

struct MetricSpec {
  const char* name;
  const char* unit;
  Scope scope;
};

// Must list exactly the end_to_end and per_layer metrics of
// BENCHMARK.json; run.py checks the printed names against it.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", kAll},       {"p50_us", "us", kAll},
    {"p99_us", "us", kAll},       {"ops_per_s", "1/s", kAll},
    {"rss_mb", "MiB", kAll},
};
constexpr MetricSpec kPerLayer[] = {
    {"text.stem_us", "us", kAnnotate},
    {"detect.match_us", "us", kAnnotate},
    {"framework.score_us", "us", kAnnotate},
    {"detect.detections_per_doc", "count", kAnnotate},
    {"detect.sig_reject_frac", "ratio", kAnnotate},
    {"detect.window_reject_frac", "ratio", kAnnotate},
    {"core.dataset_build_s", "s", kAnnotate},
    {"features.mine_s", "s", kAnnotate},
    {"ranksvm.train_s", "s", kAnnotate},
    {"serve.queue_wait_us", "us", kSearch},
    {"serve.daemon_us", "us", kSearch},
    {"serve.handoff_us", "us", kSearch},
    {"index.shard_eval_us", "us", kSearch},
    {"index.slowest_shard_us", "us", kSearch},
    {"serve.merge_us", "us", kSearch},
    {"index.postings_scored_per_query", "count", kSearch},
    {"index.blocks_decoded_per_query", "count", kSearch},
    {"index.blocks_skipped_frac", "ratio", kSearch},
    {"index.memory_mb", "MiB", kSearch},
    {"corpus.world_s", "s", kSearch},
    {"serve.shard_build_s", "s", kSearch},
    {"trace.coverage_frac", "ratio", kAll},
    {"trace.overhead_us", "us", kAll},
    {"self.client.annotate_us", "us", kAnnotate},
    {"self.framework.process_document_us", "us", kAnnotate},
    {"self.client.search_us", "us", kSearch},
    {"self.serve.daemon_us", "us", kSearch},
    {"self.serve.queue_us", "us", kSearch},
    {"self.replay.search_us", "us", kSearch},
    {"self.index.shard_search_us", "us", kSearch},
    {"self.serve.merge_us", "us", kSearch},
};

void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

LatencyStats Summarize(std::vector<double> latencies_us) {
  LatencyStats s;
  s.samples = latencies_us.size();
  s.p50_us = NearestRank(latencies_us, 0.50);
  s.p99_us = NearestRank(latencies_us, 0.99);
  return s;
}

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_driver --workload "
               "annotate_news|search_small|search_large --seed N --seconds "
               "S --trace 0|1 --spans FILE [--git-sha SHA]\n",
               why);
  std::exit(2);
}

/// Prints the result line. Every metric of the mode must have a value,
/// except those of the other workload kind, which read 0.
void PrintResult(const Report& report, bool trace, Scope scope) {
  std::string metrics;
  char buf[256];
  auto add = [&](const MetricSpec& spec) {
    auto it = report.metrics.find(spec.name);
    double value = 0.0;
    if (it != report.metrics.end()) {
      value = it->second;
    } else if (spec.scope == kAll || spec.scope == scope) {
      Fail(std::string("no value for ") + spec.name);
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) add(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) add(spec);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.ops.attempted),
              static_cast<unsigned long long>(report.ops.failed),
              metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "perfbench: refusing to time a build that is not "
                       "optimized (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  std::string workload;
  std::string git_sha = "unknown";
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) Usage("--seed is required");
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");
  if (options.trace && options.spans_path.empty()) {
    Usage("--trace 1 needs --spans");
  }
  const bool annotate = workload == "annotate_news";
  if (!annotate && workload != "search_small" && workload != "search_large") {
    Usage("unknown workload");
  }

  std::printf("perfbench: workload %s, seed %llu, %.3g s measured, trace "
              "%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("host: nproc %u, build type %s (optimized), git sha %s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              git_sha.c_str());
  if (annotate) {
    std::printf("threads: training %u, ranking clients 1\n", kTrainThreads);
  } else {
    std::printf("threads: corpus stream %u, daemon workers %u (shard "
                "parallelism 1), clients %u\n",
                kStreamThreads, kDaemonWorkers, kSearchClients);
  }
  const Report report = annotate
                            ? RunAnnotateNews(options)
                            : RunSearch(options, workload == "search_large");
  std::printf("verify: %s\n", report.correct ? "ok" : "FAILED");
  std::fflush(stdout);
  PrintResult(report, options.trace, annotate ? kAnnotate : kSearch);
  return report.correct ? 0 : 1;
}
