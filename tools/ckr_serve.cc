// ckr_serve — operator CLI for the sharded serving daemon.
//
// Builds a scaled synthetic corpus, partitions it into doc-range shards,
// starts the daemon, replays a deterministic load-generator workload
// against it (closed loop), optionally hot-swaps a freshly built
// generation mid-run, and prints the serving telemetry: outcome counts,
// queue/latency percentiles, throughput. The daemon records into the
// process-wide registry, the one the index's CKR_OBS_* hooks report into,
// so with --metrics-json PATH it writes both the daemon's and the index's
// metrics (MetricRegistry::SnapshotJson) to PATH at exit; PATH is opened
// before any work, so an unwritable one fails fast as a usage error.
//
//   ckr_serve [--docs N] [--shards N] [--workers N] [--clients N]
//             [--requests N] [--k N] [--queue N] [--seed S] [--swap]
//             [--metrics-json PATH]
//
// Exit 0 on success, 1 on build/serve failure or a failed metrics write,
// 2 on usage error.
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus_stream.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "search/search_service.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"

namespace {

struct Options {
  uint64_t docs = 20000;
  size_t shards = 4;
  unsigned workers = 2;
  unsigned clients = 2;
  uint64_t requests = 2000;
  size_t k = 10;
  size_t queue = 1024;
  uint64_t seed = 20090331;
  bool swap = false;
  std::string metrics_json;  ///< Empty: no registry dump.
};

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ckr_serve [--docs N] [--shards N] [--workers N] "
               "[--clients N] [--requests N] [--k N] [--queue N] [--seed S] "
               "[--swap] [--metrics-json PATH]\n");
  return 2;
}

std::unique_ptr<ckr::ServingSnapshot> BuildSnapshot(const ckr::World& world,
                                                    const Options& opt) {
  ckr::ShardedIndexConfig config;
  config.num_shards = opt.shards;
  config.build.store_text = false;
  config.build.build_block_index = true;
  config.stream.workers = opt.workers;
  auto sharded = ckr::ShardedIndex::Build(world, ckr::Document::Kind::kWeb,
                                          opt.docs, config);
  if (!sharded.ok()) {
    std::fprintf(stderr, "ckr_serve: build failed: %s\n",
                 sharded.status().message().c_str());
    return nullptr;
  }
  auto snapshot =
      std::make_unique<ckr::ServingSnapshot>(std::move(sharded).value());
  snapshot->evaluator =
      ckr::ChooseEvaluator(snapshot->index.MaxShardDocs(),
                           snapshot->index.shard(0).has_block_index());
  return snapshot;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    uint64_t v = 0;
    if (arg == "--swap") {
      opt.swap = true;
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      opt.metrics_json = argv[++i];
    } else if (i + 1 < argc && ParseUint(argv[i + 1], &v)) {
      ++i;
      if (arg == "--docs") {
        opt.docs = v;
      } else if (arg == "--shards") {
        opt.shards = static_cast<size_t>(v);
      } else if (arg == "--workers") {
        opt.workers = static_cast<unsigned>(v);
      } else if (arg == "--clients") {
        opt.clients = static_cast<unsigned>(v);
      } else if (arg == "--requests") {
        opt.requests = v;
      } else if (arg == "--k") {
        opt.k = static_cast<size_t>(v);
      } else if (arg == "--queue") {
        opt.queue = static_cast<size_t>(v);
      } else if (arg == "--seed") {
        opt.seed = v;
      } else {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (opt.docs == 0 || opt.shards == 0 || opt.workers == 0 ||
      opt.clients == 0) {
    return Usage();
  }
  // Opened (and truncated) now, written at exit.
  std::unique_ptr<std::FILE, FileCloser> metrics_file;
  if (!opt.metrics_json.empty()) {
    metrics_file.reset(std::fopen(opt.metrics_json.c_str(), "wb"));
    if (metrics_file == nullptr) {
      std::fprintf(stderr, "ckr_serve: cannot write --metrics-json %s: %s\n",
                   opt.metrics_json.c_str(), std::strerror(errno));
      return Usage();
    }
  }

  std::printf("ckr_serve: building %llu-doc world, %zu shards...\n",
              static_cast<unsigned long long>(opt.docs), opt.shards);
  auto world_or = ckr::World::Create(ckr::ScaledWorldConfig(
      static_cast<size_t>(opt.docs), opt.seed));
  if (!world_or.ok()) {
    std::fprintf(stderr, "ckr_serve: world: %s\n",
                 world_or.status().message().c_str());
    return 1;
  }
  const std::unique_ptr<ckr::World> world = std::move(world_or).value();

  ckr::obs::MetricRegistry& metrics = ckr::obs::MetricRegistry::Global();
  ckr::ServeDaemonConfig daemon_config;
  daemon_config.num_workers = opt.workers;
  daemon_config.queue_capacity = opt.queue;
  daemon_config.metrics = &metrics;
  ckr::ServeDaemon daemon(daemon_config);

  const ckr::Clock& wall = ckr::RealClock();
  const int64_t build_start_nanos = wall.NowNanos();
  auto snapshot = BuildSnapshot(*world, opt);
  if (snapshot == nullptr) return 1;
  const double build_seconds = wall.SecondsSince(build_start_nanos);
  const char* evaluator_name =
      snapshot->evaluator == ckr::QueryEvaluator::kExhaustive ? "exhaustive"
                                                              : "maxscore";
  daemon.Publish(std::move(snapshot));
  if (!daemon.Start().ok()) {
    std::fprintf(stderr, "ckr_serve: daemon failed to start\n");
    return 1;
  }

  ckr::LoadGenConfig load_config;
  load_config.seed = opt.seed;
  load_config.top_k = opt.k;
  const ckr::LoadGenerator gen(*world, load_config);

  std::printf(
      "ckr_serve: built in %.3f s; %llu requests, %u clients, %u workers, "
      "evaluator=%s%s\n",
      build_seconds, static_cast<unsigned long long>(opt.requests),
      opt.clients, opt.workers, evaluator_name,
      opt.swap ? ", swap mid-run" : "");

  const int64_t start_nanos = wall.NowNanos();
  std::atomic<uint64_t> answered{0};

  std::thread publisher;
  if (opt.swap) {
    publisher = std::thread([&] {
      auto next = BuildSnapshot(*world, opt);
      if (next == nullptr) return;
      while (answered.load(std::memory_order_acquire) < opt.requests / 2) {
        std::this_thread::yield();
      }
      daemon.Publish(std::move(next));
    });
  }

  std::vector<std::thread> clients;
  for (unsigned c = 0; c < opt.clients; ++c) {
    clients.emplace_back([&, c] {
      for (uint64_t i = c; i < opt.requests; i += opt.clients) {
        const ckr::LoadRequest load = gen.Request(i);
        ckr::ServeRequest request;
        request.id = i;
        request.query = load.query;
        request.k = load_config.top_k;
        std::atomic<bool> done{false};
        request.done = [&](ckr::ServeResponse&&) {
          answered.fetch_add(1, std::memory_order_relaxed);
          done.store(true, std::memory_order_release);
        };
        (void)daemon.Submit(std::move(request));
        // Closed loop: wait for this request before issuing the next.
        while (!done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  if (publisher.joinable()) publisher.join();
  const double elapsed = wall.SecondsSince(start_nanos);
  daemon.Stop();

  const auto counter = [&](const char* name) {
    return static_cast<unsigned long long>(metrics.GetCounter(name)->Value());
  };
  ckr::obs::Histogram* latency = metrics.GetHistogram("ckr.serve.latency_seconds");
  ckr::obs::Histogram* queueh = metrics.GetHistogram("ckr.serve.queue_seconds");
  std::printf("\n  outcome counts\n");
  std::printf("    completed        %10llu\n", counter("ckr.serve.completed"));
  std::printf("    partial          %10llu\n", counter("ckr.serve.partial"));
  std::printf("    shed_queue_full  %10llu\n",
              counter("ckr.serve.shed_queue_full"));
  std::printf("    shed_deadline    %10llu\n",
              counter("ckr.serve.shed_deadline"));
  std::printf("    snapshot_swaps   %10llu\n",
              counter("ckr.serve.snapshot_swaps"));
  std::printf("  latency  p50 %8.1f us   p99 %8.1f us   p999 %8.1f us\n",
              latency->Percentile(0.5) * 1e6, latency->Percentile(0.99) * 1e6,
              latency->Percentile(0.999) * 1e6);
  std::printf("  queueing p50 %8.1f us   p99 %8.1f us   p999 %8.1f us\n",
              queueh->Percentile(0.5) * 1e6, queueh->Percentile(0.99) * 1e6,
              queueh->Percentile(0.999) * 1e6);
  std::printf("  %.2f s wall, %.0f req/s, live generations %lld\n", elapsed,
              static_cast<double>(opt.requests) / elapsed,
              static_cast<long long>(daemon.LiveGenerations()));
  if (metrics_file != nullptr) {
    const std::string json = metrics.SnapshotJson();
    if (std::fwrite(json.data(), 1, json.size(), metrics_file.get()) !=
            json.size() ||
        std::fclose(metrics_file.release()) != 0) {
      std::fprintf(stderr, "ckr_serve: writing %s failed\n",
                   opt.metrics_json.c_str());
      return 1;
    }
    std::printf("  metrics written to %s\n", opt.metrics_json.c_str());
  }
  return 0;
}
