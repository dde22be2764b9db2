// search_small / search_large: BM25 top-k through ServeDaemon, driven by
// two blocking closed-loop clients with LoadGenerator's Zipf plus
// hot-burst traffic. The two sizes sit on either side of the evaluator
// crossover (ChooseEvaluator): 5k-doc shards use the exhaustive scorer
// on short, cache-resident postings; 100k-doc shards use MaxScore on
// long block postings that no longer fit in cache.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "corpus/corpus_stream.h"
#include "corpus/world.h"
#include "obs/metrics.h"
#include "search/search_service.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using ckr::SearchResult;
using ckr::ServeResponse;

constexpr size_t kShards = 4;
constexpr uint64_t kWorldSeed = 20090331;
/// Distinct queries drawn per run; requests cycle through them.
constexpr size_t kQueryRing = 1 << 16;
/// One request in this many has its results checked bit for bit against
/// ShardedIndex::Search after the measured phase.
constexpr uint64_t kVerifyEvery = 32;

/// Wait slot of one blocking client: the daemon's callback fills it and
/// wakes the client, which sleeps on the condition variable meanwhile.
struct Waiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ServeResponse response;
  int64_t done_ns = 0;
};

struct Sampled {
  uint64_t request = 0;
  std::vector<SearchResult> results;
};

/// Everything one client measured.
struct ClientLog {
  explicit ClientLog(size_t span_cap) : tracer(span_cap) {}
  OpCounts ops;
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
  std::vector<double> queue_us;
  std::vector<double> daemon_us;
  std::vector<double> handoff_us;
  std::vector<Sampled> sampled;
  Tracer tracer;
};

bool SameResults(const std::vector<SearchResult>& a,
                 const std::vector<SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool CheckedAgainstOracle(uint64_t seed, uint64_t request) {
  return ckr::Mix64(ckr::HashCombine(seed, request)) % kVerifyEvery == 0;
}

uint64_t CounterValue(const char* name) {
  return ckr::obs::MetricRegistry::Global().GetCounter(name)->Value();
}

const char* EvaluatorName(ckr::QueryEvaluator e) {
  switch (e) {
    case ckr::QueryEvaluator::kExhaustive:
      return "exhaustive";
    case ckr::QueryEvaluator::kMaxScore:
      return "maxscore";
    case ckr::QueryEvaluator::kBlockMaxWand:
      return "block-max-wand";
  }
  return "unknown";
}

/// One closed-loop client: submits request c, c + kSearchClients, ...
/// and blocks until each is answered, until `deadline_ns`.
void RunClient(unsigned c, ckr::ServeDaemon& daemon,
               const std::vector<std::string>& queries, size_t k,
               size_t num_shards, const RunOptions& options,
               int64_t start_ns, int64_t deadline_ns, ClientLog* log) {
  Waiter w;
  for (uint64_t i = c;; i += kSearchClients) {
    const int64_t a = NowNs();
    if (a >= deadline_ns) break;
    const bool traced = options.trace && InTracedWindow(start_ns, a);
    ckr::ServeRequest request;
    request.id = i;
    request.query = queries[i % queries.size()];
    request.k = k;
    request.done = [&w](ServeResponse&& response) {
      const int64_t t = NowNs();
      std::lock_guard<std::mutex> lock(w.mu);
      w.response = std::move(response);
      w.done_ns = t;
      w.done = true;
      w.cv.notify_one();
    };
    const int64_t submit = NowNs();
    (void)daemon.Submit(std::move(request));
    std::unique_lock<std::mutex> lock(w.mu);
    w.cv.wait(lock, [&w] { return w.done; });
    const int64_t wake = NowNs();
    w.done = false;
    const ServeResponse& r = w.response;
    const bool ok = r.outcome == ckr::ServeOutcome::kOk &&
                    r.shards_answered == num_shards;
    log->ops.Record(ok);
    if (ok && CheckedAgainstOracle(options.seed, i)) log->sampled.push_back({i, r.results});
    const double us = static_cast<double>(wake - submit) / 1e3;
    (traced ? log->traced_us : log->untraced_us).push_back(us);
    if (!options.trace) continue;
    log->queue_us.push_back(r.queue_seconds * 1e6);
    log->daemon_us.push_back(r.total_seconds * 1e6);
    log->handoff_us.push_back(us - r.total_seconds * 1e6);
    if (!traced) continue;
    // The daemon reports its own durations; its span ends when the
    // callback ran and the queue wait opens it.
    const int64_t daemon_start =
        w.done_ns - static_cast<int64_t>(r.total_seconds * 1e9);
    log->tracer.Begin(i);
    log->tracer.Add("client.search", -1, submit, wake);
    const int32_t d = log->tracer.Add("serve.daemon", 0, daemon_start, w.done_ns);
    log->tracer.Add("serve.queue", d, daemon_start,
                    daemon_start + static_cast<int64_t>(r.queue_seconds * 1e9));
    log->tracer.End();
  }
}

}  // namespace

Report RunSearch(const RunOptions& options, bool large) {
  Report report;
  const uint64_t num_docs = large ? 400000 : 20000;
  const int setup_repeats = large ? 1 : kSetupRepeats;

  // Input generation (not set-up): the corpus world and the query stream.
  int64_t t = NowNs();
  auto world_or = ckr::World::Create(ckr::ScaledWorldConfig(num_docs, kWorldSeed));
  const double world_s = SecondsBetween(t, NowNs());
  if (!world_or.ok()) Fail("World::Create: " + world_or.status().ToString());
  const ckr::World& world = **world_or;
  ckr::LoadGenConfig load;
  load.seed = options.seed;
  const ckr::LoadGenerator gen(world, load);
  std::vector<std::string> queries;
  queries.reserve(kQueryRing);
  for (uint64_t i = 0; i < kQueryRing; ++i) queries.push_back(gen.Request(i).query);

  // Set-up: sharded build, snapshot publish and daemon start.
  ckr::ShardedIndexConfig build;
  build.num_shards = kShards;
  build.build.store_text = false;
  build.build.build_block_index = true;
  build.stream.workers = kStreamThreads;
  ckr::ServeDaemonConfig daemon_config;
  daemon_config.num_workers = kDaemonWorkers;
  daemon_config.shard_parallelism = 1;
  daemon_config.queue_capacity = 4096;
  ckr::obs::MetricRegistry daemon_metrics;
  daemon_config.metrics = &daemon_metrics;
  std::unique_ptr<ckr::ServeDaemon> daemon;
  const ckr::ServingSnapshot* snapshot = nullptr;
  std::vector<double> setup_times;
  std::vector<double> build_times;
  for (int r = 0; r < setup_repeats; ++r) {
    daemon.reset();  // Stops and frees the previous repeat first.
    const int64_t s0 = NowNs();
    auto sharded = ckr::ShardedIndex::Build(world, ckr::Document::Kind::kWeb,
                                            num_docs, build);
    const int64_t s1 = NowNs();
    if (!sharded.ok()) Fail("ShardedIndex::Build: " + sharded.status().ToString());
    auto snap = std::make_unique<ckr::ServingSnapshot>(std::move(sharded).value());
    snap->evaluator = ckr::ChooseEvaluator(snap->index.MaxShardDocs(),
                                           snap->index.shard(0).has_block_index());
    snapshot = snap.get();
    daemon = std::make_unique<ckr::ServeDaemon>(daemon_config);
    daemon->Publish(std::move(snap));
    if (!daemon->Start().ok()) Fail("ServeDaemon::Start failed");
    const int64_t s2 = NowNs();
    build_times.push_back(SecondsBetween(s0, s1));
    setup_times.push_back(SecondsBetween(s0, s2));
  }
  const double setup_s = Median(setup_times);
  size_t memory_bytes = 0;
  for (size_t s = 0; s < snapshot->index.NumShards(); ++s) {
    memory_bytes += snapshot->index.shard(s).MemoryBytes();
  }
  std::printf("inputs: %llu web docs in %zu shards (world %.3f s), %zu "
              "distinct queries, seed %llu\n",
              static_cast<unsigned long long>(num_docs), kShards, world_s,
              queries.size(), static_cast<unsigned long long>(options.seed));
  std::printf("setup: Build+Publish+Start median %.3f s of %d (", setup_s,
              setup_repeats);
  for (double s : setup_times) std::printf(" %.3f", s);
  std::printf(" ), evaluator %s, index %.1f MiB\n",
              EvaluatorName(snapshot->evaluator),
              static_cast<double>(memory_bytes) / (1 << 20));

  // Untimed warm-up: the same closed loop for a fixed slice of time.
  const double warm_seconds = std::min(2.0, options.seconds / 5);
  RunOptions warm_options = options;
  warm_options.trace = false;
  std::vector<ClientLog> warm(kSearchClients, ClientLog(0));
  const int64_t warm_start = NowNs();
  {
    std::vector<std::thread> clients;
    const int64_t end = warm_start + static_cast<int64_t>(warm_seconds * 1e9);
    for (unsigned c = 0; c < kSearchClients; ++c) {
      clients.emplace_back(RunClient, c, std::ref(*daemon), std::cref(queries),
                           load.top_k, kShards, std::cref(warm_options),
                           warm_start, end, &warm[c]);
    }
    for (auto& th : clients) th.join();
  }
  uint64_t warm_ops = 0;
  for (const ClientLog& l : warm) warm_ops += l.ops.attempted;
  std::printf("warmup: %.3f s, %llu requests\n",
              SecondsBetween(warm_start, NowNs()),
              static_cast<unsigned long long>(warm_ops));

  // Measured phase.
  std::vector<ClientLog> logs(kSearchClients, ClientLog(100000));
  for (ClientLog& l : logs) {
    l.untraced_us.reserve(1 << 20);
    if (options.trace) l.traced_us.reserve(1 << 20);
  }
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kSearchClients; ++c) {
      clients.emplace_back(RunClient, c, std::ref(*daemon), std::cref(queries),
                           load.top_k, kShards, std::cref(options), start,
                           deadline, &logs[c]);
    }
    for (auto& th : clients) th.join();
  }
  const double wall_s = SecondsBetween(start, NowNs());
  daemon->Stop();

  // Merge the clients and check the sampled results against the
  // sequential scatter/gather oracle.
  ClientLog all(0);
  Tracer tracer(200000);
  size_t checked = 0;
  size_t mismatches = 0;
  for (ClientLog& l : logs) {
    report.ops.attempted += l.ops.attempted;
    report.ops.failed += l.ops.failed;
    all.untraced_us.insert(all.untraced_us.end(), l.untraced_us.begin(),
                           l.untraced_us.end());
    all.traced_us.insert(all.traced_us.end(), l.traced_us.begin(),
                         l.traced_us.end());
    all.queue_us.insert(all.queue_us.end(), l.queue_us.begin(), l.queue_us.end());
    all.daemon_us.insert(all.daemon_us.end(), l.daemon_us.begin(),
                         l.daemon_us.end());
    all.handoff_us.insert(all.handoff_us.end(), l.handoff_us.begin(),
                          l.handoff_us.end());
    tracer.Merge(l.tracer);
    for (const Sampled& s : l.sampled) {
      const auto oracle = snapshot->index.Search(
          queries[s.request % queries.size()], load.top_k, {},
          snapshot->evaluator);
      if (!SameResults(oracle, s.results)) ++mismatches;
      ++checked;
    }
  }
  report.ops.failed += mismatches;
  const LatencyStats lat = Summarize(all.untraced_us);
  std::printf("measured: %.3f s, %llu ops, %llu failed; %zu sampled "
              "results checked, %zu differ from ShardedIndex::Search\n",
              wall_s, static_cast<unsigned long long>(report.ops.attempted),
              static_cast<unsigned long long>(report.ops.failed), checked,
              mismatches);
  std::printf("latency: p50 %.2f us, p99 %.2f us over %zu untraced "
              "samples\n",
              lat.p50_us, lat.p99_us, lat.samples);

  report.correct = report.ops.failed == 0 && checked > 0;
  auto& m = report.metrics;
  m["setup_s"] = setup_s;
  m["p50_us"] = lat.p50_us;
  m["p99_us"] = lat.p99_us;
  m["ops_per_s"] = report.ops.OpsPerSecond(wall_s);
  m["rss_mb"] = PeakRssMb();
  if (!options.trace) return report;

  // Traced replay of the same query stream, one shard leg at a time.
  const double replay_seconds = options.seconds / 4;
  const ckr::ShardedIndex& index = snapshot->index;
  const uint64_t scored0 = CounterValue("ckr.index.postings_scored");
  const uint64_t decoded0 = CounterValue("ckr.index.blocks_decoded");
  const uint64_t skipped0 = CounterValue("ckr.index.blocks_skipped");
  std::vector<double> shard_us;
  std::vector<double> slowest_us;
  std::vector<double> merge_us;
  std::vector<std::vector<SearchResult>> per_shard(index.NumShards());
  std::vector<Sampled> replay_sampled;
  const int64_t replay_end =
      NowNs() + static_cast<int64_t>(replay_seconds * 1e9);
  uint64_t replayed = 0;
  for (; NowNs() < replay_end; ++replayed) {
    const std::string& query = queries[replayed % queries.size()];
    tracer.Begin(replayed);
    const int64_t a = NowNs();
    const int32_t root = tracer.Add("replay.search", -1, a, a);
    double slowest = 0.0;
    for (size_t s = 0; s < index.NumShards(); ++s) {
      const int64_t s0 = NowNs();
      per_shard[s] = index.shard(s).Search(query, load.top_k, {},
                                           snapshot->evaluator);
      const int64_t s1 = NowNs();
      tracer.Add("index.shard_search", root, s0, s1);
      const double us = static_cast<double>(s1 - s0) / 1e3;
      shard_us.push_back(us);
      slowest = std::max(slowest, us);
    }
    const int64_t m0 = NowNs();
    auto merged = ckr::MergeShardTopK(per_shard, load.top_k);
    const int64_t m1 = NowNs();
    tracer.Add("serve.merge", root, m0, m1);
    tracer.SetEnd(root, m1);
    tracer.End();
    slowest_us.push_back(slowest);
    merge_us.push_back(static_cast<double>(m1 - m0) / 1e3);
    if (CheckedAgainstOracle(options.seed, replayed)) {
      replay_sampled.push_back({replayed, std::move(merged)});
    }
  }
  const uint64_t scored1 = CounterValue("ckr.index.postings_scored");
  const uint64_t decoded1 = CounterValue("ckr.index.blocks_decoded");
  const uint64_t skipped1 = CounterValue("ckr.index.blocks_skipped");
  // Checked after the counters are read, so oracle searches do not count.
  for (const Sampled& s : replay_sampled) {
    if (!SameResults(s.results,
                     index.Search(queries[s.request % queries.size()],
                                  load.top_k, {}, snapshot->evaluator))) {
      report.correct = false;
    }
  }

  const LatencyStats traced = Summarize(all.traced_us);
  std::printf("traced: p50 %.2f us over %zu samples; replay %llu queries; "
              "%zu spans kept, %llu dropped\n",
              traced.p50_us, traced.samples,
              static_cast<unsigned long long>(replayed), tracer.kept(),
              static_cast<unsigned long long>(tracer.dropped()));
  const double queries_replayed =
      static_cast<double>(replayed > 0 ? replayed : 1);
  m["serve.queue_wait_us"] = Median(all.queue_us);
  m["serve.daemon_us"] = Median(all.daemon_us);
  m["serve.handoff_us"] = Median(all.handoff_us);
  m["index.shard_eval_us"] = Median(shard_us);
  m["index.slowest_shard_us"] = Median(slowest_us);
  m["serve.merge_us"] = Median(merge_us);
  m["index.postings_scored_per_query"] =
      static_cast<double>(scored1 - scored0) / queries_replayed;
  m["index.blocks_decoded_per_query"] =
      static_cast<double>(decoded1 - decoded0) / queries_replayed;
  m["index.blocks_skipped_frac"] =
      DeltaRatio(skipped0, skipped1, decoded0 + skipped0, decoded1 + skipped1);
  m["index.memory_mb"] = static_cast<double>(memory_bytes) / (1 << 20);
  m["corpus.world_s"] = world_s;
  m["serve.shard_build_s"] = Median(build_times);
  m["trace.coverage_frac"] = tracer.Coverage("client.search");
  m["trace.overhead_us"] = traced.p50_us - lat.p50_us;
  for (const char* span : {"client.search", "serve.daemon", "serve.queue",
                           "replay.search", "index.shard_search",
                           "serve.merge"}) {
    m[std::string("self.") + span + "_us"] = tracer.MeanSelfUs(span);
  }
  if (!tracer.WriteTsv(options.spans_path, start)) {
    Fail("cannot write spans to " + options.spans_path);
  }
  return report;
}

}  // namespace perfbench
