// Serving-daemon benchmark: drives ckr_serve with the deterministic
// million-user load generator and reports the latency distribution,
// offered load and goodput, and shed accounting the daemon's telemetry
// captures. Offered rate = requests submitted / wall seconds; goodput =
// kOk responses / wall seconds. They differ once a leg sheds.
//
// Legs, each on a fresh daemon + metric registry:
//  * closed loop  — N clients submit-and-wait; measures service capacity
//    with queueing kept near zero (reported, not fed to other legs).
//  * open loop    — requests fired on a Poisson arrival schedule at a
//    fixed offered QPS, independent of service times; run once below the
//    capacities measured on a 4-vCPU VM (15.6k–39.4k qps) and once far
//    above them, where admission control (bounded queue + deadlines)
//    turns overload into fast sheds instead of unbounded queueing delay.
//    The rates are constants, so two builds are offered the same load.
//  * hot swap     — closed loop while a freshly built generation is
//    published mid-run; the zero-downtime contract means no request may
//    fail or be shed.
//
// Latency and queue percentiles are exact: nearest rank over the
// per-request ServeResponse of every leg, not interpolations inside the
// daemon's histogram buckets. Every percentile is reported with its
// sample count, and p999 only when at least ten samples lie beyond it
// (null in the JSON otherwise); latency_us also carries the largest
// sample, so a stall rarer than p999 still shows. latency_us covers
// served answers (kOk, kPartial); queue_us every request a worker picked
// up. Each leg also
// reports the median of each envelope step the response stamps:
// queue (admission -> pickup), scatter (pickup -> last leg), merge
// (last leg -> merged list) and respond (merged list -> callback).
//
// Output: printf summary table + BENCH_serving.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/document.h"
#include "corpus/world.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "search/search_service.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"

namespace ckr {
namespace {

constexpr size_t kDocs = 20000;
constexpr size_t kShards = 4;
constexpr uint64_t kSeed = 20090331;
/// Enough requests that a leg answering all of them has 20 samples beyond
/// its p999.
constexpr uint64_t kRequestsPerLeg = 20000;
/// Open-loop offered rates (requests per second).
constexpr double kOpenLowQps = 10000.0;
constexpr double kOpenHighQps = 60000.0;
/// Served answers a leg needs before its p999 has ten samples beyond it.
constexpr uint64_t kP999MinSamples = 10000;
constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;

struct LegResult {
  const char* name = "";
  const char* mode = "";
  uint64_t offered = 0;
  double target_qps = 0.0;  // Open-loop arrival rate; 0 for closed loop.
  double seconds = 0.0;
  double offered_qps = 0.0;  // offered / seconds.
  double goodput_qps = 0.0;  // completed (kOk) / seconds.
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;  // -1 when too few samples for it.
  double latency_max_us = 0.0;
  double queue_p50_us = 0.0;
  double queue_p99_us = 0.0;
  uint64_t latency_samples = 0;  // Served answers.
  uint64_t queue_samples = 0;    // Requests a worker picked up.
  // Envelope medians over served answers.
  double env_queue_us = 0.0;
  double env_scatter_us = 0.0;
  double env_merge_us = 0.0;
  double env_respond_us = 0.0;
  double max_queue_depth = 0.0;
  uint64_t completed = 0;
  uint64_t partial = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_deadline = 0;
  uint64_t swaps = 0;
  double shed_rate = 0.0;
  bool all_answered = false;
};

std::unique_ptr<ServingSnapshot> BuildSnapshot(const World& world) {
  ShardedIndexConfig config;
  config.num_shards = kShards;
  config.build.store_text = false;
  config.build.build_block_index = true;
  auto sharded =
      ShardedIndex::Build(world, Document::Kind::kWeb, kDocs, config);
  CKR_CHECK(sharded.ok());
  auto snapshot =
      std::make_unique<ServingSnapshot>(std::move(sharded).value());
  snapshot->evaluator =
      ChooseEvaluator(snapshot->index.MaxShardDocs(),
                      snapshot->index.shard(0).has_block_index());
  return snapshot;
}

/// What one request's ServeResponse says about its time in the daemon.
struct Sample {
  bool picked_up = false;  // A worker popped it (not an admission shed).
  bool served = false;     // kOk or kPartial.
  double queue_us = 0.0;
  double latency_us = 0.0;
  double scatter_us = 0.0;
  double merge_us = 0.0;
  double respond_us = 0.0;
};

Sample SampleOf(const ServeResponse& r) {
  Sample s;
  s.picked_up = r.pickup_nanos != 0;
  s.served = r.outcome == ServeOutcome::kOk ||
             r.outcome == ServeOutcome::kPartial;
  s.queue_us = r.queue_seconds * 1e6;
  s.latency_us = r.total_seconds * 1e6;
  if (s.served) {
    auto us = [](int64_t from, int64_t to) {
      return static_cast<double>(to - from) / 1e3;
    };
    s.scatter_us = us(r.pickup_nanos, r.scatter_end_nanos);
    s.merge_us = us(r.scatter_end_nanos, r.merge_end_nanos);
    s.respond_us = us(r.merge_end_nanos, r.callback_nanos);
  }
  return s;
}

/// Nearest-rank percentile: the smallest sample with at least a fraction
/// `p` of all samples at or below it. `sorted` must be ascending.
double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

/// Field `field` of the samples `keep` accepts, sorted ascending.
std::vector<double> Sorted(const std::vector<Sample>& samples,
                           bool Sample::*keep, double Sample::*field) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    if (s.*keep) v.push_back(s.*field);
  }
  std::sort(v.begin(), v.end());
  return v;
}

void FillFromSamples(const std::vector<Sample>& samples, LegResult* leg) {
  const std::vector<double> latency =
      Sorted(samples, &Sample::served, &Sample::latency_us);
  const std::vector<double> queued =
      Sorted(samples, &Sample::picked_up, &Sample::queue_us);
  leg->latency_samples = latency.size();
  leg->queue_samples = queued.size();
  leg->latency_p50_us = NearestRank(latency, 0.5);
  leg->latency_p99_us = NearestRank(latency, 0.99);
  leg->latency_p999_us = latency.size() >= kP999MinSamples
                              ? NearestRank(latency, 0.999)
                              : -1.0;
  leg->latency_max_us = latency.empty() ? 0.0 : latency.back();
  leg->queue_p50_us = NearestRank(queued, 0.5);
  leg->queue_p99_us = NearestRank(queued, 0.99);
  auto served_median = [&](double Sample::*field) {
    return NearestRank(Sorted(samples, &Sample::served, field), 0.5);
  };
  leg->env_queue_us = served_median(&Sample::queue_us);
  leg->env_scatter_us = served_median(&Sample::scatter_us);
  leg->env_merge_us = served_median(&Sample::merge_us);
  leg->env_respond_us = served_median(&Sample::respond_us);
}

void FillFromMetrics(obs::MetricRegistry& metrics, LegResult* leg) {
  leg->completed = metrics.GetCounter("ckr.serve.completed")->Value();
  leg->offered_qps = static_cast<double>(leg->offered) / leg->seconds;
  leg->goodput_qps = static_cast<double>(leg->completed) / leg->seconds;
  leg->partial = metrics.GetCounter("ckr.serve.partial")->Value();
  leg->shed_queue_full =
      metrics.GetCounter("ckr.serve.shed_queue_full")->Value();
  leg->shed_deadline = metrics.GetCounter("ckr.serve.shed_deadline")->Value();
  leg->swaps = metrics.GetCounter("ckr.serve.snapshot_swaps")->Value();
  leg->shed_rate =
      leg->offered == 0
          ? 0.0
          : static_cast<double>(leg->shed_queue_full + leg->shed_deadline) /
                static_cast<double>(leg->offered);
}

/// Closed loop: kClients threads, each submit-and-wait. `swap_snapshot`
/// (optional) is published once a quarter of the load is answered. The
/// clients block on their reply and the publisher sleeps between polls,
/// so neither takes a core from the daemon's workers while it waits.
LegResult RunClosedLoop(const char* name, const World& world,
                        const LoadGenerator& gen,
                        std::unique_ptr<ServingSnapshot> swap_snapshot) {
  LegResult leg;
  leg.name = name;
  leg.mode = "closed";
  leg.offered = kRequestsPerLeg;

  obs::MetricRegistry metrics;
  ServeDaemonConfig config;
  config.num_workers = kWorkers;
  config.queue_capacity = 4096;  // Closed loop never fills it.
  config.metrics = &metrics;
  ServeDaemon daemon(config);
  daemon.Publish(BuildSnapshot(world));
  CKR_CHECK(daemon.Start().ok());

  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> failed{0};
  // One slot per request, written by its callback only.
  std::vector<Sample> samples(kRequestsPerLeg);
  // Replies each client has received; they outlive every callback.
  std::vector<std::atomic<uint32_t>> replies(kClients);
  std::thread publisher;
  if (swap_snapshot != nullptr) {
    publisher = std::thread([&, snapshot = std::move(swap_snapshot)]() mutable {
      while (answered.load(std::memory_order_acquire) < kRequestsPerLeg / 4) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      daemon.Publish(std::move(snapshot));
    });
  }

  const Clock& wall = RealClock();
  const int64_t start = wall.NowNanos();
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::atomic<uint32_t>& received = replies[c];
      uint32_t sent = 0;
      for (uint64_t i = c; i < kRequestsPerLeg; i += kClients) {
        ServeRequest request;
        request.id = i;
        request.query = gen.Request(i).query;
        request.k = gen.config().top_k;
        request.done = [&, i](ServeResponse&& response) {
          samples[i] = SampleOf(response);
          if (response.outcome != ServeOutcome::kOk) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
          answered.fetch_add(1, std::memory_order_relaxed);
          received.fetch_add(1, std::memory_order_release);
          received.notify_one();
        };
        (void)daemon.Submit(std::move(request));
        received.wait(sent++, std::memory_order_acquire);
      }
    });
  }
  for (auto& t : clients) t.join();
  if (publisher.joinable()) publisher.join();
  leg.seconds = wall.SecondsSince(start);
  daemon.Stop();

  leg.all_answered =
      answered.load() == kRequestsPerLeg && failed.load() == 0;
  FillFromMetrics(metrics, &leg);
  FillFromSamples(samples, &leg);
  return leg;
}

/// Open loop: one dispatcher fires requests on the Poisson schedule at
/// `target_qps`, regardless of completions. Small queue + per-request
/// deadline make overload shed instead of queue without bound.
LegResult RunOpenLoop(const char* name, const World& world,
                      const LoadGenerator& gen, double target_qps,
                      int64_t deadline_budget_nanos) {
  LegResult leg;
  leg.name = name;
  leg.mode = "open";
  leg.offered = kRequestsPerLeg;
  leg.target_qps = target_qps;

  obs::MetricRegistry metrics;
  ServeDaemonConfig config;
  config.num_workers = kWorkers;
  config.queue_capacity = 64;  // Bounded: overload must shed, not queue.
  config.metrics = &metrics;
  ServeDaemon daemon(config);
  daemon.Publish(BuildSnapshot(world));
  CKR_CHECK(daemon.Start().ok());
  obs::Gauge* depth_gauge = metrics.GetGauge("ckr.serve.queue_depth");

  const std::vector<int64_t> arrivals =
      gen.ArrivalNanos(kRequestsPerLeg, target_qps);
  std::atomic<uint64_t> answered{0};
  std::vector<Sample> samples(kRequestsPerLeg);
  const Clock& wall = RealClock();
  const int64_t start = wall.NowNanos();
  double max_depth = 0.0;
  for (uint64_t i = 0; i < kRequestsPerLeg; ++i) {
    const int64_t target = start + arrivals[static_cast<size_t>(i)];
    const int64_t lag = target - wall.NowNanos();
    if (lag > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(lag));
    }
    ServeRequest request;
    request.id = i;
    request.query = gen.Request(i).query;
    request.k = gen.config().top_k;
    request.deadline_nanos = wall.NowNanos() + deadline_budget_nanos;
    request.done = [&, i](ServeResponse&& response) {
      samples[i] = SampleOf(response);
      answered.fetch_add(1, std::memory_order_relaxed);
    };
    (void)daemon.Submit(std::move(request));
    max_depth = std::max(max_depth, depth_gauge->Value());
  }
  daemon.Stop();  // Drains the backlog; every admitted request answers.
  leg.seconds = wall.SecondsSince(start);
  leg.max_queue_depth = max_depth;
  leg.all_answered = answered.load() == kRequestsPerLeg;
  FillFromMetrics(metrics, &leg);
  FillFromSamples(samples, &leg);
  return leg;
}

void PrintLeg(const LegResult& leg) {
  char p999[32] = "-";
  if (leg.latency_p999_us >= 0.0) {
    std::snprintf(p999, sizeof(p999), "%.1f", leg.latency_p999_us);
  }
  std::printf(
      "%-14s %6s offered %7.0f qps  goodput %7.0f qps  "
      "lat p50/p99/p999/max %8.1f/%9.1f/%9s/%9.1f us  shed %5.1f%%  "
      "swaps %llu  %s\n",
      leg.name, leg.mode, leg.offered_qps, leg.goodput_qps,
      leg.latency_p50_us, leg.latency_p99_us, p999, leg.latency_max_us,
      leg.shed_rate * 100.0,
      static_cast<unsigned long long>(leg.swaps),
      leg.all_answered ? "all answered" : "LOST REQUESTS");
  std::printf("%-14s        envelope medians: queue %.1f  scatter %.1f  "
              "merge %.1f  respond %.1f us  (%llu served)\n",
              "", leg.env_queue_us, leg.env_scatter_us, leg.env_merge_us,
              leg.env_respond_us,
              static_cast<unsigned long long>(leg.latency_samples));
}

void WriteLegJson(std::FILE* f, const LegResult& leg, bool last) {
  char p999[32] = "null";
  if (leg.latency_p999_us >= 0.0) {
    std::snprintf(p999, sizeof(p999), "%.1f", leg.latency_p999_us);
  }
  std::fprintf(
      f,
      "    {\"name\": \"%s\", \"mode\": \"%s\", \"offered\": %llu, "
      "\"target_qps\": %.1f, \"seconds\": %.4f, \"offered_qps\": %.1f, "
      "\"goodput_qps\": %.1f,\n"
      "     \"latency_us\": {\"p50\": %.1f, \"p99\": %.1f, \"p999\": %s, "
      "\"max\": %.1f, \"samples\": %llu}, "
      "\"queue_us\": {\"p50\": %.1f, \"p99\": %.1f, \"samples\": %llu},\n"
      "     \"envelope_median_us\": {\"queue\": %.1f, \"scatter\": %.1f, "
      "\"merge\": %.1f, \"respond\": %.1f},\n"
      "     \"completed\": %llu, \"partial\": %llu, \"shed_queue_full\": "
      "%llu, \"shed_deadline\": %llu, \"shed_rate\": %.4f,\n"
      "     \"max_queue_depth\": %.0f, \"snapshot_swaps\": %llu, "
      "\"all_answered\": %s}%s\n",
      leg.name, leg.mode, static_cast<unsigned long long>(leg.offered),
      leg.target_qps, leg.seconds, leg.offered_qps, leg.goodput_qps,
      leg.latency_p50_us, leg.latency_p99_us, p999, leg.latency_max_us,
      static_cast<unsigned long long>(leg.latency_samples),
      leg.queue_p50_us, leg.queue_p99_us,
      static_cast<unsigned long long>(leg.queue_samples),
      leg.env_queue_us, leg.env_scatter_us, leg.env_merge_us,
      leg.env_respond_us,
      static_cast<unsigned long long>(leg.completed),
      static_cast<unsigned long long>(leg.partial),
      static_cast<unsigned long long>(leg.shed_queue_full),
      static_cast<unsigned long long>(leg.shed_deadline), leg.shed_rate,
      leg.max_queue_depth, static_cast<unsigned long long>(leg.swaps),
      leg.all_answered ? "true" : "false", last ? "" : ",");
}

void Run() {
  std::printf("bench_serving: %zu docs, %zu shards, %u workers, %u clients, "
              "%llu requests/leg\n",
              kDocs, kShards, kWorkers, kClients,
              static_cast<unsigned long long>(kRequestsPerLeg));
  auto world_or = World::Create(ScaledWorldConfig(kDocs, kSeed));
  CKR_CHECK(world_or.ok());
  const std::unique_ptr<World> world = std::move(world_or).value();

  LoadGenConfig load_config;
  load_config.seed = kSeed;
  const LoadGenerator gen(*world, load_config);
  std::printf("load: %u zipf users, hot set %zu rotating every %llu "
              "requests (p_hot=%.2f)\n",
              load_config.num_users, load_config.hot_set_size,
              static_cast<unsigned long long>(load_config.burst_period),
              load_config.hot_entity_prob);

  std::vector<LegResult> legs;
  legs.push_back(RunClosedLoop("closed_loop", *world, gen, nullptr));
  // Closed loop offers only what it completes, so its goodput is the
  // daemon's capacity.
  const double capacity_qps = legs[0].goodput_qps;
  // Below capacity the open loop mostly completes; far above it, it must
  // shed.
  legs.push_back(RunOpenLoop("open_10k", *world, gen, kOpenLowQps,
                             /*deadline_budget_nanos=*/200'000'000));
  legs.push_back(RunOpenLoop("open_60k", *world, gen, kOpenHighQps,
                             /*deadline_budget_nanos=*/200'000'000));
  legs.push_back(
      RunClosedLoop("hot_swap", *world, gen, BuildSnapshot(*world)));

  std::printf("\n");
  for (const LegResult& leg : legs) PrintLeg(leg);
  const LegResult& swap = legs.back();
  std::printf("hot swap leg: %llu swap(s), zero failed requests: %s\n",
              static_cast<unsigned long long>(swap.swaps),
              swap.all_answered && swap.shed_queue_full == 0 &&
                      swap.shed_deadline == 0
                  ? "yes"
                  : "NO");

  std::FILE* f = std::fopen("BENCH_serving.json", "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serving.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"documents\": %zu,\n", kDocs);
  std::fprintf(f, "  \"shards\": %zu,\n", kShards);
  std::fprintf(f, "  \"workers\": %u,\n", kWorkers);
  std::fprintf(f, "  \"clients\": %u,\n", kClients);
  std::fprintf(f, "  \"requests_per_leg\": %llu,\n",
               static_cast<unsigned long long>(kRequestsPerLeg));
  std::fprintf(f, "  \"capacity_qps\": %.1f,\n", capacity_qps);
  std::fprintf(f, "  \"open_loop_qps\": [%.1f, %.1f],\n", kOpenLowQps,
               kOpenHighQps);
  std::fprintf(f, "  \"load\": {\"users\": %u, \"user_zipf\": %.2f, "
               "\"hot_entity_prob\": %.2f, \"hot_set_size\": %zu, "
               "\"burst_period\": %llu, \"seed\": %llu},\n",
               load_config.num_users, load_config.user_zipf,
               load_config.hot_entity_prob, load_config.hot_set_size,
               static_cast<unsigned long long>(load_config.burst_period),
               static_cast<unsigned long long>(load_config.seed));
  std::fprintf(f, "  \"legs\": [\n");
  for (size_t i = 0; i < legs.size(); ++i) {
    WriteLegJson(f, legs[i], i + 1 == legs.size());
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"hot_swap_zero_downtime\": %s\n",
               swap.all_answered && swap.shed_queue_full == 0 &&
                       swap.shed_deadline == 0
                   ? "true"
                   : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_serving.json\n");
}

}  // namespace
}  // namespace ckr

int main() {
  ckr::Run();
  return 0;
}
