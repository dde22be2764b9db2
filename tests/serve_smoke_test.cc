// End-to-end serving smoke (ungated — small world, a few seconds): a
// streamed sharded build is checked bit-identical to the single-index
// oracle, then the daemon is driven with the deterministic load
// generator through the two behaviours that define the serving layer:
//  * hot snapshot swap under live load with ZERO failed requests, and
//  * admission-control shedding under deliberate overload, with every
//    submitted request answered exactly once.
// Real threads and the real clock are exercised here; the deterministic
// shed/deadline state machine is pinned separately in serve_test.cc.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "corpus/corpus_stream.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "search/search_service.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"

namespace ckr {
namespace {

constexpr size_t kSmokeDocs = 1200;
constexpr uint64_t kSmokeSeed = 20090331;

class ServeSmokeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = World::Create(ScaledWorldConfig(kSmokeDocs, kSmokeSeed))
                 ->release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static ShardedIndex BuildSharded(size_t num_shards) {
    ShardedIndexConfig config;
    config.num_shards = num_shards;
    config.build.store_text = false;
    config.build.build_block_index = true;
    config.stream.workers = 2;
    auto sharded =
        ShardedIndex::Build(*world_, Document::Kind::kWeb, kSmokeDocs, config);
    CKR_CHECK(sharded.ok());
    return std::move(sharded).value();
  }

  static std::unique_ptr<ServingSnapshot> BuildSnapshot(size_t num_shards) {
    auto snapshot = std::make_unique<ServingSnapshot>(BuildSharded(num_shards));
    snapshot->evaluator =
        ChooseEvaluator(snapshot->index.MaxShardDocs(),
                        snapshot->index.shard(0).has_block_index());
    return snapshot;
  }

  static World* world_;
};

World* ServeSmokeTest::world_ = nullptr;

TEST_F(ServeSmokeTest, ShardedBuildMatchesSingleIndexOracle) {
  const ShardedIndex sharded = BuildSharded(4);
  ASSERT_EQ(sharded.NumDocs(), kSmokeDocs);

  IndexBuildOptions opts;
  opts.store_text = false;
  InvertedIndex oracle(opts);
  CorpusStreamer streamer(*world_);
  CorpusStreamConfig stream_cfg;
  stream_cfg.workers = 2;
  Status s = streamer.Stream(Document::Kind::kWeb, kSmokeDocs, stream_cfg,
                             [&](Document&& doc) { oracle.Add(doc); });
  ASSERT_TRUE(s.ok()) << s.message();
  oracle.Finalize();
  oracle.RebuildBlockIndex();

  LoadGenConfig load_cfg;
  const LoadGenerator gen(*world_, load_cfg);
  for (uint64_t i = 0; i < 40; ++i) {
    const std::string query = gen.Request(i * 31).query;
    const auto expected = oracle.Search(query, 10);
    for (QueryEvaluator evaluator :
         {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore,
          QueryEvaluator::kBlockMaxWand}) {
      const auto got = sharded.Search(query, 10, Bm25Params{}, evaluator);
      ASSERT_EQ(got.size(), expected.size()) << query;
      for (size_t r = 0; r < expected.size(); ++r) {
        ASSERT_EQ(got[r].doc, expected[r].doc) << query << " rank " << r;
        ASSERT_EQ(got[r].score, expected[r].score) << query << " rank " << r;
      }
    }
  }
}

TEST_F(ServeSmokeTest, HotSwapUnderLoadLosesNothing) {
  obs::MetricRegistry metrics;
  ServeDaemonConfig config;
  config.num_workers = 2;
  config.queue_capacity = 4096;  // Roomy: this leg must not shed.
  config.metrics = &metrics;
  ServeDaemon daemon(config);
  daemon.Publish(BuildSnapshot(4));
  ASSERT_TRUE(daemon.Start().ok());

  constexpr uint64_t kRequests = 240;
  LoadGenConfig load_cfg;
  const LoadGenerator gen(*world_, load_cfg);

  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> ok{0};
  std::array<std::atomic<uint64_t>, 2> by_generation{};

  // Swap mid-stream: a second generation (different shard count — the
  // merge contract makes it serve identical results) is built on a side
  // thread and published while clients are submitting.
  std::thread publisher([&] {
    auto next = BuildSnapshot(2);
    while (answered.load(std::memory_order_acquire) < kRequests / 4) {
      std::this_thread::yield();
    }
    daemon.Publish(std::move(next));
  });

  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (uint64_t i = c; i < kRequests; i += 2) {
        const LoadRequest load = gen.Request(i);
        ServeRequest request;
        request.id = i;
        request.query = load.query;
        request.k = load_cfg.top_k;
        request.done = [&](ServeResponse&& response) {
          if (response.outcome == ServeOutcome::kOk) {
            ok.fetch_add(1, std::memory_order_relaxed);
            by_generation[response.generation - 1].fetch_add(
                1, std::memory_order_relaxed);
          }
          answered.fetch_add(1, std::memory_order_relaxed);
        };
        ASSERT_TRUE(daemon.Submit(std::move(request)));
      }
    });
  }
  for (auto& t : clients) t.join();
  publisher.join();
  daemon.Stop();  // Graceful drain answers everything still queued.

  // Zero downtime: every request answered, none failed or shed.
  EXPECT_EQ(answered.load(), kRequests);
  EXPECT_EQ(ok.load(), kRequests);
  EXPECT_EQ(metrics.GetCounter("ckr.serve.shed_queue_full")->Value(), 0u);
  EXPECT_EQ(metrics.GetCounter("ckr.serve.no_snapshot")->Value(), 0u);
  EXPECT_EQ(metrics.GetCounter("ckr.serve.snapshot_swaps")->Value(), 1u);
  // The swap landed mid-stream (the publisher gate guarantees gen 1
  // served some) and the retired generation was reclaimed.
  EXPECT_GT(by_generation[0].load(), 0u);
  EXPECT_EQ(by_generation[0].load() + by_generation[1].load(), kRequests);
  EXPECT_EQ(daemon.CurrentGeneration(), 2u);
  EXPECT_EQ(daemon.LiveGenerations(), 1);
}

TEST_F(ServeSmokeTest, OverloadShedsAtAdmissionAndAnswersEverything) {
  obs::MetricRegistry metrics;
  ServeDaemonConfig config;
  config.num_workers = 1;
  config.queue_capacity = 2;
  config.metrics = &metrics;
  ServeDaemon daemon(config);
  daemon.Publish(BuildSnapshot(2));
  ASSERT_TRUE(daemon.Start().ok());

  // Park the only worker so the 2-slot queue must overflow.
  std::promise<void> parked;
  std::promise<void> release;
  std::future<void> release_future = release.get_future();
  ServeRequest blocker;
  blocker.query = "warmup";
  blocker.done = [&](ServeResponse&&) {
    parked.set_value();
    release_future.wait();
  };
  ASSERT_TRUE(daemon.Submit(std::move(blocker)));
  parked.get_future().wait();

  LoadGenConfig load_cfg;
  const LoadGenerator gen(*world_, load_cfg);
  std::atomic<uint64_t> answered{0};
  uint64_t accepted = 0, shed = 0;
  constexpr uint64_t kOffered = 16;
  for (uint64_t i = 0; i < kOffered; ++i) {
    ServeRequest request;
    request.query = gen.Request(i).query;
    request.done = [&](ServeResponse&&) {
      answered.fetch_add(1, std::memory_order_relaxed);
    };
    if (daemon.Submit(std::move(request))) {
      ++accepted;
    } else {
      ++shed;  // Callback already ran synchronously with kShedQueueFull.
    }
  }
  // Queue capacity 2 and a parked worker: exactly 2 fit, the rest shed
  // in microseconds instead of queueing unboundedly.
  EXPECT_EQ(accepted, 2u);
  EXPECT_EQ(shed, kOffered - 2);
  EXPECT_EQ(metrics.GetCounter("ckr.serve.shed_queue_full")->Value(), shed);

  release.set_value();
  daemon.Stop();
  // Every offered request was answered exactly once (sheds synchronously,
  // accepted ones by the drain).
  EXPECT_EQ(answered.load(), kOffered);
  EXPECT_EQ(metrics.GetCounter("ckr.serve.completed")->Value(),
            accepted + 1);  // +1 for the parked warmup request.
}

}  // namespace
}  // namespace ckr
