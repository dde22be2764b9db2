// End-to-end serving smoke (ungated — small world, a few seconds): a
// sharded build is checked bit-identical to the single-index oracle and,
// shard by shard, to a serial build at every worker count, then the
// daemon is driven with the deterministic load generator through the two
// behaviours that define the serving layer:
//  * hot snapshot swap under live load with ZERO failed requests, and
//  * admission-control shedding under deliberate overload, with every
//    submitted request answered exactly once.
// Real threads and the real clock are exercised here; the deterministic
// shed/deadline state machine is pinned separately in serve_test.cc.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
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
#include "index_layout_peer.h"
#include "obs/hooks.h"
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

/// The serial build ShardedIndex::Build must equal: one corpus pass in id
/// order, each document added to its range owner. The shards keep their
/// token streams, so their token totals can be counted from the streams.
std::vector<std::unique_ptr<InvertedIndex>> SerialShards(const World& world,
                                                         uint64_t num_docs,
                                                         size_t num_shards) {
  std::vector<std::unique_ptr<InvertedIndex>> shards;
  for (size_t s = 0; s < num_shards; ++s) {
    shards.push_back(std::make_unique<InvertedIndex>());
  }
  CorpusStreamer streamer(world);
  uint64_t id = 0;
  size_t owner = 0;
  const Status status = streamer.Stream(
      Document::Kind::kWeb, num_docs, CorpusStreamConfig{},
      [&](Document&& doc) {
        while (id >= ShardRangeOf(owner, num_shards, num_docs).end) ++owner;
        shards[owner]->Add(doc);
        ++id;
      });
  CKR_CHECK(status.ok());
  for (auto& shard : shards) shard->Finalize();
  return shards;
}

uint64_t HistogramCount(const char* name) {
  return obs::MetricRegistry::Global().GetHistogram(name)->Count();
}

TEST_F(ServeSmokeTest, ParallelBuildEqualsSerialBuild) {
  // One document short of the corpus, so no shard count divides it: 3
  // shards hold 400/400/399 documents, 4 hold 300/300/300/299.
  constexpr uint64_t kDocs = kSmokeDocs - 1;
  LoadGenConfig load_cfg;
  const LoadGenerator gen(*world_, load_cfg);
  std::vector<std::string> queries;
  for (uint64_t i = 0; i < 40; ++i) {
    queries.push_back(gen.Request(i * 31).query);
  }
  // One ingest and one finalize sample per shard, one stats sample per
  // build; nothing when the hooks are compiled out.
  const uint64_t per_sample = CKR_OBS_ENABLED ? 1 : 0;

  for (const size_t num_shards : {1u, 3u, 4u}) {
    auto oracle_or =
        ShardedIndex::FromShards(SerialShards(*world_, kDocs, num_shards));
    ASSERT_TRUE(oracle_or.ok()) << oracle_or.status().ToString();
    const ShardedIndex& oracle = oracle_or.value();
    for (const unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << num_shards << " shards, " << workers
                                      << " workers");
      const uint64_t ingest = HistogramCount("ckr.serve.build.ingest_seconds");
      const uint64_t finalize =
          HistogramCount("ckr.serve.build.finalize_seconds");
      const uint64_t stats = HistogramCount("ckr.serve.build.stats_seconds");
      ShardedIndexConfig config;
      config.num_shards = num_shards;
      config.build.store_text = false;
      config.build.build_block_index = true;
      config.stream.workers = workers;
      auto built_or =
          ShardedIndex::Build(*world_, Document::Kind::kWeb, kDocs, config);
      ASSERT_TRUE(built_or.ok()) << built_or.status().ToString();
      const ShardedIndex& built = built_or.value();
      EXPECT_EQ(HistogramCount("ckr.serve.build.ingest_seconds") - ingest,
                per_sample * num_shards);
      EXPECT_EQ(HistogramCount("ckr.serve.build.finalize_seconds") - finalize,
                per_sample * num_shards);
      EXPECT_EQ(HistogramCount("ckr.serve.build.stats_seconds") - stats,
                per_sample);

      ASSERT_EQ(built.NumShards(), num_shards);
      for (size_t s = 0; s < num_shards; ++s) {
        const InvertedIndex& got = built.shard(s);
        const InvertedIndex& want = oracle.shard(s);
        EXPECT_EQ(InvertedIndexLayoutPeer::FoldLayout(got),
                  InvertedIndexLayoutPeer::FoldLayout(want))
            << "shard " << s;
        EXPECT_EQ(got.NumTerms(), want.NumTerms()) << "shard " << s;
        ASSERT_EQ(got.NumDocs(), want.NumDocs()) << "shard " << s;
        uint64_t want_tokens = 0;
        for (uint32_t d = 0; d < want.NumDocs(); ++d) {
          ASSERT_EQ(got.ExternalDocId(d), want.ExternalDocId(d))
              << "shard " << s << " doc " << d;
          want_tokens += want.DocTokenIds(want.ExternalDocId(d)).size();
        }
        EXPECT_EQ(got.LocalCollectionStats().total_tokens, want_tokens)
            << "shard " << s;
        EXPECT_TRUE(got.has_block_index()) << "shard " << s;
      }
      for (const std::string& query : queries) {
        for (QueryEvaluator evaluator :
             {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore,
              QueryEvaluator::kBlockMaxWand}) {
          const auto want = oracle.Search(query, 10, Bm25Params{}, evaluator);
          const auto got = built.Search(query, 10, Bm25Params{}, evaluator);
          ASSERT_EQ(got.size(), want.size()) << query;
          for (size_t r = 0; r < want.size(); ++r) {
            ASSERT_EQ(got[r].doc, want[r].doc) << query << " rank " << r;
            ASSERT_EQ(std::bit_cast<uint64_t>(got[r].score),
                      std::bit_cast<uint64_t>(want[r].score))
                << query << " rank " << r;
          }
        }
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
