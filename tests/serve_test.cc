// Unit tests for ckr_serve: the bounded request queue, the RCU snapshot
// registry (including the multi-threaded swap stress the tsan preset
// runs), the daemon's shed/deadline/serve paths on a fake clock, and the
// deterministic load generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "index/inverted_index.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/load_gen.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"

namespace ckr {
namespace {

// ---------- Test clocks ----------
//
// FakeClock is thread-compatible only; the daemon reads the clock from
// worker threads while tests advance it, so these tests use their own
// atomic clocks.

/// Fixed-point clock safe to read from daemon workers while the test
/// thread moves it.
class AtomicTestClock final : public Clock {
 public:
  explicit AtomicTestClock(int64_t start_nanos = 0) : now_(start_nanos) {}
  int64_t NowNanos() const override {
    return now_.load(std::memory_order_acquire);
  }
  void Set(int64_t nanos) { now_.store(nanos, std::memory_order_release); }

 private:
  std::atomic<int64_t> now_;
};

/// Advances by `step` nanoseconds per reading — lets a single-threaded
/// deadline scatter expire between shard legs.
class SteppingClock final : public Clock {
 public:
  explicit SteppingClock(int64_t step) : step_(step) {}
  int64_t NowNanos() const override {
    return now_.fetch_add(step_, std::memory_order_acq_rel) + step_;
  }

 private:
  const int64_t step_;
  mutable std::atomic<int64_t> now_{0};
};

Document MakeDoc(DocId id, std::string text) {
  Document d;
  d.id = id;
  d.text = std::move(text);
  return d;
}

/// A tiny two-shard index over a fixed corpus (external ids interleave
/// across shards so merge order differs from shard order).
ShardedIndex MakeTestShardedIndex() {
  auto shard0 = std::make_unique<InvertedIndex>();
  shard0->Add(MakeDoc(0, "quick brown fox jumps over the lazy dog"));
  shard0->Add(MakeDoc(2, "the lazy dog sleeps in the quick sun"));
  shard0->Finalize();
  auto shard1 = std::make_unique<InvertedIndex>();
  shard1->Add(MakeDoc(1, "quick brown foxes are quick and brown"));
  shard1->Add(MakeDoc(3, "an unrelated document about turtles"));
  shard1->Finalize();
  std::vector<std::unique_ptr<InvertedIndex>> shards;
  shards.push_back(std::move(shard0));
  shards.push_back(std::move(shard1));
  auto sharded = ShardedIndex::FromShards(std::move(shards));
  CKR_CHECK(sharded.ok());
  return std::move(sharded).value();
}

std::unique_ptr<ServingSnapshot> MakeTestSnapshot() {
  return std::make_unique<ServingSnapshot>(MakeTestShardedIndex());
}

// ---------- BoundedMpmcQueue ----------

TEST(RequestQueueTest, FifoPushPop) {
  BoundedMpmcQueue<int> q(4);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_TRUE(q.TryPush(&v));
  }
  EXPECT_EQ(q.Size(), 3u);
  int out = -1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(q.Size(), 0u);
}

TEST(RequestQueueTest, ShedsAtCapacityAndLeavesItemIntact) {
  BoundedMpmcQueue<std::string> q(1);
  std::string first = "first";
  ASSERT_TRUE(q.TryPush(&first));
  std::string second = "second";
  EXPECT_FALSE(q.TryPush(&second));
  // The rejected item still owns its payload: the caller answers it.
  EXPECT_EQ(second, "second");
}

TEST(RequestQueueTest, ShutdownDrainsBacklogThenCloses) {
  BoundedMpmcQueue<int> q(4);
  int v1 = 1, v2 = 2;
  ASSERT_TRUE(q.TryPush(&v1));
  ASSERT_TRUE(q.TryPush(&v2));
  q.Shutdown();
  int rejected = 3;
  EXPECT_FALSE(q.TryPush(&rejected));  // Admission closed immediately.
  int out = 0;
  ASSERT_TRUE(q.Pop(&out));  // ... but the backlog still drains.
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.Pop(&out));  // Drained + shut down -> closed.
}

TEST(RequestQueueTest, ShutdownWakesBlockedConsumer) {
  BoundedMpmcQueue<int> q(4);
  std::thread consumer([&q] {
    int out = 0;
    EXPECT_FALSE(q.Pop(&out));
  });
  q.Shutdown();
  consumer.join();
}

// ---------- ShardRangeOf / MergeShardTopK ----------

TEST(ShardRangeTest, PartitionsCoverDisjointNearEqualRanges) {
  for (size_t num_shards : {1u, 2u, 3u, 4u, 8u}) {
    for (uint64_t num_docs : {0ull, 1ull, 7ull, 8ull, 1000003ull}) {
      uint64_t cursor = 0;
      uint64_t min_size = num_docs, max_size = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        const ShardRange r = ShardRangeOf(s, num_shards, num_docs);
        EXPECT_EQ(r.begin, cursor);  // Contiguous, in order, disjoint.
        cursor = r.end;
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
      }
      EXPECT_EQ(cursor, num_docs);  // Covers everything.
      EXPECT_LE(max_size - min_size, 1u);  // Near-equal split.
    }
  }
}

TEST(MergeShardTopKTest, MergesByScoreThenExternalId) {
  std::vector<std::vector<SearchResult>> per_shard = {
      {{10, 3.0}, {12, 1.0}},
      {},  // Empty shard contributes nothing and breaks nothing.
      {{11, 3.0}, {5, 2.0}},
  };
  const auto merged = MergeShardTopK(per_shard, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].doc, 10u);  // Tie at 3.0 broken by ascending id.
  EXPECT_EQ(merged[1].doc, 11u);
  EXPECT_EQ(merged[2].doc, 5u);
}

TEST(MergeShardTopKTest, TruncatesBelowCrossShardTieWidth) {
  // Four docs tied across shards; k=2 must keep the two smallest ids.
  std::vector<std::vector<SearchResult>> per_shard = {
      {{7, 1.0}, {9, 1.0}},
      {{2, 1.0}, {8, 1.0}},
  };
  const auto merged = MergeShardTopK(per_shard, 2);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].doc, 2u);
  EXPECT_EQ(merged[1].doc, 7u);
}

// ---------- Deadline-bounded scatter ----------

TEST(ShardedIndexTest, TimedOutShardIsFlaggedNotDropped) {
  const ShardedIndex sharded = MakeTestShardedIndex();
  // 10ns per clock reading; the deadline admits the first shard's leg
  // (reading 10 <= 15) and rejects the second (reading 20 > 15).
  SteppingClock clock(10);
  const auto partial = sharded.SearchWithDeadline(
      "quick", 10, QueryEvaluator::kExhaustive, clock, /*deadline_nanos=*/15);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.shards_answered, 1u);
  // Shard 0's hits survive: partial results are served, not discarded.
  ASSERT_FALSE(partial.results.empty());
  for (const auto& r : partial.results) EXPECT_TRUE(r.doc == 0 || r.doc == 2);
}

TEST(ShardedIndexTest, ZeroDeadlineMeansNone) {
  const ShardedIndex sharded = MakeTestShardedIndex();
  SteppingClock clock(1000000);
  const auto full = sharded.SearchWithDeadline(
      "quick", 10, QueryEvaluator::kExhaustive, clock, /*deadline_nanos=*/0);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.shards_answered, sharded.NumShards());
  EXPECT_EQ(full.results.size(), sharded.Search("quick", 10).size());
}

// ---------- SnapshotRegistry ----------

TEST(SnapshotRegistryTest, EmptyRegistryHandsOutNullHandles) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.CurrentGeneration(), 0u);
  EXPECT_EQ(registry.LiveGenerations(), 0);
  SnapshotHandle handle = registry.Acquire();
  EXPECT_FALSE(handle);
  EXPECT_EQ(handle.get(), nullptr);
}

TEST(SnapshotRegistryTest, PublishStampsGenerationsAndRetires) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Publish(MakeTestSnapshot()), 1u);
  EXPECT_EQ(registry.CurrentGeneration(), 1u);
  EXPECT_EQ(registry.LiveGenerations(), 1);
  {
    SnapshotHandle pinned = registry.Acquire();
    ASSERT_TRUE(pinned);
    EXPECT_EQ(pinned->generation, 1u);
    EXPECT_EQ(registry.Publish(MakeTestSnapshot()), 2u);
    // The retired generation stays alive while the handle pins it.
    EXPECT_EQ(registry.LiveGenerations(), 2);
    EXPECT_EQ(pinned->generation, 1u);  // Handle still sees its own gen.
    EXPECT_EQ(registry.CurrentGeneration(), 2u);
  }
  // Last handle released -> the retired generation dies.
  EXPECT_EQ(registry.LiveGenerations(), 1);
}

TEST(SnapshotRegistryTest, HandleOutlivesRegistry) {
  SnapshotHandle survivor;
  {
    SnapshotRegistry registry;
    registry.Publish(MakeTestSnapshot());
    survivor = registry.Acquire();
  }
  ASSERT_TRUE(survivor);
  EXPECT_EQ(survivor->generation, 1u);
  EXPECT_FALSE(survivor->index.Search("quick", 4).empty());
  survivor.Reset();  // Last reference frees the node.
  EXPECT_FALSE(survivor);
}

TEST(SnapshotRegistryTest, SwapUnderConcurrentReaders) {
  // The tsan target: readers acquire/score/release while a publisher
  // swaps generations. Exactness of reclamation is asserted at the end.
  SnapshotRegistry registry;
  registry.Publish(MakeTestSnapshot());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotHandle handle = registry.Acquire();
        ASSERT_TRUE(handle);
        ASSERT_GE(handle->generation, 1u);
        ASSERT_FALSE(handle->index.Search("quick brown", 4).empty());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int g = 0; g < 50; ++g) registry.Publish(MakeTestSnapshot());
  while (reads.load(std::memory_order_relaxed) < 200) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(registry.CurrentGeneration(), 51u);
  // Every retired generation was reclaimed once its readers drained.
  EXPECT_EQ(registry.LiveGenerations(), 1);
}

// ---------- ServeDaemon ----------

struct DaemonFixture {
  AtomicTestClock clock;
  obs::MetricRegistry metrics;
  ServeDaemon daemon;

  explicit DaemonFixture(ServeDaemonConfig base = {})
      : daemon([&]() {
          base.clock = &clock;
          base.metrics = &metrics;
          return base;
        }()) {}
};

ServeResponse SubmitAndWait(ServeDaemon& daemon, ServeRequest&& request) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  request.done = [&promise](ServeResponse&& response) {
    promise.set_value(std::move(response));
  };
  (void)daemon.Submit(std::move(request));
  return future.get();
}

TEST(ServeDaemonTest, SubmitBeforeStartAnswersSynchronously) {
  DaemonFixture fix;
  ServeRequest request;
  request.id = 7;
  request.query = "quick";
  const ServeResponse response = SubmitAndWait(fix.daemon, std::move(request));
  EXPECT_EQ(response.outcome, ServeOutcome::kNotStarted);
  EXPECT_EQ(response.id, 7u);
}

TEST(ServeDaemonTest, NoSnapshotOutcomeBeforeFirstPublish) {
  DaemonFixture fix;
  ASSERT_TRUE(fix.daemon.Start().ok());
  ServeRequest request;
  request.query = "quick";
  const ServeResponse response = SubmitAndWait(fix.daemon, std::move(request));
  EXPECT_EQ(response.outcome, ServeOutcome::kNoSnapshot);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.no_snapshot")->Value(), 1u);
  fix.daemon.Stop();
}

TEST(ServeDaemonTest, ServesScatterGatherIdenticalToDirectSearch) {
  DaemonFixture fix;
  fix.daemon.Publish(MakeTestSnapshot());
  ASSERT_TRUE(fix.daemon.Start().ok());
  EXPECT_FALSE(fix.daemon.Start().ok());  // Double start refused.

  const ShardedIndex oracle = MakeTestShardedIndex();
  for (const char* query : {"quick brown", "lazy dog", "turtles", "absent"}) {
    ServeRequest request;
    request.query = query;
    request.k = 4;
    const ServeResponse response =
        SubmitAndWait(fix.daemon, std::move(request));
    EXPECT_EQ(response.outcome, ServeOutcome::kOk) << query;
    EXPECT_EQ(response.generation, 1u);
    EXPECT_EQ(response.shards_answered, 2u);
    const auto expected = oracle.Search(query, 4);
    ASSERT_EQ(response.results.size(), expected.size()) << query;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.results[i].doc, expected[i].doc) << query;
      EXPECT_EQ(response.results[i].score, expected[i].score) << query;
    }
  }
  fix.daemon.Stop();
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.completed")->Value(), 4u);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.admitted")->Value(), 4u);
  EXPECT_EQ(fix.metrics.GetHistogram("ckr.serve.latency_seconds")->Count(),
            4u);
}

TEST(ServeDaemonTest, ExpiredDeadlineIsShedWithoutTouchingTheIndex) {
  DaemonFixture fix;
  fix.daemon.Publish(MakeTestSnapshot());
  fix.clock.Set(1000);
  ASSERT_TRUE(fix.daemon.Start().ok());
  ServeRequest request;
  request.query = "quick";
  request.deadline_nanos = 500;  // Already past at admission.
  const ServeResponse response = SubmitAndWait(fix.daemon, std::move(request));
  EXPECT_EQ(response.outcome, ServeOutcome::kShedDeadline);
  EXPECT_TRUE(response.results.empty());
  fix.daemon.Stop();
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.shed_deadline")->Value(), 1u);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.completed")->Value(), 0u);
}

TEST(ServeDaemonTest, LatencyHistogramCountsServedAnswersOnly) {
  // Worker-side rejections answer in microseconds; recording them beside
  // served answers would drag the served percentiles down. They go to
  // their own histogram instead.
  DaemonFixture fix;
  fix.clock.Set(1000);
  ASSERT_TRUE(fix.daemon.Start().ok());
  ServeRequest before_publish;
  before_publish.query = "quick";
  EXPECT_EQ(SubmitAndWait(fix.daemon, std::move(before_publish)).outcome,
            ServeOutcome::kNoSnapshot);
  fix.daemon.Publish(MakeTestSnapshot());
  ServeRequest expired;
  expired.query = "quick";
  expired.deadline_nanos = 500;  // Already past at admission.
  EXPECT_EQ(SubmitAndWait(fix.daemon, std::move(expired)).outcome,
            ServeOutcome::kShedDeadline);
  ServeRequest served;
  served.query = "quick";
  EXPECT_EQ(SubmitAndWait(fix.daemon, std::move(served)).outcome,
            ServeOutcome::kOk);
  fix.daemon.Stop();
  EXPECT_EQ(fix.metrics.GetHistogram("ckr.serve.latency_seconds")->Count(),
            1u);
  EXPECT_EQ(
      fix.metrics.GetHistogram("ckr.serve.rejected_latency_seconds")->Count(),
      2u);
}

TEST(ServeDaemonTest, QueueFullShedsAtAdmission) {
  ServeDaemonConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  DaemonFixture fix(config);
  fix.daemon.Publish(MakeTestSnapshot());
  ASSERT_TRUE(fix.daemon.Start().ok());

  // Park the single worker inside a completion callback so the queue
  // cannot drain while we overfill it.
  std::promise<void> worker_parked;
  std::promise<void> release_worker;
  std::future<void> release = release_worker.get_future();
  ServeRequest blocker;
  blocker.query = "quick";
  blocker.done = [&](ServeResponse&&) {
    worker_parked.set_value();
    release.wait();
  };
  ASSERT_TRUE(fix.daemon.Submit(std::move(blocker)));
  worker_parked.get_future().wait();

  ServeRequest queued;  // Fills the single queue slot.
  queued.query = "quick";
  std::promise<void> queued_done;
  queued.done = [&](ServeResponse&&) { queued_done.set_value(); };
  ASSERT_TRUE(fix.daemon.Submit(std::move(queued)));

  ServeRequest shed;  // No room: shed synchronously, callback intact.
  shed.id = 99;
  shed.query = "quick";
  ServeResponse shed_response;
  shed.done = [&](ServeResponse&& r) { shed_response = std::move(r); };
  EXPECT_FALSE(fix.daemon.Submit(std::move(shed)));
  EXPECT_EQ(shed_response.outcome, ServeOutcome::kShedQueueFull);
  EXPECT_EQ(shed_response.id, 99u);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.shed_queue_full")->Value(), 1u);

  release_worker.set_value();
  queued_done.get_future().wait();  // Graceful drain of the queued one.
  fix.daemon.Stop();
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.completed")->Value(), 2u);
}

TEST(ServeDaemonTest, QueueDepthGaugeFallsAsWorkersDrain) {
  ServeDaemonConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  DaemonFixture fix(config);
  fix.daemon.Publish(MakeTestSnapshot());
  ASSERT_TRUE(fix.daemon.Start().ok());
  const obs::Gauge* depth = fix.metrics.GetGauge("ckr.serve.queue_depth");

  // Park the single worker so the queue fills to capacity.
  std::promise<void> worker_parked;
  std::promise<void> release_worker;
  std::future<void> release = release_worker.get_future();
  ServeRequest blocker;
  blocker.query = "quick";
  blocker.done = [&](ServeResponse&&) {
    worker_parked.set_value();
    release.wait();
  };
  ASSERT_TRUE(fix.daemon.Submit(std::move(blocker)));
  worker_parked.get_future().wait();
  for (size_t i = 0; i < config.queue_capacity; ++i) {
    ServeRequest request;
    request.query = "quick";
    ASSERT_TRUE(fix.daemon.Submit(std::move(request)));
  }
  EXPECT_EQ(depth->Value(), static_cast<double>(config.queue_capacity));

  // One worker drains the backlog; the gauge must follow it down.
  release_worker.set_value();
  fix.daemon.Stop();
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.completed")->Value(),
            config.queue_capacity + 1);
  EXPECT_EQ(depth->Value(), 0.0);
}

TEST(ServeDaemonTest, HotSwapChangesGenerationMidStream) {
  DaemonFixture fix;
  fix.daemon.Publish(MakeTestSnapshot());
  ASSERT_TRUE(fix.daemon.Start().ok());
  ServeRequest before;
  before.query = "quick";
  EXPECT_EQ(SubmitAndWait(fix.daemon, std::move(before)).generation, 1u);
  EXPECT_EQ(fix.daemon.Publish(MakeTestSnapshot()), 2u);
  ServeRequest after;
  after.query = "quick";
  EXPECT_EQ(SubmitAndWait(fix.daemon, std::move(after)).generation, 2u);
  fix.daemon.Stop();
  EXPECT_EQ(fix.daemon.LiveGenerations(), 1);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.snapshot_swaps")->Value(), 1u);
}

TEST(ServeDaemonTest, StopDrainsEveryAdmittedRequest) {
  ServeDaemonConfig config;
  config.num_workers = 2;
  DaemonFixture fix(config);
  fix.daemon.Publish(MakeTestSnapshot());
  ASSERT_TRUE(fix.daemon.Start().ok());
  std::atomic<int> answered{0};
  int admitted = 0;
  for (int i = 0; i < 64; ++i) {
    ServeRequest request;
    request.query = "quick brown";
    request.done = [&](ServeResponse&& r) {
      EXPECT_EQ(r.outcome, ServeOutcome::kOk);
      answered.fetch_add(1, std::memory_order_relaxed);
    };
    if (fix.daemon.Submit(std::move(request))) ++admitted;
  }
  fix.daemon.Stop();  // Graceful: every admitted request is answered.
  EXPECT_EQ(answered.load(), admitted);
  EXPECT_EQ(admitted, 64);
}

// ---------- LoadGenerator ----------

TEST(LoadGenTest, ConfigValidation) {
  LoadGenConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_users = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.hot_entity_prob = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.hot_entity_prob = 0.5;
  config.hot_set_size = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.burst_period = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.top_k = 0;
  EXPECT_FALSE(config.Validate().ok());
}

class LoadGenWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig cfg;
    cfg.num_topics = 4;
    cfg.background_vocab = 400;
    cfg.words_per_topic = 30;
    cfg.num_named_entities = 80;
    cfg.num_concepts = 50;
    cfg.num_generic_concepts = 8;
    cfg.num_web_docs = 50;
    world_ = World::Create(cfg)->release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* LoadGenWorldTest::world_ = nullptr;

TEST_F(LoadGenWorldTest, RequestIsAPureFunctionOfSeedAndIndex) {
  LoadGenConfig config;
  config.num_users = 1000;
  const LoadGenerator a(*world_, config);
  const LoadGenerator b(*world_, config);
  for (uint64_t i = 0; i < 200; ++i) {
    // Draw out of order on one instance: index fully determines the draw.
    const LoadRequest ra = a.Request(199 - i);
    const LoadRequest rb = b.Request(199 - i);
    EXPECT_EQ(ra.index, 199 - i);
    EXPECT_EQ(ra.user, rb.user);
    EXPECT_EQ(ra.entity, rb.entity);
    EXPECT_EQ(ra.query, rb.query);
    EXPECT_EQ(ra.hot, rb.hot);
    EXPECT_EQ(ra.query, world_->entity(ra.entity).key);
    EXPECT_LT(ra.user, config.num_users);
  }
}

TEST_F(LoadGenWorldTest, DifferentSeedsDiverge) {
  LoadGenConfig config_a;
  config_a.num_users = 1000;
  LoadGenConfig config_b = config_a;
  config_b.seed = config_a.seed + 1;
  const LoadGenerator a(*world_, config_a);
  const LoadGenerator b(*world_, config_b);
  size_t differing = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    if (a.Request(i).entity != b.Request(i).entity) ++differing;
  }
  EXPECT_GT(differing, 20u);
}

TEST_F(LoadGenWorldTest, HotSetRotatesPerEpochAndIsSharedWithinIt) {
  LoadGenConfig config;
  config.num_users = 1000;
  config.hot_entity_prob = 1.0;  // Every request hits the hot set.
  config.hot_set_size = 4;
  config.burst_period = 64;
  const LoadGenerator gen(*world_, config);
  // Within one epoch, every hot draw lands on one of the 4 members.
  std::set<EntityId> members;
  for (size_t m = 0; m < config.hot_set_size; ++m) {
    members.insert(gen.HotEntity(0, m));
  }
  for (uint64_t i = 0; i < 64; ++i) {
    const LoadRequest r = gen.Request(i);
    EXPECT_TRUE(r.hot);
    EXPECT_TRUE(members.count(r.entity) > 0) << "request " << i;
  }
  // Across many epochs the hot set must actually rotate.
  std::set<EntityId> all_members;
  for (uint64_t epoch = 0; epoch < 16; ++epoch) {
    for (size_t m = 0; m < config.hot_set_size; ++m) {
      all_members.insert(gen.HotEntity(epoch, m));
    }
  }
  EXPECT_GT(all_members.size(), config.hot_set_size);
}

TEST_F(LoadGenWorldTest, HotFractionTracksConfiguredProbability) {
  LoadGenConfig config;
  config.num_users = 1000;
  config.hot_entity_prob = 0.25;
  const LoadGenerator gen(*world_, config);
  size_t hot = 0;
  const uint64_t n = 4000;
  for (uint64_t i = 0; i < n; ++i) {
    if (gen.Request(i).hot) ++hot;
  }
  const double fraction = static_cast<double>(hot) / static_cast<double>(n);
  EXPECT_GT(fraction, 0.20);
  EXPECT_LT(fraction, 0.30);
}

TEST_F(LoadGenWorldTest, ArrivalScheduleIsMonotoneDeterministicAndOnRate) {
  LoadGenConfig config;
  config.num_users = 1000;
  const LoadGenerator gen(*world_, config);
  const auto arrivals = gen.ArrivalNanos(5000, /*offered_qps=*/1000.0);
  ASSERT_EQ(arrivals.size(), 5000u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], arrivals[i - 1]);
  }
  EXPECT_EQ(arrivals, gen.ArrivalNanos(5000, 1000.0));  // Replays exactly.
  // 5000 arrivals at 1000 qps should span ~5 seconds.
  const double span_seconds = static_cast<double>(arrivals.back()) / 1e9;
  EXPECT_GT(span_seconds, 4.0);
  EXPECT_LT(span_seconds, 6.0);
}

}  // namespace
}  // namespace ckr
