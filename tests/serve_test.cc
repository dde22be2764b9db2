// Unit tests for ckr_serve: the bounded request queue, the RCU snapshot
// registry (including the multi-threaded swap stress the tsan preset
// runs), the daemon's shed/deadline/serve paths on a fake clock, and the
// deterministic load generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/cpu_relax.h"
#include "common/rng.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "index/inverted_index.h"
#include "index/legacy_index.h"
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

/// Polls `pred` every millisecond; false if it still fails after about
/// 20 s (a hang, reported instead of blocking the suite).
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 20000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

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

/// MakeTestShardedIndex's corpus with the given index build options.
ShardedIndex MakeTestShardedIndex(const IndexBuildOptions& options) {
  std::vector<std::unique_ptr<InvertedIndex>> shards;
  for (const auto& docs : {std::vector<std::pair<DocId, const char*>>{
                               {0, "quick brown fox jumps over the lazy dog"},
                               {2, "the lazy dog sleeps in the quick sun"}},
                           std::vector<std::pair<DocId, const char*>>{
                               {1, "quick brown foxes are quick and brown"},
                               {3, "an unrelated document about turtles"}}}) {
    auto shard = std::make_unique<InvertedIndex>(options);
    for (const auto& [id, text] : docs) shard->Add(MakeDoc(id, text));
    shard->Finalize();
    shards.push_back(std::move(shard));
  }
  auto sharded = ShardedIndex::FromShards(std::move(shards));
  CKR_CHECK(sharded.ok());
  return std::move(sharded).value();
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

TEST(RequestQueueTest, PopReportsWhetherItSpunOrParked) {
  BoundedMpmcQueue<int> q(4);
  int v = 1;
  ASSERT_TRUE(q.TryPush(&v));
  int out = 0;
  PopWait waited = PopWait::kParked;
  ASSERT_TRUE(q.Pop(&out, nullptr, &waited));  // Waiting already.
  EXPECT_EQ(waited, PopWait::kSpun);

  PopWait consumer_waited = PopWait::kSpun;
  std::thread consumer([&] {
    int got = 0;
    EXPECT_TRUE(q.Pop(&got, nullptr, &consumer_waited));
    EXPECT_EQ(got, 2);
  });
  // With nothing to take, the consumer's spin runs out and it parks.
  EXPECT_TRUE(Eventually([&] { return q.ParkedConsumers() == 1; }));
  int v2 = 2;
  EXPECT_TRUE(q.TryPush(&v2));
  consumer.join();
  EXPECT_EQ(consumer_waited, PopWait::kParked);
  EXPECT_EQ(q.ParkedConsumers(), 0u);
}

/// Consumers that pop until the queue closes, each keeping what it got.
/// The destructor closes the queue and joins, so a failed assertion
/// cannot leave a thread running.
struct DrainingConsumers {
  DrainingConsumers(BoundedMpmcQueue<int>* queue, int n)
      : q(queue), popped(static_cast<size_t>(n)) {
    for (int c = 0; c < n; ++c) {
      threads.emplace_back([this, c] {
        int item = 0;
        while (q->Pop(&item)) popped[c].push_back(item);
      });
    }
  }
  ~DrainingConsumers() {
    q->Shutdown();
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
  DrainingConsumers(const DrainingConsumers&) = delete;
  DrainingConsumers& operator=(const DrainingConsumers&) = delete;

  /// Waits for the queue to close; returns every item popped, sorted.
  std::vector<int> JoinAll() {
    for (std::thread& t : threads) t.join();
    std::vector<int> all;
    for (const std::vector<int>& items : popped) {
      all.insert(all.end(), items.begin(), items.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  BoundedMpmcQueue<int>* const q;
  std::vector<std::vector<int>> popped;
  std::vector<std::thread> threads;  // Last: the threads use the above.
};

// Four producers push through a small queue (so they also hit "full" and
// retry) while three consumers pop: every item comes out exactly once,
// and each consumer sees each producer's items in push order (FIFO).
TEST(RequestQueueTest, FourProducersThreeConsumersPopEveryItemOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  BoundedMpmcQueue<int> q(16);
  DrainingConsumers consumers(&q, 3);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int item = p * kPerProducer + i;
        for (;;) {
          int attempt = item;
          if (q.TryPush(&attempt)) break;
          std::this_thread::yield();  // Full: shed, so try again.
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  q.Shutdown();

  std::vector<int> want(kProducers * kPerProducer);
  for (int i = 0; i < kProducers * kPerProducer; ++i) want[i] = i;
  EXPECT_EQ(consumers.JoinAll(), want);  // Each item exactly once.
  for (const std::vector<int>& items : consumers.popped) {
    std::vector<int> last(kProducers, -1);
    for (int item : items) {
      const int producer = item / kPerProducer;
      EXPECT_GT(item, last[producer]) << "out of push order";
      last[producer] = item;
    }
  }
}

TEST(RequestQueueTest, ShutdownWhileConsumersSpinDrainsThenCloses) {
  BoundedMpmcQueue<int> q(64);
  DrainingConsumers consumers(&q, 3);
  std::vector<int> want;
  for (int i = 0; i < 8; ++i) {
    int v = i;
    ASSERT_TRUE(q.TryPush(&v));
    want.push_back(i);
  }
  // Once the first items are taken the consumers are back in their spin
  // (for tens of microseconds); close the queue right behind a second
  // batch, inside that window.
  while (q.Size() != 0) CpuRelax();
  for (int i = 8; i < 12; ++i) {
    int v = i;
    ASSERT_TRUE(q.TryPush(&v));
    want.push_back(i);
  }
  q.Shutdown();
  EXPECT_EQ(consumers.JoinAll(), want);
  EXPECT_EQ(q.ParkedConsumers(), 0u);
}

TEST(RequestQueueTest, ShutdownWhileConsumersParkedDrainsThenCloses) {
  BoundedMpmcQueue<int> q(64);
  DrainingConsumers consumers(&q, 3);
  ASSERT_TRUE(Eventually([&] { return q.ParkedConsumers() == 3; }));
  std::vector<int> want;
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(q.TryPush(&v));
    want.push_back(i);
  }
  q.Shutdown();
  EXPECT_EQ(consumers.JoinAll(), want);
  EXPECT_EQ(q.ParkedConsumers(), 0u);
}

// One consumer echoes each item from `ping` to `pong`. The producer
// waits a swept number of CpuRelax() iterations, from none to twice the
// spin bound, before each push, so pushes land before, across and after
// the consumer's switch from spinning to parking. No round may hang.
TEST(RequestQueueTest, PingPongAcrossTheSpinToParkBoundary) {
  constexpr int kRounds = 20000;
  constexpr int kDelaySweep = 2 * BoundedMpmcQueue<int>::kPopSpins;
  BoundedMpmcQueue<int> ping(1);
  BoundedMpmcQueue<int> pong(1);
  int spun = 0;
  int parked = 0;
  std::thread echo([&] {
    int item = 0;
    PopWait waited = PopWait::kSpun;
    while (ping.Pop(&item, nullptr, &waited)) {
      (waited == PopWait::kParked ? parked : spun) += 1;
      EXPECT_TRUE(pong.TryPush(&item));
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    const int delay = static_cast<int>(
        (static_cast<int64_t>(round) * 97) % (kDelaySweep + 1));
    for (int i = 0; i < delay; ++i) CpuRelax();
    int item = round;
    int back = -1;
    if (!ping.TryPush(&item) || !pong.Pop(&back) || back != round) {
      ADD_FAILURE() << "round " << round << " echoed " << back;
      break;
    }
  }
  ping.Shutdown();
  echo.join();
  EXPECT_EQ(spun + parked, kRounds);
  // Both sides of the boundary were exercised.
  EXPECT_GT(spun, 0);
  EXPECT_GT(parked, 0);
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

// Each response names the evaluator that scored it: the snapshot's policy
// by default, and exhaustive when a pruned policy has no block index to
// run on and falls back. The results are the same on every path.
TEST(ServeDaemonTest, ResponseNamesTheEvaluatorThatScored) {
  struct Case {
    const char* name;
    bool build_block_index;
    QueryEvaluator policy;
    QueryEvaluator want;
  };
  const Case cases[] = {
      {"default policy", true, QueryEvaluator::kExhaustive,
       QueryEvaluator::kExhaustive},
      {"maxscore on a block index", true, QueryEvaluator::kMaxScore,
       QueryEvaluator::kMaxScore},
      {"maxscore fallback", false, QueryEvaluator::kMaxScore,
       QueryEvaluator::kExhaustive},
  };
  const ShardedIndex oracle = MakeTestShardedIndex();
  for (const Case& c : cases) {
    DaemonFixture fix;
    IndexBuildOptions options;
    options.build_block_index = c.build_block_index;
    auto snapshot =
        std::make_unique<ServingSnapshot>(MakeTestShardedIndex(options));
    snapshot->evaluator = c.policy;
    fix.daemon.Publish(std::move(snapshot));
    ASSERT_TRUE(fix.daemon.Start().ok());
    ServeRequest request;
    request.query = "quick brown";
    request.k = 4;
    const ServeResponse response =
        SubmitAndWait(fix.daemon, std::move(request));
    fix.daemon.Stop();
    EXPECT_EQ(response.outcome, ServeOutcome::kOk) << c.name;
    EXPECT_EQ(response.evaluator_used, c.want) << c.name;
    const auto expected = oracle.Search("quick brown", 4);
    ASSERT_EQ(response.results.size(), expected.size()) << c.name;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.results[i].doc, expected[i].doc) << c.name;
      EXPECT_EQ(response.results[i].score, expected[i].score) << c.name;
    }
  }
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

// The envelope stamps on a fake clock. FakeClock holds still, so every
// stamp of a request equals its admission time; SteppingClock moves one
// step per reading, so the stamps are the daemon's reads in order:
// admission, pickup, one deadline check per leg, scatter end, merge end,
// callback.
TEST(ServeDaemonTest, ResponseCarriesTheEnvelopeOnTheDaemonClock) {
  {
    FakeClock fake(5000);
    obs::MetricRegistry metrics;
    ServeDaemonConfig config;
    config.num_workers = 1;
    config.clock = &fake;
    config.metrics = &metrics;
    ServeDaemon daemon(config);
    daemon.Publish(MakeTestSnapshot());
    ASSERT_TRUE(daemon.Start().ok());
    ServeRequest request;
    request.query = "quick brown";
    const ServeResponse r = SubmitAndWait(daemon, std::move(request));
    daemon.Stop();
    EXPECT_EQ(r.outcome, ServeOutcome::kOk);
    EXPECT_EQ(r.pickup_nanos, 5000);
    EXPECT_EQ(r.scatter_end_nanos, 5000);
    EXPECT_EQ(r.merge_end_nanos, 5000);
    EXPECT_EQ(r.callback_nanos, 5000);
    EXPECT_EQ(r.queue_seconds, 0.0);
    EXPECT_EQ(r.total_seconds, 0.0);
  }
  constexpr int64_t kStep = 1000;
  SteppingClock clock(kStep);
  obs::MetricRegistry metrics;
  ServeDaemonConfig config;
  config.num_workers = 1;
  config.clock = &clock;
  config.metrics = &metrics;
  ServeDaemon daemon(config);
  daemon.Publish(MakeTestSnapshot());  // Two shards.
  ASSERT_TRUE(daemon.Start().ok());

  // Served, with a deadline far ahead: the two legs each read the clock.
  ServeRequest served;
  served.query = "quick brown";
  served.deadline_nanos = int64_t{1} << 50;
  const ServeResponse r = SubmitAndWait(daemon, std::move(served));
  const int64_t admit = 1 * kStep;
  EXPECT_EQ(r.outcome, ServeOutcome::kOk);
  EXPECT_EQ(r.pickup_nanos, 2 * kStep);
  EXPECT_EQ(r.scatter_end_nanos, 5 * kStep);
  EXPECT_EQ(r.merge_end_nanos, 6 * kStep);
  EXPECT_EQ(r.callback_nanos, 7 * kStep);
  EXPECT_LE(admit, r.pickup_nanos);
  EXPECT_LE(r.pickup_nanos, r.scatter_end_nanos);
  EXPECT_LE(r.scatter_end_nanos, r.merge_end_nanos);
  EXPECT_LE(r.merge_end_nanos, r.callback_nanos);
  EXPECT_EQ(r.queue_seconds,
            static_cast<double>(r.pickup_nanos - admit) / 1e9);
  EXPECT_EQ(r.total_seconds,
            static_cast<double>(r.callback_nanos - admit) / 1e9);

  // Shed at pickup: no scatter, so no scatter or merge stamps.
  ServeRequest late;
  late.query = "quick brown";
  late.deadline_nanos = 8 * kStep + 1;  // Admitted at 8, picked up at 9.
  const ServeResponse shed = SubmitAndWait(daemon, std::move(late));
  daemon.Stop();
  EXPECT_EQ(shed.outcome, ServeOutcome::kShedDeadline);
  EXPECT_EQ(shed.pickup_nanos, 9 * kStep);
  EXPECT_EQ(shed.scatter_end_nanos, 0);
  EXPECT_EQ(shed.merge_end_nanos, 0);
  EXPECT_EQ(shed.callback_nanos, 10 * kStep);
  EXPECT_EQ(shed.total_seconds,
            static_cast<double>(shed.callback_nanos - 8 * kStep) / 1e9);
}

// An idle daemon does not spin forever: once the spin bound runs out
// every worker parks, both at start and after serving.
TEST(ServeDaemonTest, IdleDaemonParksEveryWorker) {
  ServeDaemonConfig config;
  config.num_workers = 3;
  DaemonFixture fix(config);
  fix.daemon.Publish(MakeTestSnapshot());
  ASSERT_TRUE(fix.daemon.Start().ok());
  EXPECT_TRUE(Eventually([&] { return fix.daemon.ParkedWorkers() == 3; }));
  ServeRequest request;
  request.query = "quick";
  EXPECT_EQ(SubmitAndWait(fix.daemon, std::move(request)).outcome,
            ServeOutcome::kOk);
  EXPECT_TRUE(Eventually([&] { return fix.daemon.ParkedWorkers() == 3; }));
  fix.daemon.Stop();
  EXPECT_EQ(fix.daemon.ParkedWorkers(), 0u);
  // The one request was taken by a worker woken from its park.
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.pop_parks")->Value(), 1u);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.pop_spin_hits")->Value(), 0u);
}

// Each popped request counts once: a parked worker woken for it, or one
// that found it without parking (here, a backlog).
TEST(ServeDaemonTest, PopOutcomesAreCountedPerRequest) {
  ServeDaemonConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  DaemonFixture fix(config);
  fix.daemon.Publish(MakeTestSnapshot());
  ASSERT_TRUE(fix.daemon.Start().ok());
  ASSERT_TRUE(Eventually([&] { return fix.daemon.ParkedWorkers() == 1; }));

  std::promise<void> worker_busy;
  std::promise<void> release_worker;
  std::future<void> release = release_worker.get_future();
  ServeRequest blocker;
  blocker.query = "quick";
  blocker.done = [&](ServeResponse&&) {
    worker_busy.set_value();
    release.wait();
  };
  ASSERT_TRUE(fix.daemon.Submit(std::move(blocker)));
  worker_busy.get_future().wait();
  std::atomic<int> answered{0};
  for (int i = 0; i < 3; ++i) {
    ServeRequest request;
    request.query = "quick";
    request.done = [&](ServeResponse&&) {
      answered.fetch_add(1, std::memory_order_relaxed);
    };
    ASSERT_TRUE(fix.daemon.Submit(std::move(request)));
  }
  release_worker.set_value();
  fix.daemon.Stop();
  EXPECT_EQ(answered.load(), 3);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.pop_parks")->Value(), 1u);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.pop_spin_hits")->Value(), 3u);
}

// Stop() lands while three clients are still submitting: every Submit
// gets exactly one callback, admitted plus shed equals submitted, and
// every admitted request is served by the drain.
TEST(ServeDaemonTest, StopRacingSubmitAnswersEverySubmission) {
  constexpr int kClients = 3;
  constexpr int kPerClient = 2000;
  ServeDaemonConfig config;
  config.num_workers = 2;
  config.queue_capacity = 64;
  DaemonFixture fix(config);
  fix.daemon.Publish(MakeTestSnapshot());
  ASSERT_TRUE(fix.daemon.Start().ok());

  std::atomic<int> submitted{0};
  std::atomic<int> admitted{0};
  std::atomic<int> shed{0};
  std::atomic<int> callbacks{0};
  std::atomic<int> served{0};
  std::atomic<int> shed_outcomes{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        ServeRequest request;
        request.query = "quick brown";
        request.done = [&](ServeResponse&& r) {
          callbacks.fetch_add(1, std::memory_order_relaxed);
          if (r.outcome == ServeOutcome::kOk) {
            served.fetch_add(1, std::memory_order_relaxed);
          } else if (r.outcome == ServeOutcome::kShedQueueFull ||
                     r.outcome == ServeOutcome::kNotStarted) {
            shed_outcomes.fetch_add(1, std::memory_order_relaxed);
          }
        };
        (fix.daemon.Submit(std::move(request)) ? admitted : shed)
            .fetch_add(1, std::memory_order_relaxed);
        submitted.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // Stop once a quarter of the submissions are in.
  while (submitted.load(std::memory_order_acquire) <
         kClients * kPerClient / 4) {
    std::this_thread::yield();
  }
  fix.daemon.Stop();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(callbacks.load(), kClients * kPerClient);
  EXPECT_EQ(admitted.load() + shed.load(), kClients * kPerClient);
  EXPECT_EQ(served.load(), admitted.load());
  EXPECT_EQ(shed_outcomes.load(), shed.load());
  EXPECT_GT(admitted.load(), 0);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.admitted")->Value(),
            static_cast<uint64_t>(admitted.load()));
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.completed")->Value(),
            static_cast<uint64_t>(admitted.load()));
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.pop_spin_hits")->Value() +
                fix.metrics.GetCounter("ckr.serve.pop_parks")->Value(),
            static_cast<uint64_t>(admitted.load()));
}

// Two workers score legs at once, each through its own thread-local
// search scratch, over shards of different sizes (one empty), while two
// clients keep both busy. Every answer must be bit-identical to the
// legacy index over the union. Under the tsan preset this also runs with
// the lock-order registry armed.
TEST(ServeDaemonTest, ConcurrentWorkersAnswerBitIdenticallyToTheOracle) {
  Rng rng(77);
  std::vector<std::unique_ptr<InvertedIndex>> shards;
  LegacyInvertedIndex oracle;
  DocId next_id = 0;
  for (size_t size : {120u, 0u, 700u, 30u}) {
    auto shard = std::make_unique<InvertedIndex>();
    for (size_t d = 0; d < size; ++d) {
      std::string text;
      const size_t len = 1 + rng.NextBounded(25);
      for (size_t i = 0; i < len; ++i) {
        text.append("w")
            .append(std::to_string(rng.NextBounded(2) == 0
                                       ? rng.NextBounded(5)
                                       : rng.NextBounded(150)))
            .append(" ");
      }
      Document doc = MakeDoc(next_id++, std::move(text));
      oracle.Add(doc);
      shard->Add(doc);
    }
    shard->Finalize();
    shards.push_back(std::move(shard));
  }
  oracle.Finalize();
  auto sharded = ShardedIndex::FromShards(std::move(shards));
  ASSERT_TRUE(sharded.ok());

  constexpr size_t kQueries = 120;
  std::vector<std::string> queries;
  std::vector<std::vector<SearchResult>> expected;
  for (size_t q = 0; q < kQueries; ++q) {
    std::string query;
    const size_t terms = rng.NextBounded(4);  // Includes empty queries.
    for (size_t t = 0; t < terms; ++t) {
      query.append("w")
          .append(std::to_string(rng.NextBounded(160)))
          .append(" ");
    }
    expected.push_back(oracle.Search(query, 10));
    queries.push_back(std::move(query));
  }

  ServeDaemonConfig config;
  config.num_workers = 2;
  DaemonFixture fix(config);
  fix.daemon.Publish(
      std::make_unique<ServingSnapshot>(std::move(sharded).value()));
  ASSERT_TRUE(fix.daemon.Start().ok());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < 4 * kQueries; i += 2) {
        ServeRequest request;
        request.query = queries[i % kQueries];
        request.k = 10;
        const ServeResponse response =
            SubmitAndWait(fix.daemon, std::move(request));
        const std::vector<SearchResult>& want = expected[i % kQueries];
        bool same = response.outcome == ServeOutcome::kOk &&
                    response.results.size() == want.size();
        for (size_t r = 0; same && r < want.size(); ++r) {
          same = response.results[r].doc == want[r].doc &&
                 std::bit_cast<uint64_t>(response.results[r].score) ==
                     std::bit_cast<uint64_t>(want[r].score);
        }
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  fix.daemon.Stop();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(fix.metrics.GetCounter("ckr.serve.completed")->Value(),
            4 * kQueries);
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
