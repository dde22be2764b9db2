// Allocation budgets of the two serving paths and of the index build's
// Finalize. This binary replaces the global operator new with a counting
// one, so it stands alone: every heap allocation the process makes is
// counted, on any thread. Each serving test warms its path first
// (thread-local scratch sized, metric hooks resolved), then pins what one
// more call may allocate:
//  * an exhaustive InvertedIndex leg: its top-k heap, which becomes the
//    result vector, and nothing else; a count: nothing at all;
//  * a MaxScore leg: its cursors, its per-term contribution slots and its
//    result;
//  * a ServeDaemon search request, submit to callback: a stated constant;
//  * RuntimeRanker::ProcessDocument: the annotations it returns plus a
//    small constant;
//  * InvertedIndex::Finalize: a constant, the same for ten times the
//    posting slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/contextual_ranker.h"
#include "corpus/corpus_stream.h"
#include "corpus/doc_generator.h"
#include "corpus/world.h"
#include "index/inverted_index.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

// Out of line: inlined into a delete expression, a bare free() reads to
// the compiler as releasing operator new's memory with the wrong function.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

}  // namespace

// Every replaceable form, so no allocation bypasses the count and every
// pointer is released by the allocator that made it.
void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}

namespace ckr {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Per-request allocations of a warm daemon search, submit to callback:
/// the parsed query, one top-k heap per shard leg and the merged list
/// (the per-shard result slots are thread-local scratch). Measured at
/// 6.06 mean and 7 max over this test's queries; with the slots
/// allocated per request the same requests made 8.1 mean and 9 max, and
/// before the legs shared one parse and a reused accumulator, 61.4 mean
/// and 96 max.
constexpr uint64_t kDaemonRequestBudget = 8;

/// Allocations of a warm MaxScore leg: the evaluator's cursor vector, its
/// per-term contribution slots and the top-k heap that becomes the result,
/// reserved once for the postings its lists hold. The term ids it
/// resolves live in the thread's search scratch. Measured at 2.80 mean and
/// 3 max over this test's queries.
constexpr uint64_t kMaxScoreLegBudget = 3;

/// Allocations a warm ProcessDocument may make beyond one per returned
/// annotation: chiefly the output vector's growth. Measured at 13.2
/// allocations for 8.0 annotations mean, and at most 8 beyond the
/// annotations, over this test's documents.
constexpr uint64_t kProcessDocumentOverhead = 10;

TEST(AllocBudgetTest, WarmExhaustiveLegAllocatesOnlyItsResult) {
  // A skewed vocabulary, so head terms have long postings and a query
  // touches many documents.
  Rng rng(7);
  InvertedIndex index;
  for (DocId d = 0; d < 600; ++d) {
    std::string text;
    const size_t len = 5 + rng.NextBounded(40);
    for (size_t i = 0; i < len; ++i) {
      const uint64_t u = rng.NextBounded(100);
      const uint64_t term = u < 50 ? rng.NextBounded(8) : rng.NextBounded(300);
      text.append("w").append(std::to_string(term)).append(" ");
    }
    Document doc;
    doc.id = d * 3 + 1;
    doc.text = std::move(text);
    index.Add(doc);
  }
  index.Finalize();

  std::vector<ParsedQuery> queries;
  for (int q = 0; q < 60; ++q) {
    std::string query;
    const size_t terms = 1 + rng.NextBounded(5);
    for (size_t t = 0; t < terms; ++t) {
      query.append("w")
          .append(std::to_string(rng.NextBounded(320)))
          .append(" ");
    }
    queries.emplace_back(query);
  }
  queries.emplace_back("");
  queries.emplace_back("unknown absent");
  const Bm25Params tuned{2.0, 0.4};
  for (const ParsedQuery& q : queries) {  // Warm-up.
    (void)index.Search(q, 10);
    (void)index.Search(q, 10, tuned);
  }

  for (const ParsedQuery& q : queries) {
    for (size_t k : {0u, 1u, 10u, 1000u}) {
      for (const Bm25Params& params : {Bm25Params{}, tuned}) {
        const uint64_t before = Allocations();
        const std::vector<SearchResult> results = index.Search(q, k, params);
        const uint64_t allocs = Allocations() - before;
        // One heap, reserved once, moved out as the result.
        EXPECT_EQ(allocs, results.empty() ? 0u : 1u)
            << "k=" << k << " results=" << results.size();
      }
    }
  }
}

TEST(AllocBudgetTest, WarmMaxScoreLegAllocatesCursorsSlotsAndResult) {
  Rng rng(9);
  InvertedIndex index;
  for (DocId d = 0; d < 600; ++d) {
    std::string text;
    const size_t len = 5 + rng.NextBounded(40);
    for (size_t i = 0; i < len; ++i) {
      const uint64_t u = rng.NextBounded(100);
      const uint64_t term = u < 50 ? rng.NextBounded(8) : rng.NextBounded(300);
      text.append("w").append(std::to_string(term)).append(" ");
    }
    Document doc;
    doc.id = d * 3 + 1;
    doc.text = std::move(text);
    index.Add(doc);
  }
  index.Finalize();
  ASSERT_TRUE(index.has_block_index());

  std::vector<ParsedQuery> queries;
  for (int q = 0; q < 60; ++q) {
    std::string query;
    const size_t terms = 1 + rng.NextBounded(5);
    for (size_t t = 0; t < terms; ++t) {
      query.append("w")
          .append(std::to_string(rng.NextBounded(320)))
          .append(" ");
    }
    queries.emplace_back(query);
  }
  queries.emplace_back("unknown absent");
  for (const ParsedQuery& q : queries) {  // Warm-up.
    (void)index.Search(q, 10, Bm25Params{}, QueryEvaluator::kMaxScore);
  }

  uint64_t total = 0;
  uint64_t worst = 0;
  uint64_t legs = 0;
  for (const ParsedQuery& q : queries) {
    for (size_t k : {1u, 10u, 1000u}) {
      const uint64_t before = Allocations();
      const std::vector<SearchResult> results =
          index.Search(q, k, Bm25Params{}, QueryEvaluator::kMaxScore);
      const uint64_t allocs = Allocations() - before;
      EXPECT_LE(allocs, kMaxScoreLegBudget) << "k=" << k;
      // No known term: no cursor, no slot, no result.
      if (results.empty()) {
        EXPECT_EQ(allocs, 0u) << "k=" << k;
      }
      total += allocs;
      worst = std::max(worst, allocs);
      ++legs;
    }
  }
  std::printf("MaxScore leg: %.2f allocations mean, %llu max\n",
              static_cast<double>(total) / static_cast<double>(legs),
              static_cast<unsigned long long>(worst));
}

/// Allocations of a Finalize() without the block index (the way
/// ShardedIndex::Build runs it, the block index coming after the stats
/// override): the postings and per-document columns, the per-term
/// scratch of its two passes, and the token streams' final trim — a
/// constant, not a count per posting slot. Measured at 10 on both indexes
/// below (6,105 and 62,016 slots).
constexpr uint64_t kFinalizeBudget = 12;

/// An index of `num_docs` seeded documents over a skewed vocabulary.
InvertedIndex SeededIndex(uint64_t seed, DocId num_docs) {
  Rng rng(seed);
  IndexBuildOptions options;
  options.build_block_index = false;
  InvertedIndex index(options);
  for (DocId d = 0; d < num_docs; ++d) {
    std::string text;
    const size_t len = 1 + rng.NextBounded(60);
    for (size_t i = 0; i < len; ++i) {
      const uint64_t u = rng.NextBounded(100);
      const uint64_t term = u < 50 ? rng.NextBounded(8) : rng.NextBounded(400);
      text.append("w").append(std::to_string(term)).append(" ");
    }
    Document doc;
    doc.id = d;
    doc.text = std::move(text);
    index.Add(doc);
  }
  return index;
}

/// Posting slots of a finalized index: one per (term, document) pair.
uint64_t PostingSlots(const InvertedIndex& index) {
  uint64_t slots = 0;
  for (std::string_view term : index.TermsById()) slots += index.DocFreq(term);
  return slots;
}

TEST(AllocBudgetTest, FinalizeAllocationsDoNotGrowWithSlots) {
  InvertedIndex small = SeededIndex(11, 300);
  InvertedIndex large = SeededIndex(12, 3000);
  uint64_t before = Allocations();
  small.Finalize();
  const uint64_t small_allocs = Allocations() - before;
  before = Allocations();
  large.Finalize();
  const uint64_t large_allocs = Allocations() - before;

  const uint64_t small_slots = PostingSlots(small);
  const uint64_t large_slots = PostingSlots(large);
  ASSERT_GT(large_slots, 8 * small_slots);
  EXPECT_LE(small_allocs, kFinalizeBudget);
  EXPECT_LE(large_allocs, kFinalizeBudget);
  EXPECT_LE(large_allocs, small_allocs + 2);
  std::printf("Finalize: %llu allocations for %llu slots, %llu for %llu\n",
              static_cast<unsigned long long>(small_allocs),
              static_cast<unsigned long long>(small_slots),
              static_cast<unsigned long long>(large_allocs),
              static_cast<unsigned long long>(large_slots));
}

/// A blocking client's wait slot: the daemon's callback fills it on a
/// worker thread. Nothing in it allocates once constructed.
struct Waiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  size_t results = 0;
  ServeOutcome outcome = ServeOutcome::kOk;
};

TEST(AllocBudgetTest, WarmDaemonRequestStaysWithinBudget) {
  constexpr uint64_t kDocs = 2000;
  constexpr uint64_t kSeed = 3;
  auto world_or = World::Create(ScaledWorldConfig(kDocs, kSeed));
  ASSERT_TRUE(world_or.ok()) << world_or.status().ToString();
  const std::unique_ptr<World> world = std::move(world_or).value();
  ShardedIndexConfig config;
  config.num_shards = 4;
  config.build.store_text = false;
  auto sharded = ShardedIndex::Build(*world, Document::Kind::kWeb, kDocs,
                                     config);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto snapshot = std::make_unique<ServingSnapshot>(std::move(sharded).value());
  ASSERT_EQ(ChooseEvaluator(snapshot->index.MaxShardDocs(), true),
            QueryEvaluator::kExhaustive);

  // Declared before the daemon, so it outlives every callback.
  Waiter w;
  obs::MetricRegistry metrics;
  ServeDaemonConfig daemon_config;
  daemon_config.num_workers = 1;
  daemon_config.metrics = &metrics;
  ServeDaemon daemon(daemon_config);
  daemon.Publish(std::move(snapshot));
  ASSERT_TRUE(daemon.Start().ok());

  LoadGenConfig load_config;
  load_config.seed = kSeed;
  const LoadGenerator gen(*world, load_config);
  constexpr int kRequests = 200;
  std::vector<ServeRequest> requests(2 * kRequests);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = i;
    requests[i].query = gen.Request(i % kRequests).query;
    requests[i].k = load_config.top_k;
    requests[i].done = [&w](ServeResponse&& response) {
      std::lock_guard<std::mutex> lock(w.mu);
      w.results = response.results.size();
      w.outcome = response.outcome;
      w.done = true;
      w.cv.notify_one();
    };
  }

  // The first pass over the queries warms the worker; the second counts.
  uint64_t total = 0;
  uint64_t worst = 0;
  size_t answered_with_results = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const uint64_t before = Allocations();
    ASSERT_TRUE(daemon.Submit(std::move(requests[i])));
    std::unique_lock<std::mutex> lock(w.mu);
    w.cv.wait(lock, [&w] { return w.done; });
    const uint64_t allocs = Allocations() - before;
    w.done = false;
    ASSERT_EQ(w.outcome, ServeOutcome::kOk);
    if (i < kRequests) continue;
    answered_with_results += w.results > 0 ? 1 : 0;
    total += allocs;
    worst = std::max(worst, allocs);
    EXPECT_LE(allocs, kDaemonRequestBudget) << "request " << i;
  }
  daemon.Stop();
  EXPECT_GT(answered_with_results, kRequests / 2);
  std::printf("daemon request: %.2f allocations mean, %llu max\n",
              static_cast<double>(total) / kRequests,
              static_cast<unsigned long long>(worst));
}

TEST(AllocBudgetTest, WarmProcessDocumentAllocatesAboutItsAnnotations) {
  ContextualRankerOptions options;
  options.pipeline = PipelineConfig::SmallForTests();
  auto ranker_or = ContextualRanker::Train(options);
  ASSERT_TRUE(ranker_or.ok()) << ranker_or.status().ToString();
  const std::unique_ptr<ContextualRanker> ranker = std::move(ranker_or).value();
  const RuntimeRanker& runtime = ranker->runtime();

  DocGenerator gen(ranker->pipeline().world());
  std::vector<std::string> docs;
  for (DocId id = 800000; id < 800040; ++id) {
    docs.push_back(gen.Generate(Document::Kind::kNews, id).text);
  }
  for (const std::string& doc : docs) (void)runtime.ProcessDocument(doc);

  uint64_t total = 0;
  uint64_t worst_overhead = 0;
  size_t annotations = 0;
  for (const std::string& doc : docs) {
    const uint64_t before = Allocations();
    const std::vector<RankedAnnotation> ranked = runtime.ProcessDocument(doc);
    const uint64_t allocs = Allocations() - before;
    EXPECT_LE(allocs, ranked.size() + kProcessDocumentOverhead)
        << ranked.size() << " annotations";
    total += allocs;
    annotations += ranked.size();
    if (allocs > ranked.size()) {
      worst_overhead = std::max<uint64_t>(worst_overhead, allocs - ranked.size());
    }
  }
  EXPECT_GT(annotations, docs.size());
  std::printf("ProcessDocument: %.2f allocations for %.2f annotations mean, "
              "%llu max overhead\n",
              static_cast<double>(total) / static_cast<double>(docs.size()),
              static_cast<double>(annotations) /
                  static_cast<double>(docs.size()),
              static_cast<unsigned long long>(worst_overhead));
}

}  // namespace
}  // namespace ckr
