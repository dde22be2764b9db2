// The CKR_OBS_DISABLED contract, proven the way check_release_test
// proves CKR_DCHECK: with the kill switch defined, every CKR_OBS_* hook
// is a true no-op — operands are never evaluated, the scoped timer is an
// empty object, and nothing reaches the global registry. This TU pins
// the disabled configuration regardless of how the build was configured;
// the library underneath keeps whatever the build chose, so the ranker
// fingerprint test below measures library behavior. scripts/check_all.sh
// runs it in both the default and the obs-off build and diffs the
// fingerprints to prove ranked outputs are bit-identical either way.
#ifdef CKR_OBS_DISABLED  // Defined build-wide in the obs-off preset.
#define CKR_OBS_LIBRARY_DISABLED 1
#else
#define CKR_OBS_LIBRARY_DISABLED 0
#define CKR_OBS_DISABLED
#endif
#include "obs/hooks.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/contextual_ranker.h"
#include "corpus/doc_generator.h"
#include "gtest/gtest.h"

namespace ckr {
namespace {

static_assert(CKR_OBS_ENABLED == 0,
              "per-TU CKR_OBS_DISABLED must switch the hooks off");

// The "zero-size hook": the disabled scoped timer declares an empty,
// trivially destructible object the optimizer erases entirely.
static_assert(std::is_empty_v<obs::NullStageTimer>);
static_assert(std::is_trivially_destructible_v<obs::NullStageTimer>);
static_assert(std::is_trivially_constructible_v<obs::NullStageTimer>);

// Disabled hooks are valid in constant expressions — their operands sit
// in unevaluated contexts, exactly like a release-mode CKR_DCHECK.
constexpr int ConstexprWithDisabledHooks(int x) {
  CKR_OBS_COUNTER_INC("never");
  CKR_OBS_COUNTER_ADD("never", x / 0);  // Unevaluated: even UB is inert.
  CKR_OBS_GAUGE_SET("never", x);
  CKR_OBS_HISTOGRAM_RECORD("never", x);
  return x + 1;
}
static_assert(ConstexprWithDisabledHooks(41) == 42);

TEST(ObsDisabledTest, HookOperandsAreNeverEvaluated) {
  int n = 0;
  CKR_OBS_COUNTER_INC(++n ? "a" : "b");
  CKR_OBS_COUNTER_ADD("a", ++n);
  CKR_OBS_GAUGE_SET("a", ++n);
  CKR_OBS_HISTOGRAM_RECORD("a", ++n);
  EXPECT_EQ(n, 0);
}

TEST(ObsDisabledTest, NothingReachesTheGlobalRegistry) {
  CKR_OBS_COUNTER_INC("obs_disabled_test.counter");
  CKR_OBS_GAUGE_SET("obs_disabled_test.gauge", 1.0);
  CKR_OBS_HISTOGRAM_RECORD("obs_disabled_test.hist", 1.0);
  {
    CKR_OBS_SCOPED_TIMER("obs_disabled_test.timer");
  }
  std::string json = obs::MetricRegistry::Global().SnapshotJson();
  EXPECT_EQ(json.find("obs_disabled_test."), std::string::npos);
}

TEST(ObsDisabledTest, ScopedTimerNestsWithoutCollisions) {
  // __COUNTER__ must keep sibling and nested declarations distinct.
  CKR_OBS_SCOPED_TIMER("x");
  CKR_OBS_SCOPED_TIMER("y");
  {
    CKR_OBS_SCOPED_TIMER("z");
  }
  SUCCEED();
}

// The runtime Stemmer's memo counters follow the library's build: they
// never reach the registry from an obs-off library, and they count in the
// default one.
TEST(ObsDisabledTest, StemMemoCountersFollowTheLibraryBuild) {
  EntityDetector detector({{"brown cats", EntityType::kConcept, 0}}, nullptr);
  QuantizedInterestingnessStore interest;
  interest.Finalize();
  GlobalTidTable tids;
  tids.Intern("cat");
  PackedRelevanceStore relevance(&tids);
  relevance.Finalize();
  RuntimeRanker a(detector, interest, relevance, tids, RankSvmModel());
  RuntimeRanker b(detector, interest, relevance, tids, RankSvmModel());
  RankerScratch scratch;
  const std::string doc = "The cats chased the brown cats.";
  a.ProcessDocument(doc, &scratch, nullptr);
  a.ProcessDocument(doc, &scratch, nullptr);
  b.ProcessDocument(doc, &scratch, nullptr);

  const std::string json = obs::MetricRegistry::Global().SnapshotJson();
  for (const char* name :
       {"ckr.runtime.stem_memo_hits", "ckr.runtime.stem_memo_misses",
        "ckr.runtime.stem_memo_resets"}) {
    const bool registered = json.find(name) != std::string::npos;
    const uint64_t value =
        obs::MetricRegistry::Global().GetCounter(name)->Value();
    if (CKR_OBS_LIBRARY_DISABLED) {
      EXPECT_FALSE(registered) << name;
      EXPECT_EQ(value, 0u) << name;
    } else {
      EXPECT_TRUE(registered) << name;
      EXPECT_GT(value, 0u) << name;
    }
  }
}

// ---------------------------------------------------------------------
// Ranker bit-identity. The fingerprint folds every ranked annotation —
// key, span, and the exact score bits — of a fixed document set. Flat
// and legacy paths must agree in-process; across builds, check_all.sh
// compares the fingerprint this test writes (CKR_RANK_FINGERPRINT_FILE)
// between the obs-enabled and obs-disabled trees.

uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FingerprintRanking(const std::vector<RankedAnnotation>& ranked,
                            uint64_t h) {
  for (const RankedAnnotation& a : ranked) {
    h = Fnv1a(h, a.key.data(), a.key.size());
    uint64_t begin = a.begin, end = a.end;
    h = Fnv1a(h, &begin, sizeof(begin));
    h = Fnv1a(h, &end, sizeof(end));
    uint64_t score_bits = 0;
    static_assert(sizeof(score_bits) == sizeof(a.score));
    std::memcpy(&score_bits, &a.score, sizeof(score_bits));
    h = Fnv1a(h, &score_bits, sizeof(score_bits));
  }
  return h;
}

TEST(ObsDisabledTest, RankerOutputFingerprint) {
  ContextualRankerOptions options;
  options.pipeline = PipelineConfig::SmallForTests();
  auto ranker_or = ContextualRanker::Train(options);
  ASSERT_TRUE(ranker_or.ok()) << ranker_or.status().ToString();
  const ContextualRanker& ranker = **ranker_or;

  DocGenerator gen(ranker.pipeline().world());
  std::vector<std::string> docs;
  for (DocId id = 810000; id < 810020; ++id) {
    docs.push_back(gen.Generate(Document::Kind::kNews, id).text);
  }

  uint64_t flat_fp = 14695981039346656037ull;
  uint64_t legacy_fp = flat_fp;
  size_t nonempty = 0;
  const RuntimeRanker& runtime = ranker.runtime();
  for (const std::string& doc : docs) {
    auto flat = runtime.ProcessDocument(doc);
    auto legacy = runtime.ProcessDocumentLegacy(doc);
    flat_fp = FingerprintRanking(flat, flat_fp);
    legacy_fp = FingerprintRanking(legacy, legacy_fp);
    if (!flat.empty()) ++nonempty;
  }
  EXPECT_EQ(flat_fp, legacy_fp);
  EXPECT_GT(nonempty, docs.size() / 2);  // Not vacuous.

  // Fold the block-index evaluators' top-50 output into the same
  // fingerprint: the cross-build diff then also proves the block postings
  // build and the pruned MaxScore / Block-Max-WAND paths are untouched by
  // observability (every obs hook they emit must be behavior-free).
  const InvertedIndex& index = ranker.pipeline().index();
  size_t block_hits = 0;
  for (const QueryEntry& q : ranker.pipeline().query_log().entries()) {
    for (QueryEvaluator evaluator :
         {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore,
          QueryEvaluator::kBlockMaxWand}) {
      const auto hits = index.Search(q.text, 50, Bm25Params{}, evaluator);
      block_hits += hits.size();
      for (const SearchResult& r : hits) {
        uint64_t doc = r.doc;
        flat_fp = Fnv1a(flat_fp, &doc, sizeof(doc));
        uint64_t score_bits = 0;
        std::memcpy(&score_bits, &r.score, sizeof(score_bits));
        flat_fp = Fnv1a(flat_fp, &score_bits, sizeof(score_bits));
      }
    }
  }
  EXPECT_GT(block_hits, 0u);  // Not vacuous either.

  RecordProperty("rank_fingerprint", std::to_string(flat_fp));
  if (const char* path = std::getenv("CKR_RANK_FINGERPRINT_FILE")) {
    std::ofstream out(path);
    out << flat_fp << "\n";
    ASSERT_TRUE(out.good()) << "cannot write fingerprint to " << path;
  }
}

}  // namespace
}  // namespace ckr
