// Corpus-scale smoke: streams a ~50k-document scaled world through the
// out-of-core index build (no stored text, deferred block index), checks
// that the pruned evaluators reproduce the exhaustive ranking on it, and
// builds an ORCAS-shaped click log over the same corpus.
//
// Gated behind CKR_SCALE_SMOKE because it costs tens of seconds on one
// core: scripts/check_all.sh sets the flag; plain ctest skips.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "clicks/click_log.h"
#include "corpus/corpus_stream.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "index/inverted_index.h"

namespace ckr {
namespace {

constexpr size_t kSmokeDocs = 50000;

TEST(ScaleSmokeTest, StreamedBuildAndClickLog) {
  if (std::getenv("CKR_SCALE_SMOKE") == nullptr) {
    GTEST_SKIP() << "set CKR_SCALE_SMOKE=1 to run the corpus-scale smoke";
  }
  auto world_or = World::Create(ScaledWorldConfig(kSmokeDocs, 20090331));
  ASSERT_TRUE(world_or.ok()) << world_or.status().message();
  const World& world = *world_or.value();
  CorpusStreamer streamer(world);

  IndexBuildOptions stream_opts;
  stream_opts.store_text = false;       // Out-of-core regime: text dropped.
  stream_opts.build_block_index = false;  // Deferred until after Finalize.
  InvertedIndex index(stream_opts);

  CorpusStreamConfig stream_cfg;
  stream_cfg.workers = 2;
  Status s = streamer.Stream(Document::Kind::kWeb, kSmokeDocs, stream_cfg,
                             [&](Document&& doc) { index.Add(doc); });
  ASSERT_TRUE(s.ok()) << s.message();
  index.Finalize();
  ASSERT_EQ(index.NumDocs(), kSmokeDocs);
  ASSERT_FALSE(index.has_block_index());
  index.RebuildBlockIndex();

  // The pruned evaluators return the exhaustive ranking: same docs,
  // bit-identical scores.
  std::vector<std::string> queries;
  for (size_t i = 0; i < world.NumEntities(); i += 97) {
    queries.push_back(world.entity(static_cast<EntityId>(i)).key);
  }
  for (const std::string& q : queries) {
    const auto oracle = index.Search(q, 20);
    for (QueryEvaluator evaluator :
         {QueryEvaluator::kMaxScore, QueryEvaluator::kBlockMaxWand}) {
      const auto got = index.Search(q, 20, Bm25Params{}, evaluator);
      ASSERT_EQ(oracle.size(), got.size()) << q;
      for (size_t i = 0; i < oracle.size(); ++i) {
        ASSERT_EQ(oracle[i].doc, got[i].doc) << q << " rank " << i;
        ASSERT_EQ(oracle[i].score, got[i].score) << q << " rank " << i;
      }
    }
  }

  // ORCAS-regime click log over the same corpus (6 pairs/doc default).
  ClickLogConfig click_cfg;
  click_cfg.workers = 2;
  ClickLogGenerator log(world, Document::Kind::kWeb, kSmokeDocs, click_cfg);
  EXPECT_EQ(log.NumPairs(), kSmokeDocs * 6);
  StatusOr<ClickLogStats> stats = CollectClickLogStats(log);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->pairs, kSmokeDocs * 6);
  EXPECT_LT(stats->distinct_query_doc_pairs, stats->pairs);
  EXPECT_GT(stats->distinct_queries, 500u);
  EXPECT_GT(stats->distinct_docs, kSmokeDocs / 4);
}

}  // namespace
}  // namespace ckr
