// Serving example: the production deployment path.
//
// Offline box: train the system and export the StorePack artifact (model +
// Global TID table + quantized interestingness vectors + packed relevant
// terms). Serving box: load the pack, build a RuntimeRanker next to the
// (separately provisioned) entity dictionaries, and serve documents —
// here with the Section-VIII online CTR tracker attached, so live click
// feedback keeps adjusting the ranking between requests.
#include <cstdio>
#include <string>

#include "core/contextual_ranker.h"
#include "corpus/doc_generator.h"
#include "framework/store_pack.h"
#include "online/ctr_tracker.h"

int main() {
  // ---- Offline: train and export the artifact ----
  ckr::ContextualRankerOptions options;
  options.pipeline = ckr::PipelineConfig::SmallForTests();
  std::printf("[offline] training...\n");
  auto trained_or = ckr::ContextualRanker::Train(options);
  if (!trained_or.ok()) {
    std::fprintf(stderr, "train: %s\n",
                 trained_or.status().ToString().c_str());
    return 1;
  }
  const ckr::ContextualRanker& trained = **trained_or;
  std::string path = "/tmp/ckr_store_pack.bin";
  {
    std::string blob = trained.SerializePack();
    auto pack = ckr::StorePack::Deserialize(blob);
    if (!pack.ok() || !pack->SaveToFile(path).ok()) {
      std::fprintf(stderr, "pack export failed\n");
      return 1;
    }
    std::printf("[offline] exported %zu-byte store pack to %s\n",
                blob.size(), path.c_str());
  }

  // ---- Serving: load the artifact and serve ----
  auto pack_or = ckr::StorePack::LoadFromFile(path);
  if (!pack_or.ok()) {
    std::fprintf(stderr, "load: %s\n", pack_or.status().ToString().c_str());
    return 1;
  }
  const ckr::StorePack& pack = *pack_or;
  std::printf("[serving] loaded pack: %zu concepts, %zu terms in the TID "
              "table\n",
              pack.concepts.NumConcepts(), pack.tids.size());

  ckr::RuntimeRanker server(trained.pipeline().detector(), pack.concepts,
                            pack.tids, pack.model);
  ckr::CtrTracker live_feedback;
  server.SetOnlineTracker(&live_feedback);

  // Serve a few requests, feeding simulated click telemetry back in
  // between (one Tick per batch).
  ckr::DocGenerator gen(trained.pipeline().world());
  ckr::RuntimeStats stats;
  for (int batch = 0; batch < 3; ++batch) {
    std::printf("\n[serving] batch %d\n", batch);
    for (ckr::DocId i = 0; i < 3; ++i) {
      ckr::Document doc = gen.Generate(ckr::Document::Kind::kNews,
                                       910000 + batch * 100 + i);
      auto ranked = server.ProcessDocument(doc.text, &stats);
      std::printf("  doc %u: %zu annotations, top:", doc.id, ranked.size());
      for (size_t k = 0; k < std::min<size_t>(3, ranked.size()); ++k) {
        std::printf(" [%s]", ranked[k].key.c_str());
      }
      std::printf("\n");
      // Telemetry: pretend each annotation was shown 100 times and the
      // top one clicked more.
      for (size_t k = 0; k < ranked.size(); ++k) {
        live_feedback.Record(ranked[k].key, 100, k == 0 ? 8 : 1);
      }
    }
    live_feedback.Tick();
  }
  std::printf("\n[serving] throughput: stemmer %.1f MB/s, ranker %.1f MB/s "
              "over %llu docs\n",
              stats.StemmerMBps(), stats.RankerMBps(),
              static_cast<unsigned long long>(stats.documents));
  std::remove(path.c_str());
  return 0;
}
