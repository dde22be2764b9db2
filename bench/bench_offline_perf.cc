// Offline-phase performance: the term-id flat index vs the string-keyed
// legacy index, plus the parallel per-concept mining fan-out.
//
// The paper's offline phase hammers the search backend — feature (4)
// searchengine_phrase issues one phrase-count query per concept, and
// relevant-keyword mining runs a ranked query per (concept, resource) and
// reads the top snippets (Sections IV-A/IV-B). This binary builds the
// paper-scale world, indexes the same web corpus into both layouts, and
// reports old-vs-new throughput for the three query kinds the offline
// phase issues, mining wall-clock scaling across worker counts, and the
// index memory footprint. The summary run verifies both layouts return
// bit-identical results before timing anything, and writes every number
// to BENCH_offline.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clicks/click_log.h"
#include "core/pipeline.h"
#include "corpus/corpus_stream.h"
#include "corpus/doc_generator.h"
#include "features/offline_miner.h"
#include "index/inverted_index.h"
#include "index/legacy_index.h"
#include "obs/metrics.h"

namespace {

using namespace ckr;

struct OfflineLab {
  std::unique_ptr<Pipeline> pipeline;
  LegacyInvertedIndex legacy;
  InvertedIndex flat;
  std::vector<std::string> phrase_queries;   ///< Entity keys (multi-token).
  std::vector<std::string> regular_queries;  ///< Query-log texts.
  std::vector<ConceptKey> concepts;          ///< Mining workload.
};

OfflineLab* GetLab() {
  static OfflineLab* lab = [] {
    auto* l = new OfflineLab();
    auto pipeline_or = Pipeline::Build(PipelineConfig{});  // Paper scale.
    if (!pipeline_or.ok()) {
      std::fprintf(stderr, "pipeline: %s\n",
                   pipeline_or.status().ToString().c_str());
      std::exit(1);
    }
    l->pipeline = std::move(*pipeline_or);

    // Same web corpus, same Add order -> comparable indexes.
    // Generation is counter-seeded per document id, so a second
    // generator yields exactly the documents the pipeline indexed.
    for (const Document& doc :
         DocGenerator(l->pipeline->world())
             .GenerateCorpus(Document::Kind::kWeb,
                             l->pipeline->config().world.num_web_docs)) {
      l->legacy.Add(doc);
      l->flat.Add(doc);
    }
    l->legacy.Finalize();
    l->flat.Finalize();

    // Phrase workload: one count query per entity/concept key, exactly
    // what feature (4) issues during the offline fan-out.
    const World& world = l->pipeline->world();
    for (const Entity& e : world.entities()) {
      l->phrase_queries.push_back(e.key);
    }
    // Regular workload: the distinct query-log texts (ranked retrieval +
    // result counting, the Prisma / mining query mix).
    for (const QueryEntry& q : l->pipeline->query_log().entries()) {
      l->regular_queries.push_back(q.text);
    }
    // Mining workload: a representative slice of the concept universe
    // (every 4th entity) so the scaling runs finish in seconds.
    for (size_t i = 0; i < world.NumEntities(); i += 4) {
      const Entity& e = world.entity(static_cast<EntityId>(i));
      l->concepts.push_back({e.key, e.type});
    }
    return l;
  }();
  return lab;
}

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool SameResults(const std::vector<SearchResult>& a,
                 const std::vector<SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc || a[i].score != b[i].score) return false;
  }
  return true;
}

bool SameMined(const std::vector<MinedConcept>& a,
               const std::vector<MinedConcept>& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    for (size_t r = 0; r < kNumRelevanceResources; ++r) {
      const auto& ta = a[c].relevance[r];
      const auto& tb = b[c].relevance[r];
      if (ta.size() != tb.size()) return false;
      for (size_t t = 0; t < ta.size(); ++t) {
        if (ta[t].term != tb[t].term || ta[t].score != tb[t].score) {
          return false;
        }
      }
    }
  }
  return true;
}

// ---- google-benchmark loops (old vs new, per query kind) ----

void BM_SearchTop50Legacy(benchmark::State& state) {
  OfflineLab* lab = GetLab();
  size_t i = 0;
  for (auto _ : state) {
    auto r = lab->legacy.Search(lab->regular_queries[i], 50);
    benchmark::DoNotOptimize(r);
    i = (i + 1) % lab->regular_queries.size();
  }
}
BENCHMARK(BM_SearchTop50Legacy)->Unit(benchmark::kMicrosecond);

void BM_SearchTop50Flat(benchmark::State& state) {
  OfflineLab* lab = GetLab();
  size_t i = 0;
  for (auto _ : state) {
    auto r = lab->flat.Search(lab->regular_queries[i], 50);
    benchmark::DoNotOptimize(r);
    i = (i + 1) % lab->regular_queries.size();
  }
}
BENCHMARK(BM_SearchTop50Flat)->Unit(benchmark::kMicrosecond);

void BM_SearchTop50MaxScore(benchmark::State& state) {
  OfflineLab* lab = GetLab();
  size_t i = 0;
  for (auto _ : state) {
    auto r = lab->flat.Search(lab->regular_queries[i], 50, Bm25Params{},
                              QueryEvaluator::kMaxScore);
    benchmark::DoNotOptimize(r);
    i = (i + 1) % lab->regular_queries.size();
  }
}
BENCHMARK(BM_SearchTop50MaxScore)->Unit(benchmark::kMicrosecond);

void BM_SearchTop50BlockMaxWand(benchmark::State& state) {
  OfflineLab* lab = GetLab();
  size_t i = 0;
  for (auto _ : state) {
    auto r = lab->flat.Search(lab->regular_queries[i], 50, Bm25Params{},
                              QueryEvaluator::kBlockMaxWand);
    benchmark::DoNotOptimize(r);
    i = (i + 1) % lab->regular_queries.size();
  }
}
BENCHMARK(BM_SearchTop50BlockMaxWand)->Unit(benchmark::kMicrosecond);

void BM_PhraseCountLegacy(benchmark::State& state) {
  OfflineLab* lab = GetLab();
  size_t i = 0;
  for (auto _ : state) {
    auto n = lab->legacy.PhraseResultCount(lab->phrase_queries[i]);
    benchmark::DoNotOptimize(n);
    i = (i + 1) % lab->phrase_queries.size();
  }
}
BENCHMARK(BM_PhraseCountLegacy)->Unit(benchmark::kMicrosecond);

void BM_PhraseCountFlat(benchmark::State& state) {
  OfflineLab* lab = GetLab();
  size_t i = 0;
  for (auto _ : state) {
    auto n = lab->flat.PhraseResultCount(lab->phrase_queries[i]);
    benchmark::DoNotOptimize(n);
    i = (i + 1) % lab->phrase_queries.size();
  }
}
BENCHMARK(BM_PhraseCountFlat)->Unit(benchmark::kMicrosecond);

// ---- summary run: equivalence check, throughputs, scaling, JSON ----

struct QpsPair {
  double legacy_seconds = 0.0;
  double flat_seconds = 0.0;
  size_t queries = 0;
  double LegacyQps() const {
    return legacy_seconds > 0
               ? static_cast<double>(queries) / legacy_seconds
               : 0.0;
  }
  double FlatQps() const {
    return flat_seconds > 0
               ? static_cast<double>(queries) / flat_seconds
               : 0.0;
  }
  double Speedup() const {
    return flat_seconds > 0 ? legacy_seconds / flat_seconds : 0.0;
  }
};

struct MiningPoint {
  unsigned workers = 0;
  double wall_seconds = 0.0;
};

// One top-50 evaluator pass over the regular workload: per-query latency
// quantiles plus the pruning counters the block index reports.
struct EvaluatorLeg {
  const char* name = "";
  double total_seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t postings_scored = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
};

EvaluatorLeg TimeEvaluator(OfflineLab* lab, const char* name,
                           QueryEvaluator evaluator) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* c_scored = reg.GetCounter("ckr.index.postings_scored");
  obs::Counter* c_decoded = reg.GetCounter("ckr.index.blocks_decoded");
  obs::Counter* c_skipped = reg.GetCounter("ckr.index.blocks_skipped");
  const uint64_t scored0 = c_scored->Value();
  const uint64_t decoded0 = c_decoded->Value();
  const uint64_t skipped0 = c_skipped->Value();

  constexpr int kRepeats = 3;
  std::vector<double> lat_us;
  lat_us.reserve(lab->regular_queries.size() * kRepeats);
  const auto t_all = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& q : lab->regular_queries) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(lab->flat.Search(q, 50, Bm25Params{},
                                                evaluator));
      lat_us.push_back(WallSeconds(t0) * 1e6);
    }
  }
  EvaluatorLeg leg;
  leg.name = name;
  leg.total_seconds = WallSeconds(t_all);
  std::sort(lat_us.begin(), lat_us.end());
  if (!lat_us.empty()) {
    leg.p50_us = lat_us[lat_us.size() / 2];
    leg.p99_us = lat_us[lat_us.size() * 99 / 100];
  }
  leg.postings_scored = c_scored->Value() - scored0;
  leg.blocks_decoded = c_decoded->Value() - decoded0;
  leg.blocks_skipped = c_skipped->Value() - skipped0;
  return leg;
}

// ---- corpus-scale legs: streaming build, evaluators, click log ----

struct ScaleLeg {
  size_t target_docs = 0;
  size_t docs = 0;
  size_t terms = 0;
  uint64_t postings = 0;
  double stream_build_seconds = 0.0;   ///< Generate + Add.
  double finalize_seconds = 0.0;
  size_t index_memory_bytes = 0;       ///< InvertedIndex::MemoryBytes().
  ClickLogStats clicks;
  double click_seconds = 0.0;
  bool bit_identical = true;
  size_t queries = 0;
  int repeats = 0;
  double evaluator_seconds[3] = {0.0, 0.0, 0.0};  // exhaustive, ms, bmw.
  // Counter deltas over each evaluator's timed passes (zero under
  // CKR_OBS_DISABLED).
  uint64_t postings_scored[3] = {0, 0, 0};
  uint64_t blocks_decoded[3] = {0, 0, 0};
  uint64_t blocks_skipped[3] = {0, 0, 0};
};

constexpr const char* kScaleEvaluatorNames[3] = {"exhaustive", "maxscore",
                                                 "block_max_wand"};

/// Serving depth for the timed scale legs (bit-identity is also checked at
/// top-50).
constexpr size_t kScaleTopK = 10;

/// One leg of the 100x sweep: stream-generate `target_docs` web documents
/// into one out-of-core index build, assert the pruned evaluators return
/// the exhaustive results bit-identically, then time the three evaluators
/// over an entity-key query workload and stream an ORCAS-shaped click log
/// over the same corpus.
ScaleLeg RunScaleLeg(size_t target_docs) {
  ScaleLeg leg;
  leg.target_docs = target_docs;
  auto world_or = World::Create(ScaledWorldConfig(target_docs, 20090331));
  if (!world_or.ok()) {
    std::fprintf(stderr, "scale leg %zu: %s\n", target_docs,
                 world_or.status().ToString().c_str());
    std::exit(1);
  }
  const World& world = *world_or.value();
  CorpusStreamer streamer(world);

  IndexBuildOptions stream_opts;
  stream_opts.store_text = false;
  stream_opts.build_block_index = false;
  InvertedIndex index(stream_opts);

  auto t0 = std::chrono::steady_clock::now();
  Status s = streamer.Stream(Document::Kind::kWeb, target_docs,
                             CorpusStreamConfig{},
                             [&](Document&& doc) { index.Add(doc); });
  if (!s.ok()) {
    std::fprintf(stderr, "scale leg %zu: %s\n", target_docs,
                 s.ToString().c_str());
    std::exit(1);
  }
  leg.stream_build_seconds = WallSeconds(t0);

  t0 = std::chrono::steady_clock::now();
  index.Finalize();
  leg.finalize_seconds = WallSeconds(t0);

  index.RebuildBlockIndex();
  leg.docs = index.NumDocs();
  leg.terms = index.NumTerms();
  leg.postings = index.NumPostings();
  leg.index_memory_bytes = index.MemoryBytes();

  // Entity-key workload, ~250 queries regardless of scale.
  std::vector<std::string> queries;
  const size_t step = std::max<size_t>(1, world.NumEntities() / 250);
  for (size_t i = 0; i < world.NumEntities(); i += step) {
    queries.push_back(world.entity(static_cast<EntityId>(i)).key);
  }
  leg.queries = queries.size();

  // Bit-identity across evaluators for every workload query, at both the
  // deep (top-50) and serving (top-10) depths.
  for (const std::string& q : queries) {
    for (size_t k : {size_t{50}, kScaleTopK}) {
      const auto oracle = index.Search(q, k);
      for (QueryEvaluator evaluator :
           {QueryEvaluator::kMaxScore, QueryEvaluator::kBlockMaxWand}) {
        leg.bit_identical =
            leg.bit_identical &&
            SameResults(oracle, index.Search(q, k, Bm25Params{}, evaluator));
      }
    }
  }

  // Timed legs run at the serving depth: top-10 fills the heap early, so
  // the pruning thresholds bite — the crossover where MaxScore overtakes
  // the CSR exhaustive scan is exactly what these legs exist to record.
  leg.repeats = target_docs <= 10000 ? 10 : target_docs <= 200000 ? 3 : 1;
  const QueryEvaluator evaluators[3] = {QueryEvaluator::kExhaustive,
                                        QueryEvaluator::kMaxScore,
                                        QueryEvaluator::kBlockMaxWand};
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* c_scored = reg.GetCounter("ckr.index.postings_scored");
  obs::Counter* c_decoded = reg.GetCounter("ckr.index.blocks_decoded");
  obs::Counter* c_skipped = reg.GetCounter("ckr.index.blocks_skipped");
  for (size_t e = 0; e < 3; ++e) {
    const uint64_t scored0 = c_scored->Value();
    const uint64_t decoded0 = c_decoded->Value();
    const uint64_t skipped0 = c_skipped->Value();
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < leg.repeats; ++r) {
      for (const std::string& q : queries) {
        benchmark::DoNotOptimize(
            index.Search(q, kScaleTopK, Bm25Params{}, evaluators[e]));
      }
    }
    leg.evaluator_seconds[e] = WallSeconds(t0);
    leg.postings_scored[e] = c_scored->Value() - scored0;
    leg.blocks_decoded[e] = c_decoded->Value() - decoded0;
    leg.blocks_skipped[e] = c_skipped->Value() - skipped0;
  }

  // ORCAS-shaped click log over the same corpus (6 pairs/doc default).
  ClickLogGenerator log(world, Document::Kind::kWeb, target_docs,
                        ClickLogConfig{});
  t0 = std::chrono::steady_clock::now();
  StatusOr<ClickLogStats> stats = CollectClickLogStats(log);
  leg.click_seconds = WallSeconds(t0);
  if (!stats.ok()) {
    std::fprintf(stderr, "scale leg %zu clicks: %s\n", target_docs,
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  leg.clicks = *stats;
  return leg;
}

std::vector<ScaleLeg> RunScaleLegs() {
  std::vector<size_t> targets = {6000, 100000};
  if (std::getenv("CKR_BENCH_MILLION") != nullptr) {
    targets.push_back(1000000);
  }
  std::vector<ScaleLeg> legs;
  for (size_t t : targets) {
    std::printf("scale leg: %zu docs...\n", t);
    legs.push_back(RunScaleLeg(t));
  }
  return legs;
}

void RunSummary() {
  OfflineLab* lab = GetLab();

  // Equivalence before timing: the speedup claim is void if the layouts
  // disagree on any workload query.
  bool identical = true;
  for (const std::string& q : lab->regular_queries) {
    identical = identical && SameResults(lab->flat.Search(q, 50),
                                         lab->legacy.Search(q, 50));
  }
  for (const std::string& q : lab->phrase_queries) {
    identical = identical && lab->flat.PhraseResultCount(q) ==
                                 lab->legacy.PhraseResultCount(q);
    identical = identical && SameResults(lab->flat.PhraseSearch(q, 100),
                                         lab->legacy.PhraseSearch(q, 100));
  }

  // ckr_obs probes: the flat index and the offline miner report into the
  // global registry, so deltas across the timed sections below give the
  // per-stage breakdown (all zeros when built with CKR_OBS_DISABLED).
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* c_searches = reg.GetCounter("ckr.index.searches");
  obs::Counter* c_docs = reg.GetCounter("ckr.index.search_docs_touched");
  obs::Counter* c_phrase = reg.GetCounter("ckr.index.phrase_searches");
  const uint64_t searches0 = c_searches->Value();
  const uint64_t docs_touched0 = c_docs->Value();
  const uint64_t phrase0 = c_phrase->Value();

  // Timed passes over the full workloads (several repeats so the fast
  // paths get out of the noise).
  constexpr int kRepeats = 3;
  QpsPair search, phrase_count;
  search.queries = lab->regular_queries.size() * kRepeats;
  phrase_count.queries = lab->phrase_queries.size() * kRepeats;

  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& q : lab->regular_queries) {
      benchmark::DoNotOptimize(lab->legacy.Search(q, 50));
    }
  }
  search.legacy_seconds = WallSeconds(t0);
  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& q : lab->regular_queries) {
      benchmark::DoNotOptimize(lab->flat.Search(q, 50));
    }
  }
  search.flat_seconds = WallSeconds(t0);

  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& q : lab->phrase_queries) {
      benchmark::DoNotOptimize(lab->legacy.PhraseResultCount(q));
    }
  }
  phrase_count.legacy_seconds = WallSeconds(t0);
  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& q : lab->phrase_queries) {
      benchmark::DoNotOptimize(lab->flat.PhraseResultCount(q));
    }
  }
  phrase_count.flat_seconds = WallSeconds(t0);

  const uint64_t obs_searches = c_searches->Value() - searches0;
  const uint64_t obs_docs_touched = c_docs->Value() - docs_touched0;
  const uint64_t obs_phrase = c_phrase->Value() - phrase0;

  // ---- block-index legs: pruned top-50 vs the exhaustive oracle ----

  // Equivalence first (the latency table is void if any evaluator strays).
  bool pruned_identical = true;
  for (const std::string& q : lab->regular_queries) {
    const auto oracle = lab->flat.Search(q, 50);
    pruned_identical =
        pruned_identical &&
        SameResults(oracle, lab->flat.Search(q, 50, Bm25Params{},
                                             QueryEvaluator::kMaxScore)) &&
        SameResults(oracle, lab->flat.Search(q, 50, Bm25Params{},
                                             QueryEvaluator::kBlockMaxWand));
  }
  const uint64_t block_postings = lab->flat.NumPostings();

  const EvaluatorLeg legs[] = {
      TimeEvaluator(lab, "exhaustive", QueryEvaluator::kExhaustive),
      TimeEvaluator(lab, "maxscore", QueryEvaluator::kMaxScore),
      TimeEvaluator(lab, "block_max_wand", QueryEvaluator::kBlockMaxWand),
  };
  auto scored_reduction = [&legs](const EvaluatorLeg& leg) {
    return legs[0].postings_scored > 0
               ? 1.0 - static_cast<double>(leg.postings_scored) /
                           static_cast<double>(legs[0].postings_scored)
               : 0.0;
  };

  // Mining fan-out scaling: same concepts, 1/2/4/8 workers; outputs must
  // be identical for every worker count.
  obs::Histogram* mine_hist =
      reg.GetHistogram("ckr.offline.stage.mine_all_seconds");
  const uint64_t mine_calls0 = mine_hist->Count();
  const double mine_seconds0 = mine_hist->Sum();
  OfflineConceptMiner miner(lab->pipeline->interestingness(),
                            lab->pipeline->relevance_miner());
  constexpr size_t kRelevanceTerms = 50;
  std::vector<MiningPoint> mining;
  std::vector<MinedConcept> mined_serial;
  bool mining_identical = true;
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    OfflineMiningStats stats;
    auto mined = miner.MineAll(lab->concepts, kRelevanceTerms, workers,
                               &stats);
    if (workers == 1) {
      mined_serial = std::move(mined);
    } else {
      mining_identical = mining_identical && SameMined(mined_serial, mined);
    }
    mining.push_back({workers, stats.wall_seconds});
  }

  const uint64_t obs_mine_calls = mine_hist->Count() - mine_calls0;
  const double obs_mine_seconds = mine_hist->Sum() - mine_seconds0;

  // 100x corpus-scale legs (1M docs only under CKR_BENCH_MILLION).
  const std::vector<ScaleLeg> scale_legs = RunScaleLegs();

  size_t legacy_bytes = lab->legacy.MemoryBytes();
  size_t flat_bytes = lab->flat.MemoryBytes();

  std::printf("=== offline phase: term-id flat index vs legacy ===\n");
  std::printf("corpus: %zu docs, %zu terms; workloads: %zu regular, "
              "%zu phrase queries, %zu mining concepts\n",
              lab->flat.NumDocs(), lab->flat.NumTerms(),
              lab->regular_queries.size(), lab->phrase_queries.size(),
              lab->concepts.size());
  std::printf("results bit-identical across layouts: %s\n",
              identical ? "yes" : "NO");
  std::printf("workload              legacy qps      flat qps   speedup\n");
  std::printf("search top-50      %11.0f  %12.0f  %7.2fx\n",
              search.LegacyQps(), search.FlatQps(), search.Speedup());
  std::printf("phrase count       %11.0f  %12.0f  %7.2fx\n",
              phrase_count.LegacyQps(), phrase_count.FlatQps(),
              phrase_count.Speedup());
  std::printf("index memory: legacy %.2f MB, flat %.2f MB (%.2fx smaller)\n",
              static_cast<double>(legacy_bytes) / 1e6,
              static_cast<double>(flat_bytes) / 1e6,
              flat_bytes > 0
                  ? static_cast<double>(legacy_bytes) /
                        static_cast<double>(flat_bytes)
                  : 0.0);
  std::printf("block index: pruned top-50 bit-identical to exhaustive: "
              "%s\n",
              pruned_identical ? "yes" : "NO");
  std::printf("evaluator          p50 us    p99 us   postings scored  "
              "reduction   blocks dec/skip\n");
  for (const EvaluatorLeg& leg : legs) {
    std::printf("%-15s  %8.1f  %8.1f  %16llu  %8.1f%%  %8llu/%llu\n",
                leg.name, leg.p50_us, leg.p99_us,
                static_cast<unsigned long long>(leg.postings_scored),
                scored_reduction(leg) * 100.0,
                static_cast<unsigned long long>(leg.blocks_decoded),
                static_cast<unsigned long long>(leg.blocks_skipped));
  }
  std::printf("corpus-scale legs (streamed build, no stored text; top-%zu "
              "evaluator wall-clock):\n",
              kScaleTopK);
  for (const ScaleLeg& leg : scale_legs) {
    std::printf("  %8zu docs  %8zu terms  %10llu postings  "
                "bit-identical: %s\n",
                leg.docs, leg.terms,
                static_cast<unsigned long long>(leg.postings),
                leg.bit_identical ? "yes" : "NO");
    std::printf("    build %.1fs, finalize %.1fs; index memory %.2f MB\n",
                leg.stream_build_seconds, leg.finalize_seconds,
                static_cast<double>(leg.index_memory_bytes) / 1e6);
    std::printf("    clicks: %llu pairs (%llu distinct q-d, %llu queries, "
                "%llu docs, %llu users) in %.1fs\n",
                static_cast<unsigned long long>(leg.clicks.pairs),
                static_cast<unsigned long long>(
                    leg.clicks.distinct_query_doc_pairs),
                static_cast<unsigned long long>(leg.clicks.distinct_queries),
                static_cast<unsigned long long>(leg.clicks.distinct_docs),
                static_cast<unsigned long long>(leg.clicks.distinct_users),
                leg.click_seconds);
    std::printf("    evaluators (%zu queries x%d):", leg.queries,
                leg.repeats);
    for (size_t e = 0; e < 3; ++e) {
      std::printf("  %s %.3fs", kScaleEvaluatorNames[e],
                  leg.evaluator_seconds[e]);
    }
    std::printf("\n");
    for (size_t e = 0; e < 3; ++e) {
      std::printf("      %-15s postings scored %llu, blocks dec/skip "
                  "%llu/%llu\n",
                  kScaleEvaluatorNames[e],
                  static_cast<unsigned long long>(leg.postings_scored[e]),
                  static_cast<unsigned long long>(leg.blocks_decoded[e]),
                  static_cast<unsigned long long>(leg.blocks_skipped[e]));
    }
  }
  std::printf("mining fan-out (%zu concepts, %u hardware threads), outputs "
              "identical across worker counts: %s\n",
              lab->concepts.size(), std::thread::hardware_concurrency(),
              mining_identical ? "yes" : "NO");
  for (const MiningPoint& p : mining) {
    std::printf("  %u worker%s  %.3f s  %.2fx\n", p.workers,
                p.workers == 1 ? " " : "s", p.wall_seconds,
                mining.front().wall_seconds > 0
                    ? mining.front().wall_seconds / p.wall_seconds
                    : 0.0);
  }
  std::printf("obs%s: %llu searches touching %llu postings docs, "
              "%llu phrase searches; mine_all %llu samples %.3f s\n",
              obs_searches == 0 ? " (hooks compiled out)" : "",
              static_cast<unsigned long long>(obs_searches),
              static_cast<unsigned long long>(obs_docs_touched),
              static_cast<unsigned long long>(obs_phrase),
              static_cast<unsigned long long>(obs_mine_calls),
              obs_mine_seconds);
  std::printf("\n");

  std::FILE* f = std::fopen("BENCH_offline.json", "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_offline.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"documents\": %zu,\n", lab->flat.NumDocs());
  std::fprintf(f, "  \"terms\": %zu,\n", lab->flat.NumTerms());
  std::fprintf(f, "  \"regular_queries\": %zu,\n",
               lab->regular_queries.size());
  std::fprintf(f, "  \"phrase_queries\": %zu,\n", lab->phrase_queries.size());
  std::fprintf(f, "  \"results_bit_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f,
               "  \"search_top50\": {\"legacy_qps\": %.1f, \"flat_qps\": "
               "%.1f, \"speedup\": %.4f},\n",
               search.LegacyQps(), search.FlatQps(), search.Speedup());
  std::fprintf(f,
               "  \"phrase_count\": {\"legacy_qps\": %.1f, \"flat_qps\": "
               "%.1f, \"speedup\": %.4f},\n",
               phrase_count.LegacyQps(), phrase_count.FlatQps(),
               phrase_count.Speedup());
  std::fprintf(f,
               "  \"memory\": {\"legacy_bytes\": %zu, \"flat_bytes\": %zu, "
               "\"legacy_over_flat\": %.4f},\n",
               legacy_bytes, flat_bytes,
               flat_bytes > 0
                   ? static_cast<double>(legacy_bytes) /
                        static_cast<double>(flat_bytes)
                   : 0.0);
  // Per-stage breakdown from the ckr_obs registry (deltas over the timed
  // flat passes / the mining loop; all zeros under CKR_OBS_DISABLED).
  std::fprintf(f,
               "  \"obs\": {\"index_searches\": %llu, "
               "\"index_docs_touched\": %llu, \"phrase_searches\": %llu, "
               "\"mine_all\": {\"samples\": %llu, \"seconds\": %.6f}},\n",
               static_cast<unsigned long long>(obs_searches),
               static_cast<unsigned long long>(obs_docs_touched),
               static_cast<unsigned long long>(obs_phrase),
               static_cast<unsigned long long>(obs_mine_calls),
               obs_mine_seconds);
  // Block-index legs: per-evaluator top-50 latency quantiles + pruning
  // counters (counter fields are zero under CKR_OBS_DISABLED).
  std::fprintf(f,
               "  \"block_index\": {\n"
               "    \"pruned_results_bit_identical\": %s,\n"
               "    \"postings\": %llu,\n",
               pruned_identical ? "true" : "false",
               static_cast<unsigned long long>(block_postings));
  std::fprintf(f, "    \"evaluators\": [\n");
  for (size_t i = 0; i < 3; ++i) {
    const EvaluatorLeg& leg = legs[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"p50_us\": %.2f, \"p99_us\": "
                 "%.2f, \"total_seconds\": %.6f, \"postings_scored\": %llu, "
                 "\"postings_scored_reduction\": %.4f, \"blocks_decoded\": "
                 "%llu, \"blocks_skipped\": %llu}%s\n",
                 leg.name, leg.p50_us, leg.p99_us, leg.total_seconds,
                 static_cast<unsigned long long>(leg.postings_scored),
                 scored_reduction(leg),
                 static_cast<unsigned long long>(leg.blocks_decoded),
                 static_cast<unsigned long long>(leg.blocks_skipped),
                 i + 1 < 3 ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  // Corpus-scale legs: streamed out-of-core builds at paper scale and
  // 100x (plus 1M docs under CKR_BENCH_MILLION), with the index's memory
  // and per-evaluator wall-clock and pruning counters at each scale.
  std::fprintf(f, "  \"scale_legs\": [\n");
  for (size_t i = 0; i < scale_legs.size(); ++i) {
    const ScaleLeg& leg = scale_legs[i];
    std::fprintf(f,
                 "    {\"target_docs\": %zu, \"documents\": %zu, "
                 "\"terms\": %zu, \"postings\": %llu,\n",
                 leg.target_docs, leg.docs, leg.terms,
                 static_cast<unsigned long long>(leg.postings));
    std::fprintf(f,
                 "     \"stream_build_seconds\": %.3f, "
                 "\"finalize_seconds\": %.3f, \"index_memory_bytes\": %zu,\n",
                 leg.stream_build_seconds, leg.finalize_seconds,
                 leg.index_memory_bytes);
    std::fprintf(f,
                 "     \"click_log\": {\"pairs\": %llu, "
                 "\"distinct_query_doc_pairs\": %llu, "
                 "\"distinct_queries\": %llu, \"distinct_docs\": %llu, "
                 "\"distinct_users\": %llu, \"seconds\": %.3f},\n",
                 static_cast<unsigned long long>(leg.clicks.pairs),
                 static_cast<unsigned long long>(
                     leg.clicks.distinct_query_doc_pairs),
                 static_cast<unsigned long long>(leg.clicks.distinct_queries),
                 static_cast<unsigned long long>(leg.clicks.distinct_docs),
                 static_cast<unsigned long long>(leg.clicks.distinct_users),
                 leg.click_seconds);
    std::fprintf(f,
                 "     \"results_bit_identical\": %s, \"queries\": %zu, "
                 "\"repeats\": %d, \"top_k\": %zu,\n",
                 leg.bit_identical ? "true" : "false", leg.queries,
                 leg.repeats, kScaleTopK);
    std::fprintf(f, "     \"evaluators\": [");
    for (size_t e = 0; e < 3; ++e) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"total_seconds\": %.4f, "
                   "\"postings_scored\": %llu, \"blocks_decoded\": %llu, "
                   "\"blocks_skipped\": %llu}%s",
                   kScaleEvaluatorNames[e], leg.evaluator_seconds[e],
                   static_cast<unsigned long long>(leg.postings_scored[e]),
                   static_cast<unsigned long long>(leg.blocks_decoded[e]),
                   static_cast<unsigned long long>(leg.blocks_skipped[e]),
                   e + 1 < 3 ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < scale_legs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"mining_concepts\": %zu,\n", lab->concepts.size());
  // Mining scaling is bounded by the physical cores available; record them
  // so consumers can judge the speedup_vs_1 column.
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"mining_identical_across_workers\": %s,\n",
               mining_identical ? "true" : "false");
  std::fprintf(f, "  \"mining\": [\n");
  for (size_t i = 0; i < mining.size(); ++i) {
    const MiningPoint& p = mining[i];
    std::fprintf(f,
                 "    {\"workers\": %u, \"wall_seconds\": %.6f, "
                 "\"speedup_vs_1\": %.4f}%s\n",
                 p.workers, p.wall_seconds,
                 mining.front().wall_seconds > 0
                     ? mining.front().wall_seconds / p.wall_seconds
                     : 0.0,
                 i + 1 < mining.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_offline.json\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  RunSummary();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
