// Reproduces the Section VI performance experiment with google-benchmark.
//
// Paper setup: "we used 1445 randomly chosen documents with an average
// size of 2.5KB, and each document contained 6.45 detections on average.
// The total running time of the stemmer and ranker components were 0.457
// sec and 1.519 sec, respectively, which translates to processing rates of
// 7.9MB/sec and 2.4MB/sec" (Dual Core AMD Opteron 275, 1808 MHz).
//
// We run the trained production runtime over an equivalent document set
// and report the same two throughput numbers, for both runtime layouts:
//  * legacy — string-keyed map lookups and a hash-set context (the
//    pre-flat-layout hot path, kept as ProcessDocumentLegacy);
//  * flat — the id-keyed contiguous layout with a reused scratch.
// Plus ProcessBatch scaling across worker threads. The summary run also
// verifies the two layouts produce bit-identical rankings and writes all
// measurements to BENCH_runtime.json for machine consumption.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/contextual_ranker.h"
#include "corpus/doc_generator.h"
#include "obs/metrics.h"

namespace {

using namespace ckr;

struct PerfLab {
  std::unique_ptr<ContextualRanker> ranker;
  std::vector<std::string> docs;
  std::vector<std::string_view> views;
  size_t total_bytes = 0;
};

PerfLab* GetLab() {
  static PerfLab* lab = [] {
    auto* l = new PerfLab();
    ContextualRankerOptions options;  // Paper-scale world.
    auto ranker_or = ContextualRanker::Train(options);
    if (!ranker_or.ok()) {
      std::fprintf(stderr, "train: %s\n",
                   ranker_or.status().ToString().c_str());
      std::exit(1);
    }
    l->ranker = std::move(*ranker_or);
    DocGenerator gen(l->ranker->pipeline().world());
    // 1445 documents, news-sized (~2.5 KB average), fresh ids.
    for (DocId i = 0; i < 1445; ++i) {
      Document d = gen.Generate(Document::Kind::kNews, 600000 + i);
      l->total_bytes += d.text.size();
      l->docs.push_back(std::move(d.text));
    }
    for (const std::string& d : l->docs) l->views.push_back(d);
    return l;
  }();
  return lab;
}

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool SameRanking(const std::vector<RankedAnnotation>& a,
                 const std::vector<RankedAnnotation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].begin != b[i].begin ||
        a[i].end != b[i].end || a[i].type != b[i].type ||
        a[i].score != b[i].score) {  // Exact: bit-identical scores.
      return false;
    }
  }
  return true;
}

void BM_RuntimeProcessDocument(benchmark::State& state) {
  PerfLab* lab = GetLab();
  RankerScratch scratch;
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    auto ranked =
        lab->ranker->runtime().ProcessDocument(lab->docs[i], &scratch,
                                               nullptr);
    benchmark::DoNotOptimize(ranked);
    bytes += lab->docs[i].size();
    i = (i + 1) % lab->docs.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_RuntimeProcessDocument)->Unit(benchmark::kMicrosecond);

void BM_RuntimeProcessDocumentLegacy(benchmark::State& state) {
  PerfLab* lab = GetLab();
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    auto ranked = lab->ranker->runtime().ProcessDocumentLegacy(lab->docs[i]);
    benchmark::DoNotOptimize(ranked);
    bytes += lab->docs[i].size();
    i = (i + 1) % lab->docs.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_RuntimeProcessDocumentLegacy)->Unit(benchmark::kMicrosecond);

void BM_StemmerComponent(benchmark::State& state) {
  PerfLab* lab = GetLab();
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    // The stemmer stage in isolation: tokenize + Porter-stem the document
    // (what the runtime's stemmer phase does before TID lookup).
    auto stemmed = RelevanceScorer::StemContext(lab->docs[i]);
    benchmark::DoNotOptimize(stemmed);
    bytes += lab->docs[i].size();
    i = (i + 1) % lab->docs.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_StemmerComponent)->Unit(benchmark::kMicrosecond);

void BM_ProcessBatch(benchmark::State& state) {
  PerfLab* lab = GetLab();
  unsigned threads = static_cast<unsigned>(state.range(0));
  size_t bytes = 0;
  for (auto _ : state) {
    auto results = lab->ranker->runtime().ProcessBatch(lab->views, threads);
    benchmark::DoNotOptimize(results);
    bytes += lab->total_bytes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_ProcessBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

struct BatchPoint {
  unsigned threads = 1;
  double wall_seconds = 0.0;
  double docs_per_sec = 0.0;
  double mbps = 0.0;
};

/// The paper's summary run: process all 1445 documents once per layout and
/// report component throughputs from the runtime's own instrumentation,
/// then batch wall-clock scaling. Returns the JSON blob written to disk.
void RunSummary() {
  PerfLab* lab = GetLab();
  const RuntimeRanker& runtime = lab->ranker->runtime();

  // Legacy layout (string-keyed maps, hash-set context).
  RuntimeStats legacy;
  std::vector<std::vector<RankedAnnotation>> legacy_out;
  legacy_out.reserve(lab->docs.size());
  for (const std::string& text : lab->docs) {
    legacy_out.push_back(runtime.ProcessDocumentLegacy(text, &legacy));
  }

  // Flat layout, single thread, one reused scratch. The ckr_obs stage
  // histograms are sampled before/after so the deltas cover exactly this
  // pass (training above already recorded into the same histograms). In
  // an obs-off build (CKR_OBS_DISABLED) the hooks are compiled out and
  // every delta is zero — the JSON records that honestly.
  struct StageProbe {
    const char* key;
    obs::Histogram* hist;
    uint64_t calls0 = 0, calls = 0;
    double seconds0 = 0.0, seconds = 0.0;
  };
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  StageProbe stages[] = {
      {"stem", reg.GetHistogram("ckr.runtime.stage.stem_seconds")},
      {"match", reg.GetHistogram("ckr.runtime.stage.match_seconds")},
      {"score", reg.GetHistogram("ckr.runtime.stage.score_seconds")},
  };
  for (StageProbe& s : stages) {
    s.calls0 = s.hist->Count();
    s.seconds0 = s.hist->Sum();
  }
  // The Stemmer's surface-form memo starts cold in the fresh scratch, so
  // its misses over this pass are the documents' distinct forms.
  struct MemoProbe {
    const char* key;
    obs::Counter* counter;
    uint64_t before = 0, delta = 0;
  };
  MemoProbe memo[] = {
      {"hits", reg.GetCounter("ckr.runtime.stem_memo_hits")},
      {"misses", reg.GetCounter("ckr.runtime.stem_memo_misses")},
      {"resets", reg.GetCounter("ckr.runtime.stem_memo_resets")},
  };
  for (MemoProbe& m : memo) m.before = m.counter->Value();
  RuntimeStats flat;
  RankerScratch scratch;
  std::vector<std::vector<RankedAnnotation>> flat_out;
  flat_out.reserve(lab->docs.size());
  for (const std::string& text : lab->docs) {
    flat_out.push_back(runtime.ProcessDocument(text, &scratch, &flat));
  }
  for (StageProbe& s : stages) {
    s.calls = s.hist->Count() - s.calls0;
    s.seconds = s.hist->Sum() - s.seconds0;
  }
  for (MemoProbe& m : memo) m.delta = m.counter->Value() - m.before;
  const uint64_t memo_tokens = memo[0].delta + memo[1].delta;

  bool identical = true;
  uint64_t detections = 0;
  for (size_t i = 0; i < lab->docs.size(); ++i) {
    identical = identical && SameRanking(legacy_out[i], flat_out[i]);
    detections += flat_out[i].size();
  }

  // Batch scaling (wall-clock, includes the fan-out overhead).
  std::vector<BatchPoint> batch;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    auto t0 = std::chrono::steady_clock::now();
    auto results = runtime.ProcessBatch(lab->views, threads);
    BatchPoint p;
    p.threads = threads;
    p.wall_seconds = WallSeconds(t0);
    p.docs_per_sec = p.wall_seconds > 0
                         ? static_cast<double>(results.size()) / p.wall_seconds
                         : 0.0;
    p.mbps = p.wall_seconds > 0
                 ? static_cast<double>(lab->total_bytes) / 1e6 / p.wall_seconds
                 : 0.0;
    identical = identical && results.size() == flat_out.size();
    for (size_t i = 0; i < results.size(); ++i) {
      identical = identical && SameRanking(results[i], flat_out[i]);
    }
    batch.push_back(p);
  }

  double ranker_speedup =
      legacy.RankerMBps() > 0 ? flat.RankerMBps() / legacy.RankerMBps() : 0.0;

  std::printf("=== Section VI performance (paper: 1445 docs, avg 2.5KB, "
              "6.45 detections; stemmer 7.9 MB/s, ranker 2.4 MB/s) ===\n");
  std::printf("documents: %llu, avg size %.2f KB, avg detections %.2f\n",
              static_cast<unsigned long long>(flat.documents),
              static_cast<double>(flat.bytes_processed) /
                  static_cast<double>(flat.documents) / 1000.0,
              static_cast<double>(detections) /
                  static_cast<double>(flat.documents));
  std::printf("layout   stemmer MB/s   ranker MB/s   docs/s\n");
  std::printf("legacy   %12.1f  %12.1f  %7.0f\n", legacy.StemmerMBps(),
              legacy.RankerMBps(), legacy.DocsPerSec());
  std::printf("flat     %12.1f  %12.1f  %7.0f\n", flat.StemmerMBps(),
              flat.RankerMBps(), flat.DocsPerSec());
  std::printf("flat ranker split: match %.1f MB/s, score %.1f MB/s\n",
              flat.MatchMBps(), flat.ScoreMBps());
  std::printf("obs per-stage (flat pass%s):\n",
              stages[0].calls == 0 ? ", hooks compiled out" : "");
  for (const StageProbe& s : stages) {
    std::printf("  %-6s %8llu samples  %.4f s  %8.2f us/doc\n", s.key,
                static_cast<unsigned long long>(s.calls), s.seconds,
                s.calls > 0 ? s.seconds / static_cast<double>(s.calls) * 1e6
                            : 0.0);
  }
  std::printf("  stem memo: %llu hits, %llu misses (%.1f%% hits), %llu "
              "resets\n",
              static_cast<unsigned long long>(memo[0].delta),
              static_cast<unsigned long long>(memo[1].delta),
              memo_tokens > 0 ? 100.0 * static_cast<double>(memo[0].delta) /
                                    static_cast<double>(memo_tokens)
                              : 0.0,
              static_cast<unsigned long long>(memo[2].delta));
  std::printf("ranker speedup (flat / legacy): %.2fx\n", ranker_speedup);
  std::printf("outputs bit-identical across layouts and batch: %s\n",
              identical ? "yes" : "NO");
  std::printf("batch scaling (wall-clock, %u hardware threads):\n",
              std::thread::hardware_concurrency());
  for (const BatchPoint& p : batch) {
    std::printf("  %u thread%s  %.3f s  %7.0f docs/s  %6.1f MB/s  %.2fx\n",
                p.threads, p.threads == 1 ? " " : "s", p.wall_seconds,
                p.docs_per_sec, p.mbps,
                batch.front().wall_seconds > 0
                    ? batch.front().wall_seconds / p.wall_seconds
                    : 0.0);
  }
  std::printf("\n");

  std::FILE* f = std::fopen("BENCH_runtime.json", "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_runtime.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"documents\": %llu,\n",
               static_cast<unsigned long long>(flat.documents));
  std::fprintf(f, "  \"total_bytes\": %zu,\n", lab->total_bytes);
  // Batch scaling is bounded by the physical cores available; record them
  // so consumers can judge the speedup_vs_1 column.
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"avg_detections\": %.4f,\n",
               static_cast<double>(detections) /
                   static_cast<double>(flat.documents));
  std::fprintf(f,
               "  \"legacy\": {\"stemmer_seconds\": %.6f, \"ranker_seconds\": "
               "%.6f, \"stemmer_mbps\": %.3f, \"ranker_mbps\": %.3f, "
               "\"docs_per_sec\": %.1f},\n",
               legacy.stemmer_seconds, legacy.ranker_seconds,
               legacy.StemmerMBps(), legacy.RankerMBps(), legacy.DocsPerSec());
  std::fprintf(f,
               "  \"flat\": {\"stemmer_seconds\": %.6f, \"ranker_seconds\": "
               "%.6f, \"match_seconds\": %.6f, \"score_seconds\": %.6f, "
               "\"stemmer_mbps\": %.3f, \"ranker_mbps\": %.3f, "
               "\"match_mbps\": %.3f, \"score_mbps\": %.3f, "
               "\"docs_per_sec\": %.1f},\n",
               flat.stemmer_seconds, flat.ranker_seconds, flat.match_seconds,
               flat.score_seconds, flat.StemmerMBps(), flat.RankerMBps(),
               flat.MatchMBps(), flat.ScoreMBps(), flat.DocsPerSec());
  // Per-stage breakdown from the ckr_obs histograms (deltas over the
  // flat pass only; all zeros when built with CKR_OBS_DISABLED).
  std::fprintf(f, "  \"obs_stages\": {");
  for (size_t i = 0; i < std::size(stages); ++i) {
    const StageProbe& s = stages[i];
    std::fprintf(f, "%s\"%s\": {\"samples\": %llu, \"seconds\": %.6f}",
                 i == 0 ? "" : ", ", s.key,
                 static_cast<unsigned long long>(s.calls), s.seconds);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"stem_memo\": {");
  for (size_t i = 0; i < std::size(memo); ++i) {
    std::fprintf(f, "%s\"%s\": %llu", i == 0 ? "" : ", ", memo[i].key,
                 static_cast<unsigned long long>(memo[i].delta));
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"ranker_speedup_flat_over_legacy\": %.4f,\n",
               ranker_speedup);
  std::fprintf(f, "  \"outputs_bit_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"batch\": [\n");
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchPoint& p = batch[i];
    std::fprintf(f,
                 "    {\"threads\": %u, \"wall_seconds\": %.6f, "
                 "\"docs_per_sec\": %.1f, \"mbps\": %.3f, "
                 "\"speedup_vs_1\": %.4f}%s\n",
                 p.threads, p.wall_seconds, p.docs_per_sec, p.mbps,
                 batch.front().wall_seconds > 0
                     ? batch.front().wall_seconds / p.wall_seconds
                     : 0.0,
                 i + 1 < batch.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_runtime.json\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  RunSummary();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
