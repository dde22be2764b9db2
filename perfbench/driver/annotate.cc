// annotate_news: the paper's product (Section VI). One closed-loop client
// calls RuntimeRanker::ProcessDocument on paper-regime news documents
// after paper-scale training.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/contextual_ranker.h"
#include "corpus/doc_generator.h"
#include "obs/metrics.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using ckr::ContextualRanker;
using ckr::RankedAnnotation;

/// The paper's Section VI document count.
constexpr size_t kDocs = 1445;
/// News ids far above the training corpus, so every document is unseen.
constexpr uint64_t kFirstDocId = 600000;

uint64_t HashRanking(const std::vector<RankedAnnotation>& ranked) {
  uint64_t h = kFnvOffset;
  for (const RankedAnnotation& a : ranked) {
    h = Fnv1a(h, a.key.data(), a.key.size());
    h = Fnv1aU64(h, a.begin);
    h = Fnv1aU64(h, a.end);
    h = Fnv1aU64(h, static_cast<uint64_t>(a.type));
    h = Fnv1aDouble(h, a.score);
  }
  return h;
}

/// Every annotation lies inside the text and the list is best first.
bool WellFormed(const std::vector<RankedAnnotation>& ranked,
                size_t text_size) {
  for (size_t i = 0; i < ranked.size(); ++i) {
    const RankedAnnotation& a = ranked[i];
    if (a.key.empty() || a.begin >= a.end || a.end > text_size) return false;
    if (i > 0 && ranked[i - 1].score < a.score) return false;
  }
  return true;
}

uint64_t CounterValue(const char* name) {
  return ckr::obs::MetricRegistry::Global().GetCounter(name)->Value();
}

double HistogramSum(const char* name) {
  return ckr::obs::MetricRegistry::Global().GetHistogram(name)->Sum();
}

struct Counters {
  uint64_t documents, raw_detections, sig_tested, sig_rejected,
      windows_tested, windows_rejected;

  static Counters Read() {
    return {CounterValue("ckr.detect.documents"),
            CounterValue("ckr.detect.raw_detections"),
            CounterValue("ckr.sig.docs_tested"),
            CounterValue("ckr.sig.docs_rejected"),
            CounterValue("ckr.sig.windows_tested"),
            CounterValue("ckr.sig.windows_rejected")};
  }
};

}  // namespace

Report RunAnnotateNews(const RunOptions& options) {
  Report report;

  // Set-up: paper-scale training, timed per call; setup_s is the median
  // of kSetupRepeats trainings, and the last model serves the run.
  ckr::ContextualRankerOptions train;
  train.dataset.num_threads = kTrainThreads;
  train.svm.num_threads = 1;
  const char* kStages[] = {"ckr.offline.stage.dataset_build_seconds",
                           "ckr.offline.stage.mine_all_seconds",
                           "ckr.ranksvm.stage.train_seconds"};
  double stage_before[3];
  for (int i = 0; i < 3; ++i) stage_before[i] = HistogramSum(kStages[i]);
  std::unique_ptr<ContextualRanker> trained;
  std::vector<double> setup_times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    trained.reset();  // Frees the previous model before the next trains.
    const int64_t setup_start = NowNs();
    auto ranker_or = ContextualRanker::Train(train);
    setup_times.push_back(SecondsBetween(setup_start, NowNs()));
    if (!ranker_or.ok()) {
      Fail("ContextualRanker::Train: " + ranker_or.status().ToString());
    }
    trained = std::move(ranker_or).value();
  }
  const double setup_s = Median(setup_times);
  const ContextualRanker& ranker = *trained;
  const ckr::RuntimeRanker& runtime = ranker.runtime();
  std::printf("setup: ContextualRanker::Train median %.3f s of %d (", setup_s,
              kSetupRepeats);
  for (double t : setup_times) std::printf(" %.3f", t);
  std::printf(" )\n");

  // Inputs: the seed picks the documents and the order they are sent in.
  ckr::DocGenerator gen(ranker.pipeline().world());
  std::vector<std::string> docs;
  std::vector<std::string_view> views;
  const uint64_t first_id = kFirstDocId + (options.seed % 100000) * kDocs;
  size_t total_bytes = 0;
  for (size_t i = 0; i < kDocs; ++i) {
    docs.push_back(gen.Generate(ckr::Document::Kind::kNews,
                                static_cast<ckr::DocId>(first_id + i))
                       .text);
    total_bytes += docs.back().size();
  }
  for (const std::string& d : docs) views.push_back(d);
  ckr::Rng rng(options.seed);
  const std::vector<size_t> order = rng.Permutation(kDocs);

  // Untimed warm-up pass. Its outputs are the reference every measured
  // call must reproduce bit for bit; they must also agree with the
  // parallel batch path and be well formed, or the document is marked
  // bad and every measured call on it counts as failed.
  ckr::RankerScratch scratch;
  std::vector<uint64_t> reference(kDocs);
  std::vector<bool> bad(kDocs, false);
  size_t annotations = 0;
  const int64_t warm_start = NowNs();
  for (size_t idx : order) {
    std::vector<RankedAnnotation> ranked =
        runtime.ProcessDocument(docs[idx], &scratch, nullptr);
    reference[idx] = HashRanking(ranked);
    annotations += ranked.size();
    if (!WellFormed(ranked, docs[idx].size())) bad[idx] = true;
  }
  const double warm_s = SecondsBetween(warm_start, NowNs());
  const auto batch = ranker.RankBatch(views, kTrainThreads);
  size_t bad_docs = 0;
  uint64_t fingerprint = kFnvOffset;
  for (size_t i = 0; i < kDocs; ++i) {
    if (HashRanking(batch[i]) != reference[i]) bad[i] = true;
    if (bad[i]) ++bad_docs;
    fingerprint = Fnv1aU64(fingerprint, reference[i]);
  }
  std::printf("inputs: %zu news docs, avg %.0f bytes, avg %.2f ranked "
              "annotations\n",
              kDocs, static_cast<double>(total_bytes) / kDocs,
              static_cast<double>(annotations) / kDocs);
  std::printf("warmup: 1 pass, %.3f s\n", warm_s);
  std::printf("fingerprint: %016llx (FNV-1a of the ranked annotations in "
              "doc order)\n",
              static_cast<unsigned long long>(fingerprint));
  if (bad_docs > 0) {
    std::printf("verify: %zu docs malformed or differ from RankBatch\n",
                bad_docs);
  }

  // Measured phase: passes over the seeded order until time is up.
  Tracer tracer(200000);
  ckr::RuntimeStats stage_totals;
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
  untraced_us.reserve(1 << 20);
  if (options.trace) traced_us.reserve(1 << 20);
  const Counters before = Counters::Read();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  uint64_t request = 0;
  uint64_t passes = 0;
  int64_t now = start;
  while (now < deadline) {
    for (size_t idx : order) {
      now = NowNs();
      if (now >= deadline) break;
      const bool traced = options.trace && InTracedWindow(start, now);
      ckr::RuntimeStats stats;
      const int64_t a = NowNs();
      std::vector<RankedAnnotation> ranked =
          runtime.ProcessDocument(docs[idx], &scratch, traced ? &stats : nullptr);
      const int64_t b = NowNs();
      report.ops.Record(!bad[idx] && HashRanking(ranked) == reference[idx]);
      const double us = static_cast<double>(b - a) / 1e3;
      if (!traced) {
        untraced_us.push_back(us);
        continue;
      }
      traced_us.push_back(us);
      stage_totals.Merge(stats);
      const int64_t d = NowNs();
      tracer.Begin(request++);
      tracer.Add("client.annotate", -1, a, d);
      const int32_t call = tracer.Add("framework.process_document", 0, a, b);
      // ProcessDocument runs stem, match and score back to back and
      // reports each stage's duration; the spans lay them end to end
      // from the call's start.
      const int64_t stem_end = a + static_cast<int64_t>(stats.stemmer_seconds * 1e9);
      const int64_t match_end =
          stem_end + static_cast<int64_t>(stats.match_seconds * 1e9);
      const int64_t score_end =
          match_end + static_cast<int64_t>(stats.score_seconds * 1e9);
      tracer.Add("text.stem", call, a, stem_end);
      tracer.Add("detect.match", call, stem_end, match_end);
      tracer.Add("framework.score", call, match_end, score_end);
      tracer.End();
    }
    if (now < deadline) ++passes;
  }
  const double wall_s = SecondsBetween(start, NowNs());
  const Counters after = Counters::Read();

  const LatencyStats lat = Summarize(untraced_us);
  std::printf("measured: %.3f s, %llu complete passes, %llu ops, %llu "
              "failed\n",
              wall_s, static_cast<unsigned long long>(passes),
              static_cast<unsigned long long>(report.ops.attempted),
              static_cast<unsigned long long>(report.ops.failed));
  std::printf("latency: p50 %.2f us, p99 %.2f us over %zu untraced "
              "samples\n",
              lat.p50_us, lat.p99_us, lat.samples);

  report.correct = report.ops.failed == 0 && bad_docs == 0;
  auto& m = report.metrics;
  m["setup_s"] = setup_s;
  m["p50_us"] = lat.p50_us;
  m["p99_us"] = lat.p99_us;
  m["ops_per_s"] = report.ops.OpsPerSecond(wall_s);
  m["rss_mb"] = PeakRssMb();

  if (options.trace) {
    const LatencyStats traced = Summarize(traced_us);
    std::printf("traced: p50 %.2f us over %zu samples; %zu spans kept, "
                "%llu dropped\n",
                traced.p50_us, traced.samples, tracer.kept(),
                static_cast<unsigned long long>(tracer.dropped()));
    const double docs_traced =
        static_cast<double>(stage_totals.documents > 0 ? stage_totals.documents
                                                       : 1);
    m["text.stem_us"] = stage_totals.stemmer_seconds * 1e6 / docs_traced;
    m["detect.match_us"] = stage_totals.match_seconds * 1e6 / docs_traced;
    m["framework.score_us"] = stage_totals.score_seconds * 1e6 / docs_traced;
    m["detect.detections_per_doc"] =
        DeltaRatio(before.raw_detections, after.raw_detections,
                   before.documents, after.documents);
    m["detect.sig_reject_frac"] =
        DeltaRatio(before.sig_rejected, after.sig_rejected, before.sig_tested,
                   after.sig_tested);
    m["detect.window_reject_frac"] =
        DeltaRatio(before.windows_rejected, after.windows_rejected,
                   before.windows_tested, after.windows_tested);
    const char* kStageMetrics[] = {"core.dataset_build_s", "features.mine_s",
                                   "ranksvm.train_s"};
    for (int i = 0; i < 3; ++i) {
      m[kStageMetrics[i]] =
          (HistogramSum(kStages[i]) - stage_before[i]) / kSetupRepeats;
    }
    m["trace.coverage_frac"] = tracer.Coverage("client.annotate");
    m["trace.overhead_us"] = traced.p50_us - lat.p50_us;
    // The stage spans are leaves: their self time is the stage time
    // reported above.
    for (const char* span : {"client.annotate", "framework.process_document"}) {
      m[std::string("self.") + span + "_us"] = tracer.MeanSelfUs(span);
    }
    if (!tracer.WriteTsv(options.spans_path, start)) {
      Fail("cannot write spans to " + options.spans_path);
    }
  }
  return report;
}

}  // namespace perfbench
