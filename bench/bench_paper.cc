// The paper driver: reproduces Section V (Tables II-VI, Figures 1-3, the
// §V-C production A/B replay), the design-choice ablations and the §VIII
// online-adaptation scenario in one run.
//
// Each distinct lab is built once: the default pipeline and click dataset
// (Tables II-VI, §V-C, ablations A-with, B, C and D), the pipeline without
// the concept vector's multi-term bonus (ablation A), a dataset without
// window overlap (ablation B) and the §VIII ContextualRanker. A result two
// tables share is computed once from the same inputs. The driver prints
// every table and writes BENCH_paper.json into the working directory: one
// record per printed row plus each section's headline scalars, numbers in
// shortest round-trip form. The file is a deterministic golden;
// scripts/check_all.sh diffs a fresh run against the committed copy.
//
// Usage: bench_paper   (no flags; 67 s on a 4-vCPU VM)
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "core/contextual_ranker.h"
#include "core/experiment.h"
#include "corpus/doc_generator.h"
#include "eval/editorial.h"
#include "features/relevance.h"
#include "framework/runtime_ranker.h"
#include "online/ctr_tracker.h"

namespace {

using namespace ckr;

template <typename T>
T OrExit(StatusOr<T> value_or, const char* what) {
  if (!value_or.ok()) {
    std::fprintf(stderr, "%s: %s\n", what,
                 value_or.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*value_or);
}

// ---- BENCH_paper.json ----

/// One JSON object on one line; fields keep their insertion order.
class Record {
 public:
  Record& Num(const char* key, double value) {
    char buf[32];
    auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    return Field(key, std::string(buf, end));
  }
  /// Every string written is a literal or a generated concept key, so
  /// none needs escaping.
  Record& Str(const char* key, const std::string& value) {
    return Field(key, "\"" + value + "\"");
  }
  Record& Flag(const char* key, bool value) {
    return Field(key, value ? "true" : "false");
  }
  bool empty() const { return body_.empty(); }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  Record& Field(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_.append("\"").append(key).append("\": ").append(value);
    return *this;
  }
  std::string body_;
};

struct Section {
  std::string name;
  std::vector<Record> rows;
  Record headline;
};

void WriteJson(const std::deque<Section>& sections, const char* path) {
  std::string out = "{\n";
  for (size_t s = 0; s < sections.size(); ++s) {
    const Section& sec = sections[s];
    out += "  \"" + sec.name + "\": {\n    \"rows\": [";
    for (size_t i = 0; i < sec.rows.size(); ++i) {
      out += (i == 0 ? "\n      " : ",\n      ") + sec.rows[i].Json();
    }
    out += sec.rows.empty() ? "],\n" : "\n    ],\n";
    out += "    \"headline\": " + sec.headline.Json() + "\n  }" +
           (s + 1 < sections.size() ? ",\n" : "\n");
  }
  out += "}\n";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr ||
      std::fwrite(out.data(), 1, out.size(), f) != out.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
}

// ---- Printing: each helper prints one row and records it ----

/// One technique's row: weighted error + bootstrap CI (+ paper number).
void PrintRow(Section* sec, const char* name, double paper_werr,
              const EvalResult& r) {
  std::printf("  %-34s %6.2f%%  [%5.2f, %5.2f]", name,
              100.0 * r.weighted_error_rate, 100.0 * r.weighted_error_ci.lo,
              100.0 * r.weighted_error_ci.hi);
  if (paper_werr > 0) std::printf("   (paper: %5.2f%%)", paper_werr);
  std::printf("\n");
  Record rec;
  rec.Str("technique", name)
      .Num("weighted_error_pct", 100.0 * r.weighted_error_rate)
      .Num("ci_lo_pct", 100.0 * r.weighted_error_ci.lo)
      .Num("ci_hi_pct", 100.0 * r.weighted_error_ci.hi);
  if (paper_werr > 0) rec.Num("paper_pct", paper_werr);
  sec->rows.push_back(rec);
}

void PrintNdcg(Section* sec, const char* name, const EvalResult& r) {
  std::printf("  %-34s ndcg@1=%.3f  ndcg@2=%.3f  ndcg@3=%.3f\n", name,
              r.ndcg[0], r.ndcg[1], r.ndcg[2]);
  sec->rows.push_back(Record()
                          .Str("technique", name)
                          .Num("ndcg1", r.ndcg[0])
                          .Num("ndcg2", r.ndcg[1])
                          .Num("ndcg3", r.ndcg[2]));
}

/// The paper evaluates linear and RBF kernels with default parameters and
/// reports the best result (Section V-A.3). When `linear_out` is non-null
/// it receives the linear kernel's result, which is also what a default
/// (linear) ModelSpec cross-validates to.
EvalResult BestOfKernels(const ExperimentRunner& runner, ModelSpec spec,
                         EvalResult* linear_out = nullptr) {
  spec.svm.kernel = SvmKernel::kLinear;
  EvalResult linear = OrExit(runner.EvaluateModelCV(spec), "model");
  if (linear_out != nullptr) *linear_out = linear;
  spec.svm.kernel = SvmKernel::kRbfFourier;
  auto rbf = runner.EvaluateModelCV(spec);
  if (!rbf.ok()) return linear;
  return linear.weighted_error_rate <= rbf->weighted_error_rate ? linear
                                                                : *rbf;
}

// ---- Table VI and §V-C: ranking the detections of unseen stories ----

/// Distinct non-pattern detections of a document, in detection order.
struct Candidates {
  std::vector<std::string> keys;
  std::vector<EntityType> types;
  std::vector<size_t> positions;
};

Candidates DetectCandidates(const Pipeline& p, const std::string& text) {
  Candidates c;
  std::unordered_set<std::string> seen;
  for (const Detection& d : p.detector().Detect(text)) {
    if (d.type == EntityType::kPattern) continue;
    if (!seen.insert(d.key).second) continue;
    c.keys.push_back(d.key);
    c.types.push_back(d.type);
    c.positions.push_back(d.begin);
  }
  return c;
}

/// Scores candidates with the deployed combined model, caching each
/// concept's static features (interestingness vector, mined keywords) the
/// first time it is seen.
class ModelScorer {
 public:
  ModelScorer(const Pipeline& p, const RankSvmModel& model, ModelSpec spec)
      : p_(p), model_(model), spec_(spec) {}

  std::vector<double> Score(const std::string& text, const Candidates& c) {
    auto stemmed = RelevanceScorer::StemContext(text);
    std::vector<double> scores;
    for (size_t i = 0; i < c.keys.size(); ++i) {
      const std::string& key = c.keys[i];
      if (ivec_.count(key) == 0) {
        ivec_[key] = p_.interestingness().Extract(key, c.types[i]);
        scorer_.AddConcept(key, p_.relevance_miner().Mine(
                                    key, RelevanceResource::kSnippets, 100));
      }
      WindowInstance inst;
      inst.interestingness = ivec_[key];
      inst.relevance[0] = scorer_.Score(key, stemmed);
      scores.push_back(model_.Score(ExperimentRunner::Features(inst, spec_)) +
                       1e-9 * inst.relevance[0]);
    }
    return scores;
  }

 private:
  const Pipeline& p_;
  const RankSvmModel& model_;
  ModelSpec spec_;
  std::unordered_map<std::string, InterestingnessVector> ivec_;
  RelevanceScorer scorer_;
};

/// Indexes of the `n` best-scoring keys; ties go to the smaller key.
std::vector<size_t> TopIndexes(const std::vector<double>& scores,
                               const std::vector<std::string>& keys,
                               size_t n) {
  std::vector<size_t> order(keys.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return keys[a] < keys[b];
  });
  if (order.size() > n) order.resize(n);
  return order;
}

// ---- Table II ----

void TableII(const Pipeline& p, Section* sec) {
  struct Row {
    std::string key;
    double summation;
    bool generic;
  };
  std::vector<Row> rows;
  for (const Entity& e : p.world().entities()) {
    if (e.TermCount() < 2) continue;  // Table II shows multi-term concepts.
    auto terms =
        p.relevance_miner().Mine(e.key, RelevanceResource::kSnippets, 100);
    rows.push_back({e.key, RelevanceMiner::SummationOfScores(terms),
                    e.is_generic});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.summation > b.summation;
  });

  std::printf("=== Table II: concepts and their summation values ===\n");
  std::printf("Paper (upper): methicillin resistant staphylococcus aureus "
              "9544.3 | motorola razr v3m silver 9118.7 | egyptian foreign "
              "minister ahmed aboul gheit 9024.9\n");
  std::printf("Paper (lower): my favorite 2142.9 | the other 1718.0 | what "
              "is happening 1503.0\n\n");

  std::printf("%-40s %12s %s\n", "concept", "summation", "kind");
  auto print = [&](const char* end, size_t i) {
    const char* kind = rows[i].generic ? "GENERIC" : "specific";
    std::printf("%-40s %12.1f %s\n", rows[i].key.c_str(), rows[i].summation,
                kind);
    sec->rows.push_back(Record()
                            .Str("end", end)
                            .Str("concept", rows[i].key)
                            .Num("summation", rows[i].summation)
                            .Str("kind", kind));
  };
  std::printf("---- top of the sorted list ----\n");
  for (size_t i = 0; i < std::min<size_t>(5, rows.size()); ++i) {
    print("top", i);
  }
  std::printf("---- bottom of the sorted list ----\n");
  for (size_t i = rows.size() >= 5 ? rows.size() - 5 : 0; i < rows.size();
       ++i) {
    print("bottom", i);
  }

  // Aggregate separation: mean of the specific top decile vs generic mean.
  double top_decile = 0;
  size_t top_n = std::max<size_t>(1, rows.size() / 10);
  size_t counted = 0;
  for (const Row& r : rows) {
    if (counted >= top_n) break;
    if (!r.generic) {
      top_decile += r.summation;
      ++counted;
    }
  }
  top_decile /= static_cast<double>(counted);
  double generic_mean = 0;
  size_t generic_n = 0;
  double generic_in_top_half = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].generic) continue;
    generic_mean += rows[i].summation;
    ++generic_n;
    if (i < rows.size() / 2) ++generic_in_top_half;
  }
  generic_mean /= static_cast<double>(std::max<size_t>(1, generic_n));
  double generic_top_half_pct =
      100.0 * static_cast<double>(generic_in_top_half) /
      static_cast<double>(std::max<size_t>(1, generic_n));

  std::printf("\nmeasured: specific top-decile mean = %.1f, generic mean = "
              "%.1f (ratio %.2fx; paper's extremes ratio ~4.8x)\n",
              top_decile, generic_mean, top_decile / generic_mean);
  std::printf("generic concepts in the top half of the ranking: %.0f%% "
              "(paper: generic concepts rank very low)\n",
              generic_top_half_pct);
  sec->headline.Num("specific_top_decile_mean", top_decile)
      .Num("generic_mean", generic_mean)
      .Num("ratio", top_decile / generic_mean)
      .Num("generic_in_top_half_pct", generic_top_half_pct);
}

// ---- Table VI ----

void PrintDistribution(Section* sec, const char* ranker, const char* scale,
                       const char* row_name, double news, double answers) {
  std::printf("  %-12s %-22s %5.1f%%   %5.1f%%\n", scale, row_name,
              100.0 * news, 100.0 * answers);
  sec->rows.push_back(Record()
                          .Str("ranker", ranker)
                          .Str("scale", scale)
                          .Str("judgment", row_name)
                          .Num("news_pct", 100.0 * news)
                          .Num("answers_pct", 100.0 * answers));
}

void TableVI(const Pipeline& p, const RankSvmModel& model,
             const ModelSpec& spec, Section* sec) {
  // Test corpus: 400 news stories + 800 answers snippets (paper sizes).
  // News documents come from beyond the click-training range.
  DocGenerator gen(p.world());
  std::vector<Document> news, answers;
  for (DocId i = 0; i < 400; ++i) {
    news.push_back(gen.Generate(Document::Kind::kNews, 700000 + i));
  }
  for (DocId i = 0; i < 800; ++i) {
    answers.push_back(gen.Generate(Document::Kind::kAnswers, 800000 + i));
  }

  ModelScorer scorer(p, model, spec);
  EditorialPanel panel(p.world());

  struct Cell {
    JudgmentDistribution dist;
    size_t entities = 0;
  };
  // Judges each document's top-k under the concept-vector score, or under
  // the model when `use_model` is set.
  auto judge = [&](const std::vector<Document>& docs, size_t k,
                   bool use_model) {
    std::vector<JudgingTask> tasks;
    for (const Document& d : docs) {
      Candidates c = DetectCandidates(p, d.text);
      std::vector<double> scores =
          use_model ? scorer.Score(d.text, c)
                    : p.concept_vectors().ScoreCandidates(d.text, c.keys);
      for (size_t idx : TopIndexes(scores, c.keys, k)) {
        tasks.push_back({&d, c.keys[idx]});
      }
    }
    Cell cell;
    cell.dist = panel.JudgeAll(tasks);
    cell.entities = tasks.size();
    return cell;
  };

  // Top-3 in News, top-2 in Answers (paper Section V-B.2).
  Cell cv_news = judge(news, 3, false);
  Cell cv_ans = judge(answers, 2, false);
  Cell ml_news = judge(news, 3, true);
  Cell ml_ans = judge(answers, 2, true);

  std::printf("=== Table VI: editorial study (%zu news + %zu answers "
              "documents) ===\n",
              news.size(), answers.size());
  std::printf("judged entities: cv news=%zu answers=%zu | model news=%zu "
              "answers=%zu\n\n",
              cv_news.entities, cv_ans.entities, ml_news.entities,
              ml_ans.entities);

  auto block = [&](const char* ranker, const char* title, const Cell& n,
                   const Cell& a) {
    std::printf("%s                                 News    Answers\n", title);
    const char* interest[] = {"Very Interesting", "Somewhat Interesting",
                              "Not Interesting"};
    const char* relevance[] = {"Very Relevant", "Somewhat Relevant",
                               "Not Relevant"};
    for (size_t j = 0; j < 3; ++j) {
      PrintDistribution(sec, ranker, "Interest", interest[j],
                        n.dist.interest[j], a.dist.interest[j]);
    }
    for (size_t j = 0; j < 3; ++j) {
      PrintDistribution(sec, ranker, "Relevance", relevance[j],
                        n.dist.relevance[j], a.dist.relevance[j]);
    }
  };
  block("concept_vector",
        "-- Concept Vector Score (paper: VI 32.6/35.9, VR 53.0/50.3) --",
        cv_news, cv_ans);
  std::printf("\n");
  block("ranking_algorithm",
        "-- Ranking Algorithm    (paper: VI 45.4/41.6, VR 66.3/61.3) --",
        ml_news, ml_ans);

  // Headline aggregates.
  double cv_bad = (cv_news.dist.interest[2] + cv_ans.dist.interest[2] +
                   cv_news.dist.relevance[2] + cv_ans.dist.relevance[2]) /
                  4.0;
  double ml_bad = (ml_news.dist.interest[2] + ml_ans.dist.interest[2] +
                   ml_news.dist.relevance[2] + ml_ans.dist.relevance[2]) /
                  4.0;
  std::printf("\nnon-interesting/non-relevant average: %.1f%% -> %.1f%% "
              "(-%.0f%%; paper: 23.3%% -> 12.8%%, -45%%)\n",
              100 * cv_bad, 100 * ml_bad, 100 * (cv_bad - ml_bad) / cv_bad);
  double cv_ratio = cv_news.dist.relevance[0] /
                    std::max(1e-9, cv_news.dist.relevance[1]);
  double ml_ratio = ml_news.dist.relevance[0] /
                    std::max(1e-9, ml_news.dist.relevance[1]);
  std::printf("Very/Somewhat relevant ratio in News: %.2f -> %.2f "
              "(paper: 1.82 -> 2.52)\n",
              cv_ratio, ml_ratio);
  sec->headline
      .Num("cv_news_entities", static_cast<double>(cv_news.entities))
      .Num("cv_answers_entities", static_cast<double>(cv_ans.entities))
      .Num("model_news_entities", static_cast<double>(ml_news.entities))
      .Num("model_answers_entities", static_cast<double>(ml_ans.entities))
      .Num("cv_not_interesting_or_relevant_pct", 100 * cv_bad)
      .Num("model_not_interesting_or_relevant_pct", 100 * ml_bad)
      .Num("reduction_pct", 100 * (cv_bad - ml_bad) / cv_bad)
      .Num("cv_news_very_somewhat_relevant_ratio", cv_ratio)
      .Num("model_news_very_somewhat_relevant_ratio", ml_ratio);
}

// ---- §V-C ----

/// Replays the production change. The control arm runs the old production
/// behaviour (annotate every detected entity); the treatment arm annotates
/// only the learned ranker's top picks. "Views" counts annotation
/// impressions (annotations shown x story views).
void ProductionAb(const Pipeline& p, const RankSvmModel& model,
                  const ModelSpec& spec, Section* sec) {
  struct ArmTotals {
    double views = 0;
    double clicks = 0;

    double Ctr() const { return views > 0 ? clicks / views : 0.0; }
  };
  ModelScorer scorer(p, model, spec);

  // The old production system annotated every detected entity; the new
  // setup annotates "much fewer", keeping only the learned ranker's top
  // picks.
  const size_t kControlAnnotations = 1000;  // Effectively "all detections".
  const size_t kTreatmentAnnotations = 4;
  DocGenerator gen(p.world());

  ArmTotals control, treatment, oracle;
  const DocId kStories = 600;  // Fresh traffic beyond the training range.
  for (DocId i = 0; i < kStories; ++i) {
    Document story = gen.Generate(Document::Kind::kNews, 900000 + i);
    Candidates c = DetectCandidates(p, story.text);
    if (c.keys.empty()) continue;

    std::vector<double> cv_scores =
        p.concept_vectors().ScoreCandidates(story.text, c.keys);
    std::vector<double> ml_scores = scorer.Score(story.text, c);

    // Shared traffic and shared user behaviour across arms.
    Rng traffic(Mix64(HashCombine(4242, story.id)));
    double story_views =
        p.clicks().config().mean_views *
        std::exp(p.clicks().config().views_sigma * traffic.NextGaussian());
    auto run_arm = [&](const std::vector<size_t>& picked, ArmTotals* arm) {
      for (size_t idx : picked) {
        Rng user = traffic.Fork(Fnv1a64(c.keys[idx]));
        double click_p = p.clicks().ClickProbability(story, c.keys[idx],
                                                     c.positions[idx], user);
        arm->views += story_views;
        arm->clicks += story_views * click_p;
      }
    };
    run_arm(TopIndexes(cv_scores, c.keys, kControlAnnotations), &control);
    run_arm(TopIndexes(ml_scores, c.keys, kTreatmentAnnotations), &treatment);
    // Oracle arm: top-k by the true (noise-free) click propensity — the
    // ceiling for any ranker at this annotation budget.
    std::vector<double> oracle_scores(c.keys.size());
    for (size_t k = 0; k < c.keys.size(); ++k) {
      Rng probe(1);
      double acc = 0;
      for (int t = 0; t < 8; ++t) {
        acc += p.clicks().ClickProbability(story, c.keys[k], c.positions[k],
                                           probe);
      }
      oracle_scores[k] = acc;
    }
    run_arm(TopIndexes(oracle_scores, c.keys, kTreatmentAnnotations),
            &oracle);
  }

  double oracle_click_delta = (oracle.clicks - control.clicks) / control.clicks;
  double view_delta = (treatment.views - control.views) / control.views;
  double click_delta = (treatment.clicks - control.clicks) / control.clicks;
  double ctr_delta = (treatment.Ctr() - control.Ctr()) / control.Ctr();

  std::printf("=== Section V-C: production A/B replay (%u stories) ===\n",
              static_cast<unsigned>(kStories));
  std::printf("control:   all detections (old production)  views=%.0f "
              "clicks=%.0f ctr=%.4f\n",
              control.views, control.clicks, control.Ctr());
  std::printf("treatment: top-%zu by learned ranker  views=%.0f clicks=%.0f "
              "ctr=%.4f\n",
              kTreatmentAnnotations, treatment.views, treatment.clicks,
              treatment.Ctr());
  std::printf("\nannotation views:  %+.1f%%   (paper: -52.5%%)\n",
              100.0 * view_delta);
  std::printf("annotation clicks: %+.1f%%   (paper:  -2.0%%)\n",
              100.0 * click_delta);
  std::printf("CTR:               %+.1f%%   (paper: +100.1%%)\n",
              100.0 * ctr_delta);
  std::printf("(oracle ranker at the same budget: clicks %+.1f%%)\n",
              100.0 * oracle_click_delta);
  for (const auto& [arm, totals] :
       {std::pair<const char*, ArmTotals>{"control", control},
        {"treatment", treatment}}) {
    sec->rows.push_back(Record()
                            .Str("arm", arm)
                            .Num("views", totals.views)
                            .Num("clicks", totals.clicks)
                            .Num("ctr", totals.Ctr()));
  }
  sec->headline.Num("view_delta_pct", 100.0 * view_delta)
      .Num("paper_view_delta_pct", -52.5)
      .Num("click_delta_pct", 100.0 * click_delta)
      .Num("paper_click_delta_pct", -2.0)
      .Num("ctr_delta_pct", 100.0 * ctr_delta)
      .Num("paper_ctr_delta_pct", 100.1)
      .Num("oracle_click_delta_pct", 100.0 * oracle_click_delta);
}

// ---- Ablations ----

/// The combined model's cross-validated error with the default (linear)
/// kernel, as ablations B and C report it.
EvalResult CombinedCv(const ExperimentRunner& runner) {
  ModelSpec spec;
  spec.include_relevance = true;
  spec.tie_break_relevance = true;
  return OrExit(runner.EvaluateModelCV(spec), "model");
}

/// A: the concept vector's multi-term bonus (II-B step 4); B: the
/// 500-character window overlap (V-A.1); C: weighted (Eq. 5) vs plain
/// (Eq. 4) error; D: the 2-byte field quantization of Section VI.
/// `random` and `baseline` are the default lab's, `combined_linear` is
/// CombinedCv on it (Table V's linear leg), and `model` is the combined
/// model trained on it.
void Ablations(const ckr_bench::Lab& lab, const EvalResult& random,
               const EvalResult& baseline, const EvalResult& combined_linear,
               const RankSvmModel& model, const ModelSpec& spec,
               Section* sec) {
  std::printf("=== Ablations ===\n\n");
  auto record = [&](const char* ablation, const char* variant) -> Record& {
    sec->rows.push_back(
        Record().Str("ablation", ablation).Str("variant", variant));
    return sec->rows.back();
  };

  // ---- A: concept-vector multi-term bonus ----
  PipelineConfig without_cfg;
  without_cfg.conceptvec.multi_term_bonus = false;
  auto without_p = OrExit(Pipeline::Build(without_cfg), "pipeline");
  ClickDataset without_ds =
      OrExit(DatasetBuilder(*without_p, {}).Build(), "dataset");
  EvalResult without_r = ExperimentRunner(without_ds).EvaluateBaseline();
  std::printf("[A] concept-vector multi-term bonus (paper II-B step 4: "
              "'more specific concepts eventually bubble up')\n");
  std::printf("    baseline weighted error with bonus:    %.2f%%\n",
              100 * baseline.weighted_error_rate);
  std::printf("    baseline weighted error without bonus: %.2f%%\n\n",
              100 * without_r.weighted_error_rate);
  record("A", "with bonus")
      .Num("weighted_error_pct", 100 * baseline.weighted_error_rate);
  record("A", "without bonus")
      .Num("weighted_error_pct", 100 * without_r.weighted_error_rate);

  // ---- B: window overlap (reuses the default pipeline) ----
  DatasetConfig no_overlap;
  no_overlap.window_overlap = 0;
  ClickDataset ds0 =
      OrExit(DatasetBuilder(*lab.pipeline, no_overlap).Build(), "dataset");
  const EvalResult& overlap_r = combined_linear;
  EvalResult no_overlap_r = CombinedCv(ExperimentRunner(ds0));
  std::printf("[B] evaluation windows (paper V-A.1: 2500 chars, 500 "
              "overlap 'so that the neighboring concepts are not "
              "separated')\n");
  std::printf("    overlap 500: %zu windows, combined error %.2f%%\n",
              lab.dataset.num_windows, 100 * overlap_r.weighted_error_rate);
  std::printf("    overlap 0:   %zu windows, combined error %.2f%%\n\n",
              ds0.num_windows, 100 * no_overlap_r.weighted_error_rate);
  record("B", "overlap 500")
      .Num("windows", static_cast<double>(lab.dataset.num_windows))
      .Num("weighted_error_pct", 100 * overlap_r.weighted_error_rate);
  record("B", "overlap 0")
      .Num("windows", static_cast<double>(ds0.num_windows))
      .Num("weighted_error_pct", 100 * no_overlap_r.weighted_error_rate);

  // ---- C: weighted vs plain error ----
  std::printf("[C] weighted (Eq. 5) vs plain (Eq. 4) error rate\n");
  for (const auto& [name, r] : {std::pair<const char*, EvalResult>{
                                    "random", random},
                                {"baseline", baseline},
                                {"combined", overlap_r}}) {
    std::printf("    %-16s weighted %6.2f%%  plain %6.2f%%\n", name,
                100 * r.weighted_error_rate, 100 * r.error_rate);
    record("C", name)
        .Num("weighted_error_pct", 100 * r.weighted_error_rate)
        .Num("plain_error_pct", 100 * r.error_rate);
  }
  std::printf("\n");

  // ---- D: 2-byte quantization of the interestingness vectors ----
  const ClickDataset& ds = lab.dataset;
  ConceptStore store;
  for (const WindowInstance& inst : ds.instances) {
    store.Add(inst.key, inst.interestingness, {});
  }
  GlobalTidTable tids;
  store.Finalize(&tids);

  std::vector<double> exact_scores, quant_scores;
  std::vector<double> dequantized;
  for (const WindowInstance& inst : ds.instances) {
    exact_scores.push_back(model.Score(ExperimentRunner::Features(inst, spec)));
    store.Lookup(inst.key, &dequantized);
    dequantized.push_back(std::log1p(
        inst.relevance[static_cast<size_t>(spec.relevance_resource)]));
    quant_scores.push_back(model.Score(dequantized));
  }
  PairwiseErrorAccumulator exact_acc, quant_acc;
  auto groups = ds.GroupByWindow();
  for (const auto& group : groups) {
    std::vector<double> pe, pq, ctr;
    for (size_t idx : group) {
      pe.push_back(exact_scores[idx]);
      pq.push_back(quant_scores[idx]);
      ctr.push_back(ds.instances[idx].ctr);
    }
    AccumulatePairwiseError(pe, ctr, true, &exact_acc);
    AccumulatePairwiseError(pq, ctr, true, &quant_acc);
  }
  // Rank agreement between exact and quantized scoring.
  size_t agree = 0, total = 0;
  for (const auto& group : groups) {
    for (size_t a = 0; a < group.size(); ++a) {
      for (size_t b = a + 1; b < group.size(); ++b) {
        double de = exact_scores[group[a]] - exact_scores[group[b]];
        double dq = quant_scores[group[a]] - quant_scores[group[b]];
        if (de == 0) continue;
        ++total;
        if ((de > 0) == (dq > 0)) ++agree;
      }
    }
  }
  double agreement_pct =
      100.0 * static_cast<double>(agree) / static_cast<double>(total);
  std::printf("[D] 2-byte field quantization (paper VI: 'a minor decrease "
              "in granularity')\n");
  std::printf("    weighted error, exact features:     %.2f%%\n",
              100 * exact_acc.Rate());
  std::printf("    weighted error, quantized features: %.2f%%\n",
              100 * quant_acc.Rate());
  std::printf("    pairwise order agreement: %.2f%%\n", agreement_pct);
  record("D", "exact features").Num("weighted_error_pct", 100 * exact_acc.Rate());
  record("D", "quantized features")
      .Num("weighted_error_pct", 100 * quant_acc.Rate());
  record("D", "pairwise order agreement").Num("agreement_pct", agreement_pct);
}

// ---- §VIII ----

// Average rank position (1-based) of `key` over stories that contain it;
// 0 if never seen.
double AverageRank(const ContextualRanker& ranker,
                   const std::vector<Document>& stories,
                   const std::string& key) {
  double total = 0;
  size_t n = 0;
  for (const Document& s : stories) {
    auto ranked = ranker.Rank(s.text);
    for (size_t i = 0; i < ranked.size(); ++i) {
      if (ranked[i].key == key) {
        total += static_cast<double>(i + 1);
        ++n;
        break;
      }
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

/// The paper's future-work scenario: a mid-tier entity suddenly becomes
/// the story of the week. Daily click feedback streams through the
/// CtrTracker; the entity's average rank on fresh stories is compared
/// with and without the online adjustment, before, during and after the
/// event, while the spike detector flags it.
void OnlineAdaptation(Section* sec) {
  ContextualRankerOptions options;  // Paper-scale world.
  auto ranker_ptr = OrExit(ContextualRanker::Train(options), "train");
  ContextualRanker& ranker = *ranker_ptr;
  const World& world = ranker.pipeline().world();

  // Pick a mid-tier entity: interesting enough to appear in stories, far
  // from the top of the static ranking.
  const Entity* subject = nullptr;
  for (const Entity& e : world.entities()) {
    if (e.is_generic || e.TermCount() < 2) continue;
    if (e.interestingness > 0.18 && e.interestingness < 0.3 &&
        e.popularity > 0.2) {
      subject = &e;
      break;
    }
  }
  if (subject == nullptr) {
    std::fprintf(stderr, "no mid-tier subject found\n");
    std::exit(1);
  }
  std::printf("=== Section VIII: online reaction to a world event ===\n");
  std::printf("subject: '%s' (latent interestingness %.2f)\n\n",
              subject->key.c_str(), subject->interestingness);
  sec->headline.Str("subject", subject->key)
      .Num("latent_interestingness", subject->interestingness);

  // Stories of the subject's topic so it reliably appears.
  DocGenerator gen(world);
  std::vector<Document> eval_stories;
  for (DocId i = 0; eval_stories.size() < 40 && i < 4000; ++i) {
    Document d = gen.Generate(Document::Kind::kNews, 350000 + i);
    if (d.TruthRelevance(subject->id) > 0) eval_stories.push_back(std::move(d));
  }
  // The subject's organic traffic: two of its own stories a day, so the
  // tracker holds a pre-event baseline for the spike detector to measure
  // the burst against. A concept with no history never spikes, so with
  // the burst as its first clicks the event would go unflagged.
  constexpr int kDays = 12;
  constexpr size_t kSubjectStoriesPerDay = 2;
  std::vector<Document> subject_stories;
  for (DocId i = 0; subject_stories.size() < kDays * kSubjectStoriesPerDay &&
                    i < 8000;
       ++i) {
    Document d = gen.Generate(Document::Kind::kNews, 450000 + i);
    if (d.TruthRelevance(subject->id) > 0) {
      subject_stories.push_back(std::move(d));
    }
  }
  if (subject_stories.empty()) {
    std::fprintf(stderr, "no stories of the subject found\n");
    std::exit(1);
  }

  CtrTrackerConfig tcfg;
  tcfg.adjustment_weight = 2.5;
  tcfg.max_adjustment = 1.5;
  tcfg.decay = 0.5;  // Forget fast: reacting to events is the point.
  tcfg.spike_ratio = 2.5;
  CtrTracker tracker(tcfg);
  const ClickSimulator& clicks = ranker.pipeline().clicks();
  // Daily feedback: simulate traffic on a rolling set of stories. During
  // the event days the subject's clicks are multiplied (the world event).
  auto stream_day = [&](int day, double event_multiplier) {
    Rng day_rng(1000 + static_cast<uint64_t>(day));
    const auto stream_story = [&](const Document& story) {
      auto detections = ranker.pipeline().detector().Detect(story.text);
      StoryReport report = clicks.Simulate(story, detections);
      for (const AnnotationRecord& a : report.annotations) {
        tracker.Record(a.key, a.views, a.clicks);
      }
    };
    for (int s = 0; s < 60; ++s) {
      stream_story(gen.Generate(Document::Kind::kNews,
                                static_cast<DocId>(400000 + day * 60 + s)));
    }
    for (size_t s = 0; s < kSubjectStoriesPerDay; ++s) {
      const size_t k = static_cast<size_t>(day) * kSubjectStoriesPerDay + s;
      stream_story(subject_stories[k % subject_stories.size()]);
    }
    if (event_multiplier > 1.0) {
      // Breaking news: the subject is suddenly everywhere and everyone
      // clicks it — a burst of high-CTR exposure on top of the organic
      // traffic.
      uint64_t burst_views = 4000 + day_rng.NextBounded(1000);
      uint64_t burst_clicks = static_cast<uint64_t>(
          static_cast<double>(burst_views) * 0.20 *
          (0.8 + 0.4 * day_rng.NextDouble()));
      tracker.Record(subject->key, burst_views, burst_clicks);
    }
    // Note: the caller ticks after inspecting the fresh period.
  };

  std::printf("%-6s %-10s %-12s %-12s %s\n", "day", "phase", "static-rank",
              "online-rank", "spiking?");
  for (int day = 0; day < kDays; ++day) {
    bool event = day >= 4 && day < 7;
    stream_day(day, event ? 12.0 : 1.0);
    // Spike detection reads the fresh (pre-tick) period.
    bool spiking = tracker.IsSpiking(subject->key);
    tracker.Tick();

    ranker.SetOnlineTracker(nullptr);
    double static_rank = AverageRank(ranker, eval_stories, subject->key);
    ranker.SetOnlineTracker(&tracker);
    double online_rank = AverageRank(ranker, eval_stories, subject->key);

    std::printf("%-6d %-10s %-12.2f %-12.2f %s\n", day,
                event ? "EVENT" : "quiet", static_rank, online_rank,
                spiking ? "SPIKE" : "-");
    sec->rows.push_back(Record()
                            .Num("day", day)
                            .Str("phase", event ? "EVENT" : "quiet")
                            .Num("static_rank", static_rank)
                            .Num("online_rank", online_rank)
                            .Flag("spiking", spiking));
  }
  ranker.SetOnlineTracker(nullptr);
  std::printf("\nexpected shape: the online rank jumps toward 1 within a "
              "day of the event and decays back after it ends; the spike "
              "detector flags the event's first day; the static rank never "
              "moves.\n");
}

}  // namespace

int main() {
  std::deque<Section> sections;  // Stable addresses as sections are added.
  auto section = [&](const char* name) -> Section* {
    sections.push_back({name, {}, {}});
    return &sections.back();
  };
  ckr_bench::Lab lab = ckr_bench::BuildLab();
  const Pipeline& p = *lab.pipeline;

  TableII(p, section("table2"));
  std::printf("\n");

  ckr_bench::PrintDatasetHeader(lab);
  const ClickDataset& ds = lab.dataset;
  section("dataset")
      ->headline.Num("stories", static_cast<double>(ds.surviving_stories.size()))
      .Num("windows", static_cast<double>(ds.num_windows))
      .Num("instances", static_cast<double>(ds.instances.size()))
      .Num("clicks", static_cast<double>(ds.total_clicks));

  ExperimentRunner runner(ds);
  const EvalResult random = runner.EvaluateRandom();
  const EvalResult baseline = runner.EvaluateBaseline();
  const EvalResult interest = BestOfKernels(runner, ModelSpec{});

  // ---- Table III + Figure 1: interestingness features ----
  std::printf("=== Table III: weighted error rates, interestingness "
              "features ===\n");
  Section* sec = section("table3");
  PrintRow(sec, "Random", 50.01, random);
  PrintRow(sec, "Concept Vector Score", 30.22, baseline);
  PrintRow(sec, "All Features", 23.69, interest);
  struct GroupAblation {
    const char* name;
    FeatureGroup group;
    double paper;
  };
  const GroupAblation group_ablations[] = {
      {"- Query Logs", FeatureGroup::kQueryLogs, 24.50},
      {"- Taxonomy Based", FeatureGroup::kTaxonomy, 24.47},
      {"- Search Results", FeatureGroup::kSearchResults, 23.80},
      {"- Other", FeatureGroup::kOther, 23.78},
      {"- Text Based", FeatureGroup::kTextBased, 23.73},
  };
  for (const GroupAblation& a : group_ablations) {
    ModelSpec spec;
    spec.group_mask = MaskWithout(a.group);
    PrintRow(sec, a.name, a.paper, BestOfKernels(runner, spec));
  }
  std::printf("\n=== Figure 1: NDCG at top k = {1, 2, 3} ===\n");
  std::printf("(paper trend: model > concept vector > random, all rising "
              "with k)\n");
  sec = section("figure1");
  PrintNdcg(sec, "Random", random);
  PrintNdcg(sec, "Concept Vector Score", baseline);
  PrintNdcg(sec, "Interestingness Model", interest);
  std::printf("\n");

  // ---- Table IV + Figure 2: relevance-score ranking per resource ----
  std::printf("=== Table IV: weighted error rates, relevance-score "
              "ranking ===\n");
  sec = section("table4");
  PrintRow(sec, "Random", 50.01, random);
  PrintRow(sec, "Concept Vector Score", 30.22, baseline);
  PrintRow(sec, "Best Interestingness Model", 23.69, interest);
  const EvalResult prisma =
      runner.EvaluateRelevanceOnly(RelevanceResource::kPrisma);
  const EvalResult suggestions =
      runner.EvaluateRelevanceOnly(RelevanceResource::kQuerySuggestions);
  const EvalResult snippets =
      runner.EvaluateRelevanceOnly(RelevanceResource::kSnippets);
  PrintRow(sec, "Prisma", 32.32, prisma);
  PrintRow(sec, "Query Suggestions", 31.23, suggestions);
  PrintRow(sec, "Snippets", 24.86, snippets);
  std::printf("\n=== Figure 2: NDCG at top k = {1, 2, 3}, relevance-score "
              "ranking ===\n");
  sec = section("figure2");
  PrintNdcg(sec, "Prisma", prisma);
  PrintNdcg(sec, "Query Suggestions", suggestions);
  PrintNdcg(sec, "Snippets", snippets);
  std::printf("\n");

  // ---- Table V + Figure 3: the combined model ----
  // Trained on all interestingness features plus the snippet relevance
  // score, breaking score ties toward higher relevance (Section V-A.6).
  ModelSpec combined_spec;
  combined_spec.include_relevance = true;
  combined_spec.tie_break_relevance = true;
  // Its linear leg is CombinedCv(runner), which ablations B and C report.
  EvalResult combined_linear;
  const EvalResult combined =
      BestOfKernels(runner, combined_spec, &combined_linear);
  std::printf("=== Table V: weighted error rates, all features ===\n");
  sec = section("table5");
  PrintRow(sec, "Random", 50.01, random);
  PrintRow(sec, "Concept Vector Score", 30.22, baseline);
  PrintRow(sec, "Best Interestingness Model", 23.69, interest);
  PrintRow(sec, "Best Relevance", 24.86, snippets);
  PrintRow(sec, "Interestingness + Relevance", 18.66, combined);
  double paper_reduction = (30.22 - 18.66) / 30.22;
  double measured_reduction =
      (baseline.weighted_error_rate - combined.weighted_error_rate) /
      baseline.weighted_error_rate;
  std::printf("\nheadline: error rate reduced from %.2f%% to %.2f%% "
              "(-%.0f%%; paper: 30.22%% -> 18.66%%, -%.0f%%)\n",
              100.0 * baseline.weighted_error_rate,
              100.0 * combined.weighted_error_rate,
              100.0 * measured_reduction, 100.0 * paper_reduction);
  sec->headline.Num("reduction_pct", 100.0 * measured_reduction)
      .Num("paper_reduction_pct", 100.0 * paper_reduction);
  std::printf("\n=== Figure 3: NDCG at top k = {1, 2, 3}, combined "
              "model ===\n");
  sec = section("figure3");
  PrintNdcg(sec, "Random", random);
  PrintNdcg(sec, "Concept Vector Score", baseline);
  PrintNdcg(sec, "Interestingness + Relevance", combined);
  std::printf("\n");

  // The deployed combined model, trained once on the full dataset. Table
  // VI, §V-C and ablation D score with it. TrainFullModel ignores
  // tie_break_relevance, so ablation D's relevance-only spec would train
  // this same model.
  const RankSvmModel model =
      OrExit(runner.TrainFullModel(combined_spec), "model");
  TableVI(p, model, combined_spec, section("table6"));
  std::printf("\n");
  ProductionAb(p, model, combined_spec, section("section_vc"));
  std::printf("\n");
  Ablations(lab, random, baseline, combined_linear, model, combined_spec,
            section("ablations"));
  std::printf("\n");
  OnlineAdaptation(section("section_viii"));

  WriteJson(sections, "BENCH_paper.json");
  return 0;
}
