// Unit tests for ckr_conceptvec: the Section II-B concept vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "conceptvec/concept_vector.h"
#include "core/pipeline.h"
#include "corpus/term_dictionary.h"
#include "detect/aho_corasick.h"
#include "text/sentence.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "units/unit_extractor.h"

namespace ckr {
namespace {

class ConceptVectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Corpus for idf: "common" in most docs; "rare", "insurance", "auto"
    // in few.
    dict_.AddDocument("common words everywhere in all docs");
    dict_.AddDocument("common auto insurance policies");
    dict_.AddDocument("common rare topic");
    for (int i = 0; i < 20; ++i) dict_.AddDocument("common filler text block");

    units_.Add({"auto insurance", 2, 120, 2.5, 0.9});
    units_.Add({"auto", 1, 200, 0.0, 0.6});
    units_.Add({"insurance", 1, 300, 0.0, 0.7});
    units_.Add({"rare", 1, 40, 0.0, 0.3});
  }
  TermDictionary dict_;
  UnitDictionary units_;
};

TEST_F(ConceptVectorTest, StopwordsExcluded) {
  ConceptVectorGenerator gen(dict_, units_, {});
  auto vec = gen.Generate("the and of rare rare rare");
  for (const ConceptScore& c : vec) {
    EXPECT_NE(c.phrase, "the");
    EXPECT_NE(c.phrase, "and");
  }
}

TEST_F(ConceptVectorTest, ScoresSortedDescending) {
  ConceptVectorGenerator gen(dict_, units_, {});
  auto vec = gen.Generate("auto insurance is cheap auto insurance rare");
  ASSERT_GT(vec.size(), 1u);
  for (size_t i = 1; i < vec.size(); ++i) {
    EXPECT_GE(vec[i - 1].score, vec[i].score);
  }
}

TEST_F(ConceptVectorTest, MultiTermUnitPresentAndBoosted) {
  ConceptVectorGenerator gen(dict_, units_, {});
  auto vec = gen.Generate("cheap auto insurance offers today");
  double unit_score = 0, auto_score = 0;
  for (const ConceptScore& c : vec) {
    if (c.phrase == "auto insurance") unit_score = c.score;
    if (c.phrase == "auto") auto_score = c.score;
  }
  ASSERT_GT(unit_score, 0.0);
  // The multi-term bonus pushes the specific concept above its parts.
  EXPECT_GT(unit_score, auto_score);
}

TEST_F(ConceptVectorTest, MultiTermBonusAblation) {
  ConceptVectorConfig with;
  ConceptVectorConfig without;
  without.multi_term_bonus = false;
  ConceptVectorGenerator gen_with(dict_, units_, with);
  ConceptVectorGenerator gen_without(dict_, units_, without);
  const char* text = "cheap auto insurance offers today";
  double s_with = 0, s_without = 0;
  for (const auto& c : gen_with.Generate(text)) {
    if (c.phrase == "auto insurance") s_with = c.score;
  }
  for (const auto& c : gen_without.Generate(text)) {
    if (c.phrase == "auto insurance") s_without = c.score;
  }
  EXPECT_GT(s_with, s_without);
}

TEST_F(ConceptVectorTest, CaseOneTermWithoutUnitIsPunished) {
  // "topic" is in no unit: merged weight = punished term weight.
  ConceptVectorConfig cfg;
  cfg.no_unit_punish_factor = 0.5;
  ConceptVectorGenerator gen(dict_, units_, cfg);
  auto with_unit = gen.Generate("rare rare rare");      // rare is a unit.
  auto without_unit = gen.Generate("topic topic topic");  // topic is not.
  ASSERT_FALSE(with_unit.empty());
  ASSERT_FALSE(without_unit.empty());
  // Both normalize tf*idf to 1.0; "rare" gains its unit weight while
  // "topic" is punished.
  EXPECT_GT(with_unit[0].score, without_unit[0].score);
}

TEST_F(ConceptVectorTest, EmptyAndUnknownText) {
  ConceptVectorGenerator gen(dict_, units_, {});
  EXPECT_TRUE(gen.Generate("").empty());
  EXPECT_TRUE(gen.Generate("the of and").empty());
}

TEST_F(ConceptVectorTest, ScoreCandidatesAlignsWithGenerate) {
  ConceptVectorGenerator gen(dict_, units_, {});
  const char* text = "cheap auto insurance offers rare today";
  auto vec = gen.Generate(text);
  std::vector<std::string> cands = {"auto insurance", "rare", "missing thing"};
  auto scores = gen.ScoreCandidates(text, cands);
  ASSERT_EQ(scores.size(), 3u);
  for (const ConceptScore& c : vec) {
    if (c.phrase == "auto insurance") {
      EXPECT_EQ(scores[0], c.score);
    }
    if (c.phrase == "rare") {
      EXPECT_EQ(scores[1], c.score);
    }
  }
  EXPECT_EQ(scores[2], 0.0);  // Absent single... multi-term with absent parts.
}

TEST_F(ConceptVectorTest, AbsentMultiTermCandidateGetsPartsBonus) {
  ConceptVectorGenerator gen(dict_, units_, {});
  // "rare insurance" is not a unit, but both parts score in the text.
  auto scores = gen.ScoreCandidates("rare insurance words common",
                                    {"rare insurance"});
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_GT(scores[0], 0.0);
}

TEST_F(ConceptVectorTest, RepeatedUnitOccurrencesDoNotAccumulate) {
  ConceptVectorGenerator gen(dict_, units_, {});
  auto once = gen.ScoreCandidates("auto insurance common", {"auto insurance"});
  auto thrice = gen.ScoreCandidates(
      "auto insurance auto insurance auto insurance common",
      {"auto insurance"});
  // Unit weight is presence-based; only term tf grows, so the score grows
  // sublinearly (never 3x).
  EXPECT_LT(thrice[0], 3.0 * once[0]);
}

// ---------------------------------------------------------------------
// Exactness of ScoreCandidates against the algorithm it replaced: build
// both vectors, run Generate()'s full merge, look each candidate up, and
// fall back to the step-(4) parts bonus. The oracle below is that
// algorithm, written out over the public dictionaries.

class MergeOracle {
 public:
  MergeOracle(const TermDictionary& dict, const UnitDictionary& units,
              const ConceptVectorConfig& config)
      : dict_(dict), config_(config) {
    for (const UnitInfo& u : units.units()) {
      Status s = matcher_.AddPhrase(
          u.phrase, static_cast<uint32_t>(payloads_.size()));
      (void)s;
      payloads_.push_back(&u);
    }
    matcher_.Build();
  }

  /// The merged, sorted concept vector (the former Generate()).
  std::vector<ConceptScore> Generate(const std::string& text) const {
    Vectors v = Build(text);
    std::unordered_map<std::string, double> merged = Merge(v);
    std::vector<ConceptScore> out;
    for (auto& [phrase, w] : merged) out.push_back({phrase, w});
    std::sort(out.begin(), out.end(),
              [](const ConceptScore& a, const ConceptScore& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.phrase < b.phrase;
              });
    return out;
  }

  /// The former ScoreCandidates().
  std::vector<double> ScoreCandidates(
      const std::string& text, const std::vector<std::string>& cands) const {
    Vectors v = Build(text);
    std::unordered_map<std::string, double> merged = Merge(v);
    std::vector<double> scores;
    for (const std::string& c : cands) {
      std::string key = NormalizePhrase(c);
      auto it = merged.find(key);
      if (it != merged.end()) {
        scores.push_back(it->second);
        continue;
      }
      double bonus = 0.0;
      if (config_.multi_term_bonus && key.find(' ') != std::string::npos) {
        for (const std::string& part : SplitString(key, " ")) {
          auto t = v.term.find(part);
          if (t != v.term.end()) bonus += t->second;
          auto u = v.unit.find(part);
          if (u != v.unit.end()) bonus += u->second;
        }
      }
      scores.push_back(bonus);
    }
    return scores;
  }

 private:
  using Weights = std::unordered_map<std::string, double>;
  struct Vectors {
    Weights term;
    Weights unit;
  };

  static void NormalizePunishDrop(Weights* weights, double punish_thr,
                                  double drop_thr, double punish_factor) {
    double max_w = 0.0;
    for (const auto& [k, w] : *weights) max_w = std::max(max_w, w);
    if (max_w <= 0.0) {
      weights->clear();
      return;
    }
    for (auto it = weights->begin(); it != weights->end();) {
      double w = it->second / max_w;
      if (w < punish_thr) w *= punish_factor;
      if (w < drop_thr) {
        it = weights->erase(it);
      } else {
        it->second = w;
        ++it;
      }
    }
  }

  Vectors Build(const std::string& text) const {
    std::vector<std::string> tokens = TokenizeToStrings(text);
    Vectors v;
    for (const std::string& t : tokens) {
      if (!IsStopWord(t)) v.term[t] += 1.0;
    }
    for (auto& [term, f] : v.term) f *= dict_.Idf(term);
    NormalizePunishDrop(&v.term, config_.term_punish_threshold,
                        config_.term_drop_threshold, config_.punish_factor);
    for (const PhraseMatch& m : matcher_.FindAll(tokens)) {
      v.unit[payloads_[m.payload]->phrase] = payloads_[m.payload]->score;
    }
    NormalizePunishDrop(&v.unit, config_.unit_punish_threshold,
                        config_.unit_drop_threshold, config_.punish_factor);
    return v;
  }

  Weights Merge(const Vectors& v) const {
    Weights merged;
    for (const auto& [term, w] : v.term) {
      auto it = v.unit.find(term);
      merged[term] = it == v.unit.end() ? w * config_.no_unit_punish_factor
                                        : w + it->second;
    }
    for (const auto& [unit, w] : v.unit) {
      if (merged.count(unit) == 0) merged[unit] = w;
    }
    if (config_.multi_term_bonus) {
      for (auto& [phrase, w] : merged) {
        if (phrase.find(' ') == std::string::npos) continue;
        for (const std::string& part : SplitString(phrase, " ")) {
          auto t = v.term.find(part);
          if (t != v.term.end()) w += t->second;
          auto u = v.unit.find(part);
          if (u != v.unit.end()) w += u->second;
        }
      }
    }
    return merged;
  }

  const TermDictionary& dict_;
  ConceptVectorConfig config_;
  PhraseMatcher matcher_;
  std::vector<const UnitInfo*> payloads_;
};

struct SweepCounts {
  size_t single_terms = 0;    ///< One-token candidates in the vector.
  size_t units = 0;           ///< Multi-term candidates in the vector.
  size_t parts_bonus = 0;     ///< Multi-term, absent, positive bonus.
  size_t absent = 0;          ///< Scored exactly 0.
};

// Candidates for one text: its distinct tokens, its adjacent token pairs
// (mostly multi-term non-units), every unit phrase, and keys found nowhere.
std::vector<std::string> SweepCandidates(const std::string& text,
                                         const UnitDictionary& units) {
  std::vector<std::string> tokens = TokenizeToStrings(text);
  std::set<std::string> cands(tokens.begin(), tokens.end());
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    cands.insert(tokens[i] + " " + tokens[i + 1]);
  }
  for (const UnitInfo& u : units.units()) cands.insert(u.phrase);
  cands.insert("zzqxv");
  cands.insert("zzqxv wwpqj");
  if (!tokens.empty()) cands.insert(tokens[0] + " zzqxv");
  std::vector<std::string> out(cands.begin(), cands.end());
  // Unnormalized spellings of a pair must score like the pair.
  if (tokens.size() >= 2) out.push_back("  " + tokens[0] + ",  " + tokens[1]);
  return out;
}

void SweepText(const ConceptVectorGenerator& gen, const MergeOracle& oracle,
               const std::string& text, const UnitDictionary& units,
               SweepCounts* counts) {
  const std::vector<std::string> cands = SweepCandidates(text, units);
  const std::vector<double> got = gen.ScoreCandidates(text, cands);
  const std::vector<double> want = oracle.ScoreCandidates(text, cands);
  ASSERT_EQ(got.size(), cands.size());
  ASSERT_EQ(want.size(), cands.size());
  std::set<std::string> in_vector;
  const std::vector<ConceptScore> vec = gen.Generate(text);
  const std::vector<ConceptScore> old_vec = oracle.Generate(text);
  ASSERT_EQ(vec.size(), old_vec.size());
  for (size_t i = 0; i < vec.size(); ++i) {
    ASSERT_EQ(vec[i].phrase, old_vec[i].phrase);
    ASSERT_EQ(std::bit_cast<uint64_t>(vec[i].score),
              std::bit_cast<uint64_t>(old_vec[i].score))
        << vec[i].phrase;
    in_vector.insert(vec[i].phrase);
  }
  for (size_t i = 0; i < cands.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << "candidate '" << cands[i] << "': " << got[i] << " vs " << want[i];
    const std::string key = NormalizePhrase(cands[i]);
    const bool multi = key.find(' ') != std::string::npos;
    if (in_vector.count(key) > 0) {
      ++(multi ? counts->units : counts->single_terms);
    } else if (got[i] != 0.0) {
      ++counts->parts_bonus;
    } else {
      ++counts->absent;
    }
  }
}

TEST_F(ConceptVectorTest, ScoreCandidatesBitEqualToFullMergeOnFixture) {
  for (bool bonus : {true, false}) {
    ConceptVectorConfig cfg;
    cfg.multi_term_bonus = bonus;
    ConceptVectorGenerator gen(dict_, units_, cfg);
    MergeOracle oracle(dict_, units_, cfg);
    SweepCounts counts;
    for (const char* text :
         {"cheap auto insurance offers rare today", "rare insurance words common",
          "auto insurance auto insurance auto insurance common", "rare rare rare",
          "topic topic topic", "the of and", ""}) {
      SweepText(gen, oracle, text, units_, &counts);
    }
    EXPECT_GT(counts.single_terms, 0u);
    EXPECT_GT(counts.units, 0u);
    EXPECT_GT(counts.absent, 0u);
    if (bonus) {
      EXPECT_GT(counts.parts_bonus, 0u);
    }
  }
}

TEST(ConceptVectorSweepTest, ScoreCandidatesBitEqualOnGeneratedNewsWindows) {
  auto p = Pipeline::Build(PipelineConfig::SmallForTests());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Pipeline& pipeline = **p;
  for (bool bonus : {true, false}) {
    SCOPED_TRACE(bonus ? "multi_term_bonus on" : "multi_term_bonus off");
    ConceptVectorConfig cfg = pipeline.config().conceptvec;
    cfg.multi_term_bonus = bonus;
    ConceptVectorGenerator gen(pipeline.term_dictionary(), pipeline.units(),
                               cfg);
    MergeOracle oracle(pipeline.term_dictionary(), pipeline.units(), cfg);
    SweepCounts counts;
    size_t windows = 0;
    // Every 4th story keeps the sweep quick; each contributes all its
    // windows, as the dataset builder scores them.
    for (size_t s = 0; s < pipeline.news_stories().size(); s += 4) {
      const std::string& text = pipeline.news_stories()[s].text;
      for (const TextSpan& w : PartitionIntoWindows(text.size())) {
        SweepText(gen, oracle, text.substr(w.begin, w.size()),
                  pipeline.units(), &counts);
        ++windows;
      }
    }
    EXPECT_GT(windows, 30u);
    EXPECT_GT(counts.single_terms, 1000u);
    EXPECT_GT(counts.units, 30u);
    EXPECT_GT(counts.absent, 1000u);
    if (bonus) {
      EXPECT_GT(counts.parts_bonus, 1000u);
    } else {
      EXPECT_EQ(counts.parts_bonus, 0u);
    }
  }
}

}  // namespace
}  // namespace ckr
