// Unit tests for ckr_features: the Table-I interestingness vector and the
// relevance mining/scoring of Section IV-B.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "common/string_util.h"
#include "core/pipeline.h"
#include "corpus/doc_generator.h"
#include "features/interestingness.h"
#include "features/relevance.h"
#include "index/legacy_index.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

// One shared small pipeline for the whole file (construction is the
// expensive part).
class FeaturesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto p = Pipeline::Build(PipelineConfig::SmallForTests());
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    pipeline_ = p->release();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static const Entity& MostPopular() {
    const Entity* best = nullptr;
    for (const Entity& e : pipeline_->world().entities()) {
      if (e.is_generic || e.TermCount() < 2) continue;
      if (!best || e.popularity > best->popularity) best = &e;
    }
    return *best;
  }
  static const Entity& LeastPopular() {
    const Entity* worst = nullptr;
    for (const Entity& e : pipeline_->world().entities()) {
      if (e.is_generic) continue;
      if (!worst || e.popularity < worst->popularity) worst = &e;
    }
    return *worst;
  }

  /// The documents the pipeline indexed: generation is counter-seeded
  /// per document id, so a second generator yields them again.
  static std::vector<Document> WebCorpus() {
    return DocGenerator(pipeline_->world())
        .GenerateCorpus(Document::Kind::kWeb,
                        pipeline_->config().world.num_web_docs);
  }

  static Pipeline* pipeline_;
};

Pipeline* FeaturesTest::pipeline_ = nullptr;

TEST_F(FeaturesTest, VectorShapeAndNames) {
  EXPECT_EQ(InterestingnessVector::Dim(), 8u + kNumEntityTypes);
  EXPECT_EQ(InterestingnessVector::DimNames().size(),
            InterestingnessVector::Dim());
}

TEST_F(FeaturesTest, ExtractBasicFields) {
  const Entity& e = MostPopular();
  InterestingnessVector v =
      pipeline_->interestingness().Extract(e.key, e.type);
  EXPECT_GT(v.freq_exact, 0.0);
  EXPECT_GE(v.freq_phrase_contained, v.freq_exact);
  EXPECT_GT(v.unit_score, 0.0);
  EXPECT_GT(v.searchengine_phrase, 0.0);
  EXPECT_DOUBLE_EQ(v.concept_size, static_cast<double>(e.TermCount()));
  EXPECT_DOUBLE_EQ(v.number_of_chars, static_cast<double>(e.key.size()));
  EXPECT_DOUBLE_EQ(v.high_level_type[static_cast<size_t>(e.type)], 1.0);
}

TEST_F(FeaturesTest, PopularEntityOutscoresUnpopular) {
  const Entity& hot = MostPopular();
  const Entity& cold = LeastPopular();
  auto vh = pipeline_->interestingness().Extract(hot.key, hot.type);
  auto vc = pipeline_->interestingness().Extract(cold.key, cold.type);
  EXPECT_GT(vh.freq_exact, vc.freq_exact);
  EXPECT_GT(vh.freq_phrase_contained, vc.freq_phrase_contained);
}

TEST_F(FeaturesTest, UnknownConceptGetsZeroQueryFeatures) {
  auto v = pipeline_->interestingness().Extract("zzz completely unknown",
                                                EntityType::kConcept);
  EXPECT_DOUBLE_EQ(v.freq_exact, 0.0);
  EXPECT_DOUBLE_EQ(v.unit_score, 0.0);
  EXPECT_DOUBLE_EQ(v.wiki_word_count, 0.0);
  EXPECT_DOUBLE_EQ(v.searchengine_phrase, 0.0);
}

TEST_F(FeaturesTest, FlattenRespectsGroupMask) {
  const Entity& e = MostPopular();
  auto v = pipeline_->interestingness().Extract(e.key, e.type);
  auto full = v.Flatten(kAllFeatureGroups);
  ASSERT_EQ(full.size(), InterestingnessVector::Dim());

  auto no_logs = v.Flatten(MaskWithout(FeatureGroup::kQueryLogs));
  EXPECT_EQ(no_logs[0], 0.0);
  EXPECT_EQ(no_logs[1], 0.0);
  EXPECT_EQ(no_logs[2], 0.0);
  EXPECT_EQ(no_logs[3], full[3]);  // Other groups untouched.

  auto no_tax = v.Flatten(MaskWithout(FeatureGroup::kTaxonomy));
  for (size_t i = 8; i < no_tax.size(); ++i) EXPECT_EQ(no_tax[i], 0.0);
  EXPECT_EQ(no_tax[0], full[0]);

  auto no_text = v.Flatten(MaskWithout(FeatureGroup::kTextBased));
  EXPECT_EQ(no_text[4], 0.0);
  EXPECT_EQ(no_text[5], 0.0);
  EXPECT_EQ(no_text[6], 0.0);

  auto no_sr = v.Flatten(MaskWithout(FeatureGroup::kSearchResults));
  EXPECT_EQ(no_sr[3], 0.0);

  auto no_other = v.Flatten(MaskWithout(FeatureGroup::kOther));
  EXPECT_EQ(no_other[7], 0.0);
}

TEST_F(FeaturesTest, MiningReturnsAtMostM) {
  const Entity& e = MostPopular();
  for (auto res : {RelevanceResource::kSnippets, RelevanceResource::kPrisma,
                   RelevanceResource::kQuerySuggestions}) {
    auto terms = pipeline_->relevance_miner().Mine(e.key, res, 25);
    EXPECT_LE(terms.size(), 25u) << RelevanceResourceName(res);
    // Sorted by descending score.
    for (size_t i = 1; i < terms.size(); ++i) {
      EXPECT_GE(terms[i - 1].score, terms[i].score);
    }
  }
}

TEST_F(FeaturesTest, MinedTermsAreStemsWithoutConceptTerms) {
  const Entity& e = MostPopular();
  auto terms =
      pipeline_->relevance_miner().Mine(e.key, RelevanceResource::kSnippets);
  ASSERT_FALSE(terms.empty());
  for (const RelevantTerm& t : terms) {
    // Mined terms are produced by the stemmer (note: Porter is not
    // guaranteed idempotent, so we check provenance-style properties).
    EXPECT_EQ(t.term, ToLowerAscii(t.term));
    EXPECT_FALSE(IsStopWord(t.term)) << t.term;
    EXPECT_GT(t.score, 0.0);
    EXPECT_EQ(StemPhrase(e.key).find(t.term + " "), std::string::npos);
  }
}

TEST_F(FeaturesTest, SnippetsMineCompanionWords) {
  // The paper's core claim: the mined keywords are the terms that co-occur
  // with the concept in its relevant contexts — for our world, the
  // companion vocabulary.
  const Entity& e = MostPopular();
  auto terms =
      pipeline_->relevance_miner().Mine(e.key, RelevanceResource::kSnippets);
  ASSERT_GE(terms.size(), 10u);
  std::unordered_set<std::string> mined;
  for (const auto& t : terms) mined.insert(t.term);
  size_t hits = 0;
  for (WordId wid : e.companions) {
    std::string stem = StemPhrase(pipeline_->world().vocabulary().Word(wid));
    if (mined.count(stem) > 0) ++hits;
  }
  EXPECT_GE(hits, e.companions.size() / 2);
}

// The snippet miner before it read token-id windows, kept as an oracle:
// text snippets from LegacyInvertedIndex over the same corpus, each
// tokenized and Porter-stemmed, tf in a string map, then the concept's
// stems erased, the df-ratio cutoff (0.15), tf * idf and a full sort.
std::vector<RelevantTerm> TextSnippetOracle(const Pipeline& p,
                                            const LegacyInvertedIndex& legacy,
                                            const std::string& key) {
  auto stemmed = [](std::string_view text) {
    std::vector<std::string> out;
    for (std::string& tok : TokenizeToStrings(text)) {
      if (!IsStopWord(tok)) out.push_back(PorterStem(tok));
    }
    return out;
  };
  std::unordered_map<std::string, double> tf;
  for (const SearchResult& hit : p.index().PhraseSearch(key, 100)) {
    for (std::string& stem : stemmed(legacy.Snippet(hit.doc, key))) {
      ++tf[stem];
    }
  }
  for (const std::string& own : stemmed(key)) tf.erase(own);
  const TermDictionary& dict = p.stemmed_term_dictionary();
  std::vector<RelevantTerm> out;
  for (const auto& [term, f] : tf) {
    if (dict.DocFreqRatio(term) > 0.15) continue;
    out.push_back({term, f * dict.Idf(term)});
  }
  std::sort(out.begin(), out.end(),
            [](const RelevantTerm& a, const RelevantTerm& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.term < b.term;
            });
  if (out.size() > 100) out.resize(100);
  return out;
}

TEST_F(FeaturesTest, SnippetMiningMatchesTextOracle) {
  LegacyInvertedIndex legacy;
  for (const Document& doc : WebCorpus()) legacy.Add(doc);
  legacy.Finalize();
  size_t mined = 0;
  for (const Entity& e : pipeline_->world().entities()) {
    const std::vector<RelevantTerm> want =
        TextSnippetOracle(*pipeline_, legacy, e.key);
    const std::vector<RelevantTerm> got =
        pipeline_->relevance_miner().Mine(e.key, RelevanceResource::kSnippets);
    ASSERT_EQ(got.size(), want.size()) << e.key;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].term, want[i].term) << e.key << " rank " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
                std::bit_cast<uint64_t>(want[i].score))
          << e.key << " rank " << i;
    }
    mined += got.size();
  }
  EXPECT_GT(mined, 1000u);
}

TEST_F(FeaturesTest, SummationSeparatesSpecificFromGeneric) {
  // Table II's shape: the top of the summation ranking is occupied by
  // specific concepts, not junk units. (The full paper-scale gap is
  // reproduced by bench_paper's Table II; at this reduced test
  // scale we assert the ordering of the extremes.)
  ASSERT_FALSE(pipeline_->world().GenericConcepts().empty());
  std::vector<double> specific_sums;
  for (const Entity& e : pipeline_->world().entities()) {
    if (e.is_generic || e.TermCount() < 2) continue;
    specific_sums.push_back(RelevanceMiner::SummationOfScores(
        pipeline_->relevance_miner().Mine(e.key,
                                          RelevanceResource::kSnippets)));
    if (specific_sums.size() >= 60) break;
  }
  std::sort(specific_sums.rbegin(), specific_sums.rend());
  ASSERT_GE(specific_sums.size(), 10u);
  double top10_mean = 0;
  for (size_t i = 0; i < 10; ++i) top10_mean += specific_sums[i];
  top10_mean /= 10;

  double junk_mean = 0;
  size_t junk_n = 0;
  for (EntityId id : pipeline_->world().GenericConcepts()) {
    junk_mean += RelevanceMiner::SummationOfScores(
        pipeline_->relevance_miner().Mine(pipeline_->world().entity(id).key,
                                          RelevanceResource::kSnippets));
    ++junk_n;
  }
  junk_mean /= static_cast<double>(junk_n);
  EXPECT_GT(top10_mean, 1.3 * junk_mean);
}

TEST_F(FeaturesTest, ScorerPresenceSemantics) {
  RelevanceScorer scorer;
  scorer.AddConcept("test concept", {{"alpha", 5.0}, {"beta", 3.0}});
  EXPECT_TRUE(scorer.HasConcept("Test  Concept"));
  EXPECT_DOUBLE_EQ(scorer.Score("test concept", "alpha text"), 5.0);
  EXPECT_DOUBLE_EQ(scorer.Score("test concept", "alpha beta text"), 8.0);
  // Presence, not frequency.
  EXPECT_DOUBLE_EQ(scorer.Score("test concept", "alpha alpha alpha"), 5.0);
  EXPECT_DOUBLE_EQ(scorer.Score("test concept", "gamma delta"), 0.0);
  EXPECT_DOUBLE_EQ(scorer.Score("unknown", "alpha"), 0.0);
}

TEST_F(FeaturesTest, ScorerStemsContext) {
  RelevanceScorer scorer;
  scorer.AddConcept("c", {{StemPhrase("running"), 2.0}});
  // "runs"/"running" stem together.
  EXPECT_GT(scorer.Score("c", "he was running fast"), 0.0);
}

TEST_F(FeaturesTest, RelevanceScoreHigherInOnTopicContext) {
  const Entity& e = MostPopular();
  RelevanceScorer scorer;
  scorer.AddConcept(
      e.key, pipeline_->relevance_miner().Mine(e.key,
                                               RelevanceResource::kSnippets));
  // On-topic context: a web doc of the entity's topic that mentions it;
  // off-topic: a doc from another topic.
  const std::vector<Document> corpus = WebCorpus();
  const Document* on = nullptr;
  const Document* off = nullptr;
  for (const Document& d : corpus) {
    if (on == nullptr && d.topic == e.primary_topic &&
        d.text.find(e.surface) != std::string::npos) {
      on = &d;
    }
    if (off == nullptr && d.topic != e.primary_topic &&
        d.topic != e.secondary_topic) {
      off = &d;
    }
    if (on && off) break;
  }
  ASSERT_NE(on, nullptr);
  ASSERT_NE(off, nullptr);
  EXPECT_GT(scorer.Score(e.key, on->text), 2.0 * scorer.Score(e.key, off->text));
}

TEST_F(FeaturesTest, ResourceNames) {
  EXPECT_EQ(RelevanceResourceName(RelevanceResource::kSnippets), "snippets");
  EXPECT_EQ(RelevanceResourceName(RelevanceResource::kPrisma), "prisma");
  EXPECT_EQ(RelevanceResourceName(RelevanceResource::kQuerySuggestions),
            "query_suggestions");
}

}  // namespace
}  // namespace ckr
