// Unit tests for ckr_detect: Aho-Corasick, pattern scanners, and the
// detection pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "corpus/doc_generator.h"
#include "detect/aho_corasick.h"
#include "detect/entity_detector.h"
#include "fnv_fold.h"
#include "text/pattern_detector.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

std::vector<std::string> Toks(const char* text) {
  return TokenizeToStrings(text);
}

TEST(AhoCorasickTest, SinglePhrase) {
  PhraseMatcher m;
  ASSERT_TRUE(m.AddPhrase("new york", 1).ok());
  m.Build();
  auto matches = m.FindAll(Toks("i love new york city"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].token_begin, 2u);
  EXPECT_EQ(matches[0].token_count, 2u);
  EXPECT_EQ(matches[0].payload, 1u);
}

TEST(AhoCorasickTest, OverlappingAndNestedMatches) {
  PhraseMatcher m;
  ASSERT_TRUE(m.AddPhrase("new york", 1).ok());
  ASSERT_TRUE(m.AddPhrase("new york city", 2).ok());
  ASSERT_TRUE(m.AddPhrase("york city hall", 3).ok());
  m.Build();
  auto matches = m.FindAll(Toks("new york city hall opened"));
  // All three (plus none spurious) are reported.
  ASSERT_EQ(matches.size(), 3u);
  std::vector<uint32_t> payloads;
  for (const auto& x : matches) payloads.push_back(x.payload);
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(AhoCorasickTest, RepeatedOccurrences) {
  PhraseMatcher m;
  ASSERT_TRUE(m.AddPhrase("ha", 7).ok());
  m.Build();
  auto matches = m.FindAll(Toks("ha ho ha ha"));
  EXPECT_EQ(matches.size(), 3u);
}

TEST(AhoCorasickTest, FailLinksAcrossSharedPrefixes) {
  PhraseMatcher m;
  ASSERT_TRUE(m.AddPhrase("a b c", 1).ok());
  ASSERT_TRUE(m.AddPhrase("b c d", 2).ok());
  m.Build();
  // "a b c d": "a b c" ends at token 2 and "b c d" at token 3 — the second
  // requires a fail-link transition, not a restart.
  auto matches = m.FindAll(Toks("a b c d"));
  ASSERT_EQ(matches.size(), 2u);
}

TEST(AhoCorasickTest, UnknownTermsResetState) {
  PhraseMatcher m;
  ASSERT_TRUE(m.AddPhrase("x y", 1).ok());
  m.Build();
  EXPECT_TRUE(m.FindAll(Toks("x qqq y")).empty());
}

TEST(AhoCorasickTest, DuplicatePhraseKeepsFirstPayload) {
  PhraseMatcher m;
  ASSERT_TRUE(m.AddPhrase("dup phrase", 1).ok());
  ASSERT_TRUE(m.AddPhrase("dup phrase", 2).ok());
  m.Build();
  EXPECT_EQ(m.NumPhrases(), 1u);
  auto matches = m.FindAll(Toks("dup phrase"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].payload, 1u);
}

TEST(AhoCorasickTest, ErrorsOnMisuse) {
  PhraseMatcher m;
  EXPECT_FALSE(m.AddPhrase("", 1).ok());
  ASSERT_TRUE(m.AddPhrase("ok", 1).ok());
  m.Build();
  EXPECT_FALSE(m.AddPhrase("late", 2).ok());
}

TEST(AhoCorasickTest, TermIdAndPreInternedFindAll) {
  PhraseMatcher m;
  ASSERT_TRUE(m.AddPhrase("new york", 1).ok());
  ASSERT_TRUE(m.AddPhrase("new york city", 2).ok());
  m.Build();
  // Every term of every phrase has a stable id; unknown terms do not.
  uint32_t t_new = m.TermId("new");
  uint32_t t_york = m.TermId("york");
  uint32_t t_city = m.TermId("city");
  EXPECT_NE(t_new, PhraseMatcher::kUnknownTerm);
  EXPECT_NE(t_york, PhraseMatcher::kUnknownTerm);
  EXPECT_NE(t_city, PhraseMatcher::kUnknownTerm);
  EXPECT_EQ(m.TermId("boston"), PhraseMatcher::kUnknownTerm);
  EXPECT_LT(t_new, m.NumTerms());

  // The pre-interned overload must agree with the string path, including
  // unknown-term state resets.
  std::vector<uint32_t> tids = {t_new, t_york, t_city};
  std::vector<PhraseMatch> got;
  m.FindAllTids(tids.data(), tids.size(), &got);
  auto want = m.FindAll({"new", "york", "city"});
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].token_begin, want[i].token_begin);
    EXPECT_EQ(got[i].token_count, want[i].token_count);
    EXPECT_EQ(got[i].payload, want[i].payload);
  }

  std::vector<uint32_t> broken = {t_new, PhraseMatcher::kUnknownTerm, t_york};
  m.FindAllTids(broken.data(), broken.size(), &got);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(m.FindAll({"new", "boston", "york"}).empty());
}

using MatchTuple = std::tuple<uint32_t, uint32_t, uint32_t>;

std::vector<MatchTuple> AsTuples(const std::vector<PhraseMatch>& matches) {
  std::vector<MatchTuple> out;
  for (const PhraseMatch& m : matches) {
    out.emplace_back(m.token_begin, m.token_count, m.payload);
  }
  return out;
}

// Brute-force reference for FindAllTids: at every end position, every
// registered phrase that ends there, longest first — the automaton reports
// a node's own phrase before the ones it inherits along its fail chain.
// `phrases` holds (term ids, payload) with duplicates already dropped.
std::vector<MatchTuple> BruteForceMatches(
    const std::vector<std::pair<std::vector<uint32_t>, uint32_t>>& phrases,
    const std::vector<uint32_t>& tids) {
  std::vector<MatchTuple> out;
  for (size_t end = 1; end <= tids.size(); ++end) {
    std::vector<MatchTuple> here;
    for (const auto& [terms, payload] : phrases) {
      if (terms.size() > end) continue;
      const size_t begin = end - terms.size();
      if (std::equal(terms.begin(), terms.end(), tids.begin() + begin)) {
        here.emplace_back(static_cast<uint32_t>(begin),
                          static_cast<uint32_t>(terms.size()), payload);
      }
    }
    std::sort(here.begin(), here.end(),
              [](const MatchTuple& a, const MatchTuple& b) {
                return std::get<1>(a) > std::get<1>(b);
              });
    out.insert(out.end(), here.begin(), here.end());
  }
  return out;
}

// Seeded sweep of the frozen automaton against the brute-force reference.
// Phrase sets alternate between narrow vocabularies (every node's fan-out
// is at most 8: the linear-probe spans) and wide ones (the root's dense
// row is wider than 8, and so are inner nodes, which binary-search).
// Streams mix phrase occurrences, terms of no phrase (kUnknownTerm) and
// raw ids >= NumTerms(), which must behave exactly like unknown terms:
// the string path, where those positions hold a word of no phrase, must
// report the same matches.
TEST(AhoCorasickTest, MatchesBruteForceOnRandomPhraseSets) {
  size_t narrow_sets = 0, wide_root_sets = 0, wide_inner_sets = 0;
  size_t total_matches = 0, out_of_range_ids = 0, unknown_ids = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const bool narrow = seed % 2 == 0;
    const size_t vocab = narrow ? 3 + rng.NextBounded(6)     // 3..8
                                : 12 + rng.NextBounded(29);  // 12..40
    auto word = [](size_t k) {
      return std::string("w").append(std::to_string(k));
    };

    PhraseMatcher m;
    std::vector<std::pair<std::vector<std::string>, uint32_t>> phrases;
    std::map<std::vector<std::string>, std::set<std::string>> fan_out;
    const size_t num_phrases = 1 + rng.NextBounded(60);
    for (uint32_t p = 0; p < num_phrases; ++p) {
      std::vector<std::string> terms;
      const size_t len = 1 + rng.NextBounded(4);
      for (size_t t = 0; t < len; ++t) {
        // A shared first term grows one wide inner node.
        terms.push_back(t == 0 && rng.NextBernoulli(0.5)
                            ? word(0)
                            : word(rng.NextBounded(vocab)));
      }
      std::string text;
      for (const std::string& t : terms) text += t + " ";
      ASSERT_TRUE(m.AddPhrase(text, p).ok());
      bool duplicate = false;
      for (const auto& [seen, payload] : phrases) duplicate |= seen == terms;
      if (!duplicate) phrases.emplace_back(terms, p);
      for (size_t t = 0; t < terms.size(); ++t) {
        fan_out[std::vector<std::string>(terms.begin(), terms.begin() + t)]
            .insert(terms[t]);
      }
    }
    m.Build();
    size_t widest_inner = 0;
    for (const auto& [prefix, next] : fan_out) {
      if (!prefix.empty()) widest_inner = std::max(widest_inner, next.size());
    }
    const size_t root_fan_out = fan_out[{}].size();
    if (narrow) {
      ASSERT_LE(root_fan_out, 8u);
      ++narrow_sets;
    } else {
      wide_root_sets += root_fan_out > 8;
      wide_inner_sets += widest_inner > 8;
    }

    std::vector<std::pair<std::vector<uint32_t>, uint32_t>> ref;
    for (const auto& [terms, payload] : phrases) {
      std::vector<uint32_t> ids;
      for (const std::string& t : terms) ids.push_back(m.TermId(t));
      ref.emplace_back(ids, payload);
    }

    for (int stream = 0; stream < 20; ++stream) {
      std::vector<std::string> words;
      std::vector<uint32_t> tids;
      const size_t len = rng.NextBounded(200);
      while (words.size() < len) {
        const uint64_t u = rng.NextBounded(100);
        if (u < 40) {
          for (const std::string& t :
               phrases[rng.NextBounded(phrases.size())].first) {
            words.push_back(t);
            tids.push_back(m.TermId(t));
          }
        } else if (u < 85) {
          // Vocabulary words; the last few are in no phrase.
          words.push_back(word(rng.NextBounded(vocab + 3)));
          tids.push_back(m.TermId(words.back()));
        } else {
          words.push_back("oov");
          const uint32_t big[] = {static_cast<uint32_t>(m.NumTerms()),
                                  static_cast<uint32_t>(m.NumTerms()) + 7,
                                  PhraseMatcher::kUnknownTerm - 1};
          tids.push_back(big[rng.NextBounded(3)]);
          ++out_of_range_ids;
        }
      }
      for (uint32_t tid : tids) unknown_ids += tid == PhraseMatcher::kUnknownTerm;

      std::vector<PhraseMatch> got;
      m.FindAllTids(tids.data(), tids.size(), &got);
      const std::vector<MatchTuple> want = BruteForceMatches(ref, tids);
      ASSERT_EQ(AsTuples(got), want) << "seed " << seed << " stream " << stream;
      ASSERT_EQ(AsTuples(m.FindAll(words)), want)
          << "seed " << seed << " stream " << stream;
      total_matches += want.size();
    }
  }
  // Every branch of the sweep was exercised.
  EXPECT_EQ(narrow_sets, 20u);
  EXPECT_GT(wide_root_sets, 10u);
  EXPECT_GT(wide_inner_sets, 0u);
  EXPECT_GT(out_of_range_ids, 1000u);
  EXPECT_GT(unknown_ids, 1000u);
  EXPECT_GT(total_matches, 10000u);
}

// Email literals are assembled at runtime so the source file contains no
// address-shaped strings.
std::string MakeAddr(const char* local, const char* domain) {
  return std::string(local) + "@" + domain;
}

TEST(PatternTest, Emails) {
  std::string addr = MakeAddr("jane.doe", "example.com");
  auto matches = DetectPatterns("mail me at " + addr + " today");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].kind, PatternKind::kEmail);
  EXPECT_EQ(matches[0].text, addr);
}

TEST(PatternTest, EmailWithPlusAndDots) {
  std::string addr = MakeAddr("a.b+tag_1", "sub.domain.org");
  auto matches = DetectPatterns(addr);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].text, addr);
}

TEST(PatternTest, Urls) {
  auto matches =
      DetectPatterns("see http://example.com/path?q=1 and www.test.org.");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].kind, PatternKind::kUrl);
  EXPECT_EQ(matches[0].text, "http://example.com/path?q=1");
  EXPECT_EQ(matches[1].text, "www.test.org");  // Trailing dot stripped.
}

TEST(PatternTest, HttpsUrl) {
  auto matches = DetectPatterns("(https://a.b.co/x)");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].text, "https://a.b.co/x");
}

TEST(PatternTest, Phones) {
  auto matches = DetectPatterns("call 555-123-4567 or (408) 555-1234 now");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].kind, PatternKind::kPhone);
  EXPECT_EQ(matches[0].text, "555-123-4567");
  EXPECT_EQ(matches[1].text, "(408) 555-1234");
}

TEST(PatternTest, BareNumbersAreNotPhones) {
  EXPECT_TRUE(DetectPatterns("the year 2008 and 5551234567").empty());
}

TEST(PatternTest, ShortDigitGroupsAreNotPhones) {
  EXPECT_TRUE(DetectPatterns("score was 12-34 yesterday").empty());
}

TEST(PatternTest, OffsetsPointIntoSource) {
  std::string text = "x " + MakeAddr("user", "host.net") + " y";
  auto matches = DetectPatterns(text);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(text.substr(matches[0].begin, matches[0].end - matches[0].begin),
            matches[0].text);
}

TEST(PatternTest, BoundaryStraddlersReportAbsoluteSpans) {
  // Matches that start a few bytes before offset 64 and end past it, so
  // their spans cross a 64-byte boundary, next to texts with no match.
  const std::string pad(60, 'x');
  struct Case {
    std::string text;
    std::vector<std::pair<size_t, size_t>> spans;
    std::vector<PatternKind> kinds;
  };
  const Case cases[] = {
      {pad + " www.example.com and tail words here", {{61, 76}},
       {PatternKind::kUrl}},
      {pad + " https://site.org/path more", {{61, 82}}, {PatternKind::kUrl}},
      {pad + " 555-123-4567 trailing", {{61, 73}}, {PatternKind::kPhone}},
      {pad + " bob.smith@mail.example.com end", {{61, 87}},
       {PatternKind::kEmail}},
      {pad + "  " + pad + " nothing at all", {}, {}},
      {"", {}, {}},
      {"short", {}, {}},
      {std::string(200, 'a'), {}, {}},
  };
  for (const Case& c : cases) {
    const auto matches = DetectPatterns(c.text);
    ASSERT_EQ(matches.size(), c.spans.size()) << "text: " << c.text;
    for (size_t i = 0; i < matches.size(); ++i) {
      EXPECT_EQ(matches[i].begin, c.spans[i].first) << "text: " << c.text;
      EXPECT_EQ(matches[i].end, c.spans[i].second) << "text: " << c.text;
      EXPECT_EQ(matches[i].kind, c.kinds[i]) << "text: " << c.text;
      EXPECT_EQ(matches[i].text,
                c.text.substr(matches[i].begin,
                              matches[i].end - matches[i].begin));
    }
  }
}

class DetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<EntityDetector::DictionaryEntry> dict = {
        {"barack obama", EntityType::kPerson, 3},
        {"new york", EntityType::kPlace, 0},
        {"new york times", EntityType::kOrganization, 1},
        {"texas", EntityType::kPlace, 2},
    };
    UnitDictionary units;
    units.Add({"auto insurance", 2, 100, 2.0, 0.8});
    units.Add({"insurance", 1, 400, 0.0, 0.5});   // Single-term: ignored.
    units.Add({"new york", 2, 900, 3.0, 0.95});   // Collides with dict.
    units_ = std::move(units);
    detector_ = std::make_unique<EntityDetector>(dict, &units_);
  }
  UnitDictionary units_;
  std::unique_ptr<EntityDetector> detector_;
};

TEST_F(DetectorTest, DetectsDictionaryEntities) {
  auto dets = detector_->Detect("Barack Obama visited Texas yesterday.");
  ASSERT_EQ(dets.size(), 2u);
  EXPECT_EQ(dets[0].key, "barack obama");
  EXPECT_EQ(dets[0].type, EntityType::kPerson);
  EXPECT_TRUE(dets[0].from_dictionary);
  EXPECT_EQ(dets[0].surface, "Barack Obama");
  EXPECT_EQ(dets[1].key, "texas");
}

TEST_F(DetectorTest, DetectsConceptsFromUnits) {
  auto dets = detector_->Detect("cheap auto insurance offers");
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].key, "auto insurance");
  EXPECT_EQ(dets[0].type, EntityType::kConcept);
  EXPECT_FALSE(dets[0].from_dictionary);
  EXPECT_DOUBLE_EQ(dets[0].unit_score, 0.8);
}

TEST_F(DetectorTest, DictionaryIdentityWinsOverUnit) {
  auto dets = detector_->Detect("I moved to New York recently");
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].key, "new york");
  EXPECT_EQ(dets[0].type, EntityType::kPlace);
  EXPECT_TRUE(dets[0].from_dictionary);
  // The unit score is still attached for the ranking features.
  EXPECT_DOUBLE_EQ(dets[0].unit_score, 0.95);
}

TEST_F(DetectorTest, LongestMatchWinsCollision) {
  auto dets = detector_->Detect("the New York Times reported");
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].key, "new york times");
  EXPECT_EQ(dets[0].type, EntityType::kOrganization);
}

TEST_F(DetectorTest, PatternsCoexistWithEntities) {
  auto dets = detector_->Detect(
      "Barack Obama's office: call 555-123-4567 or visit "
      "http://whitehouse.gov now");
  ASSERT_EQ(dets.size(), 3u);
  EXPECT_EQ(dets[0].type, EntityType::kPerson);
  EXPECT_EQ(dets[1].type, EntityType::kPattern);
  EXPECT_EQ(dets[2].type, EntityType::kPattern);
}

TEST_F(DetectorTest, OffsetsAreByteAccurate) {
  std::string text = "  Barack Obama, in Texas.";
  auto dets = detector_->Detect(text);
  ASSERT_EQ(dets.size(), 2u);
  for (const Detection& d : dets) {
    EXPECT_EQ(text.substr(d.begin, d.end - d.begin), d.surface);
  }
}

TEST_F(DetectorTest, CaseInsensitiveMatching) {
  auto dets = detector_->Detect("BARACK OBAMA and teXas");
  EXPECT_EQ(dets.size(), 2u);
}

TEST_F(DetectorTest, DetectRawAgreesWithDetect) {
  const std::string texts[] = {
      "Barack Obama visited New York and the New York Times newsroom.",
      "Call 555-123-4567 or see http://nytimes.example.com about texas "
      "auto insurance in New York City.",
      "",
      "no entities here at all",
  };
  EntityDetector::Scratch scratch;  // Reused across documents.
  for (const std::string& text : texts) {
    auto dets = detector_->Detect(text);
    detector_->DetectRaw(text, &scratch);
    ASSERT_EQ(scratch.raw.size(), dets.size()) << "text: " << text;
    for (size_t i = 0; i < dets.size(); ++i) {
      const auto& r = scratch.raw[i];
      EXPECT_EQ(r.begin, dets[i].begin);
      EXPECT_EQ(r.end, dets[i].end);
      EXPECT_EQ(r.type, dets[i].type);
      if (r.entry_id != EntityDetector::kPatternEntry) {
        EXPECT_EQ(detector_->EntryKey(r.entry_id), dets[i].key);
      }
    }
  }
}

TEST_F(DetectorTest, EntryFreeDocStillReportsPatterns) {
  // No dictionary or unit term appears, so the phrase stage finds
  // nothing; the pattern stage is independent and must still fire.
  const auto dets = detector_->Detect("reach me at bob@example.com please");
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].type, EntityType::kPattern);
  EXPECT_EQ(dets[0].surface, "bob@example.com");
}

TEST(DetectorWorldTest, FromWorldDetectsPlantedMentions) {
  WorldConfig cfg;
  cfg.num_topics = 6;
  cfg.background_vocab = 600;
  cfg.words_per_topic = 40;
  cfg.num_named_entities = 150;
  cfg.num_concepts = 80;
  cfg.num_generic_concepts = 10;
  auto world_or = World::Create(cfg);
  ASSERT_TRUE(world_or.ok());
  const World& world = **world_or;
  EntityDetector detector = EntityDetector::FromWorld(world, nullptr);
  EXPECT_GT(detector.NumDictionaryEntries(), 100u);

  DocGenerator gen(world);
  size_t planted_dict = 0, found = 0;
  for (DocId id = 0; id < 20; ++id) {
    Document doc = gen.Generate(Document::Kind::kNews, id);
    auto dets = detector.Detect(doc.text);
    for (const MentionTruth& m : doc.mentions) {
      const Entity& e = world.entity(m.entity);
      if (!e.in_dictionary) continue;
      ++planted_dict;
      for (const Detection& d : dets) {
        if (d.key == e.key && d.begin <= m.begin && d.end >= m.end) {
          ++found;
          break;
        }
      }
    }
  }
  ASSERT_GT(planted_dict, 30u);
  // Nearly all planted dictionary mentions are recovered (a few are lost
  // to longest-match collisions with overlapping entities).
  EXPECT_GT(static_cast<double>(found) / static_cast<double>(planted_dict),
            0.9);
}

// ---------------------------------------------------------------------
// Golden detection fingerprint. FNV-1a over the key, surface, byte span
// and type of every Detect() output, entities and patterns alike, across
// randomized documents that mix entry phrases, entry prefixes, pattern
// entities and out-of-vocabulary noise (3 seeds x 120 docs), plus a
// generated news batch over a world dictionary. The constant was
// recorded from the detector before its term-signature and
// pattern-window prefilters were removed; any change to detection
// output changes it.

using testing_fnv::Fnv1a;
using testing_fnv::FoldString;

uint64_t FoldDetections(const std::vector<Detection>& dets, uint64_t h) {
  const uint64_t count = dets.size();
  h = Fnv1a(h, &count, sizeof(count));
  for (const Detection& d : dets) {
    h = FoldString(h, d.key);
    h = FoldString(h, d.surface);
    const uint64_t begin = d.begin, end = d.end;
    const int32_t type = static_cast<int32_t>(d.type);
    h = Fnv1a(h, &begin, sizeof(begin));
    h = Fnv1a(h, &end, sizeof(end));
    h = Fnv1a(h, &type, sizeof(type));
  }
  return h;
}

TEST(DetectorGoldenTest, DetectionFingerprintIsPinned) {
  uint64_t h = testing_fnv::kFnvOffsetBasis;
  size_t patterns = 0, entities = 0;
  auto fold = [&](const std::vector<Detection>& dets) {
    for (const Detection& d : dets) {
      (d.type == EntityType::kPattern ? patterns : entities) += 1;
    }
    h = FoldDetections(dets, h);
  };

  std::vector<EntityDetector::DictionaryEntry> dict;
  for (int e = 0; e < 12; ++e) {
    std::string key = std::string("e").append(std::to_string(e));
    if (e % 3 != 0) key += " f" + std::to_string(e);  // Multi-term entries.
    if (e % 5 == 0) key += " g" + std::to_string(e);
    dict.push_back({key, EntityType::kConcept, 0});
  }
  const EntityDetector synthetic(dict, nullptr);
  const char* pattern_bits[] = {"bob@mail.example.com", "www.example.com",
                                "https://x.org/a", "555-123-4567"};
  for (const uint64_t seed : {19u, 43u, 67u}) {
    Rng rng(seed);
    for (int doc = 0; doc < 120; ++doc) {
      std::string text;
      const size_t len = rng.NextBounded(60);
      for (size_t i = 0; i < len; ++i) {
        const uint64_t u = rng.NextBounded(100);
        if (u < 20) {
          // An entry phrase or its first term only (a partial match).
          const auto& key = dict[rng.NextBounded(dict.size())].key;
          text += rng.NextBernoulli(0.5) ? key
                                         : key.substr(0, key.find(' '));
          text += " ";
        } else if (u < 24) {
          text += std::string(pattern_bits[rng.NextBounded(4)]) + " ";
        } else {
          text.append("n")
              .append(std::to_string(rng.NextBounded(400)))
              .append(" ");
        }
      }
      fold(synthetic.Detect(text));
    }
  }

  WorldConfig cfg;
  cfg.num_topics = 6;
  cfg.background_vocab = 600;
  cfg.words_per_topic = 40;
  cfg.num_named_entities = 150;
  cfg.num_concepts = 80;
  cfg.num_generic_concepts = 10;
  auto world_or = World::Create(cfg);
  ASSERT_TRUE(world_or.ok());
  const World& world = **world_or;
  const EntityDetector news = EntityDetector::FromWorld(world, nullptr);
  DocGenerator gen(world);
  for (DocId id = 0; id < 40; ++id) {
    fold(news.Detect(gen.Generate(Document::Kind::kNews, id).text));
  }

  // Both halves must contribute, or the pin would not cover them.
  EXPECT_GT(patterns, 100u);
  EXPECT_GT(entities, 500u);
  EXPECT_EQ(h, 0x522ac38c1bdb03d9ull) << "fingerprint: " << std::hex << h;
}

}  // namespace
}  // namespace ckr
