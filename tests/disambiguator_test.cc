// Tests for sense disambiguation (the paper's "jaguar" case).
#include <gtest/gtest.h>

#include "detect/disambiguator.h"
#include "detect/entity_detector.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

SenseDisambiguator MakeJaguar() {
  SenseDisambiguator d;
  Sense animal;
  animal.type = EntityType::kAnimal;
  animal.subtype = 0;
  animal.profile = {"jungle", "predator", "cat", "wildlife", "prey"};
  Sense car;
  car.type = EntityType::kProduct;
  car.subtype = 1;
  car.profile = {"engine", "sedan", "luxury", "dealership", "horsepower"};
  d.AddSense("jaguar", animal);
  d.AddSense("jaguar", car);
  return d;
}

TEST(DisambiguatorTest, ResolvesByContext) {
  SenseDisambiguator d = MakeJaguar();
  EXPECT_TRUE(d.HasSenses("Jaguar"));
  EXPECT_FALSE(d.HasSenses("tiger"));
  EXPECT_EQ(d.NumAmbiguousKeys(), 1u);

  auto animal_ctx = TokenizeToStrings(
      "deep in the jungle the jaguar stalked its prey at night");
  auto car_ctx = TokenizeToStrings(
      "the new jaguar sedan has a quiet engine and luxury seats");
  size_t pos_a = 5, pos_c = 2;  // Token index of "jaguar" in each.
  const Sense* sa = d.Resolve("jaguar", animal_ctx, pos_a, pos_a + 1);
  const Sense* sc = d.Resolve("jaguar", car_ctx, pos_c, pos_c + 1);
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sa->type, EntityType::kAnimal);
  EXPECT_EQ(sc->type, EntityType::kProduct);
}

TEST(DisambiguatorTest, TieFallsBackToPrimarySense) {
  SenseDisambiguator d = MakeJaguar();
  auto neutral = TokenizeToStrings("the jaguar was mentioned briefly today");
  const Sense* s = d.Resolve("jaguar", neutral, 1, 2);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, EntityType::kAnimal);  // First registered sense.
}

TEST(DisambiguatorTest, UnknownKeyReturnsNull) {
  SenseDisambiguator d = MakeJaguar();
  auto ctx = TokenizeToStrings("some text");
  EXPECT_EQ(d.Resolve("tiger", ctx, 0, 1), nullptr);
}

TEST(DisambiguatorTest, WindowBoundsRespected) {
  SenseDisambiguator d = MakeJaguar();
  // The car cue is 30 tokens away: outside a 5-token window.
  std::vector<std::string> far_ctx;
  far_ctx.push_back("jaguar");
  for (int i = 0; i < 29; ++i) far_ctx.push_back("filler");
  far_ctx.push_back("engine");
  const Sense* s = d.Resolve("jaguar", far_ctx, 0, 1, /*window_tokens=*/5);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, EntityType::kAnimal);  // Cue unseen -> primary.
  const Sense* wide = d.Resolve("jaguar", far_ctx, 0, 1, /*window_tokens=*/40);
  EXPECT_EQ(wide->type, EntityType::kProduct);  // Cue seen.
}

TEST(DisambiguatorTest, MentionTokensDoNotSelfVote) {
  SenseDisambiguator d;
  Sense self;
  self.type = EntityType::kPlace;
  self.profile = {"paris"};  // Profile equals the mention itself.
  Sense other;
  other.type = EntityType::kPerson;
  other.profile = {"hilton"};
  d.AddSense("paris", self);
  d.AddSense("paris", other);
  auto ctx = TokenizeToStrings("socialite paris hilton arrived");
  const Sense* s = d.Resolve("paris", ctx, 1, 2);
  ASSERT_NE(s, nullptr);
  // "paris" inside the mention does not count; "hilton" next to it does.
  EXPECT_EQ(s->type, EntityType::kPerson);
}

TEST(DetectorDisambiguationTest, EndToEndTypeOverride) {
  std::vector<EntityDetector::DictionaryEntry> dict = {
      {"jaguar", EntityType::kAnimal, 0},
  };
  EntityDetector detector(dict, nullptr);
  SenseDisambiguator d = MakeJaguar();
  detector.SetDisambiguator(&d);

  auto dets =
      detector.Detect("The Jaguar dealership sells a luxury sedan model.");
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].key, "jaguar");
  EXPECT_EQ(dets[0].type, EntityType::kProduct);

  auto dets2 = detector.Detect("A jaguar is a large predator of the jungle.");
  ASSERT_EQ(dets2.size(), 1u);
  EXPECT_EQ(dets2[0].type, EntityType::kAnimal);

  detector.SetDisambiguator(nullptr);
  auto dets3 =
      detector.Detect("The Jaguar dealership sells a luxury sedan model.");
  ASSERT_EQ(dets3.size(), 1u);
  EXPECT_EQ(dets3[0].type, EntityType::kAnimal);  // Dictionary default.
}

}  // namespace
}  // namespace ckr
