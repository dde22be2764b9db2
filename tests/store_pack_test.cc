// Tests for framework binary I/O and the deployable store pack.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "blob_mutation.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "common/check.h"
#include "core/contextual_ranker.h"
#include "corpus/doc_generator.h"
#include "detect/entity_detector.h"
#include "framework/store_pack.h"

namespace ckr {
namespace {

TEST(BinaryIoTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.U16(0xabcd);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.F64(-3.75);
  w.Str("hello binary");
  w.Str("");
  std::string blob = w.Release();

  BinaryReader r(blob);
  EXPECT_EQ(r.U16(), 0xabcd);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.F64(), -3.75);
  EXPECT_EQ(r.Str(), "hello binary");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, OverReadSetsNotOk) {
  BinaryWriter w;
  w.U32(7);
  std::string blob = w.Release();
  BinaryReader r(blob);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // Past the end.
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.AtEnd());
}

TEST(BinaryIoTest, CorruptStringLengthDetected) {
  BinaryWriter w;
  w.U32(1000);  // Claims a 1000-byte string with no payload.
  std::string blob = w.Release();
  BinaryReader r(blob);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(StoreComponentTest, TidTableRoundTrip) {
  GlobalTidTable table;
  uint32_t a = table.Intern("alpha");
  uint32_t b = table.Intern("beta stem");
  BinaryWriter w;
  table.SaveTo(&w);
  std::string blob = w.Release();
  BinaryReader r(blob);
  auto restored = GlobalTidTable::LoadFrom(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Lookup("alpha"), a);
  EXPECT_EQ(restored->Lookup("beta stem"), b);
  EXPECT_EQ(restored->size(), 2u);
}

// The table's bytes list entries by tid, so they do not depend on the
// hash table's bucket history: a table grown term by term and the same
// mapping loaded into a pre-sized table serialize identically.
TEST(StoreComponentTest, TidTableBytesFollowTidOrder) {
  GlobalTidTable grown;
  for (int i = 0; i < 500; ++i) grown.Intern("term" + std::to_string(i));
  BinaryWriter w;
  grown.SaveTo(&w);
  const std::string blob = w.Release();
  BinaryReader r(blob);
  auto loaded = GlobalTidTable::LoadFrom(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  BinaryWriter again;
  loaded->SaveTo(&again);
  EXPECT_EQ(again.buffer(), blob);

  BinaryReader entries(blob);
  entries.U32();  // 'TI01'
  ASSERT_EQ(entries.U32(), 500u);
  for (uint32_t tid = 0; tid < 500; ++tid) {
    EXPECT_EQ(entries.Str(), "term" + std::to_string(tid));
    EXPECT_EQ(entries.U32(), tid);
  }
}

TEST(StoreComponentTest, TidTableRejectsDuplicateOrOutOfOrderTids) {
  using Entries = std::vector<std::pair<std::string, uint32_t>>;
  const auto load = [](const Entries& entries) {
    BinaryWriter w;
    w.U32(0x54493031);  // 'TI01'
    w.U32(static_cast<uint32_t>(entries.size()));
    for (const auto& [term, tid] : entries) {
      w.Str(term);
      w.U32(tid);
    }
    const std::string blob = w.Release();
    BinaryReader r(blob);
    return GlobalTidTable::LoadFrom(&r).status();
  };
  ASSERT_TRUE(load({{"a", 0}, {"b", 1}}).ok());
  for (const Entries& bad : {Entries{{"a", 1}, {"b", 0}},    // Out of order.
                             Entries{{"a", 0}, {"b", 0}},    // Repeated tid.
                             Entries{{"a", 0}, {"b", 2}},    // Not dense.
                             Entries{{"a", 0}, {"a", 1}}}) { // Repeated term.
    const Status status = load(bad);
    ASSERT_FALSE(status.ok()) << bad[0].first << bad[1].first;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(StoreComponentTest, QuantizedStoreRoundTrip) {
  GlobalTidTable tids;
  ConceptStore store;
  InterestingnessVector v;
  v.freq_exact = 3.5;
  v.unit_score = 0.7;
  v.high_level_type[1] = 1.0;
  store.Add("concept x", v, {});
  InterestingnessVector zero;
  store.Add("concept y", zero, {});
  store.Finalize(&tids);

  BinaryWriter w;
  store.SaveTo(&w);
  std::string blob = w.Release();
  BinaryReader r(blob);
  auto restored = ConceptStore::LoadFrom(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::vector<double> orig, loaded;
  ASSERT_TRUE(store.Lookup("concept x", &orig));
  ASSERT_TRUE(restored->Lookup("concept x", &loaded));
  ASSERT_EQ(orig.size(), loaded.size());
  for (size_t i = 0; i < orig.size(); ++i) {
    EXPECT_DOUBLE_EQ(orig[i], loaded[i]) << i;
  }
}

TEST(StoreComponentTest, PackedRelevanceRoundTrip) {
  GlobalTidTable tids;
  ConceptStore store;
  store.Add("c1", {}, {{"ta", 10.0}, {"tb", 5.0}});
  store.Add("c2", {}, {{"tb", 8.0}, {"tc", 1.0}});
  store.Finalize(&tids);

  BinaryWriter w;
  store.SaveTo(&w);
  std::string blob = w.Release();
  BinaryReader r(blob);
  auto restored = ConceptStore::LoadFrom(&r);
  ASSERT_TRUE(restored.ok());
  std::unordered_set<uint32_t> ctx = {tids.Lookup("ta"), tids.Lookup("tb")};
  EXPECT_NEAR(restored->Score("c1", ctx), store.Score("c1", ctx), 1e-9);
  EXPECT_NEAR(restored->Score("c2", ctx), store.Score("c2", ctx), 1e-9);
}

TEST(StorePackTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(StorePack::Deserialize("garbage").ok());
  EXPECT_FALSE(StorePack::Deserialize("").ok());
}

/// A linear model over `dim` standardized features, weight i being
/// w * (i + 1), built as the binary model blob.
RankSvmModel LinearModel(size_t dim, double w) {
  BinaryWriter blob;
  blob.Str("ckr.ranksvm.v2");
  blob.U16(0);  // Linear kernel.
  blob.U32(static_cast<uint32_t>(dim));  // Input width.
  blob.U32(static_cast<uint32_t>(dim));  // Weights.
  blob.U32(0);                           // RFF width.
  for (size_t i = 0; i < dim; ++i) blob.F64(0.0);  // Means.
  for (size_t i = 0; i < dim; ++i) blob.F64(1.0);  // Inverse deviations.
  for (size_t i = 0; i < dim; ++i) {
    blob.F64(w * static_cast<double>(i + 1));
  }
  auto model = RankSvmModel::Deserialize(blob.Release());
  CKR_CHECK(model.ok());
  return *model;
}

// A tiny but complete pack, cheap enough to deserialize hundreds of
// mutated copies of.
std::string SmallPackBlob() {
  GlobalTidTable tids;
  ConceptStore concepts;
  InterestingnessVector v;
  v.freq_exact = 1.5;
  concepts.Add("concept x", v, {{"ta", 10.0}, {"tb", 5.0}});
  concepts.Add("concept y", {}, {{"tb", 8.0}});
  concepts.Finalize(&tids);
  return SerializeStorePack(tids, concepts, LinearModel(2, 1.0));
}

/// `blob` with the `nth` (0-based) occurrence of `from` replaced by `to`.
std::string ReplaceNth(std::string blob, std::string_view from,
                       std::string_view to, int nth) {
  size_t at = blob.find(from);
  for (int i = 0; i < nth && at != std::string::npos; ++i) {
    at = blob.find(from, at + from.size());
  }
  CKR_CHECK(at != std::string::npos);
  return blob.replace(at, from.size(), to);
}

/// `blob` with both occurrences of "concept y" (its 'QI01' and its 'PR01'
/// record) renamed to `to`.
std::string RenameConceptY(const std::string& blob, std::string_view to) {
  return ReplaceNth(ReplaceNth(blob, "concept y", to, 0), "concept y", to, 0);
}

TEST(StorePackTest, SectionsListingDifferentKeysAreRejected) {
  const std::string blob = SmallPackBlob();
  // Renamed in both sections, the pack still loads...
  ASSERT_TRUE(StorePack::Deserialize(RenameConceptY(blob, "concept z")).ok());
  // ...but renamed in the relevance section alone, it must not.
  auto pack =
      StorePack::Deserialize(ReplaceNth(blob, "concept y", "concept z", 1));
  ASSERT_FALSE(pack.ok());
  EXPECT_EQ(pack.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pack.status().ToString().find("different keys"),
            std::string::npos)
      << pack.status().ToString();
}

TEST(StorePackTest, UnsortedOrDuplicateKeysAreRejected) {
  const std::string blob = SmallPackBlob();
  // "concept a" sorts before "concept x"; "concept x" repeats the first.
  for (const char* key : {"concept a", "concept x"}) {
    auto pack = StorePack::Deserialize(RenameConceptY(blob, key));
    ASSERT_FALSE(pack.ok()) << key;
    EXPECT_EQ(pack.status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(pack.status().ToString().find("strictly ascending"),
              std::string::npos)
        << pack.status().ToString();
  }
}

TEST(StorePackTest, TextModelBlobIsRejected) {
  // The pack's last field is its model blob; swap it for a text blob in
  // the retired "ranksvm v1" format.
  const std::string blob = SmallPackBlob();
  const std::string model = LinearModel(2, 1.0).SerializeBinary();
  BinaryWriter text;
  text.Str(
      "ranksvm v1\nkernel linear\nmean 2 0 0\ninv_sd 2 1 1\n"
      "weights 2 1 2\nrff 0\n");
  const std::string with_text =
      blob.substr(0, blob.size() - sizeof(uint32_t) - model.size()) +
      text.Release();
  ASSERT_TRUE(StorePack::Deserialize(blob).ok());
  auto pack = StorePack::Deserialize(with_text);
  ASSERT_FALSE(pack.ok());
  EXPECT_EQ(pack.status().code(), StatusCode::kInvalidArgument);
}

TEST(StorePackTest, EveryTruncatedPrefixIsRejected) {
  std::string blob = SmallPackBlob();
  ASSERT_TRUE(StorePack::Deserialize(blob).ok());
  // Chop the valid pack at every 7th byte: every strict prefix must be
  // rejected with a Status — no abort, no overread, no false accept.
  for (size_t len = 0; len < blob.size(); len += 7) {
    auto truncated = StorePack::Deserialize(blob.substr(0, len));
    EXPECT_FALSE(truncated.ok()) << "prefix of " << len << " bytes parsed";
  }
}

/// A small pack whose model takes the runtime's feature vector (the
/// interestingness vector plus one relevance score), over `concepts`,
/// each relevant to the terms "ta".."td".
std::string ServablePackBlob(const std::vector<std::string>& concepts,
                             double w) {
  GlobalTidTable tids;
  ConceptStore store;
  for (size_t c = 0; c < concepts.size(); ++c) {
    InterestingnessVector v;
    v.freq_exact = 1.5 + static_cast<double>(c);
    store.Add(concepts[c], v,
              {{"ta", 10.0 - static_cast<double>(c)},
               {"tb", 5.0},
               {c % 2 == 0 ? "tc" : "td", 2.0}});
  }
  store.Finalize(&tids);
  return SerializeStorePack(
      tids, store, LinearModel(InterestingnessVector::Dim() + 1, w));
}

// BlockIndexMutationTest's mutation sweep on the store pack: every mutant
// is rejected with a Status, or loads into a RuntimeRanker that ranks a
// document mentioning the pack's concepts with annotations inside it.
TEST(StorePackMutationTest, MutantsAreRejectedOrServeSafely) {
  const std::vector<std::string> concepts = {"concept x", "concept y",
                                             "concept z"};
  const std::string blob = ServablePackBlob(concepts, 0.25);
  const std::string other = ServablePackBlob({"concept y", "other w"}, -1.0);
  std::vector<EntityDetector::DictionaryEntry> dict;
  for (const char* key : {"concept x", "concept y", "concept z", "other w"}) {
    dict.push_back({key, EntityType::kConcept, 0});
  }
  const EntityDetector detector(dict, nullptr);
  const std::string doc =
      "ta tb: concept x met concept y, then concept z and other w. tc td";
  {
    auto pack = StorePack::Deserialize(blob);
    ASSERT_TRUE(pack.ok()) << pack.status().ToString();
    RuntimeRanker ranker(detector, pack->concepts, pack->tids, pack->model);
    ASSERT_EQ(ranker.ProcessDocument(doc).size(), 3u);
  }
  Rng rng(20090401);
  size_t rejected = 0;
  size_t served = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string label = "mutant " + std::to_string(i);
    auto pack = StorePack::Deserialize(MutateBlob(&rng, blob, other));
    if (!pack.ok()) {
      ++rejected;
      continue;
    }
    ++served;
    RuntimeRanker ranker(detector, pack->concepts, pack->tids, pack->model);
    const std::vector<RankedAnnotation> ranked = ranker.ProcessDocument(doc);
    ASSERT_LE(ranked.size(), dict.size()) << label;
    for (const RankedAnnotation& a : ranked) {
      ASSERT_LT(a.begin, a.end) << label;
      ASSERT_LE(a.end, doc.size()) << label;
    }
  }
  // Both outcomes occur, so the sweep reaches past the header checks.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(served, 0u);
}

TEST(StoreComponentTest, TidTableRejectsCorruptCount) {
  BinaryWriter w;
  w.U32(0x54493031);  // 'TI01'
  w.U32(0xFFFFFFFF);  // Claims 4 billion entries in an empty payload.
  BinaryReader r(w.buffer());
  auto table = GlobalTidTable::LoadFrom(&r);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreComponentTest, QuantizedStoreRejectsCorruptCount) {
  BinaryWriter w;
  w.U32(0x51493031);  // 'QI01'
  const size_t dim = InterestingnessVector::Dim();
  w.U32(static_cast<uint32_t>(dim));
  for (size_t i = 0; i < 2 * dim; ++i) w.F64(0.0);  // min/max tables.
  w.U32(0xFFFFFFFF);  // Corrupt record count.
  BinaryReader r(w.buffer());
  auto store = ConceptStore::LoadFrom(&r);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreComponentTest, PackedRelevanceRejectsCorruptCount) {
  BinaryWriter w;
  w.U32(0x51493031);  // 'QI01', holding no concepts.
  const size_t dim = InterestingnessVector::Dim();
  w.U32(static_cast<uint32_t>(dim));
  for (size_t i = 0; i < 2 * dim; ++i) w.F64(0.0);  // min/max tables.
  w.U32(0);
  w.U32(0x50523031);  // 'PR01'
  w.F64(1.0);         // score_scale
  w.U32(0xFFFFFFFF);  // Corrupt record count.
  BinaryReader r(w.buffer());
  auto store = ConceptStore::LoadFrom(&r);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

TEST(StorePackTest, EndToEndRoundTripPreservesRanking) {
  ContextualRankerOptions options;
  options.pipeline = PipelineConfig::SmallForTests();
  auto ranker_or = ContextualRanker::Train(options);
  ASSERT_TRUE(ranker_or.ok());
  const ContextualRanker& ranker = **ranker_or;

  std::string blob = ranker.SerializePack();
  ASSERT_GT(blob.size(), 10000u);
  auto pack_or = StorePack::Deserialize(blob);
  ASSERT_TRUE(pack_or.ok()) << pack_or.status().ToString();
  const StorePack& pack = *pack_or;

  // A RuntimeRanker built from the loaded pack ranks identically to the
  // trained one (the detector is shared: dictionaries are provisioned
  // separately in production).
  RuntimeRanker loaded(ranker.pipeline().detector(), pack.concepts,
                       pack.tids, pack.model);
  DocGenerator gen(ranker.pipeline().world());
  for (DocId i = 0; i < 5; ++i) {
    Document story = gen.Generate(Document::Kind::kNews, 777000 + i);
    auto original = ranker.Rank(story.text);
    auto restored = loaded.ProcessDocument(story.text);
    ASSERT_EQ(original.size(), restored.size()) << i;
    for (size_t k = 0; k < original.size(); ++k) {
      EXPECT_EQ(original[k].key, restored[k].key);
      EXPECT_NEAR(original[k].score, restored[k].score, 1e-9);
    }
  }

  // File round trip.
  std::string path = ::testing::TempDir() + "/ckr_pack.bin";
  ASSERT_TRUE(pack.SaveToFile(path).ok());
  auto from_file = StorePack::LoadFromFile(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_EQ(from_file->tids.size(), pack.tids.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ckr
