// The Golomb coder's byte format against an in-test oracle: the
// bit-at-a-time BitWriter and EncodeSortedIds as they were before the
// writer kept a 64-bit accumulator and appended into a caller's vector,
// copied here unchanged. Every case compares bytes, not a round trip, so
// a writer that round-trips but writes different bytes fails. Also pins
// the bounded decode: a header count above the bits left is rejected
// before anything is reserved, and mutated blobs either fail with a
// Status or decode to a strictly increasing list, read from exact-size
// heap copies so an over-read fails under asan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "blob_mutation.h"
#include "common/rng.h"
#include "framework/bitstream.h"
#include "framework/golomb.h"

namespace ckr {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the writer and encoder as they were.

namespace oracle {

class BitWriter {
 public:
  void WriteBits(uint64_t bits, int count) {
    for (int i = count - 1; i >= 0; --i) {
      WriteBit((bits >> i) & 1u);
    }
  }

  void WriteBit(bool bit) {
    size_t byte_index = bit_count_ >> 3;
    if (byte_index >= bytes_.size()) bytes_.push_back(0);
    if (bit) {
      bytes_[byte_index] |= static_cast<uint8_t>(1u << (7 - (bit_count_ & 7)));
    }
    ++bit_count_;
  }

  void WriteUnary(uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) WriteBit(true);
    WriteBit(false);
  }

  std::vector<uint8_t> Finish() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

int BitWidth(uint64_t v) {
  int w = 0;
  while (v > 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

void GolombEncode(uint64_t value, uint64_t m, BitWriter* writer) {
  uint64_t q = value / m;
  uint64_t r = value % m;
  writer->WriteUnary(q);
  if (m == 1) return;
  int b = BitWidth(m - 1);
  uint64_t cutoff = (1ULL << b) - m;
  if (r < cutoff) {
    writer->WriteBits(r, b - 1);
  } else {
    writer->WriteBits(r + cutoff, b);
  }
}

std::vector<uint8_t> EncodeSortedIds(const std::vector<uint32_t>& ids,
                                     uint32_t universe) {
  double mean_gap =
      ids.empty() ? 1.0
                  : static_cast<double>(universe) /
                        static_cast<double>(ids.size());
  uint64_t m = OptimalGolombParameter(mean_gap);
  BitWriter writer;
  writer.WriteBits(ids.size(), 32);
  writer.WriteBits(m, 32);
  uint32_t prev = 0;
  bool first = true;
  for (uint32_t id : ids) {
    uint64_t gap = first ? id : (id - prev - 1);
    GolombEncode(gap, m, &writer);
    prev = id;
    first = false;
  }
  return writer.Finish();
}

}  // namespace oracle

// The Golomb parameter m of a blob: the header's second 32-bit word.
uint64_t HeaderParameter(const std::vector<uint8_t>& blob) {
  uint64_t m = 0;
  for (size_t b = 4; b < 8; ++b) m = (m << 8) | blob[b];
  return m;
}

void ExpectSameBytes(const std::vector<uint32_t>& ids, uint32_t universe) {
  auto encoded = EncodeSortedIds(ids, universe);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  EXPECT_EQ(*encoded, oracle::EncodeSortedIds(ids, universe))
      << ids.size() << " ids over " << universe;
}

// ---------------------------------------------------------------------------
// Writer primitives.

TEST(BitWriterFormatTest, WriteBitsAtEveryAlignmentMatchesOracle) {
  const uint64_t pattern = 0xdeadbeefcafebabeULL;
  for (int lead = 0; lead < 8; ++lead) {
    for (int count : {0, 1, 2, 7, 8, 9, 31, 32, 33, 63, 64}) {
      std::vector<uint8_t> bytes;
      BitWriter w(&bytes);
      oracle::BitWriter o;
      w.WriteBits(0x5a, lead);
      o.WriteBits(0x5a, lead);
      w.WriteBits(pattern, count);
      o.WriteBits(pattern, count);
      w.WriteBit(true);
      o.WriteBit(true);
      w.Finish();
      EXPECT_EQ(bytes, o.Finish()) << "lead=" << lead << " count=" << count;
    }
  }
}

TEST(BitWriterFormatTest, CountZeroWritesNothing) {
  std::vector<uint8_t> bytes;
  BitWriter w(&bytes);
  w.WriteBits(~uint64_t{0}, 0);
  w.Finish();
  EXPECT_TRUE(bytes.empty());
  w.WriteBits(~uint64_t{0}, 64);
  w.WriteBits(~uint64_t{0}, 0);
  w.Finish();
  EXPECT_EQ(bytes, std::vector<uint8_t>(8, 0xff));
}

TEST(BitWriterFormatTest, LongUnaryRunsMatchOracle) {
  for (int lead = 0; lead < 8; ++lead) {
    for (uint64_t run : {0ull, 1ull, 31ull, 32ull, 33ull, 63ull, 64ull, 65ull,
                         200ull, 1000ull}) {
      std::vector<uint8_t> bytes;
      BitWriter w(&bytes);
      oracle::BitWriter o;
      w.WriteBits(0, lead);
      o.WriteBits(0, lead);
      w.WriteUnary(run);
      o.WriteUnary(run);
      w.Finish();
      EXPECT_EQ(bytes, o.Finish()) << "lead=" << lead << " run=" << run;
    }
  }
}

TEST(BitWriterFormatTest, AppendsAfterExistingBytes) {
  std::vector<uint8_t> bytes = {0x12, 0x34};
  BitWriter w(&bytes);
  w.WriteBits(0b1, 1);
  w.Finish();
  EXPECT_EQ(bytes, (std::vector<uint8_t>{0x12, 0x34, 0x80}));
}

TEST(GolombFormatTest, SingleValuesAcrossTheCutoffMatchOracle) {
  // m = 1; powers of two (no short remainders); others, where remainders
  // below the truncated-binary cutoff take one bit fewer.
  for (uint64_t m : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull, 13ull,
                     16ull, 100ull, 1024ull, 1025ull, 0x7fffffffull,
                     0x80000001ull}) {
    std::vector<uint64_t> values;
    for (uint64_t v = 0; v < 3 * m && v < 300; ++v) values.push_back(v);
    for (uint64_t q : {63ull, 64ull, 65ull, 130ull}) {
      values.push_back(q * m);
      values.push_back(q * m + m - 1);
    }
    for (uint64_t v : values) {
      std::vector<uint8_t> bytes;
      BitWriter w(&bytes);
      oracle::BitWriter o;
      GolombEncode(v, m, &w);
      oracle::GolombEncode(v, m, &o);
      w.Finish();
      ASSERT_EQ(bytes, o.Finish()) << "m=" << m << " v=" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Sorted-id blobs.

TEST(GolombFormatTest, EdgeListsMatchOracle) {
  ExpectSameBytes({}, 100);
  ExpectSameBytes({}, 0);
  ExpectSameBytes({0}, 1);
  ExpectSameBytes({42}, 100);
  ExpectSameBytes({99}, 100);                       // Id at universe - 1.
  ExpectSameBytes({0, 1, 2, 3, 4, 5, 6, 7}, 8);     // m = 1.
  ExpectSameBytes({0, 4294967294u}, 4294967295u);   // Widest universe.
  ExpectSameBytes({4294967294u}, 4294967295u);
}

TEST(GolombFormatTest, ParameterShapesMatchOracle) {
  // One id over a universe u gives m = ceil(0.69 u): sweep u so the
  // parameter runs through 1, powers of two and everything between.
  bool saw_one = false, saw_pow2 = false, saw_other = false;
  for (uint32_t universe = 1; universe < 800; ++universe) {
    for (uint32_t id : {0u, universe / 2, universe - 1}) {
      const std::vector<uint32_t> ids = {id};
      ExpectSameBytes(ids, universe);
      const uint64_t m = HeaderParameter(*EncodeSortedIds(ids, universe));
      saw_one |= m == 1;
      saw_pow2 |= m > 1 && (m & (m - 1)) == 0;
      saw_other |= (m & (m - 1)) != 0;
    }
  }
  EXPECT_TRUE(saw_one);
  EXPECT_TRUE(saw_pow2);
  EXPECT_TRUE(saw_other);
}

TEST(GolombFormatTest, LongQuotientsMatchOracle) {
  // Fifty ids packed at the front and one at the far end: m stays small
  // (0.69 * 1000 / 51 -> 14) while the last gap's quotient passes 64.
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 50; ++i) ids.push_back(i);
  ids.push_back(999);
  ExpectSameBytes(ids, 1000);
  const auto encoded = EncodeSortedIds(ids, 1000);
  ASSERT_TRUE(encoded.ok());
  EXPECT_GE((999 - 50) / HeaderParameter(*encoded), 64u);
}

TEST(GolombFormatTest, SeededSweepMatchesOracle) {
  Rng rng(28);
  for (int trial = 0; trial < 3000; ++trial) {
    const uint32_t universe = 1 + static_cast<uint32_t>(
                                      rng.NextBounded(trial % 7 == 0 ? 1u << 30
                                                                     : 2000));
    // Uniform draws of up to 400 ids, or a cluster at the front plus the
    // last id (long final gaps under a small parameter).
    std::vector<uint32_t> ids;
    const bool clustered = rng.NextBounded(3) == 0;
    const uint64_t n = rng.NextBounded(std::min<uint64_t>(universe, 400) + 1);
    const uint64_t range = clustered ? std::min<uint64_t>(universe, 40)
                                     : universe;
    for (uint64_t i = 0; i < n; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.NextBounded(range)));
    }
    if (clustered) ids.push_back(universe - 1);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ExpectSameBytes(ids, universe);
    auto decoded = DecodeSortedIds(*EncodeSortedIds(ids, universe));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(*decoded, ids);
  }
}

TEST(GolombFormatTest, RejectedListsAreInvalidArguments) {
  // The last id must stay below the universe; universe - 1 is accepted
  // (EdgeListsMatchOracle pins its bytes).
  const std::vector<std::vector<uint32_t>> rejected = {
      {5, 4}, {5, 5}, {5, 100}, {0, 3, 2, 9}};
  for (const std::vector<uint32_t>& ids : rejected) {
    const auto encoded = EncodeSortedIds(ids, 100);
    ASSERT_FALSE(encoded.ok());
    EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(EncodeSortedIds({5, 99}, 100).ok());
}

// ---------------------------------------------------------------------------
// Bounded decode.

std::vector<uint8_t> Header(uint32_t count, uint32_t m) {
  std::vector<uint8_t> blob;
  for (uint32_t word : {count, m}) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      blob.push_back(static_cast<uint8_t>(word >> shift));
    }
  }
  return blob;
}

TEST(GolombDecodeTest, CountAboveTheBitsLeftIsRejectedBeforeReserving) {
  std::vector<uint8_t> blob = Header(0xffffffffu, 1);
  blob.push_back(0);  // 9 bytes: 8 code bits after the header.
  std::vector<uint32_t> out;
  const Status s = DecodeSortedIdsInto(blob.data(), blob.size(), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.capacity(), 0u);  // Nothing was reserved.

  // Eight one-bit code words (m = 1, gaps of 0) fit the same 8 bits; a
  // ninth does not.
  blob = Header(8, 1);
  blob.push_back(0);
  ASSERT_TRUE(DecodeSortedIdsInto(blob.data(), blob.size(), &out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  blob = Header(9, 1);
  blob.push_back(0);
  EXPECT_FALSE(DecodeSortedIdsInto(blob.data(), blob.size(), &out).ok());
}

TEST(GolombDecodeTest, TruncatedHeaderAndZeroParameterAreRejected) {
  std::vector<uint32_t> out;
  const std::vector<uint8_t> header = Header(0, 5);
  for (size_t size = 0; size < header.size(); ++size) {
    EXPECT_FALSE(DecodeSortedIdsInto(header.data(), size, &out).ok()) << size;
  }
  EXPECT_TRUE(DecodeSortedIdsInto(header.data(), header.size(), &out).ok());
  const std::vector<uint8_t> zero_m = Header(0, 0);
  EXPECT_FALSE(DecodeSortedIdsInto(zero_m.data(), zero_m.size(), &out).ok());
}

TEST(GolombDecodeTest, GapPastTheIdRangeIsRejected) {
  // m = 2^31: two ids with gap remainders near 2^31 each, so the second
  // id would pass 2^32 - 1 and wrap below the first.
  std::vector<uint8_t> blob = Header(2, 0x80000000u);
  // Per value: unary quotient 1 ("10"), then 31 remainder bits of ones.
  oracle::BitWriter o;
  for (int v = 0; v < 2; ++v) {
    o.WriteUnary(1);
    o.WriteBits(0x7fffffff, 31);
  }
  const std::vector<uint8_t> body = o.Finish();
  blob.insert(blob.end(), body.begin(), body.end());
  std::vector<uint32_t> out;
  EXPECT_FALSE(DecodeSortedIdsInto(blob.data(), blob.size(), &out).ok());
}

TEST(GolombDecodeTest, MutatedBlobsAreRejectedOrDecodeIncreasing) {
  Rng rng(404);
  std::vector<std::string> blobs;
  for (uint32_t b = 0; b < 40; ++b) {
    const uint32_t universe = 1 + static_cast<uint32_t>(rng.NextBounded(3000));
    std::vector<uint32_t> ids;
    for (uint32_t id = 0; id < universe; ++id) {
      if (rng.NextBounded(universe) < 1u + b % 9u) ids.push_back(id);
    }
    const auto encoded = EncodeSortedIds(ids, universe);
    ASSERT_TRUE(encoded.ok());
    blobs.emplace_back(encoded->begin(), encoded->end());
  }
  size_t rejected = 0, decoded = 0;
  std::vector<uint32_t> out;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string& blob = blobs[rng.NextBounded(blobs.size())];
    const std::string& other = blobs[rng.NextBounded(blobs.size())];
    const std::string mutant = MutateBlob(&rng, blob, other);
    // An exact-size heap copy: a read past its end fails under asan.
    const std::vector<uint8_t> bytes(mutant.begin(), mutant.end());
    if (!DecodeSortedIdsInto(bytes.data(), bytes.size(), &out).ok()) {
      ++rejected;
      continue;
    }
    ++decoded;
    ASSERT_LE(out.size(), bytes.size() * 8);
    for (size_t i = 1; i < out.size(); ++i) {
      ASSERT_LT(out[i - 1], out[i]) << "trial " << trial;
    }
  }
  // Both outcomes occur, or the sweep would not exercise the checks.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(decoded, 1000u);
}

}  // namespace
}  // namespace ckr
