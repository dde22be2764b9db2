#include "framework/golomb.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "framework/bitstream.h"

namespace ckr {
namespace {

/// Golomb parameter m with its truncated-binary remainder layout: a
/// remainder below `cutoff` takes `bits - 1` bits, any other `bits` bits.
struct GolombCode {
  explicit GolombCode(uint64_t parameter)
      : m(parameter),
        bits(static_cast<int>(std::bit_width(parameter - 1))),
        cutoff((uint64_t{1} << bits) - parameter) {}

  void Encode(uint64_t value, BitWriter* writer) const {
    const uint64_t q = value / m;
    const uint64_t r = value % m;
    writer->WriteUnary(q);
    if (m == 1) return;  // Remainder is always 0.
    if (r < cutoff) {
      writer->WriteBits(r, bits - 1);
    } else {
      writer->WriteBits(r + cutoff, bits);
    }
  }

  uint64_t m;
  int bits;
  uint64_t cutoff;
};

}  // namespace

void GolombEncode(uint64_t value, uint64_t m, BitWriter* writer) {
  GolombCode(m).Encode(value, writer);
}

uint64_t GolombDecode(uint64_t m, BitReader* reader) {
  uint64_t q = reader->ReadUnary();
  if (m == 1) return q;
  const GolombCode code(m);
  uint64_t r = reader->ReadBits(code.bits - 1);
  if (r >= code.cutoff) {
    r = (r << 1) | static_cast<uint64_t>(reader->ReadBit());
    r -= code.cutoff;
  }
  return q * m + r;
}

uint64_t OptimalGolombParameter(double mean_gap) {
  if (mean_gap <= 1.0) return 1;
  // m = ceil(log(2 - p) / -log(1 - p)) with p = 1/mean; the 0.69*mean
  // approximation is within one of this for all practical p.
  double m = std::ceil(0.69 * mean_gap);
  return std::max<uint64_t>(1, static_cast<uint64_t>(m));
}

StatusOr<std::vector<uint32_t>> DecodeSortedIds(
    const std::vector<uint8_t>& bytes) {
  std::vector<uint32_t> ids;
  Status s = DecodeSortedIdsInto(bytes.data(), bytes.size(), &ids);
  if (!s.ok()) return s;
  return ids;
}

StatusOr<std::vector<uint8_t>> EncodeSortedIds(
    const std::vector<uint32_t>& ids, uint32_t universe) {
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] <= ids[i - 1]) {
      return Status::InvalidArgument("ids must be strictly increasing");
    }
  }
  if (!ids.empty() && ids.back() >= universe) {
    return Status::InvalidArgument("id exceeds universe");
  }
  double mean_gap =
      ids.empty() ? 1.0
                  : static_cast<double>(universe) /
                        static_cast<double>(ids.size());
  const GolombCode code(OptimalGolombParameter(mean_gap));

  std::vector<uint8_t> bytes;
  BitWriter writer(&bytes);
  // Header: count (32 bits) + parameter (32 bits).
  writer.WriteBits(ids.size(), 32);
  writer.WriteBits(code.m, 32);
  uint32_t prev = 0;
  bool first = true;
  for (uint32_t id : ids) {
    uint64_t gap = first ? id : (id - prev - 1);
    code.Encode(gap, &writer);
    prev = id;
    first = false;
  }
  writer.Finish();
  return bytes;
}

Status DecodeSortedIdsInto(const uint8_t* data, size_t size,
                           std::vector<uint32_t>* out) {
  out->clear();
  BitReader reader(data, size);
  uint64_t count = reader.ReadBits(32);
  uint64_t m = reader.ReadBits(32);
  if (reader.overflow()) return Status::InvalidArgument("truncated header");
  if (m == 0) return Status::InvalidArgument("corrupt header (m == 0)");
  // Every code word takes at least one bit (the unary terminator), so a
  // count above the bits left cannot be honest; checked before reserving.
  if (count > size * 8 - reader.BitPosition()) {
    return Status::InvalidArgument("header count exceeds the blob");
  }
  out->reserve(count);
  uint32_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t gap = GolombDecode(m, &reader);
    if (reader.overflow()) {
      return Status::InvalidArgument("truncated Golomb stream");
    }
    // The next id is gap (first) or prev + 1 + gap; it must fit 32 bits.
    // base <= 2^32 and gap < 2^32 here, so the sum cannot wrap.
    const uint64_t base = i == 0 ? 0 : uint64_t{prev} + 1;
    if (gap > UINT32_MAX || base + gap > UINT32_MAX) {
      return Status::InvalidArgument("Golomb gap overflows the id range");
    }
    const uint32_t id = static_cast<uint32_t>(base + gap);
    out->push_back(id);
    prev = id;
  }
  return Status::OK();
}

}  // namespace ckr
