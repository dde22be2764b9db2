#include "index/block_codecs.h"

#include <algorithm>

namespace ckr {
namespace {

inline uint32_t VarintByteLen(uint32_t v) {
  if (v < (1u << 8)) return 1;
  if (v < (1u << 16)) return 2;
  if (v < (1u << 24)) return 3;
  return 4;
}

}  // namespace

void EncodeBlock(const uint32_t* values, size_t count,
                 std::vector<uint8_t>* out) {
  for (size_t i = 0; i < count; i += 4) {
    const size_t group = std::min<size_t>(4, count - i);
    uint8_t control = 0;
    for (size_t j = 0; j < group; ++j) {
      control = static_cast<uint8_t>(
          control | ((VarintByteLen(values[i + j]) - 1) << (2 * j)));
    }
    out->push_back(control);
    for (size_t j = 0; j < group; ++j) {
      uint32_t v = values[i + j];
      const uint32_t len = VarintByteLen(v);
      for (uint32_t b = 0; b < len; ++b) {
        out->push_back(static_cast<uint8_t>(v & 0xffu));
        v >>= 8;
      }
    }
  }
}

Status DecodeBlock(const uint8_t* data, size_t size, size_t count,
                   uint32_t* out) {
  size_t pos = 0;
  size_t produced = 0;
  while (produced < count) {
    if (pos >= size) {
      return Status::InvalidArgument("varint-gb block truncated (no control)");
    }
    const uint8_t control = data[pos++];
    const size_t group = std::min<size_t>(4, count - produced);
    // The encoder zeroes the control bits of absent tail slots; anything
    // else is corruption.
    if (group < 4 && (control >> (2 * group)) != 0) {
      return Status::InvalidArgument("varint-gb tail control bits not zero");
    }
    for (size_t j = 0; j < group; ++j) {
      const size_t len = static_cast<size_t>((control >> (2 * j)) & 3u) + 1;
      if (pos + len > size) {
        return Status::InvalidArgument("varint-gb block truncated (value)");
      }
      uint32_t v = 0;
      for (size_t b = 0; b < len; ++b) {
        v |= static_cast<uint32_t>(data[pos + b]) << (8 * b);
      }
      pos += len;
      out[produced++] = v;
    }
  }
  if (pos != size) {
    return Status::InvalidArgument("varint-gb block has trailing bytes");
  }
  return Status::OK();
}

}  // namespace ckr
