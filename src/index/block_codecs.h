// Integer codec for fixed-size posting blocks: each 128-entry block of
// doc-id gaps / term frequencies is encoded independently so a cursor can
// decode exactly the blocks a query touches and skip the rest.
//
// The codec is varint-GB (group varint): values in groups of four behind
// one control byte holding four 2-bit byte-lengths — branch-light
// byte-at-a-time decoding, 1..4 bytes per value plus 1/4 byte of control.
// It is self-terminating given the value count, which block metadata
// always records, and the decoder is bounds-checked: a truncated or
// oversized blob is an error, never an out-of-bounds read (the store-pack
// deserialization discipline).
#ifndef CKR_INDEX_BLOCK_CODECS_H_
#define CKR_INDEX_BLOCK_CODECS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace ckr {

/// Appends the encoding of `values[0..count)` to `*out`. Values are
/// arbitrary uint32s (the block builder feeds doc-id gaps minus one and
/// tf minus one, so zeros are common and small values dominate).
void EncodeBlock(const uint32_t* values, size_t count,
                 std::vector<uint8_t>* out);

/// Decodes exactly `count` values from the `size`-byte blob at `data`
/// into `out[0..count)` (caller provides the room). Fails on truncated
/// input, on trailing bytes beyond the encoding's end, and on nonzero
/// control bits for absent tail slots — the blob must be exactly one
/// EncodeBlock output for `count`.
[[nodiscard]] Status DecodeBlock(const uint8_t* data, size_t size,
                                 size_t count, uint32_t* out);

}  // namespace ckr

#endif  // CKR_INDEX_BLOCK_CODECS_H_
