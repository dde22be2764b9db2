// Golomb coding of non-negative integers (Witten, Moffat & Bell, "Managing
// Gigabytes" [26]) — used by the runtime framework to compress each
// concept's sorted term-id list via delta (gap) encoding (paper Section
// VI: "this cost can be even further reduced through ... integer
// compression techniques, such as Golomb Coding").
#ifndef CKR_FRAMEWORK_GOLOMB_H_
#define CKR_FRAMEWORK_GOLOMB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace ckr {

/// Encodes one value with parameter m (> 0): quotient in unary, remainder
/// in truncated binary.
void GolombEncode(uint64_t value, uint64_t m, class BitWriter* writer);

/// Decodes one value with parameter m (> 0).
uint64_t GolombDecode(uint64_t m, class BitReader* reader);

/// The Golomb parameter minimizing expected length for gaps with mean
/// `mean_gap` (the classic m ~= 0.69 * mean rule).
uint64_t OptimalGolombParameter(double mean_gap);

/// Delta-encodes a strictly increasing id list: first id, then gaps - 1,
/// all Golomb-coded with a parameter derived from the list density over
/// `universe`. Returns the byte buffer (self-contained: stores count and
/// parameter in a small header). Rejects ids that are not strictly
/// increasing or reach `universe`.
///
/// Byte format, MSB-first within each byte: a 32-bit count, a 32-bit
/// parameter m, then per id its gap as a unary quotient (ones ended by a
/// zero) and a truncated-binary remainder, zero-padded to a byte.
[[nodiscard]] StatusOr<std::vector<uint8_t>> EncodeSortedIds(
    const std::vector<uint32_t>& ids, uint32_t universe);

/// Inverse of EncodeSortedIds.
[[nodiscard]] StatusOr<std::vector<uint32_t>> DecodeSortedIds(
    const std::vector<uint8_t>& bytes);

/// Decodes one blob from a raw byte span into `*out` (cleared first,
/// capacity reused). Span-based so hot decode loops neither copy the blob
/// nor allocate a fresh result vector per call.
///
/// Bounded on untrusted bytes: reads only inside [data, data + size),
/// rejects a header whose count exceeds the bits left in the span before
/// reserving anything (each code word takes at least one bit), and
/// rejects a gap that would carry an id past 2^32 - 1, so a decoded list
/// is always strictly increasing.
[[nodiscard]] Status DecodeSortedIdsInto(const uint8_t* data, size_t size,
                                         std::vector<uint32_t>* out);

}  // namespace ckr

#endif  // CKR_FRAMEWORK_GOLOMB_H_
