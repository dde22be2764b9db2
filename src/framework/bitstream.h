// Bit-level I/O used by the Golomb coder (paper Section VI cites integer
// compression, Witten/Moffat/Bell [26], as the way to shrink the per-
// concept relevant-term storage).
#ifndef CKR_FRAMEWORK_BITSTREAM_H_
#define CKR_FRAMEWORK_BITSTREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ckr {

/// Append-only MSB-first bit writer into a caller-owned byte vector.
///
/// Bits collect in a 64-bit accumulator and leave it as whole bytes
/// appended to `*out`; bytes already in `*out` are left alone, so one
/// vector can take many byte-aligned blobs back to back. Finish() pads
/// the last partial byte with zero bits; until then up to 7 bits are
/// pending and not yet in `*out`.
class BitWriter {
 public:
  /// `out` must outlive the writer.
  explicit BitWriter(std::vector<uint8_t>* out) : out_(out) {}

  /// Writes the lowest `count` bits of `bits` (MSB of the group first);
  /// higher bits are ignored. count must be in [0, 64].
  void WriteBits(uint64_t bits, int count);

  /// Writes a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1u : 0u, 1); }

  /// Writes `count` one-bits followed by a zero (unary coding).
  void WriteUnary(uint64_t count);

  /// Pads to a byte boundary with zero bits and flushes the pending byte.
  /// The writer may be used again afterwards; it starts a new byte.
  void Finish();

 private:
  /// Appends `count` <= 32 bits already masked to `count` bits.
  void Put(uint64_t bits, int count);

  std::vector<uint8_t>* out_;
  uint64_t acc_ = 0;  ///< Pending bits, right-aligned.
  int pending_ = 0;   ///< Bits in acc_ not yet appended; < 8 between calls.
};

/// MSB-first bit reader over a finished buffer. Does not own the bytes;
/// the underlying storage must outlive the reader. Never touches a byte
/// outside the buffer, whatever the bytes say, so it is safe on
/// untrusted input.
class BitReader {
 public:
  explicit BitReader(const std::vector<uint8_t>& bytes);

  /// Reads from a raw byte span — lets callers decode a blob that lives
  /// inside a larger buffer without copying it out first.
  BitReader(const uint8_t* data, size_t size);

  /// Reads `count` bits (<= 64); returns them right-aligned. Reads past
  /// the end return zero bits and set overflow().
  uint64_t ReadBits(int count);

  bool ReadBit();

  /// Reads a unary count (ones before the terminating zero).
  uint64_t ReadUnary();

  bool overflow() const { return overflow_; }
  /// Bits consumed so far; a read past the end does not advance it.
  size_t BitPosition() const { return pos_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  bool overflow_ = false;
};

}  // namespace ckr

#endif  // CKR_FRAMEWORK_BITSTREAM_H_
