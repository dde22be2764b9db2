// Little-endian binary serialization primitives shared by the runtime
// store pack (model + TID table + quantized stores) and the compact
// ranksvm v2 model format. Deliberately minimal: a length-checked reader
// over a contiguous buffer and an append-only writer; every composite
// format is versioned by its owner.
#ifndef CKR_COMMON_BINARY_IO_H_
#define CKR_COMMON_BINARY_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ckr {

/// Append-only buffer writer.
class BinaryWriter {
 public:
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F64(double v);
  /// Length-prefixed (u32) byte string.
  void Str(std::string_view s);

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  void Raw(const void* data, size_t size);
  std::string buffer_;
};

/// Bounds-checked reader; after any over-read, ok() is false and all
/// subsequent reads return zero values.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}
  /// The reader keeps a view, so a temporary buffer would dangle once the
  /// full expression ends; hold the blob in a named local instead.
  BinaryReader(std::string&&) = delete;

  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  double F64();
  std::string Str();

  bool ok() const { return ok_; }
  /// True when the whole buffer was consumed exactly.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  /// Bytes left to read (0 once the reader has over-read).
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  bool Raw(void* out, size_t size);
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ckr

#endif  // CKR_COMMON_BINARY_IO_H_
