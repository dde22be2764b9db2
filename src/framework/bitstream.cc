#include "framework/bitstream.h"

#include "common/check.h"

namespace ckr {

void BitWriter::Put(uint64_t bits, int count) {
  // pending_ < 8 and count <= 32, so the shift keeps every live bit.
  acc_ = (acc_ << count) | bits;
  pending_ += count;
  while (pending_ >= 8) {
    pending_ -= 8;
    out_->push_back(static_cast<uint8_t>(acc_ >> pending_));
  }
}

void BitWriter::WriteBits(uint64_t bits, int count) {
  CKR_DCHECK(count >= 0 && count <= 64);
  if (count > 32) {
    Put((bits >> 32) & ((uint64_t{1} << (count - 32)) - 1), count - 32);
    count = 32;
  }
  Put(bits & ((uint64_t{1} << count) - 1), count);
}

void BitWriter::WriteUnary(uint64_t count) {
  for (; count >= 32; count -= 32) Put(0xffffffffu, 32);
  // count <= 31 ones, then the terminating zero.
  Put(((uint64_t{1} << count) - 1) << 1, static_cast<int>(count) + 1);
}

void BitWriter::Finish() {
  if (pending_ > 0) {
    out_->push_back(static_cast<uint8_t>(acc_ << (8 - pending_)));
    pending_ = 0;
  }
}

BitReader::BitReader(const std::vector<uint8_t>& bytes)
    : data_(bytes.data()), size_(bytes.size()) {}

BitReader::BitReader(const uint8_t* data, size_t size)
    : data_(data), size_(size) {}

bool BitReader::ReadBit() {
  size_t byte_index = pos_ >> 3;
  if (byte_index >= size_) {
    overflow_ = true;
    return false;
  }
  bool bit = (data_[byte_index] >> (7 - (pos_ & 7))) & 1u;
  ++pos_;
  return bit;
}

uint64_t BitReader::ReadBits(int count) {
  uint64_t out = 0;
  for (int i = 0; i < count; ++i) {
    out = (out << 1) | static_cast<uint64_t>(ReadBit());
  }
  return out;
}

uint64_t BitReader::ReadUnary() {
  uint64_t count = 0;
  while (ReadBit()) {
    ++count;
    if (overflow_) break;
  }
  return count;
}

}  // namespace ckr
