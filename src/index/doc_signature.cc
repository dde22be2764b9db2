#include "index/doc_signature.h"

#include "common/hash.h"

namespace ckr {

uint32_t SignatureBitPosition(uint32_t tid, uint32_t probe) {
  // Mix64 over the combined (tid, probe) key gives independent, stable
  // positions per probe.
  const uint64_t h = Mix64(HashCombine(static_cast<uint64_t>(tid),
                                       static_cast<uint64_t>(probe)));
  return static_cast<uint32_t>(h % kSignatureBits);
}

void SignatureMatrix::Reset(size_t num_rows) {
  pool_.assign(num_rows * kSignatureWords, 0);
}

void SignatureMatrix::AddTermToRows(uint32_t tid, Span<const uint32_t> rows) {
  for (uint32_t p = 0; p < kSignatureProbes; ++p) {
    const uint32_t pos = SignatureBitPosition(tid, p);
    const uint32_t word = pos >> 6;
    const uint64_t mask = uint64_t{1} << (pos & 63);
    for (size_t i = 0; i < rows.size(); ++i) {
      const size_t row = rows[i];
      CKR_DCHECK_LE((row + 1) * kSignatureWords, pool_.size());
      pool_[row * kSignatureWords + word] |= mask;
    }
  }
}

Signature SignatureMatrix::BuildSignature(Span<const uint32_t> tids) {
  Signature sig{};
  for (size_t i = 0; i < tids.size(); ++i) {
    for (uint32_t p = 0; p < kSignatureProbes; ++p) {
      const uint32_t pos = SignatureBitPosition(tids[i], p);
      sig[pos >> 6] |= uint64_t{1} << (pos & 63);
    }
  }
  return sig;
}

bool SignatureMatrix::CoversAll(size_t row, const Signature& sig) const {
  const Span<const uint64_t> bits = Row(row);
  for (size_t w = 0; w < kSignatureWords; ++w) {
    if ((bits[w] & sig[w]) != sig[w]) return false;
  }
  return true;
}

}  // namespace ckr
