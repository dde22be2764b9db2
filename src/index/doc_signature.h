// Bitwise term signatures for exact-safe candidate prefiltering (the
// topsig idea): every document gets a fixed-width Bloom-style bit row in
// which each contained term sets kSignatureProbes deterministic bit
// positions. A conjunctive query (the terms of a phrase) folds its own
// terms into a query signature the same way; a document whose row does
// not contain *all* query bits provably lacks at least one query term,
// so the AND-mask test
//
//     (row & query_sig) == query_sig
//
// rejects only true negatives. The converse does not hold (colliding
// probes can make a row look like a superset), which is exactly the safe
// direction for a prefilter in front of an exact path: survivors are
// re-checked against the position pool, and results stay bit-identical
// with the prefilter on or off (property-tested).
//
// Layout follows the repo's CSR discipline: one contiguous uint64_t pool,
// row i at [i * kSignatureWords, (i+1) * kSignatureWords) — no per-row
// allocations. Bit positions come from Mix64 / HashCombine
// (common/hash.h), which are stable across runs and platforms, so
// signatures obey the determinism contract (lint rule R1) and may be
// persisted or compared across processes.
#ifndef CKR_INDEX_DOC_SIGNATURE_H_
#define CKR_INDEX_DOC_SIGNATURE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace ckr {

/// Signature width in bits (a multiple of 64) and bit positions set per
/// term. Fixed, so document rows and query signatures always share one
/// shape.
inline constexpr uint32_t kSignatureBits = 256;
inline constexpr uint32_t kSignatureProbes = 2;
inline constexpr uint32_t kSignatureWords = kSignatureBits / 64;

/// A query-side signature: the OR of a term set's probe bits.
using Signature = std::array<uint64_t, kSignatureWords>;

/// The deterministic bit position of probe `probe` of term `tid`.
/// Exposed so tests can pin the packing layout.
uint32_t SignatureBitPosition(uint32_t tid, uint32_t probe);

/// A row-per-document bit matrix of term signatures. Immutable once
/// filled; thread-safe for concurrent reads.
class SignatureMatrix {
 public:
  size_t num_rows() const { return pool_.size() / kSignatureWords; }

  /// Resizes to `num_rows` zeroed rows, discarding previous contents.
  void Reset(size_t num_rows);

  /// ORs term `tid`'s probe bits into every row in `rows` — the CSR
  /// posting-list form of the build (bit positions hashed once per term,
  /// not once per posting).
  void AddTermToRows(uint32_t tid, Span<const uint32_t> rows);

  /// Row `row` as a bounds-checked span of kSignatureWords words.
  Span<const uint64_t> Row(size_t row) const {
    return MakeSpan(pool_).subspan(row * kSignatureWords, kSignatureWords);
  }

  /// The signature of a term set. An empty term set yields the all-zero
  /// signature, which every row covers — degenerate queries can never be
  /// falsely rejected.
  static Signature BuildSignature(Span<const uint32_t> tids);

  /// True iff `row` contains every bit of `sig`: the exact-safe AND-mask
  /// test.
  bool CoversAll(size_t row, const Signature& sig) const;

  /// Heap footprint of the signature pool.
  size_t MemoryBytes() const { return pool_.capacity() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> pool_;  ///< num_rows * kSignatureWords, row-major.
};

}  // namespace ckr

#endif  // CKR_INDEX_DOC_SIGNATURE_H_
