// FNV-1a folding helpers shared by the golden-fingerprint tests. Each
// golden test folds the bytes of an output into one 64-bit value and
// compares it with a constant recorded from a known-good build, so any
// change to that output changes the fingerprint.
#ifndef CKR_TESTS_FNV_FOLD_H_
#define CKR_TESTS_FNV_FOLD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ckr {
namespace testing_fnv {

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;

inline uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Folds the length, then the bytes, so adjacent strings cannot alias.
inline uint64_t FoldString(uint64_t h, std::string_view s) {
  const uint64_t size = s.size();
  h = Fnv1a(h, &size, sizeof(size));
  return Fnv1a(h, s.data(), s.size());
}

/// Folds the object representation of a scalar (a double's exact bits).
template <typename T>
uint64_t FoldValue(uint64_t h, const T& value) {
  return Fnv1a(h, &value, sizeof(value));
}

}  // namespace testing_fnv
}  // namespace ckr

#endif  // CKR_TESTS_FNV_FOLD_H_
