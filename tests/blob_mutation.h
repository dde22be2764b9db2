// The seeded, bounded blob mutator behind the loader mutation tests: each
// call returns one mutant of `blob`, a byte flip, a truncation, a splice
// with `other`, or a planted extreme count. A loader fed the mutants must
// reject each with a Status or load something that serves safely.
#ifndef CKR_TESTS_BLOB_MUTATION_H_
#define CKR_TESTS_BLOB_MUTATION_H_

#include <cstdint>
#include <string>

#include "common/rng.h"

namespace ckr {

/// One mutant of a non-empty `blob`.
inline std::string MutateBlob(Rng* rng, const std::string& blob,
                              const std::string& other) {
  std::string m = blob;
  switch (rng->NextBounded(4)) {
    case 0: {  // Flip one to four bytes.
      const uint64_t flips = 1 + rng->NextBounded(4);
      for (uint64_t f = 0; f < flips; ++f) {
        m[rng->NextBounded(m.size())] ^=
            static_cast<char>(1 + rng->NextBounded(255));
      }
      break;
    }
    case 1:  // Truncate.
      m.resize(rng->NextBounded(m.size()));
      break;
    case 2: {  // Splice: a prefix of one blob onto a suffix of another.
      const std::string& tail = rng->NextBounded(2) == 0 ? blob : other;
      m = blob.substr(0, rng->NextBounded(blob.size() + 1)) +
          tail.substr(rng->NextBounded(tail.size() + 1));
      break;
    }
    default: {  // Plant an extreme little-endian u32 at any offset.
      const uint32_t values[] = {0u, 1u, 0x7fffffffu, 0xfffffffeu,
                                 0xffffffffu};
      const uint32_t v = values[rng->NextBounded(5)];
      const size_t at = rng->NextBounded(m.size() - 3);
      for (size_t b = 0; b < 4; ++b) {
        m[at + b] = static_cast<char>((v >> (8 * b)) & 0xffu);
      }
      break;
    }
  }
  return m;
}

}  // namespace ckr

#endif  // CKR_TESTS_BLOB_MUTATION_H_
