// Read-only access to InvertedIndex's frozen postings layout, for the
// layout golden test (index_test) and the sharded-build equivalence test
// (serve_smoke_test). InvertedIndex befriends this class; it is defined
// here and nowhere else.
#ifndef CKR_TESTS_INDEX_LAYOUT_PEER_H_
#define CKR_TESTS_INDEX_LAYOUT_PEER_H_

#include <cstddef>
#include <cstdint>

#include "fnv_fold.h"
#include "index/inverted_index.h"

namespace ckr {

class InvertedIndexLayoutPeer {
 public:
  /// Folds the postings layout Finalize() freezes: the slot offset table
  /// and every slot's (doc, tf).
  static uint64_t FoldLayout(const InvertedIndex& index) {
    using testing_fnv::FoldValue;
    uint64_t h = testing_fnv::kFnvOffsetBasis;
    const uint64_t num_terms = index.post_offset_.size();
    h = FoldValue(h, num_terms);
    for (size_t offset : index.post_offset_) {
      h = FoldValue(h, static_cast<uint64_t>(offset));
    }
    const size_t num_slots = index.post_doc_.size();
    h = FoldValue(h, static_cast<uint64_t>(num_slots));
    for (size_t slot = 0; slot < num_slots; ++slot) {
      h = FoldValue(h, index.post_doc_[slot]);
      h = FoldValue(h, index.post_tf_[slot]);
    }
    return h;
  }
};

}  // namespace ckr

#endif  // CKR_TESTS_INDEX_LAYOUT_PEER_H_
