// Surface-form -> ids memo for the runtime Stemmer component (Section VI).
//
// News text repeats itself: over a run of ~1,400 documents fewer than 2%
// of the tokens are new surface forms. The Stemmer's per-token chain
// (stop-word check, Porter, TID lookup) is a pure function of the
// normalized token given the TID table, and so is the detector's matcher
// term id given the detector, so both can be cached exactly. StemMemo is
// that cache: a flat open-addressing table keyed by the token text,
// living in the per-thread RankerScratch, that hands out both ids with
// one hash of the token.
//
// Contract:
//  * Exact. A hit returns what the chain returned for the same text; a
//    miss runs the chain itself. The memo never changes an id.
//  * Bounded, with no knob. The table has kSlots slots and holds at most
//    kMaxEntries = kSlots / 2 forms; inserting into a full memo clears it
//    first. Forms longer than kMaxFormBytes are resolved but not stored,
//    so the key bytes stay under kMaxEntries * kMaxFormBytes.
//  * Bound to one ranker and one table state. Bind() clears the memo when
//    the caller's ranker id or the TID table's size differs from the last
//    call: a thread's scratch may serve several rankers, and an Intern()
//    into the table can turn a cached "unknown" into a real TID. The table
//    is append-only, so an unchanged size means unchanged contents. A
//    ranker's detector is fixed and immutable, so the ranker id also
//    covers the cached term ids.
#ifndef CKR_FRAMEWORK_STEM_MEMO_H_
#define CKR_FRAMEWORK_STEM_MEMO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ckr {

class StemMemo {
 public:
  static constexpr size_t kSlots = size_t{1} << 15;
  static constexpr size_t kMaxEntries = kSlots / 2;
  static constexpr size_t kMaxFormBytes = 64;

  /// The two ids cached per form.
  struct Ids {
    uint32_t tid = 0;   ///< Context TID (the Stemmer's chain).
    uint32_t term = 0;  ///< The detector's matcher term id.
    bool operator==(const Ids&) const = default;
  };

  /// Hit/miss/reset counts since the last TakeTally().
  struct Tally {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t resets = 0;
  };

  /// Prepares the memo for resolving against ranker `owner` with a TID
  /// table of `table_size` terms, clearing it if either changed since the
  /// last call. Must precede Resolve().
  void Bind(uint64_t owner, size_t table_size) {
    if (slots_.empty()) slots_.resize(kSlots);
    if (owner == owner_ && table_size == table_size_) return;
    if (entries_ > 0) Clear();
    owner_ = owner;
    table_size_ = table_size;
  }

  /// Returns the ids of `form`: the cached ones on a hit, else
  /// `compute(form)`, which is then cached.
  template <typename Compute>
  Ids Resolve(std::string_view form, Compute&& compute) {
    if (form.size() > kMaxFormBytes) {
      ++tally_.misses;
      return compute(form);
    }
    const uint64_t h = std::hash<std::string_view>{}(form);
    const uint32_t tag = static_cast<uint32_t>(h >> 32) | 1u;  // 0 = empty.
    size_t i = static_cast<size_t>(h) & (kSlots - 1);
    for (; slots_[i].tag != 0; i = (i + 1) & (kSlots - 1)) {
      const Slot& s = slots_[i];
      if (s.tag == tag && s.length == form.size() &&
          std::memcmp(keys_.data() + s.offset, form.data(), form.size()) ==
              0) {
        ++tally_.hits;
        return s.ids;
      }
    }
    ++tally_.misses;
    const Ids ids = compute(form);
    if (entries_ == kMaxEntries) {
      Clear();
      i = static_cast<size_t>(h) & (kSlots - 1);
    }
    slots_[i] = Slot{tag, static_cast<uint32_t>(keys_.size()),
                     static_cast<uint32_t>(form.size()), ids};
    keys_.append(form);
    ++entries_;
    return ids;
  }

  /// Returns the counts accumulated since the previous call and zeroes
  /// them.
  Tally TakeTally() {
    Tally t = tally_;
    tally_ = Tally{};
    return t;
  }

  /// Number of cached forms.
  size_t size() const { return entries_; }

 private:
  struct Slot {
    uint32_t tag = 0;  ///< High hash bits with the low bit set; 0 = empty.
    uint32_t offset = 0;  ///< Start of the form in keys_.
    uint32_t length = 0;
    Ids ids;
  };

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    keys_.clear();
    entries_ = 0;
    ++tally_.resets;
  }

  std::vector<Slot> slots_;
  std::string keys_;  ///< Cached forms, back to back.
  size_t entries_ = 0;
  uint64_t owner_ = 0;
  size_t table_size_ = 0;
  Tally tally_;
};

}  // namespace ckr

#endif  // CKR_FRAMEWORK_STEM_MEMO_H_
