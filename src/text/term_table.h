// Dense-id term table keyed by the tokenizer's hash.
//
// A term's id is its insertion rank: the first Intern() of a term gets
// the next id, and every later one returns it. The table is open
// addressing with linear probing over a power-of-two slot array, kept at
// most half full. A used slot holds the high 32 bits of the term's
// HashToken above its id + 1 (0 marks an empty slot); the hash's low bits
// pick the first slot. A hit is confirmed by the tag and then by the
// term's bytes, which live back to back in one arena.
//
// Contract:
//  * Intern() takes the term's HashToken. ScanText computes it while
//    lowering a token (Token::hash), so a caller interning scanned tokens
//    passes it and the table never hashes those bytes again. Find()
//    hashes the term itself.
//  * Exact: ids equal those of a std::unordered_map assigning ids in
//    insertion order, whatever the hashes collide on.
//  * TermOf() views point into the arena and stay valid until the next
//    Intern() of a new term. Moving the table keeps them valid.
//  * Intern() is not thread-safe; a table that takes no more Intern()s
//    may be read from any number of threads.
#ifndef CKR_TEXT_TERM_TABLE_H_
#define CKR_TEXT_TERM_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ckr {

class TermTable {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  /// Id of `term`, whose HashToken is `hash`; a new term gets id size().
  uint32_t Intern(std::string_view term, uint64_t hash);

  /// Id of `term`, or kNotFound.
  uint32_t Find(std::string_view term) const;

  /// Text of term `id` (requires id < size()).
  std::string_view TermOf(uint32_t id) const {
    const uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_.data() + begin, ends_[id] - begin);
  }

  size_t size() const { return ends_.size(); }

  /// Heap bytes held: the arena, the end offsets and the slots.
  size_t MemoryBytes() const;

 private:
  /// The slot holding `term`, or the empty slot where it would go.
  /// Requires a non-empty slot array.
  size_t SlotOf(std::string_view term, uint64_t hash) const;
  /// Doubles the slot array (16 slots at first) and re-places every term.
  void Grow();

  std::vector<char> arena_;       ///< Term bytes, back to back.
  std::vector<uint32_t> ends_;    ///< Arena end offset per id.
  std::vector<uint64_t> slots_;   ///< Tag << 32 | (id + 1); 0 = empty.
};

}  // namespace ckr

#endif  // CKR_TEXT_TERM_TABLE_H_
