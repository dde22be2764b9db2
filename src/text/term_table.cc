#include "text/term_table.h"

#include <algorithm>

#include "common/check.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

uint64_t SlotValue(uint64_t hash, uint32_t id) {
  return (hash >> 32 << 32) | (static_cast<uint64_t>(id) + 1);
}

}  // namespace

size_t TermTable::SlotOf(std::string_view term, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint64_t tag = hash >> 32;
  for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0 ||
        ((slot >> 32) == tag &&
         TermOf(static_cast<uint32_t>(slot) - 1) == term)) {
      return i;
    }
  }
}

void TermTable::Grow() {
  slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
  for (uint32_t id = 0; id < size(); ++id) {
    const uint64_t hash = HashToken(TermOf(id));
    slots_[SlotOf(TermOf(id), hash)] = SlotValue(hash, id);
  }
}

uint32_t TermTable::Intern(std::string_view term, uint64_t hash) {
  CKR_DCHECK_EQ(hash, HashToken(term));
  if (2 * (size() + 1) > slots_.size()) Grow();
  uint64_t& slot = slots_[SlotOf(term, hash)];
  if (slot == 0) {
    const uint32_t id = static_cast<uint32_t>(size());
    CKR_CHECK_LT(id, kNotFound);
    arena_.insert(arena_.end(), term.begin(), term.end());
    CKR_CHECK_LE(arena_.size(), size_t{UINT32_MAX});
    ends_.push_back(static_cast<uint32_t>(arena_.size()));
    slot = SlotValue(hash, id);
  }
  return static_cast<uint32_t>(slot) - 1;
}

uint32_t TermTable::Find(std::string_view term) const {
  if (slots_.empty()) return kNotFound;
  const uint64_t slot = slots_[SlotOf(term, HashToken(term))];
  return slot == 0 ? kNotFound : static_cast<uint32_t>(slot) - 1;
}

size_t TermTable::MemoryBytes() const {
  return arena_.capacity() + ends_.capacity() * sizeof(uint32_t) +
         slots_.capacity() * sizeof(uint64_t);
}

}  // namespace ckr
