// Fixture: hash-order iteration over members that the TU's own header
// (r4_own_header.h) declares, in a TU that reaches binary_io.h only
// through that header.
#include "r4_own_header.h"

namespace fixture {

std::vector<uint32_t> Table::Dump() const {
  std::vector<uint32_t> out;
  for (const auto& [key, id] : ids_) {  // line 10: hash order
    out.push_back(id);
  }
  for (uint32_t v : live_) {  // line 13: hash order
    out.push_back(v);
  }
  std::vector<uint32_t> by_id(ids_.size());
  // ckr-lint: ordered(written by id slot)
  for (const auto& [key, id] : ids_) by_id[id] = id;
  return out;
}

}  // namespace fixture
