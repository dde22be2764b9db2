// Fixture: the declarations half of r4_own_header.cc. The containers and
// the serialization include live here, not in the .cc.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/binary_io.h"

namespace fixture {

struct Table {
  std::vector<uint32_t> Dump() const;

  std::unordered_map<std::string, uint32_t> ids_;
  std::unordered_set<uint32_t> live_;
};

}  // namespace fixture
