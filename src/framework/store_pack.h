// The deployable model pack: everything the online Ranker of Section VI
// needs beyond the (externally provisioned) entity dictionaries — the
// trained ranking model, the Global TID Table and the concept store (the
// quantized interestingness vectors and the packed relevant-term lists) —
// in one versioned binary blob. Production pushes this artifact to serving
// machines; loading it skips the entire offline mining phase.
#ifndef CKR_FRAMEWORK_STORE_PACK_H_
#define CKR_FRAMEWORK_STORE_PACK_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "framework/runtime_ranker.h"
#include "ranksvm/rank_svm.h"

namespace ckr {

/// Owns the runtime stores. Blob layout: the 'CKR1' magic, the 'TI01' TID
/// table, the concept store's 'QI01' and 'PR01' sections, then the binary
/// model blob.
struct StorePack {
  GlobalTidTable tids;
  ConceptStore concepts;
  RankSvmModel model;

  /// Serializes the pack to a binary blob.
  std::string Serialize() const;

  /// Parses a blob produced by Serialize().
  [[nodiscard]] static StatusOr<StorePack> Deserialize(std::string_view blob);

  /// Convenience file I/O.
  [[nodiscard]] Status SaveToFile(const std::string& path) const;
  [[nodiscard]] static StatusOr<StorePack> LoadFromFile(const std::string& path);
};

/// Serializes components that live outside a StorePack (e.g. inside a
/// trained ContextualRanker) into the same blob format.
std::string SerializeStorePack(const GlobalTidTable& tids,
                               const ConceptStore& concepts,
                               const RankSvmModel& model);

}  // namespace ckr

#endif  // CKR_FRAMEWORK_STORE_PACK_H_
