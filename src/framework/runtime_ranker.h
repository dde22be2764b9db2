// The production runtime of Section VI (Figure 4).
//
// All mining is offline; the online path must run under tight latency and
// memory budgets. The components mirror the paper:
//  * Stemmer — stems the incoming document once and caches the result
//    (the per-scratch StemMemo also carries token -> TID and detector
//    term id across documents, so Porter and both lookups run once per
//    distinct surface form);
//  * Global TID Table — maps each relevant term to a perfect-hash-style
//    term id that fits in 22 bits;
//  * concept store — the paper's two per-concept stores behind one
//    concept table: the quantized interestingness vectors (each field in
//    two bytes, "a minor decrease in granularity", 18 MB per million
//    concepts) and up to 100 packed (TID, score) pairs per concept (score
//    quantized to 10 bits, 32 bits per pair, ~400 MB per million
//    concepts, optionally Golomb-compressed);
//  * Ranker — detects candidates, assembles features, scores with the
//    learned model, and returns the ranked list.
//
// Layout discipline: ConceptStore::Finalize() assigns every concept one
// dense id (sorted-key order) that indexes both payloads (the string-keyed
// build map is only a build-time convenience), and the Ranker resolves
// every detector entry to that id once at construction. The steady-state
// document path therefore never hashes a std::string and — given a reused
// RankerScratch — performs no per-document heap allocations beyond its
// output list. ProcessBatch fans documents out across worker threads with
// one scratch per worker and per-index output slots, so results are
// deterministic in order and content regardless of thread count.
#ifndef CKR_FRAMEWORK_RUNTIME_RANKER_H_
#define CKR_FRAMEWORK_RUNTIME_RANKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/binary_io.h"
#include "common/epoch_set.h"
#include "common/hash.h"
#include "common/status.h"
#include "detect/entity_detector.h"
#include "framework/stem_memo.h"
#include "features/interestingness.h"
#include "features/relevance.h"
#include "obs/clock.h"
#include "online/ctr_tracker.h"
#include "ranksvm/rank_svm.h"

namespace ckr {

/// Sentinel for "concept not in this store".
inline constexpr uint32_t kInvalidConcept = static_cast<uint32_t>(-1);

/// Term -> TID mapping; TIDs are dense and must fit in 22 bits.
class GlobalTidTable {
 public:
  static constexpr uint32_t kMaxTid = (1u << 22) - 1;

  /// Returns the TID, interning the term if new. Once the table is full
  /// (2^22 - 1 terms; kMaxTid is reserved as the unknown sentinel), new
  /// terms set the overflow flag and get kMaxTid without mutating the
  /// table; existing terms still resolve normally.
  uint32_t Intern(std::string_view term);

  /// TID or kMaxTid when unknown.
  uint32_t Lookup(std::string_view term) const;

  size_t size() const { return tids_.size(); }
  bool overflowed() const { return overflowed_; }

  /// Lowers the intern capacity so overflow behaviour is testable without
  /// four million inserts. Testing hook only.
  void SetCapacityForTesting(uint32_t capacity) { capacity_ = capacity; }

  /// Serializes the term -> TID mapping.
  void SaveTo(BinaryWriter* writer) const;

  /// Restores a table saved by SaveTo (TIDs preserved exactly).
  [[nodiscard]] static StatusOr<GlobalTidTable> LoadFrom(BinaryReader* reader);

 private:
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      tids_;
  uint32_t capacity_ = kMaxTid;
  bool overflowed_ = false;
};

/// The runtime's two per-concept stores behind one concept table.
/// Finalize() maps every concept key to a dense id in sorted-key order;
/// each id then owns two payloads:
///  * its interestingness vector, each field linearly quantized to uint16
///    against that field's [min, max] ("each field [fits] two bytes"), in
///    one id-indexed column;
///  * its mined relevant terms (at most 100), each packed as
///    tid << 10 | score with the score linearly quantized to [0, 1023]
///    against the global maximum, in one CSR pair array sorted by TID.
class ConceptStore {
 public:
  /// Registers a concept's raw vector and mined terms (at most 100 kept);
  /// a repeated key replaces the earlier entry. Ranges, scale and ids are
  /// fitted in Finalize(). Not after Finalize() or LoadFrom().
  void Add(std::string_view key, const InterestingnessVector& vec,
           const std::vector<RelevantTerm>& terms);

  /// Fits the per-field ranges and the global score scale, assigns dense
  /// ids in sorted-key order and packs both payloads, then frees the build
  /// map. Terms are interned into `tids` in that order, so TID numbering
  /// is deterministic. Call once.
  void Finalize(GlobalTidTable* tids);

  size_t NumConcepts() const { return keys_.size(); }

  /// Dense id of a concept key, kInvalidConcept if unknown. Valid after
  /// Finalize(); ids are contiguous in [0, NumConcepts()).
  uint32_t IdOf(std::string_view key) const;

  /// Key of a dense id (inverse of IdOf).
  const std::string& KeyOf(uint32_t id) const { return keys_[id]; }

  /// Dequantized flat interestingness vector (InterestingnessVector::Dim()
  /// wide); false if the concept is unknown.
  bool Lookup(std::string_view key, std::vector<double>* out) const;

  /// Hash-free hot-path lookup by dense id; false for kInvalidConcept.
  bool LookupById(uint32_t id, std::vector<double>* out) const;

  /// Relevance score of a concept against a set of context TIDs: the sum
  /// of dequantized scores of its terms present in the context.
  double Score(std::string_view key,
               const std::unordered_set<uint32_t>& context_tids) const;

  /// Hash-free hot-path scoring by dense id against an EpochSet context.
  double ScoreById(uint32_t id, const EpochSet& context_tids) const;

  /// Bytes of the quantized interestingness payload (the paper's "18MB
  /// for 1 million concepts" accounting: NumConcepts * Dim * 2).
  size_t InterestingnessBytes() const;

  /// Bytes of the packed relevance payload (4 bytes per pair).
  size_t RelevanceBytes() const;

  /// Bytes if every concept's sorted TID list were Golomb-compressed
  /// (scores still 10 bits each plus the coder's headers); reported by the
  /// memory bench.
  size_t GolombCompressedBytes() const;

  /// Writes the 'QI01' interestingness section, then the 'PR01' relevance
  /// section, both listing every key in id order.
  void SaveTo(BinaryWriter* writer) const;

  /// Restores a store saved by SaveTo. Rejects sections whose keys are
  /// not strictly ascending or differ from each other.
  [[nodiscard]] static StatusOr<ConceptStore> LoadFrom(BinaryReader* reader);

 private:
  struct RawConcept {
    std::vector<double> vec;
    std::vector<RelevantTerm> terms;
  };

  /// Rebuilds key_to_id_ from keys_.
  void IndexKeys();
  /// The build map; emptied by Finalize().
  std::map<std::string, RawConcept, std::less<>> raw_;
  bool finalized_ = false;  ///< Finalize() ran, or LoadFrom() built this.

  std::vector<std::string> keys_;  ///< Sorted; index == concept id.
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      key_to_id_;
  // Interestingness payload: concept i occupies
  // flat_[i * Dim() .. (i + 1) * Dim()).
  std::vector<uint16_t> flat_;
  std::vector<double> field_min_;
  std::vector<double> field_max_;
  // Relevance payload: concept i's pairs occupy
  // pairs_[offsets_[i] .. offsets_[i + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> pairs_;
  double score_scale_ = 1.0;  ///< Raw score corresponding to 1023.
};

/// Timing/throughput counters of one ProcessDocument call batch.
struct RuntimeStats {
  double stemmer_seconds = 0.0;
  double ranker_seconds = 0.0;  ///< match_seconds + score_seconds.
  /// Per-component split of the ranker on the flat path: candidate
  /// detection (Aho-Corasick + collision resolution) vs feature assembly,
  /// model scoring and sorting.
  double match_seconds = 0.0;
  double score_seconds = 0.0;
  uint64_t bytes_processed = 0;
  uint64_t documents = 0;
  uint64_t detections = 0;

  /// Merges another stats block (used by the batch path's per-worker
  /// accumulators).
  void Merge(const RuntimeStats& other);

  double StemmerMBps() const;
  double RankerMBps() const;
  double MatchMBps() const;
  double ScoreMBps() const;
  /// Documents per second over stemmer + ranker time.
  double DocsPerSec() const;
};

/// One ranked annotation produced by the runtime.
struct RankedAnnotation {
  std::string key;
  size_t begin = 0;
  size_t end = 0;
  EntityType type = EntityType::kConcept;
  double score = 0.0;
};

/// Reusable per-call working state of the Ranker. One per thread; all
/// buffers are overwritten per document and reused across documents, so
/// the steady state performs zero heap allocations before the output list.
struct RankerScratch {
  EntityDetector::Scratch detect;
  EpochSet context;       ///< Stemmed context TIDs (universe: TID table).
  EpochSet seen_entries;  ///< Detector entries already emitted.
  StemMemo stem_memo;  ///< Token text -> TID + term id, kept across docs.
  std::string stem_buf;
  std::vector<double> features;
};

/// The online Ranker component (Figure 4). The concept store must be
/// finalized, and it and the TID table must outlive the ranker.
class RuntimeRanker {
 public:
  RuntimeRanker(const EntityDetector& detector, const ConceptStore& concepts,
                const GlobalTidTable& tids, RankSvmModel model);

  /// Attaches (or detaches, with nullptr) a live CTR tracker; its
  /// Adjustment() is added to every model score — the online adaptation
  /// of the paper's Section VIII. The tracker must outlive the ranker.
  void SetOnlineTracker(const CtrTracker* tracker) { tracker_ = tracker; }

  /// Swaps the time source behind RuntimeStats and the obs stage timers
  /// (default: the process steady clock). With a FakeClock the reported
  /// stage durations are deterministic; ranked output never depends on
  /// the clock. The clock must outlive the ranker.
  void SetClockForTesting(const Clock* clock) { clock_ = clock; }

  /// Detects, scores and ranks the concepts of one document. Pattern
  /// entities are excluded (they bypass ranking). Accumulates timing into
  /// `stats` when non-null. Uses a thread-local scratch.
  std::vector<RankedAnnotation> ProcessDocument(std::string_view text,
                                                RuntimeStats* stats = nullptr)
      const;

  /// Explicit-scratch variant for callers that manage worker state.
  std::vector<RankedAnnotation> ProcessDocument(std::string_view text,
                                                RankerScratch* scratch,
                                                RuntimeStats* stats) const;

  /// The Stemmer's second half, after ScanText has filled
  /// `scratch->detect.tokens`: resolves every token through the scratch's
  /// StemMemo, keyed by Token::hash, to its detector term id
  /// (`detect.token_tids`) and its context TID (into `context`, reset
  /// first). The memo runs the stop-word -> Porter -> TID chain and the
  /// detector's term lookup only on forms it has not seen (kMaxTid: stop
  /// word or unknown stem). ProcessDocument's stem stage is ScanText then
  /// this; it is public so the perf bench can time it alone.
  void ResolveTokens(RankerScratch* scratch) const;

  /// Processes a batch of documents with up to `num_threads` workers (0 or
  /// 1 = inline). One scratch per worker; results land in per-document
  /// output slots, so ordering and content are independent of thread
  /// count. Per-component timing is accumulated per worker and merged into
  /// `stats` when non-null (wall-clock sums across workers, not elapsed
  /// time).
  std::vector<std::vector<RankedAnnotation>> ProcessBatch(
      std::span<const std::string_view> docs, unsigned num_threads,
      RuntimeStats* stats = nullptr) const;

  /// Reference implementation over the string-keyed map lookups (the
  /// pre-flat-layout hot path). Kept for the perf bench's old-vs-new
  /// comparison and for bit-identity verification; produces exactly the
  /// same ranking as ProcessDocument.
  std::vector<RankedAnnotation> ProcessDocumentLegacy(
      std::string_view text, RuntimeStats* stats = nullptr) const;

 private:
  /// The Stemmer component of the legacy path: stems the document once
  /// into context TIDs.
  std::unordered_set<uint32_t> StemToTids(std::string_view text) const;

  const EntityDetector& detector_;
  const ConceptStore& concepts_;
  const GlobalTidTable& tids_;
  RankSvmModel model_;
  const CtrTracker* tracker_ = nullptr;
  const Clock* clock_ = &RealClock();
  /// Process-unique, so a scratch's StemMemo can tell rankers apart.
  uint64_t id_;

  /// Detector entry id -> dense concept id, resolved once at construction
  /// so the document path never hashes a concept key.
  std::vector<uint32_t> entry_concept_;
};

}  // namespace ckr

#endif  // CKR_FRAMEWORK_RUNTIME_RANKER_H_
