#include "framework/runtime_ranker.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/parallel.h"
#include "framework/golomb.h"
#include "obs/hooks.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

constexpr uint32_t kInterestMagic = 0x51493031;   // 'QI01'
constexpr uint32_t kRelevanceMagic = 0x50523031;  // 'PR01'

double SafeRate(uint64_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
}

uint64_t NextRankerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void SortRanked(std::vector<RankedAnnotation>* ranked) {
  std::sort(ranked->begin(), ranked->end(),
            [](const RankedAnnotation& a, const RankedAnnotation& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.begin < b.begin;
            });
}

}  // namespace

uint32_t GlobalTidTable::Intern(std::string_view term) {
  auto it = tids_.find(term);
  if (it != tids_.end()) return it->second;
  if (overflowed_ || tids_.size() >= capacity_ || tids_.size() >= kMaxTid) {
    overflowed_ = true;
    return kMaxTid;
  }
  uint32_t tid = static_cast<uint32_t>(tids_.size());
  tids_.emplace(std::string(term), tid);
  return tid;
}

uint32_t GlobalTidTable::Lookup(std::string_view term) const {
  auto it = tids_.find(term);
  return it == tids_.end() ? kMaxTid : it->second;
}

void GlobalTidTable::SaveTo(BinaryWriter* writer) const {
  std::vector<std::string_view> terms(tids_.size());
  // ckr-lint: ordered(written by tid slot, so hash order cannot leak)
  for (const auto& [term, tid] : tids_) terms[tid] = term;
  writer->U32(0x54493031);  // 'TI01'
  writer->U32(static_cast<uint32_t>(terms.size()));
  for (uint32_t tid = 0; tid < terms.size(); ++tid) {
    writer->Str(terms[tid]);
    writer->U32(tid);
  }
}

StatusOr<GlobalTidTable> GlobalTidTable::LoadFrom(BinaryReader* reader) {
  if (reader->U32() != 0x54493031) {
    return Status::InvalidArgument("bad TID-table magic");
  }
  GlobalTidTable table;
  uint32_t n = reader->U32();
  // Each entry is at least a 4-byte key length prefix plus its 4-byte tid.
  if (n > reader->remaining() / (2 * sizeof(uint32_t))) {
    return Status::InvalidArgument("TID-table count exceeds blob size");
  }
  if (n > kMaxTid) return Status::InvalidArgument("TID out of range");
  table.tids_.reserve(n);
  // Entry i must carry tid i: TIDs are dense, and each names one term.
  for (uint32_t i = 0; i < n && reader->ok(); ++i) {
    std::string term = reader->Str();
    uint32_t tid = reader->U32();
    if (!reader->ok()) break;
    if (tid != i) {
      return Status::InvalidArgument("TID-table entry out of tid order");
    }
    if (!table.tids_.emplace(std::move(term), tid).second) {
      return Status::InvalidArgument("duplicate term in TID table");
    }
  }
  if (!reader->ok()) return Status::InvalidArgument("truncated TID table");
  return table;
}

void ConceptStore::Add(std::string_view key,
                       const InterestingnessVector& vec,
                       const std::vector<RelevantTerm>& terms) {
  RawConcept raw;
  raw.vec = vec.Flatten();
  raw.terms.assign(terms.begin(),
                   terms.begin() + std::min<size_t>(terms.size(), 100));
  raw_.insert_or_assign(std::string(key), std::move(raw));
}

void ConceptStore::Finalize(GlobalTidTable* tids) {
  const size_t dim = InterestingnessVector::Dim();
  field_min_.assign(dim, 1e300);
  field_max_.assign(dim, -1e300);
  double max_score = 0.0;
  for (const auto& [key, raw] : raw_) {
    for (size_t i = 0; i < dim; ++i) {
      field_min_[i] = std::min(field_min_[i], raw.vec[i]);
      field_max_[i] = std::max(field_max_[i], raw.vec[i]);
    }
    for (const RelevantTerm& t : raw.terms) {
      max_score = std::max(max_score, t.score);
    }
  }
  if (raw_.empty()) {
    field_min_.assign(dim, 0.0);
    field_max_.assign(dim, 1.0);
  }
  score_scale_ = max_score > 0 ? max_score : 1.0;

  // The build map iterates in sorted-key order, which is the id order.
  keys_.clear();
  keys_.reserve(raw_.size());
  flat_.assign(raw_.size() * dim, 0);
  offsets_.assign(1, 0);
  offsets_.reserve(raw_.size() + 1);
  pairs_.clear();
  std::vector<uint32_t> packed;
  for (const auto& [key, raw] : raw_) {
    const uint32_t id = static_cast<uint32_t>(keys_.size());
    keys_.push_back(key);
    uint16_t* q = flat_.data() + static_cast<size_t>(id) * dim;
    for (size_t i = 0; i < dim; ++i) {
      double span = field_max_[i] - field_min_[i];
      double frac = span > 0 ? (raw.vec[i] - field_min_[i]) / span : 0.0;
      q[i] = static_cast<uint16_t>(frac * 65535.0 + 0.5);
    }
    packed.clear();
    packed.reserve(raw.terms.size());
    for (const RelevantTerm& t : raw.terms) {
      uint32_t tid = tids->Intern(t.term);
      uint32_t score10 = static_cast<uint32_t>(
          std::min(1.0, std::max(0.0, t.score / score_scale_)) * 1023.0 + 0.5);
      packed.push_back((tid << 10) | score10);
    }
    // Sorted by TID: enables the Golomb-compressed representation and
    // cache-friendly probing.
    std::sort(packed.begin(), packed.end());
    pairs_.insert(pairs_.end(), packed.begin(), packed.end());
    offsets_.push_back(static_cast<uint32_t>(pairs_.size()));
  }
  IndexKeys();
}

void ConceptStore::IndexKeys() {
  key_to_id_.clear();
  key_to_id_.reserve(keys_.size());
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    key_to_id_.emplace(keys_[id], id);
  }
}

uint32_t ConceptStore::IdOf(std::string_view key) const {
  auto it = key_to_id_.find(key);
  return it == key_to_id_.end() ? kInvalidConcept : it->second;
}

bool ConceptStore::LookupById(uint32_t id, std::vector<double>* out) const {
  if (id >= keys_.size()) return false;
  const size_t dim = InterestingnessVector::Dim();
  out->resize(dim);
  const uint16_t* q = flat_.data() + static_cast<size_t>(id) * dim;
  for (size_t i = 0; i < dim; ++i) {
    double span = field_max_[i] - field_min_[i];
    (*out)[i] = field_min_[i] + span * static_cast<double>(q[i]) / 65535.0;
  }
  return true;
}

bool ConceptStore::Lookup(std::string_view key,
                          std::vector<double>* out) const {
  return LookupById(IdOf(key), out);
}

double ConceptStore::ScoreById(uint32_t id,
                               const EpochSet& context_tids) const {
  if (id >= keys_.size()) return 0.0;
  double total = 0.0;
  const uint32_t* p = pairs_.data() + offsets_[id];
  const uint32_t* end = pairs_.data() + offsets_[id + 1];
  for (; p != end; ++p) {
    uint32_t tid = *p >> 10;
    if (context_tids.Contains(tid)) {
      total += static_cast<double>(*p & 1023u) / 1023.0 * score_scale_;
    }
  }
  return total;
}

double ConceptStore::Score(
    std::string_view key,
    const std::unordered_set<uint32_t>& context_tids) const {
  uint32_t id = IdOf(key);
  if (id == kInvalidConcept) return 0.0;
  double total = 0.0;
  for (uint32_t i = offsets_[id]; i < offsets_[id + 1]; ++i) {
    uint32_t pair = pairs_[i];
    uint32_t tid = pair >> 10;
    if (context_tids.count(tid) > 0) {
      total += static_cast<double>(pair & 1023u) / 1023.0 * score_scale_;
    }
  }
  return total;
}

size_t ConceptStore::InterestingnessBytes() const {
  return keys_.size() * InterestingnessVector::Dim() * sizeof(uint16_t);
}

size_t ConceptStore::RelevanceBytes() const {
  return pairs_.size() * sizeof(uint32_t);
}

size_t ConceptStore::GolombCompressedBytes() const {
  size_t total = 0;
  std::vector<uint32_t> tids;
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    size_t count = offsets_[id + 1] - offsets_[id];
    tids.clear();
    tids.reserve(count);
    for (uint32_t i = offsets_[id]; i < offsets_[id + 1]; ++i) {
      uint32_t tid = pairs_[i] >> 10;
      if (tids.empty() || tid > tids.back()) tids.push_back(tid);
    }
    auto encoded = EncodeSortedIds(tids, GlobalTidTable::kMaxTid + 1);
    if (encoded.ok()) {
      total += encoded.value().size();
      // 10-bit scores stored alongside, byte-packed.
      total += (count * 10 + 7) / 8;
    } else {
      total += count * sizeof(uint32_t);  // Fallback: raw.
    }
  }
  return total;
}

void ConceptStore::SaveTo(BinaryWriter* writer) const {
  const size_t dim = InterestingnessVector::Dim();
  writer->U32(kInterestMagic);
  writer->U32(static_cast<uint32_t>(field_min_.size()));
  for (double v : field_min_) writer->F64(v);
  for (double v : field_max_) writer->F64(v);
  writer->U32(static_cast<uint32_t>(keys_.size()));
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    writer->Str(keys_[id]);
    const uint16_t* q = flat_.data() + static_cast<size_t>(id) * dim;
    for (size_t i = 0; i < dim; ++i) writer->U16(q[i]);
  }
  writer->U32(kRelevanceMagic);
  writer->F64(score_scale_);
  writer->U32(static_cast<uint32_t>(keys_.size()));
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    writer->Str(keys_[id]);
    writer->U32(offsets_[id + 1] - offsets_[id]);
    for (uint32_t i = offsets_[id]; i < offsets_[id + 1]; ++i) {
      writer->U32(pairs_[i]);
    }
  }
}

StatusOr<ConceptStore> ConceptStore::LoadFrom(BinaryReader* reader) {
  if (reader->U32() != kInterestMagic) {
    return Status::InvalidArgument("bad interestingness-store magic");
  }
  ConceptStore store;
  uint32_t dim = reader->U32();
  if (dim != InterestingnessVector::Dim()) {
    return Status::InvalidArgument("interestingness dimensionality mismatch");
  }
  store.field_min_.resize(dim);
  store.field_max_.resize(dim);
  for (double& v : store.field_min_) v = reader->F64();
  for (double& v : store.field_max_) v = reader->F64();
  uint32_t n = reader->U32();
  // Every record is at least its key's 4-byte length prefix plus dim
  // quantized values; a declared count that cannot fit the remaining
  // bytes is a corrupted size field and must fail before any reserve.
  const size_t min_record_bytes = sizeof(uint32_t) + dim * sizeof(uint16_t);
  if (n > reader->remaining() / min_record_bytes) {
    return Status::InvalidArgument(
        "interestingness store count exceeds blob size");
  }
  // Ids are the record order, which SaveTo writes in sorted-key order.
  store.keys_.reserve(n);
  store.flat_.reserve(static_cast<size_t>(n) * dim);
  for (uint32_t i = 0; i < n && reader->ok(); ++i) {
    std::string key = reader->Str();
    if (reader->ok() && !store.keys_.empty() && !(store.keys_.back() < key)) {
      return Status::InvalidArgument("concept keys not strictly ascending");
    }
    store.keys_.push_back(std::move(key));
    for (uint32_t d = 0; d < dim; ++d) store.flat_.push_back(reader->U16());
  }
  if (!reader->ok()) {
    return Status::InvalidArgument("truncated interestingness store");
  }

  if (reader->U32() != kRelevanceMagic) {
    return Status::InvalidArgument("bad relevance-store magic");
  }
  store.score_scale_ = reader->F64();
  if (reader->U32() != n) {
    return Status::InvalidArgument(
        "concept store sections list different keys");
  }
  store.offsets_.assign(1, 0);
  store.offsets_.reserve(static_cast<size_t>(n) + 1);
  for (uint32_t id = 0; id < n && reader->ok(); ++id) {
    const std::string key = reader->Str();
    if (reader->ok() && key != store.keys_[id]) {
      return Status::InvalidArgument(
          "concept store sections list different keys");
    }
    uint32_t m = reader->U32();
    if (m > 100) return Status::InvalidArgument("oversized term list");
    for (uint32_t i = 0; i < m; ++i) store.pairs_.push_back(reader->U32());
    store.offsets_.push_back(static_cast<uint32_t>(store.pairs_.size()));
  }
  if (!reader->ok()) {
    return Status::InvalidArgument("truncated relevance store");
  }
  store.IndexKeys();
  return store;
}

void RuntimeStats::Merge(const RuntimeStats& other) {
  stemmer_seconds += other.stemmer_seconds;
  ranker_seconds += other.ranker_seconds;
  match_seconds += other.match_seconds;
  score_seconds += other.score_seconds;
  bytes_processed += other.bytes_processed;
  documents += other.documents;
  detections += other.detections;
}

double RuntimeStats::StemmerMBps() const {
  return SafeRate(bytes_processed, stemmer_seconds);
}

double RuntimeStats::RankerMBps() const {
  return SafeRate(bytes_processed, ranker_seconds);
}

double RuntimeStats::MatchMBps() const {
  return SafeRate(bytes_processed, match_seconds);
}

double RuntimeStats::ScoreMBps() const {
  return SafeRate(bytes_processed, score_seconds);
}

double RuntimeStats::DocsPerSec() const {
  double total = stemmer_seconds + ranker_seconds;
  return total > 0 ? static_cast<double>(documents) / total : 0.0;
}

RuntimeRanker::RuntimeRanker(const EntityDetector& detector,
                             const ConceptStore& concepts,
                             const GlobalTidTable& tids, RankSvmModel model)
    : detector_(detector),
      concepts_(concepts),
      tids_(tids),
      model_(std::move(model)),
      id_(NextRankerId()) {
  // Resolve every detector entry to its dense concept id once; the
  // per-document path then runs entirely on ids.
  const uint32_t n = static_cast<uint32_t>(detector_.NumEntries());
  entry_concept_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    entry_concept_[i] = concepts_.IdOf(detector_.EntryKey(i));
  }
}

std::unordered_set<uint32_t> RuntimeRanker::StemToTids(
    std::string_view text) const {
  std::unordered_set<uint32_t> out;
  for (std::string& tok : TokenizeToStrings(text)) {
    if (IsStopWord(tok)) continue;
    uint32_t tid = tids_.Lookup(PorterStem(tok));
    if (tid != GlobalTidTable::kMaxTid) out.insert(tid);
  }
  return out;
}

std::vector<RankedAnnotation> RuntimeRanker::ProcessDocument(
    std::string_view text, RuntimeStats* stats) const {
  static thread_local RankerScratch scratch;
  return ProcessDocument(text, &scratch, stats);
}

void RuntimeRanker::ResolveTokens(RankerScratch* scratch) const {
  const std::vector<Token>& tokens = scratch->detect.tokens;
  std::vector<uint32_t>& token_tids = scratch->detect.token_tids;
  token_tids.resize(tokens.size());
  scratch->context.Reset(tids_.size());
  StemMemo& memo = scratch->stem_memo;
  memo.Bind(id_, tids_.size());
  const auto resolve = [&](std::string_view form) {
    StemMemo::Ids ids;
    ids.term = detector_.TermId(form);
    if (IsStopWord(form)) {
      ids.tid = GlobalTidTable::kMaxTid;
    } else {
      PorterStemInto(form, &scratch->stem_buf);
      ids.tid = tids_.Lookup(scratch->stem_buf);
    }
    return ids;
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    const StemMemo::Ids ids =
        memo.Resolve(tokens[i].text, tokens[i].hash, resolve);
    token_tids[i] = ids.term;
    if (ids.tid != GlobalTidTable::kMaxTid) scratch->context.Insert(ids.tid);
  }
}

std::vector<RankedAnnotation> RuntimeRanker::ProcessDocument(
    std::string_view text, RankerScratch* scratch, RuntimeStats* stats) const {
  // Stemmer component: one scan of the bytes for the tokens, their hashes
  // and the pattern entities (all shared with detection below), then the
  // memo loop over the tokens.
  int64_t t0 = clock_->NowNanos();
  ScanText(text, &scratch->detect.tokens, &scratch->detect.patterns);
  ResolveTokens(scratch);
  const StemMemo::Tally memo_tally = scratch->stem_memo.TakeTally();
  double stem_s = clock_->SecondsSince(t0);

  // Ranker component, stage 1: candidate detection on the flat automaton.
  int64_t t1 = clock_->NowNanos();
  const std::vector<RawDetection>& raw =
      detector_.DetectRawInterned(&scratch->detect);
  double match_s = clock_->SecondsSince(t1);

  // Ranker component, stage 2: id-keyed feature assembly + model scoring.
  int64_t t2 = clock_->NowNanos();
  std::vector<RankedAnnotation> ranked;
  scratch->seen_entries.Reset(detector_.NumEntries());
  for (const RawDetection& d : raw) {
    if (d.type == EntityType::kPattern ||
        d.entry_id == EntityDetector::kPatternEntry) {
      continue;
    }
    if (!scratch->seen_entries.Insert(d.entry_id)) continue;  // First only.
    const uint32_t concept_id = entry_concept_[d.entry_id];
    if (!concepts_.LookupById(concept_id, &scratch->features)) {
      // Degraded path: detected but missing a feature vector (store and
      // dictionary out of sync); the annotation is silently dropped, so
      // count it — drift here is otherwise invisible.
      CKR_OBS_COUNTER_INC("ckr.runtime.missing_feature_vector");
      continue;
    }
    // Log-scaled to match ExperimentRunner::Features' model layout.
    scratch->features.push_back(
        std::log1p(concepts_.ScoreById(concept_id, scratch->context)));
    RankedAnnotation a;
    a.key = detector_.EntryKey(d.entry_id);
    a.begin = d.begin;
    a.end = d.end;
    a.type = d.type;
    a.score = model_.Score(scratch->features);
    if (tracker_ != nullptr) {
      a.score += tracker_->Adjustment(a.key);
      CKR_OBS_COUNTER_INC("ckr.runtime.ctr_adjustments");
    }
    ranked.push_back(std::move(a));
  }
  SortRanked(&ranked);
  double score_s = clock_->SecondsSince(t2);

  CKR_OBS_HISTOGRAM_RECORD("ckr.runtime.stage.stem_seconds", stem_s);
  CKR_OBS_HISTOGRAM_RECORD("ckr.runtime.stage.match_seconds", match_s);
  CKR_OBS_HISTOGRAM_RECORD("ckr.runtime.stage.score_seconds", score_s);
  CKR_OBS_COUNTER_INC("ckr.runtime.documents");
  CKR_OBS_COUNTER_ADD("ckr.runtime.detections", ranked.size());
  CKR_OBS_COUNTER_ADD("ckr.runtime.bytes_processed", text.size());
  CKR_OBS_COUNTER_ADD("ckr.runtime.stem_memo_hits", memo_tally.hits);
  CKR_OBS_COUNTER_ADD("ckr.runtime.stem_memo_misses", memo_tally.misses);
  CKR_OBS_COUNTER_ADD("ckr.runtime.stem_memo_resets", memo_tally.resets);

  if (stats != nullptr) {
    stats->stemmer_seconds += stem_s;
    stats->match_seconds += match_s;
    stats->score_seconds += score_s;
    stats->ranker_seconds += match_s + score_s;
    stats->bytes_processed += text.size();
    stats->documents += 1;
    stats->detections += ranked.size();
  }
  return ranked;
}

std::vector<std::vector<RankedAnnotation>> RuntimeRanker::ProcessBatch(
    std::span<const std::string_view> docs, unsigned num_threads,
    RuntimeStats* stats) const {
  std::vector<std::vector<RankedAnnotation>> results(docs.size());
  unsigned workers = num_threads <= 1 ? 1 : num_threads;
  if (workers > docs.size() && !docs.empty()) {
    workers = static_cast<unsigned>(docs.size());
  }
  CKR_OBS_SCOPED_TIMER("ckr.runtime.batch_seconds");
  CKR_OBS_COUNTER_INC("ckr.runtime.batches");
  CKR_OBS_COUNTER_ADD("ckr.runtime.batch_docs", docs.size());
  CKR_OBS_GAUGE_SET("ckr.runtime.batch_workers", workers);
  std::vector<RankerScratch> scratches(workers);
  std::vector<RuntimeStats> worker_stats(workers);
  ParallelForWorkers(docs.size(), workers, [&](unsigned worker, size_t i) {
    results[i] = ProcessDocument(docs[i], &scratches[worker],
                                 &worker_stats[worker]);
  });
  if (stats != nullptr) {
    for (const RuntimeStats& ws : worker_stats) stats->Merge(ws);
  }
  return results;
}

std::vector<RankedAnnotation> RuntimeRanker::ProcessDocumentLegacy(
    std::string_view text, RuntimeStats* stats) const {
  int64_t t0 = clock_->NowNanos();
  std::unordered_set<uint32_t> context = StemToTids(text);
  double stem_s = clock_->SecondsSince(t0);

  int64_t t1 = clock_->NowNanos();
  std::vector<Detection> detections = detector_.Detect(text);
  std::vector<RankedAnnotation> ranked;
  std::vector<double> features;
  std::unordered_set<std::string> seen_keys;
  for (const Detection& d : detections) {
    if (d.type == EntityType::kPattern) continue;
    if (!seen_keys.insert(d.key).second) continue;  // First occurrence only.
    if (!concepts_.Lookup(d.key, &features)) continue;
    // Log-scaled to match ExperimentRunner::Features' model layout.
    features.push_back(std::log1p(concepts_.Score(d.key, context)));
    RankedAnnotation a;
    a.key = d.key;
    a.begin = d.begin;
    a.end = d.end;
    a.type = d.type;
    a.score = model_.Score(features);
    if (tracker_ != nullptr) a.score += tracker_->Adjustment(d.key);
    ranked.push_back(std::move(a));
  }
  SortRanked(&ranked);
  double rank_s = clock_->SecondsSince(t1);

  if (stats != nullptr) {
    stats->stemmer_seconds += stem_s;
    stats->ranker_seconds += rank_s;
    stats->bytes_processed += text.size();
    stats->documents += 1;
    stats->detections += ranked.size();
  }
  return ranked;
}

}  // namespace ckr
