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

void QuantizedInterestingnessStore::Add(std::string_view key,
                                        const InterestingnessVector& vec) {
  raw_[std::string(key)] = vec.Flatten();
  finalized_ = false;
}

void QuantizedInterestingnessStore::Finalize() {
  const size_t dim = InterestingnessVector::Dim();
  field_min_.assign(dim, 1e300);
  field_max_.assign(dim, -1e300);
  for (const auto& [key, v] : raw_) {
    for (size_t i = 0; i < dim; ++i) {
      field_min_[i] = std::min(field_min_[i], v[i]);
      field_max_[i] = std::max(field_max_[i], v[i]);
    }
  }
  if (raw_.empty()) {
    field_min_.assign(dim, 0.0);
    field_max_.assign(dim, 1.0);
  }
  // Dense layout: ids in sorted-key order for run-to-run determinism.
  keys_.clear();
  keys_.reserve(raw_.size());
  for (const auto& [key, v] : raw_) keys_.push_back(key);
  std::sort(keys_.begin(), keys_.end());
  key_to_id_.clear();
  key_to_id_.reserve(keys_.size());
  flat_.assign(keys_.size() * dim, 0);
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    key_to_id_.emplace(keys_[id], id);
    const std::vector<double>& v = raw_.at(keys_[id]);
    uint16_t* q = flat_.data() + static_cast<size_t>(id) * dim;
    for (size_t i = 0; i < dim; ++i) {
      double span = field_max_[i] - field_min_[i];
      double frac = span > 0 ? (v[i] - field_min_[i]) / span : 0.0;
      q[i] = static_cast<uint16_t>(frac * 65535.0 + 0.5);
    }
  }
  finalized_ = true;
}

uint32_t QuantizedInterestingnessStore::IdOf(std::string_view key) const {
  auto it = key_to_id_.find(key);
  return it == key_to_id_.end() ? kInvalidConcept : it->second;
}

bool QuantizedInterestingnessStore::LookupById(uint32_t id,
                                               std::vector<double>* out) const {
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

bool QuantizedInterestingnessStore::Lookup(std::string_view key,
                                           std::vector<double>* out) const {
  return LookupById(IdOf(key), out);
}

size_t QuantizedInterestingnessStore::PayloadBytes() const {
  return keys_.size() * InterestingnessVector::Dim() * sizeof(uint16_t);
}

void QuantizedInterestingnessStore::SaveTo(BinaryWriter* writer) const {
  writer->U32(0x51493031);  // 'QI01'
  writer->U32(static_cast<uint32_t>(field_min_.size()));
  for (double v : field_min_) writer->F64(v);
  for (double v : field_max_) writer->F64(v);
  writer->U32(static_cast<uint32_t>(keys_.size()));
  const size_t dim = InterestingnessVector::Dim();
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    writer->Str(keys_[id]);
    const uint16_t* q = flat_.data() + static_cast<size_t>(id) * dim;
    for (size_t i = 0; i < dim; ++i) writer->U16(q[i]);
  }
}

StatusOr<QuantizedInterestingnessStore> QuantizedInterestingnessStore::LoadFrom(
    BinaryReader* reader) {
  if (reader->U32() != 0x51493031) {
    return Status::InvalidArgument("bad interestingness-store magic");
  }
  QuantizedInterestingnessStore store;
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
  // Records may come from any writer order (the current SaveTo emits
  // sorted keys; pre-flat packs used hash order): collect, then freeze in
  // sorted-key order so loaded ids match a freshly finalized store.
  std::vector<std::pair<std::string, std::vector<uint16_t>>> records;
  records.reserve(n);
  for (uint32_t i = 0; i < n && reader->ok(); ++i) {
    std::string key = reader->Str();
    std::vector<uint16_t> q(dim);
    for (uint16_t& v : q) v = reader->U16();
    records.emplace_back(std::move(key), std::move(q));
  }
  if (!reader->ok()) {
    return Status::InvalidArgument("truncated interestingness store");
  }
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  store.keys_.reserve(records.size());
  store.flat_.reserve(records.size() * dim);
  for (uint32_t id = 0; id < records.size(); ++id) {
    store.key_to_id_.emplace(records[id].first, id);
    store.keys_.push_back(std::move(records[id].first));
    store.flat_.insert(store.flat_.end(), records[id].second.begin(),
                       records[id].second.end());
  }
  store.finalized_ = true;
  return store;
}

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
  writer->U32(0x54493031);  // 'TI01'
  writer->U32(static_cast<uint32_t>(tids_.size()));
  for (const auto& [term, tid] : tids_) {
    writer->Str(term);
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
  table.tids_.reserve(n);
  for (uint32_t i = 0; i < n && reader->ok(); ++i) {
    std::string term = reader->Str();
    uint32_t tid = reader->U32();
    if (tid > kMaxTid) return Status::InvalidArgument("TID out of range");
    table.tids_[std::move(term)] = tid;
  }
  if (!reader->ok()) return Status::InvalidArgument("truncated TID table");
  return table;
}

void PackedRelevanceStore::Add(std::string_view key,
                               const std::vector<RelevantTerm>& terms) {
  std::vector<RelevantTerm> kept(
      terms.begin(),
      terms.begin() + std::min<size_t>(terms.size(), 100));
  raw_[std::string(key)] = std::move(kept);
  finalized_ = false;
}

void PackedRelevanceStore::Finalize() {
  double max_score = 0.0;
  for (const auto& [key, terms] : raw_) {
    for (const RelevantTerm& t : terms) {
      max_score = std::max(max_score, t.score);
    }
  }
  score_scale_ = max_score > 0 ? max_score : 1.0;
  // Dense CSR layout in sorted-key order; interning in that order also
  // makes the TID numbering deterministic across runs.
  keys_.clear();
  keys_.reserve(raw_.size());
  for (const auto& [key, terms] : raw_) keys_.push_back(key);
  std::sort(keys_.begin(), keys_.end());
  key_to_id_.clear();
  key_to_id_.reserve(keys_.size());
  offsets_.assign(1, 0);
  offsets_.reserve(keys_.size() + 1);
  pairs_.clear();
  std::vector<uint32_t> packed;
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    key_to_id_.emplace(keys_[id], id);
    const std::vector<RelevantTerm>& terms = raw_.at(keys_[id]);
    packed.clear();
    packed.reserve(terms.size());
    for (const RelevantTerm& t : terms) {
      uint32_t tid = tids_->Intern(t.term);
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
  finalized_ = true;
}

uint32_t PackedRelevanceStore::IdOf(std::string_view key) const {
  auto it = key_to_id_.find(key);
  return it == key_to_id_.end() ? kInvalidConcept : it->second;
}

double PackedRelevanceStore::ScoreById(uint32_t id,
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

double PackedRelevanceStore::Score(
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

size_t PackedRelevanceStore::PayloadBytes() const {
  return pairs_.size() * sizeof(uint32_t);
}

size_t PackedRelevanceStore::GolombCompressedBytes() const {
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

void PackedRelevanceStore::SaveTo(BinaryWriter* writer) const {
  writer->U32(0x50523031);  // 'PR01'
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

StatusOr<PackedRelevanceStore> PackedRelevanceStore::LoadFrom(
    BinaryReader* reader, GlobalTidTable* tids) {
  if (reader->U32() != 0x50523031) {
    return Status::InvalidArgument("bad relevance-store magic");
  }
  PackedRelevanceStore store(tids);
  store.score_scale_ = reader->F64();
  uint32_t n = reader->U32();
  // Each record is at least a 4-byte key length prefix plus its 4-byte
  // term count.
  if (n > reader->remaining() / (2 * sizeof(uint32_t))) {
    return Status::InvalidArgument("relevance store count exceeds blob size");
  }
  std::vector<std::pair<std::string, std::vector<uint32_t>>> records;
  records.reserve(n);
  for (uint32_t i = 0; i < n && reader->ok(); ++i) {
    std::string key = reader->Str();
    uint32_t m = reader->U32();
    if (m > 100) return Status::InvalidArgument("oversized term list");
    std::vector<uint32_t> pairs(m);
    for (uint32_t& p : pairs) p = reader->U32();
    records.emplace_back(std::move(key), std::move(pairs));
  }
  if (!reader->ok()) return Status::InvalidArgument("truncated relevance store");
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  store.keys_.reserve(records.size());
  store.offsets_.assign(1, 0);
  store.offsets_.reserve(records.size() + 1);
  for (uint32_t id = 0; id < records.size(); ++id) {
    store.key_to_id_.emplace(records[id].first, id);
    store.keys_.push_back(std::move(records[id].first));
    store.pairs_.insert(store.pairs_.end(), records[id].second.begin(),
                        records[id].second.end());
    store.offsets_.push_back(static_cast<uint32_t>(store.pairs_.size()));
  }
  store.finalized_ = true;
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
                             const QuantizedInterestingnessStore& interestingness,
                             const PackedRelevanceStore& relevance,
                             const GlobalTidTable& tids, RankSvmModel model)
    : detector_(detector),
      interestingness_(interestingness),
      relevance_(relevance),
      tids_(tids),
      model_(std::move(model)),
      id_(NextRankerId()) {
  // Resolve every detector entry to dense store ids once; the per-document
  // path then runs entirely on ids.
  const uint32_t n = static_cast<uint32_t>(detector_.NumEntries());
  entry_interest_.resize(n, kInvalidConcept);
  entry_relevance_.resize(n, kInvalidConcept);
  for (uint32_t i = 0; i < n; ++i) {
    const std::string& key = detector_.EntryKey(i);
    entry_interest_[i] = interestingness_.IdOf(key);
    entry_relevance_[i] = relevance_.IdOf(key);
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

std::vector<RankedAnnotation> RuntimeRanker::ProcessDocument(
    std::string_view text, RankerScratch* scratch, RuntimeStats* stats) const {
  // Stemmer component: tokenize once (shared with detection below) and
  // resolve every token through the scratch's memo to its context TID and
  // its detector term id. The memo runs the stop-word -> Porter -> TID
  // chain and the detector's term lookup only on forms it has not seen
  // (kMaxTid: stop word or unknown stem).
  int64_t t0 = clock_->NowNanos();
  std::vector<Token>& tokens = scratch->detect.tokens;
  std::vector<uint32_t>& token_tids = scratch->detect.token_tids;
  TokenizeInto(text, &tokens);
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
    const StemMemo::Ids ids = memo.Resolve(tokens[i].text, resolve);
    token_tids[i] = ids.term;
    if (ids.tid != GlobalTidTable::kMaxTid) scratch->context.Insert(ids.tid);
  }
  const StemMemo::Tally memo_tally = memo.TakeTally();
  double stem_s = clock_->SecondsSince(t0);

  // Ranker component, stage 1: candidate detection on the flat automaton.
  int64_t t1 = clock_->NowNanos();
  const std::vector<RawDetection>& raw =
      detector_.DetectRawInterned(text, &scratch->detect);
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
    uint32_t interest_id = entry_interest_[d.entry_id];
    if (!interestingness_.LookupById(interest_id, &scratch->features)) {
      // Degraded path: detected but missing a feature vector (store and
      // dictionary out of sync); the annotation is silently dropped, so
      // count it — drift here is otherwise invisible.
      CKR_OBS_COUNTER_INC("ckr.runtime.missing_feature_vector");
      continue;
    }
    // Log-scaled to match ExperimentRunner::Features' model layout.
    scratch->features.push_back(std::log1p(
        relevance_.ScoreById(entry_relevance_[d.entry_id], scratch->context)));
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
    if (!interestingness_.Lookup(d.key, &features)) continue;
    // Log-scaled to match ExperimentRunner::Features' model layout.
    features.push_back(std::log1p(relevance_.Score(d.key, context)));
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
