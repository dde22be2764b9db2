#include "detect/aho_corasick.h"

#include <algorithm>
#include <deque>

#include "common/check.h"
#include "common/string_util.h"

namespace ckr {

uint32_t PhraseMatcher::InternTerm(const std::string& term) {
  auto [it, inserted] =
      term_ids_.emplace(term, static_cast<uint32_t>(term_ids_.size()));
  return it->second;
}

uint32_t PhraseMatcher::TermId(std::string_view term) const {
  auto it = term_ids_.find(term);
  return it == term_ids_.end() ? kUnknownTerm : it->second;
}

Status PhraseMatcher::AddPhrase(std::string_view phrase, uint32_t payload) {
  if (built_) {
    return Status::FailedPrecondition("AddPhrase after Build()");
  }
  std::vector<std::string> terms = SplitString(phrase, " \t");
  if (terms.empty()) {
    return Status::InvalidArgument("empty phrase");
  }
  int node = kRoot;
  for (const std::string& term : terms) {
    uint32_t tid = InternTerm(term);
    auto it = nodes_[node].next.find(tid);
    if (it == nodes_[node].next.end()) {
      nodes_.push_back(BuildNode{});
      it = nodes_[node].next.emplace(tid, static_cast<int>(nodes_.size() - 1))
               .first;
    }
    node = it->second;
  }
  // First payload wins for duplicates.
  for (const auto& [payload0, len0] : nodes_[node].outputs) {
    if (len0 == terms.size()) return Status::OK();
  }
  nodes_[node].outputs.emplace_back(payload,
                                    static_cast<uint32_t>(terms.size()));
  ++num_phrases_;
  return Status::OK();
}

void PhraseMatcher::Build() {
  if (built_) return;
  // BFS to set fail links and merge output lists along fail chains.
  std::deque<int> queue;
  for (auto& [tid, child] : nodes_[kRoot].next) {
    nodes_[child].fail = kRoot;
    queue.push_back(child);
  }
  while (!queue.empty()) {
    int node = queue.front();
    queue.pop_front();
    for (auto& [tid, child] : nodes_[node].next) {
      // Follow fail links to find the longest proper suffix state with a
      // `tid` transition.
      int f = nodes_[node].fail;
      while (f != kRoot && nodes_[f].next.count(tid) == 0) {
        f = nodes_[f].fail;
      }
      auto it = nodes_[f].next.find(tid);
      int fail_to = (it != nodes_[f].next.end() && it->second != child)
                        ? it->second
                        : kRoot;
      nodes_[child].fail = fail_to;
      // Inherit the fail target's outputs so every match is reported at
      // its end position.
      for (const auto& out : nodes_[fail_to].outputs) {
        nodes_[child].outputs.push_back(out);
      }
      queue.push_back(child);
    }
  }

  // Freeze into the CSR layout: the root's transitions into a dense row
  // indexed by term id, every other node's into a span sorted by term id,
  // output lists flattened, construction maps discarded.
  root_next_.assign(term_ids_.size(), -1);
  for (const auto& [tid, target] : nodes_[kRoot].next) {
    root_next_[tid] = static_cast<int32_t>(target);
  }
  flat_.resize(nodes_.size());
  size_t total_trans = 0;
  size_t total_outs = 0;
  for (const BuildNode& n : nodes_) {
    total_trans += n.next.size();
    total_outs += n.outputs.size();
  }
  total_trans -= nodes_[kRoot].next.size();
  trans_terms_.reserve(total_trans);
  trans_targets_.reserve(total_trans);
  outputs_.reserve(total_outs);
  std::vector<std::pair<uint32_t, int>> sorted;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const BuildNode& n = nodes_[i];
    FlatNode& f = flat_[i];
    f.fail = static_cast<int32_t>(n.fail);
    f.trans_begin = static_cast<uint32_t>(trans_terms_.size());
    sorted.clear();
    if (i != static_cast<size_t>(kRoot)) {  // The root's are in root_next_.
      sorted.assign(n.next.begin(), n.next.end());
    }
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [tid, target] : sorted) {
      trans_terms_.push_back(tid);
      trans_targets_.push_back(static_cast<int32_t>(target));
    }
    f.trans_end = static_cast<uint32_t>(trans_terms_.size());
    f.out_begin = static_cast<uint32_t>(outputs_.size());
    outputs_.insert(outputs_.end(), n.outputs.begin(), n.outputs.end());
    f.out_end = static_cast<uint32_t>(outputs_.size());
  }
  nodes_.clear();
  nodes_.shrink_to_fit();
#if CKR_DEBUG_CHECKS
  // Frozen-automaton invariants: node spans are monotone half-open ranges
  // inside the flat arrays, and every fail link / transition target is a
  // valid node index.
  for (const FlatNode& f : flat_) {
    CKR_DCHECK_LE(f.trans_begin, f.trans_end);
    CKR_DCHECK_LE(static_cast<size_t>(f.trans_end), trans_terms_.size());
    CKR_DCHECK_LE(f.out_begin, f.out_end);
    CKR_DCHECK_LE(static_cast<size_t>(f.out_end), outputs_.size());
    CKR_DCHECK_GE(f.fail, 0);
    CKR_DCHECK_LT(static_cast<size_t>(f.fail), flat_.size());
  }
  for (int32_t target : trans_targets_) {
    CKR_DCHECK_GT(target, 0);
    CKR_DCHECK_LT(static_cast<size_t>(target), flat_.size());
  }
  CKR_DCHECK_EQ(flat_[kRoot].trans_begin, flat_[kRoot].trans_end);
  for (int32_t target : root_next_) {
    CKR_DCHECK_GE(target, -1);
    CKR_DCHECK_NE(target, 0);
    CKR_DCHECK_LT(target, static_cast<int32_t>(flat_.size()));
  }
#endif
  built_ = true;
}

int32_t PhraseMatcher::FlatStep(int32_t node, uint32_t tid) const {
  CKR_DCHECK_LT(static_cast<size_t>(node), flat_.size());
  if (node == kRoot) {
    return tid < root_next_.size() ? root_next_[tid] : -1;
  }
  const FlatNode& f = flat_[static_cast<size_t>(node)];
  const size_t lo = f.trans_begin;
  const Span<const uint32_t> terms(trans_terms_.data() + lo,
                                   f.trans_end - f.trans_begin);
  const Span<const int32_t> targets(trans_targets_.data() + lo, terms.size());
  // Short spans (the overwhelming majority) probe linearly; wide ones
  // binary-search.
  if (terms.size() <= 8) {
    for (size_t i = 0; i < terms.size(); ++i) {
      if (terms[i] == tid) return targets[i];
    }
    return -1;
  }
  const uint32_t* it = std::lower_bound(terms.begin(), terms.end(), tid);
  if (it == terms.end() || *it != tid) return -1;
  return targets[static_cast<size_t>(it - terms.begin())];
}

void PhraseMatcher::FindAllTids(const uint32_t* tids, size_t n,
                                std::vector<PhraseMatch>* out) const {
  out->clear();
  if (!built_) return;
  int32_t node = kRoot;
  for (size_t i = 0; i < n; ++i) {
    uint32_t tid = tids[i];
    if (tid == kUnknownTerm) {
      node = kRoot;
      continue;
    }
    int32_t next;
    while ((next = FlatStep(node, tid)) < 0 && node != kRoot) {
      node = flat_[static_cast<size_t>(node)].fail;
    }
    node = next < 0 ? kRoot : next;
    const FlatNode& f = flat_[static_cast<size_t>(node)];
    const Span<const std::pair<uint32_t, uint32_t>> outs(
        outputs_.data() + f.out_begin, f.out_end - f.out_begin);
    for (const auto& [payload, len] : outs) {
      CKR_DCHECK_GE(static_cast<uint32_t>(i) + 1, len);
      PhraseMatch m;
      m.token_begin = static_cast<uint32_t>(i) + 1 - len;
      m.token_count = len;
      m.payload = payload;
      out->push_back(m);
    }
  }
}

std::vector<PhraseMatch> PhraseMatcher::FindAll(
    const std::vector<std::string>& tokens) const {
  std::vector<PhraseMatch> matches;
  if (!built_) return matches;
  std::vector<uint32_t> tids;
  tids.reserve(tokens.size());
  for (const std::string& tok : tokens) tids.push_back(TermId(tok));
  FindAllTids(tids.data(), tids.size(), &matches);
  return matches;
}

}  // namespace ckr
