// Reproduces the Section VI memory accounting.
//
// Paper figures for 1 million supported concepts:
//  * interestingness vectors: 9 fields x 2 bytes = 18 MB;
//  * relevant-term lists: up to 100 (TID, score) pairs x 32 bits = 400 MB,
//    with TIDs fitting in 22 bits and scores in 10 bits;
//  * further reducible via shared TIDs and Golomb coding [26].
//
// We build the runtime stores over our concept universe, report measured
// bytes, extrapolate to 1M concepts, and measure the Golomb saving.
#include <cstdio>

#include "core/contextual_ranker.h"

int main() {
  ckr::ContextualRankerOptions options;  // Paper-scale world.
  auto ranker_or = ckr::ContextualRanker::Train(options);
  if (!ranker_or.ok()) {
    std::fprintf(stderr, "train: %s\n",
                 ranker_or.status().ToString().c_str());
    return 1;
  }
  const ckr::ContextualRanker& ranker = **ranker_or;
  const auto& concepts = ranker.concept_store();
  const auto& tids = ranker.tid_table();

  const double n = static_cast<double>(concepts.NumConcepts());
  const double to_million = 1e6 / n;

  std::printf("=== Section VI memory accounting ===\n");
  std::printf("concepts in the system: %.0f\n\n", n);

  double interest_bytes = static_cast<double>(concepts.InterestingnessBytes());
  std::printf("interestingness vectors: %.1f KB measured -> %.1f MB per 1M "
              "concepts\n",
              interest_bytes / 1e3, interest_bytes * to_million / 1e6);
  std::printf("  (paper: 18 MB with 9 fields; our vector carries %zu fields "
              "-> %zu bytes/concept after one-hot type encoding)\n\n",
              ckr::InterestingnessVector::Dim(),
              ckr::InterestingnessVector::Dim() * 2);

  double rel_bytes = static_cast<double>(concepts.RelevanceBytes());
  double rel_per_concept = rel_bytes / n;
  std::printf("packed relevant terms: %.1f KB measured (%.0f bytes/concept) "
              "-> %.1f MB per 1M concepts\n",
              rel_bytes / 1e3, rel_per_concept,
              rel_per_concept * 1e6 / 1e6);
  std::printf("  (paper: up to 400 bytes/concept -> ~400 MB per 1M; lists "
              "shorter than 100 terms shrink proportionally)\n\n");

  std::printf("Global TID Table: %zu distinct terms (22-bit budget: %u, "
              "overflowed: %s)\n",
              tids.size(), ckr::GlobalTidTable::kMaxTid + 1,
              tids.overflowed() ? "YES" : "no");
  std::printf("  (paper: 'the total number of unique terms ... decreases as "
              "we increase the number of concepts' -> fits in 22 bits)\n\n");

  double golomb = static_cast<double>(concepts.GolombCompressedBytes());
  std::printf("Golomb-coded TID lists + 10-bit scores: %.1f KB (%.1f%% of "
              "the packed size)\n",
              golomb / 1e3, 100.0 * golomb / rel_bytes);
  std::printf("  (paper: cost 'can be even further reduced through ... "
              "Golomb Coding')\n");
  return 0;
}
