#!/usr/bin/env bash
# Builds the training & evaluation suites under UndefinedBehaviorSanitizer
# and runs them. The flat trainer does manual pointer arithmetic over the
# pre-transformed matrix and the pair-difference rows, and the v2 model
# format round-trips raw little-endian doubles, so a clean run here is the
# UB gate for the contiguous training engine. The Stemmer's memo, the
# tokenizer's byte classifiers (signed char comparisons), the
# Aho-Corasick matcher's id arithmetic, and the block-index loader under
# BlockIndexMutationTest's mutated blobs (shifts and offset arithmetic
# over untrusted counts) run here too, as does Prisma feedback
# (SearchTest), which indexes dense arrays by the index's term ids.
#
# Usage: scripts/ubsan_check.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset ubsan
cmake --build --preset ubsan -j "$(nproc)" --target \
  ranksvm_test training_parallel_test eval_test core_test stem_memo_test \
  text_test detect_test block_index_test search_wiki_test
ctest --test-dir build-ubsan --output-on-failure "$@" \
  -R '(RankSvm|TrainingParallel|Bootstrap|Core|StemMemo|Tokeniz|AsciiClassifier|AhoCorasick|Detector|BlockIndexMutation|SearchTest)'
