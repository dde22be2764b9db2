#!/usr/bin/env bash
# Builds the index + offline-mining test suites under AddressSanitizer and
# runs them. The flat index hand-manages CSR offsets and a shared Golomb
# byte pool, and the block-compressed postings layer decodes untrusted
# codec blobs into fixed stack arrays through hand-rolled cursors, so a
# clean run here is the memory-safety gate for the term-id layout, the
# block index, and the equivalence suites that compare them to the legacy
# index byte for byte. BlockIndexMutationTest (matched by BlockIndex)
# feeds the block-index loader byte-flipped, truncated and spliced blobs,
# so the decoders' bounds checks run under the sanitizer. The Stemmer's
# memo (offsets into a shared key buffer, linear probing) and the
# tokenizer run here too, and so does the Aho-Corasick matcher, whose
# dense root row is indexed by term id without a bounds check. Prisma
# feedback (SearchTest) indexes its dense per-call accumulators and the
# service's per-term tables by the index's term ids the same way.
#
# Usage: scripts/asan_check.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$(nproc)" --target \
  index_test index_equiv_test block_index_test offline_parallel_test \
  stem_memo_test text_test detect_test search_wiki_test
ctest --test-dir build-asan --output-on-failure "$@" \
  -R '(Index|Snippet|ParallelMining|Codec|Store|BlockIndex|BlockMax|StemMemo|Tokeniz|AsciiClassifier|AhoCorasick|Detector|SearchTest)'
