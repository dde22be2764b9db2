#!/usr/bin/env bash
# The one gate: tier-1 tests, a Release build of the whole tree, the
# paper's numbers against the committed BENCH_paper.json, the perfbench
# package's own tests, the three sanitizer
# suites over every test (with
# CKR_DCHECK invariants live — the presets set CKR_ENABLE_DCHECKS, which
# also arms the runtime lock-order registry), the ckr_lint contract
# linter over the tree, and the clang thread-safety-analysis build plus
# clang-tidy when clang is available.
# Exits non-zero if anything fails; CI runs exactly this script.
#
# Usage: scripts/check_all.sh
set -euo pipefail
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== tier-1: configure + build + ctest (default preset) =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"
ctest --preset default -j "$(nproc)"

echo "== Release build: every target at -O3 (built, not tested) =="
# Tier-1 and perfbench build RelWithDebInfo (-O2). Some warnings fire only
# once -O3 inlines more (GCC 12's -Wrestrict on inlined std::string
# concatenation did), and -Werror makes them fatal, so the gate builds
# the Release configuration too.
cmake --preset release
cmake --build --preset release -j "$(nproc)"

echo "== paper numbers: bench_paper vs the committed BENCH_paper.json =="
# Regenerates every Section V table, the ablations and §VIII in a scratch
# directory. A change that moves a paper number commits the new file, so
# the move shows up in review.
bench_paper="$PWD/build/bench/bench_paper"
(cd "$tmp" && "$bench_paper" > /dev/null)
diff BENCH_paper.json "$tmp/BENCH_paper.json"

echo "== perfbench: the end-to-end benchmark's own arithmetic tests =="
# perfbench/ is a CMake package of its own (perfbench/README.md) that
# BENCHMARK.json drives; its gtests pin the percentile, op-counting, ratio
# and span self-time math every reported metric rests on. Same build
# directory and type as perfbench/run.py.
cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build .bench_build -j "$(nproc)" --target perfbench_tests
./.bench_build/perfbench_tests

echo "== corpus-scale smoke: 50k-doc streamed build + click log =="
# Streams a ~50k-doc scaled world through the out-of-core index build,
# checks the pruned evaluators stay bit-identical to the exhaustive
# scorer on it, and sanity-checks the ORCAS-shaped click log. Plain ctest
# skips this test; the env flag arms it here.
CKR_SCALE_SMOKE=1 ./build/tests/scale_smoke_test

echo "== serving smoke: sharded oracle bit-identity, hot swap, shedding =="
# Ungated (also part of plain ctest); re-run standalone here so a serving
# regression is named in the gate output instead of buried in the suite.
./build/tests/serve_smoke_test

echo "== ckr_lint: contract rules over src/ bench/ tests/ tools/ =="
# Also writes the machine-readable report CI archives as an artifact.
./build/tools/ckr_lint --json build/ckr_lint.json

echo "== obs kill switch: CKR_OBS_DISABLED build + rank-fingerprint diff =="
# Build with every CKR_OBS_* hook compiled out, run the kill-switch suite,
# then prove observability never changes ranking: obs_disabled_test writes
# an FNV-1a fingerprint of its ranked output — which also folds in the
# block-index top-50 results of every query evaluator (exhaustive,
# MaxScore, Block-Max-WAND), so the diff covers the block-max metadata
# build and the pruned cursors over the CSR postings too — and the
# fingerprint from the
# instrumented build must be byte-identical to the obs-off one.
cmake --preset obs-off
cmake --build --preset obs-off -j "$(nproc)"
ctest --preset obs-off -j "$(nproc)"
CKR_RANK_FINGERPRINT_FILE="$tmp/default.fp" \
  ./build/tests/obs_disabled_test \
  --gtest_filter='ObsDisabledTest.RankerOutputFingerprint' > /dev/null
CKR_RANK_FINGERPRINT_FILE="$tmp/obs_off.fp" \
  ./build-obs-off/tests/obs_disabled_test \
  --gtest_filter='ObsDisabledTest.RankerOutputFingerprint' > /dev/null
diff "$tmp/default.fp" "$tmp/obs_off.fp"
echo "rank fingerprint identical across obs-on/obs-off: $(cat "$tmp/default.fp")"

echo "== asan =="
scripts/asan_check.sh
echo "== tsan =="
scripts/tsan_check.sh
echo "== ubsan =="
scripts/ubsan_check.sh

echo "== clang -Wthread-safety (skipped gracefully when unavailable) =="
scripts/clang_tsa_check.sh

echo "== clang-tidy (skipped gracefully when unavailable) =="
scripts/tidy_check.sh

echo "check_all: OK"
