#!/usr/bin/env bash
# Builds every target under the tsan preset, with CKR_DCHECK invariants
# live, and runs the whole ctest suite. Tests gated by an environment flag
# stay skipped, as in plain ctest. Prints the build and suite wall times.
#
# Usage: scripts/tsan_check.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."
preset=tsan

start=$SECONDS
cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
built=$SECONDS
ctest --preset "$preset" -j "$(nproc)" "$@"
echo "$preset: build $((built - start)) s, suite $((SECONDS - built)) s"
