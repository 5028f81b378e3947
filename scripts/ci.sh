#!/usr/bin/env bash
# The repository's CI pipeline, runnable locally and from any CI
# runner. Three build configurations, in order of cost:
#
#  1. release  — Release build, the full ctest suite (unit tests,
#                paper-conformance checks, and the script gates:
#                metrics_schema_check, docs_check, simspeed_smoke,
#                adaptive_smoke, fault_smoke, ckpt_smoke,
#                figures_metrics_smoke).
#  2. tsan     — -DHRSIM_SANITIZE=thread, the concurrency-sensitive
#                tests (sweep engine, adaptive run control, production
#                vs reference engine under a --jobs 4 sweep, fault
#                replay under parallel sweeps): the
#                parallel sweep's work-claiming and result reaping
#                must be race-free.
#  3. asan     — -DHRSIM_SANITIZE=address, the same test set plus the
#                container/stats units: the hot-path ring buffers and
#                the adaptive batch storage index with raw masks and
#                grow under churn, exactly where AddressSanitizer
#                pays for itself.
#  4. bench    — Release build of bench_simspeed (linked against the
#                in-tree minibench harness, so no system Debug
#                benchmark library can distort it) plus a short
#                tracking run through scripts/run_simspeed.sh into a
#                scratch artifact. Proves the timing pipeline end to
#                end — harness flags, JSON shape, the Release check —
#                without touching the committed baseline.
#
# Usage: scripts/ci.sh [release|tsan|asan|bench|all]   (default: all)
set -euo pipefail

stage=${1:-all}
jobs=${HRSIM_CI_JOBS:-$(nproc)}
src=$(cd "$(dirname "$0")/.." && pwd)

# Tests worth re-running under the sanitizers: everything that
# exercises threads, the adaptive controller, or raw-index storage.
# ReferenceEngine crosses both engines with a --jobs 4 sweep.
# LayoutSmoke/StablePool cover the columnar bitmap scans and the
# placement-new pool — raw masks and lifetimes, ASan/TSan territory.
# RankHierarchies runs the Table 2 search on the sweep pool.
SANITIZED_FILTER='Sweep|AdaptiveSystem|RunController|ReferenceEngine|RingDeque|StagedFifo|BatchMeans|TQuantile|Mser|Fault|LayoutSmoke|StablePool|Checkpoint|RankHierarchies'

run_release() {
    cmake -B "$src/build-ci" -S "$src" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$src/build-ci" -j "$jobs"
    # Fail fast on the columnar layout invariants before the full
    # suite: a broken bitmap scan fails hundreds of downstream tests
    # with less useful diagnostics.
    ctest --test-dir "$src/build-ci" -R '^layout_smoke$' \
        --output-on-failure
    ctest --test-dir "$src/build-ci" -j 2 --output-on-failure
}

run_sanitizer() {
    local kind=$1
    local dir="$src/build-$kind"
    local sanitize
    case "$kind" in
      tsan) sanitize=thread ;;
      asan) sanitize=address ;;
      *) echo "unknown sanitizer stage: $kind" >&2; exit 2 ;;
    esac
    cmake -B "$dir" -S "$src" -DHRSIM_SANITIZE="$sanitize"
    cmake --build "$dir" -j "$jobs" --target hrsim_tests
    "$dir/tests/hrsim_tests" \
        --gtest_filter="*${SANITIZED_FILTER//|/*:*}*"
}

run_bench() {
    cmake -B "$src/build-ci" -S "$src" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$src/build-ci" -j "$jobs" \
        --target bench_simspeed hrsim_cli metrics_check
    # Scratch artifact inside the build tree: untracked, so the
    # committed-baseline dirty-tree guard in run_simspeed.sh never
    # triggers on CI runs.
    BUILD_DIR="$src/build-ci" \
        HRSIM_BENCH_MIN_TIME=${HRSIM_BENCH_MIN_TIME:-0.05} \
        "$src/scripts/run_simspeed.sh" \
        "$src/build-ci/BENCH_simspeed_ci.json" \
        "$src/build-ci/BENCH_simspeed_ci_metrics.json"
}

case "$stage" in
  release) run_release ;;
  tsan) run_sanitizer tsan ;;
  asan) run_sanitizer asan ;;
  bench) run_bench ;;
  all)
    run_release
    run_sanitizer tsan
    run_sanitizer asan
    run_bench
    ;;
  *)
    echo "usage: $0 [release|tsan|asan|bench|all]" >&2
    exit 2
    ;;
esac

echo "ci: stage '$stage' passed"
