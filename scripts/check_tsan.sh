#!/usr/bin/env bash
# Build the concurrent components under ThreadSanitizer — the batch
# driver, the fuzz campaign's parallel cases, and the schedule service's
# worker pool and sharded cache — and run their tests. program_test runs
# too: the program compiler is single-threaded, but it drives every
# library layer the service's workers run. Any data race fails the
# script.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DIMS_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j \
    --target batch_pipeliner_test telemetry_test pipeliner_test \
             service_test program_test fuzz_test

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

echo "== batch_pipeliner_test (tsan) =="
"$BUILD_DIR/tests/batch_pipeliner_test"
echo "== telemetry_test (tsan) =="
"$BUILD_DIR/tests/telemetry_test"
echo "== pipeliner_test (tsan) =="
"$BUILD_DIR/tests/pipeliner_test"
echo "== service_test (tsan) =="
"$BUILD_DIR/tests/service_test"
echo "== program_test (tsan) =="
"$BUILD_DIR/tests/program_test"
echo "== fuzz_test campaign across thread counts (tsan) =="
"$BUILD_DIR/tests/fuzz_test" \
    --gtest_filter=Campaign.ReportIsDeterministicAcrossRunsAndThreadCounts

echo "tsan: all checks passed"
