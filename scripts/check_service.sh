#!/usr/bin/env bash
# Schedule-service replay smoke: drive a canned, fixed request stream
# through ims-serve twice in one server run and assert
#
#  1. every `result` line of pass 2 is byte-identical to pass 1 (the
#     result line is a pure function of (loop, machine, options); the
#     cache must never change what is computed, only how fast),
#  2. >= 95% of pass-2 requests are cache hits (here: all of them —
#     the stream repeats pass 1 exactly),
#  3. a second, fresh server process replaying the same stream produces
#     byte-identical `result` lines (cross-process determinism),
#  4. a numeric flag value that does not parse in full, or a budget
#     ratio that is not finite, prints usage and exits 2 instead of
#     aborting, while a denormal budget ratio (a value the options codec
#     round-trips) is accepted; ims-schedule and ims-fuzz read their
#     numeric flags the same way, and reject an unknown flag with exit 2,
#  5. a `schedule` request whose byte count far exceeds the bytes sent
#     gets the truncated-payload error under a 1 GB address-space limit,
#     instead of aborting on an up-front allocation, and a negative
#     byte count on `schedule` or `register` is rejected without
#     swallowing the lines after it (`machines` still answers).
#
# Usage: scripts/check_service.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/tools/ims-serve"
SMOKE_DIR="$BUILD_DIR/service-smoke"

if [ ! -x "$SERVE" ]; then
    echo "check_service: $SERVE not built" >&2
    exit 1
fi
mkdir -p "$SMOKE_DIR"

echo "== numeric flag validation (exit 2 with usage, never an abort) =="
expect_tool_exit() {
    local want="$1"
    shift
    local got=0
    "$@" < /dev/null > /dev/null 2>&1 || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "check_service: $* exited $got, expected $want" >&2
        exit 1
    fi
}
expect_exit() {
    local want="$1"
    shift
    expect_tool_exit "$want" "$SERVE" --threads 1 "$@"
}
expect_exit 0 --budget-ratio 1e-310
expect_exit 2 --budget-ratio 2abc
expect_exit 2 --budget-ratio 1e999
expect_exit 2 --budget-ratio nan
expect_exit 2 --budget-ratio inf
expect_exit 2 --threads abc
expect_exit 2 --cache-capacity 12x
expect_exit 2 --cache-shards ""
expect_exit 2 --max-queue -1
# The other command-line tools read their numeric flags the same way.
SCHEDULE="$BUILD_DIR/tools/ims-schedule"
FUZZ="$BUILD_DIR/tools/ims-fuzz"
expect_tool_exit 0 "$SCHEDULE" --list-kernels --budget-ratio 2
expect_tool_exit 2 "$SCHEDULE" --budget-ratio abc
expect_tool_exit 2 "$SCHEDULE" --budget-ratio inf
expect_tool_exit 2 "$SCHEDULE" --exact-budget 10k
expect_tool_exit 2 "$SCHEDULE" --simulate ""
expect_tool_exit 0 "$FUZZ" --seed 7 --cases 2 --threads 1 --trips 0,3 \
    --repro-dir none --out /dev/null
expect_tool_exit 2 "$FUZZ" --seed -1
expect_tool_exit 2 "$FUZZ" --cases 5x
expect_tool_exit 2 "$FUZZ" --threads abc
expect_tool_exit 2 "$FUZZ" --trips 1,x
expect_tool_exit 2 "$FUZZ" --exact-budget 1e5
# The II search is always linear: its old flags are unknown options.
for tool in "$SCHEDULE" "$FUZZ"; do
    expect_tool_exit 2 "$tool" --ii-search racing
    message=$("$tool" --ii-search racing 2>&1 < /dev/null || true)
    case "$message" in
      *"unknown option '--ii-search'"*) ;;
      *)
        echo "check_service: $tool did not reject --ii-search as unknown" >&2
        exit 1
        ;;
    esac
done

echo "== oversized byte count (truncated-payload error, never an abort) =="
huge=$( (ulimit -v 1000000
         printf 'schedule 100000000000\n' | "$SERVE" --threads 1) ) || {
    echo "check_service: ims-serve died on an oversized byte count" >&2
    exit 1
}
if [ "$huge" != "error service.bad_request truncated payload" ]; then
    echo "check_service: oversized byte count answered '$huge'" >&2
    exit 1
fi

echo "== signed byte count (rejected; the next line still answers) =="
expect_reply() {
    local input="$1" want="$2"
    local got
    got=$(printf "$input" | "$SERVE" --threads 1 | sed -n 1,2p)
    case "$got" in
      "$want"$'\n'"ok "*) ;;
      *)
        echo "check_service: '$input' answered '$got'" >&2
        exit 1
        ;;
    esac
}
expect_reply 'schedule -1\nmachines\nstats\n' \
    "error service.bad_request missing byte count"
expect_reply 'register tiny -3\nmachines\n' \
    "error service.bad_request malformed register"

cat > "$SMOKE_DIR/daxpy.ir" <<'EOF'
loop daxpy
livein a
recurrence ax
ax = aadd ax[3], #24
xv = load ax @ X 0
yv = load ax @ Y 0
t = mul a, xv
s = add t, yv
_ = store ax, s @ Y 0
recurrence n
n = asub n[3], #3
_ = branch n
EOF

cat > "$SMOKE_DIR/dot.ir" <<'EOF'
loop dot
recurrence ax
ax = aadd ax[1], #8
recurrence bx
bx = aadd bx[1], #8
xv = load ax @ X 0
yv = load bx @ Y 0
p = mul xv, yv
recurrence acc
acc = add acc[1], p
recurrence n
n = asub n[1], #1
_ = branch n
EOF

cat > "$SMOKE_DIR/scale.ir" <<'EOF'
loop scale
livein k
recurrence ax
ax = aadd ax[2], #16
xv = load ax @ X 0
y = mul k, xv
_ = store ax, y @ X 0
recurrence n
n = asub n[2], #2
_ = branch n
EOF

# One pass of the canned stream: each loop on two machines, from two
# clients, with the hot loop repeated — 8 requests per pass.
emit_pass() {
    local loop
    for loop in daxpy dot scale daxpy; do
        printf 'schedule %s client=ci machine=cydra5\n' \
            "$(wc -c < "$SMOKE_DIR/$loop.ir")"
        cat "$SMOKE_DIR/$loop.ir"
    done
    for loop in daxpy scale; do
        printf 'schedule %s client=ci2 machine=clean64\n' \
            "$(wc -c < "$SMOKE_DIR/$loop.ir")"
        cat "$SMOKE_DIR/$loop.ir"
    done
}
emit_pass > "$SMOKE_DIR/pass.req"
PASS_REQUESTS=6

cat "$SMOKE_DIR/pass.req" "$SMOKE_DIR/pass.req" > "$SMOKE_DIR/stream.req"

# Single worker for the replay run: requests complete strictly in
# order, so every pass-2 request finds its pass-1 entry resident.
"$SERVE" --threads 1 < "$SMOKE_DIR/stream.req" > "$SMOKE_DIR/run1.out"
grep '^result' "$SMOKE_DIR/run1.out" > "$SMOKE_DIR/run1.results"

TOTAL=$(wc -l < "$SMOKE_DIR/run1.results")
if [ "$TOTAL" -ne $((2 * PASS_REQUESTS)) ]; then
    echo "check_service: expected $((2 * PASS_REQUESTS)) results, got $TOTAL" >&2
    exit 1
fi

echo "== replay identity (pass 2 vs pass 1, byte-for-byte) =="
head -n "$PASS_REQUESTS" "$SMOKE_DIR/run1.results" > "$SMOKE_DIR/pass1.results"
tail -n "$PASS_REQUESTS" "$SMOKE_DIR/run1.results" > "$SMOKE_DIR/pass2.results"
if ! diff -u "$SMOKE_DIR/pass1.results" "$SMOKE_DIR/pass2.results"; then
    echo "check_service: replayed results differ from the cold pass" >&2
    exit 1
fi

echo "== pass-2 hit rate (floor: 95%) =="
PASS2_HITS=$(grep '^meta' "$SMOKE_DIR/run1.out" | tail -n "$PASS_REQUESTS" \
    | grep -c 'hit=1' || true)
# ceil(0.95 * PASS_REQUESTS)
MIN_HITS=$(( (PASS_REQUESTS * 95 + 99) / 100 ))
echo "pass-2 hits: $PASS2_HITS / $PASS_REQUESTS (need >= $MIN_HITS)"
if [ "$PASS2_HITS" -lt "$MIN_HITS" ]; then
    echo "check_service: pass-2 hit rate below 95%" >&2
    exit 1
fi

echo "== cross-process determinism (fresh server, same stream) =="
"$SERVE" --threads 2 < "$SMOKE_DIR/stream.req" | grep '^result' \
    > "$SMOKE_DIR/run2.results"
if ! diff -u "$SMOKE_DIR/run1.results" "$SMOKE_DIR/run2.results"; then
    echo "check_service: results differ across server processes" >&2
    exit 1
fi

echo "service smoke: all checks passed"
