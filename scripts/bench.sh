#!/usr/bin/env bash
# Engine benchmark harness: runs the full experiment engine at 1 thread and
# at N threads (default: nproc), verifies the deterministic artifacts are
# byte-identical across thread counts, and leaves each run's perf table and
# bench JSON in a scratch directory for inspection.
#
#   scripts/bench.sh [--smoke] [N]
#   scripts/bench.sh --out-of-core [SYNTH_INSTRS]
#
# --smoke uses 2 threads for the parallel run and skips nothing else — it
# exists so scripts/check.sh can exercise the harness end to end without
# caring about core counts. The timing artifacts (perf.txt,
# bench_engine.json) change run to run by nature and are excluded from the
# byte-for-byte comparison.
#
# --out-of-core runs the WPTRACE2 streaming bench (DESIGN.md §10): every
# canonical session serialized to the chunked compressed tier, sliced
# streamed, and asserted equal to the in-memory SliceResult; then a synthetic session (default 10⁹ instructions —
# override with SYNTH_INSTRS) is generated straight to disk and sliced
# with bounded RSS. Writes results/BENCH_6.json.
#
# The fused-analysis and static-referee generators of results/BENCH_8.json
# and results/BENCH_10.json are retired; both files are frozen history.
# Their claims are checked live: crates/bench/tests/fused_differential.rs
# counts the decodes a fused pass saves, and scripts/check.sh holds
# run_all's results/static_vs_dynamic.txt to the referee floors.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--out-of-core" ]]; then
    SYNTH="${2:-1000000000}"
    echo "== building release out-of-core bench =="
    cargo build --release --quiet -p wasteprof-bench
    echo "== out-of-core streaming bench (synthetic: $SYNTH instrs) =="
    ./target/release/out_of_core --synthetic-instrs "$SYNTH"
    echo "wrote results/BENCH_6.json"
    exit 0
fi

THREADS="$(nproc 2>/dev/null || echo 4)"
if [[ "${1:-}" == "--smoke" ]]; then
    THREADS=2
    shift
fi
if [[ -n "${1:-}" ]]; then
    # A thread count; anything else (a retired mode such as --fused or
    # --static included) is a usage error.
    if [[ ! "$1" =~ ^[1-9][0-9]*$ ]]; then
        echo "usage: scripts/bench.sh [--smoke] [N] | --out-of-core [SYNTH_INSTRS]" >&2
        exit 2
    fi
    THREADS="$1"
fi

echo "== building release engine =="
cargo build --release --quiet -p wasteprof-bench

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
mkdir -p "$OUT/t1" "$OUT/tn"

echo "== run_all at 1 thread =="
WASTEPROF_RESULTS_DIR="$OUT/t1" RAYON_NUM_THREADS=1 ./target/release/run_all >/dev/null

echo "== run_all at $THREADS threads =="
WASTEPROF_RESULTS_DIR="$OUT/tn" RAYON_NUM_THREADS="$THREADS" ./target/release/run_all >/dev/null

echo "== comparing deterministic artifacts (1 vs $THREADS threads) =="
status=0
for f in "$OUT"/t1/*; do
    name="$(basename "$f")"
    case "$name" in
    perf.txt | bench_engine.json) continue ;;
    esac
    if ! cmp -s "$f" "$OUT/tn/$name"; then
        echo "MISMATCH: $name differs between thread counts" >&2
        status=1
    else
        echo "  ok $name"
    fi
done
if [[ "$status" -ne 0 ]]; then
    echo "determinism check FAILED" >&2
    exit "$status"
fi

echo
echo "== perf (1 thread) =="
cat "$OUT/t1/perf.txt"
echo "== perf ($THREADS threads) =="
cat "$OUT/tn/perf.txt"

# Keep the JSON reports around for the caller.
cp "$OUT/t1/bench_engine.json" target/bench_engine_t1.json
cp "$OUT/tn/bench_engine.json" target/bench_engine_tn.json
echo "bench JSON: target/bench_engine_t1.json target/bench_engine_tn.json"
