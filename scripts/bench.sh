#!/usr/bin/env bash
# Engine benchmark harness: runs the full experiment engine at 1 thread and
# at N threads (default: nproc), verifies the deterministic artifacts are
# byte-identical across thread counts, and leaves each run's perf table and
# bench JSON in a scratch directory for inspection.
#
#   scripts/bench.sh [--smoke] [N]
#   scripts/bench.sh --out-of-core [SYNTH_INSTRS]
#   scripts/bench.sh --fused [REPS]
#   scripts/bench.sh --static
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
# --fused runs the fused-analysis bench (DESIGN.md §12): per benchmark,
# the verifier lint battery, WP0012 dead-write metric, Figure 5 category
# breakdown, and Table II × Fig 5 waste cross timed one-sweep-each vs ONE
# fused AnalysisDriver sweep (best of REPS, default 3), every fused output
# asserted equal to its solo twin; plus an out-of-core section comparing
# separate full-decode WPTRACE2 passes (the pre-framework reader) against
# one fused selectively-decoded pass, with the decoded-vs-skipped stream
# byte ledger. Writes results/BENCH_8.json.
#
# --static runs the static-vs-dynamic referee bench (DESIGN.md §13-14): the
# wasteprof-staticjs ahead-of-time analyzer over every benchmark's script
# sources, scored against the execution witness and pixel slice of all
# six canonical sessions — per-analysis precision/recall plus the
# soundness-violation count (refuted unreachable or dead-store claims
# exit 1). Writes results/BENCH_10.json.
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

if [[ "${1:-}" == "--fused" ]]; then
    REPS="${2:-3}"
    echo "== building release fused-analysis bench =="
    cargo build --release --quiet -p wasteprof-bench
    echo "== fused-analysis bench ($REPS reps) =="
    ./target/release/fused_bench "$REPS"
    echo "wrote results/BENCH_8.json"
    exit 0
fi

if [[ "${1:-}" == "--static" ]]; then
    echo "== building release static referee bench =="
    cargo build --release --quiet -p wasteprof-bench
    echo "== static-vs-dynamic referee bench =="
    ./target/release/static_bench
    echo "wrote results/BENCH_10.json"
    exit 0
fi

THREADS="$(nproc 2>/dev/null || echo 4)"
if [[ "${1:-}" == "--smoke" ]]; then
    THREADS=2
    shift
fi
if [[ -n "${1:-}" ]]; then
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
