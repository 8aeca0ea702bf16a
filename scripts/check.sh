#!/usr/bin/env bash
# Repository gate: formatting, lints, tier-1 build/test, full workspace
# tests. Run from anywhere; everything is anchored to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Undone on exit, pass or fail: the scratch files of the smoke steps, and
# the committed wpbench lock file, which building wpbench rewrites while
# it lags the repository's dependency graph.
wpbench_lock=crates/bench/src/bin/wpbench/Cargo.lock
saved_lock="" smoke_trace="" static_out=""
cleanup() {
    if [ -n "$saved_lock" ]; then
        cp "$saved_lock" "$wpbench_lock"
        rm -f "$saved_lock"
    fi
    if [ -n "$smoke_trace" ]; then
        rm -f "$smoke_trace" "$smoke_trace".*
    fi
    if [ -n "$static_out" ]; then
        rm -rf "$static_out"
    fi
}
trap cleanup EXIT

echo "== forbid(unsafe_code) gate =="
# Every crate must carry the attribute, and no source file may contain
# the keyword at all (word-boundary match, so e.g. docs mentioning
# "unsafety" don't trip it).
missing=$(grep -L 'forbid(unsafe_code)' src/lib.rs crates/*/src/lib.rs || true)
if [ -n "$missing" ]; then
    echo "crates missing #![forbid(unsafe_code)]:" >&2
    echo "$missing" >&2
    exit 1
fi
if grep -rnw unsafe --include='*.rs' src crates; then
    echo "found 'unsafe' in the sources above" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build + root-package tests =="
cargo build --release
cargo test -q

echo "== full workspace tests (includes the ~2 min engine determinism run) =="
cargo test -q --workspace

echo "== static referee floors (results/static_vs_dynamic.txt) =="
# engine_determinism, in the workspace tests above, requires the committed
# artifact to equal fresh engine output, so these floors gate live
# output: all six sessions refereed with no refuted must-be-sound claim,
# every unreachable claim confirmed, and static waste predictions at
# precision > 0.475 with recall >= 0.85 over all sessions.
referee_txt=results/static_vs_dynamic.txt
grep -qx '6 sessions refereed, 0 soundness violations.' "$referee_txt"
awk '
    function field(name,   i) {
        for (i = 1; i < NF; i++) if ($i == name) return $(i + 1)
        return "n/a"
    }
    $0 == "all sessions" { all = 1; next }
    all && $1 == "unreachable" { up = field("precision") }
    all && $1 == "wasted" { wp = field("precision"); wr = field("recall") }
    END {
        if (up + 0 == 1 && wp + 0 > 0.475 && wr + 0 >= 0.85) exit 0
        printf "referee floors missed: unreachable precision %s, wasted precision %s recall %s\n", \
            up, wp, wr > "/dev/stderr"
        exit 1
    }
' "$referee_txt"

echo "== race-shadow differential (release, CI case counts) =="
# The race detector's compact shadow against the previous lint, kept
# verbatim in the test: the same diagnostics in emission order on 256
# random multi-thread programs, on every mutation of a scheduler session
# and of AmazonMobile, and on the six canonical sessions.
cargo test -q --release -p wasteprof-checker --test race_differential

echo "== producer-lint differential (release, CI case counts) =="
# WP0003 and WP0012 on the checker's one write-granular map against the
# previous lints, kept verbatim in the test: the same diagnostics in
# emission order on 256 random multi-thread programs over channel, input
# and framebuffer bytes (region-crossing operands included), on every
# mutation of AmazonMobile, and on the six canonical sessions.
cargo test -q --release -p wasteprof-checker --test producer_differential

echo "== segment codec differential (release, CI case counts) =="
# The typed segment encoder and decoder against the previous ones, kept
# verbatim in the test. The encoders must write the same payload bytes
# and bitmaps, or the same error, on random segments and on sub-ranges
# that start past row 0, ties and the operand cap included. The decoders
# must give the same rows, or both a format error, on random segments
# re-encoded with boundary, non-canonical and over-long varints, at every
# truncation prefix and under random byte mutations; plus interleaved
# forward and reverse reader sweeps.
cargo test -q --release -p wasteprof-trace --test codec_differential

echo "== wpbench test suite (seeded inputs, statistics, compare, smoke runs) =="
# wpbench is a package of its own (crates/bench/src/bin/wpbench), so the
# workspace test run above does not build it. Its lock file is put back
# on exit (see `cleanup`).
saved_lock=$(mktemp /tmp/wasteprof-wpbench-lock-XXXXXX)
cp "$wpbench_lock" "$saved_lock"
cargo test --release --offline --manifest-path crates/bench/src/bin/wpbench/Cargo.toml

echo "== bench harness smoke (1 vs 2 threads, artifact diff) =="
scripts/bench.sh --smoke

echo "== checker smoke (export one session, verify clean) =="
smoke_trace=$(mktemp /tmp/wasteprof-check-XXXXXX.wptrace)
target/release/trace_tool export amazon_mobile "$smoke_trace"
target/release/trace_tool check "$smoke_trace"

echo "== certifier smoke (witnessed slices certify clean, in memory and out of core) =="
# The backward walk records the witness as members join, chunk by chunk
# out of core. Both runs must exit 0 (run directly, so `set -e`
# sees each status) and print the same report.
for crit in pixels syscalls; do
    target/release/trace_tool certify "$smoke_trace" --criteria "$crit" >"$smoke_trace.ref"
    target/release/trace_tool certify "$smoke_trace" --criteria "$crit" --out-of-core \
        >"$smoke_trace.out"
    diff "$smoke_trace.ref" "$smoke_trace.out"
done

echo "== broken-pipe smoke (stdout closed early: quiet, exit status kept) =="
# `head` exits after the first line of a ~6 MB listing, so trace_tool's
# later writes fail with EPIPE. It must stop printing quietly: exit 0
# (pipefail sees its status) and nothing on stderr.
if ! target/release/trace_tool inspect "$smoke_trace" --head 100000 2>"$smoke_trace.err" |
    head -n 1 >/dev/null; then
    echo "trace_tool inspect | head -n 1 failed" >&2
    exit 1
fi
if [ -s "$smoke_trace.err" ]; then
    echo "trace_tool inspect | head -n 1 wrote to stderr:" >&2
    cat "$smoke_trace.err" >&2
    exit 1
fi

echo "== out-of-core smoke (streamed slice and check identical) =="
# The same exported file read both ways: loaded into memory (the `&Trace`
# source) and streamed through the bounded chunk window (`TraceReader`).
diff <(target/release/trace_tool slice "$smoke_trace") \
    <(target/release/trace_tool slice "$smoke_trace" --out-of-core)
diff <(target/release/trace_tool slice "$smoke_trace" --criteria syscalls) \
    <(target/release/trace_tool slice "$smoke_trace" --criteria syscalls --out-of-core)
# Each streamed run must exit 0 (run directly, so `set -e` sees its
# status) and print exactly what the in-memory run prints.
target/release/trace_tool check "$smoke_trace" --out-of-core >"$smoke_trace.out"
diff <(target/release/trace_tool check "$smoke_trace") "$smoke_trace.out"

echo "== refusal smoke (version-1 trace file, unwritable export path, retired flags) =="
# Runs a command and fails the gate unless it exits with status $1.
expect_exit() {
    local want=$1 rc=0
    shift
    "$@" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "expected exit $want, got $rc: $*" >&2
        exit 1
    fi
}
# A file in the retired version-1 trace format (magic "WPTRACE" + "1") is
# a typed read error (exit 1), never a panic (exit 101), in memory and out
# of core.
{ printf 'WPTRACE%s' 1; head -c 64 /dev/zero; } >"$smoke_trace.v1"
expect_exit 1 target/release/trace_tool inspect "$smoke_trace.v1"
expect_exit 1 target/release/trace_tool slice "$smoke_trace.v1"
expect_exit 1 target/release/trace_tool slice "$smoke_trace.v1" --out-of-core
# An output path under a missing directory fails up front with exit 1.
expect_exit 1 target/release/trace_tool export amazon_mobile "$smoke_trace.missing/out.wptrace"
# There is one trace format, so there is nothing to convert.
expect_exit 2 target/release/trace_tool convert "$smoke_trace" "$smoke_trace.v2"
# The retired summary-cache flags are unknown flags now.
expect_exit 2 target/release/trace_tool slice "$smoke_trace" --incremental
expect_exit 2 target/release/trace_tool slice "$smoke_trace" --cache-dir "$smoke_trace.cache"
expect_exit 2 target/release/trace_tool slice "$smoke_trace" --no-cache
# So is the retired segment-count flag: there is one backward walk.
expect_exit 2 target/release/trace_tool slice "$smoke_trace" --segments 8
expect_exit 2 target/release/trace_tool certify "$smoke_trace" --segments 8
# And `static --referee --per-function`: the per-function rows are always
# printed.
expect_exit 2 target/release/trace_tool static amazon_mobile --referee --per-function

echo "== fused analyze smoke (subset selection, in-memory vs streamed identical) =="
# The full fused pass and every subset must agree between the in-memory
# and out-of-core paths; the clean session exits 0.
diff <(target/release/trace_tool analyze "$smoke_trace" --json 2>/dev/null) \
    <(target/release/trace_tool analyze "$smoke_trace" --out-of-core --json 2>/dev/null)
diff <(target/release/trace_tool analyze "$smoke_trace" --analyses lints,frames --json 2>/dev/null) \
    <(target/release/trace_tool analyze "$smoke_trace" --analyses lints,frames --out-of-core --json 2>/dev/null)
# Unknown analysis names are a usage error (exit 2), not a silent no-op.
if target/release/trace_tool analyze "$smoke_trace" --analyses bogus 2>/dev/null; then
    echo "analyze accepted an unknown analysis name" >&2
    exit 1
fi

echo "== frames smoke (per-frame export, in-memory vs streamed slice identical) =="
# `export --frames` writes one trace per browse frame; each frame file
# must slice the same loaded into memory and streamed out of core (the
# streamed run goes to a file first, so `set -e` sees its exit status).
target/release/trace_tool export bing "$smoke_trace" --frames 2
for f in 0 1; do
    target/release/trace_tool slice "$smoke_trace.f$f" --out-of-core >"$smoke_trace.out"
    diff <(target/release/trace_tool slice "$smoke_trace.f$f") "$smoke_trace.out"
done

echo "== static analyzer smoke (all sites, json, exit codes, determinism) =="
# The ahead-of-time analyzer runs on every canonical site; findings exit
# 1 and render as parseable WP01xx diagnostics; reruns are byte-identical.
static_out=$(mktemp -d /tmp/wasteprof-static-XXXXXX)
for site in amazon_desktop amazon_mobile maps bing; do
    rc=0
    target/release/trace_tool static "$site" --json >"$static_out/$site.json" || rc=$?
    if [ "$rc" -gt 1 ]; then
        echo "trace_tool static $site failed (exit $rc)" >&2
        exit 1
    fi
    jq -e 'all(.[]; .code | startswith("WP01"))' "$static_out/$site.json" >/dev/null
    rc2=0
    target/release/trace_tool static "$site" --json >"$static_out/$site.rerun.json" || rc2=$?
    [ "$rc" -eq "$rc2" ]
    cmp -s "$static_out/$site.json" "$static_out/$site.rerun.json" || {
        echo "trace_tool static $site is not deterministic" >&2
        exit 1
    }
done
# Unknown sites are a usage error (exit 2), not a crash or a silent pass.
if target/release/trace_tool static bogus_site 2>/dev/null; then
    echo "trace_tool static accepted an unknown site" >&2
    exit 1
elif [ $? -ne 2 ]; then
    echo "trace_tool static usage error did not exit 2" >&2
    exit 1
fi

echo "== static referee CLI (each site prints its block of the artifact) =="
# `trace_tool static <site> --referee` runs the engine's referee over the
# site's base session and prints that session's block of
# results/static_vs_dynamic.txt, byte for byte, after the findings. The
# block starts at the session label, the line before the first metric row.
for site in amazon_desktop amazon_mobile maps bing; do
    rc=0
    target/release/trace_tool static "$site" --referee >"$static_out/$site.referee" || rc=$?
    if [ "$rc" -gt 1 ]; then
        echo "trace_tool static $site --referee failed (exit $rc)" >&2
        exit 1
    fi
    awk 'NR > 1 && /^  unreachable / { print prev; p = 1 } p; { prev = $0 }' \
        "$static_out/$site.referee" >"$static_out/$site.block"
    label=$(head -n 1 "$static_out/$site.block")
    if [ -z "$label" ]; then
        echo "trace_tool static $site --referee printed no referee block" >&2
        exit 1
    fi
    diff <(awk -v l="$label" '$0 == l { p = 1 } p && /^$/ { exit } p' "$referee_txt") \
        "$static_out/$site.block"
done

echo "== static referee artifact sanity (results/BENCH_10.json) =="
# The committed static-vs-dynamic artifact must show a sound
# interprocedural analyzer: zero dynamically refuted must-be-sound
# claims (WP0102/WP0103/WP0105/WP0106), and waste predictions that beat
# the ISSUE floor — precision > 0.475 at recall >= 0.85 against the
# allocator-stripped pixel slice of all six canonical sessions.
jq -e '.totals.soundness_violations == 0
       and .totals.wasted.precision > 0.475
       and .totals.wasted.recall >= 0.85
       and .totals.unreachable.precision == 1
       and (.per_session | length == 6)' \
    results/BENCH_10.json >/dev/null

echo "== incremental bench artifact sanity (results/BENCH_7.json) =="
# The committed bench artifact must report byte-identical frames and a
# nonzero warm hit rate (the cache actually served the re-slices).
jq -e '.identical and .warm_hit_rate > 0 and .certify_diagnostics == 0' \
    results/BENCH_7.json >/dev/null

echo "== fused bench artifact sanity (results/BENCH_8.json) =="
# The committed fused-analysis artifact must report every fused output
# identical to its solo twin, a fused-vs-separate speedup, and an
# out-of-core fused pass that actually skipped unsubscribed column bytes.
jq -e '.identical and .totals.speedup > 1
       and .streamed.fused_decode.skipped_stream_bytes > 0' \
    results/BENCH_8.json >/dev/null

echo "== certify bench artifact sanity (results/BENCH_13.json) =="
# The committed seed-paired benchmark of the shared certify sweep: no
# failed check on either side of any workload, and the paper workload's
# wall time not regressed.
jq -e '(.workloads | length == 4)
       and all(.workloads[]; .failed.parent == 0 and .failed.change == 0)
       and .workloads.paper.metrics.wall_s.verdict != "regressed"' \
    results/BENCH_13.json >/dev/null

echo "== forward-fold bench artifact sanity (results/BENCH_18.json) =="
# The committed seed-paired benchmark of the hash-free CFG fold: all four
# workloads, no failed check on either side, the incremental workload's
# wall time improved, and no end-to-end metric regressed anywhere.
jq -e '(.workloads | length == 4)
       and all(.workloads[]; .failed.parent == 0 and .failed.change == 0)
       and .workloads.incremental.metrics.wall_s.verdict == "improved"
       and all(.workloads[].metrics[]; .verdict != "regressed")' \
    results/BENCH_18.json >/dev/null

echo "== race-shadow bench artifact sanity (results/BENCH_22.json) =="
# The committed seed-paired benchmark of the compact race-detector
# shadow: all four workloads, no failed check on either side, the
# streamed workload's peak RSS improved, and no end-to-end metric
# regressed anywhere.
jq -e '(.workloads | length == 4)
       and all(.workloads[]; .failed.parent == 0 and .failed.change == 0)
       and .workloads.streamed.metrics.peak_rss_mb.verdict == "improved"
       and all(.workloads[].metrics[]; .verdict != "regressed")' \
    results/BENCH_22.json >/dev/null

echo "== chunk-decode bench artifact sanity (results/BENCH_24.json) =="
# The committed seed-paired benchmark of the allocation-free typed chunk
# decode: all four workloads, no failed check on either side, the
# streamed workload's wall time improved, and no end-to-end metric
# regressed anywhere.
jq -e '(.workloads | length == 4)
       and all(.workloads[]; .failed.parent == 0 and .failed.change == 0)
       and .workloads.streamed.metrics.wall_s.verdict == "improved"
       and all(.workloads[].metrics[]; .verdict != "regressed")' \
    results/BENCH_24.json >/dev/null

echo "== chunk-encode bench artifact sanity (results/BENCH_27.json) =="
# The committed seed-paired benchmark of the typed segment encode, over
# every pair run: all four workloads, no failed check on either side, and
# no end-to-end metric regressed anywhere. The streamed set-up gain it
# was run for is not gated: the host's run-to-run spread left it
# unresolved.
jq -e '(.workloads | length == 4)
       and all(.workloads[]; .failed.parent == 0 and .failed.change == 0)
       and all(.workloads[].metrics[]; .verdict != "regressed")' \
    results/BENCH_27.json >/dev/null

echo "== one-chunk-decode bench artifact sanity (results/BENCH_28.json) =="
# The committed seed-paired benchmark of deleting selective column
# decoding, so that every out-of-core pass decodes whole chunks and
# checks their footer hash: all four workloads, no failed check on either
# side, and no end-to-end metric regressed anywhere. No gain is claimed.
jq -e '(.workloads | length == 4)
       and all(.workloads[]; .failed.parent == 0 and .failed.change == 0)
       and all(.workloads[].metrics[]; .verdict != "regressed")' \
    results/BENCH_28.json >/dev/null

echo "== rustdoc (no warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "All checks passed."
