//! Differential property test for the fused analysis driver: running any
//! subset of analyses in ONE fused sweep produces exactly the output each
//! analysis produces when run alone — in memory and streamed from a
//! multi-segment `WPTRACE2` image.
//!
//! The pool deliberately spans the column-mask space: the full lint
//! battery (all columns but regsets), the dead-write battery (operands +
//! funcs), the Figure 5 category breakdown and the Table II × Fig 5 waste
//! cross (tids + funcs), main-thread utilization (tids), and the frame
//! profile (kinds + tids) — so random subsets exercise random decode-mask
//! unions.
//!
//! Race diagnostics are compared by `(code, pos)` plus non-race message
//! equality, matching `streamed_differential`: the earlier side of a
//! cross-chunk race legitimately renders as a bare position once its
//! chunk is evicted.
//!
//! Fusing pays out of core through decode counts, which are checked here
//! too: one fused selective pass decodes fewer chunks and fewer stream
//! bytes than one full-decode pass per consumer.

use std::io::Cursor;

use proptest::prelude::*;
use wasteprof_analysis::{
    CategoryAnalysis, CategoryBreakdown, FrameAnalysis, FrameProfile, UtilizationAnalysis,
    UtilizationSeries, WasteAnalysis, WasteBreakdown,
};
use wasteprof_browser::Sched;
use wasteprof_checker::{Code, DeadWriteLint, Diag, Registry};
use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions, SliceResult};
use wasteprof_trace::{
    site, AnalysisCtx, AnalysisDriver, ColumnMask, DecodeStats, Recorder, Region, ThreadKind,
    Trace, Trace2Writer, TraceAnalysis, TraceReader,
};

/// The analysis pool; one bit per member in the random subset.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Member {
    Lints,
    DeadWrites,
    Category,
    Waste,
    Utilization,
    Frames,
}

const POOL: [Member; 6] = [
    Member::Lints,
    Member::DeadWrites,
    Member::Category,
    Member::Waste,
    Member::Utilization,
    Member::Frames,
];

/// One member's captured output.
#[derive(Debug)]
enum Out {
    Diags(Vec<Diag>),
    Category(CategoryBreakdown),
    Waste(WasteBreakdown),
    Utilization(UtilizationSeries),
    Frames(FrameProfile),
}

/// Equality with the cross-chunk race-message caveat.
fn outs_equal(a: &Out, b: &Out) -> bool {
    match (a, b) {
        (Out::Diags(x), Out::Diags(y)) => {
            let key = |d: &Diag| (d.code, d.pos);
            x.iter().map(key).eq(y.iter().map(key))
                && x.iter()
                    .zip(y)
                    .all(|(dx, dy)| dx.code == Code::Race || dx.message == dy.message)
        }
        (Out::Category(x), Out::Category(y)) => x == y,
        (Out::Waste(x), Out::Waste(y)) => x == y,
        (Out::Utilization(x), Out::Utilization(y)) => {
            x.bucket_width == y.bucket_width && x.buckets == y.buckets
        }
        (Out::Frames(x), Out::Frames(y)) => x == y,
        _ => false,
    }
}

/// Serializes `trace` as a `WPTRACE2` image with `seg_len`-instruction
/// segments, so streamed runs cross multiple chunk boundaries.
fn trace2_image(trace: &Trace, seg_len: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Trace2Writer::with_segment_len(&mut buf, seg_len).unwrap();
    let cols = trace.columns();
    for idx in 0..cols.len() {
        w.push(
            cols.tid(idx),
            cols.func(idx),
            cols.pc(idx),
            cols.kind(idx),
            cols.reg_reads(idx),
            cols.reg_writes(idx),
            cols.mem_reads(idx),
            cols.mem_writes(idx),
        )
        .unwrap();
    }
    w.finish(trace.functions(), trace.threads(), trace.markers())
        .unwrap();
    buf
}

/// Declares every column and reads none. Registered next to an
/// analysis, it pins the reader's decode mask wide open, as the reader
/// was before selective decoding: every column stream of every chunk.
struct FullDecode;

impl TraceAnalysis for FullDecode {
    fn name(&self) -> &'static str {
        "full-decode"
    }

    fn columns(&self) -> ColumnMask {
        ColumnMask::ALL
    }

    fn on_instr(&mut self, _ctx: &AnalysisCtx<'_>, _idx: usize) {}
}

/// Runs `members` in one fused driver sweep — over `trace` in memory, or
/// streamed from a fresh reader over `image`, with [`FullDecode`] riding
/// along when `full_decode` — and returns their outputs in pool order
/// plus the reader's decode ledger (zero in memory).
fn run_members(
    trace: &Trace,
    pixel: &SliceResult,
    members: &[Member],
    image: Option<&[u8]>,
    full_decode: bool,
) -> (Vec<Out>, DecodeStats) {
    let main_tid = trace.threads().find(ThreadKind::Main).expect("main thread");
    let mut lint_reg = members
        .contains(&Member::Lints)
        .then(Registry::with_default_lints);
    let mut dead_reg = members.contains(&Member::DeadWrites).then(|| {
        let mut r = Registry::new();
        r.register(Box::new(DeadWriteLint::default()));
        r
    });
    let mut lint_battery = lint_reg.as_mut().map(|r| r.as_analysis("lints"));
    let mut dead_battery = dead_reg.as_mut().map(|r| r.as_analysis("dead-writes"));
    let mut category = members
        .contains(&Member::Category)
        .then(|| CategoryAnalysis::new(pixel));
    let mut waste = members
        .contains(&Member::Waste)
        .then(|| WasteAnalysis::new(pixel));
    let mut utilization = members
        .contains(&Member::Utilization)
        .then(|| UtilizationAnalysis::new(Vec::new(), main_tid, 8));
    let mut frames = members.contains(&Member::Frames).then(FrameAnalysis::new);
    let mut sentinel = full_decode.then_some(FullDecode);

    // Straight-line registration (one `&mut` borrow per member) — a loop
    // would re-borrow the same Option across iterations.
    let mut driver = AnalysisDriver::new();
    if let Some(b) = lint_battery.as_mut() {
        driver.register(b);
    }
    if let Some(b) = dead_battery.as_mut() {
        driver.register(b);
    }
    if let Some(a) = category.as_mut() {
        driver.register(a);
    }
    if let Some(a) = waste.as_mut() {
        driver.register(a);
    }
    if let Some(a) = utilization.as_mut() {
        driver.register(a);
    }
    if let Some(a) = frames.as_mut() {
        driver.register(a);
    }
    if let Some(a) = sentinel.as_mut() {
        driver.register(a);
    }
    let stats = match image {
        None => {
            driver.run(trace);
            DecodeStats::default()
        }
        Some(image) => {
            let mut reader = TraceReader::open(Cursor::new(image)).unwrap();
            driver.run_streamed(&mut reader).unwrap();
            reader.decode_stats()
        }
    };
    drop(driver);

    let outs = members
        .iter()
        .map(|m| match m {
            Member::Lints => Out::Diags(lint_battery.as_mut().unwrap().take_diags()),
            Member::DeadWrites => Out::Diags(dead_battery.as_mut().unwrap().take_diags()),
            Member::Category => Out::Category(category.take().unwrap().into_breakdown()),
            Member::Waste => Out::Waste(waste.take().unwrap().into_breakdown()),
            Member::Utilization => Out::Utilization(utilization.take().unwrap().into_series()),
            Member::Frames => Out::Frames(frames.take().unwrap().into_profile()),
        })
        .collect();
    (outs, stats)
}

/// A randomized cross-thread session: every hop crosses threads through
/// the scheduler's lock hand-off, with producer-region traffic and a
/// marker so every pool member has something to chew on.
fn random_session(hops: &[(u8, u32)], dead_channel_writes: usize) -> Trace {
    let mut rec = Recorder::new();
    let main = rec.spawn_thread(ThreadKind::Main, "main_root");
    let workers = [
        rec.spawn_thread(ThreadKind::Compositor, "comp_root"),
        rec.spawn_thread(ThreadKind::Raster(0), "raster_root"),
        rec.spawn_thread(ThreadKind::Io, "io_root"),
    ];
    rec.switch_to(main);
    let mut sched = Sched::new(&mut rec, 4);
    let shared = rec.alloc_cell(Region::Heap);
    let input = rec.alloc(Region::Input, 64);
    let tile = rec.alloc(Region::PixelTile, 64);
    let ch = rec.alloc(Region::Channel, 32);
    let work = rec.intern_func("worker::Work");

    rec.compute(site!(), &[], &[input]);
    rec.compute(site!(), &[input], &[shared.into()]);
    for _ in 0..dead_channel_writes {
        rec.compute(site!(), &[], &[ch]); // overwritten unread: WP0012 food
    }
    rec.compute(site!(), &[ch], &[]);
    for &(w, weight) in hops {
        sched.post_task(&mut rec, workers[w as usize % 3]);
        rec.in_func(site!(), work, |rec| {
            rec.compute_weighted(site!(), &[shared.into()], &[shared.into()], weight);
        });
        sched.post_task(&mut rec, main);
    }
    rec.compute(site!(), &[shared.into()], &[tile]);
    rec.marker(site!(), tile);
    sched.ipc_send(&mut rec, &[tile], 2);
    rec.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_subsets_match_solo_runs_in_memory_and_streamed(
        hops in proptest::collection::vec((0..3u8, 1..4u32), 3..12),
        dead_writes in 0..4usize,
        subset_bits in 1..64u32,
        seg_sel in 0..3usize,
    ) {
        let trace = random_session(&hops, dead_writes);
        let fwd = ForwardPass::build(&trace);
        let pixel = slice(&trace, &fwd, &pixel_criteria(&trace), &SliceOptions::default());
        let members: Vec<Member> = POOL
            .iter()
            .enumerate()
            .filter(|&(i, _)| subset_bits & (1 << i) != 0)
            .map(|(_, &m)| m)
            .collect();
        let seg_len = [64, 128, 256][seg_sel];

        // Each member alone, in memory: the reference outputs.
        let solo: Vec<Out> = members
            .iter()
            .map(|&m| run_members(&trace, &pixel, &[m], None, false).0.pop().unwrap())
            .collect();
        // All members in one fused sweep, in memory and streamed.
        let fused = run_members(&trace, &pixel, &members, None, false).0;
        let image = trace2_image(&trace, seg_len);
        let streamed = run_members(&trace, &pixel, &members, Some(&image), false).0;

        for ((m, s), (f, st)) in members.iter().zip(&solo).zip(fused.iter().zip(&streamed)) {
            prop_assert!(
                outs_equal(s, f),
                "{m:?}: fused in-memory diverged from solo\nsolo: {s:#?}\nfused: {f:#?}"
            );
            prop_assert!(
                outs_equal(s, st),
                "{m:?}: fused streamed (seg_len {seg_len}) diverged from solo\n\
                 solo: {s:#?}\nstreamed: {st:#?}"
            );
        }
    }
}

/// The fixture of the decode-ledger tests: a session spanning many
/// 64-instruction segments, its pixel slice and its `WPTRACE2` image.
fn multi_segment_fixture() -> (Trace, SliceResult, Vec<u8>) {
    let hops: Vec<(u8, u32)> = (0..12).map(|i| (i as u8 % 3, 3)).collect();
    let trace = random_session(&hops, 2);
    let fwd = ForwardPass::build(&trace);
    let pixel = slice(
        &trace,
        &fwd,
        &pixel_criteria(&trace),
        &SliceOptions::default(),
    );
    let image = trace2_image(&trace, 64);
    (trace, pixel, image)
}

/// Selective decoding is observable: a sparse column mask over a
/// multi-segment image decodes strictly fewer stream bytes than it skips,
/// while a full-battery run still skips the regset streams nobody reads.
#[test]
fn streamed_sparse_subset_skips_column_bytes() {
    let (trace, pixel, image) = multi_segment_fixture();
    let stats_for = |members: &[Member]| {
        let (_, stats) = run_members(&trace, &pixel, members, Some(&image), false);
        assert!(
            stats.chunks_decoded > 1,
            "fixture must span several segments"
        );
        stats
    };

    let sparse = stats_for(&[Member::Category]);
    assert!(
        sparse.skipped_stream_bytes > sparse.decoded_stream_bytes,
        "category-only run must skip most column streams: {sparse:?}"
    );
    let battery = stats_for(&[Member::Lints]);
    assert!(
        battery.skipped_stream_bytes > 0,
        "even the full battery leaves regset streams undecoded: {battery:?}"
    );
    assert!(
        battery.decoded_stream_bytes > sparse.decoded_stream_bytes,
        "wider union must decode more: {battery:?} vs {sparse:?}"
    );
}

/// Why the engine fuses its `analyze` stage, as counters: its four
/// consumers (the verify battery, dead writes, Figure 5 categories and
/// the waste cross) in one selective pass make fewer chunk decodes, and
/// decode fewer stream bytes, than four separate passes that each decode
/// every column. Each consumer's output is the same both ways.
#[test]
fn fused_selective_pass_decodes_less_than_separate_full_passes() {
    let (trace, pixel, image) = multi_segment_fixture();
    let consumers = [
        Member::Lints,
        Member::DeadWrites,
        Member::Category,
        Member::Waste,
    ];
    let (fused, fused_stats) = run_members(&trace, &pixel, &consumers, Some(&image), false);
    let mut separate = DecodeStats::default();
    for (&m, fused_out) in consumers.iter().zip(&fused) {
        let (mut outs, stats) = run_members(&trace, &pixel, &[m], Some(&image), true);
        separate.chunks_decoded += stats.chunks_decoded;
        separate.decoded_stream_bytes += stats.decoded_stream_bytes;
        let alone = outs.pop().unwrap();
        let same = match (&alone, fused_out) {
            (Out::Diags(x), Out::Diags(y)) => x == y,
            _ => outs_equal(&alone, fused_out),
        };
        assert!(
            same,
            "{m:?}: fused output differs from its separate pass\n\
             separate: {alone:#?}\nfused: {fused_out:#?}"
        );
    }
    assert!(
        fused_stats.chunks_decoded < separate.chunks_decoded,
        "one fused pass must decode fewer chunks: {fused_stats:?} vs {separate:?}"
    );
    assert!(
        fused_stats.decoded_stream_bytes < separate.decoded_stream_bytes,
        "one selective pass must decode fewer stream bytes: {fused_stats:?} vs {separate:?}"
    );
}
