//! Deterministic incremental-slicing tests: [`SummaryCache`] must be
//! byte-identical to the from-scratch slicer on every input, and must
//! actually *reuse* cached segment summaries when only a window of the
//! trace changed or when rows were appended.
//!
//! Fixtures are built from segment-aligned "blocks": each block is padded
//! with one-row ALU ops to exactly [`SEGMENT_LEN`] rows, so mutating one
//! block's operand cells dirties exactly one segment while every other
//! segment keeps its content hash. All blocks share the same program
//! counters (and the same call structure per block position), so block
//! variants execute identical static code and the control-dependence
//! relation — validated separately by the cache — never changes.

use std::io::Cursor;

use wasteprof_slicer::{
    pixel_criteria, slice, Criteria, ForwardPass, SegmentHashes, SliceOptions, SliceResult,
    SlicingCriterion, SummaryCache,
};
use wasteprof_trace::{
    site, write_trace2, Addr, Recorder, Reg, RegSet, Region, ThreadKind, Trace, TracePos,
    TraceReader, SEGMENT_LEN,
};

/// Records one segment-aligned block per entry of `blocks`, plus a short
/// tail (pixel sink) past the final boundary. Each block `[a, b]` runs a
/// loop mixing cell `a` and a carry cell into cell `b`; the carry cell
/// threads a dependence chain through every block so slices are
/// nontrivial at every prefix. Returns the trace and the carry cell.
fn record_blocks(blocks: &[[usize; 2]]) -> (Trace, Addr) {
    const NCELLS: usize = 8;
    let mut rec = Recorder::new();
    rec.spawn_thread(ThreadKind::Main, "content::RendererMain");
    let cells: Vec<Addr> = (0..NCELLS).map(|_| rec.alloc_cell(Region::Heap)).collect();
    let carry = rec.alloc_cell(Region::Heap);
    let funcs = [rec.intern_func("work"), rec.intern_func("aux")];
    // One shared PC per role: every block variant executes the same
    // static code, only the cells differ.
    let pc_seed = site!();
    let pc_mix = site!();
    let pc_fold = site!();
    let pc_call = site!();
    let pc_loop = site!();
    let pc_pad = site!();
    let pc_sink = site!();

    rec.compute(pc_seed, &[], &[carry.into()]);
    for (bi, b) in blocks.iter().enumerate() {
        let target = (bi + 1) * SEGMENT_LEN;
        let a = cells[b[0] % NCELLS];
        let c = cells[b[1] % NCELLS];
        let func = funcs[bi % funcs.len()];
        // A leading pad run so positions just past a segment boundary
        // are balanced top-level rows — frame cuts there neither open a
        // call nor share a segment with the frame's slicing criterion.
        for _ in 0..128 {
            rec.alu(pc_pad, Reg::Rax, RegSet::EMPTY);
        }
        rec.compute(pc_seed, &[], &[a.into()]);
        // Leave headroom for the largest multi-row command, then pad to
        // the exact segment boundary with single-row ALU ops.
        while (rec.pos().0 as usize) < target - 64 {
            rec.compute(pc_mix, &[a.into(), carry.into()], &[c.into()]);
            rec.in_func(pc_call, func, |rec| {
                rec.branch_mem(pc_loop, c, true);
                rec.compute(pc_fold, &[c.into()], &[carry.into()]);
                rec.branch_mem(pc_loop, c, false);
            });
        }
        while (rec.pos().0 as usize) < target {
            rec.alu(pc_pad, Reg::Rax, RegSet::EMPTY);
        }
        assert_eq!(rec.pos().0 as usize, target, "block {bi} misaligned");
    }
    // Tail past the last boundary: the carry feeds the pixel sink.
    let tile = rec.alloc(Region::PixelTile, 64);
    rec.compute(pc_sink, &[carry.into()], &[tile]);
    rec.marker(site!(), tile);
    (rec.finish(), carry)
}

/// Pixel criteria plus a mem criterion on the carry cell at the last
/// row, so prefix frames (whose marker is cut off) still slice
/// nontrivially.
fn criteria_for(trace: &Trace, carry: Addr) -> Criteria {
    let mut items = pixel_criteria(trace).items().to_vec();
    items.push(SlicingCriterion::mem_at(
        TracePos(trace.len() as u64 - 1),
        vec![carry.into()],
    ));
    Criteria::new(items)
}

/// The from-scratch reference: fresh forward pass, plain [`slice`].
fn reference(trace: &Trace, criteria: &Criteria, opts: &SliceOptions) -> SliceResult {
    slice(trace, &ForwardPass::build(trace), criteria, opts)
}

#[test]
fn middle_window_mutation_reuses_clean_segments() {
    let base = [[0, 1], [2, 3], [4, 5], [6, 7]];
    let mut variant = base;
    variant[1] = [5, 2]; // dirty exactly segment 1
    let (t1, carry) = record_blocks(&base);
    let (t2, _) = record_blocks(&variant);
    assert_eq!(t1.len(), t2.len(), "variants must stay aligned");

    let opts = SliceOptions {
        witness: true,
        ..Default::default()
    };
    let mut cache = SummaryCache::new();
    let c1 = criteria_for(&t1, carry);
    assert_eq!(cache.slice(&t1, &c1, &opts), reference(&t1, &c1, &opts));

    cache.reset_stats();
    let c2 = criteria_for(&t2, carry);
    assert_eq!(cache.slice(&t2, &c2, &opts), reference(&t2, &c2, &opts));
    let s = cache.stats();
    assert!(s.hits >= 3, "clean segments should hit the cache: {s:?}");
    assert!(
        s.stitch_reused >= 1,
        "the unchanged suffix should reuse memoized stitch states: {s:?}"
    );
}

#[test]
fn appended_frames_reuse_prefix_summaries() {
    let (full, carry) = record_blocks(&[[0, 1], [2, 3], [4, 5], [6, 7]]);
    let opts = SliceOptions::default();
    let mut cache = SummaryCache::new();
    // Frame ends fall on segment boundaries, which the block builder
    // places inside top-level pad runs: the call stack is balanced there,
    // like a real frame end between interactions. (A cut inside an open
    // call would truncate that function's dynamic CFG, and the cache's
    // control-dependence validation would — correctly — refuse to reuse
    // summaries whose controllers it can no longer prove unchanged.)
    let cuts = [2 * SEGMENT_LEN + 64, 3 * SEGMENT_LEN + 64, full.len()];
    for (i, &cut) in cuts.iter().enumerate() {
        let frame = full.prefix(cut);
        let criteria = criteria_for(&frame, carry);
        let got = cache.slice(&frame, &criteria, &opts);
        assert_eq!(got, reference(&frame, &criteria, &opts), "frame {i}");
    }
    let s = cache.stats();
    assert!(
        s.hits >= 4,
        "complete prefix segments should be reused across frames: {s:?}"
    );
}

#[test]
fn summaries_persist_across_save_and_load() {
    let (trace, carry) = record_blocks(&[[0, 1], [2, 3], [4, 5]]);
    let criteria = criteria_for(&trace, carry);
    let opts = SliceOptions::default();
    let dir = std::env::temp_dir().join(format!("wpcache-test-{}", std::process::id()));

    let mut warm = SummaryCache::new();
    let want = warm.slice(&trace, &criteria, &opts);
    assert_eq!(want, reference(&trace, &criteria, &opts));
    warm.save(&dir).expect("persist summary cache");

    let mut reloaded = SummaryCache::load(&dir, 64 << 20);
    assert_eq!(reloaded.slice(&trace, &criteria, &opts), want);
    let s = reloaded.stats();
    let nsegs = trace.len().div_ceil(SEGMENT_LEN);
    assert_eq!(
        s.hits as usize, nsegs,
        "every summary should load back: {s:?}"
    );
    assert_eq!(s.misses, 0, "a reloaded cache should be fully warm: {s:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn precomputed_hashes_extend_across_frames() {
    let (full, carry) = record_blocks(&[[0, 1], [2, 3], [4, 5]]);
    let opts = SliceOptions::default();
    let mut cache = SummaryCache::new();

    let mid = full.prefix(2 * SEGMENT_LEN + 64);
    let h_mid = SegmentHashes::compute(&mid);
    let c_mid = criteria_for(&mid, carry);
    assert_eq!(
        cache.slice_with_hashes(&mid, &h_mid, &c_mid, &opts),
        reference(&mid, &c_mid, &opts)
    );

    let h_full = h_mid.extend_appended(&full);
    assert_eq!(h_full.len(), SegmentHashes::compute(&full).len());
    let c_full = criteria_for(&full, carry);
    assert_eq!(
        cache.slice_with_hashes(&full, &h_full, &c_full, &opts),
        reference(&full, &c_full, &opts)
    );
    let s = cache.stats();
    assert!(s.hits >= 2, "extended hashes should still hit: {s:?}");
}

#[test]
fn streamed_incremental_matches_resident() {
    let (trace, carry) = record_blocks(&[[0, 1], [2, 3]]);
    let criteria = criteria_for(&trace, carry);
    let opts = SliceOptions {
        witness: true,
        ..Default::default()
    };
    let mut cache = SummaryCache::new();
    let want = cache.slice(&trace, &criteria, &opts);
    assert_eq!(want, reference(&trace, &criteria, &opts));

    let mut buf = Vec::new();
    write_trace2(&mut buf, &trace).expect("serialize WPTRACE2");

    // Cold streamed run equals the resident result…
    let mut reader = TraceReader::open(Cursor::new(buf.clone())).expect("open trace");
    let mut cold = SummaryCache::new();
    let got = cold
        .slice_streamed(&mut reader, &criteria, &opts)
        .expect("streamed incremental slice");
    assert_eq!(got, want);

    // …and a warm streamed run hits the summaries the resident run
    // produced: footer hashes and in-memory hashes address the same key.
    cache.reset_stats();
    let mut reader = TraceReader::open(Cursor::new(buf)).expect("open trace");
    let again = cache
        .slice_streamed(&mut reader, &criteria, &opts)
        .expect("streamed incremental slice");
    assert_eq!(again, want);
    let s = cache.stats();
    assert!(
        s.hits >= 2,
        "streamed path should share resident keys: {s:?}"
    );
}

#[test]
fn streamed_truncated_query_uses_the_cache() {
    let (trace, carry) = record_blocks(&[[0, 1], [2, 3], [4, 5]]);
    let end = 2 * SEGMENT_LEN + 100;
    // Criteria of the considered prefix: the carry is live at `end`.
    let criteria = criteria_for(&trace.prefix(end + 1), carry);
    let opts = SliceOptions {
        end: Some(TracePos(end as u64)),
        witness: true,
        ..Default::default()
    };
    let mut resident = SummaryCache::new();
    let want = resident.slice(&trace, &criteria, &opts);
    assert_eq!(want, reference(&trace, &criteria, &opts));
    assert!(want.slice_count() > 0, "the prefix slice is nontrivial");

    let mut buf = Vec::new();
    write_trace2(&mut buf, &trace).expect("serialize WPTRACE2");
    let mut reader = TraceReader::open(Cursor::new(buf)).expect("open trace");
    let mut streamed = SummaryCache::new();
    let got = streamed
        .slice_streamed(&mut reader, &criteria, &opts)
        .expect("streamed incremental slice");
    assert_eq!(got, want);
    assert_eq!(streamed.stats(), resident.stats());

    // A warm re-query of the truncated prefix is served by the cache.
    streamed.reset_stats();
    let again = streamed
        .slice_streamed(&mut reader, &criteria, &opts)
        .expect("streamed incremental slice");
    assert_eq!(again, want);
    let s = streamed.stats();
    assert_eq!(s.misses, 0, "a warm re-query recomputes nothing: {s:?}");
    assert_eq!(s.hits, 3, "every prefix segment hits: {s:?}");
}

#[test]
fn tiny_budget_evicts_but_stays_exact() {
    let (trace, carry) = record_blocks(&[[0, 1], [2, 3]]);
    let criteria = criteria_for(&trace, carry);
    let opts = SliceOptions::default();
    let mut cache = SummaryCache::with_budget(1);
    let want = reference(&trace, &criteria, &opts);
    assert_eq!(cache.slice(&trace, &criteria, &opts), want);
    assert_eq!(cache.slice(&trace, &criteria, &opts), want);
    assert!(
        cache.stats().evictions > 0,
        "a one-byte budget must evict: {:?}",
        cache.stats()
    );
}
