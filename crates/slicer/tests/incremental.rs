//! Deterministic incremental-slicing tests: every [`SummaryCache`] result
//! must equal the from-scratch slicer on its own trace, and the re-query
//! memo must never serve a stale result — a query hits only when nothing
//! its key covers changed since the previous query.
//!
//! Fixtures are built from segment-aligned "blocks": each block is padded
//! with one-row ALU ops to exactly [`SEGMENT_LEN`] rows, and a short tail
//! past the last boundary forms the partial last segment. One pad row,
//! chosen by position, can be flipped to write another register, so two
//! fixtures differ in exactly one row of a chosen segment.

use wasteprof_slicer::{
    pixel_criteria, slice, CacheStats, Criteria, ForwardPass, SegmentHashes, SliceOptions,
    SliceResult, SlicingCriterion, SummaryCache,
};
use wasteprof_trace::{
    site, Addr, Recorder, Reg, RegSet, Region, ThreadKind, Trace, TracePos, SEGMENT_LEN,
};

/// Rows of pad in the tail, before the pixel sink.
const TAIL_PAD: usize = 8;

/// Records one segment-aligned block per entry of `blocks`, plus a short
/// tail (pad rows, then a pixel sink) past the final boundary. Each block
/// `[a, b]` runs a loop mixing cell `a` and a carry cell into cell `b`;
/// the carry cell threads a dependence chain through every block so
/// slices are nontrivial at every prefix. The pad row at position `flip`,
/// if any, writes `Rcx` instead of `Rax`. Returns the trace and the carry
/// cell.
fn record_blocks(blocks: &[[usize; 2]], flip: Option<usize>) -> (Trace, Addr) {
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
    let pad = |rec: &mut Recorder| {
        let flipped = flip == Some(rec.pos().0 as usize);
        rec.alu(
            pc_pad,
            if flipped { Reg::Rcx } else { Reg::Rax },
            RegSet::EMPTY,
        );
    };

    rec.compute(pc_seed, &[], &[carry.into()]);
    for (bi, b) in blocks.iter().enumerate() {
        let target = (bi + 1) * SEGMENT_LEN;
        let a = cells[b[0] % NCELLS];
        let c = cells[b[1] % NCELLS];
        let func = funcs[bi % funcs.len()];
        // A leading pad run so positions just past a segment boundary
        // are balanced top-level rows.
        for _ in 0..128 {
            pad(&mut rec);
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
            pad(&mut rec);
        }
        assert_eq!(rec.pos().0 as usize, target, "block {bi} misaligned");
    }
    // Tail past the last boundary: the carry feeds the pixel sink.
    for _ in 0..TAIL_PAD {
        pad(&mut rec);
    }
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

/// One query through `cache` with fresh hashes: asserts the result
/// equals `trace`'s own [`slice`] and returns the counter delta.
fn query(
    cache: &mut SummaryCache,
    trace: &Trace,
    criteria: &Criteria,
    opts: &SliceOptions,
    label: &str,
) -> CacheStats {
    let before = cache.stats();
    let hashes = SegmentHashes::compute(trace);
    let got = cache.slice_with_hashes(trace, &hashes, criteria, opts);
    assert_eq!(got, reference(trace, criteria, opts), "{label}");
    let after = cache.stats();
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        ..after
    }
}

fn assert_miss(s: CacheStats, label: &str) {
    assert_eq!((s.hits, s.misses), (0, 1), "{label} must miss: {s:?}");
}

#[test]
fn middle_window_mutation_matches_from_scratch() {
    let base = [[0, 1], [2, 3], [4, 5], [6, 7]];
    let mut variant = base;
    variant[1] = [5, 2]; // dirty exactly segment 1
    let (t1, carry) = record_blocks(&base, None);
    let (t2, _) = record_blocks(&variant, None);
    assert_eq!(t1.len(), t2.len(), "variants must stay aligned");

    let opts = SliceOptions {
        witness: true,
        ..Default::default()
    };
    let mut cache = SummaryCache::new();
    let c1 = criteria_for(&t1, carry);
    assert_eq!(cache.slice(&t1, &c1, &opts), reference(&t1, &c1, &opts));
    let c2 = criteria_for(&t2, carry);
    assert_eq!(cache.slice(&t2, &c2, &opts), reference(&t2, &c2, &opts));
    assert_eq!(cache.stats().misses, 2, "{:?}", cache.stats());
}

#[test]
fn appended_frames_match_from_scratch() {
    let (full, carry) = record_blocks(&[[0, 1], [2, 3], [4, 5], [6, 7]], None);
    let opts = SliceOptions::default();
    let mut cache = SummaryCache::new();
    let cuts = [2 * SEGMENT_LEN + 64, 3 * SEGMENT_LEN + 64, full.len()];
    for (i, &cut) in cuts.iter().enumerate() {
        let frame = full.prefix(cut);
        let criteria = criteria_for(&frame, carry);
        let got = cache.slice(&frame, &criteria, &opts);
        assert_eq!(got, reference(&frame, &criteria, &opts), "frame {i}");
    }
    assert_eq!(cache.stats().misses, cuts.len() as u64);
}

#[test]
fn precomputed_hashes_extend_across_frames() {
    let (full, carry) = record_blocks(&[[0, 1], [2, 3], [4, 5]], None);
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
    // The extended hashes key the same entry fresh ones would.
    let before = cache.stats();
    assert_eq!(
        cache.slice(&full, &c_full, &opts),
        reference(&full, &c_full, &opts)
    );
    assert_eq!(cache.stats().hits, before.hits + 1);
}

/// An immediate re-query is served by the memo.
#[test]
fn immediate_requery_hits() {
    let (trace, carry) = record_blocks(&[[0, 1]], None);
    let criteria = criteria_for(&trace, carry);
    let opts = SliceOptions::default();
    let mut cache = SummaryCache::new();
    assert_miss(
        query(&mut cache, &trace, &criteria, &opts, "first"),
        "first",
    );
    let s = query(&mut cache, &trace, &criteria, &opts, "re-query");
    assert_eq!((s.hits, s.misses), (1, 0), "re-query must hit: {s:?}");
    assert!(s.bytes_held > 0, "the held result has a bitmap: {s:?}");
}

/// A same-length trace that differs in one row of the partial last
/// segment is a miss.
#[test]
fn tail_row_change_misses() {
    let blocks = [[0, 1]];
    let (trace, carry) = record_blocks(&blocks, None);
    let (variant, _) = record_blocks(&blocks, Some(SEGMENT_LEN + TAIL_PAD / 2));
    assert_eq!(trace.len(), variant.len());
    let opts = SliceOptions::default();
    let mut cache = SummaryCache::new();
    query(
        &mut cache,
        &trace,
        &criteria_for(&trace, carry),
        &opts,
        "base",
    );
    let c = criteria_for(&variant, carry);
    assert_miss(query(&mut cache, &variant, &c, &opts, "tail"), "tail");
}

/// A multi-segment trace that differs in one row of a complete
/// segment, queried with fresh hashes, is a miss.
#[test]
fn complete_segment_row_change_misses() {
    let blocks = [[0, 1], [2, 3]];
    let (trace, carry) = record_blocks(&blocks, None);
    let (variant, _) = record_blocks(&blocks, Some(SEGMENT_LEN + 5));
    assert_eq!(trace.len(), variant.len());
    assert!(trace.len() > SEGMENT_LEN);
    let opts = SliceOptions::default();
    let mut cache = SummaryCache::new();
    query(
        &mut cache,
        &trace,
        &criteria_for(&trace, carry),
        &opts,
        "base",
    );
    let c = criteria_for(&variant, carry);
    assert_miss(
        query(&mut cache, &variant, &c, &opts, "complete"),
        "complete",
    );
}

/// The same trace with different criteria is a miss, and the memo
/// holds one entry: going back to the first criteria misses again.
#[test]
fn criteria_change_misses() {
    let (trace, carry) = record_blocks(&[[0, 1]], None);
    let opts = SliceOptions::default();
    let mut cache = SummaryCache::new();
    let with_carry = criteria_for(&trace, carry);
    let pixels = pixel_criteria(&trace);
    query(&mut cache, &trace, &with_carry, &opts, "carry");
    assert_miss(
        query(&mut cache, &trace, &pixels, &opts, "pixels"),
        "pixels",
    );
    assert_miss(
        query(&mut cache, &trace, &with_carry, &opts, "back"),
        "back",
    );
}

/// The same trace and criteria under another slice configuration —
/// a witness, or a truncating `end` — is a miss.
#[test]
fn config_change_misses() {
    let (trace, carry) = record_blocks(&[[0, 1]], None);
    let criteria = criteria_for(&trace, carry);
    let mut cache = SummaryCache::new();
    query(
        &mut cache,
        &trace,
        &criteria,
        &SliceOptions::default(),
        "plain",
    );
    let witness = SliceOptions {
        witness: true,
        ..Default::default()
    };
    assert_miss(
        query(&mut cache, &trace, &criteria, &witness, "witness"),
        "witness",
    );
    let end = SliceOptions {
        end: Some(TracePos(SEGMENT_LEN as u64 + 2)),
        ..Default::default()
    };
    assert_miss(query(&mut cache, &trace, &criteria, &end, "end"), "end");
}
