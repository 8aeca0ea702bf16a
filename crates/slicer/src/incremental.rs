//! Incremental slicing across trace frames: [`crate::slice`] behind a
//! one-entry re-query memo.
//!
//! A browser session evolves frame by frame: frame `k+1`'s trace is frame
//! `k`'s with the rows of one more interaction appended. An analyst also
//! re-queries the same session state with the same criteria.
//! [`SummaryCache`] serves both with one rule. A query whose key equals
//! the previous query's key gets a clone of the stored result. Any other
//! query runs the forward pass and [`crate::slice`], then replaces the
//! entry. Every result is therefore exactly `slice()`'s, and no file on
//! disk can change one.
//!
//! The key is one 128-bit [`ContentHasher`] digest of everything a result
//! depends on:
//!
//! * the trace length;
//! * the content hash of every complete [`SEGMENT_LEN`] segment, taken
//!   from the caller's [`SegmentHashes`] (a frame workflow extends them
//!   across appends instead of rehashing);
//! * the content hash of the partial last segment, recomputed from the
//!   rows on every query;
//! * every criterion: position, `include_instr`, registers and memory
//!   ranges;
//! * [`SliceOptions::config_fingerprint`].
//!
//! The function table is not part of it: the per-function stats list
//! only functions seen in the rows. Reuse stops at the exact re-query
//! because reusing per-segment work across frames cost more than it
//! saved on every caller measured (DESIGN.md §11).

use std::mem::size_of;

use rayon::prelude::*;
use wasteprof_trace::{segment_content_hash, ContentHasher, Trace, SEGMENT_LEN};

use crate::criteria::Criteria;
use crate::slice::{slice, ForwardPass, SliceOptions, SliceResult, TimelinePoint};

/// The memo key of one query (see the module docs for what it covers).
fn query_key(
    trace: &Trace,
    hashes: &SegmentHashes,
    criteria: &Criteria,
    options: &SliceOptions,
) -> [u64; 2] {
    let len = trace.len();
    let complete = len / SEGMENT_LEN;
    let mut h = ContentHasher::new();
    h.fold_word(len as u64);
    for seg in &hashes.full[..complete] {
        seg.iter().for_each(|&w| h.fold_word(w));
    }
    if len > complete * SEGMENT_LEN {
        let tail = segment_content_hash(trace.columns(), complete * SEGMENT_LEN, len);
        tail.iter().for_each(|&w| h.fold_word(w));
    }
    h.fold_word(criteria.len() as u64);
    for c in criteria.items() {
        h.fold_word(c.pos.0);
        h.fold_word(c.include_instr as u64);
        h.fold_word(c.regs.bits() as u64);
        h.fold_word(c.mem.len() as u64);
        for r in &c.mem {
            h.fold_word(r.start().raw());
            h.fold_word(r.len() as u64);
        }
    }
    h.fold_word(options.config_fingerprint());
    h.finish(len as u64)
}

// ---------------------------------------------------------------------
// Segment hashes
// ---------------------------------------------------------------------

/// Per-segment content hashes of a trace at the fixed [`SEGMENT_LEN`]
/// granularity: the bulk of a [`SummaryCache`] query key.
///
/// Computing them from scratch costs one linear scan (cheap, ~1 ns/row),
/// but a frame workflow can avoid even that: [`extend_appended`] reuses
/// every complete segment of a previous frame when the caller guarantees
/// the new trace extends the old one.
///
/// [`extend_appended`]: SegmentHashes::extend_appended
#[derive(Debug, Clone)]
pub struct SegmentHashes {
    len: usize,
    full: Vec<[u64; 2]>,
}

impl SegmentHashes {
    /// Hashes every complete [`SEGMENT_LEN`] segment of `trace`.
    pub fn compute(trace: &Trace) -> SegmentHashes {
        let len = trace.len();
        let cols = trace.columns();
        let idxs: Vec<usize> = (0..len / SEGMENT_LEN).collect();
        let full = idxs
            .par_iter()
            .map(|&i| segment_content_hash(cols, i * SEGMENT_LEN, (i + 1) * SEGMENT_LEN))
            .collect();
        SegmentHashes { len, full }
    }

    /// Extends a previous frame's hashes to `trace`, re-hashing only the
    /// rows past the last complete segment of the old frame.
    ///
    /// The caller guarantees `trace` is the old trace with rows appended
    /// (the frame workflow's invariant); complete-segment hashes are
    /// reused without inspection, so passing an unrelated trace would
    /// poison every downstream key.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is shorter than the trace these hashes cover.
    pub fn extend_appended(&self, trace: &Trace) -> SegmentHashes {
        assert!(
            trace.len() >= self.len,
            "extend_appended: trace shrank ({} < {})",
            trace.len(),
            self.len
        );
        let len = trace.len();
        let cols = trace.columns();
        let mut full = self.full.clone();
        for i in full.len()..len / SEGMENT_LEN {
            full.push(segment_content_hash(
                cols,
                i * SEGMENT_LEN,
                (i + 1) * SEGMENT_LEN,
            ));
        }
        SegmentHashes { len, full }
    }

    /// Number of trace rows these hashes cover.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the covered trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// ---------------------------------------------------------------------
// The memo
// ---------------------------------------------------------------------

/// Counters reported by [`SummaryCache::stats`]. All values are
/// cumulative since construction except `bytes_held`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served from the memo.
    pub hits: u64,
    /// Queries that ran the forward pass and [`crate::slice`].
    pub misses: u64,
    /// Always 0: no stitch state is reused any more. The field stays
    /// only because wpbench reports it.
    pub stitch_reused: u64,
    /// Heap bytes of the held result: its bitmap, timeline and witness
    /// rows.
    pub bytes_held: u64,
}

impl CacheStats {
    /// Hit rate over all queries, `0.0` when none happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Heap bytes of a result: bitmap words, timeline points and witness
/// rows (9 bytes each, see [`crate::Witnesses`]).
fn held_bytes(r: &SliceResult) -> u64 {
    let witness_rows = r.witness.as_ref().map_or(0, |w| w.len());
    (r.bitmap.len() * size_of::<u64>()
        + r.timeline.len() * size_of::<TimelinePoint>()
        + witness_rows * 9) as u64
}

/// [`crate::slice`] behind a one-entry memo: an immediate re-query with
/// the same key returns the stored result, any other query slices from
/// scratch (see the module docs for the key).
///
/// [`slice`](SummaryCache::slice) equals [`crate::slice`] with a fresh
/// [`ForwardPass`] for every input; the memo only changes wall time.
///
/// # Examples
///
/// ```
/// use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions, SummaryCache};
/// use wasteprof_trace::{site, Recorder, Region, ThreadKind};
///
/// let mut rec = Recorder::new();
/// rec.spawn_thread(ThreadKind::Main, "root");
/// let tile = rec.alloc(Region::PixelTile, 64);
/// rec.compute(site!(), &[], &[tile]);
/// rec.marker(site!(), tile);
/// let trace = rec.finish();
///
/// let mut cache = SummaryCache::new();
/// let opts = SliceOptions::default();
/// let incr = cache.slice(&trace, &pixel_criteria(&trace), &opts);
/// let fwd = ForwardPass::build(&trace);
/// assert_eq!(incr, slice(&trace, &fwd, &pixel_criteria(&trace), &opts));
/// ```
#[derive(Default)]
pub struct SummaryCache {
    /// The last query's key and result.
    last: Option<([u64; 2], SliceResult)>,
    stats: CacheStats,
}

impl SummaryCache {
    /// An empty memo.
    pub fn new() -> SummaryCache {
        SummaryCache::default()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Slices `trace`, or returns the stored result when the previous
    /// query had the same key. Equal to [`crate::slice`] with a fresh
    /// [`ForwardPass`] over the same trace.
    pub fn slice(
        &mut self,
        trace: &Trace,
        criteria: &Criteria,
        options: &SliceOptions,
    ) -> SliceResult {
        let hashes = SegmentHashes::compute(trace);
        self.slice_with_hashes(trace, &hashes, criteria, options)
    }

    /// [`slice`](SummaryCache::slice) with precomputed segment hashes,
    /// skipping the per-call content scan of the complete segments (the
    /// frame workflow maintains them via
    /// [`SegmentHashes::extend_appended`]).
    ///
    /// # Panics
    ///
    /// Panics if `hashes` cover fewer rows than `trace` has.
    pub fn slice_with_hashes(
        &mut self,
        trace: &Trace,
        hashes: &SegmentHashes,
        criteria: &Criteria,
        options: &SliceOptions,
    ) -> SliceResult {
        assert!(
            hashes.len() >= trace.len(),
            "segment hashes cover {} rows, trace has {}",
            hashes.len(),
            trace.len()
        );
        let key = query_key(trace, hashes, criteria, options);
        if let Some((held_key, held)) = &self.last {
            if *held_key == key {
                self.stats.hits += 1;
                return held.clone();
            }
        }
        self.stats.misses += 1;
        // Drop the stale entry first, so a miss never holds two results.
        self.last = None;
        let result = slice(trace, &ForwardPass::build(trace), criteria, options);
        self.stats.bytes_held = held_bytes(&result);
        self.last = Some((key, result.clone()));
        result
    }
}
