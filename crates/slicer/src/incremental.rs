//! Incremental slicing across trace frames: a content-addressed
//! segment-summary cache with certified re-stitch.
//!
//! A browser session evolves frame by frame: almost all of frame `k+1`'s
//! trace is frame `k`'s trace with a short suffix appended (or a small
//! window rewritten). From-scratch slicing pays O(trace) per frame even
//! though the symbolic work for the shared rows is identical. This module
//! makes the phase-1 summaries of the segment-parallel pass
//! ([`crate::parallel`]) *reusable across runs*:
//!
//! * **Content-addressed summaries.** The trace is cut at fixed
//!   [`SEGMENT_LEN`] boundaries (64-aligned, stable under append). A
//!   segment's phase-1 summary is a pure function of (a) its instruction
//!   rows, (b) the open-call stacks at its upper boundary, (c) the
//!   criteria that fall inside it, (d) the control-dependence answers for
//!   the static sites it contains, and (e) the slice configuration. The
//!   cache key hashes (a)–(c) + (e) — rows via the 128-bit
//!   [`segment_content_hash`] that WPTRACE2 already stores per chunk,
//!   criteria *relative to the segment base* so a summary survives a
//!   positional shift — and (d) is validated per lookup by re-hashing the
//!   current [`ControlDeps`] answers over the entry's recorded sites
//!   (appended rows can add CFG edges that change the controllers of old
//!   segments, so deps can never be part of a once-computed key).
//! * **Checkpointed forward passes.** The CFG builder and the structural
//!   (open-stack) scan are resumed from checkpoints keyed by a prefix
//!   chain of segment hashes, so an appended frame re-feeds only the new
//!   tail instead of the whole trace.
//! * **Memoized stitch suffixes.** Phase 2 walks segments from the trace
//!   end; the boundary state entering segment `i` is a pure function of
//!   the *suffix* from `i`. A suffix-keyed memo reuses the stored
//!   `(BoundaryState, activation)` pair when a middle window was
//!   rewritten but the suffix is untouched.
//!
//! Phase 3 (replay) is memoized per segment but *not* persisted, and its
//! key includes the considered length `n`: timeline checkpoints sit at
//! global positions `(n - idx) % interval == 0` and `interval` defaults
//! to `n / 1000`, so nearly every checkpoint moves when `n` grows —
//! appends legitimately recompute the replay (a plain counting walk, ~an
//! order of magnitude cheaper per row than summarization), while
//! re-querying the *same* session state (the analyst's steady-state
//! loop) reuses every [`SegFinal`] and pays only the assembly merge
//! (see DESIGN.md §11).
//!
//! The result is **byte-identical** to [`crate::slice`] at any frame: the
//! segment-parallel pass already produces identical results for any
//! segmentation, so correctness reduces to every reused summary being
//! *valid* for its segment — which the content key + deps validation
//! guarantee. On any condition the symbolic pass cannot express
//! (degenerate segmentation, branch write effects, node-budget overflow)
//! the driver falls back to [`crate::slice`] wholesale.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use rayon::prelude::*;
use wasteprof_trace::compress::{put_varint, ByteReader};
use wasteprof_trace::{
    segment_content_hash, Addr, AddrRange, ColumnCursor, ColumnSource, ContentHasher, FuncId, Pc,
    RangeJob, RegSet, ThreadId, Trace, TraceIoError, SEGMENT_LEN,
};

use crate::cdg::{ControlDeps, PendingTransfer};
use crate::cfg::CfgBuilder;
use crate::criteria::{Criteria, SlicingCriterion};
use crate::live::{for_run_chunks, AddrSet};
use crate::parallel::{
    assemble, stitch, BoundaryState, Cond, Finalizer, Node, RegCell, Replay, SegFinal, SegFrames,
    SegSummary, StructuralScan, Summarizer, NTHREADS,
};
use crate::slice::{considered_prefix, timeline_interval, ForwardPass, SliceOptions, SliceResult};

/// Default byte budget for cached summaries (~256 MiB).
const DEFAULT_BUDGET: u64 = 256 << 20;
/// Stitch-memo entry cap; pruned to recently-used entries beyond this.
const STITCH_CAP: usize = 16 * 1024;
/// Maximum retained forward-pass (CFG builder) checkpoints.
const FWD_CAP: usize = 12;
/// On-disk summary-cache magic + version.
const CACHE_MAGIC: &[u8; 8] = b"WPCACHE1";
const CACHE_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Wide (128-bit) key hashing, mirroring the trace crate's ContentHasher
// construction so key collisions are as unlikely as content collisions.
// ---------------------------------------------------------------------

const LANE_MUL: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];
const LANE_SEED: [u64; 2] = [0x5851_F42D_4C95_7F2D, 0x1405_7B7E_F767_814F];

/// Domain-separation tags: each key family folds a distinct tag first so
/// a stitch-memo key can never alias a summary key built from the same
/// words.
const TAG_SUMMARY: u64 = 0x1C5E_6001;
const TAG_STACKS: u64 = 0x1C5E_6002;
const TAG_CRITERIA: u64 = 0x1C5E_6003;
const TAG_DEPS: u64 = 0x1C5E_6004;
const TAG_CHAIN: u64 = 0x1C5E_6005;
const TAG_STITCH: u64 = 0x1C5E_6006;
const TAG_FINAL: u64 = 0x1C5E_6007;

struct WideHasher {
    lanes: [u64; 2],
}

impl WideHasher {
    fn new(tag: u64) -> WideHasher {
        let mut h = WideHasher { lanes: LANE_SEED };
        h.word(tag);
        h
    }

    #[inline]
    fn word(&mut self, w: u64) {
        for (lane, mul) in self.lanes.iter_mut().zip(LANE_MUL) {
            let v = (*lane ^ w).wrapping_mul(mul);
            *lane = v.rotate_left(29) ^ (v >> 32);
        }
    }

    #[inline]
    fn wide(&mut self, w: [u64; 2]) {
        self.word(w[0]);
        self.word(w[1]);
    }

    fn finish(mut self) -> [u64; 2] {
        let cross = self.lanes[0] ^ self.lanes[1].rotate_left(23);
        self.word(cross);
        self.lanes
    }
}

/// Chains two 128-bit values (`next = H(tag, prev, link)`), used for both
/// the prefix chain (checkpoint validity) and the suffix chains (stitch
/// memo keys).
fn chain_link(tag: u64, prev: [u64; 2], link: [u64; 2]) -> [u64; 2] {
    let mut h = WideHasher::new(tag);
    h.wide(prev);
    h.wide(link);
    h.finish()
}

fn stacks_hash(stacks: &[Vec<FuncId>]) -> [u64; 2] {
    let mut h = WideHasher::new(TAG_STACKS);
    for s in stacks {
        h.word(s.len() as u64);
        for f in s {
            h.word(f.index() as u64);
        }
    }
    h.finish()
}

/// Criteria inside one segment, hashed relative to the segment base so a
/// summary can be reused after the segment's absolute position shifts.
fn criteria_hash(items: &[SlicingCriterion], lo: usize) -> [u64; 2] {
    let mut h = WideHasher::new(TAG_CRITERIA);
    h.word(items.len() as u64);
    for c in items {
        h.word((c.pos.index() - lo) as u64);
        h.word(c.include_instr as u64);
        h.word(c.regs.bits() as u64);
        h.word(c.mem.len() as u64);
        for r in &c.mem {
            h.word(r.start().raw());
            h.word(r.len() as u64);
        }
    }
    h.finish()
}

/// Hashes the *current* control-dependence answers over a segment's
/// static sites. Stored at insert time and recomputed at lookup time: a
/// match proves the cached summary would consult identical controllers
/// today, even though the CFGs were rebuilt from a longer trace.
fn deps_hash(deps: &ControlDeps, sites: &[(u32, u32)]) -> [u64; 2] {
    let mut h = WideHasher::new(TAG_DEPS);
    for &(f, pc) in sites {
        h.word(f as u64);
        h.word(pc as u64);
        let cs = deps.controllers(FuncId(f), Pc(pc));
        h.word(cs.len() as u64);
        for c in cs {
            h.word(c.0 as u64);
        }
    }
    h.finish()
}

fn summary_key(
    content: [u64; 2],
    seg_rows: usize,
    stacks_hi: [u64; 2],
    crit: [u64; 2],
    fp: u64,
) -> [u64; 2] {
    let mut h = WideHasher::new(TAG_SUMMARY);
    h.wide(content);
    h.word(seg_rows as u64);
    h.wide(stacks_hi);
    h.wide(crit);
    h.word(fp);
    h.finish()
}

/// Key for the finals memo. The stitch key already pins the segment's
/// replay (summary bitmap + activations) and its suffix context; a
/// [`SegFinal`] additionally depends on the segment's absolute position
/// and the globals the finalize loop reads — total considered rows (the
/// timeline's checkpoint grid is anchored at `n`), the effective
/// interval, the function-table size, and the tracked thread.
fn final_key(
    skey: [u64; 2],
    lo: usize,
    n: usize,
    interval: u64,
    nfuncs: usize,
    tracked: ThreadId,
) -> [u64; 2] {
    let mut h = WideHasher::new(TAG_FINAL);
    h.wide(skey);
    h.word(lo as u64);
    h.word(n as u64);
    h.word(interval);
    h.word(nfuncs as u64);
    h.word(tracked.0 as u64);
    h.finish()
}

// ---------------------------------------------------------------------
// Segment hashes
// ---------------------------------------------------------------------

/// Per-segment content hashes of a trace at the fixed [`SEGMENT_LEN`]
/// granularity the incremental slicer caches at.
///
/// Computing them from scratch costs one linear scan (cheap, ~1 ns/row),
/// but a frame workflow can avoid even that: [`extend_appended`] reuses
/// every complete segment of a previous frame when the caller guarantees
/// the new trace extends the old one, and the WPTRACE2 footer already
/// stores exactly these hashes per chunk, so the streamed path reads
/// them for free.
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
// Cache state
// ---------------------------------------------------------------------

/// Counters reported by [`SummaryCache::stats`]. All values are
/// cumulative since construction (or the last [`SummaryCache::reset_stats`])
/// except `bytes_held`, which is the current resident summary footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Segment summaries served from the cache.
    pub hits: u64,
    /// Segment summaries recomputed (and inserted).
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Stitch steps skipped via the suffix memo.
    pub stitch_reused: u64,
    /// Bytes currently held by cached summaries.
    pub bytes_held: u64,
}

impl CacheStats {
    /// Hit rate over all summary lookups, `0.0` when none happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheEntry {
    /// Cached phase-1 summary; `lo`/`hi` are rebased on reuse (every
    /// other field is position-independent, see [`SegSummary`]).
    summary: SegSummary,
    /// Sorted unique static sites `(func, pc)` of the segment, the
    /// domain over which `deps_hash` was computed.
    sites: Vec<(u32, u32)>,
    deps_hash: [u64; 2],
    bytes: u64,
    last_used: u64,
}

struct StitchMemo {
    state: BoundaryState,
    active: Vec<bool>,
    last_used: u64,
}

struct FinalMemo {
    seg: SegFinal,
    last_used: u64,
}

struct FwdCkpt {
    boundary: usize,
    chain: [u64; 2],
    builder: CfgBuilder,
}

struct StructCkpt {
    chain: [u64; 2],
    stacks: Vec<Vec<FuncId>>,
}

/// A persistent, content-addressed cache of segment summaries plus the
/// session-local resume state (forward-pass checkpoints, stitch memo)
/// that makes slicing frame `k+1` cost O(dirty segments + stitch) after
/// frame `k`.
///
/// [`slice`](SummaryCache::slice) is byte-identical to
/// [`crate::slice`] for every input; the cache only changes wall time.
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
pub struct SummaryCache {
    entries: HashMap<[u64; 2], CacheEntry>,
    budget: u64,
    bytes_held: u64,
    tick: u64,
    stitch_memo: HashMap<[u64; 2], StitchMemo>,
    /// Phase-3 replay outputs from prior runs, keyed by the stitch key
    /// extended with everything else a [`SegFinal`] depends on (`n`,
    /// timeline interval, function count, tracked thread). Re-slicing a
    /// mostly-unchanged session skips the per-row finalize loop for
    /// every segment whose suffix context is unchanged.
    final_memo: HashMap<[u64; 2], FinalMemo>,
    fwd_ckpts: Vec<FwdCkpt>,
    /// The last run's finished forward pass, keyed by (considered rows,
    /// full content chain): a re-slice of byte-identical content reuses
    /// the whole pass — CFGs, postdominators, and control deps are pure
    /// functions of the rows — skipping even the checkpointed rebuild.
    fwd_memo: Option<(usize, [u64; 2], Arc<ForwardPass>)>,
    /// Dense per-boundary checkpoints from the last clean run: entry
    /// `j - 1` holds the prefix chain and open-call stacks at boundary
    /// `j * SEGMENT_LEN`.
    struct_ckpts: Vec<StructCkpt>,
    stats: CacheStats,
}

impl Default for SummaryCache {
    fn default() -> Self {
        SummaryCache::new()
    }
}

impl SummaryCache {
    /// An empty cache with the default (~256 MiB) summary byte budget.
    pub fn new() -> SummaryCache {
        SummaryCache::with_budget(DEFAULT_BUDGET)
    }

    /// An empty cache holding at most `budget` bytes of summaries.
    pub fn with_budget(budget: u64) -> SummaryCache {
        SummaryCache {
            entries: HashMap::new(),
            budget,
            bytes_held: 0,
            tick: 0,
            stitch_memo: HashMap::new(),
            final_memo: HashMap::new(),
            fwd_ckpts: Vec::new(),
            fwd_memo: None,
            struct_ckpts: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Current cache counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the cumulative counters (`bytes_held` is recomputed).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats {
            bytes_held: self.bytes_held,
            ..CacheStats::default()
        };
    }

    /// Slices `trace`, reusing every cached segment summary that is
    /// still valid. Byte-identical to [`crate::slice`] with a fresh
    /// [`ForwardPass`] over the same trace.
    pub fn slice(
        &mut self,
        trace: &Trace,
        criteria: &Criteria,
        options: &SliceOptions,
    ) -> SliceResult {
        let Ok(result) = self.slice_streamed(&mut { trace }, criteria, options);
        result
    }

    /// [`slice`](SummaryCache::slice) with precomputed segment hashes,
    /// skipping the per-call content scan (the frame workflow maintains
    /// them via [`SegmentHashes::extend_appended`]).
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
        let Ok(result) = self.run(&mut { trace }, &hashes.full, criteria, options);
        result
    }

    /// [`slice`](SummaryCache::slice) over any [`ColumnSource`].
    /// Complete-segment hashes come from the source when it stores them
    /// (a `WPTRACE2` footer), so a reader pays no content scan for them,
    /// and misses are summarized one segment at a time through its
    /// bounded window. Byte-identical to [`crate::slice_streamed`].
    ///
    /// # Errors
    ///
    /// Any read or decode error of the source.
    pub fn slice_streamed<S: ColumnSource>(
        &mut self,
        src: &mut S,
        criteria: &Criteria,
        options: &SliceOptions,
    ) -> Result<SliceResult, S::Error> {
        let known = src.stored_segment_hashes();
        self.run(src, &known, criteria, options)
    }

    // -- internals ----------------------------------------------------

    fn insert_entry(&mut self, key: [u64; 2], entry: CacheEntry) {
        if let Some(old) = self.entries.remove(&key) {
            self.bytes_held -= old.bytes;
        }
        self.bytes_held += entry.bytes;
        self.entries.insert(key, entry);
        while self.bytes_held > self.budget && self.entries.len() > 1 {
            // Linear LRU scan: the map holds at most a few thousand
            // segments, far below where an ordered index would pay off.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty cache");
            let e = self.entries.remove(&victim).expect("victim present");
            self.bytes_held -= e.bytes;
            self.stats.evictions += 1;
        }
    }

    fn prune_stitch_memo(&mut self) {
        if self.stitch_memo.len() > STITCH_CAP {
            let keep_from = self.tick.saturating_sub(1);
            self.stitch_memo.retain(|_, m| m.last_used >= keep_from);
        }
        if self.final_memo.len() > STITCH_CAP {
            let keep_from = self.tick.saturating_sub(1);
            self.final_memo.retain(|_, m| m.last_used >= keep_from);
        }
    }

    /// Memoized [`SegFinal`] for `key`, or `None` on a miss.
    fn final_lookup(&mut self, key: [u64; 2]) -> Option<SegFinal> {
        let m = self.final_memo.get_mut(&key)?;
        m.last_used = self.tick;
        Some(m.seg.clone())
    }

    fn final_store(&mut self, key: [u64; 2], seg: SegFinal) {
        self.final_memo.insert(
            key,
            FinalMemo {
                seg,
                last_used: self.tick,
            },
        );
    }

    /// Largest boundary index `j` whose stored chain matches the current
    /// one — content of segments `0..j` is unchanged, so every stored
    /// prefix artifact up to `j` is still exact.
    fn struct_resume_point(&self, chains: &[[u64; 2]], nsegs: usize) -> usize {
        let top = self.struct_ckpts.len().min(nsegs.saturating_sub(1));
        (1..=top)
            .rev()
            .find(|&j| self.struct_ckpts[j - 1].chain == chains[j])
            .unwrap_or(0)
    }

    /// Runs the structural scan over `[0, n)`, resuming from the deepest
    /// valid checkpoint, and refreshes the dense checkpoint vector.
    /// Returns `stacks_at` (`stacks_at[i]` = open stacks at
    /// `bounds[i + 1]`, as phase 1 consumes them) or `None` if the trace
    /// carries branch write effects.
    fn structural<E>(
        &mut self,
        bounds: &[usize],
        chains: &[[u64; 2]],
        feed: impl FnOnce(usize, &mut StructuralScan) -> Result<(), E>,
    ) -> Result<Option<Vec<Vec<Vec<FuncId>>>>, E> {
        let nsegs = bounds.len() - 1;
        let rj = self.struct_resume_point(chains, nsegs);
        let stacks = if rj == 0 {
            vec![Vec::new(); NTHREADS]
        } else {
            self.struct_ckpts[rj - 1].stacks.clone()
        };
        // Checkpoints are only stored from runs that finished with the
        // flag down, so a resumed prefix is always branch-write free.
        let mut scan = StructuralScan::resume(&bounds[rj..], stacks, false);
        feed(bounds[rj], &mut scan)?;
        let (tail, branch_writes) = scan.finish();
        if branch_writes {
            self.struct_ckpts.clear();
            return Ok(None);
        }
        let mut stacks_at: Vec<Vec<Vec<FuncId>>> = Vec::with_capacity(nsegs);
        for j in 1..=rj {
            stacks_at.push(self.struct_ckpts[j - 1].stacks.clone());
        }
        stacks_at.extend(tail);
        debug_assert_eq!(stacks_at.len(), nsegs);
        // Refresh: boundary j = j * SEGMENT_LEN for every complete
        // segment (the final, possibly partial boundary `n` is never a
        // resume point).
        self.struct_ckpts = (1..nsegs)
            .map(|j| StructCkpt {
                chain: chains[j],
                stacks: stacks_at[j - 1].clone(),
            })
            .collect();
        Ok(Some(stacks_at))
    }

    /// Builds the forward pass over `[0, n)` from the deepest valid CFG
    /// checkpoint, storing fresh checkpoints along the re-fed tail.
    fn forward<E>(
        &mut self,
        bounds: &[usize],
        chains: &[[u64; 2]],
        mut feed: impl FnMut(usize, usize, &mut CfgBuilder) -> Result<(), E>,
    ) -> Result<Arc<ForwardPass>, E> {
        let nsegs = bounds.len() - 1;
        let n = bounds[nsegs];
        if let Some((mn, mc, fwd)) = &self.fwd_memo {
            if *mn == n && *mc == chains[nsegs] {
                return Ok(fwd.clone());
            }
        }
        self.fwd_ckpts
            .retain(|c| c.boundary % SEGMENT_LEN == 0 && c.boundary / SEGMENT_LEN < nsegs);
        let picked = self
            .fwd_ckpts
            .iter()
            .filter(|c| chains[c.boundary / SEGMENT_LEN] == c.chain)
            .max_by_key(|c| c.boundary);
        let (rj, mut builder) = match picked {
            Some(c) => (c.boundary / SEGMENT_LEN, c.builder.clone()),
            None => (0, CfgBuilder::new()),
        };
        self.fwd_ckpts
            .retain(|c| chains[c.boundary / SEGMENT_LEN] == c.chain);
        let stride = (nsegs / (FWD_CAP / 2)).max(1);
        for j in rj..nsegs {
            feed(bounds[j], bounds[j + 1], &mut builder)?;
            let b = j + 1;
            if b < nsegs && b % stride == 0 {
                self.fwd_ckpts.push(FwdCkpt {
                    boundary: bounds[b],
                    chain: chains[b],
                    builder: builder.clone(),
                });
            }
        }
        if self.fwd_ckpts.len() > FWD_CAP {
            // Keep the latest boundaries: appends resume near the end.
            self.fwd_ckpts.sort_by_key(|c| c.boundary);
            let drop = self.fwd_ckpts.len() - FWD_CAP;
            self.fwd_ckpts.drain(..drop);
        }
        let fwd = Arc::new(ForwardPass::from_cfgs(builder.finish()));
        self.fwd_memo = Some((n, chains[nsegs], fwd.clone()));
        Ok(fwd)
    }

    /// The one incremental body. `known[i]` is the content hash of the
    /// complete segment `i` when the caller already has it (a
    /// [`SegmentHashes`], or the source's stored hashes); every other
    /// segment — the partial last one included — is hashed from the
    /// source.
    fn run<S: ColumnSource>(
        &mut self,
        src: &mut S,
        known: &[[u64; 2]],
        criteria: &Criteria,
        options: &SliceOptions,
    ) -> Result<SliceResult, S::Error> {
        self.tick += 1;
        let n = considered_prefix(src.len(), options);
        let nsegs = n.div_ceil(SEGMENT_LEN);
        if nsegs <= 1 {
            let fwd = ForwardPass::build_streamed(src)?;
            return crate::slice::slice_streamed(src, &fwd, criteria, options);
        }
        let bounds: Vec<usize> = (0..nsegs).map(|i| i * SEGMENT_LEN).chain([n]).collect();
        let mut seg_hashes = Vec::with_capacity(nsegs);
        for (i, w) in bounds.windows(2).enumerate() {
            let hash = match known.get(i) {
                Some(&h) if w[1] - w[0] == SEGMENT_LEN => h,
                _ => {
                    let mut h = ContentHasher::new();
                    src.stream_range(w[0], w[1], |cur| h.fold(cur))?;
                    h.finish((w[1] - w[0]) as u64)
                }
            };
            seg_hashes.push(hash);
        }
        let chains = prefix_chains(&seg_hashes);

        let stacks_at = self.structural(&bounds, &chains, |from, scan| {
            src.stream_range(from, n, |cur| scan.feed(cur))
        })?;
        let Some(stacks_at) = stacks_at else {
            let fwd = ForwardPass::build_streamed(src)?;
            return crate::slice::slice_streamed(src, &fwd, criteria, options);
        };

        // A truncating `end` would make the checkpointed CFGs diverge
        // from the full-trace ones the reference path uses; take the
        // plain build there (frames never truncate).
        let forward = if n == src.len() {
            self.forward(&bounds, &chains, |lo, hi, b| {
                src.stream_range(lo, hi, |cur| b.feed(cur))
            })?
        } else {
            Arc::new(ForwardPass::build_streamed(src)?)
        };
        let deps = forward.control_deps();

        // Phase 1: cache lookups, then one summarize job per miss.
        let plan = self.phase1_plan(&seg_hashes, &stacks_at, criteria, options, &bounds);
        let mut summaries: Vec<Option<SegSummary>> = Vec::with_capacity(nsegs);
        let mut dhashes: Vec<[u64; 2]> = vec![[0; 2]; nsegs];
        let mut misses: Vec<usize> = Vec::new();
        for (ki, p) in plan.iter().enumerate() {
            if let Some((sum, dh)) = self.lookup(p, deps) {
                dhashes[ki] = dh;
                summaries.push(Some(sum));
            } else {
                summaries.push(None);
                misses.push(ki);
            }
        }
        let items = criteria.items();
        let ranges: Vec<(usize, usize)> = misses
            .iter()
            .map(|&ki| (plan[ki].lo, plan[ki].hi))
            .collect();
        let computed = src.run_jobs(&ranges, |j| {
            let (ki, p) = (misses[j], &plan[misses[j]]);
            MissJob {
                summarizer: Summarizer::new(
                    p.lo,
                    p.hi,
                    deps,
                    &items[p.c0..p.c1],
                    stacks_at[ki].clone(),
                ),
                sites: Vec::new(),
            }
        })?;
        let mut overflow = false;
        for (&ki, r) in misses.iter().zip(computed) {
            match r {
                None => overflow = true,
                Some((sum, sites)) => {
                    let dh = deps_hash(deps, &sites);
                    dhashes[ki] = dh;
                    self.store_miss(plan[ki].key, &sum, sites, dh);
                    summaries[ki] = Some(sum);
                }
            }
        }
        if overflow {
            // A segment outgrew the node budget; the reference path
            // handles this case itself (and stays byte-identical).
            self.stats.bytes_held = self.bytes_held;
            return crate::slice::slice_streamed(src, &forward, criteria, options);
        }
        let mut summaries: Vec<SegSummary> = summaries
            .into_iter()
            .map(|s| s.expect("summarized"))
            .collect();

        // Phase 2: stitch from the end with the suffix memo.
        let skeys = self.stitch_keys(&plan, &seg_hashes, &dhashes, options);
        let mut state = BoundaryState::initial(&stacks_at[nsegs - 1]);
        let mut replays: Vec<Replay> = Vec::with_capacity(nsegs);
        for i in (0..nsegs).rev() {
            let sum = summaries.pop().expect("one summary per segment");
            let (next, replay) = self.stitch_step(skeys[i], sum, state);
            state = next;
            replays.push(replay);
        }
        replays.reverse();
        self.prune_stitch_memo();

        // Phase 3: replay + merge, memoized per segment. The timeline's
        // checkpoint grid is anchored at `n`, so a [`SegFinal`] is only
        // reusable when the globals in its key (notably `n` itself)
        // match — appends recompute every segment here, but re-slicing
        // the same session state (the analyst's query loop) is free.
        let interval = timeline_interval(options, n);
        let nfuncs = src.functions().len();
        let tracked = options.tracked_thread;
        let fkeys: Vec<[u64; 2]> = (0..nsegs)
            .map(|i| final_key(skeys[i], replays[i].lo, n, interval, nfuncs, tracked))
            .collect();
        let mut finals: Vec<Option<SegFinal>> =
            fkeys.iter().map(|&k| self.final_lookup(k)).collect();
        let fresh: Vec<usize> = (0..nsegs).filter(|&i| finals[i].is_none()).collect();
        let ranges: Vec<(usize, usize)> = fresh
            .iter()
            .map(|&i| (replays[i].lo, replays[i].hi))
            .collect();
        let computed = src.run_jobs(&ranges, |j| {
            Finalizer::new(&replays[fresh[j]], n, nfuncs, interval, tracked)
        })?;
        for (&i, f) in fresh.iter().zip(computed) {
            self.final_store(fkeys[i], f.clone());
            finals[i] = Some(f);
        }
        let finals: Vec<SegFinal> = finals.into_iter().map(|f| f.expect("finalized")).collect();
        let mut result = assemble(n, nfuncs, &replays, finals);
        if options.witness {
            result.witness = Some(crate::witness::emit(src, deps, criteria, &result)?);
        }
        self.stats.bytes_held = self.bytes_held;
        Ok(result)
    }

    fn phase1_plan(
        &self,
        seg_hashes: &[[u64; 2]],
        stacks_at: &[Vec<Vec<FuncId>>],
        criteria: &Criteria,
        options: &SliceOptions,
        bounds: &[usize],
    ) -> Vec<SegPlan> {
        let fp = options.config_fingerprint();
        let items = criteria.items();
        (0..bounds.len() - 1)
            .map(|ki| {
                let (lo, hi) = (bounds[ki], bounds[ki + 1]);
                let c0 = items.partition_point(|c| c.pos.index() < lo);
                let c1 = items.partition_point(|c| c.pos.index() < hi);
                let crit = criteria_hash(&items[c0..c1], lo);
                let sh = stacks_hash(&stacks_at[ki]);
                SegPlan {
                    lo,
                    hi,
                    c0,
                    c1,
                    key: summary_key(seg_hashes[ki], hi - lo, sh, crit, fp),
                    stacks_hash: sh,
                    crit_hash: crit,
                }
            })
            .collect()
    }

    /// Looks a segment up; a hit returns the rebased summary and the
    /// (already validated) deps hash.
    fn lookup(&mut self, p: &SegPlan, deps: &ControlDeps) -> Option<(SegSummary, [u64; 2])> {
        let e = self.entries.get_mut(&p.key)?;
        let dh = deps_hash(deps, &e.sites);
        if dh != e.deps_hash {
            // Same rows, same criteria — but a newer CFG changed a
            // controller answer inside this segment. Stale; the caller
            // recomputes (and `store_miss` counts the miss).
            return None;
        }
        e.last_used = self.tick;
        let mut s = e.summary.clone();
        s.lo = p.lo;
        s.hi = p.hi;
        self.stats.hits += 1;
        Some((s, dh))
    }

    fn store_miss(
        &mut self,
        key: [u64; 2],
        sum: &SegSummary,
        sites: Vec<(u32, u32)>,
        dh: [u64; 2],
    ) {
        self.stats.misses += 1;
        let bytes = summary_bytes(sum) + sites.len() as u64 * 8 + 96;
        let entry = CacheEntry {
            summary: sum.clone(),
            sites,
            deps_hash: dh,
            bytes,
            last_used: self.tick,
        };
        self.insert_entry(key, entry);
    }

    /// Suffix keys for the stitch memo: `skeys[i]` identifies everything
    /// the boundary state at `bounds[i]` (and segment `i`'s activations)
    /// depends on — suffix content, suffix boundary stacks, suffix
    /// criteria (segment-relative), suffix deps answers, and the config.
    fn stitch_keys(
        &self,
        plan: &[SegPlan],
        seg_hashes: &[[u64; 2]],
        dhashes: &[[u64; 2]],
        options: &SliceOptions,
    ) -> Vec<[u64; 2]> {
        let nsegs = plan.len();
        let fp = options.config_fingerprint();
        let mut keys = vec![[0u64; 2]; nsegs];
        let mut cc = LANE_SEED;
        let mut sks = LANE_SEED;
        let mut ck = LANE_SEED;
        let mut dd = LANE_SEED;
        for i in (0..nsegs).rev() {
            cc = chain_link(TAG_CHAIN, cc, seg_hashes[i]);
            sks = chain_link(TAG_STACKS, sks, plan[i].stacks_hash);
            ck = chain_link(TAG_CRITERIA, ck, plan[i].crit_hash);
            dd = chain_link(TAG_DEPS, dd, dhashes[i]);
            let mut h = WideHasher::new(TAG_STITCH);
            h.word(fp);
            h.word((nsegs - i) as u64);
            h.word((plan[i].hi - plan[i].lo) as u64);
            h.wide(cc);
            h.wide(sks);
            h.wide(ck);
            h.wide(dd);
            keys[i] = h.finish();
        }
        keys
    }

    /// One stitch step through the memo: a hit reconstructs the replay
    /// from the summary plus the stored activations and jumps straight
    /// to the stored boundary state.
    fn stitch_step(
        &mut self,
        key: [u64; 2],
        sum: SegSummary,
        state: BoundaryState,
    ) -> (BoundaryState, Replay) {
        if let Some(m) = self.stitch_memo.get_mut(&key) {
            m.last_used = self.tick;
            self.stats.stitch_reused += 1;
            let replay = Replay {
                lo: sum.lo,
                hi: sum.hi,
                bitmap: sum.bitmap,
                members: sum.members,
                active: m.active.clone(),
            };
            return (m.state.clone(), replay);
        }
        let (next, replay) = stitch(sum, &state);
        self.stitch_memo.insert(
            key,
            StitchMemo {
                state: next.clone(),
                active: replay.active.clone(),
                last_used: self.tick,
            },
        );
        (next, replay)
    }

    // -- persistence --------------------------------------------------

    /// Writes the summary entries to `dir/summaries.wpcache`. Resume
    /// state (forward checkpoints, stitch memo) is session-local and not
    /// persisted: it reconstructs in one warm run, and summaries are
    /// what dominate recomputation cost.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let mut out = Vec::new();
        out.extend_from_slice(CACHE_MAGIC);
        put_varint(&mut out, CACHE_VERSION);
        put_varint(&mut out, self.entries.len() as u64);
        for (key, e) in &self.entries {
            out.extend_from_slice(&key[0].to_le_bytes());
            out.extend_from_slice(&key[1].to_le_bytes());
            out.extend_from_slice(&e.deps_hash[0].to_le_bytes());
            out.extend_from_slice(&e.deps_hash[1].to_le_bytes());
            put_varint(&mut out, e.sites.len() as u64);
            for &(f, pc) in &e.sites {
                put_varint(&mut out, f as u64);
                put_varint(&mut out, pc as u64);
            }
            encode_summary(&mut out, &e.summary);
        }
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("summaries.wpcache"), out)
    }

    /// Loads persisted summaries from `dir` into a fresh cache with the
    /// given budget. Any missing, truncated, or corrupt file yields an
    /// empty cache (a cold start, never an error): the cache is a pure
    /// accelerator, so the worst a bad file can do is cost time.
    pub fn load(dir: &Path, budget: u64) -> SummaryCache {
        let mut cache = SummaryCache::with_budget(budget);
        let Ok(buf) = std::fs::read(dir.join("summaries.wpcache")) else {
            return cache;
        };
        if cache.load_bytes(&buf).is_err() {
            return SummaryCache::with_budget(budget);
        }
        cache
    }

    fn load_bytes(&mut self, buf: &[u8]) -> Result<(), TraceIoError> {
        let mut r = ByteReader::new(buf);
        if r.bytes(8)? != CACHE_MAGIC.as_slice() {
            return Err(TraceIoError::Format("bad cache magic".into()));
        }
        if r.varint()? != CACHE_VERSION {
            return Err(TraceIoError::Format("unsupported cache version".into()));
        }
        let n = r.varint()? as usize;
        for _ in 0..n {
            let key = [r.u64()?, r.u64()?];
            let dh = [r.u64()?, r.u64()?];
            let nsites = r.varint()? as usize;
            let mut sites = Vec::with_capacity(nsites.min(1 << 20));
            for _ in 0..nsites {
                sites.push((r.varint()? as u32, r.varint()? as u32));
            }
            let summary = decode_summary(&mut r)?;
            let bytes = summary_bytes(&summary) + sites.len() as u64 * 8 + 96;
            self.insert_entry(
                key,
                CacheEntry {
                    summary,
                    sites,
                    deps_hash: dh,
                    bytes,
                    last_used: 0,
                },
            );
        }
        Ok(())
    }
}

struct SegPlan {
    lo: usize,
    hi: usize,
    c0: usize,
    c1: usize,
    key: [u64; 2],
    stacks_hash: [u64; 2],
    crit_hash: [u64; 2],
}

fn prefix_chains(seg_hashes: &[[u64; 2]]) -> Vec<[u64; 2]> {
    let mut chains = Vec::with_capacity(seg_hashes.len() + 1);
    chains.push(LANE_SEED);
    for h in seg_hashes {
        let prev = *chains.last().expect("seeded");
        chains.push(chain_link(TAG_CHAIN, prev, *h));
    }
    chains
}

/// One cache miss of phase 1: the segment's summary plus its sorted
/// unique static sites, the domain of its deps hash.
struct MissJob<'a> {
    summarizer: Summarizer<'a>,
    sites: Vec<(u32, u32)>,
}

impl RangeJob for MissJob<'_> {
    type Output = Option<(SegSummary, Vec<(u32, u32)>)>;

    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        for idx in cur.lo()..cur.hi() {
            self.sites
                .push((cur.func(idx).index() as u32, cur.pc(idx).0));
        }
        self.summarizer.feed(cur);
    }

    fn finish(mut self) -> Self::Output {
        self.sites.sort_unstable();
        self.sites.dedup();
        Some((self.summarizer.finish()?, self.sites))
    }
}

/// Resident-size estimate used by the eviction budget; deliberately
/// coarse (allocator overhead ignored) but monotone in the real cost.
fn summary_bytes(s: &SegSummary) -> u64 {
    let mut b = 0u64;
    b += s.nodes.len() as u64 * 16;
    b += s.bitmap.len() as u64 * 8;
    b += s.members.len() as u64 * 8;
    b += (s.conc_mem.interval_count() + s.touched.interval_count()) as u64 * 16;
    b += s.cond_mem.len() as u64 * 32;
    b += s.conc_regs.len() as u64 * 2;
    b += s.reg_cells.len() as u64 * 8;
    b += s.pend.entries().count() as u64 * 24;
    b += s.pend.cleared_entries().count() as u64 * 8;
    for fr in &s.frames {
        b += fr.local.len() as u64 * 12 + fr.bnd_funcs.len() as u64 * 4;
        b += fr.bnd_marks.len() as u64 * 8 + 8;
    }
    b
}

// ---------------------------------------------------------------------
// Summary (de)serialization for the on-disk cache
// ---------------------------------------------------------------------

fn put_cond(out: &mut Vec<u8>, c: Cond) {
    match c {
        Cond::False => out.push(0),
        Cond::True => out.push(1),
        Cond::Node(n) => {
            out.push(2);
            put_varint(out, n as u64);
        }
    }
}

fn get_cond(r: &mut ByteReader<'_>) -> Result<Cond, TraceIoError> {
    Ok(match r.u8()? {
        0 => Cond::False,
        1 => Cond::True,
        2 => Cond::Node(r.varint()? as u32),
        _ => return Err(TraceIoError::Format("bad cond tag".into())),
    })
}

fn put_addr_set(out: &mut Vec<u8>, s: &AddrSet) {
    put_varint(out, s.interval_count() as u64);
    for (lo, hi) in s.iter() {
        put_varint(out, lo);
        put_varint(out, hi);
    }
}

fn get_addr_set(r: &mut ByteReader<'_>) -> Result<AddrSet, TraceIoError> {
    let n = r.varint()? as usize;
    let mut set = AddrSet::new();
    for _ in 0..n {
        let lo = r.varint()?;
        let hi = r.varint()?;
        if hi < lo {
            return Err(TraceIoError::Format("inverted interval".into()));
        }
        for_run_chunks(lo, hi, |range| set.insert(range));
    }
    Ok(set)
}

fn encode_summary(out: &mut Vec<u8>, s: &SegSummary) {
    put_varint(out, s.lo as u64);
    put_varint(out, s.hi as u64);
    put_varint(out, s.nodes.len() as u64);
    for &node in &s.nodes {
        match node {
            Node::Mem(range) => {
                out.push(0);
                put_varint(out, range.start().raw());
                put_varint(out, range.len() as u64);
            }
            Node::Reg(t, set) => {
                out.push(1);
                out.push(t.0);
                out.extend_from_slice(&set.bits().to_le_bytes());
            }
            Node::Pend((t, f, pc)) => {
                out.push(2);
                out.push(t.0);
                put_varint(out, f.index() as u64);
                put_varint(out, pc.0 as u64);
            }
            Node::Frame(t, slot) => {
                out.push(3);
                out.push(t.0);
                put_varint(out, slot as u64);
            }
            Node::Or(a, b) => {
                out.push(4);
                put_varint(out, a as u64);
                put_varint(out, b as u64);
            }
        }
    }
    put_varint(out, s.bitmap.len() as u64);
    for &w in &s.bitmap {
        out.extend_from_slice(&w.to_le_bytes());
    }
    put_varint(out, s.members.len() as u64);
    for &(rel, node) in &s.members {
        put_varint(out, rel as u64);
        put_varint(out, node as u64);
    }
    put_addr_set(out, &s.conc_mem);
    put_addr_set(out, &s.touched);
    put_varint(out, s.cond_mem.len() as u64);
    for &(lo, hi, atom, node) in &s.cond_mem {
        put_varint(out, lo);
        put_varint(out, hi);
        out.push(atom as u8);
        put_varint(out, node as u64);
    }
    put_varint(out, s.conc_regs.len() as u64);
    for set in &s.conc_regs {
        out.extend_from_slice(&set.bits().to_le_bytes());
    }
    put_varint(out, s.reg_cells.len() as u64);
    for &cell in &s.reg_cells {
        match cell {
            RegCell::Untouched => out.push(0),
            RegCell::Dead => out.push(1),
            RegCell::Live => out.push(2),
            RegCell::Cond { atom, node } => {
                out.push(3);
                out.push(atom as u8);
                put_varint(out, node as u64);
            }
        }
    }
    let pend_entries: Vec<_> = s.pend.entries().collect();
    put_varint(out, pend_entries.len() as u64);
    for (&(t, f, pc), &c) in pend_entries {
        out.push(t.0);
        put_varint(out, f.index() as u64);
        put_varint(out, pc.0 as u64);
        put_cond(out, c);
    }
    let cleared: Vec<_> = s.pend.cleared_entries().collect();
    put_varint(out, cleared.len() as u64);
    for &(t, f) in cleared {
        out.push(t.0);
        put_varint(out, f.index() as u64);
    }
    put_varint(out, s.frames.len() as u64);
    for fr in &s.frames {
        put_varint(out, fr.local.len() as u64);
        for &(f, c) in &fr.local {
            put_varint(out, f.index() as u64);
            put_cond(out, c);
        }
        put_varint(out, fr.bnd_funcs.len() as u64);
        for f in &fr.bnd_funcs {
            put_varint(out, f.index() as u64);
        }
        put_varint(out, fr.bnd_popped as u64);
        put_varint(out, fr.bnd_marks.len() as u64);
        for &c in &fr.bnd_marks {
            put_cond(out, c);
        }
    }
}

fn decode_summary(r: &mut ByteReader<'_>) -> Result<SegSummary, TraceIoError> {
    let lo = r.varint()? as usize;
    let hi = r.varint()? as usize;
    let n_nodes = r.varint()? as usize;
    let mut nodes = Vec::with_capacity(n_nodes.min(1 << 22));
    for _ in 0..n_nodes {
        nodes.push(match r.u8()? {
            0 => {
                let start = r.varint()?;
                let len = r.varint()?;
                let len = u32::try_from(len)
                    .map_err(|_| TraceIoError::Format("range too long".into()))?;
                Node::Mem(AddrRange::new(Addr::new(start), len))
            }
            1 => {
                let t = ThreadId(r.u8()?);
                Node::Reg(t, RegSet::from_bits(r.u16()?))
            }
            2 => {
                let t = ThreadId(r.u8()?);
                let f = FuncId(r.varint()? as u32);
                let pc = Pc(r.varint()? as u32);
                Node::Pend((t, f, pc))
            }
            3 => {
                let t = ThreadId(r.u8()?);
                Node::Frame(t, r.varint()? as u32)
            }
            4 => Node::Or(r.varint()? as u32, r.varint()? as u32),
            _ => return Err(TraceIoError::Format("bad node tag".into())),
        });
    }
    let n_bitmap = r.varint()? as usize;
    let mut bitmap = Vec::with_capacity(n_bitmap.min(1 << 22));
    for _ in 0..n_bitmap {
        bitmap.push(r.u64()?);
    }
    let n_members = r.varint()? as usize;
    let mut members = Vec::with_capacity(n_members.min(1 << 22));
    for _ in 0..n_members {
        members.push((r.varint()? as u32, r.varint()? as u32));
    }
    let conc_mem = get_addr_set(r)?;
    let touched = get_addr_set(r)?;
    let n_spans = r.varint()? as usize;
    let mut cond_mem = Vec::with_capacity(n_spans.min(1 << 22));
    for _ in 0..n_spans {
        let lo = r.varint()?;
        let hi = r.varint()?;
        let atom = r.u8()? != 0;
        let node = r.varint()? as u32;
        cond_mem.push((lo, hi, atom, node));
    }
    let n_regs = r.varint()? as usize;
    if n_regs != NTHREADS {
        return Err(TraceIoError::Format("bad reg table size".into()));
    }
    let mut conc_regs = Vec::with_capacity(n_regs);
    for _ in 0..n_regs {
        conc_regs.push(RegSet::from_bits(r.u16()?));
    }
    let n_cells = r.varint()? as usize;
    let mut reg_cells = Vec::with_capacity(n_cells.min(1 << 16));
    for _ in 0..n_cells {
        reg_cells.push(match r.u8()? {
            0 => RegCell::Untouched,
            1 => RegCell::Dead,
            2 => RegCell::Live,
            3 => {
                let atom = r.u8()? != 0;
                RegCell::Cond {
                    atom,
                    node: r.varint()? as u32,
                }
            }
            _ => return Err(TraceIoError::Format("bad reg cell tag".into())),
        });
    }
    let mut pend: PendingTransfer<Cond> = PendingTransfer::default();
    let n_pend = r.varint()? as usize;
    for _ in 0..n_pend {
        let t = ThreadId(r.u8()?);
        let f = FuncId(r.varint()? as u32);
        let pc = Pc(r.varint()? as u32);
        let c = get_cond(r)?;
        pend.set((t, f, pc), c);
    }
    let n_cleared = r.varint()? as usize;
    for _ in 0..n_cleared {
        let t = ThreadId(r.u8()?);
        let f = FuncId(r.varint()? as u32);
        pend.mark_cleared(t, f);
    }
    let n_frames = r.varint()? as usize;
    if n_frames != NTHREADS {
        return Err(TraceIoError::Format("bad frame table size".into()));
    }
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        let n_local = r.varint()? as usize;
        let mut local = Vec::with_capacity(n_local.min(1 << 16));
        for _ in 0..n_local {
            let f = FuncId(r.varint()? as u32);
            local.push((f, get_cond(r)?));
        }
        let n_bnd = r.varint()? as usize;
        let mut bnd_funcs = Vec::with_capacity(n_bnd.min(1 << 16));
        for _ in 0..n_bnd {
            bnd_funcs.push(FuncId(r.varint()? as u32));
        }
        let bnd_popped = r.varint()? as usize;
        let n_marks = r.varint()? as usize;
        let mut bnd_marks = Vec::with_capacity(n_marks.min(1 << 16));
        for _ in 0..n_marks {
            bnd_marks.push(get_cond(r)?);
        }
        frames.push(SegFrames {
            local,
            bnd_funcs,
            bnd_popped,
            bnd_marks,
        });
    }
    Ok(SegSummary {
        lo,
        hi,
        nodes,
        bitmap,
        members,
        conc_mem,
        touched,
        cond_mem,
        conc_regs,
        reg_cells,
        pend,
        frames,
    })
}
