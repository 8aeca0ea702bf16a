//! The backward pass: liveness-driven dynamic slicing (§III-B).
//!
//! The slicer walks the trace from its end to its beginning, maintaining a
//! live memory set shared by all threads and a live register set per
//! thread. Criteria seed the live sets at their program points. An
//! instruction that writes a live variable joins the slice: its writes
//! leave the live sets and its reads enter them. Branches that slice
//! members are control-dependent on go onto a *pending list*; when the
//! backward pass reaches a pending branch it joins the slice and its
//! condition variables become live. Calls join the slice when any
//! instruction of their dynamic callee did.

use std::collections::HashMap;

use wasteprof_trace::{
    ColumnCursor, ColumnSource, FuncId, InstrKind, Pc, ThreadId, Trace, TracePos,
};

use crate::cdg::ControlDeps;
use crate::cfg::CfgSet;
use crate::criteria::{Criteria, SlicingCriterion};
use crate::live::LiveState;
use crate::witness::{WitnessKind, WitnessRow, Witnesses};

/// The forward pass artifact: the control-dependence relation, reusable
/// across different slicing criteria (§III-A notes the CDG "can be
/// re-used multiple times in the backward pass").
///
/// The CDG is the only artifact kept. The per-function CFGs it is
/// computed from are dropped as soon as it is built; [`CfgSet::build`]
/// rebuilds them for a caller that wants the graphs themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardPass {
    deps: ControlDeps,
}

impl ForwardPass {
    /// Runs the forward pass over `trace`.
    pub fn build(trace: &Trace) -> Self {
        let Ok(pass) = ForwardPass::build_streamed(&mut { trace });
        pass
    }

    /// Runs the forward pass over any [`ColumnSource`]: the CFG fold
    /// consumes one window at a time (a `WPTRACE2` reader never holds the
    /// whole trace), and the control-dependence relation is a function
    /// of the CFGs alone.
    ///
    /// # Errors
    ///
    /// Any read or decode error of the source.
    pub fn build_streamed<S: ColumnSource>(src: &mut S) -> Result<Self, S::Error> {
        let deps = ControlDeps::compute(&CfgSet::build_streamed(src)?);
        Ok(ForwardPass { deps })
    }

    /// The control-dependence relation.
    pub fn control_deps(&self) -> &ControlDeps {
        &self.deps
    }
}

/// Options for one backward slicing run.
///
/// The timeline always holds ~1000 evenly spaced checkpoints and tracks
/// the main thread, as the paper's Figure 4 plots it.
#[derive(Debug, Clone, Default)]
pub struct SliceOptions {
    /// Slice only the prefix `[0, end]` of the trace (criteria after `end`
    /// are ignored). `None` slices the whole trace.
    pub end: Option<TracePos>,
    /// Emit a dependence witness ([`crate::Witnesses`]) alongside the
    /// slice, for independent certification by `wasteprof-checker`: one
    /// row per member that joined for a structural reason (a pending
    /// branch, an `include_instr` criterion anchor, or a call whose frame
    /// holds a later member). Members that joined by kill/gen get no row;
    /// the certifier derives their data edges itself. Off by default (the
    /// experiment engine turns it on).
    pub witness: bool,
}

impl SliceOptions {
    /// A fingerprint covering **every** public option field, used wherever
    /// a computed slice is memoized against its configuration — the
    /// [`crate::SummaryCache`] re-query key and the experiment engine's
    /// session store both derive from this one function, so a new option
    /// field added here (and to the perturbation unit test) can never be
    /// silently ignored by one memo but honored by the other.
    pub fn config_fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = FibHasher::default();
        // Field-order tags keep a value that migrates between fields from
        // fingerprinting identically.
        h.write_u64(0x5EED_C0F1_6001);
        h.write_u8(self.end.is_some() as u8);
        h.write_u64(self.end.map(|p| p.0).unwrap_or(0));
        h.write_u8(self.witness as u8);
        h.finish()
    }
}

/// One checkpoint of the backward pass, for Figure 4-style plots.
///
/// `x = 0` is the *start* of the backward pass (end of the trace); counts
/// are cumulative from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Instructions processed so far (all threads).
    pub processed: u64,
    /// Of those, instructions in the slice.
    pub in_slice: u64,
    /// Instructions of the tracked thread processed so far.
    pub tracked_processed: u64,
    /// Of those, instructions in the slice.
    pub tracked_in_slice: u64,
}

impl TimelinePoint {
    /// Cumulative slice percentage over all threads.
    pub fn fraction(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.in_slice as f64 / self.processed as f64
        }
    }

    /// Cumulative slice percentage of the tracked thread.
    pub fn tracked_fraction(&self) -> f64 {
        if self.tracked_processed == 0 {
            0.0
        } else {
            self.tracked_in_slice as f64 / self.tracked_processed as f64
        }
    }
}

/// The result of a backward slicing run.
///
/// `PartialEq` compares every observable component (bitmap, counts,
/// per-thread/per-func stats, timeline, witness) — the differential tests
/// use it to assert streamed runs are indistinguishable from resident
/// ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceResult {
    pub(crate) considered: u64,
    pub(crate) bitmap: Vec<u64>,
    pub(crate) slice_count: u64,
    pub(crate) per_thread: HashMap<ThreadId, (u64, u64)>,
    pub(crate) per_func: HashMap<FuncId, (u64, u64)>,
    pub(crate) timeline: Vec<TimelinePoint>,
    pub(crate) witness: Option<crate::witness::Witnesses>,
}

impl SliceResult {
    /// True if the instruction at `pos` is part of the slice.
    pub fn contains(&self, pos: TracePos) -> bool {
        let idx = pos.index();
        idx < self.considered as usize && self.bitmap[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// The membership bitmap as 64-bit words: bit `i % 64` of word
    /// `i / 64` is set when position `i` is in the slice. Bits at or past
    /// [`SliceResult::considered`] are clear. A read-only view for
    /// consumers that walk or rank members a word at a time.
    pub fn bitmap_words(&self) -> &[u64] {
        &self.bitmap
    }

    /// Number of instructions in the slice.
    pub fn slice_count(&self) -> u64 {
        self.slice_count
    }

    /// Number of instructions the pass examined.
    pub fn considered(&self) -> u64 {
        self.considered
    }

    /// Slice size as a fraction of examined instructions.
    pub fn fraction(&self) -> f64 {
        if self.considered == 0 {
            0.0
        } else {
            self.slice_count as f64 / self.considered as f64
        }
    }

    /// `(slice, total)` instruction counts of `tid`.
    pub fn thread_stats(&self, tid: ThreadId) -> (u64, u64) {
        self.per_thread.get(&tid).copied().unwrap_or((0, 0))
    }

    /// Iterates over `(tid, slice, total)` for every thread seen.
    pub fn per_thread(&self) -> impl Iterator<Item = (ThreadId, u64, u64)> + '_ {
        self.per_thread.iter().map(|(&t, &(s, n))| (t, s, n))
    }

    /// `(slice, total)` instruction counts of `func`.
    pub fn func_stats(&self, func: FuncId) -> (u64, u64) {
        self.per_func.get(&func).copied().unwrap_or((0, 0))
    }

    /// Iterates over `(func, slice, total)` for every function seen.
    pub fn per_func(&self) -> impl Iterator<Item = (FuncId, u64, u64)> + '_ {
        self.per_func.iter().map(|(&f, &(s, n))| (f, s, n))
    }

    /// Backward-pass checkpoints, in processing order.
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }

    /// The dependence-witness table, if the slice was computed with
    /// [`SliceOptions::witness`] on.
    pub fn witness(&self) -> Option<&crate::witness::Witnesses> {
        self.witness.as_ref()
    }

    /// Replaces the witness table (fault-injection support: differential
    /// tests corrupt one row and hand the result to the certifier).
    pub fn set_witness(&mut self, witness: Option<crate::witness::Witnesses>) {
        self.witness = witness;
    }

    /// Removes `pos` from the slice bitmap and decrements the slice
    /// count, leaving per-thread/per-function stats untouched.
    /// Fault-injection support only — the result is deliberately *not* a
    /// valid slice; the certifier must catch it. Returns false when `pos`
    /// was not a member.
    pub fn remove_member(&mut self, pos: TracePos) -> bool {
        let idx = pos.index();
        if !self.contains(pos) {
            return false;
        }
        self.bitmap[idx / 64] &= !(1u64 << (idx % 64));
        self.slice_count -= 1;
        true
    }

    /// Adds `pos` to the slice bitmap and increments the slice count: the
    /// mirror of [`SliceResult::remove_member`], for fault injection only.
    /// Returns false when `pos` was already a member or lies outside the
    /// considered prefix.
    pub fn insert_member(&mut self, pos: TracePos) -> bool {
        let idx = pos.index();
        if idx >= self.considered as usize || self.contains(pos) {
            return false;
        }
        self.bitmap[idx / 64] |= 1u64 << (idx % 64);
        self.slice_count += 1;
        true
    }

    /// Slice fraction restricted to trace positions `[from, to]`, optionally
    /// restricted to one thread. Used for the paper's load-time-vs-session
    /// comparison (§V-A).
    pub fn fraction_in(
        &self,
        trace: &Trace,
        from: TracePos,
        to: TracePos,
        tid: Option<ThreadId>,
    ) -> f64 {
        let mut total = 0u64;
        let mut hit = 0u64;
        let cols = trace.columns();
        let end = (to.index() + 1).min(self.considered as usize);
        for idx in from.index()..end {
            if tid.is_some_and(|t| t != cols.tid(idx)) {
                continue;
            }
            total += 1;
            if self.contains(TracePos(idx as u64)) {
                hit += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }
}

/// Runs the backward pass over `trace` with the given forward-pass
/// artifacts and criteria.
///
/// # Examples
///
/// ```
/// use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions};
/// use wasteprof_trace::{site, Recorder, Region, ThreadKind};
///
/// let mut rec = Recorder::new();
/// rec.spawn_thread(ThreadKind::Main, "root");
/// let style = rec.alloc_cell(Region::Heap);
/// let tile = rec.alloc(Region::PixelTile, 64);
/// rec.compute(site!(), &[], &[style.into()]); // style := const
/// rec.compute(site!(), &[style.into()], &[tile]); // tile := f(style)
/// rec.marker(site!(), tile);
/// let trace = rec.finish();
///
/// let fwd = ForwardPass::build(&trace);
/// let result = slice(&trace, &fwd, &pixel_criteria(&trace), &SliceOptions::default());
/// assert!(result.fraction() > 0.5); // the whole chain feeds the pixels
/// ```
pub fn slice(
    trace: &Trace,
    forward: &ForwardPass,
    criteria: &Criteria,
    options: &SliceOptions,
) -> SliceResult {
    let Ok(result) = slice_streamed(&mut { trace }, forward, criteria, options);
    result
}

/// [`slice()`] over any [`ColumnSource`]. A `WPTRACE2` reader never
/// holds more than a bounded window of decoded chunks; the result is
/// byte-identical to the resident one.
///
/// One forward sweep finds the calls still open at the cut, then one
/// backward sweep walks the considered prefix; a witness, if requested,
/// is recorded by that walk as its members join.
///
/// # Errors
///
/// Any read or decode error of the source.
pub fn slice_streamed<S: ColumnSource>(
    src: &mut S,
    forward: &ForwardPass,
    criteria: &Criteria,
    options: &SliceOptions,
) -> Result<SliceResult, S::Error> {
    let len = src.len();
    let n = options.end.map_or(len, |e| (e.index() + 1).min(len));
    let mut bw = Backward::new(src.functions().len(), forward, criteria, options, n);
    src.stream_range(0, n, |cur| bw.prescan(cur))?;
    src.stream_range_rev(0, n, |cur| bw.feed(cur))?;
    Ok(bw.finish())
}

/// Multiplicative hasher for the slicer's small fixed-size keys: the
/// pending-branch map, probed once per branch instruction; the
/// control-dependence map, probed once per slice member; and the CFG
/// fold's function slots and PC nodes. The default SipHash would cost
/// more than the lookups it guards.
#[derive(Default)]
pub(crate) struct FibHasher(u64);

impl FibHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl std::hash::Hasher for FibHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The top bits carry the entropy of a multiplicative hash; std's
        // HashSet masks the *low* bits for the bucket index, so fold them
        // down.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

pub(crate) type FibBuild = std::hash::BuildHasherDefault<FibHasher>;

#[derive(Debug, Clone)]
struct Frame {
    /// The function executing in this dynamic frame (needed to decide
    /// whether pending branches of that function may be cleared when the
    /// frame closes — not while a recursive outer invocation is open).
    func: FuncId,
    /// The first member the walk found in this frame (its latest
    /// position): the consumer of the closing call's `Call` row.
    first: Option<u64>,
}

/// The backward walk, restructured around [`Backward::feed`] so the
/// per-instruction step runs over the windows of any [`ColumnSource`].
/// Protocol: [`Backward::prescan`] forward over the whole considered
/// range, then [`Backward::feed`] backward (last window first), then
/// [`Backward::finish`]. With [`SliceOptions::witness`] on, each step
/// also records the structural reason its member joined, read off the
/// walk's own pending map and frames, so the table costs no extra pass.
struct Backward<'a> {
    deps: &'a ControlDeps,
    criteria: &'a [SlicingCriterion],
    n: usize,
    live: LiveState,
    /// Armed branches and the member that armed each (keep-first).
    pending: HashMap<(ThreadId, FuncId, Pc), u64, FibBuild>,
    /// Each thread's dynamic frames, innermost last.
    frames: Vec<Vec<Frame>>,
    bitmap: Vec<u64>,
    slice_count: u64,
    // Dense counters (ThreadId and FuncId indices are sequential): the
    // backward pass bumps these once per instruction, so HashMap probes
    // here would dominate the stats cost on multi-million-entry traces.
    per_thread: Vec<(u64, u64)>,
    per_func: Vec<(u64, u64)>,
    /// Counters of function ids outside the function table (a malformed
    /// trace): rare, so a map on a cold path, never a `Vec` sized by an id
    /// taken from the input.
    stray_funcs: HashMap<FuncId, (u64, u64)>,
    timeline: Vec<TimelinePoint>,
    interval: u64,
    until_checkpoint: u64,
    crit_idx: usize,
    tracked_processed: u64,
    tracked_in_slice: u64,
    /// Witness rows in *descending* member order (reversed by `finish`);
    /// `None` with the witness off.
    rows: Option<Witnesses>,
}

/// The thread the timeline tracks: the paper plots the main thread.
const TRACKED: ThreadId = ThreadId::MAIN;

impl<'a> Backward<'a> {
    fn new(
        nfuncs: usize,
        forward: &'a ForwardPass,
        criteria: &'a Criteria,
        options: &SliceOptions,
        n: usize,
    ) -> Self {
        // ~1000 evenly spaced checkpoints.
        let interval = ((n as u64) / 1000).max(1);
        if options.witness {
            assert!(
                n <= u32::MAX as usize,
                "witness table uses 32-bit positions"
            );
        }
        let criteria = criteria.items();
        // Skip criteria beyond the considered prefix.
        let crit_idx = criteria.partition_point(|c| c.pos.index() < n);
        Backward {
            deps: forward.control_deps(),
            criteria,
            n,
            live: LiveState::new(256),
            pending: HashMap::default(),
            frames: vec![Vec::new(); 256],
            bitmap: vec![0; n.div_ceil(64)],
            slice_count: 0,
            per_thread: vec![(0, 0); 256],
            per_func: vec![(0, 0); nfuncs],
            stray_funcs: HashMap::new(),
            timeline: Vec::new(),
            interval,
            until_checkpoint: interval,
            crit_idx,
            tracked_processed: 0,
            tracked_in_slice: 0,
            rows: options.witness.then(Witnesses::default),
        }
    }

    /// Forward pre-scan over one window: pushes a frame for each call and
    /// pops it at its return, so after the last window each thread's
    /// stack holds the calls still open at the cut — invocations whose
    /// Ret the backward walk never sees (callee identity included: frame
    /// clearing needs it).
    fn prescan(&mut self, cur: &ColumnCursor<'_>) {
        for idx in cur.lo()..cur.hi() {
            let stack = &mut self.frames[cur.tid(idx).index()];
            match cur.kind(idx) {
                InstrKind::Call { callee } => stack.push(Frame {
                    func: callee,
                    first: None,
                }),
                InstrKind::Ret => {
                    stack.pop();
                }
                _ => {}
            }
        }
    }

    /// The `(slice, total)` counters of `func`.
    #[inline]
    fn func_stats(&mut self, func: FuncId) -> &mut (u64, u64) {
        match self.per_func.get_mut(func.index()) {
            Some(stats) => stats,
            None => stray_func_stats(&mut self.stray_funcs, func),
        }
    }

    fn join_slice(&mut self, idx: usize, tid: ThreadId, func: FuncId, pc: Pc) {
        let word = idx / 64;
        let bit = 1u64 << (idx % 64);
        if self.bitmap[word] & bit != 0 {
            return;
        }
        self.bitmap[word] |= bit;
        self.slice_count += 1;
        self.per_thread[tid.index()].0 += 1;
        self.func_stats(func).0 += 1;
        if tid == TRACKED {
            self.tracked_in_slice += 1;
        }
        // Every branch this instruction is control-dependent on must also
        // join the slice: arm the pending list (§III-B — "when the
        // backward pass reaches a branch in the pending list"). Entries
        // are scoped to the thread: control dependence is a path property
        // of one thread's execution, and letting another thread's instance
        // of the same static branch consume the entry would *drop* the
        // true controlling branch (an under-approximation, not a safe
        // over-approximation). The first member to arm an entry is the
        // one its witness row names.
        for &bpc in self.deps.controllers(func, pc) {
            self.pending.entry((tid, func, bpc)).or_insert(idx as u64);
        }
        // The dynamic call that led here becomes necessary too. At a call
        // the callee's frame is already closed, so this is the caller's.
        if let Some(frame) = self.frames[tid.index()].last_mut() {
            frame.first.get_or_insert(idx as u64);
        }
    }

    /// The backward walk over one window, highest indices first. Windows
    /// must arrive in reverse trace order and tile `[0, n)` exactly.
    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        // Stream the columns directly: each step touches only the fields it
        // needs, and operand lists come back as arena slices without any
        // per-instruction materialization. The checkpoint countdown avoids
        // a u64 division on every iteration.
        for idx in cur.rev_indices() {
            let tid = cur.tid(idx);
            let func = cur.func(idx);
            let kind = cur.kind(idx);

            // Totals.
            self.per_thread[tid.index()].1 += 1;
            self.func_stats(func).1 += 1;
            if tid == TRACKED {
                self.tracked_processed += 1;
            }

            // A return means we are entering a dynamic callee (backwards).
            if matches!(kind, InstrKind::Ret) {
                self.frames[tid.index()].push(Frame { func, first: None });
            }
            // A call closes the callee's dynamic frame (backwards) before
            // anything at this position joins, so the call's own
            // membership marks its caller's frame.
            let inner = match kind {
                InstrKind::Call { .. } => self.frames[tid.index()].pop().and_then(|f| f.first),
                _ => None,
            };

            // Apply criteria anchored at this position: their variables are
            // the values *after* this instruction executed.
            let mut anchor = false;
            while self.crit_idx > 0 && self.criteria[self.crit_idx - 1].pos.index() == idx {
                self.crit_idx -= 1;
                let c = &self.criteria[self.crit_idx];
                for &range in &c.mem {
                    self.live.mem.insert(range);
                }
                let regs = self.live.regs_mut(tid);
                *regs = regs.union(c.regs);
                if c.include_instr {
                    anchor = true;
                    self.join_slice(idx, tid, func, cur.pc(idx));
                }
            }

            // Pending branch: joins the slice, its condition becomes live.
            // An anchor armed its controllers above, so a loop head that
            // controls itself consumes its own entry.
            let armer = if kind.is_branch() {
                self.pending.remove(&(tid, func, cur.pc(idx)))
            } else {
                None
            };
            if armer.is_some() {
                self.join_slice(idx, tid, func, cur.pc(idx));
                for &r in cur.mem_reads(idx) {
                    self.live.mem.insert(r);
                }
                let regs = self.live.regs_mut(tid);
                *regs = regs.union(cur.reg_reads(idx));
            } else {
                // Liveness kill/gen: an instruction writing a live variable
                // joins the slice.
                let reg_writes = cur.reg_writes(idx);
                let mem_writes = cur.mem_writes(idx);
                let writes_live_reg = reg_writes.intersects(self.live.regs(tid));
                let writes_live_mem = mem_writes.iter().any(|w| self.live.mem.intersects(*w));
                if writes_live_reg || writes_live_mem {
                    self.live.regs_mut(tid).subtract(reg_writes);
                    for &w in mem_writes {
                        self.live.mem.remove(w);
                    }
                    for &r in cur.mem_reads(idx) {
                        self.live.mem.insert(r);
                    }
                    let regs = self.live.regs_mut(tid);
                    *regs = regs.union(cur.reg_reads(idx));
                    self.join_slice(idx, tid, func, cur.pc(idx));
                }
            }

            if let InstrKind::Call { callee } = kind {
                // If anything inside the callee was necessary, so is the
                // call.
                if inner.is_some() {
                    self.join_slice(idx, tid, func, cur.pc(idx));
                }
                // This invocation is fully processed: its unconsumed
                // pending branches (loop heads re-arm themselves on every
                // iteration, including the first) must not leak into an
                // earlier, unrelated invocation of the same function.
                // With recursion the outer invocation is still open, so
                // only clear when no live frame runs `callee`.
                if !self.frames[tid.index()].iter().any(|f| f.func == callee) {
                    self.pending.retain(|&(t, f, _), _| t != tid || f != callee);
                }
            }

            // The witness row. A consumed pending entry, an anchor and a
            // callee member each joined this position above; the row names
            // the first of them, in that order (DESIGN §9).
            if let Some(rows) = &mut self.rows {
                let reason = if let Some(armer) = armer {
                    Some((WitnessKind::Control, armer))
                } else if anchor {
                    Some((WitnessKind::Criterion, idx as u64))
                } else {
                    inner.map(|inner| (WitnessKind::Call, inner))
                };
                if let Some((kind, consumer)) = reason {
                    rows.push(WitnessRow {
                        member: TracePos(idx as u64),
                        kind,
                        consumer: TracePos(consumer),
                    });
                }
            }

            // Timeline checkpoint.
            self.until_checkpoint -= 1;
            if self.until_checkpoint == 0 || idx == 0 {
                self.timeline.push(TimelinePoint {
                    processed: (self.n - idx) as u64,
                    in_slice: self.slice_count,
                    tracked_processed: self.tracked_processed,
                    tracked_in_slice: self.tracked_in_slice,
                });
                self.until_checkpoint = self.interval;
            }
        }
    }

    fn finish(self) -> SliceResult {
        let witness = self.rows.map(|mut rows| {
            rows.reverse();
            rows
        });
        SliceResult {
            considered: self.n as u64,
            bitmap: self.bitmap,
            slice_count: self.slice_count,
            per_thread: self
                .per_thread
                .iter()
                .enumerate()
                .filter(|(_, &(s, n))| s != 0 || n != 0)
                .map(|(i, &v)| (ThreadId(i as u8), v))
                .collect(),
            per_func: self
                .per_func
                .iter()
                .enumerate()
                .filter(|(_, &(s, n))| s != 0 || n != 0)
                .map(|(i, &v)| (FuncId(i as u32), v))
                .chain(self.stray_funcs)
                .collect(),
            timeline: self.timeline,
            witness,
        }
    }
}

/// The counters of an out-of-table function id, created on first use.
#[cold]
fn stray_func_stats(stray: &mut HashMap<FuncId, (u64, u64)>, func: FuncId) -> &mut (u64, u64) {
    stray.entry(func).or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{pixel_criteria, syscall_criteria, Criteria, SlicingCriterion};
    use wasteprof_trace::{site, AddrRange, Recorder, Region, Syscall, ThreadKind};

    fn run(trace: &Trace, criteria: &Criteria) -> SliceResult {
        let fwd = ForwardPass::build(trace);
        slice(trace, &fwd, criteria, &SliceOptions::default())
    }

    #[test]
    fn config_fingerprint_perturbs_on_every_public_field() {
        // One variant per public field of SliceOptions. When a field is
        // added, this list must grow with it or the assertion below (kept
        // in sync with the struct's field count) fails the build of this
        // test, forcing the fingerprint to cover the new field.
        let base = SliceOptions::default();
        let variants = [
            SliceOptions {
                end: Some(TracePos(0)),
                ..base.clone()
            },
            SliceOptions {
                witness: true,
                ..base.clone()
            },
        ];
        // Exhaustive destructure: field count == variant count.
        let SliceOptions { end: _, witness: _ } = &base;
        assert_eq!(variants.len(), 2);

        let f0 = base.config_fingerprint();
        assert_eq!(f0, SliceOptions::default().config_fingerprint(), "stable");
        let mut seen = vec![f0];
        for (i, v) in variants.iter().enumerate() {
            let f = v.config_fingerprint();
            assert!(
                !seen.contains(&f),
                "variant {i} collides with an earlier fingerprint"
            );
            seen.push(f);
        }
        // None vs Some(end-of-trace 0) must differ even though both leave
        // the considered prefix unchanged on an empty trace.
        assert_ne!(f0, variants[0].config_fingerprint());
    }

    #[test]
    fn empty_criteria_empty_slice() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let a = rec.alloc_cell(Region::Heap);
        rec.compute(site!(), &[], &[a.into()]);
        let trace = rec.finish();
        let r = run(&trace, &Criteria::default());
        assert_eq!(r.slice_count(), 0);
        assert_eq!(r.fraction(), 0.0);
    }

    #[test]
    fn dataflow_chain_is_sliced_dead_code_is_not() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let a = rec.alloc_cell(Region::Heap);
        let b = rec.alloc_cell(Region::Heap);
        let dead = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 64);
        rec.compute(site!(), &[], &[a.into()]); // a := const      (needed)
        let dead_start = rec.pos();
        rec.compute(site!(), &[], &[dead.into()]); // dead := const (waste)
        let dead_end = rec.pos();
        rec.compute(site!(), &[a.into()], &[b.into()]); // b := f(a)  (needed)
        rec.compute(site!(), &[b.into()], &[tile]); // tile := f(b)   (needed)
        rec.marker(site!(), tile);
        let trace = rec.finish();
        let r = run(&trace, &pixel_criteria(&trace));
        // The dead computation must be fully out of the slice.
        for idx in dead_start.index()..dead_end.index() {
            assert!(
                !r.contains(TracePos(idx as u64)),
                "dead instr {idx} in slice"
            );
        }
        // All stores on the live chain must be in.
        for (idx, i) in trace.iter().enumerate() {
            if matches!(i.kind, InstrKind::Store)
                && !(dead_start.index()..dead_end.index()).contains(&idx)
            {
                assert!(r.contains(TracePos(idx as u64)), "live store {idx} missing");
            }
        }
    }

    #[test]
    fn overwritten_value_producer_not_in_slice() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let src1 = rec.alloc_cell(Region::Heap);
        let src2 = rec.alloc_cell(Region::Heap);
        let x = rec.alloc_cell(Region::Heap);
        rec.compute(site!(), &[], &[src1.into()]);
        rec.compute(site!(), &[], &[src2.into()]);
        let first_write_start = rec.pos();
        rec.compute(site!(), &[src1.into()], &[x.into()]); // x := f(src1), killed
        let first_write_end = rec.pos();
        rec.compute(site!(), &[src2.into()], &[x.into()]); // x := f(src2), final
        let crit = Criteria::new(vec![SlicingCriterion::mem_at(
            TracePos(trace_len_hint(&rec)),
            vec![x.into()],
        )]);
        let trace = rec.finish();
        let r = run(&trace, &crit);
        for idx in first_write_start.index()..first_write_end.index() {
            assert!(
                !r.contains(TracePos(idx as u64)),
                "killed def {idx} in slice"
            );
        }
        // src1's producer must be out too (only reached via the killed def).
        assert!(!r.contains(TracePos(1)));
    }

    fn trace_len_hint(rec: &Recorder) -> u64 {
        rec.pos().0 - 1
    }

    #[test]
    fn control_dependence_pulls_branch_and_condition() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let cond = rec.alloc_cell(Region::Heap);
        let x = rec.alloc_cell(Region::Heap);
        let f = rec.intern_func("guarded");
        let cond_def_start = rec.pos();
        rec.compute(site!(), &[], &[cond.into()]); // cond := const
        let br = site!();
        let body = site!();
        let callsite = site!();
        let join = site!();
        let mut br_pos = None;
        rec.in_func(callsite, f, |rec| {
            br_pos = Some(rec.pos());
            rec.branch_mem(br, cond, true);
            rec.compute(body, &[], &[x.into()]); // guarded: x := const
            rec.compute(join, &[], &[]); // join point, nothing written
        });
        // Second invocation takes the other direction so the CFG knows both.
        rec.in_func(callsite, f, |rec| {
            rec.branch_mem(br, cond, false);
            rec.compute(join, &[], &[]);
        });
        let crit = Criteria::new(vec![SlicingCriterion::mem_at(
            TracePos(rec.pos().0 - 1),
            vec![x.into()],
        )]);
        let trace = rec.finish();
        let r = run(&trace, &crit);
        // The branch guarding x's def is in the slice...
        assert!(r.contains(br_pos.unwrap()), "guarding branch not in slice");
        // ...and so is the computation producing its condition.
        let cond_store = (cond_def_start.index()..trace.len())
            .find(|&i| {
                matches!(trace.columns().kind(i), InstrKind::Store)
                    && trace.columns().mem_writes(i)[0] == AddrRange::cell(cond)
            })
            .unwrap();
        assert!(
            r.contains(TracePos(cond_store as u64)),
            "condition producer not in slice"
        );
    }

    #[test]
    fn call_joins_slice_when_callee_matters() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let x = rec.alloc_cell(Region::Heap);
        let useful = rec.intern_func("useful");
        let useless = rec.intern_func("useless");
        let junk = rec.alloc_cell(Region::Heap);
        let useful_call = rec.pos();
        rec.in_func(site!(), useful, |rec| {
            rec.compute(site!(), &[], &[x.into()]);
        });
        let useless_call = rec.pos();
        rec.in_func(site!(), useless, |rec| {
            rec.compute(site!(), &[], &[junk.into()]);
        });
        let crit = Criteria::new(vec![SlicingCriterion::mem_at(
            TracePos(rec.pos().0 - 1),
            vec![x.into()],
        )]);
        let trace = rec.finish();
        let r = run(&trace, &crit);
        assert!(
            r.contains(useful_call),
            "call to useful callee missing from slice"
        );
        assert!(
            !r.contains(useless_call),
            "call to useless callee wrongly in slice"
        );
    }

    #[test]
    fn register_liveness_is_per_thread() {
        use wasteprof_trace::{Reg, RegSet};
        let mut rec = Recorder::new();
        let t0 = rec.spawn_thread(ThreadKind::Main, "root");
        let t1 = rec.spawn_thread(ThreadKind::Compositor, "root");
        let out = rec.alloc_cell(Region::Heap);
        // t1 writes rax (its own context) — unrelated.
        rec.switch_to(t1);
        let t1_def = rec.pos();
        rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        // t0 writes rax then stores it to the criterion cell.
        rec.switch_to(t0);
        let t0_def = rec.pos();
        rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        rec.store(site!(), out, Reg::Rax);
        let crit = Criteria::new(vec![SlicingCriterion::mem_at(
            TracePos(rec.pos().0 - 1),
            vec![out.into()],
        )]);
        let trace = rec.finish();
        let r = run(&trace, &crit);
        assert!(r.contains(t0_def), "producing thread's def missing");
        assert!(
            !r.contains(t1_def),
            "other thread's same-register def wrongly in slice"
        );
    }

    #[test]
    fn shared_memory_dataflow_crosses_threads() {
        let mut rec = Recorder::new();
        let t0 = rec.spawn_thread(ThreadKind::Main, "root");
        let t1 = rec.spawn_thread(ThreadKind::Raster(0), "root");
        let shared = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 64);
        rec.switch_to(t0);
        let producer = rec.pos();
        rec.compute(site!(), &[], &[shared.into()]);
        rec.switch_to(t1);
        rec.compute(site!(), &[shared.into()], &[tile]);
        rec.marker(site!(), tile);
        let trace = rec.finish();
        let r = run(&trace, &pixel_criteria(&trace));
        // The main-thread producer feeds the rasterizer through shared
        // memory and must be in the pixel slice.
        let store_idx = (producer.index()..trace.len())
            .find(|&i| matches!(trace.columns().kind(i), InstrKind::Store))
            .unwrap();
        assert!(r.contains(TracePos(store_idx as u64)));
    }

    #[test]
    fn syscall_criteria_pull_payload_producers() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let payload = rec.alloc(Region::Heap, 32);
        let fdcell = rec.alloc_cell(Region::Heap);
        let junk = rec.alloc_cell(Region::Heap);
        let producer = rec.pos();
        rec.compute(site!(), &[], &[payload]);
        let waste = rec.pos();
        rec.compute(site!(), &[], &[junk.into()]);
        let sys = rec.pos();
        rec.syscall(
            site!(),
            Syscall::Sendto,
            &[fdcell.into()],
            vec![payload],
            vec![],
        );
        let trace = rec.finish();
        let r = run(&trace, &syscall_criteria(&trace));
        // The syscall, its argument loads, and the payload producer are in.
        assert!(r.contains(TracePos(trace.len() as u64 - 1)));
        assert!(r.contains(sys), "arg load missing");
        let store_idx = (producer.index()..waste.index())
            .find(|&i| matches!(trace.columns().kind(i), InstrKind::Store))
            .unwrap();
        assert!(
            r.contains(TracePos(store_idx as u64)),
            "payload producer missing"
        );
        // The unrelated computation is out.
        let junk_store = (waste.index()..sys.index())
            .find(|&i| matches!(trace.columns().kind(i), InstrKind::Store))
            .unwrap();
        assert!(!r.contains(TracePos(junk_store as u64)));
    }

    #[test]
    fn bounded_slicing_ignores_later_positions() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let a = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 64);
        let paint = rec.pos();
        rec.compute(site!(), &[a.into()], &[tile]);
        rec.marker(site!(), tile);
        let cut = rec.pos(); // everything after this is ignored
        rec.compute(site!(), &[], &[a.into()]);
        // A second frame: its marker is a criterion past the cut.
        rec.compute(site!(), &[a.into()], &[tile]);
        rec.marker(site!(), tile);
        let trace = rec.finish();
        let fwd = ForwardPass::build(&trace);
        let opts = SliceOptions {
            end: Some(TracePos(cut.0 - 1)),
            ..Default::default()
        };
        let criteria = pixel_criteria(&trace);
        assert_eq!(criteria.len(), 2);
        let r = slice(&trace, &fwd, &criteria, &opts);
        assert_eq!(r.considered(), cut.0);
        // Post-cut instructions can never be members.
        for idx in cut.index()..trace.len() {
            assert!(!r.contains(TracePos(idx as u64)));
        }
        // The criterion past the cut neither seeds the walk nor blocks the
        // one before it: the slice is the one of the earlier criterion
        // alone.
        assert!(r.contains(paint));
        let earlier: Criteria = criteria
            .items()
            .iter()
            .filter(|c| c.pos < cut)
            .cloned()
            .collect();
        assert_eq!(earlier.len(), 1);
        let alone = slice(&trace, &fwd, &earlier, &opts);
        assert_eq!(r.bitmap_words(), alone.bitmap_words());
        assert_eq!(r.slice_count(), alone.slice_count());
    }

    #[test]
    fn timeline_is_monotonic_and_ends_at_full_length() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let tile = rec.alloc(Region::PixelTile, 64);
        for _ in 0..100 {
            rec.compute(site!(), &[], &[tile]);
        }
        rec.marker(site!(), tile);
        let trace = rec.finish();
        let r = run(&trace, &pixel_criteria(&trace));
        let tl = r.timeline();
        assert!(!tl.is_empty());
        for w in tl.windows(2) {
            assert!(w[1].processed > w[0].processed);
            assert!(w[1].in_slice >= w[0].in_slice);
        }
        assert_eq!(tl.last().unwrap().processed, trace.len() as u64);
    }

    #[test]
    fn per_thread_totals_cover_trace() {
        let mut rec = Recorder::new();
        let t0 = rec.spawn_thread(ThreadKind::Main, "root");
        let t1 = rec.spawn_thread(ThreadKind::Io, "root");
        rec.switch_to(t0);
        rec.compute(site!(), &[], &[]);
        rec.switch_to(t1);
        rec.compute(site!(), &[], &[]);
        let trace = rec.finish();
        let r = run(&trace, &Criteria::default());
        let total: u64 = r.per_thread().map(|(_, _, n)| n).sum();
        assert_eq!(total as usize, trace.len());
    }

    #[test]
    fn pending_branch_is_thread_scoped() {
        // Two threads run the same static function; only the thread whose
        // guarded store feeds the criterion may have its branch sliced.
        let mut rec = Recorder::new();
        let t0 = rec.spawn_thread(ThreadKind::Main, "root0");
        let t1 = rec.spawn_thread(ThreadKind::Compositor, "root1");
        let f = rec.intern_func("f");
        let cond = rec.alloc_cell(Region::Heap);
        let x = rec.alloc_cell(Region::Heap);
        let br = site!();
        let guarded = site!();
        let join = site!();

        // t0: taken path, guarded store to x.
        rec.switch_to(t0);
        rec.enter(site!(), f);
        rec.branch_mem(br, cond, true);
        let t0_br = rec.pos().index() - 1;
        rec.compute(guarded, &[], &[x.into()]);
        rec.compute(join, &[], &[]);
        rec.leave(site!());
        // t1: not-taken path (same static branch site).
        rec.switch_to(t1);
        rec.enter(site!(), f);
        rec.branch_mem(br, cond, false);
        let t1_br = rec.pos().index() - 1;
        rec.compute(join, &[], &[]);
        rec.leave(site!());
        let trace = rec.finish();

        let end = TracePos(trace.len() as u64 - 1);
        let criteria = Criteria::new(vec![SlicingCriterion {
            pos: end,
            mem: vec![x.into()],
            regs: wasteprof_trace::RegSet::EMPTY,
            include_instr: false,
        }]);
        let r = run(&trace, &criteria);
        assert!(
            r.contains(TracePos(t0_br as u64)),
            "t0's controlling branch must be in the slice"
        );
        assert!(
            !r.contains(TracePos(t1_br as u64)),
            "t1's unrelated instance of the same static branch must not \
             consume t0's pending entry"
        );
    }

    #[test]
    fn pending_loop_branch_does_not_leak_to_earlier_invocation() {
        // A loop head controls itself, so consuming its pending entry
        // re-arms it. When the invocation's Call closes, leftover entries
        // must not survive into an earlier, unrelated invocation.
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let f = rec.intern_func("f");
        let cond = rec.alloc_cell(Region::Heap);
        let c1 = rec.alloc_cell(Region::Heap);
        let c2 = rec.alloc_cell(Region::Heap);
        let head = site!();
        let body = site!();

        let invocation = |rec: &mut Recorder, cell: wasteprof_trace::Addr| {
            let mut brs = Vec::new();
            rec.enter(site!(), f);
            for _ in 0..2 {
                rec.branch_mem(head, cond, true);
                brs.push(rec.pos().index() - 1);
                rec.compute(body, &[], &[cell.into()]);
            }
            rec.branch_mem(head, cond, false);
            brs.push(rec.pos().index() - 1);
            rec.leave(site!());
            brs
        };
        let inv1 = invocation(&mut rec, c1);
        let inv2 = invocation(&mut rec, c2);
        let trace = rec.finish();

        let end = TracePos(trace.len() as u64 - 1);
        let criteria = Criteria::new(vec![SlicingCriterion {
            pos: end,
            mem: vec![c2.into()],
            regs: wasteprof_trace::RegSet::EMPTY,
            include_instr: false,
        }]);
        let r = run(&trace, &criteria);
        assert!(
            inv2.iter().take(2).any(|&i| r.contains(TracePos(i as u64))),
            "invocation 2's loop branches must join the slice"
        );
        for &i in &inv1 {
            assert!(
                !r.contains(TracePos(i as u64)),
                "invocation 1 loop branch {i} leaked into the slice"
            );
        }
    }

    #[test]
    fn call_rows_name_a_member_of_the_callee_frame() {
        use crate::witness::WitnessKind;
        use wasteprof_trace::{MemOps, Reg, RegSet};
        // Two calls that write a live register themselves, so both join
        // by kill/gen. Only `full`'s callee frame holds a member.
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let g = rec.intern_func("g");
        let (x, out1, out2) = (
            rec.alloc_cell(Region::Heap),
            rec.alloc_cell(Region::Heap),
            rec.alloc_cell(Region::Heap),
        );
        let call = |rec: &mut Recorder| {
            let kind = InstrKind::Call { callee: g };
            let writes = RegSet::of(&[Reg::Rax]);
            rec.raw(site!(), kind, RegSet::EMPTY, writes, MemOps::default())
        };
        let ret = |rec: &mut Recorder| {
            rec.raw(
                site!(),
                InstrKind::Ret,
                RegSet::EMPTY,
                RegSet::EMPTY,
                MemOps::default(),
            )
        };
        let empty = call(&mut rec);
        ret(&mut rec);
        rec.store(site!(), out1, Reg::Rax);
        let full = call(&mut rec);
        rec.alu(site!(), Reg::Rbx, RegSet::EMPTY);
        let inner = rec.store(site!(), x, Reg::Rbx);
        ret(&mut rec);
        rec.store(site!(), out2, Reg::Rax);
        let crit = Criteria::new(vec![SlicingCriterion::mem_at(
            TracePos(rec.pos().0 - 1),
            vec![x.into(), out1.into(), out2.into()],
        )]);
        let trace = rec.finish();
        let fwd = ForwardPass::build(&trace);
        let opts = SliceOptions {
            witness: true,
            ..Default::default()
        };
        let r = slice(&trace, &fwd, &crit, &opts);
        assert!(r.contains(empty) && r.contains(full) && r.contains(inner));
        let w = r.witness().unwrap();
        assert!(
            w.rows().all(|row| row.member != empty),
            "a call whose callee frame holds no member gets no row"
        );
        let row = w.rows().find(|row| row.member == full).unwrap();
        assert_eq!(row.kind, WitnessKind::Call);
        assert_eq!(row.consumer, inner, "the callee's member, not the call");
    }

    #[test]
    fn call_anchored_criterion_includes_enclosing_call() {
        // A criterion anchored on a Call instruction must still propagate
        // slice membership to the *enclosing* dynamic call.
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let g = rec.intern_func("g");
        let h = rec.intern_func("h");
        rec.enter(site!(), g);
        let call_g = rec.pos().index() - 1;
        rec.enter(site!(), h);
        let call_h = rec.pos().index() - 1;
        rec.leave(site!());
        rec.leave(site!());
        let trace = rec.finish();

        let criteria = Criteria::new(vec![SlicingCriterion {
            pos: TracePos(call_h as u64),
            mem: Vec::new(),
            regs: wasteprof_trace::RegSet::EMPTY,
            include_instr: true,
        }]);
        let r = run(&trace, &criteria);
        assert!(
            r.contains(TracePos(call_h as u64)),
            "anchored call in slice"
        );
        assert!(
            r.contains(TracePos(call_g as u64)),
            "enclosing call must join the slice (its callee contains a \
             sliced instruction)"
        );
    }
}
