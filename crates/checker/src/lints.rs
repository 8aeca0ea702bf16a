//! The six structural well-formedness lints.
//!
//! Each lint checks one invariant the rest of the pipeline silently
//! assumes: balanced call/return nesting (the slicer's call-stack
//! summaries), producer regions written before read (Table 2 liveness),
//! operands confined to one region class (`addr >> REGION_SHIFT` routing),
//! thread ids inside the thread table, marker instructions paired with
//! their tile-log records, and call targets that actually exist. All of
//! them stream over the packed columns; none materializes an `Instr`.

use std::collections::{BTreeMap, HashSet};

use wasteprof_trace::{
    AddrRange, ColumnMask, InstrKind, Region, Subscription, ThreadId, REGION_SHIFT,
};

use crate::diag::{Code, Diag};
use crate::lint::{Ctx, Lint};

/// Resolves a function name, tolerating malformed ids.
fn func_name<'a>(ctx: &Ctx<'a>, id: wasteprof_trace::FuncId) -> &'a str {
    if id.index() < ctx.funcs.len() {
        ctx.funcs.name(id)
    } else {
        "<out of range>"
    }
}

/// True if this instruction's tid indexes past the thread table — such
/// instructions are reported by [`InvalidTidLint`] alone and skipped by
/// every lint that keeps per-thread state.
fn tid_invalid(ctx: &Ctx<'_>, tid: ThreadId) -> bool {
    tid.index() >= ctx.threads.len()
}

/// `WP0002`: every `Ret` must pop a matching `Call` on the same thread,
/// and every non-root frame must be closed by the end of the trace.
#[derive(Default)]
pub struct CallRetLint {
    /// Per-tid stack of open calls: `(position, callee)`. The callee is
    /// captured at push time so `finish` never reaches back into columns
    /// that a streamed run has already evicted.
    stacks: Vec<Vec<(usize, wasteprof_trace::FuncId)>>,
}

impl Lint for CallRetLint {
    fn name(&self) -> &'static str {
        "call-ret"
    }

    fn subscription(&self) -> Subscription {
        // Kinds to see the call/ret stream, tids to keep per-thread
        // stacks, funcs to name the frame in diagnostics.
        Subscription::instructions(
            ColumnMask::KINDS
                .union(ColumnMask::TIDS)
                .union(ColumnMask::FUNCS),
        )
    }

    fn begin(&mut self, ctx: &Ctx<'_>) {
        self.stacks = vec![Vec::new(); ctx.threads.len()];
    }

    fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>) {
        let tid = ctx.cols.tid(idx);
        if tid_invalid(ctx, tid) {
            return;
        }
        match ctx.cols.kind(idx) {
            InstrKind::Call { callee } => self.stacks[tid.index()].push((idx, callee)),
            InstrKind::Ret if self.stacks[tid.index()].pop().is_none() => {
                out.push(Diag::at(
                    Code::UnmatchedCallRet,
                    idx,
                    format!(
                        "ret on tid {} in `{}` with no open call frame",
                        tid.index(),
                        func_name(ctx, ctx.cols.func(idx)),
                    ),
                ));
            }
            _ => {}
        }
    }

    fn finish(&mut self, ctx: &Ctx<'_>, out: &mut Vec<Diag>) {
        for (t, stack) in self.stacks.iter().enumerate() {
            for &(call_idx, callee) in stack {
                out.push(Diag::at(
                    Code::UnmatchedCallRet,
                    call_idx,
                    format!(
                        "call to `{}` on tid {t} never returns before the trace ends",
                        func_name(ctx, callee),
                    ),
                ));
            }
        }
    }
}

/// Byte-interval coverage set: merged, non-overlapping `[start, end)`
/// intervals keyed by start.
#[derive(Default)]
pub(crate) struct Coverage {
    spans: BTreeMap<u64, u64>,
}

impl Coverage {
    /// Marks `[start, end)` as covered, merging with neighbours.
    pub(crate) fn insert(&mut self, start: u64, end: u64) {
        let mut start = start;
        let mut end = end;
        // Absorb a predecessor that reaches into (or touches) the new span.
        if let Some((&s, &e)) = self.spans.range(..=start).next_back() {
            if e >= start {
                if e >= end {
                    return;
                }
                start = s;
                end = end.max(e);
                self.spans.remove(&s);
            }
        }
        // Absorb successors the new span reaches.
        while let Some((&s, &e)) = self.spans.range(start..).next() {
            if s > end {
                break;
            }
            end = end.max(e);
            self.spans.remove(&s);
        }
        self.spans.insert(start, end);
    }

    /// First uncovered byte of `[start, end)`, or `None` if fully covered.
    pub(crate) fn first_gap(&self, start: u64, end: u64) -> Option<u64> {
        let mut at = start;
        while at < end {
            match self.spans.range(..=at).next_back() {
                Some((_, &e)) if e > at => at = e,
                _ => return Some(at),
            }
        }
        None
    }
}

/// `WP0003`: reads of *producer-region* bytes that nothing ever wrote.
///
/// Scoped to the regions with a single well-defined producer — IPC
/// channel payloads, network input, and the framebuffer — where a
/// read-before-write means the consumer ran on garbage. General
/// heap/stack cells are excluded (control cells like locks and flags are
/// legitimately branch-tested before first assignment), and so are pixel
/// tiles: the compositor intentionally samples tiles that have not been
/// rastered yet (checkerboarding), which is a scheduling artifact, not a
/// malformed trace.
pub struct UninitReadLint {
    /// Per-region coverage of written bytes, indexed by `Region::index()`.
    written: Vec<Coverage>,
    scope: &'static [Region],
}

/// Regions whose bytes must be written before any read.
pub const PRODUCER_REGIONS: [Region; 3] = [Region::Channel, Region::Input, Region::Framebuffer];

impl Default for UninitReadLint {
    fn default() -> Self {
        UninitReadLint {
            written: Vec::new(),
            scope: &PRODUCER_REGIONS,
        }
    }
}

impl UninitReadLint {
    fn in_scope(&self, region: Option<Region>) -> bool {
        region.is_some_and(|r| self.scope.contains(&r))
    }
}

impl Lint for UninitReadLint {
    fn name(&self) -> &'static str {
        "uninit-read"
    }

    fn subscription(&self) -> Subscription {
        Subscription::instructions(ColumnMask::OPERANDS.union(ColumnMask::FUNCS))
    }

    fn begin(&mut self, _ctx: &Ctx<'_>) {
        self.written = (0..=Region::ALL.len())
            .map(|_| Coverage::default())
            .collect();
    }

    fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>) {
        // Reads first: a read-modify-write consumes the old bytes before
        // producing new ones, so its read must already be covered.
        for r in ctx.cols.mem_reads(idx) {
            let region = r.start().region();
            if !self.in_scope(region) {
                continue;
            }
            let region = region.expect("in_scope implies a region");
            let cov = &self.written[region.index() as usize];
            if let Some(gap) = cov.first_gap(r.start().raw(), r.end().raw()) {
                out.push(Diag::at(
                    Code::UninitRead,
                    idx,
                    format!(
                        "read of never-written {} byte {:#x} (operand {:#x}+{}) in `{}`",
                        region.name(),
                        gap,
                        r.start().raw(),
                        r.len(),
                        func_name(ctx, ctx.cols.func(idx)),
                    ),
                ));
            }
        }
        for w in ctx.cols.mem_writes(idx) {
            let region = w.start().region();
            if !self.in_scope(region) {
                continue;
            }
            let region = region.expect("in_scope implies a region");
            self.written[region.index() as usize].insert(w.start().raw(), w.end().raw());
        }
    }
}

/// `WP0004`: a memory operand whose first and last byte live in different
/// region classes. Every pass that routes an address by
/// `addr >> REGION_SHIFT` (live sets, Table 2 classification) would split
/// such an operand inconsistently.
#[derive(Default)]
pub struct RegionOverlapLint;

fn spans_regions(r: AddrRange) -> bool {
    let first = r.start().raw() >> REGION_SHIFT;
    let last = (r.end().raw() - 1) >> REGION_SHIFT;
    first != last
}

impl Lint for RegionOverlapLint {
    fn name(&self) -> &'static str {
        "region-overlap"
    }

    fn subscription(&self) -> Subscription {
        Subscription::instructions(ColumnMask::OPERANDS)
    }

    fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>) {
        let reads = ctx.cols.mem_reads(idx);
        let writes = ctx.cols.mem_writes(idx);
        for (dir, ranges) in [("read", reads), ("write", writes)] {
            for r in ranges {
                if spans_regions(*r) {
                    out.push(Diag::at(
                        Code::RegionOverlap,
                        idx,
                        format!(
                            "{dir} operand {:#x}+{} crosses a region-class boundary",
                            r.start().raw(),
                            r.len(),
                        ),
                    ));
                }
            }
        }
    }
}

/// `WP0005`: an instruction attributed to a thread id outside the thread
/// table. Per-thread passes (stack depth, liveness partitions) would
/// silently mix this instruction into the wrong thread or panic.
#[derive(Default)]
pub struct InvalidTidLint;

impl Lint for InvalidTidLint {
    fn name(&self) -> &'static str {
        "invalid-tid"
    }

    fn subscription(&self) -> Subscription {
        Subscription::instructions(ColumnMask::TIDS)
    }

    fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>) {
        let tid = ctx.cols.tid(idx);
        if tid_invalid(ctx, tid) {
            out.push(Diag::at(
                Code::InvalidTid,
                idx,
                format!(
                    "tid {} outside the thread table ({} threads registered)",
                    tid.index(),
                    ctx.threads.len(),
                ),
            ));
        }
    }
}

/// `WP0006`: `Marker` instructions and `MarkerRecord` tile-log entries
/// must pair one-to-one — a marker with no record loses its tile, a
/// record pointing elsewhere corrupts the pixel replay.
#[derive(Default)]
pub struct MarkerPairingLint {
    /// `(position, enclosing func)` of `Marker` instructions seen in the
    /// sweep. The func is captured live so `finish` can name it without
    /// random access back into the columns.
    marker_positions: Vec<(usize, wasteprof_trace::FuncId)>,
}

impl Lint for MarkerPairingLint {
    fn name(&self) -> &'static str {
        "marker-pairing"
    }

    fn subscription(&self) -> Subscription {
        Subscription::instructions(
            ColumnMask::KINDS
                .union(ColumnMask::FUNCS)
                .union(ColumnMask::MARKERS),
        )
    }

    fn begin(&mut self, _ctx: &Ctx<'_>) {
        self.marker_positions.clear();
    }

    fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, _out: &mut Vec<Diag>) {
        if matches!(ctx.cols.kind(idx), InstrKind::Marker) {
            self.marker_positions.push((idx, ctx.cols.func(idx)));
        }
    }

    fn finish(&mut self, ctx: &Ctx<'_>, out: &mut Vec<Diag>) {
        let len = ctx.total;
        // The instruction at `pos` is a marker iff the sweep recorded it.
        let marker_at: HashSet<usize> = self.marker_positions.iter().map(|&(p, _)| p).collect();
        let mut record_at: HashSet<usize> = HashSet::new();
        for rec in ctx.markers {
            let pos = rec.pos.index();
            if pos >= len {
                out.push(Diag::at_end(
                    Code::UnpairedMarker,
                    format!("marker record points past the trace (pos {pos}, len {len})"),
                ));
                continue;
            }
            if !marker_at.contains(&pos) {
                out.push(Diag::at(
                    Code::UnpairedMarker,
                    pos,
                    "marker record points at a non-marker instruction".to_owned(),
                ));
                continue;
            }
            if !record_at.insert(pos) {
                out.push(Diag::at(
                    Code::UnpairedMarker,
                    pos,
                    "duplicate marker records for one marker instruction".to_owned(),
                ));
            }
        }
        for &(pos, func) in &self.marker_positions {
            if !record_at.contains(&pos) {
                out.push(Diag::at(
                    Code::UnpairedMarker,
                    pos,
                    format!(
                        "marker instruction in `{}` has no tile-log record",
                        func_name(ctx, func),
                    ),
                ));
            }
        }
    }
}

/// `WP0007`: call targets must be real function entries — inside the
/// symbol table *and* executing at least one instruction somewhere in the
/// trace. A callee id that never appears in the func column is a branch
/// into nothing (the indirect-call-target analogue of a wild jump).
#[derive(Default)]
pub struct UndefinedCalleeLint {
    /// `seen[f]` — function `f` executes at least one instruction.
    seen: Vec<bool>,
    /// callee id → first call site, for targets not yet seen executing.
    pending: BTreeMap<u32, usize>,
}

impl Lint for UndefinedCalleeLint {
    fn name(&self) -> &'static str {
        "undefined-callee"
    }

    fn subscription(&self) -> Subscription {
        Subscription::instructions(ColumnMask::KINDS.union(ColumnMask::FUNCS))
    }

    fn begin(&mut self, ctx: &Ctx<'_>) {
        self.seen = vec![false; ctx.funcs.len()];
        self.pending.clear();
    }

    fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>) {
        let func = ctx.cols.func(idx);
        if func.index() < self.seen.len() {
            self.seen[func.index()] = true;
        }
        if let InstrKind::Call { callee } = ctx.cols.kind(idx) {
            if callee.index() >= ctx.funcs.len() {
                out.push(Diag::at(
                    Code::UndefinedCallee,
                    idx,
                    format!(
                        "call target id {} outside the symbol table ({} functions)",
                        callee.index(),
                        ctx.funcs.len(),
                    ),
                ));
            } else {
                self.pending.entry(callee.0).or_insert(idx);
            }
        }
    }

    fn finish(&mut self, ctx: &Ctx<'_>, out: &mut Vec<Diag>) {
        for (&callee, &first_idx) in &self.pending {
            if !self.seen[callee as usize] {
                out.push(Diag::at(
                    Code::UndefinedCallee,
                    first_idx,
                    format!(
                        "call target `{}` never executes an instruction",
                        ctx.funcs.name(wasteprof_trace::FuncId(callee)),
                    ),
                ));
            }
        }
    }
}

/// One tracked producer-region span: who wrote it last and whether any
/// read consumed it since.
#[derive(Clone, Copy)]
struct DeadSpan {
    end: u64,
    writer: usize,
    read: bool,
}

/// `WP0012`: a write to a single-producer region (IPC channel, network
/// input, framebuffer) overwritten before any read — the simplest
/// unnecessary computation the paper motivates: the producer paid for
/// bytes no consumer ever looked at.
///
/// This is a *waste metric*, not a malformation, so it is not part of
/// [`crate::verify`]'s default battery (canonical sessions legitimately
/// contain dead producer writes); run it via [`crate::dead_writes`].
/// Bytes still unread when the trace ends are not reported — the final
/// frame and unconsumed channel tails are ordinary shutdown state.
#[derive(Default)]
pub struct DeadWriteLint {
    /// Disjoint `[start, end)` spans of producer bytes, keyed by start.
    spans: BTreeMap<u64, DeadSpan>,
}

fn in_producer(r: AddrRange) -> bool {
    r.start()
        .region()
        .is_some_and(|reg| PRODUCER_REGIONS.contains(&reg))
}

impl DeadWriteLint {
    /// Splits any span straddling `at` so no span crosses it.
    fn split_at(&mut self, at: u64) {
        let split = match self.spans.range(..at).next_back() {
            Some((&s, sp)) if sp.end > at => Some((s, *sp)),
            _ => None,
        };
        if let Some((s, sp)) = split {
            self.spans.get_mut(&s).expect("entry just observed").end = at;
            self.spans.insert(at, DeadSpan { end: sp.end, ..sp });
        }
    }
}

impl Lint for DeadWriteLint {
    fn name(&self) -> &'static str {
        "dead-write"
    }

    fn subscription(&self) -> Subscription {
        Subscription::instructions(ColumnMask::OPERANDS.union(ColumnMask::FUNCS))
    }

    fn begin(&mut self, _ctx: &Ctx<'_>) {
        self.spans.clear();
    }

    fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>) {
        // Reads first: a read-modify-write consumes the old bytes.
        for r in ctx.cols.mem_reads(idx) {
            if !in_producer(*r) {
                continue;
            }
            let (lo, hi) = (r.start().raw(), r.end().raw());
            self.split_at(lo);
            self.split_at(hi);
            for (_, sp) in self.spans.range_mut(lo..hi) {
                sp.read = true;
            }
        }
        for w in ctx.cols.mem_writes(idx) {
            if !in_producer(*w) {
                continue;
            }
            let region = w.start().region().expect("in_producer implies a region");
            let (lo, hi) = (w.start().raw(), w.end().raw());
            self.split_at(lo);
            self.split_at(hi);
            let doomed: Vec<u64> = self.spans.range(lo..hi).map(|(&s, _)| s).collect();
            let mut dead: Vec<usize> = Vec::new();
            for s in doomed {
                let sp = self.spans.remove(&s).expect("span just listed");
                if !sp.read && sp.writer != idx && !dead.contains(&sp.writer) {
                    dead.push(sp.writer);
                }
            }
            for wpos in dead {
                out.push(Diag::at(
                    Code::DeadWrite,
                    wpos,
                    format!(
                        "{} bytes never read before being overwritten at {} in `{}`",
                        region.name(),
                        wasteprof_trace::TracePos(idx as u64),
                        func_name(ctx, ctx.cols.func(idx)),
                    ),
                ));
            }
            self.spans.insert(
                lo,
                DeadSpan {
                    end: hi,
                    writer: idx,
                    read: false,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_and_finds_gaps() {
        let mut cov = Coverage::default();
        cov.insert(10, 20);
        cov.insert(30, 40);
        assert_eq!(cov.first_gap(10, 20), None);
        assert_eq!(cov.first_gap(10, 25), Some(20));
        assert_eq!(cov.first_gap(25, 30), Some(25));
        cov.insert(20, 30); // bridges the two spans
        assert_eq!(cov.first_gap(10, 40), None);
        assert_eq!(cov.spans.len(), 1);
        cov.insert(5, 12); // extends left
        assert_eq!(cov.first_gap(5, 40), None);
        assert_eq!(cov.first_gap(0, 5), Some(0));
    }

    #[test]
    fn coverage_subsumed_insert_is_noop() {
        let mut cov = Coverage::default();
        cov.insert(0, 100);
        cov.insert(10, 20);
        assert_eq!(cov.spans.len(), 1);
        assert_eq!(cov.first_gap(0, 100), None);
    }

    #[test]
    fn dead_write_fires_only_on_unread_overwrite() {
        use wasteprof_trace::{site, Recorder, ThreadKind, TracePos};
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let ch = rec.alloc(Region::Channel, 16);
        let dead = rec.compute(site!(), &[], &[ch]); // overwritten before any read
        rec.compute(site!(), &[], &[ch]); // read before the next overwrite
        rec.compute(site!(), &[ch], &[]);
        rec.compute(site!(), &[], &[ch]); // unread at trace end: not reported
        let trace = rec.finish();
        let diags = crate::dead_writes(&trace);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::DeadWrite);
        // `compute` expands to ALU + store; the store carries the write.
        assert_eq!(diags[0].pos, Some(TracePos(dead.0 + 1)));
    }

    #[test]
    fn region_span_detection() {
        use wasteprof_trace::Addr;
        let heap = Region::Heap.base();
        assert!(!spans_regions(AddrRange::new(heap, 8)));
        let straddle = AddrRange::new(Addr::new(Region::Stack.base().raw() - 4), 8);
        assert!(spans_regions(straddle));
    }
}
