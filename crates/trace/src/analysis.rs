//! Pluggable fused streaming-analysis framework.
//!
//! The paper's characterization pipeline is a family of trace analyses —
//! well-formedness lints, a race detector, waste categorization,
//! utilization views — and each used to be its own full sweep over the
//! columns. This module generalizes the checker's shared-sweep idea into a
//! public, Wasabi-style analysis API (PAPERS.md):
//!
//! * every analysis implements [`TraceAnalysis`] and *declares* what it
//!   reads as a [`Subscription`] — a [`ColumnMask`] over the per-column
//!   streams plus optional derived events (call/ret frames, syscalls);
//! * an [`AnalysisDriver`] fuses any set of registered analyses into ONE
//!   sweep over any [`ColumnSource`]: packed in-memory [`Columns`] or a
//!   `WPTRACE2` [`TraceReader`](crate::TraceReader)'s chunk stream;
//! * on the streamed path the driver narrows the reader's decode mask to
//!   the union of all subscriptions, so column streams nobody subscribed
//!   to are *skipped, not decompressed* (see
//!   [`decode_segment_masked`](crate::segment::decode_segment_masked)).
//!
//! The subscription is a contract, not a hint: an analysis must only read
//! the columns (and derived events) it declared. On the masked streamed
//! path an undeclared column decodes to default values, so a misdeclared
//! analysis diverges from its in-memory run — exactly what the
//! differential tests compare to catch it.

use crate::columns::{ColumnCursor, Columns};
use crate::func::{FuncId, FunctionRegistry};
use crate::instr::InstrKind;
use crate::source::ColumnSource;
use crate::syscall::Syscall;
use crate::thread::ThreadTable;
use crate::trace::{MarkerRecord, Trace};

/// Bitmask over the trace's per-instruction column groups (plus the
/// footer-resident marker table). Each bit maps to the column streams a
/// `WPTRACE2` segment stores for that group, so the streamed driver can
/// translate a subscription union directly into decode-or-skip decisions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ColumnMask(u16);

impl ColumnMask {
    /// No columns at all (an analysis that only counts instructions).
    pub const NONE: ColumnMask = ColumnMask(0);
    /// Kind tags and payloads (branch direction, callee, syscall number).
    pub const KINDS: ColumnMask = ColumnMask(1 << 0);
    /// Executing thread ids.
    pub const TIDS: ColumnMask = ColumnMask(1 << 1);
    /// Enclosing function ids.
    pub const FUNCS: ColumnMask = ColumnMask(1 << 2);
    /// Static PCs.
    pub const PCS: ColumnMask = ColumnMask(1 << 3);
    /// Register read/write bitsets.
    pub const REGSETS: ColumnMask = ColumnMask(1 << 4);
    /// Memory operand counts, addresses, and lengths.
    pub const OPERANDS: ColumnMask = ColumnMask(1 << 5);
    /// The marker (tile-log) table. Markers live in the `WPTRACE2` footer,
    /// not in segment payloads, so this bit never costs segment decoding —
    /// it documents that the analysis reads `ctx.markers`.
    pub const MARKERS: ColumnMask = ColumnMask(1 << 6);
    /// Every column group.
    pub const ALL: ColumnMask = ColumnMask(0x7f);
    /// The groups a `WPTRACE2` segment payload stores: all but
    /// [`ColumnMask::MARKERS`].
    pub const SEGMENT: ColumnMask = ColumnMask(0x3f);

    /// Union of two masks.
    pub const fn union(self, other: ColumnMask) -> ColumnMask {
        ColumnMask(self.0 | other.0)
    }

    /// The groups present in both masks.
    pub const fn intersection(self, other: ColumnMask) -> ColumnMask {
        ColumnMask(self.0 & other.0)
    }

    /// True if every group of `other` is present in `self`.
    pub const fn contains(self, other: ColumnMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no group is selected.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw bit representation (stable across runs; used in bench output).
    pub const fn bits(self) -> u16 {
        self.0
    }
}

/// What one analysis reads from the trace: a column mask plus the event
/// callbacks it wants dispatched.
///
/// Derived events (calls, rets, syscalls) are decoded from the kind
/// column, so subscribing to any of them implicitly pulls
/// [`ColumnMask::KINDS`] into the effective decode mask.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Subscription {
    /// Column groups the analysis reads through the cursor.
    pub columns: ColumnMask,
    /// Dispatch [`TraceAnalysis::on_instr`] for every instruction.
    pub instructions: bool,
    /// Dispatch [`TraceAnalysis::on_call`] for every call instruction.
    pub calls: bool,
    /// Dispatch [`TraceAnalysis::on_ret`] for every return instruction.
    pub rets: bool,
    /// Dispatch [`TraceAnalysis::on_syscall`] for every syscall.
    pub syscalls: bool,
}

impl Subscription {
    /// The common shape: `on_instr` for every instruction, reading
    /// `columns`.
    pub const fn instructions(columns: ColumnMask) -> Subscription {
        Subscription {
            columns,
            instructions: true,
            calls: false,
            rets: false,
            syscalls: false,
        }
    }

    /// Union of two subscriptions (columns and events).
    pub const fn union(self, other: Subscription) -> Subscription {
        Subscription {
            columns: self.columns.union(other.columns),
            instructions: self.instructions | other.instructions,
            calls: self.calls | other.calls,
            rets: self.rets | other.rets,
            syscalls: self.syscalls | other.syscalls,
        }
    }

    /// The columns a driver must actually decode to honor this
    /// subscription: the declared mask, plus [`ColumnMask::KINDS`] when
    /// any derived event is requested.
    pub const fn effective_columns(self) -> ColumnMask {
        if self.calls | self.rets | self.syscalls {
            self.columns.union(ColumnMask::KINDS)
        } else {
            self.columns
        }
    }
}

/// Shared read-only context handed to every analysis callback.
///
/// `wasteprof-checker`'s lint context is this exact type (re-exported as
/// `Ctx` there), so lints and external analyses read the trace through one
/// vocabulary.
pub struct AnalysisCtx<'a> {
    /// The symbol table (function id → name).
    pub funcs: &'a FunctionRegistry,
    /// The thread table.
    pub threads: &'a ThreadTable,
    /// The marker (tile-log) records.
    pub markers: &'a [MarkerRecord],
    /// Cursor over the packed columns. During per-instruction callbacks it
    /// always contains the current index; during `begin`/`finish` it is
    /// empty.
    pub cols: ColumnCursor<'a>,
    /// Total instruction count of the trace under analysis. Unlike the
    /// cursor bounds, this is valid in every callback.
    pub total: usize,
}

/// A streaming analysis over one trace.
///
/// Analyses are driven front to back: `begin`, then the subscribed event
/// callbacks for every index in `0..ctx.total` in program order, then
/// `finish`. On an instruction that is both an instruction and a derived
/// event (every call/ret/syscall is), `on_instr` fires before the derived
/// callback. Analyses must only read what their [`Subscription`] declares,
/// and must only touch `ctx.cols` at indices inside the cursor's window —
/// end-of-trace reporting works from state captured during the sweep.
pub trait TraceAnalysis {
    /// Stable analysis name, used in registry listings and `trace_tool
    /// analyze --analyses`.
    fn name(&self) -> &'static str;

    /// What this analysis reads; the driver unions these across all
    /// registered analyses to choose the decode mask.
    fn subscription(&self) -> Subscription;

    /// Called once before the sweep; allocate per-trace state here.
    fn begin(&mut self, _ctx: &AnalysisCtx<'_>) {}

    /// Called for every instruction index when subscribed.
    fn on_instr(&mut self, _ctx: &AnalysisCtx<'_>, _idx: usize) {}

    /// Called for every call instruction when subscribed.
    fn on_call(&mut self, _ctx: &AnalysisCtx<'_>, _idx: usize, _callee: FuncId) {}

    /// Called for every return instruction when subscribed.
    fn on_ret(&mut self, _ctx: &AnalysisCtx<'_>, _idx: usize) {}

    /// Called for every syscall instruction when subscribed.
    fn on_syscall(&mut self, _ctx: &AnalysisCtx<'_>, _idx: usize, _nr: Syscall) {}

    /// Called once after the last instruction.
    fn finish(&mut self, _ctx: &AnalysisCtx<'_>) {}
}

/// Per-event subscriber index lists, precomputed so the hot loop only
/// walks analyses that actually asked for each event.
struct SubIndex {
    instrs: Vec<usize>,
    calls: Vec<usize>,
    rets: Vec<usize>,
    syscalls: Vec<usize>,
}

impl SubIndex {
    fn dispatches_derived(&self) -> bool {
        !(self.calls.is_empty() && self.rets.is_empty() && self.syscalls.is_empty())
    }
}

/// Fuses N registered analyses into one shared sweep.
///
/// The driver borrows each analysis mutably for its own lifetime; after
/// `run`/`run_streamed` returns (and the driver is dropped), callers read
/// results straight out of their analysis values.
#[derive(Default)]
pub struct AnalysisDriver<'d> {
    analyses: Vec<&'d mut dyn TraceAnalysis>,
}

impl<'d> AnalysisDriver<'d> {
    /// An empty driver.
    pub fn new() -> AnalysisDriver<'d> {
        AnalysisDriver::default()
    }

    /// Registers an analysis; callbacks fire in registration order.
    pub fn register(&mut self, analysis: &'d mut dyn TraceAnalysis) {
        self.analyses.push(analysis);
    }

    /// Names of the registered analyses, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.analyses.iter().map(|a| a.name()).collect()
    }

    /// Union of every registered analysis's subscription — what one fused
    /// sweep must decode and dispatch.
    pub fn subscription(&self) -> Subscription {
        self.analyses
            .iter()
            .map(|a| a.subscription())
            .fold(Subscription::default(), Subscription::union)
    }

    fn sub_index(&self) -> SubIndex {
        let mut subs = SubIndex {
            instrs: Vec::new(),
            calls: Vec::new(),
            rets: Vec::new(),
            syscalls: Vec::new(),
        };
        for (k, a) in self.analyses.iter().enumerate() {
            let s = a.subscription();
            if s.instructions {
                subs.instrs.push(k);
            }
            if s.calls {
                subs.calls.push(k);
            }
            if s.rets {
                subs.rets.push(k);
            }
            if s.syscalls {
                subs.syscalls.push(k);
            }
        }
        subs
    }

    /// One fused pass over the cursor's window, dispatching each event to
    /// its subscribers in registration order.
    fn sweep(&mut self, ctx: &AnalysisCtx<'_>, subs: &SubIndex) {
        let derived = subs.dispatches_derived();
        for idx in ctx.cols.lo()..ctx.cols.hi() {
            for &k in &subs.instrs {
                self.analyses[k].on_instr(ctx, idx);
            }
            if derived {
                match ctx.cols.kind(idx) {
                    InstrKind::Call { callee } => {
                        for &k in &subs.calls {
                            self.analyses[k].on_call(ctx, idx, callee);
                        }
                    }
                    InstrKind::Ret => {
                        for &k in &subs.rets {
                            self.analyses[k].on_ret(ctx, idx);
                        }
                    }
                    InstrKind::Syscall { nr } => {
                        for &k in &subs.syscalls {
                            self.analyses[k].on_syscall(ctx, idx, nr);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Runs every registered analysis over the in-memory trace in one
    /// fused sweep: [`AnalysisDriver::run_streamed`] over a resident
    /// source.
    pub fn run(&mut self, trace: &Trace) {
        let Ok(()) = self.run_streamed(&mut { trace });
    }

    /// Runs every registered analysis in one fused sweep over any
    /// [`ColumnSource`]. A `WPTRACE2` reader holds only its bounded chunk
    /// window in memory and *decodes selectively*: for the sweep its
    /// decode mask is narrowed to the subscription union, so column
    /// streams nobody subscribed to are skipped instead of decompressed.
    /// The previous mask is restored before returning.
    ///
    /// `begin` and `finish` see an empty cursor (but the real tables and
    /// `total`) on every source; per-instruction callbacks see a cursor
    /// over the window containing the current index.
    ///
    /// # Errors
    ///
    /// Any read or decode error of the source.
    pub fn run_streamed<S: ColumnSource>(&mut self, src: &mut S) -> Result<(), S::Error> {
        let subs = self.sub_index();
        // The source is borrowed mutably while it streams, so the
        // callbacks read owned copies of its (footer-sized) tables.
        let funcs = src.functions().clone();
        let threads = src.threads().clone();
        let markers = src.markers().to_vec();
        let total = src.len();
        let empty = Columns::default();
        let edge = AnalysisCtx {
            funcs: &funcs,
            threads: &threads,
            markers: &markers,
            cols: empty.cursor(0, 0),
            total,
        };
        for a in &mut self.analyses {
            a.begin(&edge);
        }
        let prev_mask = src.swap_decode_mask(self.subscription().effective_columns());
        // `sweep` walks each window's own bounds.
        let swept = src.stream_range(0, total, |cur| {
            self.sweep(&AnalysisCtx { cols: *cur, ..edge }, &subs)
        });
        src.swap_decode_mask(prev_mask);
        swept?;
        for a in &mut self.analyses {
            a.finish(&edge);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Region;
    use crate::reader::TraceReader;
    use crate::recorder::Recorder;
    use crate::site;
    use crate::thread::ThreadKind;

    /// Counts events per kind; subscribes to everything derived plus tids.
    #[derive(Default)]
    struct Counter {
        instrs: u64,
        calls: u64,
        rets: u64,
        syscalls: u64,
        tid_sum: u64,
        began: u32,
        finished: u32,
    }

    impl TraceAnalysis for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn subscription(&self) -> Subscription {
            Subscription {
                columns: ColumnMask::TIDS,
                instructions: true,
                calls: true,
                rets: true,
                syscalls: true,
            }
        }
        fn begin(&mut self, _ctx: &AnalysisCtx<'_>) {
            self.began += 1;
        }
        fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
            self.instrs += 1;
            self.tid_sum += u64::from(ctx.cols.tid(idx).0);
        }
        fn on_call(&mut self, _ctx: &AnalysisCtx<'_>, _idx: usize, _callee: FuncId) {
            self.calls += 1;
        }
        fn on_ret(&mut self, _ctx: &AnalysisCtx<'_>, _idx: usize) {
            self.rets += 1;
        }
        fn on_syscall(&mut self, _ctx: &AnalysisCtx<'_>, _idx: usize, _nr: Syscall) {
            self.syscalls += 1;
        }
        fn finish(&mut self, _ctx: &AnalysisCtx<'_>) {
            self.finished += 1;
        }
    }

    fn sample_trace() -> Trace {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "main");
        let f = rec.intern_func("f");
        let buf = rec.alloc(Region::Heap, 64);
        rec.in_func(site!(), f, |rec| {
            for _ in 0..10 {
                rec.compute(site!(), &[], &[buf]);
            }
            rec.syscall(site!(), Syscall::Recvfrom, &[], Vec::new(), vec![buf]);
        });
        rec.finish()
    }

    #[test]
    fn mask_union_and_containment() {
        let m = ColumnMask::KINDS.union(ColumnMask::TIDS);
        assert!(m.contains(ColumnMask::KINDS));
        assert!(m.contains(ColumnMask::TIDS));
        assert!(!m.contains(ColumnMask::PCS));
        assert!(ColumnMask::ALL.contains(m));
        assert!(ColumnMask::NONE.is_empty());
    }

    #[test]
    fn derived_events_imply_kinds() {
        let s = Subscription {
            columns: ColumnMask::TIDS,
            calls: true,
            ..Default::default()
        };
        assert!(s.effective_columns().contains(ColumnMask::KINDS));
        let plain = Subscription::instructions(ColumnMask::TIDS);
        assert!(!plain.effective_columns().contains(ColumnMask::KINDS));
    }

    #[test]
    fn driver_dispatches_every_subscribed_event_once() {
        let trace = sample_trace();
        let mut c = Counter::default();
        {
            let mut d = AnalysisDriver::new();
            d.register(&mut c);
            assert_eq!(d.names(), vec!["counter"]);
            assert!(d
                .subscription()
                .effective_columns()
                .contains(ColumnMask::KINDS.union(ColumnMask::TIDS)));
            d.run(&trace);
        }
        assert_eq!(c.instrs, trace.len() as u64);
        assert_eq!((c.began, c.finished), (1, 1));
        assert_eq!(c.calls, 1, "one in_func call frame");
        assert_eq!(c.rets, 1);
        assert_eq!(c.syscalls, 1);
    }

    #[test]
    fn fused_run_equals_solo_runs() {
        let trace = sample_trace();
        let run_solo = || {
            let mut c = Counter::default();
            let mut d = AnalysisDriver::new();
            d.register(&mut c);
            d.run(&trace);
            drop(d);
            (c.instrs, c.calls, c.rets, c.syscalls, c.tid_sum)
        };
        let solo = run_solo();
        let mut a = Counter::default();
        let mut b = Counter::default();
        {
            let mut d = AnalysisDriver::new();
            d.register(&mut a);
            d.register(&mut b);
            d.run(&trace);
        }
        for c in [a, b] {
            assert_eq!((c.instrs, c.calls, c.rets, c.syscalls, c.tid_sum), solo);
        }
    }

    #[test]
    fn empty_driver_union_is_empty() {
        let d = AnalysisDriver::new();
        assert_eq!(d.subscription(), Subscription::default());
        assert!(d.subscription().effective_columns().is_empty());
    }

    /// A tid histogram that deliberately reads only the tid column — used
    /// to pin that a masked streamed run still sees real tids.
    #[derive(Default)]
    struct TidHist {
        counts: Vec<u64>,
    }

    impl TraceAnalysis for TidHist {
        fn name(&self) -> &'static str {
            "tid-hist"
        }
        fn subscription(&self) -> Subscription {
            Subscription::instructions(ColumnMask::TIDS)
        }
        fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
            let t = ctx.cols.tid(idx).0 as usize;
            if self.counts.len() <= t {
                self.counts.resize(t + 1, 0);
            }
            self.counts[t] += 1;
        }
    }

    #[test]
    fn streamed_masked_run_matches_in_memory() {
        let trace = sample_trace();
        let mut mem = TidHist::default();
        {
            let mut d = AnalysisDriver::new();
            d.register(&mut mem);
            d.run(&trace);
        }
        let mut bytes = Vec::new();
        crate::reader::write_trace2(&mut std::io::Cursor::new(&mut bytes), &trace).unwrap();
        let mut reader = TraceReader::open(std::io::Cursor::new(bytes)).unwrap();
        let mut streamed = TidHist::default();
        {
            let mut d = AnalysisDriver::new();
            d.register(&mut streamed);
            d.run_streamed(&mut reader).unwrap();
        }
        assert_eq!(mem.counts, streamed.counts);
        assert_eq!(
            reader.swap_decode_mask(ColumnMask::ALL),
            ColumnMask::ALL,
            "driver restores the reader's mask"
        );
        let stats = reader.decode_stats();
        assert!(
            stats.skipped_stream_bytes > 0,
            "a tids-only subscription must skip column bytes, stats {stats:?}"
        );
    }
}
