//! Pluggable fused streaming-analysis framework.
//!
//! The paper's characterization pipeline is a family of trace analyses —
//! well-formedness lints, a race detector, waste categorization,
//! utilization views — and each used to be its own full sweep over the
//! columns. This module generalizes the checker's shared-sweep idea into a
//! public analysis API:
//!
//! * every analysis implements [`TraceAnalysis`]: it *declares* the column
//!   groups it reads as a [`ColumnMask`] and sees every instruction
//!   through one hook, [`TraceAnalysis::on_instr`];
//! * an [`AnalysisDriver`] fuses any set of registered analyses into ONE
//!   sweep over any [`ColumnSource`]: packed in-memory [`Columns`] or a
//!   `WPTRACE2` [`TraceReader`](crate::TraceReader)'s chunk stream;
//! * on the streamed path the driver narrows the reader's decode mask to
//!   the union of all declared masks, so column streams nobody reads are
//!   *skipped, not decompressed* (see
//!   [`decode_segment_masked`](crate::segment::decode_segment_masked)).
//!
//! The mask is a contract, not a hint: an analysis must only read the
//! columns it declared. On the masked streamed path an undeclared column
//! decodes to default values, so a misdeclared analysis diverges from its
//! in-memory run — exactly what the differential tests compare to catch
//! it. The footer tables (`funcs`, `threads`, `markers`) are always there.

use crate::columns::{ColumnCursor, Columns};
use crate::func::FunctionRegistry;
use crate::source::ColumnSource;
use crate::thread::ThreadTable;
use crate::trace::{MarkerRecord, Trace};

/// Bitmask over the trace's per-instruction column groups. Each bit maps
/// to the column streams a `WPTRACE2` segment stores for that group, so the
/// streamed driver can translate a mask union directly into decode-or-skip
/// decisions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ColumnMask(u8);

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
    /// Every column group.
    pub const ALL: ColumnMask = ColumnMask(0x3f);

    /// Union of two masks.
    pub const fn union(self, other: ColumnMask) -> ColumnMask {
        ColumnMask(self.0 | other.0)
    }

    /// True if every group of `other` is present in `self`.
    pub const fn contains(self, other: ColumnMask) -> bool {
        self.0 & other.0 == other.0
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
/// Analyses are driven front to back: `begin`, then `on_instr` for every
/// index in `0..ctx.total` in program order, then `finish`. Analyses must
/// only read the column groups their [`TraceAnalysis::columns`] declares,
/// and must only touch `ctx.cols` at indices inside the cursor's window —
/// end-of-trace reporting works from state captured during the sweep.
pub trait TraceAnalysis {
    /// Stable analysis name, used in registry listings and `trace_tool
    /// analyze --analyses`.
    fn name(&self) -> &'static str;

    /// The column groups this analysis reads; the driver unions these
    /// across all registered analyses to choose the decode mask.
    fn columns(&self) -> ColumnMask;

    /// Called once before the sweep; allocate per-trace state here.
    fn begin(&mut self, _ctx: &AnalysisCtx<'_>) {}

    /// Called for every instruction index, in program order.
    fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize);

    /// Called once after the last instruction.
    fn finish(&mut self, _ctx: &AnalysisCtx<'_>) {}
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

    /// Union of every registered analysis's columns — what one fused
    /// sweep must decode.
    fn columns(&self) -> ColumnMask {
        self.analyses
            .iter()
            .fold(ColumnMask::NONE, |m, a| m.union(a.columns()))
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
    /// decode mask is narrowed to the union of the declared masks, so
    /// column streams nobody reads are skipped instead of decompressed.
    /// The previous mask is restored before returning.
    ///
    /// `begin` and `finish` see an empty cursor (but the real tables and
    /// `total`) on every source; `on_instr` sees a cursor over the window
    /// containing the current index, and each instruction is dispatched
    /// to every analysis in registration order before the next one.
    ///
    /// # Errors
    ///
    /// Any read or decode error of the source.
    pub fn run_streamed<S: ColumnSource>(&mut self, src: &mut S) -> Result<(), S::Error> {
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
        let prev_mask = src.swap_decode_mask(self.columns());
        let analyses = &mut self.analyses;
        let swept = src.stream_range(0, total, |cur| {
            let ctx = AnalysisCtx { cols: *cur, ..edge };
            for idx in cur.lo()..cur.hi() {
                for a in analyses.iter_mut() {
                    a.on_instr(&ctx, idx);
                }
            }
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
    use crate::syscall::Syscall;
    use crate::thread::ThreadKind;

    /// Counts instructions and sums tids; reads only the tid column.
    #[derive(Default)]
    struct Counter {
        instrs: u64,
        tid_sum: u64,
        began: u32,
        finished: u32,
    }

    impl TraceAnalysis for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn columns(&self) -> ColumnMask {
            ColumnMask::TIDS
        }
        fn begin(&mut self, _ctx: &AnalysisCtx<'_>) {
            self.began += 1;
        }
        fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
            self.instrs += 1;
            self.tid_sum += u64::from(ctx.cols.tid(idx).0);
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
        assert_eq!(AnalysisDriver::new().columns(), ColumnMask::NONE);
    }

    #[test]
    fn driver_dispatches_every_instruction_once() {
        let trace = sample_trace();
        let mut c = Counter::default();
        {
            let mut d = AnalysisDriver::new();
            d.register(&mut c);
            assert_eq!(d.columns(), ColumnMask::TIDS);
            d.run(&trace);
        }
        assert_eq!(c.instrs, trace.len() as u64);
        assert_eq!((c.began, c.finished), (1, 1));
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
            (c.instrs, c.tid_sum)
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
            assert_eq!((c.instrs, c.tid_sum), solo);
        }
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
        fn columns(&self) -> ColumnMask {
            ColumnMask::TIDS
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
            "a tids-only mask must skip column bytes, stats {stats:?}"
        );
    }
}
