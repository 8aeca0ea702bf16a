//! Pluggable fused streaming-analysis framework.
//!
//! The paper's characterization pipeline is a family of trace analyses —
//! well-formedness lints, a race detector, waste categorization,
//! utilization views — and each used to be its own full sweep over the
//! columns. This module generalizes the checker's shared-sweep idea into a
//! public analysis API:
//!
//! * every analysis implements [`TraceAnalysis`] and sees every
//!   instruction through one hook, [`TraceAnalysis::on_instr`];
//! * an [`AnalysisDriver`] fuses any set of registered analyses into ONE
//!   sweep over any [`ColumnSource`]: packed in-memory [`Columns`] or a
//!   `WPTRACE2` [`TraceReader`](crate::TraceReader)'s chunk stream.
//!
//! A streamed sweep decodes every column of every chunk and checks each
//! chunk's footer content hash, so an analysis reads the same rows in
//! memory and out of core, and a corrupt chunk fails the sweep. The footer
//! tables (`funcs`, `threads`, `markers`) are always there.

use crate::columns::{ColumnCursor, Columns};
use crate::func::FunctionRegistry;
use crate::source::ColumnSource;
use crate::thread::ThreadTable;
use crate::trace::{MarkerRecord, Trace};

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
/// only touch `ctx.cols` at indices inside the cursor's window —
/// end-of-trace reporting works from state captured during the sweep.
pub trait TraceAnalysis {
    /// Stable analysis name, used in registry listings and `trace_tool
    /// analyze --analyses`.
    fn name(&self) -> &'static str;

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

    /// Runs every registered analysis over the in-memory trace in one
    /// fused sweep: [`AnalysisDriver::run_streamed`] over a resident
    /// source.
    pub fn run(&mut self, trace: &Trace) {
        let Ok(()) = self.run_streamed(&mut { trace });
    }

    /// Runs every registered analysis in one fused sweep over any
    /// [`ColumnSource`]. A `WPTRACE2` reader holds only its bounded chunk
    /// window in memory.
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
        let analyses = &mut self.analyses;
        src.stream_range(0, total, |cur| {
            let ctx = AnalysisCtx { cols: *cur, ..edge };
            for idx in cur.lo()..cur.hi() {
                for a in analyses.iter_mut() {
                    a.on_instr(&ctx, idx);
                }
            }
        })?;
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

    /// Counts instructions and sums tids.
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
    fn driver_dispatches_every_instruction_once() {
        let trace = sample_trace();
        let mut c = Counter::default();
        {
            let mut d = AnalysisDriver::new();
            d.register(&mut c);
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

    /// A tid histogram, to pin that a streamed run sees the tids an
    /// in-memory run sees.
    #[derive(Default)]
    struct TidHist {
        counts: Vec<u64>,
    }

    impl TraceAnalysis for TidHist {
        fn name(&self) -> &'static str {
            "tid-hist"
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
    fn streamed_run_matches_in_memory() {
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
    }
}
