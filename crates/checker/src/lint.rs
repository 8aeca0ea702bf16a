//! The streaming lint framework: one sweep, N analyses.
//!
//! Every analysis implements [`Lint`] and receives the instruction stream
//! exactly once, in program order, reading the packed columns through a
//! [`wasteprof_trace::ColumnCursor`] (no `Instr` materialization on the
//! hot path). A [`Registry`] drives all registered lints behind a single
//! shared cursor, so the cost of running six lints and the race detector
//! together is roughly one pass over the columns instead of seven.
//!
//! Since the fused-analysis refactor the sweep itself lives in
//! [`wasteprof_trace::AnalysisDriver`]: a whole lint battery adapts into
//! ONE [`TraceAnalysis`] (a [`LintBattery`]) and fuses with whatever other
//! analyses share the run — the engine's `analyze` stage registers the
//! verify battery, the dead-write battery, and the figure/table analyses
//! in one driver and sweeps each trace once. The lint context [`Ctx`] *is*
//! [`wasteprof_trace::AnalysisCtx`]: lints and external analyses read the
//! trace through one vocabulary.
//!
//! The battery is written once, against [`ColumnSource`]:
//! [`Registry::run_streamed`] is the body, and [`Registry::run`] is its
//! resident wrapper. A resident trace arrives as one window, a
//! `WPTRACE2` reader as one window per chunk, holding only its bounded
//! chunk window in memory. Lints therefore must only touch `ctx.cols` at
//! the *current* instruction index (or indices inside the cursor's
//! window), and `begin`/`finish` see an empty cursor on every source —
//! end-of-trace reporting works from state captured during the sweep,
//! not by random access back into the columns.

use wasteprof_trace::{AnalysisDriver, ColumnSource, Trace, TraceAnalysis};

use crate::diag::{sort_diags, Diag};
use crate::lints;
use crate::race::RaceLint;

/// Shared read-only context handed to every lint callback.
///
/// This is [`wasteprof_trace::AnalysisCtx`] under a local name: the same
/// `funcs`/`threads`/`markers`/`cols`/`total` fields every fused analysis
/// sees, so a lint is just a diagnostics-emitting analysis.
pub use wasteprof_trace::AnalysisCtx as Ctx;

/// A streaming analysis over one trace.
///
/// Lints are driven front to back: `begin`, then `on_instr` for every
/// index in `0..ctx.total`, then `finish`. Lints must tolerate malformed
/// traces (that is the point of a verifier): guard any per-thread or
/// per-function table indexing rather than assuming ids are in range.
pub trait Lint {
    /// Stable lint name, used in logs and registry listings.
    fn name(&self) -> &'static str;

    /// Called once before the sweep; allocate per-trace state here.
    fn begin(&mut self, _ctx: &Ctx<'_>) {}

    /// Called for every instruction index, in program order.
    fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>);

    /// Called once after the last instruction; report end-of-trace
    /// findings (unclosed frames, never-defined callees) here.
    fn finish(&mut self, _ctx: &Ctx<'_>, _out: &mut Vec<Diag>) {}
}

/// A set of lints sharing one streaming sweep.
#[derive(Default)]
pub struct Registry {
    lints: Vec<Box<dyn Lint>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The full default battery: the race detector plus all six
    /// well-formedness lints. This is what [`crate::verify`] runs.
    pub fn with_default_lints() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(RaceLint::default()));
        r.register(Box::new(lints::CallRetLint::default()));
        r.register(Box::new(lints::UninitReadLint::default()));
        r.register(Box::new(lints::RegionOverlapLint));
        r.register(Box::new(lints::InvalidTidLint));
        r.register(Box::new(lints::MarkerPairingLint::default()));
        r.register(Box::new(lints::UndefinedCalleeLint::default()));
        r
    }

    /// Adds a lint to the battery.
    pub fn register(&mut self, lint: Box<dyn Lint>) {
        self.lints.push(lint);
    }

    /// Borrows the whole battery as ONE fusable [`TraceAnalysis`], so a
    /// caller-owned [`AnalysisDriver`] can sweep it together with other
    /// analyses. Diagnostics accumulate inside the battery; take them with
    /// [`LintBattery::take_diags`] after the driver run.
    pub fn as_analysis(&mut self, name: &'static str) -> LintBattery<'_> {
        LintBattery {
            name,
            lints: &mut self.lints,
            diags: Vec::new(),
        }
    }

    /// Runs every registered lint over the trace in one streaming sweep
    /// and returns the diagnostics in canonical sorted order.
    pub fn run(&mut self, trace: &Trace) -> Vec<Diag> {
        let Ok(diags) = self.run_streamed(&mut { trace });
        diags
    }

    /// [`Registry::run`] over any [`ColumnSource`]: the battery is one
    /// analysis of an [`AnalysisDriver`] sweep, so a `WPTRACE2` reader
    /// holds only its bounded chunk window.
    ///
    /// # Errors
    ///
    /// Any read or decode error of the source.
    pub fn run_streamed<S: ColumnSource>(&mut self, src: &mut S) -> Result<Vec<Diag>, S::Error> {
        let mut battery = self.as_analysis("lints");
        let mut driver = AnalysisDriver::new();
        driver.register(&mut battery);
        let swept = driver.run_streamed(src);
        drop(driver);
        swept?;
        Ok(battery.take_diags())
    }
}

/// A borrowed lint battery adapted into one [`TraceAnalysis`].
///
/// Dispatch inside the battery is the classic nested-loop order
/// (instruction index major, registration order minor), and `finish` sorts
/// canonically — so whether the battery runs alone or fused with other
/// analyses, the diagnostics come out byte-identical.
pub struct LintBattery<'a> {
    name: &'static str,
    lints: &'a mut Vec<Box<dyn Lint>>,
    diags: Vec<Diag>,
}

impl LintBattery<'_> {
    /// The diagnostics accumulated by the last driver run, sorted
    /// canonically; leaves the battery empty for reuse.
    pub fn take_diags(&mut self) -> Vec<Diag> {
        std::mem::take(&mut self.diags)
    }
}

impl TraceAnalysis for LintBattery<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn begin(&mut self, ctx: &Ctx<'_>) {
        self.diags.clear();
        for lint in self.lints.iter_mut() {
            lint.begin(ctx);
        }
    }

    fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize) {
        for lint in self.lints.iter_mut() {
            lint.on_instr(ctx, idx, &mut self.diags);
        }
    }

    fn finish(&mut self, ctx: &Ctx<'_>) {
        for lint in self.lints.iter_mut() {
            lint.finish(ctx, &mut self.diags);
        }
        sort_diags(&mut self.diags);
    }
}
