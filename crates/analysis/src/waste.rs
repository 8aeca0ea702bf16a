//! Namespace-based waste categorization per thread (paper Table II × §V-B).
//!
//! The paper's Table II reports *how much* of each important thread is
//! potentially unnecessary; Figure 5 reports *what* the unnecessary
//! instructions do, by namespace. This analysis crosses the two: for every
//! instruction outside the slice it attributes the waste to both the
//! executing thread's role (Main, Compositor, the rasterizer pool) and the
//! function's namespace category, answering "which thread wastes its
//! cycles on what". It is the first analysis written *against* the fused
//! [`TraceAnalysis`] API rather than ported onto it, and runs fused with
//! the lint batteries and figure computations in the engine's `analyze`
//! stage (rendered as `results/table2_waste.txt`).

use wasteprof_slicer::SliceResult;
use wasteprof_trace::{
    AnalysisCtx, AnalysisDriver, ColumnMask, Subscription, ThreadKind, Trace, TraceAnalysis,
    TracePos,
};

use crate::category::{categories_of, Category};
use crate::render::TextTable;

/// Thread-role groups the breakdown reports, in presentation order.
const GROUPS: [&str; 5] = ["All", "Main", "Compositor", "Rasterizers", "Other threads"];

/// One thread-role row: non-slice instruction counts per category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WasteRow {
    /// Thread-role label (`All`, `Main`, `Compositor`, ...).
    pub label: &'static str,
    /// Counts parallel to [`Category::ALL`].
    pub counts: [u64; Category::ALL.len()],
    /// Non-slice instructions whose function had no telling namespace.
    pub uncategorized: u64,
}

impl WasteRow {
    fn empty(label: &'static str) -> WasteRow {
        WasteRow {
            label,
            counts: [0; Category::ALL.len()],
            uncategorized: 0,
        }
    }

    /// Total non-slice instructions attributed to this row.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.uncategorized
    }
}

/// The thread × namespace waste breakdown of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WasteBreakdown {
    /// One row per thread-role group, `All` first.
    pub rows: Vec<WasteRow>,
}

impl WasteBreakdown {
    /// Classifies every non-slice instruction by thread role and
    /// namespace. This is a solo-driver run of [`WasteAnalysis`]; fused
    /// callers register the analysis directly.
    pub fn compute(trace: &Trace, slice: &SliceResult) -> WasteBreakdown {
        let mut analysis = WasteAnalysis::new(slice);
        let mut driver = AnalysisDriver::new();
        driver.register(&mut analysis);
        driver.run(trace);
        drop(driver);
        analysis.into_breakdown()
    }

    /// Renders the breakdown as a fixed-width table: one row per thread
    /// role, one column per category (plus uncategorized and the total).
    pub fn render(&self) -> String {
        let mut header: Vec<String> = vec!["Threads".to_owned()];
        header.extend(Category::ALL.iter().map(|c| c.label().to_owned()));
        header.push("Uncategorized".to_owned());
        header.push("Total".to_owned());
        let mut table = TextTable::new(header);
        for row in &self.rows {
            let mut cells: Vec<String> = vec![row.label.to_owned()];
            cells.extend(row.counts.iter().map(|c| c.to_string()));
            cells.push(row.uncategorized.to_string());
            cells.push(row.total().to_string());
            table.row(cells);
        }
        table.render()
    }
}

/// The thread × namespace waste categorization as a fusable
/// [`TraceAnalysis`].
///
/// Subscribes to the tid and funcs columns; slice membership comes from
/// the borrowed [`SliceResult`].
pub struct WasteAnalysis<'s> {
    slice: &'s SliceResult,
    cat_of: Vec<Option<Category>>,
    /// Row index (1-based into [`GROUPS`]) per thread id; 0 is `All`.
    group_of_tid: Vec<usize>,
    rows: Vec<WasteRow>,
}

impl<'s> WasteAnalysis<'s> {
    /// An analysis classifying every instruction outside `slice`.
    pub fn new(slice: &'s SliceResult) -> WasteAnalysis<'s> {
        WasteAnalysis {
            slice,
            cat_of: Vec::new(),
            group_of_tid: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The computed breakdown; call after the driver run.
    pub fn into_breakdown(self) -> WasteBreakdown {
        WasteBreakdown { rows: self.rows }
    }
}

impl TraceAnalysis for WasteAnalysis<'_> {
    fn name(&self) -> &'static str {
        "waste"
    }

    fn subscription(&self) -> Subscription {
        Subscription::instructions(ColumnMask::TIDS.union(ColumnMask::FUNCS))
    }

    fn begin(&mut self, ctx: &AnalysisCtx<'_>) {
        self.cat_of = categories_of(ctx.funcs);
        self.group_of_tid = ctx
            .threads
            .iter()
            .map(|info| match info.kind() {
                ThreadKind::Main => 1,
                ThreadKind::Compositor => 2,
                ThreadKind::Raster(_) => 3,
                _ => 4,
            })
            .collect();
        self.rows = GROUPS.iter().map(|label| WasteRow::empty(label)).collect();
    }

    fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
        if self.slice.contains(TracePos(idx as u64)) {
            return;
        }
        // An out-of-table function id (a malformed trace) counts as
        // uncategorized; out-of-table tids (WP0005 reports them) are still
        // counted in `All`, so the breakdown stays a partition.
        let cat = self
            .cat_of
            .get(ctx.cols.func(idx).index())
            .copied()
            .flatten();
        let tid = ctx.cols.tid(idx).index();
        let groups = [Some(0), self.group_of_tid.get(tid).copied()];
        for g in groups.into_iter().flatten() {
            let row = &mut self.rows[g];
            match cat {
                Some(c) => {
                    row.counts[Category::ALL.iter().position(|&x| x == c).expect("ALL")] += 1;
                }
                None => row.uncategorized += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions};
    use wasteprof_trace::{site, Recorder, Region, ThreadKind};

    #[test]
    fn waste_rows_partition_non_slice_instructions() {
        let mut rec = Recorder::new();
        let main = rec.spawn_thread(ThreadKind::Main, "main");
        let raster = rec.spawn_thread(ThreadKind::Raster(1), "raster1");
        rec.switch_to(main);
        let js = rec.intern_func("v8::Execute");
        let dbg = rec.intern_func("base::debug::Log");
        let tile = rec.alloc(Region::PixelTile, 64);
        let junk = rec.alloc_cell(Region::Heap);
        rec.in_func(site!(), js, |rec| {
            rec.compute(site!(), &[], &[tile]);
        });
        rec.marker(site!(), tile);
        rec.in_func(site!(), dbg, |rec| {
            rec.compute(site!(), &[], &[junk.into()]);
        });
        rec.switch_to(raster);
        rec.in_func(site!(), dbg, |rec| {
            rec.compute(site!(), &[], &[junk.into()]);
        });
        let trace = rec.finish();
        let fwd = ForwardPass::build(&trace);
        let r = slice(
            &trace,
            &fwd,
            &pixel_criteria(&trace),
            &SliceOptions::default(),
        );
        let b = WasteBreakdown::compute(&trace, &r);
        assert_eq!(b.rows.len(), GROUPS.len());
        assert_eq!(b.rows[0].label, "All");
        // Every per-group count sums back to the All row.
        let group_sum: u64 = b.rows[1..].iter().map(WasteRow::total).sum();
        assert_eq!(b.rows[0].total(), group_sum);
        // The debugging writes land in the Debugging category on both the
        // main thread and the rasterizer.
        let dbg_idx = Category::ALL
            .iter()
            .position(|&c| c == Category::Debugging)
            .unwrap();
        assert!(b.rows[0].counts[dbg_idx] > 0);
        assert!(b.rows[3].counts[dbg_idx] > 0, "{:?}", b.rows);
        // The render names every group and category.
        let text = b.render();
        for g in GROUPS {
            assert!(text.contains(g), "{text}");
        }
        assert!(text.contains("Debugging"));
    }
}
