//! Categorization of potentially unnecessary computations (paper §V-B,
//! Figure 5).
//!
//! The paper examines the function each non-slice instruction belongs to
//! "using the symbol table stored in the application binary" and uses the
//! function's *namespace* as the categorization basis. Not every function
//! has a telling namespace, so 26–47% of unnecessary instructions stay
//! uncategorized.

use std::collections::HashMap;
use std::fmt;

use wasteprof_slicer::SliceResult;
use wasteprof_trace::{
    AnalysisCtx, AnalysisDriver, ColumnMask, FunctionRegistry, Subscription, Trace, TraceAnalysis,
    TracePos,
};

/// The paper's eight categories (§V-B).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Category {
    /// `v8::*` — parsing, compiling, and executing JavaScript (including
    /// the engine's GC). The paper's most notable category.
    JavaScript,
    /// `base::debug::*` — the default debugging/tracing mechanisms built
    /// into the browser, active even in release builds.
    Debugging,
    /// `ipc::*` — communication with the browser main process.
    Ipc,
    /// `base::threading::*` / `base::synchronization::*` — PThread-style
    /// thread communication and synchronization.
    MultiThreading,
    /// `cc::*` — the compositor: layer ordering, tile management, backing
    /// stores.
    Compositing,
    /// `gfx::*` — the paint stage: display-list generation.
    Graphics,
    /// `blink::css::*` / `blink::layout::*` — style and layout
    /// calculation.
    Css,
    /// `scheduler::*` / `base::TaskScheduler::*` — event-queue management
    /// and task scheduling.
    Other,
}

impl Category {
    /// All categories in the paper's presentation order.
    pub const ALL: [Category; 8] = [
        Category::JavaScript,
        Category::Debugging,
        Category::Ipc,
        Category::MultiThreading,
        Category::Compositing,
        Category::Graphics,
        Category::Css,
        Category::Other,
    ];

    /// Display label matching Figure 5.
    pub fn label(&self) -> &'static str {
        match self {
            Category::JavaScript => "JavaScript",
            Category::Debugging => "Debugging",
            Category::Ipc => "IPC",
            Category::MultiThreading => "Multi-threading",
            Category::Compositing => "Compositing",
            Category::Graphics => "Graphics",
            Category::Css => "CSS",
            Category::Other => "Other",
        }
    }

    /// Maps a function's qualified name to its category, if its namespace
    /// is telling (`None` reproduces the paper's "not all functions have a
    /// specific namespace").
    pub fn of_function(name: &str) -> Option<Category> {
        if name.starts_with("v8::") {
            return Some(Category::JavaScript);
        }
        if name.starts_with("base::debug::") {
            return Some(Category::Debugging);
        }
        if name.starts_with("ipc::") {
            return Some(Category::Ipc);
        }
        if name.starts_with("base::threading::") || name.starts_with("base::synchronization::") {
            return Some(Category::MultiThreading);
        }
        if name.starts_with("cc::") {
            return Some(Category::Compositing);
        }
        if name.starts_with("gfx::") {
            return Some(Category::Graphics);
        }
        if name.starts_with("blink::css::") || name.starts_with("blink::layout::") {
            return Some(Category::Css);
        }
        if name.starts_with("scheduler::") || name.starts_with("base::TaskScheduler::") {
            return Some(Category::Other);
        }
        None
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The Figure 5 breakdown: distribution of non-slice ("potentially
/// unnecessary") instructions across categories.
#[derive(Debug, Clone, Default)]
pub struct CategoryBreakdown {
    counts: HashMap<Category, u64>,
    /// Non-slice instructions whose function had no telling namespace.
    pub uncategorized: u64,
    /// Total non-slice instructions examined.
    pub total_unnecessary: u64,
}

impl CategoryBreakdown {
    /// Classifies every instruction *outside* the slice. This is a
    /// solo-driver run of [`CategoryAnalysis`]; fused callers register the
    /// analysis directly and get the same breakdown from one shared sweep.
    pub fn compute(trace: &Trace, slice: &SliceResult) -> Self {
        let mut analysis = CategoryAnalysis::new(slice);
        let mut driver = AnalysisDriver::new();
        driver.register(&mut analysis);
        driver.run(trace);
        drop(driver);
        analysis.into_breakdown()
    }

    /// Instructions in `category`.
    pub fn count(&self, category: Category) -> u64 {
        self.counts.get(&category).copied().unwrap_or(0)
    }

    /// Share of *categorized* unnecessary instructions in `category`
    /// (Figure 5 normalizes over the categorized portion).
    pub fn share(&self, category: Category) -> f64 {
        let categorized = self.categorized();
        if categorized == 0 {
            0.0
        } else {
            self.count(category) as f64 / categorized as f64
        }
    }

    /// Unnecessary instructions that could be categorized.
    pub fn categorized(&self) -> u64 {
        self.total_unnecessary - self.uncategorized
    }

    /// Fraction of unnecessary instructions the namespace analysis covers
    /// (the paper reports 74%, 59%, 53%, 61% for its four benchmarks).
    pub fn coverage(&self) -> f64 {
        if self.total_unnecessary == 0 {
            0.0
        } else {
            self.categorized() as f64 / self.total_unnecessary as f64
        }
    }
}

/// Resolves [`Category::of_function`] once per function id, so the
/// per-instruction hot path is a table lookup instead of prefix matching.
pub(crate) fn categories_of(funcs: &FunctionRegistry) -> Vec<Option<Category>> {
    let mut cat_of: Vec<Option<Category>> = Vec::with_capacity(funcs.len());
    for (_, info) in funcs.iter() {
        cat_of.push(Category::of_function(info.name()));
    }
    cat_of
}

/// The Figure 5 computation as a fusable [`TraceAnalysis`]: categorizes
/// every non-slice instruction by its function's namespace.
///
/// Subscribes to the funcs column only; slice membership comes from the
/// borrowed [`SliceResult`], not from the trace.
pub struct CategoryAnalysis<'s> {
    slice: &'s SliceResult,
    cat_of: Vec<Option<Category>>,
    breakdown: CategoryBreakdown,
}

impl<'s> CategoryAnalysis<'s> {
    /// An analysis classifying every instruction outside `slice`.
    pub fn new(slice: &'s SliceResult) -> CategoryAnalysis<'s> {
        CategoryAnalysis {
            slice,
            cat_of: Vec::new(),
            breakdown: CategoryBreakdown::default(),
        }
    }

    /// The computed breakdown; call after the driver run.
    pub fn into_breakdown(self) -> CategoryBreakdown {
        self.breakdown
    }
}

impl TraceAnalysis for CategoryAnalysis<'_> {
    fn name(&self) -> &'static str {
        "category"
    }

    fn subscription(&self) -> Subscription {
        Subscription::instructions(ColumnMask::FUNCS)
    }

    fn begin(&mut self, ctx: &AnalysisCtx<'_>) {
        self.cat_of = categories_of(ctx.funcs);
        self.breakdown = CategoryBreakdown::default();
    }

    fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
        if self.slice.contains(TracePos(idx as u64)) {
            return;
        }
        self.breakdown.total_unnecessary += 1;
        // An out-of-table function id (a malformed trace) is uncategorized.
        match self
            .cat_of
            .get(ctx.cols.func(idx).index())
            .copied()
            .flatten()
        {
            Some(c) => *self.breakdown.counts.entry(c).or_insert(0) += 1,
            None => self.breakdown.uncategorized += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The categorizer dispatches on namespace prefixes while the engine
    /// crates intern free-form literals — nothing else links them. This
    /// test runs a real session and requires every major category to show
    /// up, so a renamed literal (or prefix) fails here instead of silently
    /// zeroing a Figure 5 row.
    #[test]
    fn emitted_function_names_cover_every_major_category() {
        use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions};
        let session = wasteprof_workloads::Benchmark::AmazonMobile.run();
        let fwd = ForwardPass::build(&session.trace);
        let r = slice(
            &session.trace,
            &fwd,
            &pixel_criteria(&session.trace),
            &SliceOptions::default(),
        );
        let b = CategoryBreakdown::compute(&session.trace, &r);
        for cat in [
            Category::JavaScript,
            Category::Debugging,
            Category::Ipc,
            Category::MultiThreading,
            Category::Compositing,
            Category::Graphics,
            Category::Css,
            Category::Other,
        ] {
            assert!(
                b.count(cat) > 0,
                "no instructions categorized as {cat}: an interned function \
                 name no longer matches its namespace prefix"
            );
        }
    }

    #[test]
    fn namespace_mapping_matches_paper_taxonomy() {
        assert_eq!(
            Category::of_function("v8::Compiler::CompileFunction"),
            Some(Category::JavaScript)
        );
        assert_eq!(
            Category::of_function("v8::JsFunction::foo"),
            Some(Category::JavaScript)
        );
        assert_eq!(
            Category::of_function("base::debug::TraceEvent::Record"),
            Some(Category::Debugging)
        );
        assert_eq!(
            Category::of_function("ipc::ChannelProxy::Send"),
            Some(Category::Ipc)
        );
        assert_eq!(
            Category::of_function("base::threading::LockImpl::Lock"),
            Some(Category::MultiThreading)
        );
        assert_eq!(
            Category::of_function("cc::TileManager::PrepareTiles"),
            Some(Category::Compositing)
        );
        assert_eq!(
            Category::of_function("gfx::paint::PaintController"),
            Some(Category::Graphics)
        );
        assert_eq!(
            Category::of_function("blink::css::StyleResolver::X"),
            Some(Category::Css)
        );
        assert_eq!(
            Category::of_function("blink::layout::LayoutTree"),
            Some(Category::Css)
        );
        assert_eq!(
            Category::of_function("scheduler::TaskQueue::PostTask"),
            Some(Category::Other)
        );
        // No telling namespace:
        assert_eq!(
            Category::of_function("blink::html::HtmlTokenizer::NextToken"),
            None
        );
        assert_eq!(Category::of_function("net::UrlRequest::Start"), None);
        assert_eq!(Category::of_function("main"), None);
    }

    #[test]
    fn breakdown_counts_only_non_slice_instructions() {
        use wasteprof_slicer::{pixel_criteria, slice, Criteria, ForwardPass, SliceOptions};
        use wasteprof_trace::{site, Recorder, Region, ThreadKind};
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let js = rec.intern_func("v8::Execute");
        let dbg = rec.intern_func("base::debug::Log");
        let tile = rec.alloc(Region::PixelTile, 64);
        let junk = rec.alloc_cell(Region::Heap);
        // Useful: writes the displayed tile.
        rec.in_func(site!(), js, |rec| {
            rec.compute(site!(), &[], &[tile]);
        });
        rec.marker(site!(), tile);
        // Wasted: debugging write nobody reads.
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
        let _ = Criteria::default();
        let b = CategoryBreakdown::compute(&trace, &r);
        assert!(b.count(Category::Debugging) > 0);
        assert!(b.total_unnecessary > 0);
        assert!(b.coverage() > 0.0 && b.coverage() <= 1.0);
        let share_sum: f64 = Category::ALL.iter().map(|&c| b.share(c)).sum();
        assert!((share_sum - 1.0).abs() < 1e-9 || b.categorized() == 0);
    }
}
