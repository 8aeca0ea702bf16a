//! Categorization of potentially unnecessary computations (paper §V-B,
//! Figure 5).
//!
//! The paper examines the function each non-slice instruction belongs to
//! "using the symbol table stored in the application binary" and uses the
//! function's *namespace* as the categorization basis. Not every function
//! has a telling namespace, so 26–47% of unnecessary instructions stay
//! uncategorized.

use std::fmt;

use wasteprof_slicer::SliceResult;
use wasteprof_trace::{AnalysisCtx, Trace, TraceAnalysis};

use crate::waste::{WasteAnalysis, WasteBreakdown, WasteRow};

/// The paper's eight categories (§V-B), declared in [`Category::ALL`]
/// order, so `category as usize` is its position there.
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
/// unnecessary") instructions across categories. It is the `All` row of
/// the Table II × Figure 5 cross ([`WasteBreakdown`]): the same counts,
/// whatever thread executed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryBreakdown {
    all: WasteRow,
}

impl CategoryBreakdown {
    /// Classifies every instruction *outside* the slice: the `All` row of
    /// [`WasteBreakdown::compute`].
    pub fn compute(trace: &Trace, slice: &SliceResult) -> Self {
        CategoryBreakdown::from(&WasteBreakdown::compute(trace, slice))
    }

    /// Instructions in `category`.
    pub fn count(&self, category: Category) -> u64 {
        self.all.counts[category as usize]
    }

    /// Non-slice instructions whose function had no telling namespace.
    pub fn uncategorized(&self) -> u64 {
        self.all.uncategorized
    }

    /// Total non-slice instructions examined.
    pub fn total_unnecessary(&self) -> u64 {
        self.all.total()
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
        self.total_unnecessary() - self.uncategorized()
    }

    /// Fraction of unnecessary instructions the namespace analysis covers
    /// (the paper reports 74%, 59%, 53%, 61% for its four benchmarks).
    pub fn coverage(&self) -> f64 {
        if self.total_unnecessary() == 0 {
            0.0
        } else {
            self.categorized() as f64 / self.total_unnecessary() as f64
        }
    }
}

impl From<&WasteBreakdown> for CategoryBreakdown {
    /// The breakdown's `All` row.
    fn from(waste: &WasteBreakdown) -> Self {
        CategoryBreakdown {
            all: waste.rows[0].clone(),
        }
    }
}

/// The Figure 5 computation as a fusable [`TraceAnalysis`]: a
/// [`WasteAnalysis`] whose `All` row is the breakdown.
///
/// Reads what the waste cross reads (tids and funcs); slice membership
/// comes from the borrowed [`SliceResult`].
pub struct CategoryAnalysis<'s>(WasteAnalysis<'s>);

impl<'s> CategoryAnalysis<'s> {
    /// An analysis classifying every instruction outside `slice`.
    pub fn new(slice: &'s SliceResult) -> CategoryAnalysis<'s> {
        CategoryAnalysis(WasteAnalysis::new(slice))
    }

    /// The computed breakdown; call after the driver run.
    pub fn into_breakdown(self) -> CategoryBreakdown {
        CategoryBreakdown::from(&self.0.into_breakdown())
    }
}

impl TraceAnalysis for CategoryAnalysis<'_> {
    fn name(&self) -> &'static str {
        "category"
    }

    fn begin(&mut self, ctx: &AnalysisCtx<'_>) {
        self.0.begin(ctx);
    }

    fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
        self.0.on_instr(ctx, idx);
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

    /// The breakdowns index their count arrays by `category as usize`.
    #[test]
    fn all_lists_the_categories_in_declaration_order() {
        for (i, c) in Category::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c}");
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
        assert!(b.total_unnecessary() > 0);
        assert!(b.coverage() > 0.0 && b.coverage() <= 1.0);
        let share_sum: f64 = Category::ALL.iter().map(|&c| b.share(c)).sum();
        assert!((share_sum - 1.0).abs() < 1e-9 || b.categorized() == 0);
    }
}
