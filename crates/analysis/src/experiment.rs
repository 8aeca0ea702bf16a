//! Shared experiment driver: run a benchmark, slice its trace, and shape
//! the results the way the paper's tables present them.

use std::sync::Arc;

use wasteprof_browser::Session;
use wasteprof_slicer::{
    pixel_criteria, slice, syscall_criteria, ForwardPass, SliceOptions, SliceResult,
};
use wasteprof_trace::{ThreadKind, Trace};
use wasteprof_workloads::Benchmark;

/// A completed benchmark run: the session plus its pixel-based slice (and
/// optionally the syscall-based one).
#[derive(Debug)]
pub struct BenchmarkRun {
    /// Which benchmark ran.
    pub benchmark: Benchmark,
    /// The session (trace + measurements).
    pub session: Session,
    /// The forward pass (reusable across criteria).
    pub forward: ForwardPass,
    /// Pixel-criteria slice.
    pub pixel: SliceResult,
    /// Syscall-criteria slice, when requested.
    pub syscall: Option<SliceResult>,
}

/// The canonical full-session pixel slice of a trace: pixel criteria over
/// the whole session with default options. Every experiment that reports
/// "the pixel slice" means exactly this computation.
pub fn pixel_slice_of(trace: &Trace, forward: &ForwardPass) -> SliceResult {
    pixel_slice_with(trace, forward, &SliceOptions::default())
}

/// [`pixel_slice_of`] with explicit options (a bounded prefix, or a
/// dependence witness for the certifier).
pub fn pixel_slice_with(
    trace: &Trace,
    forward: &ForwardPass,
    options: &SliceOptions,
) -> SliceResult {
    slice(trace, forward, &pixel_criteria(trace), options)
}

/// The canonical full-session syscall slice (the §V comparison criteria).
pub fn syscall_slice_of(trace: &Trace, forward: &ForwardPass) -> SliceResult {
    syscall_slice_with(trace, forward, &SliceOptions::default())
}

/// [`syscall_slice_of`] with explicit options (see [`pixel_slice_with`]).
pub fn syscall_slice_with(
    trace: &Trace,
    forward: &ForwardPass,
    options: &SliceOptions,
) -> SliceResult {
    slice(trace, forward, &syscall_criteria(trace), options)
}

/// Runs a benchmark and slices its trace with pixel criteria (and syscall
/// criteria when `with_syscall`).
///
/// Every call recomputes from scratch. When several experiments need the
/// same benchmark, share the work instead: [`SharedBenchmarkRun`] (served
/// memoized by `wasteprof-bench`'s session store) holds the same artifacts
/// behind `Arc` so one computation feeds them all.
pub fn run_benchmark(benchmark: Benchmark, with_syscall: bool) -> BenchmarkRun {
    let session = benchmark.run();
    let forward = ForwardPass::build(&session.trace);
    let pixel = pixel_slice_of(&session.trace, &forward);
    let syscall = with_syscall.then(|| syscall_slice_of(&session.trace, &forward));
    BenchmarkRun {
        benchmark,
        session,
        forward,
        pixel,
        syscall,
    }
}

/// The cached counterpart of [`BenchmarkRun`]: the same artifacts behind
/// `Arc`, so a memoizing store can hand the one computed instance to every
/// experiment (and every thread) that asks.
#[derive(Debug, Clone)]
pub struct SharedBenchmarkRun {
    /// Which benchmark ran.
    pub benchmark: Benchmark,
    /// The session (trace + measurements).
    pub session: Arc<Session>,
    /// The forward pass (reusable across criteria).
    pub forward: Arc<ForwardPass>,
    /// Pixel-criteria slice.
    pub pixel: Arc<SliceResult>,
    /// Syscall-criteria slice, when requested.
    pub syscall: Option<Arc<SliceResult>>,
}

impl SharedBenchmarkRun {
    /// Computes a run from scratch, Arc-wrapped for sharing. Produces
    /// artifacts identical to [`run_benchmark`] — same session, same
    /// slice recipes.
    pub fn compute(benchmark: Benchmark, with_syscall: bool) -> SharedBenchmarkRun {
        let BenchmarkRun {
            benchmark,
            session,
            forward,
            pixel,
            syscall,
        } = run_benchmark(benchmark, with_syscall);
        SharedBenchmarkRun {
            benchmark,
            session: Arc::new(session),
            forward: Arc::new(forward),
            pixel: Arc::new(pixel),
            syscall: syscall.map(Arc::new),
        }
    }
}

/// One Table II row: a thread's slice percentage and instruction count.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadRow {
    /// Paper-style label (`All`, `Main`, `Compositor`, `Rasterizer 1`, ...).
    pub label: String,
    /// Instructions of this thread in the slice.
    pub slice: u64,
    /// Total instructions of this thread.
    pub total: u64,
}

impl ThreadRow {
    /// Slice percentage (0–100).
    pub fn percentage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.slice as f64 / self.total as f64 * 100.0
        }
    }
}

/// Builds the Table II rows from a trace's thread table (resident or a
/// `WPTRACE2` footer's): `All` first, then the important threads in the
/// paper's order (Main, Compositor, Rasterizer 1..n).
pub fn thread_rows(threads: &wasteprof_trace::ThreadTable, result: &SliceResult) -> Vec<ThreadRow> {
    let mut rows = vec![ThreadRow {
        label: "All".to_owned(),
        slice: result.slice_count(),
        total: result.considered(),
    }];
    let mut ordered: Vec<(u8, String, wasteprof_trace::ThreadId)> = Vec::new();
    for info in threads.iter() {
        let rank = match info.kind() {
            ThreadKind::Main => 0,
            ThreadKind::Compositor => 1,
            ThreadKind::Raster(i) => 2 + i,
            _ => continue, // the paper's table lists only these threads
        };
        ordered.push((rank, info.name().to_owned(), info.id()));
    }
    ordered.sort();
    for (_, label, tid) in ordered {
        let (slice, total) = result.thread_stats(tid);
        rows.push(ThreadRow {
            label,
            slice,
            total,
        });
    }
    rows
}

/// Formats an instruction count the way the paper does (`6,217 M` scaled
/// to our traces: plain thousands separators).
pub fn format_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_formatting() {
        assert_eq!(format_count(6_217_000), "6,217,000");
        assert_eq!(format_count(999), "999");
        assert_eq!(format_count(1_000), "1,000");
    }

    #[test]
    fn thread_rows_order_matches_paper() {
        // A small synthetic run (Bing is the smallest... use a tiny site
        // through the browser directly to keep the test fast).
        use wasteprof_browser::{BrowserConfig, Site, Tab};
        let mut tab = Tab::new(BrowserConfig::desktop());
        tab.load(Site::new("https://t.test", "<body><p>x</p></body>"));
        let session = tab.finish();
        let fwd = ForwardPass::build(&session.trace);
        let r = slice(
            &session.trace,
            &fwd,
            &pixel_criteria(&session.trace),
            &SliceOptions::default(),
        );
        let rows = thread_rows(session.trace.threads(), &r);
        assert_eq!(rows[0].label, "All");
        assert_eq!(rows[1].label, "Main");
        assert_eq!(rows[2].label, "Compositor");
        assert!(rows[3].label.starts_with("Rasterizer 1"));
        assert_eq!(rows[0].total, session.trace.len() as u64);
    }
}
