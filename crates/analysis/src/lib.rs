#![forbid(unsafe_code)]

//! Analysis and reporting for the wasteprof reproduction: the computations
//! behind every table and figure of the paper's evaluation (§V).
//!
//! * [`Category`] / [`CategoryBreakdown`] — the Figure 5 namespace-based
//!   categorization of potentially unnecessary instructions.
//! * [`Table1Row`] — unused JS/CSS byte accounting (Table I).
//! * [`UtilizationSeries`] — main-thread CPU utilization over a session
//!   (Figure 2).
//! * [`WasteBreakdown`] — the Table II × Figure 5 cross: per-thread-role
//!   namespace categorization of non-slice instructions.
//! * [`run_benchmark`] / [`thread_rows`] — the Table II driver.
//! * [`TextTable`], [`ascii_chart`], [`bar_chart`], [`to_csv`] — plain-text
//!   rendering used by the experiment binaries.
//!
//! The per-instruction computations ([`CategoryAnalysis`],
//! [`UtilizationAnalysis`], [`WasteAnalysis`], [`FrameAnalysis`]) are
//! fusable `wasteprof_trace::TraceAnalysis` implementations: the engine
//! registers them together with the checker's lint batteries in one
//! `AnalysisDriver` and sweeps each trace once for everything.

#![warn(missing_docs)]

mod category;
mod experiment;
mod frames;
mod render;
mod table1;
mod utilization;
mod waste;

pub use category::{Category, CategoryAnalysis, CategoryBreakdown};
pub use experiment::{
    format_count, pixel_slice_of, pixel_slice_with, run_benchmark, syscall_slice_of,
    syscall_slice_with, thread_rows, BenchmarkRun, SharedBenchmarkRun, ThreadRow,
};
pub use frames::{FrameAnalysis, FrameProfile};
pub use render::{ascii_chart, bar_chart, to_csv, TextTable};
pub use table1::{Table1Row, UnusedBytes};
pub use utilization::{UtilizationAnalysis, UtilizationSeries};
pub use waste::{WasteAnalysis, WasteBreakdown, WasteRow};
