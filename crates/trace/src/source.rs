//! One read interface over both trace tiers: every pass is written once,
//! against [`ColumnSource`], and runs unchanged over a resident [`Trace`]
//! or an out-of-core `WPTRACE2` [`TraceReader`](crate::TraceReader).
//!
//! The paper's profiler stores whole-browser traces and re-slices them
//! with new criteria (§III-A), so a trace is either resident or streamed
//! from disk one bounded chunk window at a time. A pass reads it only
//! through this contract:
//!
//! * the instruction count and the function, thread and marker tables;
//! * [`ColumnSource::stream_range`] / [`ColumnSource::stream_range_rev`]:
//!   windows that tile `[lo, hi)` exactly, first-to-last or last-to-first,
//!   indexed by true trace positions. A resident trace serves one window,
//!   a reader one window per chunk. An empty range yields no window;
//! * [`ColumnSource::run_jobs`]: independent per-range [`RangeJob`]s
//!   whose outputs come back in job order — a rayon fan-out over a
//!   resident trace, one job after another through a reader's chunk
//!   window;
//! * [`ColumnSource::swap_decode_mask`]: which column groups later reads
//!   must decode. Only a reader decodes, so a resident trace ignores it.
//!
//! A resident trace cannot fail (`Error = Infallible`); a reader fails
//! with [`TraceIoError`](crate::TraceIoError). Resident entry points are
//! thin wrappers that call the generic body with `&mut { trace }` and
//! bind its irrefutable `Ok`.

use std::convert::Infallible;

use rayon::prelude::*;

use crate::analysis::ColumnMask;
use crate::columns::ColumnCursor;
use crate::func::FunctionRegistry;
use crate::thread::ThreadTable;
use crate::trace::{MarkerRecord, Trace};

/// One independent job of [`ColumnSource::run_jobs`]: it folds the
/// windows of its range in, then turns into its output.
pub trait RangeJob {
    /// What the finished job returns.
    type Output: Send;

    /// Folds one window of the job's range in. Windows arrive
    /// last-to-first, as the backward passes that run jobs need.
    fn feed(&mut self, cur: &ColumnCursor<'_>);

    /// Ends the job.
    fn finish(self) -> Self::Output;
}

/// A trace's columns and tables, however they are stored (see the module
/// docs for the contract both implementations keep).
pub trait ColumnSource {
    /// Why a read failed: [`Infallible`] for a resident trace.
    type Error;

    /// Number of dynamic instructions.
    fn len(&self) -> usize;

    /// True if the trace has no instructions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The symbol table.
    fn functions(&self) -> &FunctionRegistry;

    /// The thread table.
    fn threads(&self) -> &ThreadTable;

    /// Pixel-buffer marker records, in trace order.
    fn markers(&self) -> &[MarkerRecord];

    /// Streams `[lo, hi)` through `f` first window first. The windows
    /// tile the range exactly; each cursor's indices are trace positions.
    ///
    /// # Errors
    ///
    /// Any read or decode error of the source.
    ///
    /// # Panics
    ///
    /// Panics if `hi` exceeds [`ColumnSource::len`].
    fn stream_range(
        &mut self,
        lo: usize,
        hi: usize,
        f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), Self::Error>;

    /// Streams `[lo, hi)` through `f` last window first. Backward passes
    /// walk each cursor's indices in reverse themselves (e.g. via
    /// [`ColumnCursor::rev_indices`]).
    ///
    /// # Errors
    ///
    /// As [`ColumnSource::stream_range`].
    ///
    /// # Panics
    ///
    /// As [`ColumnSource::stream_range`].
    fn stream_range_rev(
        &mut self,
        lo: usize,
        hi: usize,
        f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), Self::Error>;

    /// Runs one job per range: job `i` starts as `start(i)`, is fed every
    /// window of `ranges[i]` last-to-first, and finishes. Returns the
    /// outputs in job order, whatever order the jobs ran in.
    ///
    /// # Errors
    ///
    /// As [`ColumnSource::stream_range`]; the first failing job stops the
    /// rest.
    fn run_jobs<J: RangeJob>(
        &mut self,
        ranges: &[(usize, usize)],
        start: impl Fn(usize) -> J + Sync,
    ) -> Result<Vec<J::Output>, Self::Error>;

    /// Sets the column groups later reads must decode and returns the
    /// previous setting. Columns outside `mask` may read as default
    /// values until the previous mask is restored (the
    /// [`crate::Subscription`] contract).
    fn swap_decode_mask(&mut self, mask: ColumnMask) -> ColumnMask;
}

impl ColumnSource for &Trace {
    type Error = Infallible;

    fn len(&self) -> usize {
        Trace::len(self)
    }

    fn functions(&self) -> &FunctionRegistry {
        Trace::functions(self)
    }

    fn threads(&self) -> &ThreadTable {
        Trace::threads(self)
    }

    fn markers(&self) -> &[MarkerRecord] {
        Trace::markers(self)
    }

    fn stream_range(
        &mut self,
        lo: usize,
        hi: usize,
        mut f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), Infallible> {
        if lo < hi {
            f(&self.columns().cursor(lo, hi));
        }
        Ok(())
    }

    fn stream_range_rev(
        &mut self,
        lo: usize,
        hi: usize,
        f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), Infallible> {
        // One window: its own first and last.
        self.stream_range(lo, hi, f)
    }

    fn run_jobs<J: RangeJob>(
        &mut self,
        ranges: &[(usize, usize)],
        start: impl Fn(usize) -> J + Sync,
    ) -> Result<Vec<J::Output>, Infallible> {
        let cols = self.columns();
        let jobs: Vec<usize> = (0..ranges.len()).collect();
        Ok(jobs
            .par_iter()
            .map(|&i| {
                let (lo, hi) = ranges[i];
                let mut job = start(i);
                if lo < hi {
                    job.feed(&cols.cursor(lo, hi));
                }
                job.finish()
            })
            .collect())
    }

    fn swap_decode_mask(&mut self, _mask: ColumnMask) -> ColumnMask {
        ColumnMask::ALL
    }
}
