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
//! * [`ColumnSource::swap_decode_mask`]: which column groups later reads
//!   must decode. Only a reader decodes, so a resident trace ignores it.
//!
//! A resident trace cannot fail (`Error = Infallible`); a reader fails
//! with [`TraceIoError`](crate::TraceIoError). Resident entry points are
//! thin wrappers that call the generic body with `&mut { trace }` and
//! bind its irrefutable `Ok`.

use std::convert::Infallible;

use crate::analysis::ColumnMask;
use crate::columns::ColumnCursor;
use crate::func::FunctionRegistry;
use crate::thread::ThreadTable;
use crate::trace::{MarkerRecord, Trace};

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

    fn swap_decode_mask(&mut self, _mask: ColumnMask) -> ColumnMask {
        ColumnMask::ALL
    }
}
