#![forbid(unsafe_code)]

//! Dynamic backward program slicing over browser instruction traces — the
//! core contribution of *Characterization of Unnecessary Computations in
//! Web Applications* (ISPASS 2019), §III.
//!
//! The profiler treats the browser as a whole program rendering a page and
//! works on its machine-level instruction trace:
//!
//! 1. **Forward pass** ([`ForwardPass`]): per-function dynamic CFGs
//!    ([`CfgSet`]) from matched calls/returns, postdominators
//!    ([`PostDoms`]), and the control-dependence relation ([`ControlDeps`],
//!    Ferrante–Ottenstein–Warren), which is all the pass keeps.
//! 2. **Backward pass** ([`slice()`]): liveness-driven slicing with a shared
//!    live-memory interval set ([`AddrSet`]) and per-thread live-register
//!    sets, a pending-branch list for control dependences, and dynamic
//!    call-site inclusion.
//! 3. **Criteria** ([`pixel_criteria`], [`syscall_criteria`]): the pixels
//!    buffer at marker points, or the values read by output system calls.
//!
//! Instructions outside the computed slice had no effect on what the user
//! saw (or on anything the process communicated) — they are the paper's
//! *unnecessary computations*.
//!
//! # Examples
//!
//! ```
//! use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions};
//! use wasteprof_trace::{site, Recorder, Region, ThreadKind};
//!
//! // A two-producer page: one value feeds the pixels, one is wasted work.
//! let mut rec = Recorder::new();
//! rec.spawn_thread(ThreadKind::Main, "content::RendererMain");
//! let style = rec.alloc_cell(Region::Heap);
//! let wasted = rec.alloc_cell(Region::Heap);
//! let tile = rec.alloc(Region::PixelTile, 256);
//! rec.compute(site!(), &[], &[style.into()]);
//! rec.compute(site!(), &[], &[wasted.into()]); // never read again
//! rec.compute(site!(), &[style.into()], &[tile]);
//! rec.marker(site!(), tile);
//! let trace = rec.finish();
//!
//! let fwd = ForwardPass::build(&trace);
//! let result = slice(&trace, &fwd, &pixel_criteria(&trace), &SliceOptions::default());
//! assert!(result.fraction() < 1.0); // the wasted producer is excluded
//! assert!(result.fraction() > 0.0);
//! ```

#![warn(missing_docs)]

mod cdg;
mod cfg;
mod criteria;
mod incremental;
mod live;
mod postdom;
mod slice;
mod strip;
mod witness;

pub use cdg::{Cdg, ControlDeps};
pub use cfg::{Cfg, CfgNode, CfgSet, NodeId};
pub use criteria::{
    pixel_criteria, pixel_criteria_streamed, syscall_criteria, syscall_criteria_streamed, Criteria,
    SlicingCriterion,
};
pub use incremental::{CacheStats, SegmentHashes, SummaryCache};
pub use live::{AddrSet, IntervalSet, LiveState};
pub use postdom::PostDoms;
pub use slice::{slice, slice_streamed, ForwardPass, SliceOptions, SliceResult, TimelinePoint};
pub use strip::{strip_allocator_deps, ALLOCATOR_FN};
pub use witness::{WitnessKind, WitnessRow, Witnesses};
