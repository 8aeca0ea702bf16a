#![forbid(unsafe_code)]

//! Virtual-ISA instruction tracing: the substrate beneath the wasteprof
//! profiler.
//!
//! The ISPASS 2019 paper *Characterization of Unnecessary Computations in
//! Web Applications* collects machine-level instruction traces from a
//! Chromium tab process with Intel Pin: per dynamic instruction, the opcode
//! class, registers accessed, exact memory addresses, thread id, and syscall
//! number (§IV-A). This crate reproduces that artifact without Pin or
//! Chromium: a [`Recorder`] gives engine code a 64-bit virtual address
//! space, per-thread register contexts, and an emission API whose output is
//! a stream of machine-like [`Instr`] records — a [`Trace`] — carrying the
//! same fields Pin records.
//!
//! Three properties make traces sliceable exactly as in the paper:
//!
//! * **Exact addresses.** Every engine value lives in a [`VirtualMemory`]
//!   cell, so data dependences need no alias analysis (§III).
//! * **Stable PCs.** The [`site!`] macro assigns each emission site a
//!   static [`Pc`], letting the slicer rebuild dynamic CFGs.
//! * **Serialized threads.** Virtual threads interleave cooperatively on
//!   one stream, as the paper arranges by pinning Chromium to one core.
//!
//! # Examples
//!
//! Record a tiny trace and inspect it:
//!
//! ```
//! use wasteprof_trace::{Recorder, Region, ThreadKind, site};
//!
//! let mut rec = Recorder::new();
//! rec.spawn_thread(ThreadKind::Main, "content::RendererMain");
//! let px = rec.alloc(Region::PixelTile, 64);
//! let style = rec.alloc_cell(Region::Heap);
//! let raster = rec.intern_func("cc::RasterBufferProvider::PlaybackToMemory");
//! rec.in_func(site!(), raster, |rec| {
//!     rec.compute(site!(), &[style.into()], &[px]);
//!     rec.marker(site!(), px);
//! });
//! let trace = rec.finish();
//! assert_eq!(trace.markers().len(), 1);
//! assert!(trace.validate().is_ok());
//! ```

#![warn(missing_docs)]

mod addr;
pub mod analysis;
mod columns;
pub mod compress;
mod func;
mod instr;
mod io;
mod pc;
mod reader;
mod recorder;
mod reg;
pub mod segment;
mod source;
mod syscall;
mod thread;
mod trace;

pub use addr::{Addr, AddrRange, Region, VirtualMemory, CELL, REGION_SHIFT};
pub use analysis::{AnalysisCtx, AnalysisDriver, TraceAnalysis};
pub use columns::{ColumnCursor, Columns, MemOpsRef};
pub use func::{FuncId, FuncInfo, FunctionRegistry};
pub use instr::{Instr, InstrKind, MemMulti, MemOps, TracePos};
pub use io::TraceIoError;
pub use pc::Pc;
pub use reader::{write_trace2, DecodeStats, Trace2Stats, Trace2Writer, TraceReader};
pub use recorder::Recorder;
pub use reg::{Reg, RegSet};
pub use segment::{segment_content_hash, ContentHasher, SegmentMeta, SEGMENT_LEN};
pub use source::ColumnSource;
pub use syscall::Syscall;
pub use thread::{ThreadId, ThreadInfo, ThreadKind, ThreadTable};
pub use trace::{InstrDisplay, Instrs, KindHistogram, MarkerRecord, Trace};
