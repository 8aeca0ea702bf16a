//! Pre-slicing trace normalization: removing allocator-metadata
//! dependences.
//!
//! The recorder models PartitionAlloc faithfully: every traced heap
//! allocation emits a `base::allocator::PartitionAlloc::Alloc` frame
//! whose freelist scan reads *and* writes a per-thread bump cursor, and
//! the allocating instruction itself reads the cursor as its allocation
//! anchor. The cursor therefore chains every allocation on a thread into
//! one long def-use ribbon: if any later allocation feeds the pixels, the
//! backward slice walks the ribbon and pulls in every earlier allocator
//! frame — and through the anchors, every earlier allocating *statement*
//! — regardless of whether the allocated object mattered.
//!
//! That is faithful to machine-level slicing (the paper's §III slices the
//! real allocator the same way) but it is the wrong ground truth for
//! judging a *source-level* analyzer, which reasons about object values,
//! not allocator metadata. [`strip_allocator_deps`] copies the trace and
//! drops every cursor-cell operand in place, cutting the ribbon while
//! keeping the allocator instructions themselves (their cost still
//! counts; only the artificial dependence goes). The result is the
//! referee's pixel-slice ground truth.

use wasteprof_trace::{AddrRange, Trace};

/// The recorder's allocator frame name (see `Recorder::note_alloc`).
pub const ALLOCATOR_FN: &str = "base::allocator::PartitionAlloc::Alloc";

/// Returns a copy of `trace` with every memory operand that touches an
/// allocator bump-cursor cell removed, on every instruction. Cursor
/// cells are identified as the bytes the allocator frames write; the
/// anchor *reads* of those bytes on allocating instructions are dropped
/// too. A trace with no allocator frames is returned unchanged.
#[must_use]
pub fn strip_allocator_deps(trace: &Trace) -> Trace {
    let cols = trace.columns();
    let Some(alloc_fid) = trace.functions().get(ALLOCATOR_FN) else {
        return trace.clone();
    };
    // One cursor cell per allocating thread: a handful of ranges, binary
    // searched per operand rather than hashed.
    let key = |r: &AddrRange| (r.start().raw(), r.end().raw());
    let mut cursor: Vec<(u64, u64)> = Vec::new();
    for i in 0..cols.len() {
        if cols.func(i) == alloc_fid {
            cursor.extend(cols.mem_writes(i).iter().map(key));
        }
    }
    cursor.sort_unstable();
    cursor.dedup();
    let mut cols = cols.clone();
    cols.retain_mem_ops(|r| cursor.binary_search(&key(r)).is_err());
    Trace::from_parts(
        cols,
        trace.functions().clone(),
        trace.threads().clone(),
        trace.markers().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use wasteprof_trace::{site, Recorder, Region, ThreadKind, TracePos};

    use super::*;
    use crate::{pixel_criteria, slice, ForwardPass, SliceOptions};
    use std::collections::HashSet;
    use wasteprof_trace::Columns;
    use wasteprof_workloads::Benchmark;

    /// Reference model of [`strip_allocator_deps`]: rebuild the trace one
    /// instruction at a time through [`Columns::push`], keeping only the
    /// non-cursor operands.
    fn strip_by_rebuild(trace: &Trace) -> Trace {
        let cols = trace.columns();
        let Some(alloc_fid) = trace.functions().get(ALLOCATOR_FN) else {
            return trace.clone();
        };
        let mut cursor: HashSet<AddrRange> = HashSet::new();
        for i in 0..cols.len() {
            if cols.func(i) == alloc_fid {
                cursor.extend(cols.mem_writes(i));
            }
        }
        let mut out = Columns::default();
        for i in 0..cols.len() {
            let keep = |ops: &[AddrRange]| -> Vec<AddrRange> {
                ops.iter()
                    .filter(|r| !cursor.contains(r))
                    .copied()
                    .collect()
            };
            out.push(
                cols.tid(i),
                cols.func(i),
                cols.pc(i),
                cols.kind(i),
                cols.reg_reads(i),
                cols.reg_writes(i),
                &keep(cols.mem_reads(i)),
                &keep(cols.mem_writes(i)),
            );
        }
        Trace::from_parts(
            out,
            trace.functions().clone(),
            trace.threads().clone(),
            trace.markers().to_vec(),
        )
    }

    /// The in-place strip leaves exactly the columns the per-instruction
    /// rebuild produces, on every canonical engine session (the four
    /// loads and the two browse phases).
    #[test]
    fn in_place_strip_matches_rebuild_on_canonical_sessions() {
        let sessions = Benchmark::ALL
            .iter()
            .map(|b| b.run())
            .chain([Benchmark::AmazonDesktop, Benchmark::GoogleMaps].map(|b| b.run_with_browse()));
        for session in sessions {
            let trace = &session.trace;
            let (fast, reference) = (strip_allocator_deps(trace), strip_by_rebuild(trace));
            assert!(
                fast.columns().arena_len() < trace.columns().arena_len(),
                "canonical sessions trace their allocations"
            );
            assert!(
                fast.columns() == reference.columns(),
                "in-place strip differs from the rebuild"
            );
            assert_eq!(fast.markers(), reference.markers());
        }
    }

    #[test]
    fn untraced_allocations_leave_the_trace_unchanged() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "content::RendererMain");
        let a = rec.alloc_cell(Region::Heap);
        rec.compute(site!(), &[], &[a.into()]);
        let trace = rec.finish();
        let stripped = strip_allocator_deps(&trace);
        assert_eq!(stripped.columns().len(), trace.columns().len());
        assert_eq!(
            stripped.columns().mem_writes(0),
            trace.columns().mem_writes(0)
        );
    }

    #[test]
    fn cursor_operands_vanish_but_instructions_stay() {
        let mut rec = Recorder::new();
        rec.set_traced_allocations(true);
        rec.spawn_thread(ThreadKind::Main, "content::RendererMain");
        let a = rec.alloc_cell(Region::Heap);
        let b = rec.alloc_cell(Region::Heap);
        rec.compute(site!(), &[], &[a.into()]);
        rec.compute(site!(), &[], &[b.into()]);
        let trace = rec.finish();
        let stripped = strip_allocator_deps(&trace);
        // Same instruction stream, allocator frames included.
        assert_eq!(stripped.columns().len(), trace.columns().len());
        let fid = stripped.functions().get(ALLOCATOR_FN).unwrap();
        let cols = stripped.columns();
        let mut alloc_instrs = 0usize;
        for i in 0..cols.len() {
            if cols.func(i) == fid {
                alloc_instrs += 1;
                assert!(cols.mem_reads(i).is_empty(), "cursor read at {i}");
                assert!(cols.mem_writes(i).is_empty(), "cursor write at {i}");
            }
        }
        assert!(alloc_instrs > 0, "allocator frames preserved");
    }

    #[test]
    fn stripping_cuts_the_allocation_ribbon_out_of_the_slice() {
        // Two allocations on one thread: the first object is never read,
        // the second feeds the pixels. Raw slicing drags the first
        // allocator frame in through the shared cursor; stripped slicing
        // does not.
        let mut rec = Recorder::new();
        rec.set_traced_allocations(true);
        rec.spawn_thread(ThreadKind::Main, "content::RendererMain");
        let dead = rec.alloc_cell(Region::Heap);
        let dead_write = rec.compute(site!(), &[], &[dead.into()]);
        let live = rec.alloc_cell(Region::Heap);
        rec.compute(site!(), &[], &[live.into()]);
        let tile = rec.alloc(Region::PixelTile, 64);
        rec.compute(site!(), &[live.into()], &[tile]);
        rec.marker(site!(), tile);
        let trace = rec.finish();

        // The dead allocation's allocator frames are every Alloc
        // instruction before the (first) compute that wrote `dead`.
        let fid = trace.functions().get(ALLOCATOR_FN).unwrap();
        let cols = trace.columns();
        let dead_frames: Vec<TracePos> = (0..dead_write.0 as usize)
            .filter(|&i| cols.func(i) == fid)
            .map(|i| TracePos(i as u64))
            .collect();
        assert!(!dead_frames.is_empty());

        let raw = {
            let fwd = ForwardPass::build(&trace);
            slice(
                &trace,
                &fwd,
                &pixel_criteria(&trace),
                &SliceOptions::default(),
            )
        };
        let stripped_trace = strip_allocator_deps(&trace);
        let stripped = {
            let fwd = ForwardPass::build(&stripped_trace);
            slice(
                &stripped_trace,
                &fwd,
                &pixel_criteria(&stripped_trace),
                &SliceOptions::default(),
            )
        };
        assert!(
            dead_frames.iter().any(|&p| raw.contains(p)),
            "raw slice chains the dead allocation's frames in via the cursor"
        );
        assert!(
            dead_frames.iter().all(|&p| !stripped.contains(p)),
            "stripped slice excludes the dead allocation's frames"
        );
        assert!(stripped.slice_count() < raw.slice_count());
    }
}
