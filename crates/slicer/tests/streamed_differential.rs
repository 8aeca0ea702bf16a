//! Differential tests: the out-of-core streamed slicing path is
//! byte-identical to the in-memory path.
//!
//! Every fixture is serialized as a WPTRACE2 byte stream with a tiny
//! 64-instruction segment size — so disk-chunk boundaries fall inside
//! loops, open call frames and feed windows — then sliced both ways with
//! the same criteria and options. The full [`SliceResult`] (bitmap,
//! counters, timeline, and dependence witness) must match exactly.

use std::io::Cursor;

use proptest::prelude::*;
use wasteprof_slicer::{
    pixel_criteria, pixel_criteria_streamed, slice, slice_streamed, syscall_criteria,
    syscall_criteria_streamed, Criteria, ForwardPass, SliceOptions, SlicingCriterion,
};
use wasteprof_trace::{
    site, Recorder, Reg, RegSet, Region, Syscall, ThreadKind, Trace, Trace2Writer, TracePos,
    TraceReader,
};

/// Serializes `trace` as WPTRACE2 with 64-instruction segments and opens a
/// reader over the bytes. The tiny segment size forces multi-chunk
/// streaming even for short fixtures.
fn reader_for(trace: &Trace) -> TraceReader<Cursor<Vec<u8>>> {
    let mut buf = Vec::new();
    let mut w = Trace2Writer::with_segment_len(&mut buf, 64).unwrap();
    let cols = trace.columns();
    for idx in 0..cols.len() {
        w.push(
            cols.tid(idx),
            cols.func(idx),
            cols.pc(idx),
            cols.kind(idx),
            cols.reg_reads(idx),
            cols.reg_writes(idx),
            cols.mem_reads(idx),
            cols.mem_writes(idx),
        )
        .unwrap();
    }
    w.finish(trace.functions(), trace.threads(), trace.markers())
        .unwrap();
    TraceReader::open(Cursor::new(buf)).unwrap()
}

/// Slices `trace` both ways under `end` and asserts full result
/// equality, witness included (streamed, it is emitted one chunk window
/// at a time).
fn check_streamed_with(trace: &Trace, criteria: &Criteria, end: Option<TracePos>) {
    let fwd = ForwardPass::build(trace);
    let mut reader = reader_for(trace);
    let fwd_s = ForwardPass::build_streamed(&mut reader).unwrap();
    let opts = SliceOptions { end, witness: true };
    let mem = slice(trace, &fwd, criteria, &opts);
    let st = slice_streamed(&mut reader, &fwd_s, criteria, &opts).unwrap();
    assert_eq!(st.witness(), mem.witness(), "streamed witness diverged");
    assert_eq!(st, mem, "streamed slice diverged");
}

fn check_streamed(trace: &Trace, criteria: &Criteria) {
    check_streamed_with(trace, criteria, None);
}

#[test]
fn streamed_criteria_and_slices_match_in_memory() {
    let mut rec = Recorder::new();
    rec.spawn_thread(ThreadKind::Main, "root");
    let buf = rec.alloc(Region::Heap, 32);
    let dead = rec.alloc(Region::Heap, 32);
    let tile = rec.alloc(Region::PixelTile, 64);
    rec.compute(site!(), &[], &[buf]);
    for _ in 0..100 {
        rec.compute(site!(), &[buf], &[buf]);
        rec.compute(site!(), &[], &[dead]); // waste, overwritten
    }
    rec.syscall(site!(), Syscall::Sendto, &[], vec![buf], vec![]);
    rec.syscall(site!(), Syscall::Recvfrom, &[], vec![], vec![buf]);
    rec.compute(site!(), &[buf], &[tile]);
    rec.marker(site!(), tile);
    let trace = rec.finish();

    let mut reader = reader_for(&trace);
    assert_eq!(
        pixel_criteria_streamed(&reader).items(),
        pixel_criteria(&trace).items()
    );
    assert_eq!(
        syscall_criteria_streamed(&mut reader).unwrap().items(),
        syscall_criteria(&trace).items()
    );

    check_streamed(&trace, &pixel_criteria(&trace));
    check_streamed(&trace, &syscall_criteria(&trace));
}

#[test]
fn streamed_loops_calls_and_threads_match_in_memory() {
    // Pending-branch chains, open call frames, and per-thread register
    // liveness all crossing disk-chunk boundaries.
    let mut rec = Recorder::new();
    let t0 = rec.spawn_thread(ThreadKind::Main, "root");
    let t1 = rec.spawn_thread(ThreadKind::Compositor, "root");
    let f = rec.intern_func("looper");
    let wrapper = rec.intern_func("wrapper");
    let cond = rec.alloc_cell(Region::Heap);
    let acc = rec.alloc_cell(Region::Heap);
    let junk = rec.alloc_cell(Region::Heap);
    let tile = rec.alloc(Region::PixelTile, 64);
    let head = site!();
    let body = site!();
    rec.switch_to(t0);
    rec.compute(site!(), &[], &[cond.into()]);
    rec.compute(site!(), &[], &[acc.into()]);
    rec.enter(site!(), wrapper);
    rec.in_func(site!(), f, |rec| {
        for _ in 0..90 {
            rec.branch_mem(head, cond, true);
            rec.compute(body, &[acc.into()], &[acc.into()]);
            rec.compute(site!(), &[], &[junk.into()]);
        }
        rec.branch_mem(head, cond, false);
    });
    for _ in 0..40 {
        rec.switch_to(t1);
        rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        rec.store(site!(), junk, Reg::Rax);
        rec.switch_to(t0);
        rec.load(site!(), Reg::Rax, acc);
        rec.alu(site!(), Reg::Rcx, RegSet::of(&[Reg::Rax]));
        rec.store(site!(), acc, Reg::Rcx);
    }
    rec.leave(site!());
    rec.compute(site!(), &[acc.into()], &[tile]);
    rec.marker(site!(), tile);
    let trace = rec.finish();
    check_streamed(&trace, &pixel_criteria(&trace));
}

#[test]
fn streamed_bounded_prefix_and_timeline_match_in_memory() {
    let mut rec = Recorder::new();
    rec.spawn_thread(ThreadKind::Main, "root");
    let a = rec.alloc_cell(Region::Heap);
    let tile = rec.alloc(Region::PixelTile, 64);
    rec.compute(site!(), &[], &[a.into()]);
    for _ in 0..150 {
        rec.compute(site!(), &[a.into()], &[tile]);
    }
    rec.marker(site!(), tile);
    let cut = rec.pos();
    for _ in 0..40 {
        rec.compute(site!(), &[], &[a.into()]);
    }
    let trace = rec.finish();
    check_streamed_with(&trace, &pixel_criteria(&trace), Some(TracePos(cut.0 - 1)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized programs: data chains, register traffic, loops, calls,
    /// and thread switches, sliced streamed vs in-memory.
    #[test]
    fn streamed_slice_equals_in_memory(
        steps in proptest::collection::vec((0..5u8, 0..6u8, 0..6u8), 15..40),
        crit_cell in 0..6u8,
    ) {
        let mut rec = Recorder::new();
        let tids = [
            rec.spawn_thread(ThreadKind::Main, "root"),
            rec.spawn_thread(ThreadKind::Compositor, "root"),
        ];
        let cells: Vec<_> = (0..6).map(|_| rec.alloc_cell(Region::Heap)).collect();
        let funcs = [rec.intern_func("alpha"), rec.intern_func("beta")];
        let regs = [Reg::Rax, Reg::Rcx, Reg::Rdx];
        let tile = rec.alloc(Region::PixelTile, 64);
        let head = site!();
        let body = site!();

        for _ in 0..3 {
            for &(sel, a, b) in &steps {
                match sel {
                    0 => {
                        rec.compute(
                            site!(),
                            &[cells[a as usize].into()],
                            &[cells[b as usize].into()],
                        );
                    }
                    1 => {
                        rec.compute(site!(), &[], &[cells[a as usize].into()]);
                    }
                    2 => {
                        let r = regs[a as usize % 3];
                        rec.load(site!(), r, cells[b as usize]);
                        rec.store(site!(), cells[b as usize], r);
                    }
                    3 => {
                        let c = cells[b as usize];
                        rec.in_func(site!(), funcs[a as usize % 2], |rec| {
                            for _ in 0..(a % 4 + 2) {
                                rec.branch_mem(head, c, true);
                                rec.compute(body, &[c.into()], &[c.into()]);
                            }
                            rec.branch_mem(head, c, false);
                        });
                    }
                    _ => {
                        rec.switch_to(tids[a as usize % 2]);
                    }
                }
            }
        }
        rec.switch_to(tids[0]);
        rec.compute(site!(), &[cells[0].into()], &[tile]);
        rec.marker(site!(), tile);
        let last = TracePos(rec.pos().0 - 1);
        let trace = rec.finish();

        let mut items = pixel_criteria(&trace).items().to_vec();
        items.push(SlicingCriterion::mem_at(
            last,
            vec![cells[crit_cell as usize].into()],
        ));
        items.sort_by_key(|c| c.pos);
        let criteria = Criteria::new(items);
        check_streamed(&trace, &criteria);
    }
}
