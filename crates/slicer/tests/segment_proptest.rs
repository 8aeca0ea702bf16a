//! Property test: the segment-parallel slicer is byte-identical to the
//! sequential reference on randomized synthetic traces.
//!
//! Programs are random command sequences that deliberately stress the
//! cross-boundary machinery: data chains threaded through a small cell
//! pool (liveness transfer), per-thread register traffic on shared
//! architectural registers (register pass-through and kills), loops whose
//! pending-branch arm/consume chains span boundaries, and call/return
//! nesting that leaves frames open across segments. Each program is
//! sliced sequentially (`segments: 1`) and with several forced segment
//! counts; the full [`SliceResult`] — bitmap, counts, per-thread and
//! per-function stats, timeline, witness — must match exactly, and the
//! sequential witness must certify clean.

use proptest::prelude::*;
use wasteprof_checker::certify;
use wasteprof_slicer::{
    pixel_criteria, slice, Criteria, ForwardPass, SliceOptions, SlicingCriterion,
};
use wasteprof_trace::{site, Recorder, Reg, RegSet, Region, ThreadKind, TracePos};

/// One building block of a synthetic program. Fields index small pools
/// (cells, registers, functions, threads) so independently drawn commands
/// still collide on state — collisions are what make slicing interesting.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    /// `cell[dst] = f(cell[src])` — extends a data chain.
    Compute { src: u8, dst: u8 },
    /// `cell[dst] = const` — kills whatever fed the cell before.
    Overwrite { dst: u8 },
    /// Register traffic: `reg[dst] = f(reg[src])`, then spill to a cell.
    RegChain { dst: u8, src: u8, cell: u8 },
    /// A counted loop in a named function; the loop head re-arms its own
    /// pending entry every iteration.
    Loop { func: u8, iters: u8, cell: u8 },
    /// A call whose body touches a cell — frame open/close pairs.
    Call { func: u8, cell: u8 },
    /// Switch the recording thread.
    Switch { tid: u8 },
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    (0..6u8, 0..8u8, 0..8u8, 0..8u8).prop_map(|(sel, a, b, c)| match sel {
        0 => Cmd::Compute { src: a, dst: b },
        1 => Cmd::Overwrite { dst: a },
        2 => Cmd::RegChain {
            dst: a % 4,
            src: b % 4,
            cell: c,
        },
        3 => Cmd::Loop {
            func: a % 3,
            iters: b % 6 + 2,
            cell: c,
        },
        4 => Cmd::Call {
            func: a % 3,
            cell: c,
        },
        _ => Cmd::Switch { tid: a % 3 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn segmented_slice_equals_sequential(
        cmds in proptest::collection::vec(arb_cmd(), 20..60),
        crit_cell in 0..8u8,
    ) {
        let mut rec = Recorder::new();
        let tids = [
            rec.spawn_thread(ThreadKind::Main, "root"),
            rec.spawn_thread(ThreadKind::Compositor, "root"),
            rec.spawn_thread(ThreadKind::Raster(0), "root"),
        ];
        let cells: Vec<_> = (0..8).map(|_| rec.alloc_cell(Region::Heap)).collect();
        let funcs = [
            rec.intern_func("alpha"),
            rec.intern_func("beta"),
            rec.intern_func("gamma"),
        ];
        let regs = [Reg::Rax, Reg::Rcx, Reg::Rdx, Reg::Rbx];
        let tile = rec.alloc(Region::PixelTile, 64);
        let loop_head = site!();
        let loop_body = site!();

        // Repeat the program so traces cross several 64-aligned segment
        // boundaries even for short command vectors.
        for _ in 0..3 {
            for &cmd in &cmds {
                match cmd {
                    Cmd::Compute { src, dst } => {
                        rec.compute(
                            site!(),
                            &[cells[src as usize].into()],
                            &[cells[dst as usize].into()],
                        );
                    }
                    Cmd::Overwrite { dst } => {
                        rec.compute(site!(), &[], &[cells[dst as usize].into()]);
                    }
                    Cmd::RegChain { dst, src, cell } => {
                        rec.load(site!(), regs[src as usize], cells[cell as usize]);
                        rec.alu(
                            site!(),
                            regs[dst as usize],
                            RegSet::of(&[regs[src as usize]]),
                        );
                        rec.store(site!(), cells[cell as usize], regs[dst as usize]);
                    }
                    Cmd::Loop { func, iters, cell } => {
                        let c = cells[cell as usize];
                        rec.in_func(site!(), funcs[func as usize], |rec| {
                            for _ in 0..iters {
                                rec.branch_mem(loop_head, c, true);
                                rec.compute(loop_body, &[c.into()], &[c.into()]);
                            }
                            rec.branch_mem(loop_head, c, false);
                        });
                    }
                    Cmd::Call { func, cell } => {
                        let c = cells[cell as usize];
                        rec.in_func(site!(), funcs[func as usize], |rec| {
                            rec.compute(site!(), &[c.into()], &[c.into()]);
                        });
                    }
                    Cmd::Switch { tid } => {
                        rec.switch_to(tids[tid as usize]);
                    }
                }
            }
        }
        rec.switch_to(tids[0]);
        rec.compute(site!(), &[cells[0].into()], &[tile]);
        rec.marker(site!(), tile);
        let last = TracePos(rec.pos().0 - 1);
        let trace = rec.finish();

        // Pixel criteria plus an extra mem criterion on a random cell, so
        // multi-criteria seeding is covered too.
        let mut items = pixel_criteria(&trace).items().to_vec();
        items.push(SlicingCriterion::mem_at(
            last,
            vec![cells[crit_cell as usize].into()],
        ));
        items.sort_by_key(|c| c.pos);
        let criteria = Criteria::new(items);

        let fwd = ForwardPass::build(&trace);
        let seq = slice(
            &trace,
            &fwd,
            &criteria,
            &SliceOptions { segments: 1, witness: true, ..Default::default() },
        );
        let diags = certify(&trace, &fwd, &criteria, &seq);
        prop_assert!(diags.is_empty(), "sequential slice failed certification: {}", diags[0]);
        for k in [2, 3, 8] {
            let par = slice(
                &trace,
                &fwd,
                &criteria,
                &SliceOptions { segments: k, witness: true, ..Default::default() },
            );
            prop_assert_eq!(&par, &seq, "segments={} diverged", k);
        }
    }
}
