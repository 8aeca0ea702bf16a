//! The witness table is a pure function of `(trace, criteria, bitmap)`.
//!
//! The backward walk records a member's structural reason as it joins.
//! This file keeps an independent model of that rule: the walk's
//! structural bookkeeping (pending branches that remember their armer,
//! dynamic frames that remember their first member, the criteria cursor)
//! replayed over the finished slice bitmap, with no live sets. The model
//! must reproduce the walk's table row for row on every canonical session
//! and on hand-built sessions with recursion and calls still open at the
//! cut.

use std::collections::HashMap;

use wasteprof_slicer::{
    pixel_criteria, slice, syscall_criteria, Criteria, ForwardPass, SliceOptions, SliceResult,
    SlicingCriterion, WitnessKind, WitnessRow,
};
use wasteprof_trace::{
    site, FuncId, InstrKind, Pc, Recorder, Region, ThreadId, ThreadKind, Trace, TracePos,
};
use wasteprof_workloads::Benchmark;

/// One dynamic frame of the replay: its function and the first member
/// (in backward order) found inside it.
struct Frame {
    func: FuncId,
    first: Option<u64>,
}

/// Replays the witness rule over `result`'s bitmap, in ascending member
/// order.
///
/// Walking backward from the end of the considered prefix, each member
/// arms the branches it is control-dependent on (keep-first, scoped to
/// its thread) and marks its enclosing frame; an `include_instr` anchor
/// arms before the position's pending probe, every other member after
/// it. A call closes its callee's frame before it marks any frame
/// itself. A member's row is `Control` when it consumed a pending entry,
/// else `Criterion` when it anchors a criterion, else `Call` when its
/// callee frame holds a member.
fn replay(
    trace: &Trace,
    fwd: &ForwardPass,
    criteria: &Criteria,
    result: &SliceResult,
) -> Vec<WitnessRow> {
    let n = result.considered() as usize;
    let cols = trace.columns();
    let deps = fwd.control_deps();

    // The calls still open at the cut: their Ret is never visited.
    let mut frames: Vec<Vec<Frame>> = (0..256).map(|_| Vec::new()).collect();
    for idx in 0..n {
        let stack = &mut frames[cols.tid(idx).index()];
        match cols.kind(idx) {
            InstrKind::Call { callee } => stack.push(Frame {
                func: callee,
                first: None,
            }),
            InstrKind::Ret => {
                stack.pop();
            }
            _ => {}
        }
    }

    let items: &[SlicingCriterion] = criteria.items();
    let mut crit = items.partition_point(|c| c.pos.index() < n);
    let mut pending: HashMap<(ThreadId, FuncId, Pc), u64> = HashMap::new();
    let mut rows = Vec::new();
    for idx in (0..n).rev() {
        let member = result.contains(TracePos(idx as u64));
        let (tid, func, pc, kind) = (cols.tid(idx), cols.func(idx), cols.pc(idx), cols.kind(idx));
        let stack = &mut frames[tid.index()];
        let arm = |pending: &mut HashMap<(ThreadId, FuncId, Pc), u64>| {
            for &bpc in deps.controllers(func, pc) {
                pending.entry((tid, func, bpc)).or_insert(idx as u64);
            }
        };

        if matches!(kind, InstrKind::Ret) {
            stack.push(Frame { func, first: None });
        }
        let mut anchor = false;
        while crit > 0 && items[crit - 1].pos.index() == idx {
            crit -= 1;
            anchor |= items[crit].include_instr;
        }
        let anchor = anchor && member;
        if anchor {
            arm(&mut pending);
        }
        let armer = if kind.is_branch() {
            pending.remove(&(tid, func, pc))
        } else {
            None
        };
        let inner = match kind {
            InstrKind::Call { .. } => stack.pop().and_then(|f| f.first),
            _ => None,
        };

        if member {
            if !anchor {
                arm(&mut pending);
            }
            let reason = armer
                .map(|a| (WitnessKind::Control, a))
                .or(anchor.then_some((WitnessKind::Criterion, idx as u64)))
                .or(inner.map(|c| (WitnessKind::Call, c)));
            if let Some((kind, consumer)) = reason {
                rows.push(WitnessRow {
                    member: TracePos(idx as u64),
                    kind,
                    consumer: TracePos(consumer),
                });
            }
            if let Some(frame) = stack.last_mut() {
                frame.first.get_or_insert(idx as u64);
            }
        }

        if let InstrKind::Call { callee } = kind {
            if !stack.iter().any(|f| f.func == callee) {
                pending.retain(|&(t, f, _), _| t != tid || f != callee);
            }
        }
    }
    rows.reverse();
    rows
}

/// Slices `trace` with the witness on, asserts the replay equals the
/// walk's table and returns the table's rows.
fn check(
    label: &str,
    trace: &Trace,
    fwd: &ForwardPass,
    criteria: &Criteria,
    end: Option<TracePos>,
) -> Vec<WitnessRow> {
    let result = slice(trace, fwd, criteria, &SliceOptions { end, witness: true });
    let walked: Vec<WitnessRow> = result
        .witness()
        .expect("witness requested")
        .rows()
        .collect();
    let replayed = replay(trace, fwd, criteria, &result);
    if let Some(i) = (0..walked.len().min(replayed.len())).find(|&i| walked[i] != replayed[i]) {
        panic!(
            "{label}: row {i} differs: walk {:?}, replay {:?}",
            walked[i], replayed[i]
        );
    }
    assert_eq!(
        walked.len(),
        replayed.len(),
        "{label}: the walk and the replay disagree on the row count"
    );
    walked
}

/// The six canonical sessions, pixel and syscall criteria, over the whole
/// trace and over its first half.
#[test]
fn canonical_tables_replay_from_the_bitmap() {
    let mut sessions: Vec<(String, Trace)> = Benchmark::ALL
        .into_iter()
        .map(|b| (b.label().to_owned(), b.run().trace))
        .collect();
    for b in [Benchmark::AmazonDesktop, Benchmark::GoogleMaps] {
        sessions.push((
            format!("{} (load + browse)", b.label()),
            b.run_with_browse().trace,
        ));
    }
    for (label, trace) in &sessions {
        let fwd = ForwardPass::build(trace);
        let half = TracePos(trace.len() as u64 / 2);
        for (kind, criteria) in [
            ("pixel", pixel_criteria(trace)),
            ("syscall", syscall_criteria(trace)),
        ] {
            for end in [None, Some(half)] {
                let label = format!("{label} [{kind}, end {end:?}]");
                let rows = check(&label, trace, &fwd, &criteria, end);
                assert!(!rows.is_empty(), "{label}: no structural rows at all");
            }
        }
    }
}

/// A recursive function with a loop and an anchored criterion, entered
/// by a call that is still open at the end of the trace, and cut at every
/// position so each call is open at some cut.
#[test]
fn recursion_and_open_calls_replay_at_every_cut() {
    let mut rec = Recorder::new();
    let t0 = rec.spawn_thread(ThreadKind::Main, "root");
    let t1 = rec.spawn_thread(ThreadKind::Compositor, "root");
    let outer = rec.intern_func("outer");
    let walk = rec.intern_func("walk");
    let cond = rec.alloc_cell(Region::Heap);
    let acc = rec.alloc_cell(Region::Heap);
    let junk = rec.alloc_cell(Region::Heap);
    let tile = rec.alloc(Region::PixelTile, 64);
    let (head, body, recurse, base) = (site!(), site!(), site!(), site!());

    // walk(depth): a loop whose body feeds `acc`, then a guarded
    // recursive call on the same site.
    fn walk_body(
        rec: &mut Recorder,
        walk: FuncId,
        sites: (Pc, Pc, Pc, Pc),
        cells: (
            wasteprof_trace::Addr,
            wasteprof_trace::Addr,
            wasteprof_trace::Addr,
        ),
        depth: u32,
    ) {
        let (head, body, recurse, base) = sites;
        let (cond, acc, junk) = cells;
        for i in 0..2 {
            rec.branch_mem(head, cond, true);
            if i == depth % 2 {
                rec.compute(body, &[acc.into()], &[acc.into()]);
            } else {
                rec.compute(body, &[], &[junk.into()]);
            }
        }
        rec.branch_mem(head, cond, false);
        if depth > 0 {
            rec.branch_mem(base, cond, true);
            rec.in_func(recurse, walk, |rec| {
                walk_body(rec, walk, sites, cells, depth - 1)
            });
        } else {
            rec.branch_mem(base, cond, false);
        }
    }

    rec.switch_to(t0);
    rec.compute(site!(), &[], &[cond.into()]);
    rec.compute(site!(), &[], &[acc.into()]);
    rec.enter(site!(), outer); // never returns
    for _ in 0..2 {
        rec.in_func(site!(), walk, |rec| {
            walk_body(rec, walk, (head, body, recurse, base), (cond, acc, junk), 3)
        });
        rec.switch_to(t1);
        rec.compute(site!(), &[junk.into()], &[junk.into()]);
        rec.switch_to(t0);
    }
    rec.enter(site!(), walk); // open at the end too
    rec.compute(site!(), &[acc.into()], &[tile]);
    rec.marker(site!(), tile);
    let trace = rec.finish();
    let fwd = ForwardPass::build(&trace);

    // Pixel criteria plus two anchored criteria: one on a loop head of
    // the second top-level walk (a pending branch, so its row stays
    // `Control` at most cuts) and one on the compositor thread's first
    // instruction (no controllers, so a `Criterion` row).
    let cols = trace.columns();
    let head_anchor = (0..trace.len())
        .filter(|&i| cols.kind(i).is_branch())
        .nth(20)
        .expect("enough branches");
    let t1_anchor = (0..trace.len())
        .find(|&i| cols.tid(i) == t1)
        .expect("t1 runs");
    let mut items = pixel_criteria(&trace).items().to_vec();
    for pos in [head_anchor, t1_anchor] {
        items.push(SlicingCriterion {
            pos: TracePos(pos as u64),
            mem: vec![acc.into()],
            regs: wasteprof_trace::RegSet::EMPTY,
            include_instr: true,
        });
    }
    let criteria = Criteria::new(items);

    let mut kinds = Vec::new();
    for cut in 0..trace.len() as u64 {
        let rows = check(
            &format!("cut {cut}"),
            &trace,
            &fwd,
            &criteria,
            Some(TracePos(cut)),
        );
        kinds.extend(rows.iter().map(|r| r.kind));
    }
    check("whole trace", &trace, &fwd, &criteria, None);
    for kind in [
        WitnessKind::Control,
        WitnessKind::Call,
        WitnessKind::Criterion,
    ] {
        assert!(
            kinds.contains(&kind),
            "no cut produced a {} row",
            kind.name()
        );
    }
}
