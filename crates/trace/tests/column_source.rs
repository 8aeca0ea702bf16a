//! The `ColumnSource` contract, checked on both implementations at once:
//! a resident `&Trace` and a `WPTRACE2` reader over the same random
//! recording, written with 64-instruction chunks so ranges cross many
//! chunk boundaries. Every pass is written once against this contract,
//! so these properties are what make its resident and out-of-core runs
//! agree.

use std::io::Cursor;

use proptest::prelude::*;
use wasteprof_trace::{
    AnalysisCtx, AnalysisDriver, ColumnCursor, ColumnMask, ColumnSource, Instr, Pc, Recorder, Reg,
    RegSet, Region, Syscall, ThreadKind, Trace, Trace2Writer, TraceAnalysis, TraceReader,
};

/// Records a trace from random bytes: ALU ops, memory traffic, branches,
/// calls, syscalls and markers on three threads.
fn record(steps: &[u8]) -> Trace {
    let mut rec = Recorder::new();
    let tids = [
        rec.spawn_thread(ThreadKind::Main, "m"),
        rec.spawn_thread(ThreadKind::Compositor, "c"),
        rec.spawn_thread(ThreadKind::Io, "io"),
    ];
    rec.switch_to(tids[0]);
    let callee = rec.intern_func("ns::callee");
    let cells: Vec<_> = (0..4).map(|_| rec.alloc_cell(Region::Heap)).collect();
    for (i, &s) in steps.iter().enumerate() {
        let pc = Pc::from_location("contract").step(i as u32);
        let cell = cells[s as usize % cells.len()];
        match s % 7 {
            0 => {
                rec.alu(pc, Reg::from_index(s as usize % 16), RegSet::EMPTY);
            }
            1 => {
                rec.load(pc, Reg::Rax, cell);
            }
            2 => {
                rec.branch_mem(pc, cell, s % 2 == 0);
            }
            3 => {
                rec.in_func(pc, callee, |rec| rec.store(pc.step(1), cell, Reg::Rbx));
            }
            4 => {
                rec.syscall(pc, Syscall::Write, &[], vec![cell.into()], vec![]);
            }
            5 => {
                let tile = rec.alloc(Region::PixelTile, 64);
                rec.compute(pc, &[cell.into()], &[tile]);
                rec.marker(pc.step(2), tile);
            }
            _ => rec.switch_to(tids[s as usize % tids.len()]),
        }
    }
    rec.finish()
}

/// The trace as a `WPTRACE2` file of 64-instruction chunks.
fn reader_of(trace: &Trace) -> TraceReader<Cursor<Vec<u8>>> {
    let mut buf = Vec::new();
    let mut w = Trace2Writer::with_segment_len(&mut buf, 64).expect("writer");
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
        .expect("push a row");
    }
    w.finish(trace.functions(), trace.threads(), trace.markers())
        .expect("finish the file");
    TraceReader::open(Cursor::new(buf)).expect("open the file")
}

/// A window's bounds and its rows, in the order the pass read them.
type Window = ((usize, usize), Vec<Instr>);

fn window(cur: &ColumnCursor<'_>, rev: bool) -> Window {
    let rows = if rev {
        cur.rev_indices().map(|i| cur.instr(i)).collect()
    } else {
        (cur.lo()..cur.hi()).map(|i| cur.instr(i)).collect()
    };
    ((cur.lo(), cur.hi()), rows)
}

fn windows<S: ColumnSource>(src: &mut S, lo: usize, hi: usize, rev: bool) -> Vec<Window>
where
    S::Error: std::fmt::Debug,
{
    let mut out = Vec::new();
    let read = |cur: &ColumnCursor<'_>| out.push(window(cur, rev));
    if rev {
        src.stream_range_rev(lo, hi, read).expect("stream");
    } else {
        src.stream_range(lo, hi, read).expect("stream");
    }
    out
}

/// Asserts the windows are non-empty and tile `[lo, hi)` in order
/// (`rev`: in reverse order), and returns their rows concatenated.
fn tiled(ws: &[Window], lo: usize, hi: usize, rev: bool) -> Vec<Instr> {
    let mut at = if rev { hi } else { lo };
    for &((wlo, whi), _) in ws {
        assert!(wlo < whi, "empty window [{wlo}, {whi})");
        if rev {
            assert_eq!(whi, at, "reverse windows must tile downward");
            at = wlo;
        } else {
            assert_eq!(wlo, at, "forward windows must tile upward");
            at = whi;
        }
    }
    assert_eq!(
        at,
        if rev { lo } else { hi },
        "windows must cover the range"
    );
    ws.iter()
        .flat_map(|(_, rows)| rows.iter().cloned())
        .collect()
}

/// Records what `begin` and `finish` see, and counts instructions.
#[derive(Default)]
struct Edges {
    begin: Option<(usize, usize)>,
    finish: Option<(usize, usize)>,
    instrs: usize,
}

impl TraceAnalysis for Edges {
    fn name(&self) -> &'static str {
        "edges"
    }

    fn columns(&self) -> ColumnMask {
        ColumnMask::TIDS
    }

    fn begin(&mut self, ctx: &AnalysisCtx<'_>) {
        self.begin = Some((ctx.cols.len(), ctx.total));
    }

    fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
        assert!(ctx.cols.contains(idx));
        self.instrs += 1;
    }

    fn finish(&mut self, ctx: &AnalysisCtx<'_>) {
        self.finish = Some((ctx.cols.len(), ctx.total));
    }
}

fn edges<S: ColumnSource>(src: &mut S) -> Edges
where
    S::Error: std::fmt::Debug,
{
    let mut edges = Edges::default();
    let mut driver = AnalysisDriver::new();
    driver.register(&mut edges);
    driver.run_streamed(src).expect("analysis");
    drop(driver);
    edges
}

/// Maps random pairs onto ordered ranges `[lo, hi)` of a trace of `len`
/// instructions, plus the empty range at the end and the whole trace.
fn ranges(len: usize, picks: &[(u16, u16)]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = picks
        .iter()
        .map(|&(a, b)| {
            let (a, b) = (a as usize % (len + 1), b as usize % (len + 1));
            (a.min(b), a.max(b))
        })
        .collect();
    out.extend([(len, len), (0, len)]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_sources_keep_the_contract(
        steps in proptest::collection::vec(any::<u8>(), 0..400),
        picks in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..8),
    ) {
        let trace = record(&steps);
        let mut resident = &trace;
        let mut reader = reader_of(&trace);
        let len = trace.len();
        prop_assert_eq!(ColumnSource::len(&resident), len);
        prop_assert_eq!(ColumnSource::len(&reader), len);
        prop_assert_eq!(ColumnSource::markers(&reader), trace.markers());
        let ranges = ranges(len, &picks);

        for &(lo, hi) in &ranges {
            let want: Vec<Instr> = (lo..hi).map(|i| trace.columns().instr(i)).collect();
            let back: Vec<Instr> = want.iter().rev().cloned().collect();
            for rev in [false, true] {
                let a = windows(&mut resident, lo, hi, rev);
                let b = windows(&mut reader, lo, hi, rev);
                let expect = if rev { &back } else { &want };
                prop_assert_eq!(&tiled(&a, lo, hi, rev), expect);
                prop_assert_eq!(&tiled(&b, lo, hi, rev), expect);
            }
        }

        for e in [edges(&mut resident), edges(&mut reader)] {
            prop_assert_eq!(e.begin, Some((0, len)));
            prop_assert_eq!(e.finish, Some((0, len)));
            prop_assert_eq!(e.instrs, len);
        }
    }
}
