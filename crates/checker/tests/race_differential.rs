//! Differential test: the race detector's compact shadow reports exactly
//! what the shadow it replaced reported.
//!
//! `reference` below is the previous `RaceLint`, kept verbatim: a
//! `BTreeMap` interval map whose cells hold an optional write epoch and a
//! heap `Vec` of reader epochs. The current lint keeps 32-byte cells with
//! the first reader inline and later readers in a side table, behind a
//! hashed start index. Both lints run alone over the same traces and
//! must emit the same diagnostics — code, position and message, in
//! emission order, so the tile visiting order and the reader order are
//! compared too, not only the sorted battery output — on random
//! multi-thread programs, on every single-fault mutation of a synthetic
//! scheduler session and of AmazonMobile, and on the six canonical
//! sessions.

use proptest::prelude::*;
use wasteprof_browser::Sched;
use wasteprof_checker::{Diag, Lint, Mutation, RaceLint, TraceMutator};
use wasteprof_trace::{
    site, AddrRange, AnalysisCtx, AnalysisDriver, Pc, Recorder, Reg, Region, Syscall, ThreadKind,
    Trace, TraceAnalysis,
};
use wasteprof_workloads::Benchmark;

/// The race detector as it was before its shadow became compact cells.
mod reference {
    use std::collections::{BTreeMap, HashSet};

    use wasteprof_trace::{FuncId, InstrKind, Region, ThreadId, TracePos};

    use wasteprof_checker::{Code, Ctx, Diag, Lint};

    /// The function symbol whose frames carry lock acquire/release semantics.
    pub const LOCK_SYMBOL: &str = "base::threading::LockImpl::Lock";

    /// A vector clock: one logical clock per thread id.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct Vc(Vec<u32>);

    impl Vc {
        fn with_threads(n: usize) -> Vc {
            Vc(vec![0; n])
        }

        fn get(&self, tid: usize) -> u32 {
            self.0.get(tid).copied().unwrap_or(0)
        }

        fn bump(&mut self, tid: usize) {
            self.0[tid] += 1;
        }

        fn set(&mut self, tid: usize, clk: u32) {
            self.0[tid] = clk;
        }

        /// `self ⊔= other` (pointwise max).
        fn join(&mut self, other: &Vc) {
            for (a, &b) in self.0.iter_mut().zip(&other.0) {
                *a = (*a).max(b);
            }
        }
    }

    /// One recorded access: who, at what clock, and where in the trace.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Access {
        tid: u8,
        clk: u32,
        pos: u64,
    }

    impl Access {
        /// FastTrack's `epoch ⊑ vc`: the access happens-before anything that
        /// holds `vc`.
        fn ordered_before(&self, vc: &Vc) -> bool {
            self.clk <= vc.get(self.tid as usize)
        }
    }

    /// Shadow state for one byte interval: last write plus last read per tid.
    #[derive(Clone, Debug, Default)]
    struct CellState {
        write: Option<Access>,
        /// At most one entry per tid (the most recent read).
        reads: Vec<Access>,
    }

    impl CellState {
        fn record_read(&mut self, access: Access) {
            match self.reads.iter_mut().find(|r| r.tid == access.tid) {
                Some(r) => *r = access,
                None => self.reads.push(access),
            }
        }
    }

    /// One interval of the shadow map: `[start, end)` with uniform state.
    #[derive(Clone, Debug)]
    struct Interval {
        end: u64,
        cell: CellState,
    }

    /// Interval map over accessed bytes, keyed by interval start.
    #[derive(Default)]
    struct Shadow {
        map: BTreeMap<u64, Interval>,
    }

    impl Shadow {
        /// Splits existing intervals at `at` so no interval straddles it.
        fn split_at(&mut self, at: u64) {
            let split = match self.map.range(..at).next_back() {
                Some((&s, iv)) if iv.end > at => Some((s, iv.end, iv.cell.clone())),
                _ => None,
            };
            if let Some((s, end, cell)) = split {
                self.map.get_mut(&s).expect("interval just observed").end = at;
                self.map.insert(at, Interval { end, cell });
            }
        }

        /// Makes `[start, end)` exactly tiled by intervals (inserting fresh
        /// empty cells for uncovered gaps) and visits each in order.
        fn for_range(&mut self, start: u64, end: u64, mut f: impl FnMut(u64, u64, &mut CellState)) {
            // Fast path: the range is already tiled by exactly one interval.
            // Operands are cell-granular and heavily reused, so in steady
            // state nearly every access lands here — one tree walk instead of
            // the two splits plus two range scans below.
            if let Some((&s, iv)) = self.map.range_mut(..=start).next_back() {
                if s == start && iv.end == end {
                    f(start, end, &mut iv.cell);
                    return;
                }
            }
            self.split_at(start);
            self.split_at(end);
            let mut at = start;
            let mut gaps = Vec::new();
            for (&s, iv) in self.map.range(start..end) {
                if s > at {
                    gaps.push((at, s));
                }
                at = iv.end;
            }
            if at < end {
                gaps.push((at, end));
            }
            for &(gs, ge) in &gaps {
                self.map.insert(
                    gs,
                    Interval {
                        end: ge,
                        cell: CellState::default(),
                    },
                );
            }
            for (&s, iv) in self.map.range_mut(start..end) {
                f(s, iv.end, &mut iv.cell);
            }
        }
    }

    /// `WP0001`: conflicting unsynchronized cross-thread accesses.
    #[derive(Default)]
    pub struct RaceLint {
        /// Per-thread vector clocks.
        vcs: Vec<Vc>,
        /// Whether a thread has executed its first instruction yet.
        started: Vec<bool>,
        /// Per-lock-cell clocks, keyed by the lock cell's start address.
        lock_vcs: BTreeMap<u64, Vc>,
        /// Global IPC/channel clock (output syscalls release, others acquire).
        channel_vc: Vc,
        /// The interned id of [`LOCK_SYMBOL`], if the trace uses it.
        lock_fid: Option<FuncId>,
        /// Byte-interval shadow memory.
        shadow: Shadow,
        /// `(earlier pos, later pos)` pairs already reported.
        reported: HashSet<(u64, u64)>,
        /// Thread of the instruction immediately before the current one,
        /// carried across chunk boundaries so the spawn hand-off works in
        /// streamed runs without touching `idx - 1` in an evicted chunk.
        prev_tid: Option<ThreadId>,
    }

    /// A one-line rendering of the instruction for race messages; falls back
    /// to raw ids when the mutated trace's symbol references are out of range
    /// (where name resolution would panic), and to the bare position when the
    /// index lies outside the cursor's window (the earlier side of a
    /// cross-chunk race in a streamed run).
    fn describe(ctx: &Ctx<'_>, idx: usize) -> String {
        if !ctx.cols.contains(idx) {
            return format!("instruction {}", TracePos(idx as u64));
        }
        let tid = ctx.cols.tid(idx);
        let func = ctx.cols.func(idx);
        let pc = ctx.cols.pc(idx);
        let kind = ctx.cols.kind(idx);
        let func_ok = func.index() < ctx.funcs.len();
        let callee_ok = match kind {
            InstrKind::Call { callee } => callee.index() < ctx.funcs.len(),
            _ => true,
        };
        if func_ok && callee_ok {
            let name = ctx.funcs.name(func);
            // Calls carry a second FuncId (the callee); resolve that one too
            // instead of letting its Debug print `fn#N`.
            if let InstrKind::Call { callee } = kind {
                format!(
                    "t{} {}@{} Call {{ callee: {} }}",
                    tid.0,
                    name,
                    pc,
                    ctx.funcs.name(callee)
                )
            } else {
                format!("t{} {}@{} {:?}", tid.0, name, pc, kind)
            }
        } else {
            format!("t{} fn#{}@{} {:?}", tid.index(), func.index(), pc, kind)
        }
    }

    impl RaceLint {
        #[allow(clippy::too_many_arguments)]
        fn report(
            &mut self,
            ctx: &Ctx<'_>,
            out: &mut Vec<Diag>,
            earlier: Access,
            earlier_what: &str,
            later_idx: usize,
            later_what: &str,
            lo: u64,
            hi: u64,
        ) {
            if !self.reported.insert((earlier.pos, later_idx as u64)) {
                return;
            }
            let region = wasteprof_trace::Addr::new(lo)
                .region()
                .map_or("unmapped", Region::name);
            out.push(Diag::at(
                Code::Race,
                later_idx,
                format!(
                    "{later_what} [{}] races earlier {earlier_what} [{}] on {region} bytes {lo:#x}..{hi:#x}",
                    describe(ctx, later_idx),
                    describe(ctx, earlier.pos as usize),
                ),
            ));
        }

        /// Handles thread bootstrap: a thread's first instruction acquires the
        /// clock of the thread that ran immediately before it (the spawner /
        /// scheduler), and that thread's clock is bumped past the hand-off.
        /// `prev` is the tid of the preceding instruction (`None` at index 0).
        fn on_thread_start(&mut self, prev: Option<ThreadId>, t: usize) {
            self.started[t] = true;
            self.vcs[t].set(t, 1);
            let Some(prev) = prev else {
                return;
            };
            let p = prev.index();
            if p != t && p < self.started.len() && self.started[p] {
                let spawner = self.vcs[p].clone();
                self.vcs[t].join(&spawner);
                self.vcs[p].bump(p);
            }
        }
    }

    impl Lint for RaceLint {
        fn name(&self) -> &'static str {
            "race"
        }

        fn begin(&mut self, ctx: &Ctx<'_>) {
            let n = ctx.threads.len();
            self.vcs = (0..n).map(|_| Vc::with_threads(n)).collect();
            self.started = vec![false; n];
            self.lock_vcs.clear();
            self.channel_vc = Vc::with_threads(n);
            self.lock_fid = ctx.funcs.get(LOCK_SYMBOL);
            self.shadow = Shadow::default();
            self.reported.clear();
            self.prev_tid = None;
        }

        fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>) {
            let tid = ctx.cols.tid(idx);
            let prev = self.prev_tid.replace(tid);
            let t = tid.index();
            if t >= self.started.len() {
                return; // WP0005 reports it; no thread state to attribute.
            }
            if !self.started[t] {
                self.on_thread_start(prev, t);
            }

            let kind = ctx.cols.kind(idx);

            // Lock-section instructions carry the sync protocol instead of
            // ordinary shadow-memory traffic.
            if self.lock_fid == Some(ctx.cols.func(idx)) {
                for r in ctx.cols.mem_reads(idx) {
                    if let Some(lock_vc) = self.lock_vcs.get(&r.start().raw()) {
                        let lock_vc = lock_vc.clone();
                        self.vcs[t].join(&lock_vc);
                    }
                }
                for w in ctx.cols.mem_writes(idx) {
                    self.lock_vcs.insert(w.start().raw(), self.vcs[t].clone());
                }
                if !ctx.cols.mem_writes(idx).is_empty() {
                    self.vcs[t].bump(t);
                }
                return;
            }

            // An input syscall acquires the channel clock before its operands
            // are shadow-processed (the received bytes are ordered after the
            // send that produced them).
            if let InstrKind::Syscall { nr } = kind {
                if !nr.is_output() {
                    self.vcs[t].join(&self.channel_vc);
                }
            }

            let epoch = Access {
                tid: tid.0,
                clk: self.vcs[t].get(t),
                pos: idx as u64,
            };

            // Reads first (read-modify-write consumes before it produces).
            // The shadow map and the thread's clock are disjoint fields, so
            // the closure can read the clock by reference while the map is
            // borrowed mutably — no per-operand clock clone on the hot path.
            for &r in ctx.cols.mem_reads(idx) {
                let mut races: Vec<(Access, u64, u64)> = Vec::new();
                let vc = &self.vcs[t];
                self.shadow
                    .for_range(r.start().raw(), r.end().raw(), |lo, hi, cell| {
                        if let Some(w) = cell.write {
                            if w.tid != tid.0 && !w.ordered_before(vc) {
                                races.push((w, lo, hi));
                            }
                        }
                        cell.record_read(epoch);
                    });
                for (w, lo, hi) in races {
                    self.report(ctx, out, w, "write", idx, "read", lo, hi);
                }
            }
            for &w in ctx.cols.mem_writes(idx) {
                let mut races: Vec<(Access, &'static str, u64, u64)> = Vec::new();
                let vc = &self.vcs[t];
                self.shadow
                    .for_range(w.start().raw(), w.end().raw(), |lo, hi, cell| {
                        if let Some(prev) = cell.write {
                            if prev.tid != tid.0 && !prev.ordered_before(vc) {
                                races.push((prev, "write", lo, hi));
                            }
                        }
                        for &r in &cell.reads {
                            if r.tid != tid.0 && !r.ordered_before(vc) {
                                races.push((r, "read", lo, hi));
                            }
                        }
                        cell.write = Some(epoch);
                        cell.reads.clear();
                    });
                for (prev, what, lo, hi) in races {
                    self.report(ctx, out, prev, what, idx, "write", lo, hi);
                }
            }

            // An output syscall releases into the channel clock after its
            // operands are processed.
            if let InstrKind::Syscall { nr } = kind {
                if nr.is_output() {
                    self.channel_vc.join(&self.vcs[t]);
                    self.vcs[t].bump(t);
                }
            }
        }
    }
}

/// Runs `lint` alone over `trace` and returns its diagnostics unsorted, in
/// the order the lint emitted them.
fn emitted(lint: &mut dyn Lint, trace: &Trace) -> Vec<Diag> {
    struct Solo<'a> {
        lint: &'a mut dyn Lint,
        diags: Vec<Diag>,
    }
    impl TraceAnalysis for Solo<'_> {
        fn name(&self) -> &'static str {
            self.lint.name()
        }
        fn begin(&mut self, ctx: &AnalysisCtx<'_>) {
            self.lint.begin(ctx);
        }
        fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
            self.lint.on_instr(ctx, idx, &mut self.diags);
        }
        fn finish(&mut self, ctx: &AnalysisCtx<'_>) {
            self.lint.finish(ctx, &mut self.diags);
        }
    }
    let mut solo = Solo {
        lint,
        diags: Vec::new(),
    };
    let mut driver = AnalysisDriver::new();
    driver.register(&mut solo);
    driver.run(trace);
    drop(driver);
    solo.diags
}

/// Asserts both lints emit the same diagnostics on `trace`; returns how
/// many they emitted.
fn assert_same(trace: &Trace, label: &str) -> usize {
    let want = emitted(&mut reference::RaceLint::default(), trace);
    let got = emitted(&mut RaceLint::default(), trace);
    assert_eq!(got, want, "{label}: the compact shadow diverged");
    want.len()
}

/// One step of a random program: the thread it runs on, what it does,
/// the byte ranges of the shared 64-byte buffer it touches, and whether a
/// switch onto its thread goes through the scheduler's lock hand-off
/// (any value but 0) or is bare.
type Step = (u8, u8, u32, u32, u32, u8);

/// Operand lengths: sub-cell, misaligned, one cell, several cells.
const LENS: [u32; 8] = [1, 2, 3, 4, 8, 12, 16, 24];

/// `[off, off + LENS[len])` inside a 64-byte buffer, clipped at its end.
fn operand(buf: AddrRange, off: u32, len: usize) -> AddrRange {
    buf.slice(off, LENS[len].min(64 - off))
}

/// A random program over one shared heap buffer on `threads` threads.
/// A switch between threads is a lock hand-off or bare, and steps may
/// take the lock or use a channel syscall on their own, so some accesses
/// are ordered and some race.
fn program(threads: usize, steps: &[Step]) -> Trace {
    let mut rec = Recorder::new();
    let tids: Vec<_> = (0..threads)
        .map(|i| rec.spawn_thread(ThreadKind::Other, &format!("t{i}")))
        .collect();
    let buf = rec.alloc(Region::Heap, 64);
    let lock = AddrRange::cell(rec.alloc_cell(Region::Heap));
    let lock_fn = rec.intern_func(wasteprof_checker::LOCK_SYMBOL);
    let work = rec.intern_func("work");
    let take_lock = |rec: &mut Recorder, pc: Pc| {
        rec.in_func(pc, lock_fn, |rec| {
            rec.branch_mem(pc.step(1), lock, false);
            rec.compute(pc.step(2), &[lock], &[lock]);
        })
    };
    let mut on = 0;
    for (i, &(t, op, off, len, off2, sync)) in steps.iter().enumerate() {
        let pc = Pc(10 * i as u32);
        let t = t as usize % threads;
        if t != on {
            if sync != 0 {
                take_lock(&mut rec, pc.step(5));
            }
            rec.switch_to(tids[t]);
            if sync != 0 {
                take_lock(&mut rec, pc.step(7));
            }
            on = t;
        }
        let a = operand(buf, off, len as usize);
        let b = operand(buf, off2, (len as usize + off2 as usize) % LENS.len());
        match op {
            0 => {
                rec.load(pc, Reg::Rax, a);
            }
            1 => {
                rec.store(pc, a, Reg::Rax);
            }
            2 => {
                // Two overlapping reads and a write, in a call frame.
                rec.in_func(pc, work, |rec| {
                    rec.compute(pc.step(1), &[a, b], &[b]);
                });
            }
            3 => {
                rec.compute(pc, &[a], &[a, b]);
            }
            4 => take_lock(&mut rec, pc),
            5 => {
                rec.syscall(pc, Syscall::Sendto, &[], vec![a], vec![]);
            }
            _ => {
                rec.syscall(pc, Syscall::Recvfrom, &[], vec![], vec![a]);
            }
        }
    }
    rec.finish()
}

/// A cross-thread task chain on the browser's scheduler: every hop posts
/// a task through the scheduler's lock hand-off and touches a shared cell
/// on both sides; the chain feeds a pixel tile and an IPC send.
fn task_chain(hops: &[(u8, u32)]) -> Trace {
    let mut rec = Recorder::new();
    let main = rec.spawn_thread(ThreadKind::Main, "main_root");
    let workers = [
        rec.spawn_thread(ThreadKind::Compositor, "comp_root"),
        rec.spawn_thread(ThreadKind::Raster(0), "raster_root"),
        rec.spawn_thread(ThreadKind::Io, "io_root"),
    ];
    rec.switch_to(main);
    let mut sched = Sched::new(&mut rec, 4);
    let shared = rec.alloc_cell(Region::Heap);
    let input = rec.alloc(Region::Input, 64);
    let tile = rec.alloc(Region::PixelTile, 64);
    let work = rec.intern_func("worker::Work");
    rec.compute(site!(), &[], &[input]);
    rec.compute(site!(), &[input], &[shared.into()]);
    for &(w, weight) in hops {
        sched.post_task(&mut rec, workers[w as usize]);
        rec.in_func(site!(), work, |rec| {
            rec.compute_weighted(site!(), &[shared.into()], &[shared.into()], weight);
        });
        sched.post_task(&mut rec, main);
    }
    rec.compute(site!(), &[shared.into()], &[tile]);
    rec.marker(site!(), tile);
    sched.ipc_send(&mut rec, &[tile], 2);
    rec.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_programs_report_identically(
        threads in 2..5usize,
        steps in proptest::collection::vec(
            (0..4u8, 0..7u8, 0..56u32, 0..8u32, 0..56u32, 0..8u8),
            8..64,
        ),
    ) {
        let trace = program(threads, &steps);
        assert_same(&trace, "random program");
    }

    #[test]
    fn mutated_scheduler_sessions_report_identically(
        hops in proptest::collection::vec((0..3u8, 1..4u32), 4..16),
    ) {
        let trace = task_chain(&hops);
        assert_same(&trace, "synthetic session");
        let mutator = TraceMutator::new(&trace);
        for m in Mutation::ALL {
            if let Some(mutated) = mutator.apply(m) {
                assert_same(&mutated, m.name());
            }
        }
    }
}

/// The generator is worth something only if it makes both kinds of
/// program: some race, and some are ordered throughout.
#[test]
fn random_programs_race_and_not() {
    let mut racy = 0;
    for seed in 0..64u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |n: u64| {
            // xorshift64: a fixed, dependency-free source.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as u32
        };
        let steps: Vec<Step> = (0..24)
            .map(|_| {
                let step = (next(4), next(7), next(56), next(8), next(56), next(8));
                (
                    step.0 as u8,
                    step.1 as u8,
                    step.2,
                    step.3,
                    step.4,
                    step.5 as u8,
                )
            })
            .collect();
        if assert_same(&program(2 + seed as usize % 3, &steps), "seeded program") > 0 {
            racy += 1;
        }
    }
    assert!((16..=56).contains(&racy), "{racy} of 64 programs raced");
}

#[test]
fn mutated_amazon_mobile_reports_identically() {
    let session = Benchmark::AmazonMobile.run();
    let mutator = TraceMutator::new(&session.trace);
    for m in Mutation::ALL {
        let mutated = mutator.apply(m).expect("every mutation finds a site");
        let n = assert_same(&mutated, m.name());
        if m == Mutation::ReorderRacyWrite {
            assert!(n > 0, "the racy reorder reports a race");
        }
    }
}

#[test]
fn canonical_sessions_report_identically() {
    for b in Benchmark::ALL {
        assert_same(&b.run().trace, b.label());
    }
    for b in [Benchmark::AmazonDesktop, Benchmark::GoogleMaps] {
        assert_same(&b.run_with_browse().trace, b.label());
    }
}
