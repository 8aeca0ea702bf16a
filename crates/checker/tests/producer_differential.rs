//! Differential test: the producer-region lints on the checker's one
//! write-granular map report exactly what they reported on their own
//! interval sets.
//!
//! `reference` below keeps the previous `UninitReadLint` (`WP0003`, on a
//! merged coverage set per region) and `DeadWriteLint` (`WP0012`, on a
//! split-on-demand span map), verbatim. The current lints keep the same
//! facts in the shared map: written bytes per region, and each producer
//! byte's last writer with whether a read consumed it since. Each lint
//! runs alone over the same traces and must emit the same diagnostics —
//! code, position and message, in emission order — on random
//! multi-thread programs over channel, input and framebuffer bytes, on
//! every single-fault mutation of AmazonMobile, and on the six canonical
//! sessions.

use proptest::prelude::*;
use wasteprof_checker::{DeadWriteLint, Diag, Lint, Mutation, TraceMutator, UninitReadLint};
use wasteprof_trace::{
    site, Addr, AddrRange, AnalysisCtx, AnalysisDriver, InstrKind, MemOps, Pc, Recorder, RegSet,
    Region, ThreadKind, Trace, TraceAnalysis,
};
use wasteprof_workloads::Benchmark;

/// The two producer-region lints as they were before they shared the
/// checker's write-granular map.
mod reference {
    use std::collections::BTreeMap;

    use wasteprof_trace::{AddrRange, Region};

    use wasteprof_checker::{Code, Ctx, Diag, Lint, PRODUCER_REGIONS};

    /// Resolves a function name, tolerating malformed ids.
    fn func_name<'a>(ctx: &Ctx<'a>, id: wasteprof_trace::FuncId) -> &'a str {
        if id.index() < ctx.funcs.len() {
            ctx.funcs.name(id)
        } else {
            "<out of range>"
        }
    }

    /// Byte-interval coverage set: merged, non-overlapping `[start, end)`
    /// intervals keyed by start.
    #[derive(Default)]
    pub struct Coverage {
        spans: BTreeMap<u64, u64>,
    }

    impl Coverage {
        /// Marks `[start, end)` as covered, merging with neighbours.
        pub fn insert(&mut self, start: u64, end: u64) {
            let mut start = start;
            let mut end = end;
            // Absorb a predecessor that reaches into (or touches) the new span.
            if let Some((&s, &e)) = self.spans.range(..=start).next_back() {
                if e >= start {
                    if e >= end {
                        return;
                    }
                    start = s;
                    end = end.max(e);
                    self.spans.remove(&s);
                }
            }
            // Absorb successors the new span reaches.
            while let Some((&s, &e)) = self.spans.range(start..).next() {
                if s > end {
                    break;
                }
                end = end.max(e);
                self.spans.remove(&s);
            }
            self.spans.insert(start, end);
        }

        /// First uncovered byte of `[start, end)`, or `None` if fully covered.
        pub fn first_gap(&self, start: u64, end: u64) -> Option<u64> {
            let mut at = start;
            while at < end {
                match self.spans.range(..=at).next_back() {
                    Some((_, &e)) if e > at => at = e,
                    _ => return Some(at),
                }
            }
            None
        }
    }

    /// `WP0003`: reads of *producer-region* bytes that nothing ever wrote.
    pub struct UninitReadLint {
        /// Per-region coverage of written bytes, indexed by `Region::index()`.
        written: Vec<Coverage>,
        scope: &'static [Region],
    }

    impl Default for UninitReadLint {
        fn default() -> Self {
            UninitReadLint {
                written: Vec::new(),
                scope: &PRODUCER_REGIONS,
            }
        }
    }

    impl UninitReadLint {
        fn in_scope(&self, region: Option<Region>) -> bool {
            region.is_some_and(|r| self.scope.contains(&r))
        }
    }

    impl Lint for UninitReadLint {
        fn name(&self) -> &'static str {
            "uninit-read"
        }

        fn begin(&mut self, _ctx: &Ctx<'_>) {
            self.written = (0..=Region::ALL.len())
                .map(|_| Coverage::default())
                .collect();
        }

        fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>) {
            // Reads first: a read-modify-write consumes the old bytes before
            // producing new ones, so its read must already be covered.
            for r in ctx.cols.mem_reads(idx) {
                let region = r.start().region();
                if !self.in_scope(region) {
                    continue;
                }
                let region = region.expect("in_scope implies a region");
                let cov = &self.written[region.index() as usize];
                if let Some(gap) = cov.first_gap(r.start().raw(), r.end().raw()) {
                    out.push(Diag::at(
                        Code::UninitRead,
                        idx,
                        format!(
                            "read of never-written {} byte {:#x} (operand {:#x}+{}) in `{}`",
                            region.name(),
                            gap,
                            r.start().raw(),
                            r.len(),
                            func_name(ctx, ctx.cols.func(idx)),
                        ),
                    ));
                }
            }
            for w in ctx.cols.mem_writes(idx) {
                let region = w.start().region();
                if !self.in_scope(region) {
                    continue;
                }
                let region = region.expect("in_scope implies a region");
                self.written[region.index() as usize].insert(w.start().raw(), w.end().raw());
            }
        }
    }

    /// One tracked producer-region span: who wrote it last and whether any
    /// read consumed it since.
    #[derive(Clone, Copy)]
    struct DeadSpan {
        end: u64,
        writer: usize,
        read: bool,
    }

    /// `WP0012`: a write to a single-producer region overwritten before
    /// any read.
    #[derive(Default)]
    pub struct DeadWriteLint {
        /// Disjoint `[start, end)` spans of producer bytes, keyed by start.
        spans: BTreeMap<u64, DeadSpan>,
    }

    fn in_producer(r: AddrRange) -> bool {
        r.start()
            .region()
            .is_some_and(|reg| PRODUCER_REGIONS.contains(&reg))
    }

    impl DeadWriteLint {
        /// Splits any span straddling `at` so no span crosses it.
        fn split_at(&mut self, at: u64) {
            let split = match self.spans.range(..at).next_back() {
                Some((&s, sp)) if sp.end > at => Some((s, *sp)),
                _ => None,
            };
            if let Some((s, sp)) = split {
                self.spans.get_mut(&s).expect("entry just observed").end = at;
                self.spans.insert(at, DeadSpan { end: sp.end, ..sp });
            }
        }
    }

    impl Lint for DeadWriteLint {
        fn name(&self) -> &'static str {
            "dead-write"
        }

        fn begin(&mut self, _ctx: &Ctx<'_>) {
            self.spans.clear();
        }

        fn on_instr(&mut self, ctx: &Ctx<'_>, idx: usize, out: &mut Vec<Diag>) {
            // Reads first: a read-modify-write consumes the old bytes.
            for r in ctx.cols.mem_reads(idx) {
                if !in_producer(*r) {
                    continue;
                }
                let (lo, hi) = (r.start().raw(), r.end().raw());
                self.split_at(lo);
                self.split_at(hi);
                for (_, sp) in self.spans.range_mut(lo..hi) {
                    sp.read = true;
                }
            }
            for w in ctx.cols.mem_writes(idx) {
                if !in_producer(*w) {
                    continue;
                }
                let region = w.start().region().expect("in_producer implies a region");
                let (lo, hi) = (w.start().raw(), w.end().raw());
                self.split_at(lo);
                self.split_at(hi);
                let doomed: Vec<u64> = self.spans.range(lo..hi).map(|(&s, _)| s).collect();
                let mut dead: Vec<usize> = Vec::new();
                for s in doomed {
                    let sp = self.spans.remove(&s).expect("span just listed");
                    if !sp.read && sp.writer != idx && !dead.contains(&sp.writer) {
                        dead.push(sp.writer);
                    }
                }
                for wpos in dead {
                    out.push(Diag::at(
                        Code::DeadWrite,
                        wpos,
                        format!(
                            "{} bytes never read before being overwritten at {} in `{}`",
                            region.name(),
                            wasteprof_trace::TracePos(idx as u64),
                            func_name(ctx, ctx.cols.func(idx)),
                        ),
                    ));
                }
                self.spans.insert(
                    lo,
                    DeadSpan {
                        end: hi,
                        writer: idx,
                        read: false,
                    },
                );
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

/// Asserts both producer lints emit what their references emit on
/// `trace`; returns how many `(WP0003, WP0012)` diagnostics they emitted.
fn assert_same(trace: &Trace, label: &str) -> (usize, usize) {
    let want = emitted(&mut reference::UninitReadLint::default(), trace);
    let got = emitted(&mut UninitReadLint::default(), trace);
    assert_eq!(got, want, "{label}: WP0003 diverged");
    let uninit = want.len();
    let want = emitted(&mut reference::DeadWriteLint::default(), trace);
    let got = emitted(&mut DeadWriteLint::default(), trace);
    assert_eq!(got, want, "{label}: WP0012 diverged");
    (uninit, want.len())
}

/// One step of a random program: the thread it runs on, what it does,
/// the 64-byte window it touches, and two operands inside it as
/// `(offset, length index)` pairs.
type Step = (u8, u8, u8, (u32, u32), (u32, u32));

/// Operand lengths: sub-cell, misaligned, one cell, several cells.
const LENS: [u32; 8] = [1, 2, 3, 4, 8, 12, 16, 24];

/// The start of each 64-byte window: a channel buffer; the last 32 bytes
/// of the input region and the first 32 of the framebuffer, so operands
/// cross from `Input` into `Framebuffer`; and the last 16 bytes of the
/// debug ring before the input region, so some operands start outside
/// every producer region and end inside one.
fn windows() -> [u64; 3] {
    [
        Region::Channel.base().raw(),
        Region::Framebuffer.base().raw() - 32,
        Region::Input.base().raw() - 16,
    ]
}

/// `[base + off, base + off + LENS[len])`, clipped at the window's end.
fn operand(base: u64, off: u32, len: u32) -> AddrRange {
    AddrRange::new(
        Addr::new(base + u64::from(off)),
        LENS[len as usize].min(64 - off),
    )
}

/// A random program on `threads` threads over the three windows: reads,
/// writes, read-modify-writes of one operand, of two overlapping,
/// adjacent or nested ones, two writes in one instruction, and exact
/// repeats of the previous operand.
fn program(threads: usize, steps: &[Step]) -> Trace {
    let mut rec = Recorder::new();
    let tids: Vec<_> = (0..threads)
        .map(|i| rec.spawn_thread(ThreadKind::Other, &format!("t{i}")))
        .collect();
    let work = rec.intern_func("work");
    let windows = windows();
    let mut prev = operand(windows[0], 0, 4);
    let mut on = 0;
    for (i, &(t, op, w, (off, len), (off2, len2))) in steps.iter().enumerate() {
        let pc = Pc(10 * i as u32);
        let t = t as usize % threads;
        if t != on {
            rec.switch_to(tids[t]);
            on = t;
        }
        let base = windows[w as usize];
        let a = operand(base, off, len);
        let b = operand(base, off2, len2);
        let mem = match op {
            0 => MemOps::Read(a),
            1 => MemOps::Write(a),
            2 => MemOps::ReadWrite(a, a),
            3 => MemOps::ReadWrite(a, b),
            4 => MemOps::new(Vec::new(), vec![a, b]),
            5 => MemOps::new(vec![a, b], vec![b]),
            6 => MemOps::Write(prev),
            _ => MemOps::Read(prev),
        };
        rec.in_func(pc, work, |rec| {
            rec.raw(pc.step(1), InstrKind::Op, RegSet::EMPTY, RegSet::EMPTY, mem);
        });
        prev = a;
    }
    rec.finish()
}

fn step() -> impl Strategy<Value = Step> {
    (
        0..4u8,
        0..8u8,
        0..3u8,
        (0..56u32, 0..8u32),
        (0..56u32, 0..8u32),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_programs_report_identically(
        threads in 2..5usize,
        steps in proptest::collection::vec(step(), 4..64),
    ) {
        assert_same(&program(threads, &steps), "random program");
    }
}

/// The generator is worth something only if both lints fire in many
/// programs. Reads of bytes nothing wrote yet are the rule in a random
/// program; overwrites of unread bytes are not, so `WP0012` must also stay
/// quiet in some.
#[test]
fn random_programs_fire_both_lints_and_not() {
    let (mut uninit, mut dead) = (0, 0);
    for seed in 0..64u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |n: u64| {
            // xorshift64: a fixed, dependency-free source.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as u32
        };
        let steps: Vec<Step> = (0..4 + seed as usize % 20)
            .map(|_| {
                (
                    next(4) as u8,
                    next(8) as u8,
                    next(3) as u8,
                    (next(56), next(8)),
                    (next(56), next(8)),
                )
            })
            .collect();
        let (u, d) = assert_same(&program(2 + seed as usize % 3, &steps), "seeded program");
        uninit += usize::from(u > 0);
        dead += usize::from(d > 0);
    }
    assert!(uninit >= 32, "{uninit} of 64 programs read unwritten bytes");
    assert!(
        (8..=56).contains(&dead),
        "{dead} of 64 programs overwrote unread bytes"
    );
}

/// A write that crosses from `Input` into `Framebuffer` is recorded in
/// its start region only: a later read that starts in `Framebuffer` still
/// finds those bytes never written, on both sides.
#[test]
fn a_region_crossing_write_covers_its_start_region_only() {
    let mut rec = Recorder::new();
    rec.spawn_thread(ThreadKind::Main, "main_root");
    let fb = Region::Framebuffer.base().raw();
    let crossing = AddrRange::new(Addr::new(fb - 8), 16);
    let past = AddrRange::new(Addr::new(fb), 8);
    let op = |rec: &mut Recorder, mem| {
        rec.raw(site!(), InstrKind::Op, RegSet::EMPTY, RegSet::EMPTY, mem);
    };
    op(&mut rec, MemOps::Write(crossing));
    op(&mut rec, MemOps::Read(past));
    op(&mut rec, MemOps::Read(crossing));
    let (uninit, _) = assert_same(&rec.finish(), "crossing write");
    assert_eq!(uninit, 1, "only the framebuffer read of the crossed bytes");
}

#[test]
fn mutated_amazon_mobile_reports_identically() {
    let session = Benchmark::AmazonMobile.run();
    let mutator = TraceMutator::new(&session.trace);
    for m in Mutation::ALL {
        let mutated = mutator.apply(m).expect("every mutation finds a site");
        let (uninit, _) = assert_same(&mutated, m.name());
        if m == Mutation::DropProducerWrite {
            assert!(
                uninit > 0,
                "the dropped producer write leaves a read uncovered"
            );
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
