//! FastTrack-style vector-clock data-race detection over one trace sweep.
//!
//! The paper's shared live-memory set is only exact when every pair of
//! conflicting cross-thread accesses is ordered by happens-before
//! (PAPER.md §III-B); this lint checks that assumption directly. The
//! happens-before relation is synthesized from the sync events the trace
//! already carries:
//!
//! - **program order** — each thread's own instructions, via its vector
//!   clock;
//! - **lock sections** — instructions inside
//!   [`LOCK_SYMBOL`] frames: a read of a lock cell acquires (joins the
//!   lock's clock into the thread), a write releases (stores the thread's
//!   clock into the lock and bumps the thread's own component). The
//!   scheduler wraps every cross-thread task hand-off in these frames;
//! - **channel syscalls** — output syscalls (`sendto`/`writev`/`write`)
//!   release into a global channel clock, all other syscalls acquire it,
//!   modelling IPC send/receive ordering;
//! - **thread spawn** — the first instruction a thread ever executes
//!   acquires the clock of the thread that scheduled it.
//!
//! Every release bumps the releasing thread's own clock component so its
//! *later* accesses are not mistaken for ordered ones — dropping that bump
//! makes the detector vacuously quiet, which the unit tests pin down.
//!
//! Shadow state is an interval map over accessed bytes (split on operand
//! boundaries, never merged) holding the last write epoch and,
//! FastTrack-style, the last read epoch per thread, so both sides of a race
//! are reported with pc and resolved function names. Each interval is one
//! 32-byte cell in a slab: its length, the write epoch and the first
//! reader's epoch inline. Readers from a second thread on go to a side
//! table keyed by the interval's start, which only multi-reader intervals
//! touch. A hashed start index answers an exact re-access with one probe;
//! an ordered start index serves the split/gap path.

use std::collections::{BTreeMap, HashMap, HashSet};

use wasteprof_trace::{FuncId, InstrKind, Region, ThreadId, TracePos};

use crate::diag::{Code, Diag};
use crate::lint::{Ctx, Lint};

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

    /// `self := other`, reusing `self`'s buffer.
    fn copy_from(&mut self, other: &Vc) {
        self.0.clone_from(&other.0);
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

/// Readers of an interval after its first, keyed by the interval's start,
/// one entry per thread in first-read order.
type Spill = HashMap<u64, Vec<Access>>;

/// [`Cell::flags`]: the `w_*` fields hold the last write.
const WRITTEN: u8 = 1;
/// [`Cell::flags`]: the `r_*` fields hold the first read since that write.
const READ: u8 = 2;
/// [`Cell::flags`]: the [`Spill`] table holds more readers for this start.
const SPILLED: u8 = 4;

/// Shadow state of one interval `[start, start + len)`: the last write and
/// the first reader since it, inline, as flat epoch fields so the cell
/// stays within 32 bytes.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    w_pos: u64,
    r_pos: u64,
    /// Every interval lies inside one operand, whose length is a `u32`.
    len: u32,
    w_clk: u32,
    r_clk: u32,
    w_tid: u8,
    r_tid: u8,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Cell>() <= 32);

impl Cell {
    fn fresh(len: u32) -> Cell {
        Cell {
            len,
            ..Cell::default()
        }
    }

    fn write(&self) -> Option<Access> {
        (self.flags & WRITTEN != 0).then_some(Access {
            tid: self.w_tid,
            clk: self.w_clk,
            pos: self.w_pos,
        })
    }

    /// The reads since the last write, one per thread, in first-read order.
    fn readers<'s>(&self, start: u64, spill: &'s Spill) -> impl Iterator<Item = Access> + 's {
        let first = (self.flags & READ != 0).then_some(Access {
            tid: self.r_tid,
            clk: self.r_clk,
            pos: self.r_pos,
        });
        let rest = match self.flags & SPILLED {
            0 => &[][..],
            _ => spill.get(&start).map_or(&[][..], Vec::as_slice),
        };
        first.into_iter().chain(rest.iter().copied())
    }

    /// Records `a` as its thread's latest read, keeping the thread's place
    /// in first-read order.
    fn record_read(&mut self, start: u64, a: Access, spill: &mut Spill) {
        if self.flags & READ == 0 || self.r_tid == a.tid {
            (self.r_tid, self.r_clk, self.r_pos) = (a.tid, a.clk, a.pos);
            self.flags |= READ;
            return;
        }
        let rest = spill.entry(start).or_default();
        match rest.iter_mut().find(|r| r.tid == a.tid) {
            Some(r) => *r = a,
            None => rest.push(a),
        }
        self.flags |= SPILLED;
    }

    /// Records `a` as the last write, forgetting every read before it.
    fn record_write(&mut self, start: u64, a: Access, spill: &mut Spill) {
        if self.flags & SPILLED != 0 {
            spill.remove(&start);
        }
        (self.w_tid, self.w_clk, self.w_pos) = (a.tid, a.clk, a.pos);
        self.flags = WRITTEN;
    }
}

/// Interval map over accessed bytes: cells in a slab, indexed by interval
/// start twice — hashed for the exact re-access, ordered for splits.
#[derive(Default)]
struct Shadow {
    cells: Vec<Cell>,
    by_start: HashMap<u64, u32>,
    order: BTreeMap<u64, u32>,
    spill: Spill,
    /// Scratch: `(start, slot)` of the tiles of the current range.
    tiles: Vec<(u64, u32)>,
    /// Scratch: `(start, slot)` of the intervals the current range made.
    made: Vec<(u64, u32)>,
}

impl Shadow {
    /// Makes `[start, start + len)` exactly tiled by intervals (splitting
    /// the ones that straddle its ends, filling gaps with fresh cells) and
    /// visits each in address order. The range is an operand's, so it
    /// never wraps the address space (`AddrRange` cannot).
    fn for_range(
        &mut self,
        start: u64,
        len: u32,
        mut f: impl FnMut(u64, u64, &mut Cell, &mut Spill),
    ) {
        let end = start + u64::from(len);
        // Fast path: operands are cell-granular and heavily reused, so in
        // steady state nearly every access is one hashed probe that finds
        // the interval already exactly this range.
        if let Some(&slot) = self.by_start.get(&start) {
            let cell = &mut self.cells[slot as usize];
            if cell.len == len {
                f(start, end, cell, &mut self.spill);
                return;
            }
        }
        self.tile(start, end);
        for &(lo, slot) in &self.tiles {
            let cell = &mut self.cells[slot as usize];
            f(lo, lo + u64::from(cell.len), cell, &mut self.spill);
        }
    }

    /// Fills `tiles` with the intervals exactly tiling `[start, end)`, in
    /// address order, walking down once from the last interval that starts
    /// before `end`.
    fn tile(&mut self, start: u64, end: u64) {
        let (cells, spill) = (&mut self.cells, &mut self.spill);
        self.tiles.clear();
        self.made.clear();
        // Everything in `[at, end)` is tiled.
        let mut at = end;
        for (&s, &slot) in self.order.range(..end).rev() {
            let mut e = s + u64::from(cells[slot as usize].len);
            if e <= start {
                break;
            }
            if e > end {
                self.made.push((end, split(cells, spill, s, slot, end)));
                e = end;
            }
            if e < at {
                let gap = push(cells, Cell::fresh((at - e) as u32));
                self.made.push((e, gap));
                self.tiles.push((e, gap));
            }
            if s < start {
                let right = split(cells, spill, s, slot, start);
                self.made.push((start, right));
                self.tiles.push((start, right));
                at = start;
                break;
            }
            self.tiles.push((s, slot));
            at = s;
        }
        if at > start {
            let gap = push(cells, Cell::fresh((at - start) as u32));
            self.made.push((start, gap));
            self.tiles.push((start, gap));
        }
        for &(s, slot) in &self.made {
            self.order.insert(s, slot);
            self.by_start.insert(s, slot);
        }
        self.tiles.reverse();
    }
}

/// Appends `cell` to the slab, returning its slot.
fn push(cells: &mut Vec<Cell>, cell: Cell) -> u32 {
    let slot = u32::try_from(cells.len()).expect("fewer than 2^32 shadow intervals");
    cells.push(cell);
    slot
}

/// Cuts the interval `[s, ..)` in `slot` at `at`, returning the slot of its
/// right part: a copy of the cell, spilled readers included.
fn split(cells: &mut Vec<Cell>, spill: &mut Spill, s: u64, slot: u32, at: u64) -> u32 {
    let left = &mut cells[slot as usize];
    let mut right = *left;
    right.len -= (at - s) as u32;
    left.len = (at - s) as u32;
    if right.flags & SPILLED != 0 {
        let rest = spill[&s].clone();
        spill.insert(at, rest);
    }
    push(cells, right)
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
            // The thread and lock clocks are disjoint fields: acquires
            // join in place, releases copy into the lock's existing buffer.
            for r in ctx.cols.mem_reads(idx) {
                if let Some(lock_vc) = self.lock_vcs.get(&r.start().raw()) {
                    self.vcs[t].join(lock_vc);
                }
            }
            let writes = ctx.cols.mem_writes(idx);
            let vc = &self.vcs[t];
            for w in writes {
                self.lock_vcs
                    .entry(w.start().raw())
                    .and_modify(|lock_vc| lock_vc.copy_from(vc))
                    .or_insert_with(|| vc.clone());
            }
            if !writes.is_empty() {
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
                .for_range(r.start().raw(), r.len(), |lo, hi, cell, spill| {
                    if let Some(w) = cell.write() {
                        if w.tid != tid.0 && !w.ordered_before(vc) {
                            races.push((w, lo, hi));
                        }
                    }
                    cell.record_read(lo, epoch, spill);
                });
            for (w, lo, hi) in races {
                self.report(ctx, out, w, "write", idx, "read", lo, hi);
            }
        }
        for &w in ctx.cols.mem_writes(idx) {
            let mut races: Vec<(Access, &'static str, u64, u64)> = Vec::new();
            let vc = &self.vcs[t];
            self.shadow
                .for_range(w.start().raw(), w.len(), |lo, hi, cell, spill| {
                    if let Some(prev) = cell.write() {
                        if prev.tid != tid.0 && !prev.ordered_before(vc) {
                            races.push((prev, "write", lo, hi));
                        }
                    }
                    for r in cell.readers(lo, spill) {
                        if r.tid != tid.0 && !r.ordered_before(vc) {
                            races.push((r, "read", lo, hi));
                        }
                    }
                    cell.record_write(lo, epoch, spill);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Registry;
    use wasteprof_trace::{AddrRange, Pc, Recorder, Reg, Region, Syscall, ThreadKind, Trace};

    fn lock_ops(rec: &mut Recorder, lock: AddrRange) {
        let f = rec.intern_func(LOCK_SYMBOL);
        rec.in_func(Pc(999), f, |rec| {
            rec.branch_mem(Pc(1000), lock, false);
            rec.compute(Pc(1001), &[lock], &[lock]);
        });
    }

    /// Two threads touching one heap cell, either with only bare
    /// scheduler switches between them or with the scheduler's lock
    /// hand-off protocol around each switch.
    fn switch_trace(lock_protected: bool) -> Trace {
        let mut rec = Recorder::new();
        let main = rec.spawn_thread(ThreadKind::Main, "main");
        let worker = rec.spawn_thread(ThreadKind::Other, "worker");
        rec.switch_to(main);
        let shared = AddrRange::cell(rec.memory_mut().alloc_cell(Region::Heap));
        let lock = AddrRange::cell(rec.memory_mut().alloc_cell(Region::Heap));

        let producer = rec.intern_func("producer");
        let consumer = rec.intern_func("consumer");
        rec.in_func(Pc(1), producer, |rec| {
            rec.store(Pc(2), shared, Reg::Rax);
        });
        if lock_protected {
            lock_ops(&mut rec, lock);
        }
        rec.switch_to(worker);
        if lock_protected {
            lock_ops(&mut rec, lock);
        }
        rec.in_func(Pc(3), consumer, |rec| {
            rec.load(Pc(4), Reg::Rbx, shared);
        });
        if lock_protected {
            lock_ops(&mut rec, lock);
        }
        rec.switch_to(main);
        if lock_protected {
            lock_ops(&mut rec, lock);
        }
        rec.in_func(Pc(5), producer, |rec| {
            rec.store(Pc(6), shared, Reg::Rax);
        });
        rec.finish()
    }

    fn race_diags(trace: &Trace) -> Vec<Diag> {
        let mut reg = Registry::new();
        reg.register(Box::new(RaceLint::default()));
        reg.run(trace)
    }

    #[test]
    fn lock_protected_accesses_are_race_free() {
        let trace = switch_trace(true);
        let diags = race_diags(&trace);
        assert!(
            diags.is_empty(),
            "lock hand-off orders the accesses: {diags:?}"
        );
    }

    #[test]
    fn spawn_edge_orders_prior_writes_but_not_later_ones() {
        // The worker's read of the pre-spawn write is ordered by the
        // spawn edge (no race on the read itself); main's *post-switch*
        // write conflicts with that read and must be the one reported.
        // This pins the release-bump: without bumping the releasing
        // thread's clock after the spawn hand-off, main's later write
        // would falsely appear ordered and the detector would be
        // vacuously quiet.
        let trace = switch_trace(false);
        let diags = race_diags(&trace);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::Race);
        assert!(diags[0].message.contains("write"), "{}", diags[0].message);
        assert!(diags[0].message.contains("read"), "{}", diags[0].message);
        assert!(diags[0].message.contains("heap"), "{}", diags[0].message);
        assert!(
            diags[0].message.contains("producer") && diags[0].message.contains("consumer"),
            "both sides resolved: {}",
            diags[0].message
        );
    }

    /// Both threads run once first (consuming the spawn edge), so the
    /// later producer→consumer hand-off is ordered *only* if the channel
    /// syscall edges work.
    fn channel_trace(with_sync: bool) -> Trace {
        use wasteprof_trace::RegSet;
        let mut rec = Recorder::new();
        let main = rec.spawn_thread(ThreadKind::Main, "main");
        let worker = rec.spawn_thread(ThreadKind::Other, "worker");
        rec.switch_to(main);
        let buf = rec.memory_mut().alloc(Region::Channel, 64);
        let sender = rec.intern_func("sender");
        let receiver = rec.intern_func("receiver");
        // Boot both threads so the hand-off below cannot ride the spawn edge.
        rec.alu(Pc(10), Reg::Rax, RegSet::EMPTY);
        rec.switch_to(worker);
        rec.alu(Pc(11), Reg::Rax, RegSet::EMPTY);
        rec.switch_to(main);
        // Sender fills the buffer, then releases via an output syscall.
        rec.in_func(Pc(1), sender, |rec| {
            rec.store(Pc(2), buf, Reg::Rax);
            if with_sync {
                rec.syscall(Pc(3), Syscall::Sendto, &[], vec![buf], vec![]);
            }
        });
        rec.switch_to(worker);
        // Receiver acquires via an input syscall, then writes the buffer.
        rec.in_func(Pc(4), receiver, |rec| {
            if with_sync {
                rec.syscall(Pc(5), Syscall::Recvfrom, &[], vec![], vec![]);
            }
            rec.store(Pc(6), buf, Reg::Rbx);
        });
        rec.finish()
    }

    #[test]
    fn channel_syscalls_order_producer_and_consumer() {
        let diags = race_diags(&channel_trace(true));
        assert!(
            diags.is_empty(),
            "send/recv must order the hand-off: {diags:?}"
        );
    }

    #[test]
    fn unsynchronized_channel_handoff_races() {
        let diags = race_diags(&channel_trace(false));
        assert!(!diags.is_empty(), "no sync edge between conflicting stores");
        assert!(diags.iter().all(|d| d.code == Code::Race));
        assert!(diags[0].message.contains("channel"), "{}", diags[0].message);
    }

    #[test]
    fn vc_join_and_epoch_ordering() {
        let mut a = Vc::with_threads(3);
        a.set(0, 5);
        let mut b = Vc::with_threads(3);
        b.set(1, 7);
        b.join(&a);
        assert_eq!(b.get(0), 5);
        assert_eq!(b.get(1), 7);
        assert!(Access {
            tid: 0,
            clk: 5,
            pos: 0
        }
        .ordered_before(&b));
        assert!(!Access {
            tid: 0,
            clk: 6,
            pos: 0
        }
        .ordered_before(&b));
        assert!(Access {
            tid: 2,
            clk: 0,
            pos: 0
        }
        .ordered_before(&b));
    }

    #[test]
    fn shadow_splits_intervals_on_partial_overlap() {
        let mut shadow = Shadow::default();
        let first = Access {
            tid: 1,
            clk: 1,
            pos: 0,
        };
        shadow.for_range(0, 16, |lo, _, cell, spill| {
            cell.record_write(lo, first, spill)
        });
        let mut seen = Vec::new();
        shadow.for_range(8, 16, |lo, hi, cell, _| {
            seen.push((lo, hi, cell.write().is_some()));
        });
        assert_eq!(seen, vec![(8, 16, true), (16, 24, false)]);
        // The untouched left half still holds the original write.
        let mut left = Vec::new();
        shadow.for_range(0, 8, |lo, hi, cell, _| {
            left.push((lo, hi, cell.write().is_some()))
        });
        assert_eq!(left, vec![(0, 8, true)]);
        // A range over a gap between two intervals fills it with a fresh
        // cell and visits all three in address order.
        shadow.for_range(32, 8, |_, _, _, _| {});
        let mut spanned = Vec::new();
        shadow.for_range(4, 40, |lo, hi, cell, _| {
            spanned.push((lo, hi, cell.write().is_some()))
        });
        assert_eq!(
            spanned,
            vec![
                (4, 8, true),
                (8, 16, true),
                (16, 24, false),
                (24, 32, false),
                (32, 40, false),
                (40, 44, false),
            ]
        );
    }

    /// Three readers of one 16-byte range (two of them spilled out of the
    /// cell), then a write to its upper half from a fourth thread: every
    /// reader races on the split range, and the lower half keeps all three
    /// readers for a later write.
    #[test]
    fn spilled_readers_survive_a_split() {
        use wasteprof_trace::RegSet;
        let mut rec = Recorder::new();
        let threads: Vec<_> = (0..4)
            .map(|i| rec.spawn_thread(ThreadKind::Other, &format!("t{i}")))
            .collect();
        let buf = rec.memory_mut().alloc(Region::Heap, 16);
        let reader = rec.intern_func("reader");
        let writer = rec.intern_func("writer");
        // Boot every thread first, so no read rides a spawn edge.
        for &t in &threads {
            rec.switch_to(t);
            rec.alu(Pc(10), Reg::Rax, RegSet::EMPTY);
        }
        for &t in &threads[..3] {
            rec.switch_to(t);
            rec.in_func(Pc(1), reader, |rec| {
                rec.load(Pc(2), Reg::Rax, buf);
            });
        }
        rec.switch_to(threads[3]);
        rec.in_func(Pc(3), writer, |rec| {
            rec.store(Pc(4), buf.slice(8, 8), Reg::Rax);
            rec.store(Pc(5), buf.slice(0, 8), Reg::Rax);
        });
        let trace = rec.finish();

        let lo = buf.start().raw();
        let (mid, hi) = (lo + 8, lo + 16);
        let diags = race_diags(&trace);
        let ranges: Vec<String> = diags
            .iter()
            .map(|d| {
                let at = d.message.rfind("bytes ").expect("race names its bytes");
                d.message[at..].to_owned()
            })
            .collect();
        let upper = format!("bytes {mid:#x}..{hi:#x}");
        let lower = format!("bytes {lo:#x}..{mid:#x}");
        let want: Vec<&str> = [upper.as_str(); 3]
            .into_iter()
            .chain([lower.as_str(); 3])
            .collect();
        assert_eq!(ranges, want, "{diags:#?}");
        for (i, d) in diags.iter().enumerate() {
            assert!(d.message.starts_with("write [t3 writer@"), "{}", d.message);
            let reader = format!("races earlier read [t{} reader@", i % 3);
            assert!(d.message.contains(&reader), "{}", d.message);
        }
    }
}
