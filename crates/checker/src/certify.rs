//! Independent slice certifier: one forward sweep that re-checks backward
//! slices against the trace they came from.
//!
//! The slicer emits a dependence witness (see `wasteprof-slicer`'s
//! `Witnesses`) holding only the structural reasons members joined: a
//! `control` row (a pending branch and the member that armed it), a
//! `call` row (a call and a member inside its callee frame), or a
//! `criterion` row (an `include_instr` anchor). The certifier derives
//! every data edge itself, from its own last-writer shadows. [`certify`]
//! sweeps forward over the packed columns — no `Instr` materialization,
//! the same streaming style as the race detector — and shares no code
//! with the backward walk, so a bug in the slicer's liveness machinery
//! cannot hide itself. The sweep is written once over a `ColumnSource`:
//! [`certify_streamed`] runs it from a `WPTRACE2` reader without ever
//! holding the whole trace in memory, and [`certify_all`] certifies
//! several slices of one trace in a single sweep: the last-writer shadows
//! and call stacks are criterion-independent, so they are built once and
//! every slice's checks read them at their own points.
//!
//! Three properties are checked:
//!
//! - **Complement safety.** Every read the backward walk made live has a
//!   last writer inside the slice, or none. Those are the reads of a
//!   member with no row and of a `control` member, the facts of every
//!   criterion, and the reads of a `call` or `criterion` member whose own
//!   writes are consumed. A non-slice last writer means the slicer
//!   wrongly excluded an instruction whose value reached the criteria
//!   ([`Code::CertifyLiveLeak`]).
//! - **Every row is a real edge.** `control` rows must be edges of the
//!   recovered control-dependence graph, `call` rows must match the
//!   dynamic call stack, `criterion` rows must anchor a real
//!   `include_instr` criterion, and every consumer must be a member
//!   ([`Code::CertifyBadEdge`]).
//! - **Every member is consumed.** A member with no row must be the last
//!   writer of something a checked read consumes
//!   ([`Code::CertifyUnconsumed`]).
//!
//! Every edge points forward in time, so together these imply slice
//! soundness: every member reaches a criterion, and every value flowing
//! into the criteria is produced inside the slice. Bookkeeping defects —
//! missing table, a slice longer than the trace, rows outside the
//! considered prefix, rows whose member is not in the bitmap, two rows
//! for one member — report [`Code::CertifyMismatch`].

use std::collections::BTreeMap;
use std::fmt;

use wasteprof_slicer::{
    ControlDeps, Criteria, ForwardPass, SliceResult, SlicingCriterion, WitnessKind, WitnessRow,
};
use wasteprof_trace::{
    ColumnCursor, ColumnSource, FuncId, InstrKind, Pc, Reg, ThreadId, Trace, TracePos,
};

use crate::diag::{sort_diags, Code, Diag};

/// Last-writer shadow over byte intervals: disjoint `[start, end)` spans
/// mapping to the instruction index that last wrote them. Spans are split
/// on demand and never merged.
#[derive(Default)]
struct MemShadow {
    map: BTreeMap<u64, (u64, u32)>,
}

impl MemShadow {
    /// Records `writer` as the last writer of `[lo, hi)`.
    fn write(&mut self, lo: u64, hi: u64, writer: u32) {
        if lo >= hi {
            return;
        }
        // Fast path: operands are cell-granular and heavily rewritten, so
        // the range is usually exactly one span already — retarget it in
        // place (the race detector's shadow does the same).
        if let Some(span) = self.map.get_mut(&lo) {
            if span.0 == hi {
                span.1 = writer;
                return;
            }
        }
        // Otherwise truncate the spans straddling either edge and drop
        // everything in between — what splitting at `lo` and `hi` would
        // leave, without allocating.
        if let Some((_, span)) = self.map.range_mut(..lo).next_back() {
            let (end, wr) = *span;
            if end > lo {
                span.0 = lo;
                if end > hi {
                    self.map.insert(hi, (end, wr));
                }
            }
        }
        while let Some((&s, &(end, wr))) = self.map.range(lo..hi).next() {
            self.map.remove(&s);
            if end > hi {
                self.map.insert(hi, (end, wr));
                break;
            }
        }
        self.map.insert(lo, (hi, writer));
    }

    /// Visits every sub-interval of `[lo, hi)` with its last writer,
    /// `None` for bytes never written. Gaps are materialized so callers
    /// see full coverage of the query.
    fn for_range(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, u64, Option<u32>)) {
        if lo >= hi {
            return;
        }
        let mut at = lo;
        if let Some((_, &(end, wr))) = self.map.range(..=lo).next_back() {
            if end > lo {
                let stop = end.min(hi);
                f(at, stop, Some(wr));
                // One span covers the whole query (the common case for
                // cell-granular operands): no second probe.
                if stop == hi {
                    return;
                }
                at = stop;
            }
        }
        for (&s, &(end, wr)) in self.map.range(at..hi) {
            if s > at {
                f(at, s, None);
            }
            let stop = end.min(hi);
            f(s, stop, Some(wr));
            at = stop;
            if at >= hi {
                break;
            }
        }
        if at < hi {
            f(at, hi, None);
        }
    }
}

/// Criterion-independent sweep state: the byte and register last-writer
/// shadows and the dynamic call stacks. Built once per sweep and read by
/// every job's checks.
struct Shadows {
    mem: MemShadow,
    regs: Vec<[Option<u32>; 16]>,
    stacks: Vec<Vec<u32>>,
}

impl Shadows {
    fn new() -> Shadows {
        Shadows {
            mem: MemShadow::default(),
            regs: vec![[None; 16]; 256],
            stacks: vec![Vec::new(); 256],
        }
    }

    /// Instruction `idx`'s writes become the last writers.
    fn apply_writes(&mut self, cur: &ColumnCursor<'_>, idx: usize, ti: usize) {
        for &wr in cur.mem_writes(idx) {
            self.mem.write(wr.start().raw(), wr.end().raw(), idx as u32);
        }
        for r in cur.reg_writes(idx).iter() {
            self.regs[ti][r.index()] = Some(idx as u32);
        }
    }

    /// Dynamic call stack maintenance for instruction `idx`.
    fn track_calls(&mut self, cur: &ColumnCursor<'_>, idx: usize, ti: usize) {
        match cur.kind(idx) {
            InstrKind::Call { .. } => self.stacks[ti].push(idx as u32),
            InstrKind::Ret => {
                self.stacks[ti].pop();
            }
            _ => {}
        }
    }
}

/// Static facts about a member that carries a witness row, captured when
/// the forward sweep passes its position.
///
/// A row is checked at its consumer, where the member side's thread,
/// location, and opcode class are positions an out-of-core sweep has
/// already evicted. Since every member precedes its consumer in an honest
/// table, capturing these five fields at member time makes the checks
/// window-local; a row whose member does *not* precede its consumer finds
/// no meta and fails its check, exactly as it should.
#[derive(Clone, Copy)]
struct MemberMeta {
    tid: ThreadId,
    func: FuncId,
    pc: Pc,
    is_branch: bool,
    is_call: bool,
}

/// Who consumed the bytes or register a complement check is about. Only
/// rendered when a leak is reported.
#[derive(Clone, Copy)]
enum Consumer {
    Member(usize),
    Criterion(TracePos),
}

impl fmt::Display for Consumer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Consumer::Member(idx) => write!(f, "slice member {}", TracePos(idx as u64)),
            Consumer::Criterion(pos) => write!(f, "the criterion at {pos}"),
        }
    }
}

/// What a read covers: a byte range or a register. Only rendered when a
/// leak is reported.
#[derive(Clone, Copy)]
enum Fact {
    Mem(u64, u64),
    Reg(Reg),
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fact::Mem(lo, hi) => write!(f, "{lo:#x}..{hi:#x}"),
            Fact::Reg(r) => write!(f, "{r:?}"),
        }
    }
}

/// A read of a `call` or `criterion` member, checked after the sweep and
/// only if the reader's own writes turn out to be consumed.
struct LateRead {
    reader: u32,
    writer: u32,
    fact: Fact,
}

/// How the reads of the position being swept are checked.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reads {
    /// Not a member: its reads are nobody's concern.
    Skip,
    /// A member with no row or a `control` row: the walk made its reads
    /// live.
    AtOnce,
    /// A `call` or `criterion` member: its reads matter only if its own
    /// writes are consumed.
    Late,
}

/// One slice's side of a sweep: its witness rows, its criteria, and what
/// its checks have found so far. Fed forward one [`ColumnCursor`] window
/// at a time, so it never needs random access outside the current window.
struct Job<'a> {
    items: &'a [SlicingCriterion],
    result: &'a SliceResult,
    /// Considered prefix length: the job's checks cover `0..n`.
    n: usize,
    /// The valid rows, one per member, in member order.
    rows: Vec<WitnessRow>,
    /// Indices into `rows`, in consumer order.
    by_consumer: Vec<u32>,
    /// The next entry of `rows` / `by_consumer` the sweep will reach.
    member_cur: usize,
    consumer_cur: usize,
    /// `meta[i]`: the meta of `rows[i].member`, once the sweep has passed
    /// it.
    meta: Vec<MemberMeta>,
    /// Positions of `include_instr` criteria inside the prefix, sorted.
    include_crit: Vec<u32>,
    crit_cur: usize,
    /// How the reads at the position being swept are checked.
    reads_here: Reads,
    /// Members a checked read consumes, one bit per position.
    consumed: Vec<u64>,
    /// Reads of `call` and `criterion` members, in reader order.
    late: Vec<LateRead>,
    out: Vec<Diag>,
}

impl Job<'_> {
    fn member(&self, idx: usize) -> bool {
        self.result.contains(TracePos(idx as u64))
    }

    /// A checked read of `fact` by `by` whose last writer is `wr`: the
    /// writer must be a member (or absent), and its writes are consumed.
    fn consume(&mut self, fact: Fact, wr: Option<u32>, by: Consumer) {
        let Some(w) = wr else { return };
        if self.member(w as usize) {
            self.consumed[w as usize / 64] |= 1 << (w % 64);
        } else {
            self.out.push(Diag::at(
                Code::CertifyLiveLeak,
                w as usize,
                format!("non-slice write to {fact} read by {by}"),
            ));
        }
    }

    /// A read of `fact` at the swept position `idx`, whose last writer is
    /// `wr`.
    fn read(&mut self, idx: usize, fact: Fact, wr: Option<u32>) {
        match (self.reads_here, wr) {
            (Reads::AtOnce, _) => self.consume(fact, wr, Consumer::Member(idx)),
            (Reads::Late, Some(writer)) => self.late.push(LateRead {
                reader: idx as u32,
                writer,
                fact,
            }),
            _ => {}
        }
    }

    /// Checks row `i` at its consumer position (the index the cursor is
    /// currently on): the consumer must be a member, and the edge must be
    /// in the CDG, on the dynamic call stack, or on the criteria list,
    /// reading the member side from the captured [`MemberMeta`].
    fn check_edge(&mut self, i: usize, cur: &ColumnCursor<'_>, deps: &ControlDeps, sh: &Shadows) {
        let row = self.rows[i];
        let (m, c) = (row.member.index(), row.consumer.index());
        let meta = self.meta.get(i);
        let fault = if !self.member(c) {
            Some(format!(
                "{} edge {} -> {} ends outside the slice",
                row.kind.name(),
                row.member,
                row.consumer
            ))
        } else {
            match row.kind {
                WitnessKind::Control => {
                    let ok = m < c
                        && meta.is_some_and(|mm| {
                            mm.is_branch
                                && mm.tid == cur.tid(c)
                                && mm.func == cur.func(c)
                                && deps.controllers(cur.func(c), cur.pc(c)).contains(&mm.pc)
                        });
                    (!ok).then(|| {
                        format!(
                            "control edge {} -> {} is not in the recovered CDG",
                            row.member, row.consumer
                        )
                    })
                }
                WitnessKind::Call => {
                    let ok = m < c
                        && meta.is_some_and(|mm| mm.is_call && mm.tid == cur.tid(c))
                        && sh.stacks[cur.tid(c).index()].last() == Some(&(m as u32));
                    (!ok).then(|| {
                        format!(
                            "call edge {} -> {} does not match the dynamic call stack",
                            row.member, row.consumer
                        )
                    })
                }
                WitnessKind::Criterion => {
                    let ok = c == m && self.include_crit.binary_search(&(m as u32)).is_ok();
                    (!ok).then(|| {
                        format!(
                            "{} is not an include-instruction criterion anchor",
                            row.member
                        )
                    })
                }
            }
        };
        if let Some(message) = fault {
            self.out.push(Diag::at(Code::CertifyBadEdge, m, message));
        }
    }

    /// The job's checks at `idx` that precede the position's writes: meta
    /// capture for a member with a row, the rows consumed here, and how
    /// this position's reads are checked. Returns whether they are.
    fn before_writes(
        &mut self,
        idx: usize,
        cur: &ColumnCursor<'_>,
        deps: &ControlDeps,
        sh: &Shadows,
    ) -> bool {
        self.reads_here = Reads::Skip;
        if idx >= self.n {
            return false;
        }
        // 0. Capture the meta the row's check will need once the window
        // has moved past this position.
        let mut row_kind = None;
        if let Some(row) = self
            .rows
            .get(self.member_cur)
            .filter(|r| r.member.index() == idx)
        {
            row_kind = Some(row.kind);
            let kind = cur.kind(idx);
            self.meta.push(MemberMeta {
                tid: cur.tid(idx),
                func: cur.func(idx),
                pc: cur.pc(idx),
                is_branch: kind.is_branch(),
                is_call: matches!(kind, InstrKind::Call { .. }),
            });
            self.member_cur += 1;
        }

        // 1. Rows whose consumer is `idx`.
        while let Some(&i) = self.by_consumer.get(self.consumer_cur) {
            if self.rows[i as usize].consumer.index() != idx {
                break;
            }
            self.consumer_cur += 1;
            self.check_edge(i as usize, cur, deps, sh);
        }

        // 2. The member's reads, which happen before its writes.
        self.reads_here = match row_kind {
            Some(WitnessKind::Call | WitnessKind::Criterion) => Reads::Late,
            Some(WitnessKind::Control) => Reads::AtOnce,
            None if self.member(idx) => Reads::AtOnce,
            None => Reads::Skip,
        };
        self.reads_here != Reads::Skip
    }

    /// The job's checks at `idx` that follow the position's writes: the
    /// facts of the criteria anchored here (criteria observe state after
    /// the anchor executes, the same timing the backward walk uses).
    fn after_writes(&mut self, idx: usize, sh: &Shadows, ti: usize) {
        if idx >= self.n {
            return;
        }
        let items = self.items;
        while let Some(c) = items.get(self.crit_cur).filter(|c| c.pos.index() == idx) {
            self.crit_cur += 1;
            let by = Consumer::Criterion(c.pos);
            for &range in &c.mem {
                sh.mem
                    .for_range(range.start().raw(), range.end().raw(), |s, e, wr| {
                        self.consume(Fact::Mem(s, e), wr, by)
                    });
            }
            for r in c.regs.iter() {
                self.consume(Fact::Reg(r), sh.regs[ti][r.index()], by);
            }
        }
    }

    /// The verdict once the sweep is done: the late reads, then every
    /// member with no row that nothing consumes. Diagnostics in canonical
    /// order.
    fn finish(mut self) -> Vec<Diag> {
        // Readers in descending position. Every consumption points to an
        // earlier position, so each reader's verdict is final by its turn.
        for r in std::mem::take(&mut self.late).into_iter().rev() {
            if self.consumed[r.reader as usize / 64] >> (r.reader % 64) & 1 != 0 {
                self.consume(r.fact, Some(r.writer), Consumer::Member(r.reader as usize));
            }
        }
        // A row explains its member (its own check reported WP0009 if
        // not); every other member must be consumed.
        for row in &self.rows {
            let m = row.member.index();
            self.consumed[m / 64] |= 1 << (m % 64);
        }
        for (wi, &word) in self.result.bitmap_words().iter().enumerate() {
            let mut left = word & !self.consumed[wi];
            while left != 0 {
                let pos = wi * 64 + left.trailing_zeros() as usize;
                left &= left - 1;
                self.out.push(Diag::at(
                    Code::CertifyUnconsumed,
                    pos,
                    "no witness row, and no checked read consumes its writes".to_owned(),
                ));
            }
        }
        sort_diags(&mut self.out);
        self.out
    }
}

/// Builds one job's sweep state from its witness table, or returns the
/// job's diagnostics directly when there is nothing to sweep. Rows with
/// positions outside the considered prefix `0..n`, members outside the
/// slice bitmap, and a member's second row are reported and left out of
/// the sweep. The rest are sorted by content, so neither the table's row
/// order nor which of two rows comes first changes the verdict.
fn prepare<'a>(
    trace_len: usize,
    criteria: &'a Criteria,
    result: &'a SliceResult,
) -> Result<Job<'a>, Vec<Diag>> {
    let n = result.considered() as usize;
    if n > trace_len {
        return Err(vec![Diag::at_end(
            Code::CertifyMismatch,
            format!("slice considers {n} instructions, trace has {trace_len}"),
        )]);
    }
    let Some(w) = result.witness() else {
        return Err(vec![Diag::at_end(
            Code::CertifyMismatch,
            "slice carries no witness table".to_owned(),
        )]);
    };
    let mut out = Vec::new();
    let mut rows = Vec::with_capacity(w.len());
    for (i, row) in w.rows().enumerate() {
        if row.member.index() >= n || row.consumer.index() >= n {
            out.push(Diag::at_end(
                Code::CertifyMismatch,
                format!(
                    "witness row {i} ({} -> {}) outside the {} considered instructions",
                    row.member, row.consumer, n
                ),
            ));
        } else if !result.contains(row.member) {
            out.push(Diag::at(
                Code::CertifyMismatch,
                row.member.index(),
                format!("witness row for {} which is not in the slice", row.member),
            ));
        } else {
            rows.push(row);
        }
    }
    rows.sort_unstable_by_key(|r| (r.member, r.consumer, r.kind as u8));
    rows.dedup_by(|r, kept| {
        let twice = r.member == kept.member;
        if twice {
            out.push(Diag::at(
                Code::CertifyMismatch,
                r.member.index(),
                format!("second witness row for {}", r.member),
            ));
        }
        twice
    });
    let mut by_consumer: Vec<u32> = (0..rows.len() as u32).collect();
    by_consumer.sort_by_key(|&i| rows[i as usize].consumer);
    let include_crit = criteria
        .items()
        .iter()
        .filter(|c| c.include_instr && c.pos.index() < n)
        .map(|c| c.pos.0 as u32)
        .collect();

    Ok(Job {
        // Criteria with positions beyond the considered prefix never match
        // an `idx` below `n` and are skipped, mirroring the slicer.
        items: criteria.items(),
        result,
        n,
        meta: Vec::with_capacity(rows.len()),
        rows,
        by_consumer,
        member_cur: 0,
        consumer_cur: 0,
        include_crit,
        crit_cur: 0,
        reads_here: Reads::Skip,
        consumed: vec![0; result.bitmap_words().len()],
        late: Vec::new(),
        out,
    })
}

/// One forward sweep certifying several slices of the same trace: the
/// shared [`Shadows`] advance once per position, and every job runs its
/// checks at the same points around them as it would alone.
struct Sweep<'a> {
    deps: &'a ControlDeps,
    shadows: Shadows,
    /// Per input job: its sweep state, or the diagnostics that stopped it
    /// before the sweep.
    jobs: Vec<Result<Job<'a>, Vec<Diag>>>,
}

impl<'a> Sweep<'a> {
    fn new(
        forward: &'a ForwardPass,
        trace_len: usize,
        jobs: &[(&'a Criteria, &'a SliceResult)],
    ) -> Sweep<'a> {
        Sweep {
            deps: forward.control_deps(),
            shadows: Shadows::new(),
            jobs: jobs
                .iter()
                .map(|&(criteria, result)| prepare(trace_len, criteria, result))
                .collect(),
        }
    }

    /// Positions the sweep must cover: the longest swept prefix.
    fn len(&self) -> usize {
        self.jobs.iter().flatten().map(|j| j.n).max().unwrap_or(0)
    }

    /// Advances the sweep over one cursor window, running every check
    /// whose position falls inside it.
    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        let Sweep {
            deps,
            shadows: sh,
            jobs,
        } = self;
        for idx in cur.lo()..cur.hi() {
            let ti = cur.tid(idx).index();

            // 0–2. Row meta, the rows consumed here, and how this
            // position's reads are checked, per job.
            let mut reads = false;
            for job in jobs.iter_mut().flatten() {
                reads |= job.before_writes(idx, cur, deps, sh);
            }

            // 3. The member's reads: one shadow probe per read serves
            // every job that checks it.
            if reads {
                for &rd in cur.mem_reads(idx) {
                    sh.mem
                        .for_range(rd.start().raw(), rd.end().raw(), |s, e, wr| {
                            for job in jobs.iter_mut().flatten() {
                                job.read(idx, Fact::Mem(s, e), wr);
                            }
                        });
                }
                for r in cur.reg_reads(idx).iter() {
                    let wr = sh.regs[ti][r.index()];
                    for job in jobs.iter_mut().flatten() {
                        job.read(idx, Fact::Reg(r), wr);
                    }
                }
            }

            // 4. The instruction's own writes become the last writers.
            sh.apply_writes(cur, idx, ti);

            // 5. The facts of the criteria anchored here.
            for job in jobs.iter_mut().flatten() {
                job.after_writes(idx, sh, ti);
            }

            // 6. Dynamic call stack maintenance.
            sh.track_calls(cur, idx, ti);
        }
    }

    /// Each input job's diagnostics, in canonical sorted order.
    fn finish(self) -> Vec<Vec<Diag>> {
        self.jobs
            .into_iter()
            .map(|job| job.map_or_else(|out| out, Job::finish))
            .collect()
    }
}

/// Certifies several slices of `trace` in one forward sweep. Each job is
/// a `(criteria, slice)` pair whose slice carries a witness table; jobs
/// may consider different prefixes. Returns each job's diagnostics, in
/// job order and canonical sorted order — exactly what [`certify`] would
/// return for that job alone. The last-writer shadows and call stacks
/// are built once for all jobs, so certifying a session's pixel and
/// syscall slices together costs one shadow sweep, not two.
///
/// `forward` must be the forward pass the slices were built from (the
/// control-dependence edges are checked against its recovered CDG).
pub fn certify_all(
    trace: &Trace,
    forward: &ForwardPass,
    jobs: &[(&Criteria, &SliceResult)],
) -> Vec<Vec<Diag>> {
    let Ok(out) = sweep(&mut { trace }, forward, jobs);
    out
}

/// [`certify_all`] over any [`ColumnSource`]: the one sweep body. A
/// `WPTRACE2` reader holds only its bounded chunk window (plus the rows,
/// their meta and one bit per position of each job) in memory.
fn sweep<S: ColumnSource>(
    src: &mut S,
    forward: &ForwardPass,
    jobs: &[(&Criteria, &SliceResult)],
) -> Result<Vec<Vec<Diag>>, S::Error> {
    let mut sweep = Sweep::new(forward, src.len(), jobs);
    let n = sweep.len();
    src.stream_range(0, n, |cur| sweep.feed(cur))?;
    Ok(sweep.finish())
}

/// Certifies `result` — a slice of `trace` under `criteria`, carrying a
/// witness table — in one forward sweep. Returns diagnostics in canonical
/// sorted order; empty means the slice and its complement check out.
///
/// `forward` must be the same forward pass the slice was built from (the
/// control-dependence edges are checked against its recovered CDG).
pub fn certify(
    trace: &Trace,
    forward: &ForwardPass,
    criteria: &Criteria,
    result: &SliceResult,
) -> Vec<Diag> {
    let Ok(diags) = certify_streamed(&mut { trace }, forward, criteria, result);
    diags
}

/// [`certify`] over any [`ColumnSource`].
///
/// # Errors
///
/// Any read or decode error of the source.
pub fn certify_streamed<S: ColumnSource>(
    src: &mut S,
    forward: &ForwardPass,
    criteria: &Criteria,
    result: &SliceResult,
) -> Result<Vec<Diag>, S::Error> {
    let mut out = sweep(src, forward, &[(criteria, result)])?;
    Ok(out.pop().expect("one job, one result"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model of [`MemShadow::write`]: split at both edges,
    /// collect the doomed keys, remove them — no fast paths.
    #[derive(Default)]
    struct SplitShadow {
        map: BTreeMap<u64, (u64, u32)>,
    }

    impl SplitShadow {
        fn split_at(&mut self, at: u64) {
            let split = match self.map.range(..at).next_back() {
                Some((&s, &(end, wr))) if end > at => Some((s, end, wr)),
                _ => None,
            };
            if let Some((s, end, wr)) = split {
                self.map.get_mut(&s).expect("entry just observed").0 = at;
                self.map.insert(at, (end, wr));
            }
        }

        fn write(&mut self, lo: u64, hi: u64, writer: u32) {
            if lo >= hi {
                return;
            }
            self.split_at(lo);
            self.split_at(hi);
            let doomed: Vec<u64> = self.map.range(lo..hi).map(|(&s, _)| s).collect();
            for s in doomed {
                self.map.remove(&s);
            }
            self.map.insert(lo, (hi, writer));
        }
    }

    fn spans(shadow: &MemShadow, lo: u64, hi: u64) -> Vec<(u64, u64, Option<u32>)> {
        let mut out = Vec::new();
        shadow.for_range(lo, hi, |s, e, wr| out.push((s, e, wr)));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random write sequences over a small address grid —
        /// exact-interval repeats, straddles, adjacent and nested ranges —
        /// leave the fast-pathed shadow with exactly the reference spans
        /// and the same `for_range` answers.
        #[test]
        fn mem_shadow_matches_split_reference(
            ops in proptest::collection::vec((0..2u8, 0..12u8, 0..4u8), 1..60),
        ) {
            let mut fast = MemShadow::default();
            let mut reference = SplitShadow::default();
            let mut prev = (0u64, 8u64);
            for (writer, &(op, a, b)) in ops.iter().enumerate() {
                let fresh = (a as u64 * 4, a as u64 * 4 + [1, 4, 8, 16][b as usize]);
                // Op 1 repeats the previous interval exactly.
                let (lo, hi) = if op == 1 { prev } else { fresh };
                prev = (lo, hi);
                fast.write(lo, hi, writer as u32);
                reference.write(lo, hi, writer as u32);
                prop_assert_eq!(&fast.map, &reference.map);
                let model = MemShadow { map: reference.map.clone() };
                let probe = (fresh.0.saturating_sub(2), fresh.1 + 3);
                prop_assert_eq!(
                    spans(&fast, probe.0, probe.1),
                    spans(&model, probe.0, probe.1)
                );
            }
        }
    }
}
