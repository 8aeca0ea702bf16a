//! Independent slice certifier: one forward sweep that re-checks backward
//! slices against the trace they came from.
//!
//! The slicer emits a dependence witness (see `wasteprof-slicer`'s
//! `Witnesses`): one row per slice member naming the live fact the member
//! defined and the downstream member or criterion that consumed it, the
//! CDG edge for control-dependence members, or the contained member for
//! dynamic calls. [`certify`] replays those claims *forward* over the
//! packed columns — no `Instr` materialization, the same streaming
//! style as the race detector — and shares no code with the backward
//! walk, so a bug in the slicer's liveness machinery cannot hide itself.
//! The sweep is written once over a `ColumnSource`: [`certify_streamed`]
//! runs it from a `WPTRACE2` reader without ever holding the whole trace
//! in memory, and [`certify_all`] certifies several slices of one trace
//! in a single sweep: the last-writer shadows and call stacks are
//! criterion-independent, so they are built once and every slice's
//! checks read them at their own points.
//!
//! Two properties are checked:
//!
//! - **Soundness of every edge.** A `mem`/`reg` row claims its member is
//!   the *last* write to those bytes / that register before the consumer
//!   (registers on the consumer's own thread); the sweep tracks
//!   last-writer shadows and compares at the consumer ([`Code::CertifyStaleDef`]).
//!   `control` rows must be real edges of the recovered control-dependence
//!   graph, `call` rows must match the dynamic call stack, and `criterion`
//!   rows must anchor a real `include_instr` criterion
//!   ([`Code::CertifyBadEdge`]).
//! - **Complement safety.** Wherever a slice member or criterion consumes
//!   bytes or a register, the last writer must itself be in the slice (or
//!   the bytes were never written). A non-slice last writer means the
//!   slicer wrongly excluded an instruction whose value reached the
//!   criteria ([`Code::CertifyLiveLeak`]).
//!
//! Together these imply slice soundness: every value flowing into the
//! criteria is produced inside the slice, and every member has a checked
//! reason to be there. Bookkeeping defects — missing table, a slice
//! longer than the trace, row counts disagreeing with the slice
//! population, rows whose member is not in the bitmap — report
//! [`Code::CertifyMismatch`].

use std::collections::BTreeMap;
use std::fmt;

use wasteprof_slicer::{
    ControlDeps, Criteria, ForwardPass, SliceResult, SlicingCriterion, WitnessKind, WitnessRow,
    Witnesses,
};
use wasteprof_trace::{
    ColumnCursor, ColumnSource, FuncId, InstrKind, Pc, RegSet, ThreadId, Trace, TracePos,
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

/// Static facts about one slice member, captured when the forward sweep
/// passes its position.
///
/// Edge checks at a consumer need the member side's thread, location, and
/// opcode class — positions an out-of-core sweep has already evicted. Since
/// every member precedes its consumer in an honest table, capturing these
/// five fields at member time makes the edge checks window-local; a row
/// whose member does *not* precede its consumer finds no meta and fails
/// the check, exactly as it should.
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

/// One slice's side of a sweep: its witness rows grouped by consumer, its
/// criteria, and the member meta captured so far. Fed forward one
/// [`ColumnCursor`] window at a time, so it never needs random access
/// outside the current window.
struct Job<'a> {
    w: &'a Witnesses,
    items: &'a [SlicingCriterion],
    result: &'a SliceResult,
    /// The slice bitmap, one bit per position.
    words: &'a [u64],
    /// Considered prefix length: the job's checks cover `0..n`.
    n: usize,
    /// Valid row indices in `(consumer, is_criterion, row)` order.
    by_consumer: Vec<u32>,
    cons_cur: usize,
    /// The decoded row at `by_consumer[cons_cur]`: each row is decoded
    /// once, when it reaches the head.
    head: Option<WitnessRow>,
    /// [`consumer_key`] of `head`, `u64::MAX` past the end: every position
    /// compares against it.
    cons_key: u64,
    /// Members whose own reads entered the live sets, strictly increasing.
    gen_members: Vec<u32>,
    gen_cur: usize,
    /// Set while the position being swept is one of `gen_members`: its
    /// reads await the complement check shared by every such job.
    genned_here: bool,
    /// Positions of `include_instr` criteria inside the prefix, sorted.
    include_crit: Vec<u32>,
    crit_cur: usize,
    /// `rank_base[i]`: members in `words[..i]`.
    rank_base: Vec<u32>,
    /// Meta of the members the sweep has passed, in position order: the
    /// member at `pos` owns `meta[rank(pos)]`.
    meta: Vec<MemberMeta>,
    out: Vec<Diag>,
}

impl Job<'_> {
    fn member(&self, idx: u32) -> bool {
        self.result.contains(TracePos(idx as u64))
    }

    /// Members strictly before `pos`.
    fn rank(&self, pos: usize) -> usize {
        let below = self.words[pos / 64] & ((1u64 << (pos % 64)) - 1);
        self.rank_base[pos / 64] as usize + below.count_ones() as usize
    }

    /// The captured meta of member `pos`, if the sweep has passed it.
    /// Rows reaching a check have members inside the bitmap.
    fn meta_of(&self, pos: u32) -> Option<MemberMeta> {
        self.meta.get(self.rank(pos as usize)).copied()
    }

    /// Pops the head row.
    fn next_consumer_row(&mut self) -> WitnessRow {
        let row = self.head.expect("cons_key names a head row");
        self.cons_cur += 1;
        self.head = self
            .by_consumer
            .get(self.cons_cur)
            .map(|&i| self.w.row(i as usize));
        self.cons_key = self.head.as_ref().map_or(u64::MAX, consumer_key);
        row
    }

    /// Checks one witness row at its consumer position (the index the
    /// cursor is currently on). `mem`/`reg` rows compare against the
    /// last-writer shadows (called before the consumer's own writes for
    /// member consumers, after them for criterion consumers — a criterion
    /// observes memory *after* its anchor instruction executes, matching
    /// the backward walk's event order). Structural rows check the CDG,
    /// the dynamic call stack, or the criteria list, reading the member
    /// side from the captured [`MemberMeta`].
    fn check_edge(
        &mut self,
        row: &WitnessRow,
        cur: &ColumnCursor<'_>,
        deps: &ControlDeps,
        sh: &Shadows,
    ) {
        let m = row.member.index();
        let c = row.consumer.index();
        match row.kind {
            WitnessKind::Mem => {
                if row.fact_lo >= row.fact_hi {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!("empty mem fact {:#x}..{:#x}", row.fact_lo, row.fact_hi),
                    ));
                    return;
                }
                let mut bad: Option<(u64, u64, Option<u32>)> = None;
                sh.mem.for_range(row.fact_lo, row.fact_hi, |lo, hi, wr| {
                    if bad.is_none() && wr != Some(m as u32) {
                        bad = Some((lo, hi, wr));
                    }
                });
                if let Some((lo, hi, wr)) = bad {
                    let actual = match wr {
                        Some(w) => format!("{}", TracePos(w as u64)),
                        None => "never written".to_owned(),
                    };
                    self.out.push(Diag::at(
                        Code::CertifyStaleDef,
                        m,
                        format!(
                            "claims the last write to {lo:#x}..{hi:#x} before {}, \
                             but that is {actual}",
                            row.consumer
                        ),
                    ));
                }
            }
            WitnessKind::Reg => {
                let ri = row.fact_lo as usize;
                if ri >= 16 {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!("register index {ri} out of range"),
                    ));
                    return;
                }
                let tid_c = cur.tid(c);
                let ti = tid_c.index();
                if let Some(mm) = self.meta_of(m as u32) {
                    if mm.tid != tid_c {
                        self.out.push(Diag::at(
                            Code::CertifyStaleDef,
                            m,
                            format!(
                                "register fact crosses threads: def on {:?}, use at {} on {:?}",
                                mm.tid, row.consumer, tid_c
                            ),
                        ));
                        return;
                    }
                }
                if sh.regs[ti][ri] != Some(m as u32) {
                    let actual = match sh.regs[ti][ri] {
                        Some(w) => format!("{}", TracePos(w as u64)),
                        None => "never written".to_owned(),
                    };
                    self.out.push(Diag::at(
                        Code::CertifyStaleDef,
                        m,
                        format!(
                            "claims the last write to register {ri} before {}, \
                             but that is {actual}",
                            row.consumer
                        ),
                    ));
                }
            }
            WitnessKind::Control => {
                let ok = m < c
                    && self.meta_of(m as u32).is_some_and(|mm| {
                        mm.is_branch
                            && mm.tid == cur.tid(c)
                            && mm.func == cur.func(c)
                            && deps.controllers(cur.func(c), cur.pc(c)).contains(&mm.pc)
                    });
                if !ok {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!(
                            "control edge {} -> {} is not in the recovered CDG",
                            row.member, row.consumer
                        ),
                    ));
                }
            }
            WitnessKind::Call => {
                let ti = cur.tid(c).index();
                let ok = m < c
                    && self
                        .meta_of(m as u32)
                        .is_some_and(|mm| mm.is_call && mm.tid == cur.tid(c))
                    && sh.stacks[ti].last() == Some(&(m as u32));
                if !ok {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!(
                            "call edge {} -> {} does not match the dynamic call stack",
                            row.member, row.consumer
                        ),
                    ));
                }
            }
            WitnessKind::Criterion => {
                if row.consumer != row.member
                    || self.include_crit.binary_search(&(m as u32)).is_err()
                {
                    self.out.push(Diag::at(
                        Code::CertifyBadEdge,
                        m,
                        format!(
                            "{} is not an include-instruction criterion anchor",
                            row.member
                        ),
                    ));
                }
            }
        }
    }

    /// Reports a non-slice last writer `wr` of `[lo, hi)`.
    fn check_mem_writer(&mut self, lo: u64, hi: u64, wr: Option<u32>, by: Consumer) {
        match wr {
            Some(w) if !self.member(w) => self.out.push(Diag::at(
                Code::CertifyLiveLeak,
                w as usize,
                format!("non-slice write to {lo:#x}..{hi:#x} read by {by}"),
            )),
            _ => {}
        }
    }

    /// Complement safety for registers consumed on thread `ti`.
    fn check_reg_complement(&mut self, sh: &Shadows, ti: usize, regs: RegSet, by: Consumer) {
        for r in regs.iter() {
            if let Some(wr) = sh.regs[ti][r.index()] {
                if !self.member(wr) {
                    self.out.push(Diag::at(
                        Code::CertifyLiveLeak,
                        wr as usize,
                        format!("non-slice write to {r:?} read by {by}"),
                    ));
                }
            }
        }
    }

    /// The job's checks at `idx` that precede the position's writes:
    /// member meta capture and member-consumer edges. Flags
    /// [`Job::genned_here`] when `idx` is a gen member, whose complement
    /// check the sweep runs next, shared by every flagged job.
    fn before_writes(
        &mut self,
        idx: usize,
        cur: &ColumnCursor<'_>,
        deps: &ControlDeps,
        sh: &Shadows,
    ) -> bool {
        if idx >= self.n {
            return false;
        }
        // 0. Capture member meta the edge checks will need once the
        // window has moved past this position.
        if self.words[idx / 64] >> (idx % 64) & 1 != 0 {
            let kind = cur.kind(idx);
            self.meta.push(MemberMeta {
                tid: cur.tid(idx),
                func: cur.func(idx),
                pc: cur.pc(idx),
                is_branch: kind.is_branch(),
                is_call: matches!(kind, InstrKind::Call { .. }),
            });
        }

        // 1. Edges whose consumer is the member at `idx`: the member's
        // reads happen before its writes, so check against the shadows
        // as they stand.
        while self.cons_key == (idx as u64) << 1 {
            let row = self.next_consumer_row();
            self.check_edge(&row, cur, deps, sh);
        }

        if self.gen_members.get(self.gen_cur) == Some(&(idx as u32)) {
            self.gen_cur += 1;
            self.genned_here = true;
        }
        self.genned_here
    }

    /// The job's checks at `idx` that follow the position's writes:
    /// criterion-consumer edges and the criteria's own complement safety
    /// (criteria observe state after the anchor executes).
    fn after_writes(
        &mut self,
        idx: usize,
        cur: &ColumnCursor<'_>,
        deps: &ControlDeps,
        sh: &Shadows,
        ti: usize,
    ) {
        if idx >= self.n {
            return;
        }
        // 4. Edges whose consumer is a criterion anchored here.
        while self.cons_key >> 1 == idx as u64 {
            let row = self.next_consumer_row();
            self.check_edge(&row, cur, deps, sh);
        }

        // 5. Complement safety for the criteria themselves.
        let items = self.items;
        while let Some(c) = items.get(self.crit_cur).filter(|c| c.pos.index() == idx) {
            self.crit_cur += 1;
            let by = Consumer::Criterion(c.pos);
            for &range in &c.mem {
                sh.mem
                    .for_range(range.start().raw(), range.end().raw(), |s, e, wr| {
                        self.check_mem_writer(s, e, wr, by)
                    });
            }
            self.check_reg_complement(sh, ti, c.regs, by);
        }
    }
}

/// Sort key grouping rows by consumer position, member-consumer rows
/// first: `consumer << 1 | is_criterion`.
fn consumer_key(row: &WitnessRow) -> u64 {
    row.consumer.0 << 1 | row.consumer_is_criterion as u64
}

/// Radix digit width of [`radix_by_consumer`]: 2048 buckets, two passes
/// for traces of up to 4M instructions.
const DIGIT_BITS: u32 = 11;

/// The sweep's view of a witness table: its valid rows grouped by
/// consumer, and the members whose reads entered the live sets (strictly
/// increasing). Rows with positions outside the considered prefix `0..n`
/// or members outside the slice bitmap are reported into `out` and left
/// out of the sweep.
///
/// Rows are grouped in ascending consumer position and, at one position,
/// member-consumer rows before criterion-consumer rows, each in row order
/// — exactly the `(consumer << 1 | is_criterion, row)` order — in linear
/// time: the sanity pass lays the valid rows out as `consumer << 32 | row`
/// keys, member-consumer rows first, and a stable radix sort on the
/// consumer ([`radix_by_consumer`]) finishes the order.
fn index_rows(
    w: &Witnesses,
    n: usize,
    result: &SliceResult,
    out: &mut Vec<Diag>,
) -> (Vec<u32>, Vec<u32>) {
    // Member-consumer keys fill from the front, criterion-consumer keys
    // from the back (reversed below), each in row order.
    let mut keys = vec![0u64; w.len()];
    let (mut front, mut back) = (0, w.len());
    let mut gen_members: Vec<u32> = Vec::new();
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
            let key = row.consumer.0 << 32 | i as u64;
            if row.consumer_is_criterion {
                back -= 1;
                keys[back] = key;
            } else {
                keys[front] = key;
                front += 1;
            }
            if row.genned_reads {
                gen_members.push(row.member.0 as u32);
            }
        }
    }
    keys[back..].reverse();
    let crit_rows = keys.len() - back;
    keys.copy_within(back.., front);
    keys.truncate(front + crit_rows);
    // Honest tables are member-sorted and duplicate-free already; a
    // mutated table is sorted so the sweep cursor stays correct on it too.
    if !gen_members.windows(2).all(|p| p[0] < p[1]) {
        gen_members.sort_unstable();
        gen_members.dedup();
    }
    (radix_by_consumer(keys, n), gen_members)
}

/// Sorts `keys` — `consumer << 32 | row`, consumers below `n` — by
/// consumer with a stable LSD radix sort and returns the row indices. The
/// transient is two keys, 16 bytes, per row.
fn radix_by_consumer(keys: Vec<u64>, n: usize) -> Vec<u32> {
    let mut src = keys;
    let mut dst = vec![0u64; src.len()];
    // Consumers are `u32` positions: at most 32 significant bits.
    let bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).min(32);
    let mask = (1u64 << DIGIT_BITS) - 1;
    let mut shift = 32;
    while shift < 32 + bits {
        let mut at = [0usize; 1 << DIGIT_BITS];
        for &e in &src {
            at[(e >> shift & mask) as usize] += 1;
        }
        let mut sum = 0;
        for slot in &mut at {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &e in &src {
            let d = (e >> shift & mask) as usize;
            dst[at[d]] = e;
            at[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        shift += DIGIT_BITS;
    }
    drop(dst);
    src.into_iter().map(|e| e as u32).collect()
}

/// Builds one job's sweep state from its witness table, or returns the
/// job's diagnostics directly when there is nothing to sweep.
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
    if w.len() as u64 != result.slice_count() {
        out.push(Diag::at_end(
            Code::CertifyMismatch,
            format!(
                "witness has {} rows for {} slice members",
                w.len(),
                result.slice_count()
            ),
        ));
    }

    let (by_consumer, gen_members) = index_rows(w, n, result, &mut out);
    let head = by_consumer.first().map(|&i| w.row(i as usize));
    let include_crit: Vec<u32> = criteria
        .items()
        .iter()
        .filter(|c| c.include_instr && c.pos.index() < n)
        .map(|c| c.pos.0 as u32)
        .collect();
    let words = result.bitmap_words();
    let mut members = 0u32;
    let rank_base = words
        .iter()
        .map(|w| {
            let base = members;
            members += w.count_ones();
            base
        })
        .collect();

    Ok(Job {
        w,
        // Criteria with positions beyond the considered prefix never match
        // an `idx` below `n` and are skipped, mirroring the slicer.
        items: criteria.items(),
        result,
        words,
        n,
        by_consumer,
        cons_cur: 0,
        cons_key: head.as_ref().map_or(u64::MAX, consumer_key),
        head,
        gen_members,
        gen_cur: 0,
        genned_here: false,
        include_crit,
        crit_cur: 0,
        rank_base,
        meta: Vec::with_capacity(result.slice_count() as usize),
        out,
    })
}

/// One forward sweep certifying several slices of the same trace: the
/// shared [`Shadows`] advance once per position, and every job runs its
/// checks at today's points of the single-slice sweep around them.
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

            // 0–1. Meta capture and member-consumer edges, per job.
            let mut genned = false;
            for job in jobs.iter_mut().flatten() {
                genned |= job.before_writes(idx, cur, deps, sh);
            }

            // 2. Complement safety for a member whose reads entered the
            // live sets: its last writers must be members (or nothing).
            // One shadow probe per read serves every job it is a gen
            // member of.
            if genned {
                let by = Consumer::Member(idx);
                for &rd in cur.mem_reads(idx) {
                    sh.mem
                        .for_range(rd.start().raw(), rd.end().raw(), |s, e, wr| {
                            for job in jobs.iter_mut().flatten().filter(|j| j.genned_here) {
                                job.check_mem_writer(s, e, wr, by);
                            }
                        });
                }
                for job in jobs.iter_mut().flatten().filter(|j| j.genned_here) {
                    job.check_reg_complement(sh, ti, cur.reg_reads(idx), by);
                    job.genned_here = false;
                }
            }

            // 3. The instruction's own writes become the last writers.
            sh.apply_writes(cur, idx, ti);

            // 4–5. Criterion-consumer edges and criteria complement.
            for job in jobs.iter_mut().flatten() {
                job.after_writes(idx, cur, deps, sh, ti);
            }

            // 6. Dynamic call stack maintenance.
            sh.track_calls(cur, idx, ti);
        }
    }

    /// Each input job's diagnostics, in canonical sorted order.
    fn finish(self) -> Vec<Vec<Diag>> {
        self.jobs
            .into_iter()
            .map(|job| {
                let mut out = job.map_or_else(|out| out, |job| job.out);
                sort_diags(&mut out);
                out
            })
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
/// `WPTRACE2` reader holds only its bounded chunk window (plus per-member
/// meta) in memory.
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
    use wasteprof_slicer::{pixel_criteria, slice, SliceOptions};
    use wasteprof_trace::{site, Recorder, Region, ThreadKind};

    /// A one-thread trace whose pixel slice has `width` rows consumed by
    /// one compute (it reads `width` cells, each written separately) and
    /// `width` criterion-consumer rows (the marker reads a tile written a
    /// cell at a time).
    fn fan_in(width: usize) -> Trace {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "main_root");
        let cells: Vec<_> = (0..width).map(|_| rec.alloc_cell(Region::Heap)).collect();
        let tile = rec.alloc(Region::PixelTile, 8 * width as u32);
        for &c in &cells {
            rec.compute(site!(), &[], &[c.into()]);
        }
        let reads: Vec<_> = cells.iter().map(|&c| c.into()).collect();
        for i in 0..width as u32 {
            rec.compute(site!(), &reads, &[tile.slice(8 * i, 8)]);
        }
        rec.marker(site!(), tile);
        rec.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The grouping orders a shuffled table's valid rows exactly as a
        /// comparison sort on `(consumer << 1 | is_criterion, row)` does,
        /// leaving out a row whose member left the bitmap.
        #[test]
        fn grouping_matches_a_comparison_sort(width in 1..9usize, seed in any::<u64>()) {
            let trace = fan_in(width);
            let fwd = ForwardPass::build(&trace);
            let opts = SliceOptions { witness: true, ..Default::default() };
            let mut result = slice(&trace, &fwd, &pixel_criteria(&trace), &opts);
            let mut rows: Vec<WitnessRow> = result.witness().unwrap().rows().collect();
            let mut state = seed | 1;
            for i in (1..rows.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                rows.swap(i, (state % (i as u64 + 1)) as usize);
            }
            result.remove_member(rows[seed as usize % rows.len()].member);
            result.set_witness(Some(Witnesses::from_rows(rows)));
            let w = result.witness().unwrap();
            let n = result.considered() as usize;

            let mut want: Vec<(u64, u32)> = w
                .rows()
                .enumerate()
                .filter(|(_, r)| result.contains(r.member))
                .map(|(i, r)| (consumer_key(&r), i as u32))
                .collect();
            want.sort_unstable();
            let want: Vec<u32> = want.into_iter().map(|(_, i)| i).collect();
            let (order, _) = index_rows(w, n, &result, &mut Vec::new());
            prop_assert_eq!(order, want);
        }
    }

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
