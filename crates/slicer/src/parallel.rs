//! Segment-parallel backward slicing: **summarize → stitch → replay**.
//!
//! The sequential backward pass ([`crate::slice`]) is a single dependent
//! chain: the action at trace index `i` depends on the live state produced
//! by every index above it. To parallelize without changing a single bit
//! of the result, this module exploits that slicing is *backward
//! reachability over a fixed dynamic-dependence structure*: the exact
//! state at any point is the union of the state produced by an ∅-seeded
//! run of the segment and the cascade induced by whatever is live at the
//! segment's upper boundary. Unions of runs are runs, so each segment can
//! be scanned **symbolically** once, in parallel, recording how its
//! behaviour depends on the (then unknown) boundary state:
//!
//! 1. **Summarize** (parallel): scan each segment backward with the exact
//!    sequential step logic, but split every quantity into a *concrete*
//!    part (what an ∅-seeded run produces — criteria live here) and a
//!    *conditional* part guarded by nodes of a per-segment condition
//!    graph. Atom nodes test the incoming boundary state (a live memory
//!    range, a thread's live registers, a pending-branch key, a frame's
//!    `any_slice` flag); `Or` nodes combine them. Writes kill
//!    unconditionally (a killed unit is dead below its writer whether or
//!    not the writer joins the slice), so the symbolic state never forks.
//! 2. **Stitch** (sequential, cost ∝ summary size): walk segments from
//!    the trace end, evaluating each summary's nodes against the exact
//!    boundary state (one forward pass — nodes are created in dependency
//!    order) and composing the next boundary state from the summary's
//!    transfer sets (concrete ∪ activated ∪ pass-through).
//! 3. **Replay** (parallel): resolve each segment's conditional members
//!    against its node activations, then recompute stats and timeline
//!    checkpoints per segment; a sequential suffix-sum merge rebuilds the
//!    global cumulative timeline. Segment boundaries are 64-aligned so
//!    finalizers never share a bitmap word.
//!
//! The result is **byte-identical** to the sequential pass for any
//! segment count and thread count (the differential tests assert full
//! [`SliceResult`] equality). `run` returns `None` — falling back to the
//! sequential reference — in two rare cases: a segment's condition graph
//! outgrowing [`MAX_NODES`], or a trace whose branches carry write
//! effects (the recorder never emits one, but the summaries' "probe
//! consumes, never kills" symmetry depends on it, so it is checked).

use std::collections::{BTreeMap, HashMap, HashSet};

use wasteprof_trace::{
    AddrRange, ColumnCursor, ColumnSource, FuncId, InstrKind, Pc, RangeJob, RegSet, ThreadId,
};

use crate::cdg::{ControlDeps, PendKey, PendingTransfer};
use crate::criteria::{Criteria, SlicingCriterion};
use crate::live::{for_run_chunks, AddrSet};
use crate::slice::{
    considered_prefix, timeline_interval, FibBuild, ForwardPass, SliceOptions, SliceResult,
    TimelinePoint,
};

/// Thread-slot count, mirroring the sequential pass's dense tables.
const NTHREADS: usize = 256;
/// Register-file width per thread ([`RegSet`] is a 16-bit mask).
const NREGS: usize = 16;
/// Per-segment cap on condition-graph nodes. A summary bigger than this
/// would make the sequential stitch phase the bottleneck anyway, so the
/// pass bails out to the reference walk instead of degrading.
const MAX_NODES: usize = 1 << 22;

type NodeId = u32;

/// One condition-graph node: a predicate over the segment's incoming
/// boundary state. Atoms are created at the moment the symbolic scan
/// consults an unknown, `Or`s when two conditions merge, so ids are in
/// dependency order and one forward pass evaluates the whole graph.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// Boundary live memory intersects this range.
    Mem(AddrRange),
    /// Boundary live registers of the thread intersect this set.
    Reg(ThreadId, RegSet),
    /// The key is in the boundary pending-branch set.
    Pend(PendKey),
    /// Boundary frame `slot` (bottom-indexed) of the thread has its
    /// `any_slice` flag set.
    Frame(ThreadId, u32),
    /// Disjunction of two earlier nodes.
    Or(NodeId, NodeId),
}

/// A tri-state condition: statically false, statically true (concrete),
/// or dependent on the boundary via a graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cond {
    False,
    True,
    Node(NodeId),
}

/// Symbolic liveness of one register of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegCell {
    /// No in-segment event touched it: boundary liveness passes through.
    Untouched,
    /// Killed by a write; boundary liveness is masked.
    Dead,
    /// Concretely live (∅-seeded run makes it live).
    Live,
    /// Live iff `node` activates, or (`atom`) it was live at the boundary
    /// and nothing in between killed it.
    Cond { atom: bool, node: NodeId },
}

/// One conditionally-live memory span `[start, end)`. `atom` marks spans
/// whose *boundary* liveness also passes through (the span was never
/// killed below the point that made it conditional).
type Span = (u64, u64, bool, NodeId);

/// Per-thread frame state of one segment's symbolic scan: frames opened
/// inside the segment (`local`, from `Ret`s) stacked on top of the frames
/// that were already open at the segment's upper boundary (`bnd_funcs`,
/// captured by the structural pre-scan). `Call`s pop local frames first;
/// once those run out they pop boundary frames (`bnd_popped` counts them)
/// whose `any_slice` flag is only known at stitch time — `Frame` atoms
/// stand in for it, OR-ed with in-segment marks (`bnd_marks`).
#[derive(Debug)]
struct SegFrames {
    local: Vec<(FuncId, Cond)>,
    bnd_funcs: Vec<FuncId>,
    bnd_popped: usize,
    bnd_marks: Vec<Cond>,
}

/// Everything phase 2 needs to know about one segment. Bitmap words and
/// `members` indices are segment-relative.
#[derive(Debug)]
struct SegSummary {
    lo: usize,
    hi: usize,
    nodes: Vec<Node>,
    /// Concrete slice members (∅-seeded), one bit per instruction,
    /// word 0 = instructions `[lo, lo+64)`.
    bitmap: Vec<u64>,
    /// Conditional members: `(idx - lo, node)`.
    members: Vec<(u32, NodeId)>,
    /// Concretely live memory at the segment's lower boundary.
    conc_mem: AddrSet,
    /// Bytes the segment wrote or made concretely/conditionally live:
    /// boundary liveness of everything *outside* passes through.
    touched: AddrSet,
    /// Conditionally live memory spans at the lower boundary.
    cond_mem: Vec<Span>,
    /// Concretely live registers per thread slot.
    conc_regs: Vec<RegSet>,
    /// Symbolic register cells, `NREGS` per thread slot.
    reg_cells: Vec<RegCell>,
    pend: PendingTransfer<Cond>,
    frames: Vec<SegFrames>,
}

/// Exact state at a segment boundary, computed by the stitch phase.
#[derive(Debug)]
struct BoundaryState {
    mem: AddrSet,
    regs: Vec<RegSet>,
    pend: HashSet<PendKey, FibBuild>,
    frames: Vec<Vec<(FuncId, bool)>>,
}

impl BoundaryState {
    /// The state at the very end of the considered prefix: nothing live,
    /// nothing pending, and the open-call frames captured there, all
    /// flags down.
    fn initial(stacks_at_end: &[Vec<FuncId>]) -> Self {
        BoundaryState {
            mem: AddrSet::new(),
            regs: vec![RegSet::EMPTY; NTHREADS],
            pend: HashSet::default(),
            frames: stacks_at_end
                .iter()
                .map(|fs| fs.iter().map(|&f| (f, false)).collect())
                .collect(),
        }
    }
}

/// A stitched segment, ready for parallel replay.
struct Replay {
    lo: usize,
    hi: usize,
    bitmap: Vec<u64>,
    members: Vec<(u32, NodeId)>,
    active: Vec<bool>,
}

/// Per-segment replay output; `timeline` holds *local* cumulative counts
/// keyed by global instruction index.
struct SegFinal {
    bitmap: Vec<u64>,
    slice_count: u64,
    per_thread: Vec<(u64, u64)>,
    per_func: Vec<(u64, u64)>,
    tracked_total: u64,
    tracked_slice: u64,
    timeline: Vec<(usize, TimelinePoint)>,
}

/// Runs the segment-parallel pass with `k` requested segments. Returns
/// `None` when the pass declines (degenerate segmentation, branch write
/// effects, or a summary outgrowing its node budget); the caller falls
/// back to the sequential walk. Summaries and replays are independent
/// per-segment jobs: parallel over a resident trace, one at a time
/// through a reader's chunk window — the result is the same.
pub(crate) fn run<S: ColumnSource>(
    src: &mut S,
    forward: &ForwardPass,
    criteria: &Criteria,
    options: &SliceOptions,
    k: usize,
) -> Result<Option<SliceResult>, S::Error> {
    let n = considered_prefix(src.len(), options);
    // 64-aligned boundaries: segment bitmaps never share a word.
    let seg = n.div_ceil(k).div_ceil(64) * 64;
    if seg == 0 {
        return Ok(None);
    }
    let nsegs = n.div_ceil(seg);
    if nsegs <= 1 {
        return Ok(None);
    }
    let bounds: Vec<usize> = (0..nsegs).map(|i| i * seg).chain([n]).collect();
    let ranges: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
    let mut scan = StructuralScan::new(&bounds);
    src.stream_range(0, n, |cur| scan.feed(cur))?;
    let (stacks, branch_writes) = scan.finish();
    if branch_writes {
        return Ok(None);
    }
    let init = BoundaryState::initial(&stacks[nsegs - 1]);

    let deps = forward.control_deps();
    let items = criteria.items();

    // Phase 1: symbolic summaries, one job per segment.
    let summaries = src.run_jobs(&ranges, |ki| {
        let (lo, hi) = ranges[ki];
        let c0 = items.partition_point(|c| c.pos.index() < lo);
        let c1 = items.partition_point(|c| c.pos.index() < hi);
        Summarizer::new(lo, hi, deps, &items[c0..c1], stacks[ki].clone())
    })?;
    let Some(mut summaries) = summaries.into_iter().collect::<Option<Vec<SegSummary>>>() else {
        return Ok(None);
    };

    // Phase 2: sequential stitch from the trace end (no trace access).
    let mut state = init;
    let mut replays: Vec<Replay> = Vec::with_capacity(nsegs);
    while let Some(sum) = summaries.pop() {
        let (next, replay) = stitch(sum, &state);
        state = next;
        replays.push(replay);
    }
    replays.reverse();

    // Phase 3: replay jobs, then a sequential suffix-sum merge.
    let nfuncs = src.functions().len();
    let interval = timeline_interval(options, n);
    let tracked = options.tracked_thread;
    let finals = src.run_jobs(&ranges, |i| {
        Finalizer::new(&replays[i], n, nfuncs, interval, tracked)
    })?;
    Ok(Some(assemble(n, nfuncs, &replays, finals)))
}

/// The suffix-sum merge of [`run`]: copies the per-segment bitmaps into
/// place (boundaries are 64-aligned, so words never straddle segments),
/// sums the counters, and rebuilds the global cumulative timeline from
/// per-segment local counts.
fn assemble(n: usize, nfuncs: usize, replays: &[Replay], finals: Vec<SegFinal>) -> SliceResult {
    let mut bitmap = vec![0u64; n.div_ceil(64)];
    let mut per_thread = vec![(0u64, 0u64); NTHREADS];
    let mut per_func = vec![(0u64, 0u64); nfuncs];
    for (r, f) in replays.iter().zip(&finals) {
        let w0 = r.lo / 64;
        bitmap[w0..w0 + f.bitmap.len()].copy_from_slice(&f.bitmap);
        for (acc, &(s, t)) in per_thread.iter_mut().zip(&f.per_thread) {
            acc.0 += s;
            acc.1 += t;
        }
        for (acc, &(s, t)) in per_func.iter_mut().zip(&f.per_func) {
            acc.0 += s;
            acc.1 += t;
        }
    }
    let slice_count: u64 = finals.iter().map(|f| f.slice_count).sum();

    // Timeline: segments are processed (backward) last-to-first, so a
    // segment's cumulative counts sit on top of the totals of every
    // *later* segment.
    let mut timeline = Vec::new();
    let (mut off_slice, mut off_tt, mut off_ts) = (0u64, 0u64, 0u64);
    for f in finals.iter().rev() {
        for &(idx, p) in &f.timeline {
            timeline.push(TimelinePoint {
                processed: (n - idx) as u64,
                in_slice: p.in_slice + off_slice,
                tracked_processed: p.tracked_processed + off_tt,
                tracked_in_slice: p.tracked_in_slice + off_ts,
            });
        }
        off_slice += f.slice_count;
        off_tt += f.tracked_total;
        off_ts += f.tracked_slice;
    }

    SliceResult {
        considered: n as u64,
        bitmap,
        slice_count,
        per_thread: per_thread
            .iter()
            .enumerate()
            .filter(|(_, &(s, t))| s != 0 || t != 0)
            .map(|(i, &v)| (ThreadId(i as u8), v))
            .collect(),
        per_func: per_func
            .iter()
            .enumerate()
            .filter(|(_, &(s, t))| s != 0 || t != 0)
            .map(|(i, &v)| (FuncId(i as u32), v))
            .collect(),
        timeline,
        witness: None,
    }
}

/// Phase 0: one cheap forward walk capturing, at every segment boundary,
/// each thread's open-call stack (the backward pass's frame stack at that
/// point is exactly this, built from `Ret`s/`Call`s). Also verifies that
/// no branch carries write effects. Fed forward windows of any source.
struct StructuralScan {
    bounds: Vec<usize>,
    stacks: Vec<Vec<FuncId>>,
    out: Vec<Vec<Vec<FuncId>>>,
    bi: usize,
    branch_writes: bool,
}

impl StructuralScan {
    fn new(bounds: &[usize]) -> Self {
        StructuralScan {
            bounds: bounds.to_vec(),
            stacks: vec![Vec::new(); NTHREADS],
            out: Vec::with_capacity(bounds.len().saturating_sub(1)),
            bi: 1,
            branch_writes: false,
        }
    }

    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        for idx in cur.lo()..cur.hi() {
            while self.bi < self.bounds.len() && self.bounds[self.bi] == idx {
                self.out.push(self.stacks.clone());
                self.bi += 1;
            }
            let kind = cur.kind(idx);
            match kind {
                InstrKind::Call { callee } => self.stacks[cur.tid(idx).index()].push(callee),
                InstrKind::Ret => {
                    self.stacks[cur.tid(idx).index()].pop();
                }
                _ => {}
            }
            if kind.is_branch()
                && (!cur.reg_writes(idx).is_empty() || !cur.mem_writes(idx).is_empty())
            {
                self.branch_writes = true;
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn finish(mut self) -> (Vec<Vec<Vec<FuncId>>>, bool) {
        while self.bi < self.bounds.len() {
            self.out.push(self.stacks.clone());
            self.bi += 1;
        }
        (self.out, self.branch_writes)
    }
}

/// The symbolic backward scan of one segment (phase 1). Mirrors the
/// sequential step logic exactly; every consultation of state that the
/// boundary could influence goes through [`Cond`]s instead of booleans.
struct Summarizer<'a> {
    lo: usize,
    hi: usize,
    deps: &'a ControlDeps,
    criteria: &'a [SlicingCriterion],
    crit_idx: usize,
    nodes: Vec<Node>,
    or_cache: HashMap<(NodeId, NodeId), NodeId, FibBuild>,
    conc_mem: AddrSet,
    touched: AddrSet,
    /// `start -> (end, atom, node)`, disjoint spans.
    cond_mem: BTreeMap<u64, (u64, bool, NodeId)>,
    conc_regs: Vec<RegSet>,
    reg_cells: Vec<RegCell>,
    pend: PendingTransfer<Cond>,
    frames: Vec<SegFrames>,
    bitmap: Vec<u64>,
    members: Vec<(u32, NodeId)>,
    overflow: bool,
    // Scratch buffers, reused across instructions.
    span_scratch: Vec<(u64, (u64, bool, NodeId))>,
    spans_out: Vec<Span>,
    ranges_a: Vec<AddrRange>,
    ranges_b: Vec<AddrRange>,
    ranges_c: Vec<AddrRange>,
}

impl<'a> Summarizer<'a> {
    fn new(
        lo: usize,
        hi: usize,
        deps: &'a ControlDeps,
        criteria: &'a [SlicingCriterion],
        bnd: Vec<Vec<FuncId>>,
    ) -> Self {
        let frames = bnd
            .into_iter()
            .map(|funcs| {
                let marks = vec![Cond::False; funcs.len()];
                SegFrames {
                    local: Vec::new(),
                    bnd_funcs: funcs,
                    bnd_popped: 0,
                    bnd_marks: marks,
                }
            })
            .collect();
        let words = (hi - lo).div_ceil(64);
        Summarizer {
            lo,
            hi,
            deps,
            criteria,
            crit_idx: criteria.len(),
            nodes: Vec::new(),
            or_cache: HashMap::default(),
            conc_mem: AddrSet::new(),
            touched: AddrSet::new(),
            cond_mem: BTreeMap::new(),
            conc_regs: vec![RegSet::EMPTY; NTHREADS],
            reg_cells: vec![RegCell::Untouched; NTHREADS * NREGS],
            pend: PendingTransfer::default(),
            frames,
            bitmap: vec![0; words],
            members: Vec::new(),
            overflow: false,
            span_scratch: Vec::new(),
            spans_out: Vec::new(),
            ranges_a: Vec::new(),
            ranges_b: Vec::new(),
            ranges_c: Vec::new(),
        }
    }

    fn push_node(&mut self, n: Node) -> NodeId {
        if self.nodes.len() >= MAX_NODES {
            self.overflow = true;
            return 0;
        }
        self.nodes.push(n);
        (self.nodes.len() - 1) as NodeId
    }

    fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == b {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&id) = self.or_cache.get(&key) {
            return id;
        }
        let id = self.push_node(Node::Or(key.0, key.1));
        self.or_cache.insert(key, id);
        id
    }

    fn or_cond(&mut self, a: Cond, b: Cond) -> Cond {
        match (a, b) {
            (Cond::False, x) | (x, Cond::False) => x,
            (Cond::True, _) | (_, Cond::True) => Cond::True,
            (Cond::Node(x), Cond::Node(y)) => Cond::Node(self.or2(x, y)),
        }
    }

    /// The condition "pending entry `key` exists below this scan point".
    /// Untouched keys depend on the boundary via a `Pend` atom — unless
    /// the function was structurally cleared in between.
    fn pend_cond(&mut self, key: PendKey) -> Cond {
        match self.pend.get(&key) {
            Some(&c) => c,
            None if self.pend.is_cleared(key.0, key.1) => Cond::False,
            None => Cond::Node(self.push_node(Node::Pend(key))),
        }
    }

    /// OR-marks the top frame of `tid` (sequential: `frame.any_slice = true`).
    fn mark_top(&mut self, tid: ThreadId, c: Cond) {
        let ti = tid.index();
        if let Some(i) = self.frames[ti].local.len().checked_sub(1) {
            let old = self.frames[ti].local[i].1;
            let merged = self.or_cond(old, c);
            self.frames[ti].local[i].1 = merged;
        } else {
            let fr = &self.frames[ti];
            if fr.bnd_popped < fr.bnd_funcs.len() {
                let slot = fr.bnd_funcs.len() - 1 - fr.bnd_popped;
                let old = self.frames[ti].bnd_marks[slot];
                let merged = self.or_cond(old, c);
                self.frames[ti].bnd_marks[slot] = merged;
            }
        }
    }

    /// The symbolic `join_slice(idx)`: records membership under `c`, arms
    /// the instruction's controlling branches, and marks the enclosing
    /// frame. `jc` accumulates the instruction's total join condition.
    #[allow(clippy::too_many_arguments)]
    fn contribute(
        &mut self,
        idx: usize,
        c: Cond,
        jc: &mut Cond,
        tid: ThreadId,
        func: FuncId,
        pc: Pc,
    ) {
        if c == Cond::False {
            return;
        }
        if c == Cond::True {
            let l = idx - self.lo;
            self.bitmap[l / 64] |= 1u64 << (l % 64);
        }
        for i in 0..self.deps.controllers(func, pc).len() {
            let bpc = self.deps.controllers(func, pc)[i];
            let key = (tid, func, bpc);
            let existing = self.pend_cond(key);
            let merged = self.or_cond(existing, c);
            self.pend.set(key, merged);
        }
        self.mark_top(tid, c);
        *jc = self.or_cond(*jc, c);
    }

    /// Makes `range` concretely live (criterion seed or concrete gen).
    fn insert_conc_mem(&mut self, range: AddrRange) {
        self.conc_mem.insert(range);
        self.cond_take(range, false);
        self.touched.insert(range);
    }

    /// Kills `range` (concrete join path): dead below the writer.
    fn kill_mem(&mut self, range: AddrRange) {
        self.conc_mem.remove(range);
        self.cond_take(range, false);
        self.touched.insert(range);
    }

    /// Removes the cond-span coverage of `range`; when `collect` is set
    /// the removed pieces (clipped to `range`) land in `self.spans_out`.
    fn cond_take(&mut self, range: AddrRange, collect: bool) {
        let start = range.start().raw();
        let end = range.end().raw();
        let mut stash = std::mem::take(&mut self.span_scratch);
        stash.clear();
        for (&s, &v) in self.cond_mem.range(..end).rev() {
            if v.0 <= start {
                break;
            }
            stash.push((s, v));
        }
        for &(s, (e, atom, node)) in &stash {
            self.cond_mem.remove(&s);
            if s < start {
                self.cond_mem.insert(s, (start, atom, node));
            }
            if e > end {
                self.cond_mem.insert(end, (e, atom, node));
            }
            if collect {
                self.spans_out.push((s.max(start), e.min(end), atom, node));
            }
        }
        self.span_scratch = stash;
    }

    /// Appends the sub-ranges of `range` with no cond-span coverage to
    /// `out` (mirrors [`AddrSet::gaps_within`] over the span map).
    fn cond_gaps_within(&self, range: AddrRange, out: &mut Vec<AddrRange>) {
        let start = range.start().raw();
        let end = range.end().raw();
        let mut cur = start;
        if let Some((_, &(e, _, _))) = self.cond_mem.range(..=start).next_back() {
            if e > cur {
                cur = e.min(end);
            }
        }
        for (&s, &(e, _, _)) in self.cond_mem.range(start + 1..end) {
            if cur >= end {
                break;
            }
            if s > cur {
                for_run_chunks(cur, s, |r| out.push(r));
            }
            cur = e.min(end).max(cur);
        }
        if cur < end {
            for_run_chunks(cur, end, |r| out.push(r));
        }
    }

    /// Conditional mem gen: `range` becomes live if `j` activates,
    /// layered over its current status (concrete wins; cond spans merge;
    /// dead bytes gain a plain span; untouched bytes gain a boundary-atom
    /// span).
    fn gen_mem_cond(&mut self, range: AddrRange, j: NodeId) {
        self.spans_out.clear();
        self.cond_take(range, true);
        let mut spans = std::mem::take(&mut self.spans_out);
        for &(s, e, atom, node) in &spans {
            let merged = self.or2(node, j);
            self.cond_mem.insert(s, (e, atom, merged));
        }
        spans.clear();
        self.spans_out = spans;

        // Pieces with no prior conditional status.
        let mut not_conc = std::mem::take(&mut self.ranges_a);
        not_conc.clear();
        self.conc_mem.gaps_within(range, &mut not_conc);
        let mut sub = std::mem::take(&mut self.ranges_b);
        let mut parts = std::mem::take(&mut self.ranges_c);
        for &piece in &not_conc {
            sub.clear();
            self.cond_gaps_within(piece, &mut sub);
            for &p in &sub {
                // Previously-killed bytes: plain conditional span.
                parts.clear();
                self.touched.overlaps_within(p, &mut parts);
                for &d in &parts {
                    self.cond_mem
                        .insert(d.start().raw(), (d.end().raw(), false, j));
                }
                // Untouched bytes: boundary liveness also passes through.
                parts.clear();
                self.touched.gaps_within(p, &mut parts);
                for &u in &parts {
                    self.cond_mem
                        .insert(u.start().raw(), (u.end().raw(), true, j));
                    self.touched.insert(u);
                }
            }
        }
        self.ranges_a = not_conc;
        self.ranges_b = sub;
        self.ranges_c = parts;
    }

    fn cell(&self, tid: ThreadId, bit: usize) -> RegCell {
        self.reg_cells[tid.index() * NREGS + bit]
    }

    fn set_cell(&mut self, tid: ThreadId, bit: usize, c: RegCell) {
        self.reg_cells[tid.index() * NREGS + bit] = c;
    }

    /// Concrete reg gen (criterion seed or concrete join).
    fn gen_regs_conc(&mut self, tid: ThreadId, regs: RegSet) {
        let ti = tid.index();
        self.conc_regs[ti] = self.conc_regs[ti].union(regs);
        let mut bits = regs.bits();
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.set_cell(tid, b, RegCell::Live);
        }
    }

    /// Conditional reg gen under `j`.
    fn gen_regs_cond(&mut self, tid: ThreadId, regs: RegSet, j: NodeId) {
        let mut bits = regs.bits();
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let next = match self.cell(tid, b) {
                RegCell::Live => RegCell::Live,
                RegCell::Cond { atom, node } => RegCell::Cond {
                    atom,
                    node: self.or2(node, j),
                },
                RegCell::Dead => RegCell::Cond {
                    atom: false,
                    node: j,
                },
                RegCell::Untouched => RegCell::Cond {
                    atom: true,
                    node: j,
                },
            };
            self.set_cell(tid, b, next);
        }
    }

    /// Reg kill: dead below the writer regardless of join outcome.
    fn kill_regs(&mut self, tid: ThreadId, regs: RegSet) {
        self.conc_regs[tid.index()].subtract(regs);
        let mut bits = regs.bits();
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.set_cell(tid, b, RegCell::Dead);
        }
    }

    /// The symbolic "does this write hit live state" test for an
    /// instruction with no *concrete* hit. Applies the kills (sound
    /// either way: runtime-live pieces force the join which kills them;
    /// runtime-dead pieces make the kill a no-op) and returns the join
    /// condition, `Cond::False` when no boundary could make it join.
    fn symbolic_join(
        &mut self,
        cur: &ColumnCursor<'_>,
        tid: ThreadId,
        reg_writes: RegSet,
        idx: usize,
    ) -> Cond {
        let mut acc = Cond::False;
        let mut bits = reg_writes.bits();
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            match self.cell(tid, b) {
                RegCell::Untouched => {
                    let nd = self.push_node(Node::Reg(tid, RegSet::from_bits(1 << b)));
                    acc = self.or_cond(acc, Cond::Node(nd));
                }
                RegCell::Dead => {}
                RegCell::Live => debug_assert!(false, "concrete hit handled by caller"),
                RegCell::Cond { atom, node } => {
                    acc = self.or_cond(acc, Cond::Node(node));
                    if atom {
                        let nd = self.push_node(Node::Reg(tid, RegSet::from_bits(1 << b)));
                        acc = self.or_cond(acc, Cond::Node(nd));
                    }
                }
            }
            self.set_cell(tid, b, RegCell::Dead);
        }
        for wi in 0..cur.mem_writes(idx).len() {
            let w = cur.mem_writes(idx)[wi];
            self.spans_out.clear();
            self.cond_take(w, true);
            let mut spans = std::mem::take(&mut self.spans_out);
            for &(s, e, atom, node) in &spans {
                acc = self.or_cond(acc, Cond::Node(node));
                if atom {
                    let mut a = acc;
                    for_run_chunks(s, e, |r| {
                        let nd = self.push_node(Node::Mem(r));
                        a = self.or_cond(a, Cond::Node(nd));
                    });
                    acc = a;
                }
            }
            spans.clear();
            self.spans_out = spans;
            let mut gaps = std::mem::take(&mut self.ranges_a);
            gaps.clear();
            self.touched.gaps_within(w, &mut gaps);
            for &g in &gaps {
                let nd = self.push_node(Node::Mem(g));
                acc = self.or_cond(acc, Cond::Node(nd));
            }
            self.ranges_a = gaps;
            self.touched.insert(w);
        }
        acc
    }
}

impl RangeJob for Summarizer<'_> {
    /// `None` when the segment outgrew its node budget.
    type Output = Option<SegSummary>;

    /// Feeds one backward window of the segment. Windows must arrive in
    /// descending index order, together covering exactly
    /// `[self.lo, self.hi)`.
    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        for idx in cur.rev_indices() {
            if self.overflow {
                return;
            }
            let tid = cur.tid(idx);
            let func = cur.func(idx);
            let kind = cur.kind(idx);
            let pc = cur.pc(idx);
            let mut jc = Cond::False;

            if matches!(kind, InstrKind::Ret) {
                self.frames[tid.index()].local.push((func, Cond::False));
            }

            while self.crit_idx > 0 && self.criteria[self.crit_idx - 1].pos.index() == idx {
                self.crit_idx -= 1;
                let ci = self.crit_idx;
                for i in 0..self.criteria[ci].mem.len() {
                    let range = self.criteria[ci].mem[i];
                    self.insert_conc_mem(range);
                }
                let regs = self.criteria[ci].regs;
                self.gen_regs_conc(tid, regs);
                if self.criteria[ci].include_instr {
                    self.contribute(idx, Cond::True, &mut jc, tid, func, pc);
                }
            }

            let mut concrete_branch = false;
            if kind.is_branch() {
                let key = (tid, func, pc);
                let pcond = self.pend_cond(key);
                if pcond != Cond::False {
                    // The probe consumes the entry whenever it fires; the
                    // stored value is the condition under which it fired
                    // at all ("not pending below" otherwise).
                    self.pend.set(key, Cond::False);
                    match pcond {
                        Cond::True => {
                            concrete_branch = true;
                            for i in 0..cur.mem_reads(idx).len() {
                                let r = cur.mem_reads(idx)[i];
                                self.insert_conc_mem(r);
                            }
                            self.gen_regs_conc(tid, cur.reg_reads(idx));
                            self.contribute(idx, Cond::True, &mut jc, tid, func, pc);
                        }
                        Cond::Node(j) => {
                            for i in 0..cur.mem_reads(idx).len() {
                                let r = cur.mem_reads(idx)[i];
                                self.gen_mem_cond(r, j);
                            }
                            self.gen_regs_cond(tid, cur.reg_reads(idx), j);
                            self.contribute(idx, Cond::Node(j), &mut jc, tid, func, pc);
                        }
                        Cond::False => unreachable!(),
                    }
                } else {
                    self.pend.set(key, Cond::False);
                }
            }
            if !concrete_branch {
                let reg_writes = cur.reg_writes(idx);
                let conc_hit = reg_writes.intersects(self.conc_regs[tid.index()])
                    || cur
                        .mem_writes(idx)
                        .iter()
                        .any(|w| self.conc_mem.intersects(*w));
                if conc_hit {
                    self.kill_regs(tid, reg_writes);
                    for i in 0..cur.mem_writes(idx).len() {
                        let w = cur.mem_writes(idx)[i];
                        self.kill_mem(w);
                    }
                    for i in 0..cur.mem_reads(idx).len() {
                        let r = cur.mem_reads(idx)[i];
                        self.insert_conc_mem(r);
                    }
                    self.gen_regs_conc(tid, cur.reg_reads(idx));
                    self.contribute(idx, Cond::True, &mut jc, tid, func, pc);
                } else {
                    match self.symbolic_join(cur, tid, reg_writes, idx) {
                        Cond::False => {}
                        Cond::True => unreachable!("symbolic join is built from atoms"),
                        Cond::Node(j) => {
                            for i in 0..cur.mem_reads(idx).len() {
                                let r = cur.mem_reads(idx)[i];
                                self.gen_mem_cond(r, j);
                            }
                            self.gen_regs_cond(tid, cur.reg_reads(idx), j);
                            self.contribute(idx, Cond::Node(j), &mut jc, tid, func, pc);
                        }
                    }
                }
            }

            if let InstrKind::Call { callee } = kind {
                let ti = tid.index();
                let anyc = if let Some((_, c)) = self.frames[ti].local.pop() {
                    c
                } else if self.frames[ti].bnd_popped < self.frames[ti].bnd_funcs.len() {
                    let slot = self.frames[ti].bnd_funcs.len() - 1 - self.frames[ti].bnd_popped;
                    self.frames[ti].bnd_popped += 1;
                    let mark = self.frames[ti].bnd_marks[slot];
                    let atom = Cond::Node(self.push_node(Node::Frame(tid, slot as u32)));
                    self.or_cond(mark, atom)
                } else {
                    Cond::False
                };
                self.contribute(idx, anyc, &mut jc, tid, func, pc);
                // Sequential re-marks the *caller* frame when the call is
                // in the slice; `jc` is the exact membership condition.
                if jc != Cond::False {
                    self.mark_top(tid, jc);
                }
                // Structural pending clear: only when no remaining frame
                // (local or boundary) still runs the callee.
                let fr = &self.frames[ti];
                let open = fr.local.iter().any(|&(f, _)| f == callee)
                    || fr.bnd_funcs[..fr.bnd_funcs.len() - fr.bnd_popped].contains(&callee);
                if !open {
                    self.pend.clear_func(tid, callee, Cond::False);
                }
            }

            if let Cond::Node(j) = jc {
                self.members.push(((idx - self.lo) as u32, j));
            }
        }
    }

    fn finish(self) -> Option<SegSummary> {
        if self.overflow {
            return None;
        }
        Some(SegSummary {
            lo: self.lo,
            hi: self.hi,
            nodes: self.nodes,
            bitmap: self.bitmap,
            members: self.members,
            conc_mem: self.conc_mem,
            touched: self.touched,
            cond_mem: self
                .cond_mem
                .into_iter()
                .map(|(s, (e, atom, node))| (s, e, atom, node))
                .collect(),
            conc_regs: self.conc_regs,
            reg_cells: self.reg_cells,
            pend: self.pend,
            frames: self.frames,
        })
    }
}

fn cond_active(c: Cond, active: &[bool]) -> bool {
    match c {
        Cond::False => false,
        Cond::True => true,
        Cond::Node(id) => active[id as usize],
    }
}

/// Phase 2 step: evaluates one summary against the exact state at its
/// upper boundary and produces the exact state at its lower boundary plus
/// the replay inputs.
fn stitch(sum: SegSummary, st: &BoundaryState) -> (BoundaryState, Replay) {
    // Nodes are in dependency order: one forward pass settles them all.
    let mut active = vec![false; sum.nodes.len()];
    for i in 0..sum.nodes.len() {
        active[i] = match sum.nodes[i] {
            Node::Mem(r) => st.mem.intersects(r),
            Node::Reg(t, s) => st.regs[t.index()].intersects(s),
            Node::Pend(k) => st.pend.contains(&k),
            Node::Frame(t, slot) => st.frames[t.index()][slot as usize].1,
            Node::Or(a, b) => active[a as usize] || active[b as usize],
        };
    }

    // Live memory out = concrete ∪ activated spans ∪ (boundary ∩ atom
    // spans) ∪ (boundary ∖ touched).
    let mut mem = sum.conc_mem;
    let mut scratch: Vec<AddrRange> = Vec::new();
    for &(s, e, atom, node) in &sum.cond_mem {
        if active[node as usize] {
            for_run_chunks(s, e, |r| mem.insert(r));
        } else if atom {
            for_run_chunks(s, e, |r| {
                scratch.clear();
                st.mem.overlaps_within(r, &mut scratch);
                for &p in &scratch {
                    mem.insert(p);
                }
            });
        }
    }
    let mut pass = st.mem.clone();
    pass.subtract_set(&sum.touched);
    mem.union_with(&pass);

    // Registers.
    let mut regs = vec![RegSet::EMPTY; NTHREADS];
    for (t, slot) in regs.iter_mut().enumerate() {
        let mut out = sum.conc_regs[t];
        let bnd = st.regs[t];
        for b in 0..NREGS {
            let mask = RegSet::from_bits(1 << b);
            let live = match sum.reg_cells[t * NREGS + b] {
                RegCell::Untouched => bnd.intersects(mask),
                RegCell::Dead | RegCell::Live => false,
                RegCell::Cond { atom, node } => {
                    active[node as usize] || (atom && bnd.intersects(mask))
                }
            };
            if live {
                out = out.union(mask);
            }
        }
        *slot = out;
    }

    // Pending set: tracked entries resolve by their condition; untouched
    // keys pass through unless their function was structurally cleared.
    let mut pend: HashSet<PendKey, FibBuild> = HashSet::default();
    for (&k, &c) in sum.pend.entries() {
        if cond_active(c, &active) {
            pend.insert(k);
        }
    }
    for &k in &st.pend {
        if sum.pend.get(&k).is_none() && !sum.pend.is_cleared(k.0, k.1) {
            pend.insert(k);
        }
    }

    // Frames: surviving boundary frames keep their funcs, with flags
    // OR-ed with in-segment marks; local frames stack on top.
    let mut frames = Vec::with_capacity(NTHREADS);
    for (t, fr) in sum.frames.iter().enumerate() {
        let keep = fr.bnd_funcs.len() - fr.bnd_popped;
        debug_assert_eq!(st.frames[t].len(), fr.bnd_funcs.len());
        let mut stack: Vec<(FuncId, bool)> = Vec::with_capacity(keep + fr.local.len());
        for i in 0..keep {
            let any = st.frames[t][i].1 || cond_active(fr.bnd_marks[i], &active);
            stack.push((fr.bnd_funcs[i], any));
        }
        for &(f, c) in &fr.local {
            stack.push((f, cond_active(c, &active)));
        }
        frames.push(stack);
    }

    (
        BoundaryState {
            mem,
            regs,
            pend,
            frames,
        },
        Replay {
            lo: sum.lo,
            hi: sum.hi,
            bitmap: sum.bitmap,
            members: sum.members,
            active,
        },
    )
}

/// Phase 3: resolves one segment's membership bitmap and recomputes its
/// stats and timeline checkpoints. Checkpoints land where the sequential
/// countdown would put them: global positions with
/// `(n - idx) % interval == 0`, plus `idx == 0`. Fed descending windows,
/// like [`Summarizer`].
struct Finalizer {
    lo: usize,
    bitmap: Vec<u64>,
    per_thread: Vec<(u64, u64)>,
    per_func: Vec<(u64, u64)>,
    slice_count: u64,
    tracked_total: u64,
    tracked_slice: u64,
    timeline: Vec<(usize, TimelinePoint)>,
    until: u64,
    interval: u64,
    tracked: ThreadId,
}

impl Finalizer {
    fn new(r: &Replay, n: usize, nfuncs: usize, interval: u64, tracked: ThreadId) -> Self {
        let mut bitmap = r.bitmap.clone();
        for &(l, node) in &r.members {
            if r.active[node as usize] {
                bitmap[(l / 64) as usize] |= 1u64 << (l % 64);
            }
        }
        Finalizer {
            lo: r.lo,
            bitmap,
            per_thread: vec![(0u64, 0u64); NTHREADS],
            per_func: vec![(0u64, 0u64); nfuncs],
            slice_count: 0,
            tracked_total: 0,
            tracked_slice: 0,
            timeline: Vec::new(),
            // First checkpoint below `hi`: `(n - hi)` instructions are
            // already processed when this segment starts, so the countdown
            // resumes from the interval's remainder.
            until: interval - (n - r.hi) as u64 % interval,
            interval,
            tracked,
        }
    }
}

impl RangeJob for Finalizer {
    type Output = SegFinal;

    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        for idx in cur.rev_indices() {
            let tid = cur.tid(idx);
            let func = cur.func(idx);
            self.per_thread[tid.index()].1 += 1;
            self.per_func[func.index()].1 += 1;
            if tid == self.tracked {
                self.tracked_total += 1;
            }
            let l = idx - self.lo;
            if self.bitmap[l / 64] & (1u64 << (l % 64)) != 0 {
                self.slice_count += 1;
                self.per_thread[tid.index()].0 += 1;
                self.per_func[func.index()].0 += 1;
                if tid == self.tracked {
                    self.tracked_slice += 1;
                }
            }
            self.until -= 1;
            if self.until == 0 || idx == 0 {
                self.timeline.push((
                    idx,
                    TimelinePoint {
                        processed: 0, // filled by the merge
                        in_slice: self.slice_count,
                        tracked_processed: self.tracked_total,
                        tracked_in_slice: self.tracked_slice,
                    },
                ));
                self.until = self.interval;
            }
        }
    }

    fn finish(self) -> SegFinal {
        SegFinal {
            bitmap: self.bitmap,
            slice_count: self.slice_count,
            per_thread: self.per_thread,
            per_func: self.per_func,
            tracked_total: self.tracked_total,
            tracked_slice: self.tracked_slice,
            timeline: self.timeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{pixel_criteria, SlicingCriterion};
    use crate::slice::slice;
    use wasteprof_trace::{site, Recorder, Reg, Region, ThreadKind, Trace, TracePos};

    /// Asserts that the segment-parallel pass produces a byte-identical
    /// [`SliceResult`] for several segment counts, calling `run` directly
    /// so a silent fallback can't mask a divergence.
    fn check(trace: &Trace, criteria: &Criteria, opts: &SliceOptions) {
        let fwd = ForwardPass::build(trace);
        let seq_opts = SliceOptions {
            segments: 1,
            ..opts.clone()
        };
        let seq = slice(trace, &fwd, criteria, &seq_opts);
        for k in [2, 3, 8] {
            let Ok(par) = run(&mut { trace }, &fwd, criteria, opts, k);
            let par = par.expect("parallel pass declined on an eligible trace");
            assert_eq!(par, seq, "segment count {k} diverged from sequential");
        }
    }

    fn default_opts() -> SliceOptions {
        SliceOptions::default()
    }

    #[test]
    fn long_dataflow_chain_with_dead_stores_matches_sequential() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let mut prev = rec.alloc_cell(Region::Heap);
        let dead = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 64);
        rec.compute(site!(), &[], &[prev.into()]);
        for _ in 0..120 {
            let next = rec.alloc_cell(Region::Heap);
            rec.compute(site!(), &[prev.into()], &[next.into()]);
            rec.compute(site!(), &[], &[dead.into()]); // waste, overwritten
            prev = next;
        }
        rec.compute(site!(), &[prev.into()], &[tile]);
        rec.marker(site!(), tile);
        let trace = rec.finish();
        check(&trace, &pixel_criteria(&trace), &default_opts());
    }

    #[test]
    fn loop_branches_crossing_boundaries_match_sequential() {
        // Loop heads re-arm their own pending entry on every iteration;
        // with hundreds of iterations the arm/consume chain crosses every
        // segment boundary.
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let f = rec.intern_func("looper");
        let cond = rec.alloc_cell(Region::Heap);
        let acc = rec.alloc_cell(Region::Heap);
        let junk = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 64);
        let head = site!();
        let body = site!();
        rec.compute(site!(), &[], &[cond.into()]);
        rec.compute(site!(), &[], &[acc.into()]);
        rec.in_func(site!(), f, |rec| {
            for _ in 0..90 {
                rec.branch_mem(head, cond, true);
                rec.compute(body, &[acc.into()], &[acc.into()]);
                rec.compute(site!(), &[], &[junk.into()]);
            }
            rec.branch_mem(head, cond, false);
        });
        rec.compute(site!(), &[acc.into()], &[tile]);
        rec.marker(site!(), tile);
        let trace = rec.finish();
        check(&trace, &pixel_criteria(&trace), &default_opts());
    }

    #[test]
    fn multi_thread_register_liveness_matches_sequential() {
        // Both threads use the same architectural registers; liveness must
        // stay per-thread across segment boundaries.
        let mut rec = Recorder::new();
        let t0 = rec.spawn_thread(ThreadKind::Main, "root");
        let t1 = rec.spawn_thread(ThreadKind::Compositor, "root");
        let shared = rec.alloc_cell(Region::Heap);
        let out = rec.alloc_cell(Region::Heap);
        let junk = rec.alloc_cell(Region::Heap);
        rec.switch_to(t0);
        rec.compute(site!(), &[], &[shared.into()]);
        for _ in 0..70 {
            rec.switch_to(t1);
            rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
            rec.store(site!(), junk, Reg::Rax);
            rec.switch_to(t0);
            rec.load(site!(), Reg::Rax, shared);
            rec.alu(site!(), Reg::Rcx, RegSet::of(&[Reg::Rax]));
            rec.store(site!(), out, Reg::Rcx);
            rec.compute(site!(), &[out.into()], &[shared.into()]);
        }
        let crit = Criteria::new(vec![SlicingCriterion::mem_at(
            TracePos(rec.pos().0 - 1),
            vec![out.into()],
        )]);
        let trace = rec.finish();
        check(&trace, &crit, &default_opts());
    }

    #[test]
    fn call_frames_spanning_boundaries_match_sequential() {
        // Deeply nested invocations stay open across several segment
        // boundaries, so frame pops hit the boundary stack and `Frame`
        // atoms resolve against the stitched `any_slice` flags.
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let useful = rec.intern_func("useful");
        let wrapper = rec.intern_func("wrapper");
        let x = rec.alloc_cell(Region::Heap);
        let junk = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 64);
        rec.enter(site!(), wrapper);
        rec.enter(site!(), useful);
        for _ in 0..100 {
            rec.compute(site!(), &[x.into()], &[x.into()]);
            rec.compute(site!(), &[], &[junk.into()]);
        }
        rec.leave(site!());
        rec.leave(site!());
        rec.compute(site!(), &[x.into()], &[tile]);
        rec.marker(site!(), tile);
        let trace = rec.finish();
        check(&trace, &pixel_criteria(&trace), &default_opts());
    }

    #[test]
    fn bounded_prefix_and_timeline_interval_match_sequential() {
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
        let opts = SliceOptions {
            end: Some(TracePos(cut.0 - 1)),
            timeline_interval: 7,
            ..Default::default()
        };
        check(&trace, &pixel_criteria(&trace), &opts);
    }

    #[test]
    fn tiny_trace_declines_segmentation() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let a = rec.alloc_cell(Region::Heap);
        rec.compute(site!(), &[], &[a.into()]);
        let trace = rec.finish();
        let fwd = ForwardPass::build(&trace);
        let Ok(par) = run(
            &mut &trace,
            &fwd,
            &Criteria::default(),
            &SliceOptions::default(),
            8,
        );
        assert!(
            par.is_none(),
            "sub-segment traces must fall back to the sequential walk"
        );
    }
}
