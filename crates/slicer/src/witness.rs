//! Dependence-witness emission: *why* each slice member joined.
//!
//! A slice alone is unauditable — the only way to re-check it is to run
//! the slicer again. A *witness* makes it checkable by an independent
//! pass: for every member the slicer records the one dependence edge that
//! pulled it in — the live fact (byte range or register) it defined and
//! the downstream member or criterion that consumed that fact, the CDG
//! edge for control-dependence members, or the contained member for
//! dynamic calls. The checker crate replays these edges in a single
//! *forward* sweep (`wasteprof-checker`'s `certify`), which shares no
//! code with the backward walk that produced them.
//!
//! Emission re-runs the backward walk's member mutations over the slice
//! bitmap. It leans on a structural invariant of the sequential walk: the
//! live sets are mutated only by criteria applications, pending-branch
//! probes, and members' kill/gen — a non-member never changes them (if
//! its writes hit live state it would have joined). The emitter therefore
//! re-runs only the member mutations, in the exact event order of the
//! sequential walk, and reads off the consumer of each killed fact. The
//! sequential walk drives it in lockstep, window by window; bitmaps built
//! elsewhere get a backward replay. Because the table is a pure function
//! of `(trace, criteria, bitmap)`, it is byte-identical at any segment
//! count K — the segment-parallel and sequential paths produce the same
//! bitmap, hence the same witnesses.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

use wasteprof_trace::{ColumnCursor, ColumnSource, FuncId, InstrKind, Pc, ThreadId, TracePos};

use crate::cdg::ControlDeps;
use crate::criteria::{Criteria, SlicingCriterion};
use crate::slice::{prescan_open_calls, FibBuild, SliceResult};

/// The kind of dependence edge that pulled a member into the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WitnessKind {
    /// The member wrote live bytes `[fact_lo, fact_hi)`; the consumer read
    /// them (its last write to those bytes before the consumer).
    Mem,
    /// The member wrote live register `fact_lo` (register index) in the
    /// consumer's thread context.
    Reg,
    /// The member is a branch the consumer is control-dependent on
    /// (`fact_lo` carries the branch PC for display; the edge itself is
    /// checked against the recovered CDG).
    Control,
    /// The member is a `Call` whose dynamic callee frame contains the
    /// consumer.
    Call,
    /// The member is the anchor of an `include_instr` criterion; the
    /// consumer is the member itself.
    Criterion,
}

impl WitnessKind {
    /// Short name used in rendered diagnostics and reports.
    pub const fn name(self) -> &'static str {
        match self {
            WitnessKind::Mem => "mem",
            WitnessKind::Reg => "reg",
            WitnessKind::Control => "control",
            WitnessKind::Call => "call",
            WitnessKind::Criterion => "criterion",
        }
    }
}

/// One decoded witness row: why `member` is in the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessRow {
    /// The slice member this row justifies.
    pub member: TracePos,
    /// The kind of dependence edge.
    pub kind: WitnessKind,
    /// First byte of the defined range ([`WitnessKind::Mem`]), register
    /// index ([`WitnessKind::Reg`]), or branch PC ([`WitnessKind::Control`],
    /// informational); `0` otherwise.
    pub fact_lo: u64,
    /// One past the last byte of the defined range ([`WitnessKind::Mem`]);
    /// `0` otherwise.
    pub fact_hi: u64,
    /// The position that consumed the fact: a downstream member, the
    /// anchor of a criterion, or (for [`WitnessKind::Control`]) the
    /// control-dependent member that armed the branch.
    pub consumer: TracePos,
    /// True when the fact was consumed by a *criterion* at `consumer`
    /// rather than by a member's reads.
    pub consumer_is_criterion: bool,
    /// True when this member's own reads entered the live sets (kill/gen
    /// and pending-branch members): the certifier must check those reads
    /// against the slice complement.
    pub genned_reads: bool,
}

const FLAG_CRIT_CONSUMER: u8 = 1;
const FLAG_GENNED_READS: u8 = 2;

/// Columnar witness side-table: one row per slice member, sorted by
/// member position. Stored struct-of-arrays next to [`SliceResult`] so
/// multi-million-member tables stay compact and comparisons are cheap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Witnesses {
    members: Vec<u32>,
    kinds: Vec<WitnessKind>,
    fact_lo: Vec<u64>,
    fact_hi: Vec<u64>,
    consumers: Vec<u32>,
    flags: Vec<u8>,
}

impl Witnesses {
    /// Number of rows (equals the slice count for an honest witness).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Decodes row `i`.
    pub fn row(&self, i: usize) -> WitnessRow {
        WitnessRow {
            member: TracePos(self.members[i] as u64),
            kind: self.kinds[i],
            fact_lo: self.fact_lo[i],
            fact_hi: self.fact_hi[i],
            consumer: TracePos(self.consumers[i] as u64),
            consumer_is_criterion: self.flags[i] & FLAG_CRIT_CONSUMER != 0,
            genned_reads: self.flags[i] & FLAG_GENNED_READS != 0,
        }
    }

    /// Iterates over all rows in member order.
    pub fn rows(&self) -> impl Iterator<Item = WitnessRow> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Rebuilds a table from decoded rows (fault-injection support: the
    /// checker's differential tests corrupt one row and re-encode).
    pub fn from_rows(rows: impl IntoIterator<Item = WitnessRow>) -> Witnesses {
        let mut w = Witnesses::default();
        for r in rows {
            w.push(r);
        }
        w
    }

    fn with_capacity(rows: usize) -> Witnesses {
        Witnesses {
            members: Vec::with_capacity(rows),
            kinds: Vec::with_capacity(rows),
            fact_lo: Vec::with_capacity(rows),
            fact_hi: Vec::with_capacity(rows),
            consumers: Vec::with_capacity(rows),
            flags: Vec::with_capacity(rows),
        }
    }

    /// Reverses the row order in place.
    fn reverse(&mut self) {
        self.members.reverse();
        self.kinds.reverse();
        self.fact_lo.reverse();
        self.fact_hi.reverse();
        self.consumers.reverse();
        self.flags.reverse();
    }

    fn push(&mut self, r: WitnessRow) {
        self.members.push(r.member.0 as u32);
        self.kinds.push(r.kind);
        self.fact_lo.push(r.fact_lo);
        self.fact_hi.push(r.fact_hi);
        self.consumers.push(r.consumer.0 as u32);
        let mut flags = 0u8;
        if r.consumer_is_criterion {
            flags |= FLAG_CRIT_CONSUMER;
        }
        if r.genned_reads {
            flags |= FLAG_GENNED_READS;
        }
        self.flags.push(flags);
    }
}

/// A live fact's consumer: the position that declared the bytes/register
/// live, and whether that position is a criterion anchor or a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fact {
    pos: u32,
    crit: bool,
}

/// Interval map of live bytes → consumer, keyed by interval start.
/// Same shape as the checker's shadow map: disjoint `[start, end)`
/// entries, split on demand and never merged. Witness `fact_lo/fact_hi`
/// are read off entry boundaries, so the entry structure is observable:
/// every fast path below must leave exactly the entries the plain
/// split-and-remove would.
#[derive(Default)]
struct FactMap {
    map: BTreeMap<u64, (u64, Fact)>,
}

impl FactMap {
    /// Drops every byte of `[lo, hi)`, truncating the entries straddling
    /// either edge: what splitting at `lo` and `hi` and removing everything
    /// in between leaves, without allocating.
    fn clear(&mut self, lo: u64, hi: u64) {
        if let Some((_, entry)) = self.map.range_mut(..lo).next_back() {
            let (end, fact) = *entry;
            if end > lo {
                entry.0 = lo;
                if end > hi {
                    self.map.insert(hi, (end, fact));
                    return;
                }
            }
        }
        while let Some((&s, &(end, fact))) = self.map.range(lo..hi).next() {
            self.map.remove(&s);
            if end > hi {
                self.map.insert(hi, (end, fact));
                break;
            }
        }
    }

    /// Marks `[lo, hi)` live with `fact`, overwriting any previous
    /// consumer of those bytes (last insertion in replay order wins —
    /// deterministic, and still a valid def→use edge for the certifier).
    fn insert(&mut self, lo: u64, hi: u64, fact: Fact) {
        if lo >= hi {
            return;
        }
        // Fast path: operands are cell-granular and heavily reused, so the
        // range is usually exactly one entry already — overwrite in place.
        if let Some(entry) = self.map.get_mut(&lo) {
            if entry.0 == hi {
                entry.1 = fact;
                return;
            }
        }
        self.clear(lo, hi);
        self.map.insert(lo, (hi, fact));
    }

    /// Kills `[lo, hi)` (the bytes are no longer live).
    fn remove(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        if let Entry::Occupied(e) = self.map.entry(lo) {
            if e.get().0 == hi {
                e.remove();
                return;
            }
        }
        self.clear(lo, hi);
    }

    /// The lowest-address live sub-interval of `[lo, hi)`, clipped to the
    /// query, with its consumer.
    fn first_overlap(&self, lo: u64, hi: u64) -> Option<(u64, u64, Fact)> {
        if let Some((_, &(end, fact))) = self.map.range(..=lo).next_back() {
            if end > lo {
                return Some((lo, end.min(hi), fact));
            }
        }
        self.map
            .range(lo..hi)
            .next()
            .map(|(&s, &(end, fact))| (s, end.min(hi), fact))
    }
}

/// One dynamic frame of the replay: the running function and the first
/// (in replay order) member found inside it, if any.
struct WFrame {
    func: FuncId,
    any_slice: Option<u32>,
}

/// Witness emission, restructured around [`Emitter::feed`] so the
/// per-instruction step runs over the windows of any source. Protocol
/// mirrors the backward walk's:
/// [`prescan_open_calls`] forward, `seal_frames`, `feed` backward (last
/// window first), `finish`.
///
/// `feed` reads only the bitmap bits of the window it is given, and the
/// backward walk joins position `idx` only while it visits `idx`: once
/// the walk has fed a window, that window's bits are final. So the
/// sequential walk drives an emitter in lockstep, over each window right
/// after its own step (`slice::Backward`); only paths whose bitmap comes
/// from elsewhere — segment-parallel stitching, the summary cache —
/// replay over the finished bitmap ([`emit`]). Either
/// way the table is a pure function of `(trace, criteria, bitmap)`.
pub(crate) struct Emitter<'a> {
    deps: &'a ControlDeps,
    criteria: &'a [SlicingCriterion],
    crit_idx: usize,
    mem: FactMap,
    regs: Vec<[Option<Fact>; 16]>,
    pending: HashMap<(ThreadId, FuncId, Pc), u32, FibBuild>,
    frames: Vec<Vec<WFrame>>,
    /// Rows in *descending* member order (reversed by `finish`): each
    /// member joins exactly at its own index of the backward walk.
    rows: Witnesses,
    joined: Vec<u64>,
    current_row: Option<usize>,
}

impl<'a> Emitter<'a> {
    /// An emitter over the considered prefix `[0, n)`, with room for
    /// `rows` members.
    pub(crate) fn new(
        deps: &'a ControlDeps,
        criteria: &'a Criteria,
        n: usize,
        rows: usize,
    ) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "witness table uses 32-bit positions"
        );
        let criteria = criteria.items();
        Emitter {
            deps,
            criteria,
            // Criteria beyond the considered prefix never apply.
            crit_idx: criteria.partition_point(|c| c.pos.index() < n),
            mem: FactMap::default(),
            regs: vec![[None; 16]; 256],
            pending: HashMap::default(),
            frames: Vec::new(),
            rows: Witnesses::with_capacity(rows),
            joined: vec![0; n.div_ceil(64)],
            current_row: None,
        }
    }

    /// Converts the pre-scan's open-call stacks into live frames.
    pub(crate) fn seal_frames(&mut self, open: &[Vec<FuncId>]) {
        self.frames = open
            .iter()
            .map(|fs| {
                fs.iter()
                    .map(|&func| WFrame {
                        func,
                        any_slice: None,
                    })
                    .collect()
            })
            .collect();
    }

    /// Records the member's witness row on its first join, then arms its
    /// controllers and marks its enclosing frame — the same side effects
    /// as the sequential walk's `join_slice`, with consumers attached
    /// (keep-first, deterministic).
    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        idx: usize,
        tid: ThreadId,
        func: FuncId,
        pc: Pc,
        kind: WitnessKind,
        fact_lo: u64,
        fact_hi: u64,
        consumer: Fact,
    ) {
        let word = idx / 64;
        let bit = 1u64 << (idx % 64);
        if self.joined[word] & bit != 0 {
            return;
        }
        self.joined[word] |= bit;
        self.current_row = Some(self.rows.len());
        self.rows.push(WitnessRow {
            member: TracePos(idx as u64),
            kind,
            fact_lo,
            fact_hi,
            consumer: TracePos(consumer.pos as u64),
            consumer_is_criterion: consumer.crit,
            genned_reads: false,
        });
        for &bpc in self.deps.controllers(func, pc) {
            self.pending.entry((tid, func, bpc)).or_insert(idx as u32);
        }
        if let Some(frame) = self.frames[tid.index()].last_mut() {
            frame.any_slice.get_or_insert(idx as u32);
        }
    }

    /// Marks the current member's row as having genned its reads.
    fn mark_genned(&mut self) {
        if let Some(r) = self.current_row {
            self.rows.flags[r] |= FLAG_GENNED_READS;
        }
    }

    /// The backward step over one window, highest indices first, reading
    /// membership from `bitmap` (whose bits in the window must be final).
    /// Windows must arrive in reverse trace order and tile `[0, n)`.
    pub(crate) fn feed(&mut self, cur: &ColumnCursor<'_>, bitmap: &[u64]) {
        let in_slice = |idx: usize| bitmap[idx / 64] & (1u64 << (idx % 64)) != 0;
        for idx in cur.rev_indices() {
            self.current_row = None;
            let tid = cur.tid(idx);
            let ti = tid.index();
            let func = cur.func(idx);
            let pc = cur.pc(idx);
            let kind = cur.kind(idx);

            if matches!(kind, InstrKind::Ret) {
                self.frames[ti].push(WFrame {
                    func,
                    any_slice: None,
                });
            }

            while self.crit_idx > 0 && self.criteria[self.crit_idx - 1].pos.index() == idx {
                self.crit_idx -= 1;
                let c = &self.criteria[self.crit_idx];
                let fact = Fact {
                    pos: idx as u32,
                    crit: true,
                };
                for &range in &c.mem {
                    self.mem
                        .insert(range.start().raw(), range.end().raw(), fact);
                }
                for r in c.regs.iter() {
                    self.regs[ti][r.index()] = Some(fact);
                }
                if c.include_instr {
                    self.join(idx, tid, func, pc, WitnessKind::Criterion, 0, 0, fact);
                }
            }

            let pending_armer = if kind.is_branch() {
                self.pending.remove(&(tid, func, pc))
            } else {
                None
            };
            if let Some(armer) = pending_armer {
                self.join(
                    idx,
                    tid,
                    func,
                    pc,
                    WitnessKind::Control,
                    pc.0 as u64,
                    0,
                    Fact {
                        pos: armer,
                        crit: false,
                    },
                );
                let gen = Fact {
                    pos: idx as u32,
                    crit: false,
                };
                for &r in cur.mem_reads(idx) {
                    self.mem.insert(r.start().raw(), r.end().raw(), gen);
                }
                for r in cur.reg_reads(idx).iter() {
                    self.regs[ti][r.index()] = Some(gen);
                }
                self.mark_genned();
            } else if in_slice(idx) {
                // Kill/gen runs only for members: a non-member never writes
                // live state (it would have joined), so skipping it here
                // keeps the emitter proportional to the slice, not the
                // trace.
                let reg_writes = cur.reg_writes(idx);
                let mem_writes = cur.mem_writes(idx);
                let reg_fact = reg_writes
                    .iter()
                    .find_map(|r| self.regs[ti][r.index()].map(|f| (r, f)));
                let mem_fact = if reg_fact.is_none() {
                    mem_writes
                        .iter()
                        .find_map(|w| self.mem.first_overlap(w.start().raw(), w.end().raw()))
                } else {
                    None
                };
                if reg_fact.is_some() || mem_fact.is_some() {
                    if let Some((r, f)) = reg_fact {
                        self.join(idx, tid, func, pc, WitnessKind::Reg, r.index() as u64, 0, f);
                    } else if let Some((lo, hi, f)) = mem_fact {
                        self.join(idx, tid, func, pc, WitnessKind::Mem, lo, hi, f);
                    }
                    for r in reg_writes.iter() {
                        self.regs[ti][r.index()] = None;
                    }
                    for &w in mem_writes {
                        self.mem.remove(w.start().raw(), w.end().raw());
                    }
                    let gen = Fact {
                        pos: idx as u32,
                        crit: false,
                    };
                    for &r in cur.mem_reads(idx) {
                        self.mem.insert(r.start().raw(), r.end().raw(), gen);
                    }
                    for r in cur.reg_reads(idx).iter() {
                        self.regs[ti][r.index()] = Some(gen);
                    }
                    self.mark_genned();
                }
            }

            if let InstrKind::Call { callee } = kind {
                let closed = self.frames[ti].pop();
                if let Some(consumer) = closed.and_then(|f| f.any_slice) {
                    self.join(
                        idx,
                        tid,
                        func,
                        pc,
                        WitnessKind::Call,
                        0,
                        0,
                        Fact {
                            pos: consumer,
                            crit: false,
                        },
                    );
                }
                if in_slice(idx) {
                    if let Some(frame) = self.frames[ti].last_mut() {
                        frame.any_slice.get_or_insert(idx as u32);
                    }
                }
                if !self.frames[ti].iter().any(|f| f.func == callee) {
                    self.pending.retain(|&(t, f, _), _| t != tid || f != callee);
                }
            }
            debug_assert!(
                self.current_row.is_none() || in_slice(idx),
                "witness emission joined non-member {idx}: live-set invariant broken"
            );
        }
    }

    /// The finished table, one row per member in ascending order.
    pub(crate) fn finish(mut self, slice_count: u64) -> Witnesses {
        self.rows.reverse();
        debug_assert_eq!(
            self.rows.len() as u64,
            slice_count,
            "witness emission diverged from the slice it explains"
        );
        self.rows
    }
}

/// Replays the member mutations of the backward walk over the final
/// bitmap of `result` and returns its witness table: the driver for
/// bitmaps that did not come from the sequential walk.
pub(crate) fn emit<S: ColumnSource>(
    src: &mut S,
    deps: &ControlDeps,
    criteria: &Criteria,
    result: &SliceResult,
) -> Result<Witnesses, S::Error> {
    let n = result.considered() as usize;
    let mut open = vec![Vec::new(); 256];
    src.stream_range(0, n, |cur| prescan_open_calls(&mut open, cur))?;
    let mut em = Emitter::new(deps, criteria, n, result.slice_count() as usize);
    em.seal_frames(&open);
    src.stream_range_rev(0, n, |cur| em.feed(cur, &result.bitmap))?;
    Ok(em.finish(result.slice_count()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::pixel_criteria;
    use crate::slice::{slice, ForwardPass, SliceOptions};
    use proptest::prelude::*;
    use wasteprof_trace::{site, Recorder, Region, ThreadKind, Trace};

    /// Reference model of [`FactMap`]: split at both edges, collect the
    /// doomed keys, remove them — no fast paths.
    #[derive(Default)]
    struct SplitFactMap {
        map: BTreeMap<u64, (u64, Fact)>,
    }

    impl SplitFactMap {
        fn split_at(&mut self, at: u64) {
            let split = match self.map.range(..at).next_back() {
                Some((&s, &(end, fact))) if end > at => Some((s, end, fact)),
                _ => None,
            };
            if let Some((s, end, fact)) = split {
                self.map.get_mut(&s).expect("entry just observed").0 = at;
                self.map.insert(at, (end, fact));
            }
        }

        fn remove(&mut self, lo: u64, hi: u64) {
            if lo >= hi {
                return;
            }
            self.split_at(lo);
            self.split_at(hi);
            let doomed: Vec<u64> = self.map.range(lo..hi).map(|(&s, _)| s).collect();
            for s in doomed {
                self.map.remove(&s);
            }
        }

        fn insert(&mut self, lo: u64, hi: u64, fact: Fact) {
            if lo >= hi {
                return;
            }
            self.remove(lo, hi);
            self.map.insert(lo, (hi, fact));
        }
    }

    fn entries(map: &BTreeMap<u64, (u64, Fact)>) -> Vec<(u64, u64, Fact)> {
        map.iter().map(|(&s, &(e, f))| (s, e, f)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random insert/remove sequences over a small address grid —
        /// exact-interval repeats, straddles, adjacent and nested ranges —
        /// leave the fast-pathed map with exactly the reference entries
        /// and the same `first_overlap` answers.
        #[test]
        fn fact_map_matches_split_reference(
            ops in proptest::collection::vec((0..4u8, 0..12u8, 0..4u8, 0..5u8), 1..60),
        ) {
            let mut fast = FactMap::default();
            let mut reference = SplitFactMap::default();
            let mut prev = (0u64, 8u64);
            for &(op, a, b, v) in &ops {
                let fresh = (a as u64 * 4, a as u64 * 4 + [1, 4, 8, 16][b as usize]);
                // Ops 2 and 3 repeat the previous interval exactly.
                let (lo, hi) = if op >= 2 { prev } else { fresh };
                prev = (lo, hi);
                let fact = Fact { pos: v as u32, crit: v % 2 == 0 };
                if op % 2 == 0 {
                    fast.insert(lo, hi, fact);
                    reference.insert(lo, hi, fact);
                } else {
                    fast.remove(lo, hi);
                    reference.remove(lo, hi);
                }
                prop_assert_eq!(entries(&fast.map), entries(&reference.map));
                let probe = (fresh.0.saturating_sub(2), fresh.1 + 3);
                let model = FactMap { map: reference.map.clone() };
                prop_assert_eq!(
                    fast.first_overlap(probe.0, probe.1),
                    model.first_overlap(probe.0, probe.1)
                );
            }
        }
    }

    /// A small multi-thread session with data flow, control dependence,
    /// calls, and dead code.
    fn rich_trace() -> Trace {
        let mut rec = Recorder::new();
        let t0 = rec.spawn_thread(ThreadKind::Main, "root");
        let t1 = rec.spawn_thread(ThreadKind::Raster(0), "root");
        let cond = rec.alloc_cell(Region::Heap);
        let shared = rec.alloc_cell(Region::Heap);
        let dead = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 64);
        let f = rec.intern_func("guarded");
        rec.switch_to(t0);
        rec.compute(site!(), &[], &[cond.into()]);
        rec.compute(site!(), &[], &[dead.into()]); // never feeds the pixels
        let br = site!();
        let body = site!();
        let join = site!();
        rec.in_func(site!(), f, |rec| {
            rec.branch_mem(br, cond, true);
            rec.compute(body, &[], &[shared.into()]);
            rec.compute(join, &[], &[]);
        });
        rec.in_func(site!(), f, |rec| {
            rec.branch_mem(br, cond, false);
            rec.compute(join, &[], &[]);
        });
        rec.switch_to(t1);
        rec.compute(site!(), &[shared.into()], &[tile]);
        rec.marker(site!(), tile);
        rec.finish()
    }

    #[test]
    fn witness_covers_every_member_and_is_segment_invariant() {
        let trace = rich_trace();
        let fwd = ForwardPass::build(&trace);
        let criteria = pixel_criteria(&trace);
        let opts = |segments| SliceOptions {
            witness: true,
            segments,
            ..Default::default()
        };
        let k1 = slice(&trace, &fwd, &criteria, &opts(1));
        let k8 = slice(&trace, &fwd, &criteria, &opts(8));
        assert_eq!(k1, k8, "witnessed results must be identical at any K");

        let w = k1.witness().expect("witness requested");
        assert_eq!(w.len() as u64, k1.slice_count(), "one row per member");
        let mut prev = None;
        for row in w.rows() {
            assert!(k1.contains(row.member), "row member must be in the slice");
            assert!(
                prev.is_none_or(|p| p < row.member),
                "rows sorted by member, no duplicates"
            );
            prev = Some(row.member);
            // Consumers are criteria anchors or members themselves.
            if !row.consumer_is_criterion && row.kind != WitnessKind::Criterion {
                assert!(
                    k1.contains(row.consumer),
                    "non-criterion consumer {:?} of {:?} must be a member",
                    row.consumer,
                    row.member
                );
            }
        }
        // The session has all the interesting edge kinds.
        for kind in [WitnessKind::Mem, WitnessKind::Control, WitnessKind::Call] {
            assert!(
                w.rows().any(|r| r.kind == kind),
                "expected at least one {} row",
                kind.name()
            );
        }
    }

    #[test]
    fn witness_off_by_default() {
        let trace = rich_trace();
        let fwd = ForwardPass::build(&trace);
        let r = slice(
            &trace,
            &fwd,
            &pixel_criteria(&trace),
            &SliceOptions::default(),
        );
        assert!(r.witness().is_none());
    }

    #[test]
    fn fact_map_overwrites_and_clips() {
        let mut m = FactMap::default();
        let f = |p| Fact {
            pos: p,
            crit: false,
        };
        m.insert(10, 20, f(1));
        m.insert(15, 30, f(2));
        assert_eq!(m.first_overlap(0, 100), Some((10, 15, f(1))));
        assert_eq!(m.first_overlap(16, 18), Some((16, 18, f(2))));
        m.remove(12, 17);
        assert_eq!(m.first_overlap(11, 40), Some((11, 12, f(1))));
        assert_eq!(m.first_overlap(12, 17), None);
        assert_eq!(m.first_overlap(17, 40), Some((17, 30, f(2))));
    }

    #[test]
    fn rows_roundtrip_through_columns() {
        let rows = vec![
            WitnessRow {
                member: TracePos(3),
                kind: WitnessKind::Mem,
                fact_lo: 100,
                fact_hi: 164,
                consumer: TracePos(9),
                consumer_is_criterion: true,
                genned_reads: true,
            },
            WitnessRow {
                member: TracePos(5),
                kind: WitnessKind::Control,
                fact_lo: 0xabc,
                fact_hi: 0,
                consumer: TracePos(7),
                consumer_is_criterion: false,
                genned_reads: false,
            },
        ];
        let w = Witnesses::from_rows(rows.clone());
        assert_eq!(w.len(), 2);
        assert_eq!(w.rows().collect::<Vec<_>>(), rows);
    }
}
