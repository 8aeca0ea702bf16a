//! Fault injection for differential testing of the checker.
//!
//! A [`TraceMutator`] takes a known-good trace and corrupts it in exactly
//! one way — drop a return, swap a tid out of range, unpair a marker,
//! reorder a racy write, drop a producer write, stretch an operand across
//! a region boundary, or aim a call at a nonexistent function. Each
//! [`Mutation`] maps to the one diagnostic [`Code`] it must trigger, so
//! the test suite can assert the checker catches precisely the invariant
//! that was broken and nothing else.
//!
//! Corruption sites are chosen so the damage stays *surgical*: mutations
//! avoid lock-protocol frames (whose operands carry happens-before
//! semantics) and scheduler hand-off boundaries (where the instruction
//! before a thread's first instruction defines its spawn edge), because
//! collateral damage there would surface unrelated race diagnostics.
//!
//! [`SliceMutation`] is the slicer-side counterpart: it corrupts a
//! *witnessed slice* (the membership bitmap plus its dependence witness)
//! instead of the trace, modeling slicer bugs for the certifier's
//! differential tests.

use std::collections::BTreeMap;

use wasteprof_slicer::{SliceResult, WitnessKind, WitnessRow, Witnesses};
use wasteprof_trace::{
    Addr, AddrRange, Columns, FuncId, InstrKind, MarkerRecord, Region, ThreadId, Trace, TracePos,
};

use crate::diag::Code;
use crate::lints::{Coverage, PRODUCER_REGIONS};
use crate::race::LOCK_SYMBOL;

/// One way of corrupting a trace, each paired with the lint that must
/// catch it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Remove a `Ret`, leaving its call frame open (`WP0002`).
    DropRet,
    /// Re-attribute one instruction to a tid past the thread table
    /// (`WP0005`).
    SwapTid,
    /// Delete a marker's tile-log record (`WP0006`).
    UnpairMarker,
    /// Move a heap store next to a conflicting access on another thread,
    /// past the sync that ordered it (`WP0001`).
    ReorderRacyWrite,
    /// Remove the only write feeding a producer-region read (`WP0003`).
    DropProducerWrite,
    /// Stretch a load's operand across a region-class boundary
    /// (`WP0004`).
    SpanRegionOperand,
    /// Point a call at a function id outside the symbol table
    /// (`WP0007`).
    WildCallee,
}

impl Mutation {
    /// Every mutation, in diagnostic-code order.
    pub const ALL: [Mutation; 7] = [
        Mutation::ReorderRacyWrite,
        Mutation::DropRet,
        Mutation::DropProducerWrite,
        Mutation::SpanRegionOperand,
        Mutation::SwapTid,
        Mutation::UnpairMarker,
        Mutation::WildCallee,
    ];

    /// The one diagnostic code this corruption must trigger.
    pub fn expected_code(self) -> Code {
        match self {
            Mutation::ReorderRacyWrite => Code::Race,
            Mutation::DropRet => Code::UnmatchedCallRet,
            Mutation::DropProducerWrite => Code::UninitRead,
            Mutation::SpanRegionOperand => Code::RegionOverlap,
            Mutation::SwapTid => Code::InvalidTid,
            Mutation::UnpairMarker => Code::UnpairedMarker,
            Mutation::WildCallee => Code::UndefinedCallee,
        }
    }

    /// Short name for test labels.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::ReorderRacyWrite => "reorder-racy-write",
            Mutation::DropRet => "drop-ret",
            Mutation::DropProducerWrite => "drop-producer-write",
            Mutation::SpanRegionOperand => "span-region-operand",
            Mutation::SwapTid => "swap-tid",
            Mutation::UnpairMarker => "unpair-marker",
            Mutation::WildCallee => "wild-callee",
        }
    }
}

/// One way of corrupting a witnessed slice, each paired with the
/// certifier code it must trigger. The trace stays pristine: these model
/// *slicer* bugs (lost or stray members, lost or wrong structural edges),
/// not recorder bugs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SliceMutation {
    /// Drop the row of a `call` member with no operands: nothing else
    /// justifies it (`WP0008`).
    DropStructuralRow,
    /// Add a non-member `Ret` with no operands to the bitmap: nothing
    /// reads its writes and no row explains it (`WP0008`).
    AddUnconsumedMember,
    /// Point a `call` row at a non-member inside the same callee frame:
    /// the edge matches the call stack but ends outside the slice
    /// (`WP0009`).
    RetargetStructuralConsumer,
    /// Remove a member with no row, no reads, and no row naming it as
    /// consumer: its value still reaches a checked read, so the
    /// complement is no longer safe (`WP0010`).
    UnmarkLiveWriter,
}

impl SliceMutation {
    /// Every slice mutation, in diagnostic-code order.
    pub const ALL: [SliceMutation; 4] = [
        SliceMutation::DropStructuralRow,
        SliceMutation::AddUnconsumedMember,
        SliceMutation::RetargetStructuralConsumer,
        SliceMutation::UnmarkLiveWriter,
    ];

    /// The one diagnostic code this corruption must trigger.
    pub fn expected_code(self) -> Code {
        match self {
            SliceMutation::DropStructuralRow | SliceMutation::AddUnconsumedMember => {
                Code::CertifyUnconsumed
            }
            SliceMutation::RetargetStructuralConsumer => Code::CertifyBadEdge,
            SliceMutation::UnmarkLiveWriter => Code::CertifyLiveLeak,
        }
    }

    /// Short name for test labels.
    pub fn name(self) -> &'static str {
        match self {
            SliceMutation::DropStructuralRow => "drop-structural-row",
            SliceMutation::AddUnconsumedMember => "add-unconsumed-member",
            SliceMutation::RetargetStructuralConsumer => "retarget-structural-consumer",
            SliceMutation::UnmarkLiveWriter => "unmark-live-writer",
        }
    }
}

/// One surgical edit to a trace, applied during the columnar rebuild.
enum Edit {
    /// Remove instruction `0`.
    Drop(usize),
    /// Remove instruction `from` and reinsert it immediately before the
    /// instruction originally at `to_before`.
    Move { from: usize, to_before: usize },
    /// Replace instruction `0`'s tid.
    Tid(usize, ThreadId),
    /// Replace instruction `0`'s memory reads.
    Reads(usize, Vec<AddrRange>),
    /// Replace instruction `0`'s call target.
    Callee(usize, FuncId),
    /// Drop the first `MarkerRecord` (instructions untouched).
    DropFirstRecord,
}

/// Corrupts one known-good trace, one [`Mutation`] at a time.
pub struct TraceMutator<'a> {
    trace: &'a Trace,
    /// `true` at indices that are some thread's first instruction — the
    /// spawn-edge boundaries mutations must not disturb.
    thread_start: Vec<bool>,
    lock_fid: Option<FuncId>,
}

impl<'a> TraceMutator<'a> {
    /// Prepares a mutator over `trace`.
    pub fn new(trace: &'a Trace) -> TraceMutator<'a> {
        let cols = trace.columns();
        let mut seen = vec![false; 256];
        let mut thread_start = vec![false; cols.len()];
        for (idx, start) in thread_start.iter_mut().enumerate() {
            let t = cols.tid(idx).index();
            if !seen[t] {
                seen[t] = true;
                *start = true;
            }
        }
        TraceMutator {
            trace,
            thread_start,
            lock_fid: trace.functions().get(LOCK_SYMBOL),
        }
    }

    /// Applies `m`, returning the corrupted trace, or `None` when the
    /// trace has no site where this corruption can be injected.
    pub fn apply(&self, m: Mutation) -> Option<Trace> {
        let edit = match m {
            Mutation::DropRet => self.plan_drop_ret()?,
            Mutation::SwapTid => self.plan_swap_tid()?,
            Mutation::UnpairMarker => self.plan_unpair_marker()?,
            Mutation::ReorderRacyWrite => self.plan_reorder_racy_write()?,
            Mutation::DropProducerWrite => self.plan_drop_producer_write()?,
            Mutation::SpanRegionOperand => self.plan_span_region_operand()?,
            Mutation::WildCallee => self.plan_wild_callee()?,
        };
        Some(self.rebuild(edit))
    }

    /// Applies slice mutation `m` to a witnessed slice of this mutator's
    /// trace, returning the corrupted [`SliceResult`], or `None` when the
    /// slice offers no site for this corruption.
    pub fn apply_slice(&self, m: SliceMutation, result: &SliceResult) -> Option<SliceResult> {
        let mut rows: Vec<WitnessRow> = result.witness()?.rows().collect();
        let cols = self.trace.columns();
        let n = result.considered() as usize;
        let no_operands = |i: usize| {
            cols.reg_reads(i).is_empty()
                && cols.reg_writes(i).is_empty()
                && cols.mem_reads(i).is_empty()
                && cols.mem_writes(i).is_empty()
        };
        let mut out = result.clone();
        match m {
            SliceMutation::DropStructuralRow => {
                let i = rows
                    .iter()
                    .position(|r| r.kind == WitnessKind::Call && no_operands(r.member.index()))?;
                rows.remove(i);
                out.set_witness(Some(Witnesses::from_rows(rows)));
            }
            SliceMutation::AddUnconsumedMember => {
                let ret = (0..n).find(|&i| {
                    matches!(cols.kind(i), InstrKind::Ret)
                        && no_operands(i)
                        && !result.contains(TracePos(i as u64))
                })?;
                out.insert_member(TracePos(ret as u64));
            }
            SliceMutation::RetargetStructuralConsumer => {
                let (i, inside) = rows
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.kind == WitnessKind::Call)
                    .find_map(|(i, r)| {
                        Some((i, self.non_member_in_frame(r.member.index(), result)?))
                    })?;
                rows[i].consumer = TracePos(inside as u64);
                out.set_witness(Some(Witnesses::from_rows(rows)));
            }
            SliceMutation::UnmarkLiveWriter => {
                let mut named: Vec<TracePos> =
                    rows.iter().flat_map(|r| [r.member, r.consumer]).collect();
                named.sort_unstable();
                let writer = (0..n).map(|i| TracePos(i as u64)).find(|&p| {
                    result.contains(p)
                        && named.binary_search(&p).is_err()
                        && cols.reg_reads(p.index()).is_empty()
                        && cols.mem_reads(p.index()).is_empty()
                })?;
                out.remove_member(writer);
            }
        }
        Some(out)
    }

    /// The first non-member directly inside the callee frame of the call at
    /// `call` (its thread, before the matching return), if any.
    fn non_member_in_frame(&self, call: usize, result: &SliceResult) -> Option<usize> {
        let cols = self.trace.columns();
        let tid = cols.tid(call);
        let mut depth = 0usize;
        for i in call + 1..result.considered() as usize {
            if cols.tid(i) != tid {
                continue;
            }
            if depth == 0 && !result.contains(TracePos(i as u64)) {
                return Some(i);
            }
            match cols.kind(i) {
                InstrKind::Call { .. } => depth += 1,
                InstrKind::Ret if depth == 0 => return None,
                InstrKind::Ret => depth -= 1,
                _ => {}
            }
        }
        None
    }

    /// True when removing/retagging instruction `idx` would change which
    /// instruction precedes a thread's first instruction.
    fn disturbs_spawn_edge(&self, idx: usize) -> bool {
        self.thread_start[idx] || self.thread_start.get(idx + 1).copied().unwrap_or(false)
    }

    fn in_lock(&self, idx: usize) -> bool {
        self.lock_fid == Some(self.trace.columns().func(idx))
    }

    fn plan_drop_ret(&self) -> Option<Edit> {
        let cols = self.trace.columns();
        (0..cols.len())
            .rev()
            .find(|&i| matches!(cols.kind(i), InstrKind::Ret) && !self.disturbs_spawn_edge(i))
            .map(Edit::Drop)
    }

    fn plan_swap_tid(&self) -> Option<Edit> {
        let cols = self.trace.columns();
        if self.trace.threads().len() >= usize::from(u8::MAX) {
            return None; // no representable out-of-table tid
        }
        let bad = ThreadId(self.trace.threads().len() as u8);
        (0..cols.len())
            .rev()
            .find(|&i| {
                matches!(cols.kind(i), InstrKind::Op)
                    && cols.mem_reads(i).is_empty()
                    && cols.mem_writes(i).is_empty()
                    && !self.disturbs_spawn_edge(i)
            })
            .map(|i| Edit::Tid(i, bad))
    }

    fn plan_unpair_marker(&self) -> Option<Edit> {
        if self.trace.markers().is_empty() {
            None
        } else {
            Some(Edit::DropFirstRecord)
        }
    }

    fn plan_reorder_racy_write(&self) -> Option<Edit> {
        let cols = self.trace.columns();
        // Last heap store per byte interval: start → (end, instr, tid).
        let mut stores: BTreeMap<u64, (u64, usize, u8)> = BTreeMap::new();
        let overlapping = |stores: &BTreeMap<u64, (u64, usize, u8)>, r: AddrRange| {
            let (lo, hi) = (r.start().raw(), r.end().raw());
            stores
                .range(..hi)
                .next_back()
                .filter(|(_, &(end, _, _))| end > lo)
                .map(|(_, &v)| v)
        };
        for i in 0..cols.len() {
            if self.in_lock(i) {
                continue;
            }
            let tid = cols.tid(i).0;
            if !self.thread_start[i] {
                for dir in [cols.mem_reads(i), cols.mem_writes(i)] {
                    for &r in dir {
                        if let Some((_, s_idx, s_tid)) = overlapping(&stores, r) {
                            if s_tid != tid {
                                return Some(Edit::Move {
                                    from: s_idx,
                                    to_before: i,
                                });
                            }
                        }
                    }
                }
            }
            if matches!(cols.kind(i), InstrKind::Store)
                && !self.disturbs_spawn_edge(i)
                && cols.mem_writes(i).len() == 1
            {
                let w = cols.mem_writes(i)[0];
                if w.start().region() == Some(Region::Heap) {
                    stores.insert(w.start().raw(), (w.end().raw(), i, tid));
                }
            }
        }
        None
    }

    fn plan_drop_producer_write(&self) -> Option<Edit> {
        let cols = self.trace.columns();
        let in_scope = |r: AddrRange| {
            r.start()
                .region()
                .is_some_and(|reg| PRODUCER_REGIONS.contains(&reg))
        };
        // Bytes written exactly once so far, as *disjoint* intervals:
        // start → (end, writer).
        let mut once: BTreeMap<u64, (u64, usize)> = BTreeMap::new();
        // Bytes written at least twice (their first writer is not load-bearing).
        let mut twice = Coverage::default();
        // Entries of `once` overlapping `[lo, hi)`: the predecessor that
        // reaches past `lo`, plus all entries starting inside the range
        // (disjointness makes this complete).
        let overlaps = |once: &BTreeMap<u64, (u64, usize)>, lo: u64, hi: u64| {
            let mut found: Vec<(u64, u64, usize)> = Vec::new();
            if let Some((&s, &(e, w))) = once.range(..=lo).next_back() {
                if e > lo {
                    found.push((s, e, w));
                }
            }
            for (&s, &(e, w)) in once.range(lo + 1..hi) {
                found.push((s, e, w));
            }
            found
        };
        for i in 0..cols.len() {
            for &r in cols.mem_reads(i) {
                if !in_scope(r) {
                    continue;
                }
                let (lo, hi) = (r.start().raw(), r.end().raw());
                for (s, e, writer) in overlaps(&once, lo, hi) {
                    let (olo, ohi) = (s.max(lo), e.min(hi));
                    if twice.first_gap(olo, ohi).is_some() && !self.disturbs_spawn_edge(writer) {
                        return Some(Edit::Drop(writer));
                    }
                }
            }
            for &w in cols.mem_writes(i) {
                if !in_scope(w) {
                    continue;
                }
                let (lo, hi) = (w.start().raw(), w.end().raw());
                let covered = overlaps(&once, lo, hi);
                for &(s, e, _) in &covered {
                    twice.insert(s.max(lo), e.min(hi));
                }
                if covered.is_empty() {
                    once.insert(lo, (hi, i));
                }
            }
        }
        None
    }

    fn plan_span_region_operand(&self) -> Option<Edit> {
        let cols = self.trace.columns();
        // 8 bytes straddling the Heap→Stack region boundary.
        let straddle = AddrRange::new(Addr::new(Region::Stack.base().raw() - 4), 8);
        (0..cols.len())
            .find(|&i| {
                matches!(cols.kind(i), InstrKind::Load)
                    && cols.mem_reads(i).len() == 1
                    && !self.in_lock(i)
            })
            .map(|i| Edit::Reads(i, vec![straddle]))
    }

    fn plan_wild_callee(&self) -> Option<Edit> {
        let cols = self.trace.columns();
        let wild = FuncId(self.trace.functions().len() as u32);
        (0..cols.len())
            .find(|&i| matches!(cols.kind(i), InstrKind::Call { .. }))
            .map(|i| Edit::Callee(i, wild))
    }

    fn rebuild(&self, edit: Edit) -> Trace {
        let cols_in = self.trace.columns();
        let n = cols_in.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut drop_first_record = false;
        match edit {
            Edit::Drop(i) => {
                order.remove(i);
            }
            Edit::Move { from, to_before } => {
                order.remove(from);
                let at = if from < to_before {
                    to_before - 1
                } else {
                    to_before
                };
                order.insert(at, from);
            }
            Edit::DropFirstRecord => drop_first_record = true,
            _ => {}
        }
        let mut new_pos = vec![usize::MAX; n];
        let mut cols = Columns::default();
        for (new_idx, &old) in order.iter().enumerate() {
            new_pos[old] = new_idx;
            let mut tid = cols_in.tid(old);
            let mut kind = cols_in.kind(old);
            let mut reads = cols_in.mem_reads(old);
            let replaced;
            match edit {
                Edit::Tid(i, t) if i == old => tid = t,
                Edit::Callee(i, callee) if i == old => kind = InstrKind::Call { callee },
                Edit::Reads(i, ref r) if i == old => {
                    replaced = r.clone();
                    reads = &replaced;
                }
                _ => {}
            }
            cols.push(
                tid,
                cols_in.func(old),
                cols_in.pc(old),
                kind,
                cols_in.reg_reads(old),
                cols_in.reg_writes(old),
                reads,
                cols_in.mem_writes(old),
            );
        }
        let markers: Vec<MarkerRecord> = self
            .trace
            .markers()
            .iter()
            .enumerate()
            .filter(|&(i, _)| !(drop_first_record && i == 0))
            .filter_map(|(_, rec)| {
                let mapped = new_pos[rec.pos.index()];
                (mapped != usize::MAX).then_some(MarkerRecord {
                    pos: TracePos(mapped as u64),
                    tile: rec.tile,
                })
            })
            .collect();
        Trace::from_parts(
            cols,
            self.trace.functions().clone(),
            self.trace.threads().clone(),
            markers,
        )
    }
}
