//! The finalized instruction trace and its basic statistics.

use std::collections::HashMap;
use std::fmt;

use crate::addr::AddrRange;
use crate::columns::Columns;
use crate::func::{FuncId, FunctionRegistry};
use crate::instr::{Instr, InstrKind, TracePos};
use crate::thread::{ThreadId, ThreadTable};

/// One occurrence of the pixel-buffer marker in the trace.
///
/// The paper logs the tile-buffer address and size to an external file every
/// time the marked `PlaybackToMemory` runs; this record is that file's row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarkerRecord {
    /// Position of the marker instruction in the trace.
    pub pos: TracePos,
    /// The tile buffer holding final display pixel values at that point.
    pub tile: AddrRange,
}

/// An immutable, fully collected instruction trace.
///
/// Produced by [`crate::Recorder::finish`]; consumed by the slicer's forward
/// and backward passes. Instructions live in columnar storage
/// ([`Columns`]); [`Trace::instr`] and [`Trace::iter`] materialize
/// [`Instr`] views on demand, while hot passes read the columns directly
/// via [`Trace::columns`].
#[derive(Debug, Clone)]
pub struct Trace {
    cols: Columns,
    funcs: FunctionRegistry,
    threads: ThreadTable,
    markers: Vec<MarkerRecord>,
}

impl Trace {
    /// Assembles a trace from externally built parts: instruction columns,
    /// a symbol table, a thread table, and marker records.
    ///
    /// This is the constructor for everything that is *not* a live
    /// recording — trace rewriters, importers, and the checker's fault
    /// injector ([`Columns::push`] is public for the same reason). No
    /// structural validation happens here; a trace assembled from
    /// inconsistent parts is exactly what `wasteprof-checker` lints exist
    /// to diagnose.
    pub fn from_parts(
        cols: Columns,
        funcs: FunctionRegistry,
        threads: ThreadTable,
        markers: Vec<MarkerRecord>,
    ) -> Self {
        Trace {
            cols,
            funcs,
            threads,
            markers,
        }
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The instruction at `pos`, materialized from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    pub fn instr(&self, pos: TracePos) -> Instr {
        self.cols.instr(pos.index())
    }

    /// The underlying per-field columns (the zero-copy hot-path view).
    #[inline]
    pub fn columns(&self) -> &Columns {
        &self.cols
    }

    /// Iterates over instructions in execution order, materializing each.
    pub fn iter(&self) -> Instrs<'_> {
        Instrs {
            cols: &self.cols,
            idx: 0,
        }
    }

    /// The symbol table.
    pub fn functions(&self) -> &FunctionRegistry {
        &self.funcs
    }

    /// The thread table.
    pub fn threads(&self) -> &ThreadTable {
        &self.threads
    }

    /// Pixel-buffer marker records, in trace order.
    pub fn markers(&self) -> &[MarkerRecord] {
        &self.markers
    }

    /// Logical storage footprint of the instruction columns and operand
    /// arena, in bytes (symbol/thread tables and allocator slack excluded).
    pub fn storage_bytes(&self) -> u64 {
        self.cols.storage_bytes()
    }

    /// A new trace holding exactly the first `n` instructions.
    ///
    /// This is how evolving-session experiments materialize "frame K" from
    /// one long recording: every prefix of a valid recording is itself the
    /// trace the recorder would have produced had it stopped there (column
    /// prefixes are bit-identical, markers past `n` are dropped, and the
    /// symbol/thread tables are carried over whole — a superset of the
    /// functions actually referenced, which no consumer forbids). Open
    /// calls at the cut point are fine: the slicer treats them exactly
    /// like a trace captured mid-execution.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the trace length.
    pub fn prefix(&self, n: usize) -> Trace {
        assert!(n <= self.len(), "prefix length out of bounds");
        let markers = self
            .markers
            .iter()
            .filter(|m| m.pos.index() < n)
            .copied()
            .collect();
        Trace {
            cols: self.cols.prefix(n),
            funcs: self.funcs.clone(),
            threads: self.threads.clone(),
            markers,
        }
    }

    /// Renders the instruction at `pos` with its function *name* (resolved
    /// through the trace's [`FunctionRegistry`]) rather than the bare
    /// `fn#N` id that [`Instr`]'s own `Display` falls back to.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    pub fn display_instr(&self, pos: TracePos) -> InstrDisplay<'_> {
        InstrDisplay { trace: self, pos }
    }

    /// Instruction counts per thread.
    pub fn per_thread_counts(&self) -> HashMap<ThreadId, u64> {
        let mut m = HashMap::new();
        for idx in 0..self.cols.len() {
            *m.entry(self.cols.tid(idx)).or_insert(0) += 1;
        }
        m
    }

    /// Instruction counts per function.
    pub fn per_func_counts(&self) -> HashMap<FuncId, u64> {
        let mut m = HashMap::new();
        for idx in 0..self.cols.len() {
            *m.entry(self.cols.func(idx)).or_insert(0) += 1;
        }
        m
    }

    /// Counts of each opcode class.
    pub fn kind_histogram(&self) -> KindHistogram {
        let mut h = KindHistogram::default();
        for idx in 0..self.cols.len() {
            match self.cols.kind(idx) {
                InstrKind::Op => h.ops += 1,
                InstrKind::Load => h.loads += 1,
                InstrKind::Store => h.stores += 1,
                InstrKind::Branch { .. } => h.branches += 1,
                InstrKind::Call { .. } => h.calls += 1,
                InstrKind::Ret => h.rets += 1,
                InstrKind::Syscall { .. } => h.syscalls += 1,
                InstrKind::Marker => h.markers += 1,
            }
        }
        h
    }

    /// Validates structural invariants: call/return nesting per thread and
    /// marker positions in bounds. Returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        let mut depths: HashMap<ThreadId, i64> = HashMap::new();
        for idx in 0..self.cols.len() {
            match self.cols.kind(idx) {
                InstrKind::Call { .. } => {
                    *depths.entry(self.cols.tid(idx)).or_insert(0) += 1;
                }
                InstrKind::Ret => {
                    let d = depths.entry(self.cols.tid(idx)).or_insert(0);
                    *d -= 1;
                    if *d < 0 {
                        return Err(format!(
                            "unmatched return at position {idx} on {:?}",
                            self.cols.tid(idx)
                        ));
                    }
                }
                _ => {}
            }
        }
        for m in &self.markers {
            if m.pos.index() >= self.cols.len() {
                return Err(format!("marker position {} out of bounds", m.pos));
            }
            if !matches!(self.cols.kind(m.pos.index()), InstrKind::Marker) {
                return Err(format!(
                    "marker record at {} does not point at a marker",
                    m.pos
                ));
            }
        }
        Ok(())
    }
}

/// Iterator over a trace's instructions, materializing an [`Instr`] per
/// position.
#[derive(Debug, Clone)]
pub struct Instrs<'a> {
    cols: &'a Columns,
    idx: usize,
}

impl Iterator for Instrs<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        if self.idx >= self.cols.len() {
            return None;
        }
        let i = self.cols.instr(self.idx);
        self.idx += 1;
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.cols.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Instrs<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = Instr;
    type IntoIter = Instrs<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Displays one instruction with its resolved function name.
/// Built by [`Trace::display_instr`].
#[derive(Debug, Clone, Copy)]
pub struct InstrDisplay<'a> {
    trace: &'a Trace,
    pos: TracePos,
}

impl fmt::Display for InstrDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let instr = self.trace.instr(self.pos);
        let name = self.trace.funcs.name(instr.func);
        // Calls carry a second FuncId (the callee) inside the kind; resolve
        // that one too instead of letting its Debug print `fn#N`.
        if let InstrKind::Call { callee } = instr.kind {
            write!(
                f,
                "t{} {}@{} Call {{ callee: {} }}",
                instr.tid.0,
                name,
                instr.pc,
                self.trace.funcs.name(callee)
            )
        } else {
            instr.fmt_with_name(f, Some(name))
        }
    }
}

/// Opcode-class counts for a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindHistogram {
    /// Register-only ALU ops.
    pub ops: u64,
    /// Memory loads.
    pub loads: u64,
    /// Memory stores.
    pub stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Calls.
    pub calls: u64,
    /// Returns.
    pub rets: u64,
    /// System calls.
    pub syscalls: u64,
    /// Pixel-buffer markers.
    pub markers: u64,
}

impl KindHistogram {
    /// Total instructions counted.
    pub fn total(&self) -> u64 {
        self.ops
            + self.loads
            + self.stores
            + self.branches
            + self.calls
            + self.rets
            + self.syscalls
            + self.markers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::reg::{Reg, RegSet};
    use crate::site;
    use crate::thread::ThreadKind;
    use crate::Region;

    fn sample() -> Trace {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "main");
        let f = rec.intern_func("v8::Execute");
        let cell = rec.alloc_cell(Region::Heap);
        rec.in_func(site!(), f, |rec| {
            rec.compute(site!(), &[], &[cell.into()]);
            rec.branch_mem(site!(), cell, true);
        });
        rec.finish()
    }

    #[test]
    fn histogram_totals_match_len() {
        let t = sample();
        assert_eq!(t.kind_histogram().total() as usize, t.len());
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_unmatched_ret() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "main");
        let f = rec.intern_func("g");
        rec.enter(site!(), f);
        rec.leave(site!());
        // Emit a bare Ret via the raw escape hatch.
        rec.raw(
            site!(),
            InstrKind::Ret,
            RegSet::EMPTY,
            RegSet::EMPTY,
            crate::MemOps::None,
        );
        let t = rec.finish();
        assert!(t.validate().is_err());
    }

    #[test]
    fn per_thread_counts_sum_to_len() {
        let t = sample();
        let total: u64 = t.per_thread_counts().values().sum();
        assert_eq!(total as usize, t.len());
    }

    #[test]
    fn per_func_counts_cover_all_functions_seen() {
        let t = sample();
        let total: u64 = t.per_func_counts().values().sum();
        assert_eq!(total as usize, t.len());
        assert!(!t.per_func_counts().is_empty());
    }

    #[test]
    fn branch_reg_kind() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "main");
        rec.branch_reg(site!(), Reg::Rax, false);
        let t = rec.finish();
        assert!(matches!(
            t.instr(TracePos(0)).kind,
            InstrKind::Branch { taken: false }
        ));
    }

    #[test]
    fn iter_matches_positional_access() {
        let t = sample();
        for (idx, i) in t.iter().enumerate() {
            assert_eq!(i, t.instr(TracePos(idx as u64)));
        }
        assert_eq!(t.iter().len(), t.len());
    }

    #[test]
    fn columns_agree_with_materialized_views() {
        let t = sample();
        let cols = t.columns();
        for idx in 0..t.len() {
            let i = t.instr(TracePos(idx as u64));
            assert_eq!(cols.tid(idx), i.tid);
            assert_eq!(cols.func(idx), i.func);
            assert_eq!(cols.pc(idx), i.pc);
            assert_eq!(cols.kind(idx), i.kind);
            assert_eq!(cols.reg_reads(idx), i.reg_reads);
            assert_eq!(cols.reg_writes(idx), i.reg_writes);
            assert_eq!(cols.mem_reads(idx), i.mem_reads());
            assert_eq!(cols.mem_writes(idx), i.mem_writes());
        }
    }

    #[test]
    fn display_instr_renders_function_name() {
        let t = sample();
        // Position 0 is the call into v8::Execute, attributed to main's root.
        let s = format!("{}", t.display_instr(TracePos(1)));
        assert!(s.contains("v8::Execute"), "got {s:?}");
        assert!(!s.contains("fn#"), "display_instr fell back to ids: {s:?}");
    }

    #[test]
    fn display_instr_resolves_callee_names() {
        let t = sample();
        // Position 0 is the call into v8::Execute from main's root.
        let s = format!("{}", t.display_instr(TracePos(0)));
        assert!(s.contains("callee: v8::Execute"), "got {s:?}");
        assert!(!s.contains("fn#"), "callee fell back to ids: {s:?}");
    }

    #[test]
    fn from_parts_roundtrips_a_rebuilt_trace() {
        let t = sample();
        let mut cols = Columns::default();
        for idx in 0..t.len() {
            let i = t.instr(TracePos(idx as u64));
            cols.push(
                i.tid,
                i.func,
                i.pc,
                i.kind,
                i.reg_reads,
                i.reg_writes,
                i.mem_reads(),
                i.mem_writes(),
            );
        }
        let rebuilt = Trace::from_parts(
            cols,
            t.functions().clone(),
            t.threads().clone(),
            t.markers().to_vec(),
        );
        assert_eq!(rebuilt.len(), t.len());
        for idx in 0..t.len() {
            let pos = TracePos(idx as u64);
            assert_eq!(rebuilt.instr(pos), t.instr(pos));
        }
        assert_eq!(rebuilt.markers(), t.markers());
    }

    #[test]
    fn prefix_matches_rows_and_drops_later_markers() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "main");
        let f = rec.intern_func("paint");
        let cell = rec.alloc_cell(Region::Heap);
        rec.in_func(site!(), f, |rec| {
            rec.compute(site!(), &[], &[cell.into()]);
            let tile = rec.alloc(Region::PixelTile, 64);
            rec.marker(site!(), tile);
            rec.compute(site!(), &[cell.into()], &[cell.into()]);
            let tile2 = rec.alloc(Region::PixelTile, 64);
            rec.marker(site!(), tile2);
        });
        let t = rec.finish();
        assert_eq!(t.markers().len(), 2);
        let cut = t.markers()[1].pos.index(); // keep marker 0, drop marker 1
        let p = t.prefix(cut);
        assert_eq!(p.len(), cut);
        assert_eq!(p.markers(), &t.markers()[..1]);
        for idx in 0..cut {
            let pos = TracePos(idx as u64);
            assert_eq!(p.instr(pos), t.instr(pos));
        }
        assert!(t.prefix(0).is_empty());
        assert_eq!(t.prefix(t.len()).len(), t.len());
    }

    #[test]
    fn storage_bytes_grow_with_trace() {
        let t = sample();
        assert!(t.storage_bytes() >= (t.len() * Columns::BYTES_PER_INSTR) as u64);
    }
}
