//! Columnar (structure-of-arrays) trace storage.
//!
//! A trace holds millions of instructions, and the slicer's passes stream
//! over one or two fields at a time (kinds for the CFG build, operand
//! ranges for liveness). Storing `Vec<Instr>` wastes cache on fields the
//! current pass never reads and pays an enum-layout tax per record; this
//! module instead keeps one packed column per field, with memory operands
//! in a single side arena indexed by a compact [`MemOpsRef`]. An [`Instr`]
//! can still be materialized per position, but hot paths read the columns
//! directly.

use crate::addr::AddrRange;
use crate::func::FuncId;
use crate::instr::{Instr, InstrKind, MemOps};
use crate::pc::Pc;
use crate::reg::RegSet;
use crate::syscall::Syscall;
use crate::thread::ThreadId;

/// One instruction's memory operands: a contiguous run in the shared
/// operand arena, reads first, then writes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemOpsRef {
    /// First operand's index in the arena.
    pub start: u32,
    /// Number of ranges read.
    pub nreads: u16,
    /// Number of ranges written.
    pub nwrites: u16,
}

/// Encodes an [`InstrKind`] as a `(tag, payload)` pair for column storage.
/// The tag values are what `WPTRACE2` segments store on disk.
fn kind_to_tag(kind: InstrKind) -> (u8, u32) {
    match kind {
        InstrKind::Op => (0, 0),
        InstrKind::Load => (1, 0),
        InstrKind::Store => (2, 0),
        InstrKind::Branch { taken } => (3, taken as u32),
        InstrKind::Call { callee } => (4, callee.0),
        InstrKind::Ret => (5, 0),
        InstrKind::Syscall { nr } => (6, nr.number()),
        InstrKind::Marker => (7, 0),
    }
}

/// Packed per-field instruction columns plus the memory-operand arena.
///
/// Every column has exactly one entry per instruction; `arena` holds all
/// operand ranges back to back, addressed through the `mem` column. The
/// fields are visible to the crate so the `WPTRACE2` segment decoder can
/// refill a reused store in place; it restores both conditions before it
/// returns the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Columns {
    /// Opcode-class tag (same values as the trace wire format).
    pub(crate) kinds: Vec<u8>,
    /// Kind payload: branch direction, callee id, or syscall number.
    pub(crate) kind_data: Vec<u32>,
    /// Executing thread per instruction.
    pub(crate) tids: Vec<u8>,
    /// Enclosing function per instruction.
    pub(crate) funcs: Vec<u32>,
    /// Static PC per instruction.
    pub(crate) pcs: Vec<u32>,
    /// Registers read, as a bitset.
    pub(crate) reg_reads: Vec<u16>,
    /// Registers written, as a bitset.
    pub(crate) reg_writes: Vec<u16>,
    /// Memory-operand reference per instruction.
    pub(crate) mem: Vec<MemOpsRef>,
    /// All memory operands of all instructions, reads before writes.
    pub(crate) arena: Vec<AddrRange>,
}

impl Columns {
    /// Fixed column bytes per instruction (excluding arena entries).
    pub const BYTES_PER_INSTR: usize = std::mem::size_of::<u8>()      // kind tag
        + std::mem::size_of::<u32>()                                  // kind payload
        + std::mem::size_of::<u8>()                                   // tid
        + std::mem::size_of::<u32>()                                  // func
        + std::mem::size_of::<u32>()                                  // pc
        + 2 * std::mem::size_of::<u16>()                              // reg sets
        + std::mem::size_of::<MemOpsRef>();

    /// Number of instructions stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if no instructions are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of memory-operand ranges in the arena.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Logical storage footprint in bytes: packed columns plus the operand
    /// arena (allocator slack excluded).
    pub fn storage_bytes(&self) -> u64 {
        (self.len() * Self::BYTES_PER_INSTR + self.arena.len() * std::mem::size_of::<AddrRange>())
            as u64
    }

    /// Appends one instruction.
    ///
    /// Public so tools that build traces outside a [`crate::Recorder`] —
    /// fault injectors, trace rewriters, importers — can assemble columns
    /// directly. Nothing is validated here beyond arena-indexing limits;
    /// run `wasteprof-checker` lints over the finished trace to find
    /// structural mistakes.
    ///
    /// # Panics
    ///
    /// Panics if the operand arena exceeds `u32` indexing or one
    /// instruction carries more than `u16::MAX` operands per direction.
    // One parameter per column is the point of a SoA push.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        tid: ThreadId,
        func: FuncId,
        pc: Pc,
        kind: InstrKind,
        reg_reads: RegSet,
        reg_writes: RegSet,
        reads: &[AddrRange],
        writes: &[AddrRange],
    ) {
        let start = self.arena.len();
        assert!(
            start + reads.len() + writes.len() <= u32::MAX as usize,
            "memory-operand arena exceeds u32 indexing"
        );
        assert!(
            reads.len() <= u16::MAX as usize && writes.len() <= u16::MAX as usize,
            "too many memory operands on one instruction"
        );
        let (tag, data) = kind_to_tag(kind);
        self.kinds.push(tag);
        self.kind_data.push(data);
        self.tids.push(tid.0);
        self.funcs.push(func.0);
        self.pcs.push(pc.0);
        self.reg_reads.push(reg_reads.bits());
        self.reg_writes.push(reg_writes.bits());
        self.arena.extend_from_slice(reads);
        self.arena.extend_from_slice(writes);
        self.mem.push(MemOpsRef {
            start: start as u32,
            nreads: reads.len() as u16,
            nwrites: writes.len() as u16,
        });
    }

    /// Drops every memory operand `keep` rejects, on every instruction,
    /// in one in-place pass over the operand arena. The surviving ranges
    /// keep their order (reads before writes, instruction by instruction),
    /// so the result equals pushing each instruction again with only its
    /// kept operands — without rebuilding any other column.
    pub fn retain_mem_ops(&mut self, mut keep: impl FnMut(&AddrRange) -> bool) {
        // Every store lays its operands out in instruction order, so the
        // write cursor never overtakes the instruction being read.
        let mut at = 0;
        for m in &mut self.mem {
            let (start, nreads) = (m.start as usize, m.nreads as usize);
            let first = at;
            let mut kept = [0u16; 2];
            for j in 0..nreads + m.nwrites as usize {
                let range = self.arena[start + j];
                if keep(&range) {
                    self.arena[at] = range;
                    at += 1;
                    kept[usize::from(j >= nreads)] += 1;
                }
            }
            *m = MemOpsRef {
                start: first as u32,
                nreads: kept[0],
                nwrites: kept[1],
            };
        }
        self.arena.truncate(at);
    }

    /// Opcode class of instruction `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds (as do all per-index accessors).
    #[inline]
    pub fn kind(&self, idx: usize) -> InstrKind {
        let data = self.kind_data[idx];
        match self.kinds[idx] {
            0 => InstrKind::Op,
            1 => InstrKind::Load,
            2 => InstrKind::Store,
            3 => InstrKind::Branch { taken: data != 0 },
            4 => InstrKind::Call {
                callee: FuncId(data),
            },
            5 => InstrKind::Ret,
            6 => InstrKind::Syscall {
                nr: Syscall::from_number(data).expect("column holds a valid syscall number"),
            },
            _ => InstrKind::Marker,
        }
    }

    /// Executing thread of instruction `idx`.
    #[inline]
    pub fn tid(&self, idx: usize) -> ThreadId {
        ThreadId(self.tids[idx])
    }

    /// Enclosing function of instruction `idx`.
    #[inline]
    pub fn func(&self, idx: usize) -> FuncId {
        FuncId(self.funcs[idx])
    }

    /// Static PC of instruction `idx`.
    #[inline]
    pub fn pc(&self, idx: usize) -> Pc {
        Pc(self.pcs[idx])
    }

    /// Registers read by instruction `idx`.
    #[inline]
    pub fn reg_reads(&self, idx: usize) -> RegSet {
        RegSet::from_bits(self.reg_reads[idx])
    }

    /// Registers written by instruction `idx`.
    #[inline]
    pub fn reg_writes(&self, idx: usize) -> RegSet {
        RegSet::from_bits(self.reg_writes[idx])
    }

    /// Memory ranges read by instruction `idx`.
    #[inline]
    pub fn mem_reads(&self, idx: usize) -> &[AddrRange] {
        let m = self.mem[idx];
        let s = m.start as usize;
        &self.arena[s..s + m.nreads as usize]
    }

    /// Memory ranges written by instruction `idx`.
    #[inline]
    pub fn mem_writes(&self, idx: usize) -> &[AddrRange] {
        let m = self.mem[idx];
        let s = m.start as usize + m.nreads as usize;
        &self.arena[s..s + m.nwrites as usize]
    }

    /// A cursor over the instruction range `[lo, hi)`, for passes that
    /// work on one contiguous trace segment.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi` exceeds the trace length.
    pub fn cursor(&self, lo: usize, hi: usize) -> ColumnCursor<'_> {
        self.cursor_at(0, lo, hi)
    }

    /// A cursor whose *global* indices `[lo, hi)` map onto this store with
    /// an offset: global index `i` reads physical entry `i - base`. This is
    /// how a decoded on-disk chunk (stored physically from 0) presents
    /// itself at its true trace position to streaming consumers.
    ///
    /// # Panics
    ///
    /// Panics if `base > lo`, `lo > hi`, or the physical range exceeds the
    /// stored length.
    pub fn cursor_at(&self, base: usize, lo: usize, hi: usize) -> ColumnCursor<'_> {
        assert!(
            base <= lo && lo <= hi && hi - base <= self.len(),
            "offset segment out of bounds"
        );
        ColumnCursor {
            cols: self,
            base,
            lo,
            hi,
        }
    }

    // ----- raw column access for the chunked on-disk codec --------------

    /// Raw `(kind tag, kind payload)` of instruction `idx`.
    pub(crate) fn raw_kind(&self, idx: usize) -> (u8, u32) {
        (self.kinds[idx], self.kind_data[idx])
    }

    /// Raw memory-operand reference of instruction `idx`.
    pub(crate) fn raw_mem(&self, idx: usize) -> MemOpsRef {
        self.mem[idx]
    }

    /// Empties every column, keeping their capacity for the next rows.
    pub(crate) fn clear(&mut self) {
        self.kinds.clear();
        self.kind_data.clear();
        self.tids.clear();
        self.funcs.clear();
        self.pcs.clear();
        self.reg_reads.clear();
        self.reg_writes.clear();
        self.mem.clear();
        self.arena.clear();
    }

    /// A copy of the first `n` instructions' columns.
    ///
    /// Rows are pushed in order, so their arena entries form a prefix of
    /// the shared operand arena; the copy truncates the arena right after
    /// the last referenced entry, making the result identical to what
    /// recording only those rows would have produced.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the stored length.
    pub(crate) fn prefix(&self, n: usize) -> Columns {
        assert!(n <= self.len(), "prefix length out of bounds");
        let arena_end = if n == 0 {
            0
        } else {
            let m = self.mem[n - 1];
            m.start as usize + m.nreads as usize + m.nwrites as usize
        };
        Columns {
            kinds: self.kinds[..n].to_vec(),
            kind_data: self.kind_data[..n].to_vec(),
            tids: self.tids[..n].to_vec(),
            funcs: self.funcs[..n].to_vec(),
            pcs: self.pcs[..n].to_vec(),
            reg_reads: self.reg_reads[..n].to_vec(),
            reg_writes: self.reg_writes[..n].to_vec(),
            mem: self.mem[..n].to_vec(),
            arena: self.arena[..arena_end].to_vec(),
        }
    }

    /// Materializes the instruction at `idx` as an owned [`Instr`] view.
    ///
    /// Cheap for the common 0/1-operand shapes; only multi-operand
    /// instructions (syscalls) allocate their operand lists.
    pub fn instr(&self, idx: usize) -> Instr {
        let reads = self.mem_reads(idx);
        let writes = self.mem_writes(idx);
        let mem = match (reads.len(), writes.len()) {
            (0, 0) => MemOps::None,
            (1, 0) => MemOps::Read(reads[0]),
            (0, 1) => MemOps::Write(writes[0]),
            (1, 1) => MemOps::ReadWrite(reads[0], writes[0]),
            _ => MemOps::new(reads.to_vec(), writes.to_vec()),
        };
        Instr {
            tid: self.tid(idx),
            func: self.func(idx),
            pc: self.pc(idx),
            kind: self.kind(idx),
            reg_reads: self.reg_reads(idx),
            reg_writes: self.reg_writes(idx),
            mem,
        }
    }
}

/// A bounds-checked window over one contiguous instruction range of a
/// [`Columns`] store.
///
/// Every pass reads a trace one window at a time through a cursor (see
/// [`crate::ColumnSource`]); indices stay *global* trace positions, so
/// results line up whichever source served the window, but every access
/// is debug-asserted to the window, which catches a pass reading past its
/// boundary — the bug class that silently breaks resident/streamed
/// equivalence.
#[derive(Clone, Copy, Debug)]
pub struct ColumnCursor<'a> {
    cols: &'a Columns,
    /// Global index of the store's physical entry 0 (see
    /// [`Columns::cursor_at`]); 0 for whole-trace cursors.
    base: usize,
    lo: usize,
    hi: usize,
}

impl<'a> ColumnCursor<'a> {
    /// First instruction index of the segment.
    #[inline]
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// One past the last instruction index of the segment.
    #[inline]
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// True if global index `idx` falls inside this window — streamed
    /// consumers use this to fall back gracefully when asked about a
    /// position outside the currently loaded chunk.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        self.lo <= idx && idx < self.hi
    }

    /// Number of instructions in the segment.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True if the segment holds no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// The physical store and the window's `[lo, hi)` in its indices.
    pub(crate) fn physical(&self) -> (&'a Columns, usize, usize) {
        (self.cols, self.lo - self.base, self.hi - self.base)
    }

    /// Global indices of the segment in backward (slicing) order.
    #[inline]
    pub fn rev_indices(&self) -> impl Iterator<Item = usize> {
        (self.lo..self.hi).rev()
    }

    #[inline]
    fn check(&self, idx: usize) {
        debug_assert!(
            self.lo <= idx && idx < self.hi,
            "index {idx} outside segment [{}, {})",
            self.lo,
            self.hi
        );
    }

    /// Opcode class of instruction `idx` (global index).
    #[inline]
    pub fn kind(&self, idx: usize) -> InstrKind {
        self.check(idx);
        self.cols.kind(idx - self.base)
    }

    /// Executing thread of instruction `idx`.
    #[inline]
    pub fn tid(&self, idx: usize) -> ThreadId {
        self.check(idx);
        self.cols.tid(idx - self.base)
    }

    /// Enclosing function of instruction `idx`.
    #[inline]
    pub fn func(&self, idx: usize) -> FuncId {
        self.check(idx);
        self.cols.func(idx - self.base)
    }

    /// Static PC of instruction `idx`.
    #[inline]
    pub fn pc(&self, idx: usize) -> Pc {
        self.check(idx);
        self.cols.pc(idx - self.base)
    }

    /// Registers read by instruction `idx`.
    #[inline]
    pub fn reg_reads(&self, idx: usize) -> RegSet {
        self.check(idx);
        self.cols.reg_reads(idx - self.base)
    }

    /// Registers written by instruction `idx`.
    #[inline]
    pub fn reg_writes(&self, idx: usize) -> RegSet {
        self.check(idx);
        self.cols.reg_writes(idx - self.base)
    }

    /// Memory ranges read by instruction `idx`.
    #[inline]
    pub fn mem_reads(&self, idx: usize) -> &'a [AddrRange] {
        self.check(idx);
        self.cols.mem_reads(idx - self.base)
    }

    /// Memory ranges written by instruction `idx`.
    #[inline]
    pub fn mem_writes(&self, idx: usize) -> &'a [AddrRange] {
        self.check(idx);
        self.cols.mem_writes(idx - self.base)
    }

    /// Materializes the instruction at global index `idx` (see
    /// [`Columns::instr`]).
    pub fn instr(&self, idx: usize) -> Instr {
        self.check(idx);
        self.cols.instr(idx - self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn range(start: u64, len: u32) -> AddrRange {
        AddrRange::new(Addr::new(start), len)
    }

    #[test]
    fn push_then_materialize_roundtrips_every_kind() {
        let kinds = [
            InstrKind::Op,
            InstrKind::Load,
            InstrKind::Store,
            InstrKind::Branch { taken: true },
            InstrKind::Branch { taken: false },
            InstrKind::Call { callee: FuncId(7) },
            InstrKind::Ret,
            InstrKind::Syscall {
                nr: Syscall::Writev,
            },
            InstrKind::Marker,
        ];
        let mut cols = Columns::default();
        for (i, &k) in kinds.iter().enumerate() {
            cols.push(
                ThreadId(i as u8),
                FuncId(i as u32),
                Pc(100 + i as u32),
                k,
                RegSet::EMPTY,
                RegSet::EMPTY,
                &[range(0x100 + i as u64 * 16, 8)],
                &[],
            );
        }
        assert_eq!(cols.len(), kinds.len());
        for (i, &k) in kinds.iter().enumerate() {
            assert_eq!(cols.kind(i), k);
            let instr = cols.instr(i);
            assert_eq!(instr.kind, k);
            assert_eq!(instr.tid, ThreadId(i as u8));
            assert_eq!(instr.pc, Pc(100 + i as u32));
            assert_eq!(instr.mem_reads(), &[range(0x100 + i as u64 * 16, 8)]);
            assert!(instr.mem_writes().is_empty());
        }
    }

    #[test]
    fn operand_slices_split_reads_and_writes() {
        let mut cols = Columns::default();
        let r1 = range(0x10, 8);
        let r2 = range(0x20, 8);
        let w1 = range(0x30, 8);
        cols.push(
            ThreadId(0),
            FuncId(0),
            Pc(1),
            InstrKind::Syscall {
                nr: Syscall::Writev,
            },
            RegSet::EMPTY,
            RegSet::EMPTY,
            &[r1, r2],
            &[w1],
        );
        cols.push(
            ThreadId(0),
            FuncId(0),
            Pc(2),
            InstrKind::Store,
            RegSet::EMPTY,
            RegSet::EMPTY,
            &[],
            &[w1],
        );
        assert_eq!(cols.mem_reads(0), &[r1, r2]);
        assert_eq!(cols.mem_writes(0), &[w1]);
        assert!(cols.mem_reads(1).is_empty());
        assert_eq!(cols.mem_writes(1), &[w1]);
        assert_eq!(cols.arena_len(), 4);
    }

    #[test]
    fn cursor_windows_a_segment_with_global_indices() {
        let mut cols = Columns::default();
        for i in 0..10u32 {
            cols.push(
                ThreadId(0),
                FuncId(i),
                Pc(i),
                InstrKind::Op,
                RegSet::EMPTY,
                RegSet::EMPTY,
                &[],
                &[],
            );
        }
        let cur = cols.cursor(4, 8);
        assert_eq!((cur.lo(), cur.hi(), cur.len()), (4, 8, 4));
        assert!(!cur.is_empty());
        assert_eq!(cur.rev_indices().collect::<Vec<_>>(), vec![7, 6, 5, 4]);
        assert_eq!(cur.func(5), FuncId(5), "indices stay global");
        assert!(cols.cursor(3, 3).is_empty());
    }

    #[test]
    fn offset_cursor_maps_global_indices_to_physical_entries() {
        // A 4-entry store standing in for a decoded chunk whose first
        // instruction is global index 100.
        let mut cols = Columns::default();
        for i in 0..4u32 {
            cols.push(
                ThreadId(0),
                FuncId(i),
                Pc(1000 + i),
                InstrKind::Op,
                RegSet::EMPTY,
                RegSet::EMPTY,
                &[range(0x40 + i as u64 * 16, 8)],
                &[],
            );
        }
        let cur = cols.cursor_at(100, 101, 104);
        assert_eq!((cur.lo(), cur.hi(), cur.len()), (101, 104, 3));
        assert_eq!(cur.func(101), FuncId(1));
        assert_eq!(cur.pc(103), Pc(1003));
        assert_eq!(cur.mem_reads(102), &[range(0x60, 8)]);
        assert_eq!(cur.instr(101).pc, Pc(1001));
        assert!(cur.contains(101) && cur.contains(103));
        assert!(!cur.contains(100) && !cur.contains(104));
    }

    #[test]
    #[should_panic(expected = "offset segment out of bounds")]
    fn offset_cursor_rejects_ranges_past_the_store() {
        let mut cols = Columns::default();
        cols.push(
            ThreadId(0),
            FuncId(0),
            Pc(1),
            InstrKind::Op,
            RegSet::EMPTY,
            RegSet::EMPTY,
            &[],
            &[],
        );
        let _ = cols.cursor_at(10, 10, 12);
    }

    #[test]
    #[should_panic(expected = "segment out of bounds")]
    fn cursor_rejects_out_of_range_segments() {
        let cols = Columns::default();
        let _ = cols.cursor(0, 1);
    }

    #[test]
    fn storage_bytes_counts_columns_and_arena() {
        let mut cols = Columns::default();
        cols.push(
            ThreadId(0),
            FuncId(0),
            Pc(1),
            InstrKind::Load,
            RegSet::EMPTY,
            RegSet::EMPTY,
            &[range(0x10, 8)],
            &[],
        );
        let expected = (Columns::BYTES_PER_INSTR + std::mem::size_of::<AddrRange>()) as u64;
        assert_eq!(cols.storage_bytes(), expected);
    }
}
