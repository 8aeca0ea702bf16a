//! The trace recorder: the crate's "Pin tool".
//!
//! Engine code performs its real computation in Rust and *mirrors* the
//! dataflow through the recorder: every value that matters lives in a
//! virtual-memory cell, and every step emits machine-like instructions whose
//! operand sets reflect exactly which cells and registers were read and
//! written. The result is a single serialized instruction trace over all
//! virtual threads — the same artifact the paper collects by pinning
//! Chromium to one core and attaching Pin (§IV).

use crate::addr::{AddrRange, Region, VirtualMemory};
use crate::columns::Columns;
use crate::func::{FuncId, FunctionRegistry};
use crate::instr::{InstrKind, MemOps, TracePos};
use crate::pc::Pc;
use crate::reg::{Reg, RegSet};
use crate::syscall::Syscall;
use crate::thread::{ThreadId, ThreadKind, ThreadTable};
use crate::trace::{MarkerRecord, Trace};

#[derive(Debug, Default, Clone)]
struct ThreadCtx {
    call_stack: Vec<FuncId>,
    temp_cursor: usize,
    /// Per-thread allocator cursor cell (thread-cache metadata), created
    /// lazily when traced allocations are on.
    alloc_cursor: Option<crate::Addr>,
    /// The cursor of the most recent allocation, consumed by the next
    /// `compute` on this thread (the pointer-materialization dependence).
    alloc_anchor: Option<crate::Addr>,
}

/// Records the dynamic instruction trace of the simulated tab process.
///
/// A `Recorder` owns the virtual address space, the symbol table, and the
/// thread table; engine components borrow it mutably while they run.
/// Threads are cooperative: [`Recorder::switch_to`] changes which thread
/// subsequent instructions are attributed to, mirroring the paper's
/// affinity-pinned sequential execution.
///
/// # Examples
///
/// ```
/// use wasteprof_trace::{Recorder, Region, ThreadKind, site};
///
/// let mut rec = Recorder::new();
/// let main = rec.spawn_thread(ThreadKind::Main, "content::RendererMain");
/// rec.switch_to(main);
/// let cell = rec.alloc_cell(Region::Heap);
/// let f = rec.intern_func("blink::Document::ParseHtml");
/// rec.in_func(site!(), f, |rec| {
///     rec.compute(site!(), &[], &[cell.into()]);
/// });
/// let trace = rec.finish();
/// assert_eq!(trace.len(), 4); // call + (alu-init, store) + ret
/// ```
#[derive(Debug)]
pub struct Recorder {
    mem: VirtualMemory,
    funcs: FunctionRegistry,
    threads: ThreadTable,
    cols: Columns,
    markers: Vec<MarkerRecord>,
    cur: Option<ThreadId>,
    ctxs: Vec<ThreadCtx>,
    traced_alloc: bool,
    alloc_fn: Option<FuncId>,
    /// Reused operand scratch: engine-level emitters assemble their read
    /// lists here instead of allocating a fresh `Vec` per call, so steady-
    /// state recording performs no per-instruction heap allocation.
    scratch_reads: Vec<AddrRange>,
}

impl Recorder {
    /// Creates an empty recorder. Spawn at least one thread before emitting.
    pub fn new() -> Self {
        Recorder {
            mem: VirtualMemory::new(),
            funcs: FunctionRegistry::new(),
            threads: ThreadTable::new(),
            cols: Columns::default(),
            markers: Vec::new(),
            cur: None,
            ctxs: Vec::new(),
            traced_alloc: false,
            alloc_fn: None,
            scratch_reads: Vec::new(),
        }
    }

    /// Turns on traced allocations: every non-stack allocation emits the
    /// allocator's own instructions (a read-modify-write of the thread's
    /// allocator cursor, under `base::allocator::PartitionAlloc::Alloc`),
    /// and the next `compute` on the thread reads the cursor — the
    /// pointer-materialization dependence real traces exhibit. Off by
    /// default so unit tests see exactly the instructions they emit.
    pub fn set_traced_allocations(&mut self, on: bool) {
        self.traced_alloc = on;
    }

    // ----- construction-time registries -------------------------------

    /// Registers a new virtual thread whose outermost frame is `root_fn`,
    /// and makes it current.
    pub fn spawn_thread(&mut self, kind: ThreadKind, root_fn: &str) -> ThreadId {
        let tid = self.threads.register(kind);
        let root = self.funcs.intern(root_fn);
        self.ctxs.push(ThreadCtx {
            call_stack: vec![root],
            ..ThreadCtx::default()
        });
        self.cur = Some(tid);
        tid
    }

    /// Attributes subsequent instructions to `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not spawned by this recorder.
    pub fn switch_to(&mut self, tid: ThreadId) {
        assert!(tid.index() < self.ctxs.len(), "unknown thread {tid:?}");
        self.cur = Some(tid);
    }

    /// The thread receiving instructions right now.
    ///
    /// # Panics
    ///
    /// Panics if no thread has been spawned yet.
    pub fn current_thread(&self) -> ThreadId {
        self.cur.expect("no thread spawned")
    }

    /// Interns a function name, returning its id.
    pub fn intern_func(&mut self, name: &str) -> FuncId {
        self.funcs.intern(name)
    }

    /// The function currently on top of the call stack.
    pub fn current_func(&self) -> FuncId {
        let ctx = &self.ctxs[self.current_thread().index()];
        *ctx.call_stack.last().expect("call stack never empty")
    }

    /// Allocates `len` bytes in `region`, emitting allocator instructions
    /// when traced allocations are on.
    pub fn alloc(&mut self, region: Region, len: u32) -> AddrRange {
        let r = self.mem.alloc(region, len);
        self.note_alloc(region);
        r
    }

    /// Allocates one 8-byte cell in `region`.
    pub fn alloc_cell(&mut self, region: Region) -> crate::Addr {
        let a = self.mem.alloc_cell(region);
        self.note_alloc(region);
        a
    }

    fn note_alloc(&mut self, region: Region) {
        if !self.traced_alloc || self.cur.is_none() || region == Region::Stack {
            return;
        }
        const CALL_PC: Pc = Pc::from_location("recorder.rs:allocator:call");
        const OP_PC: Pc = Pc::from_location("recorder.rs:allocator:op");
        const RET_PC: Pc = Pc::from_location("recorder.rs:allocator:ret");
        let idx = self.current_thread().index();
        let cursor = match self.ctxs[idx].alloc_cursor {
            Some(c) => c,
            None => {
                // The cursor itself is plain metadata, not a traced object.
                let c = self.mem.alloc_cell(Region::Heap);
                self.ctxs[idx].alloc_cursor = Some(c);
                c
            }
        };
        let f = *self
            .alloc_fn
            .get_or_insert_with(|| self.funcs.intern("base::allocator::PartitionAlloc::Alloc"));
        self.enter(CALL_PC, f);
        // Freelist scan and bucket selection feed the header/cursor write.
        let t = self.next_temp();
        self.load(OP_PC.step(1), t, cursor);
        for i in 0..3 {
            self.alu(OP_PC.step(2 + i), t, RegSet::of(&[t]));
        }
        let cursor_range: AddrRange = cursor.into();
        self.emit(
            OP_PC,
            InstrKind::Op,
            RegSet::of(&[t]),
            RegSet::EMPTY,
            &[cursor_range],
            &[cursor_range],
        );
        self.leave(RET_PC);
        self.ctxs[idx].alloc_anchor = Some(cursor);
    }

    fn take_alloc_anchor(&mut self) -> Option<crate::Addr> {
        let idx = self.current_thread().index();
        self.ctxs[idx].alloc_anchor.take()
    }

    /// Allocates stack space for the current thread.
    pub fn alloc_stack(&mut self, len: u32) -> AddrRange {
        self.mem.alloc_stack(self.current_thread(), len)
    }

    /// Direct access to the virtual memory allocator.
    pub fn memory_mut(&mut self) -> &mut VirtualMemory {
        &mut self.mem
    }

    /// The symbol table built so far.
    pub fn functions(&self) -> &FunctionRegistry {
        &self.funcs
    }

    /// Position the *next* emitted instruction will occupy.
    pub fn pos(&self) -> TracePos {
        TracePos(self.cols.len() as u64)
    }

    // ----- low-level emission ------------------------------------------

    fn emit(
        &mut self,
        pc: Pc,
        kind: InstrKind,
        reg_reads: RegSet,
        reg_writes: RegSet,
        reads: &[AddrRange],
        writes: &[AddrRange],
    ) -> TracePos {
        let tid = self.current_thread();
        let func = self.current_func();
        let pos = self.pos();
        self.cols
            .push(tid, func, pc, kind, reg_reads, reg_writes, reads, writes);
        pos
    }

    fn next_temp(&mut self) -> Reg {
        let idx = self.current_thread().index();
        let ctx = &mut self.ctxs[idx];
        let r = Reg::TEMPS[ctx.temp_cursor % Reg::TEMPS.len()];
        ctx.temp_cursor += 1;
        r
    }

    /// Emits a raw instruction (escape hatch for tests and special cases).
    pub fn raw(
        &mut self,
        pc: Pc,
        kind: InstrKind,
        reg_reads: RegSet,
        reg_writes: RegSet,
        mem: MemOps,
    ) -> TracePos {
        self.emit(pc, kind, reg_reads, reg_writes, mem.reads(), mem.writes())
    }

    /// Emits a load of `src` into register `dst`.
    pub fn load(&mut self, pc: Pc, dst: Reg, src: impl Into<AddrRange>) -> TracePos {
        self.emit(
            pc,
            InstrKind::Load,
            RegSet::EMPTY,
            RegSet::of(&[dst]),
            &[src.into()],
            &[],
        )
    }

    /// Emits a store of register `src` into `dst`.
    pub fn store(&mut self, pc: Pc, dst: impl Into<AddrRange>, src: Reg) -> TracePos {
        self.emit(
            pc,
            InstrKind::Store,
            RegSet::of(&[src]),
            RegSet::EMPTY,
            &[],
            &[dst.into()],
        )
    }

    /// Emits a register-only ALU op computing `dst` from `srcs`.
    pub fn alu(&mut self, pc: Pc, dst: Reg, srcs: RegSet) -> TracePos {
        self.emit(pc, InstrKind::Op, srcs, RegSet::of(&[dst]), &[], &[])
    }

    /// Emits a conditional branch whose condition is register `cond`.
    pub fn branch_reg(&mut self, pc: Pc, cond: Reg, taken: bool) -> TracePos {
        self.emit(
            pc,
            InstrKind::Branch { taken },
            RegSet::of(&[cond]),
            RegSet::EMPTY,
            &[],
            &[],
        )
    }

    /// Emits a conditional branch testing memory directly
    /// (like x86 `cmp [mem], imm; jcc`).
    pub fn branch_mem(&mut self, pc: Pc, cond: impl Into<AddrRange>, taken: bool) -> TracePos {
        self.emit(
            pc,
            InstrKind::Branch { taken },
            RegSet::EMPTY,
            RegSet::EMPTY,
            &[cond.into()],
            &[],
        )
    }

    // ----- structured control flow ------------------------------------

    /// Emits a call into `callee`; subsequent instructions are attributed to
    /// it until [`Recorder::leave`].
    pub fn enter(&mut self, pc: Pc, callee: FuncId) {
        self.emit(
            pc,
            InstrKind::Call { callee },
            RegSet::EMPTY,
            RegSet::EMPTY,
            &[],
            &[],
        );
        let tid = self.current_thread();
        self.ctxs[tid.index()].call_stack.push(callee);
    }

    /// Emits a return from the current function.
    ///
    /// # Panics
    ///
    /// Panics if it would pop the thread's root frame.
    pub fn leave(&mut self, pc: Pc) {
        self.emit(pc, InstrKind::Ret, RegSet::EMPTY, RegSet::EMPTY, &[], &[]);
        let tid = self.current_thread();
        let stack = &mut self.ctxs[tid.index()].call_stack;
        assert!(stack.len() > 1, "cannot return from a thread's root frame");
        stack.pop();
    }

    /// Runs `body` inside a call to `callee`: emits the call at `pc`, the
    /// body, and a return at a derived exit site.
    pub fn in_func<R>(
        &mut self,
        pc: Pc,
        callee: FuncId,
        body: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        self.enter(pc, callee);
        let out = body(self);
        self.leave(pc.step(0x5a5a));
        out
    }

    // ----- engine-level operations -------------------------------------

    /// Moves the operand scratch buffer out, filled with `reads` plus any
    /// pending alloc anchor: the first memory read after an allocation also
    /// reads the allocator cursor (the pointer was just materialized from
    /// it). Shared by every engine-level reader so the anchor cannot leak
    /// past an unrelated copy or syscall. Callers hand the buffer back via
    /// [`Recorder::put_scratch`]; the round trip reuses one allocation for
    /// the whole recording.
    fn take_reads_with_anchor(&mut self, reads: &[AddrRange]) -> Vec<AddrRange> {
        let mut v = std::mem::take(&mut self.scratch_reads);
        v.clear();
        v.extend_from_slice(reads);
        if let Some(c) = self.take_alloc_anchor() {
            v.push(c.into());
        }
        v
    }

    fn put_scratch(&mut self, v: Vec<AddrRange>) {
        self.scratch_reads = v;
    }

    /// Emits a realistic load/ALU/store expansion computing `writes` from
    /// `reads`: each read range is loaded and folded into an accumulator,
    /// which is stored to each write range.
    ///
    /// Emits `1 + 2·|reads| + |writes|` instructions at sub-PCs of `pc`.
    pub fn compute(&mut self, pc: Pc, reads: &[AddrRange], writes: &[AddrRange]) -> TracePos {
        let reads = self.take_reads_with_anchor(reads);
        let start = self.pos();
        let acc = self.next_temp();
        // Initialize the accumulator (constant generation).
        self.alu(pc.step(0), acc, RegSet::EMPTY);
        let mut i = 1;
        for &r in &reads {
            let t = self.next_temp();
            let t = if t == acc { self.next_temp() } else { t };
            self.load(pc.step(i), t, r);
            i += 1;
            self.alu(pc.step(i), acc, RegSet::of(&[acc, t]));
            i += 1;
        }
        for &w in writes {
            self.store(pc.step(i), w, acc);
            i += 1;
        }
        self.put_scratch(reads);
        start
    }

    /// Like [`Recorder::compute`], plus `extra` register-only ALU ops to
    /// model heavier arithmetic without extra memory traffic.
    pub fn compute_weighted(
        &mut self,
        pc: Pc,
        reads: &[AddrRange],
        writes: &[AddrRange],
        extra: u32,
    ) -> TracePos {
        let reads = self.take_reads_with_anchor(reads);
        let start = self.pos();
        let acc = self.next_temp();
        self.alu(pc.step(0), acc, RegSet::EMPTY);
        let mut i = 1;
        for &r in &reads {
            let t = self.next_temp();
            let t = if t == acc { self.next_temp() } else { t };
            self.load(pc.step(i), t, r);
            i += 1;
            self.alu(pc.step(i), acc, RegSet::of(&[acc, t]));
            i += 1;
        }
        for _ in 0..extra {
            self.alu(pc.step(i), acc, RegSet::of(&[acc]));
            i += 1;
        }
        for &w in writes {
            self.store(pc.step(i), w, acc);
            i += 1;
        }
        self.put_scratch(reads);
        start
    }

    /// Emits a copy of `src` to `dst` through a register
    /// (load at `pc`, store at a sub-PC).
    pub fn copy(
        &mut self,
        pc: Pc,
        src: impl Into<AddrRange>,
        dst: impl Into<AddrRange>,
    ) -> TracePos {
        let start = self.pos();
        let t = self.next_temp();
        self.load(pc, t, src);
        // A copy into fresh memory dereferences the just-returned pointer:
        // consume the anchor so it cannot leak to an unrelated later read.
        if let Some(c) = self.take_alloc_anchor() {
            let a = self.next_temp();
            let a = if a == t { self.next_temp() } else { a };
            self.load(pc.step(2), a, c);
        }
        self.store(pc.step(1), dst.into(), t);
        start
    }

    /// Emits a system call: loads each argument cell into the kernel
    /// argument registers, then the `syscall` instruction with its ABI
    /// register effects and the given buffer operands.
    ///
    /// # Panics
    ///
    /// Panics if more argument cells are supplied than `nr` takes.
    pub fn syscall(
        &mut self,
        pc: Pc,
        nr: Syscall,
        arg_cells: &[AddrRange],
        buf_reads: Vec<AddrRange>,
        buf_writes: Vec<AddrRange>,
    ) -> TracePos {
        const KERNEL_ARGS: [Reg; 6] = [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::R10, Reg::R8, Reg::R9];
        assert!(
            arg_cells.len() <= nr.arg_count(),
            "{nr} takes {} args",
            nr.arg_count()
        );
        // The kernel entry reads any just-allocated buffer's pointer; the
        // caller already owns the read list, so the anchor appends in place.
        let mut buf_reads = buf_reads;
        if let Some(c) = self.take_alloc_anchor() {
            buf_reads.push(c.into());
        }
        for (i, &cell) in arg_cells.iter().enumerate() {
            self.load(pc.step(i as u32), KERNEL_ARGS[i], cell);
        }
        let (reg_reads, reg_writes) = nr.reg_effects();
        self.emit(
            pc.step(16),
            InstrKind::Syscall { nr },
            reg_reads,
            reg_writes,
            &buf_reads,
            &buf_writes,
        )
    }

    /// Emits the pixel-buffer marker: the point at which `tile` holds final
    /// display pixel values (the paper's `xchg %r13w,%r13w` in
    /// `RasterBufferProvider::PlaybackToMemory`).
    pub fn marker(&mut self, pc: Pc, tile: AddrRange) -> TracePos {
        let r13 = RegSet::of(&[Reg::R13]);
        let pos = self.emit(pc, InstrKind::Marker, r13, r13, &[], &[]);
        self.markers.push(MarkerRecord { pos, tile });
        pos
    }

    /// Finalizes the recording into an immutable [`Trace`].
    pub fn finish(self) -> Trace {
        Trace::from_parts(self.cols, self.funcs, self.threads, self.markers)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;

    fn recorder_with_main() -> Recorder {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "content::RendererMain");
        rec
    }

    #[test]
    fn compute_emits_expected_expansion() {
        let mut rec = recorder_with_main();
        let a = rec.alloc_cell(Region::Heap);
        let b = rec.alloc_cell(Region::Heap);
        let c = rec.alloc_cell(Region::Heap);
        rec.compute(site!(), &[a.into(), b.into()], &[c.into()]);
        let trace = rec.finish();
        // init + 2*(load+alu) + store
        assert_eq!(trace.len(), 6);
        let stores: Vec<_> = trace
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Store))
            .collect();
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].mem_writes(), &[AddrRange::cell(c)]);
    }

    #[test]
    fn call_stack_attribution() {
        let mut rec = recorder_with_main();
        let inner = rec.intern_func("v8::Execute");
        let root = rec.current_func();
        rec.in_func(site!(), inner, |rec| {
            rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        });
        let trace = rec.finish();
        assert_eq!(trace.len(), 3);
        let instrs: Vec<_> = trace.iter().collect();
        assert_eq!(instrs[0].func, root); // the call itself is the caller's
        assert!(matches!(instrs[0].kind, InstrKind::Call { callee } if callee == inner));
        assert_eq!(instrs[1].func, inner);
        assert_eq!(instrs[2].func, inner); // the ret belongs to the callee
        assert!(matches!(instrs[2].kind, InstrKind::Ret));
    }

    #[test]
    #[should_panic(expected = "root frame")]
    fn cannot_pop_root_frame() {
        let mut rec = recorder_with_main();
        rec.leave(site!());
    }

    #[test]
    fn thread_switch_changes_attribution() {
        let mut rec = Recorder::new();
        let main = rec.spawn_thread(ThreadKind::Main, "main");
        let comp = rec.spawn_thread(ThreadKind::Compositor, "cc::CompositorMain");
        rec.switch_to(main);
        rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        rec.switch_to(comp);
        rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        let trace = rec.finish();
        let tids: Vec<_> = trace.iter().map(|i| i.tid).collect();
        assert_eq!(tids, vec![main, comp]);
    }

    #[test]
    fn syscall_loads_args_then_traps() {
        let mut rec = recorder_with_main();
        let fd = rec.alloc_cell(Region::Heap);
        let bufp = rec.alloc_cell(Region::Heap);
        let buf = rec.alloc(Region::Heap, 64);
        rec.syscall(
            site!(),
            Syscall::Sendto,
            &[fd.into(), bufp.into()],
            vec![buf],
            vec![],
        );
        let trace = rec.finish();
        assert_eq!(trace.len(), 3); // 2 arg loads + syscall
        let sys = trace.iter().last().unwrap();
        assert!(matches!(
            sys.kind,
            InstrKind::Syscall {
                nr: Syscall::Sendto
            }
        ));
        assert_eq!(sys.mem_reads(), &[buf]);
        assert!(sys.reg_writes.contains(Reg::Rax));
    }

    #[test]
    fn marker_records_tile() {
        let mut rec = recorder_with_main();
        let tile = rec.alloc(Region::PixelTile, 256);
        rec.marker(site!(), tile);
        let trace = rec.finish();
        assert_eq!(trace.markers().len(), 1);
        assert_eq!(trace.markers()[0].tile, tile);
        assert_eq!(trace.markers()[0].pos.index(), 0);
    }

    #[test]
    fn compute_accumulator_never_collides_with_operand_temp() {
        let mut rec = recorder_with_main();
        let cells: Vec<AddrRange> = (0..16)
            .map(|_| rec.alloc_cell(Region::Heap).into())
            .collect();
        let out = rec.alloc_cell(Region::Heap);
        // Re-run many times so the temp cursor hits every phase.
        for _ in 0..Reg::TEMPS.len() + 2 {
            rec.compute(site!(), &cells, &[out.into()]);
        }
        let trace = rec.finish();
        // Every load's destination must differ from the accumulator used by
        // the ALU op that follows it (otherwise the load would kill the
        // accumulated value).
        let instrs: Vec<_> = trace.iter().collect();
        for w in instrs.windows(2) {
            if let (InstrKind::Load, InstrKind::Op) = (&w[0].kind, &w[1].kind) {
                let loaded = w[0].reg_writes;
                let alu_writes = w[1].reg_writes;
                assert!(
                    loaded.intersection(alu_writes).is_empty(),
                    "load destination {loaded:?} collides with accumulator {alu_writes:?}"
                );
            }
        }
    }
}
