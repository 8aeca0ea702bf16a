//! Dynamic control-flow graph construction (forward pass, part 1).
//!
//! The profiler "builds a Control Flow Graph for each function/procedure
//! from the trace of dynamically executed instructions. Boundaries of
//! functions/procedures are identified through matching call and return
//! instructions" (§III-A). Building from the *dynamic* trace is essential:
//! indirect-branch targets cannot be found statically, so a node's
//! successors are exactly the static PCs observed to follow it in some
//! execution of the function.
//!
//! The fold makes no hash probe per instruction. The CFGs live in an
//! arena, and the `FuncId → slot` map is probed only when a frame opens;
//! each frame caches its slot and its last node. The next node is
//! predicted from the successors of that last node: a successor with the
//! same PC is the next node, and only a miss probes the CFG's `by_pc` map
//! and records a new edge.

use std::collections::HashMap;

use wasteprof_trace::{ColumnCursor, ColumnSource, FuncId, InstrKind, Pc, Trace};

use crate::slice::FibBuild;

/// Index of a node within one function's CFG.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The virtual entry node every CFG has.
    pub const ENTRY: NodeId = NodeId(0);
    /// The virtual exit node every CFG has.
    pub const EXIT: NodeId = NodeId(1);

    /// Dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// One CFG node: a static instruction site, or the virtual entry/exit.
#[derive(Clone, Debug, Default)]
pub struct CfgNode {
    /// The static PC, or `None` for entry/exit.
    pub pc: Option<Pc>,
    /// Observed successors, in order of first observation.
    pub succs: Vec<NodeId>,
    /// Observed predecessors, in order of first observation.
    pub preds: Vec<NodeId>,
}

/// The dynamic CFG of one function. Nodes are numbered in the order their
/// sites were first executed, after the virtual entry and exit.
#[derive(Clone, Debug)]
pub struct Cfg {
    func: FuncId,
    nodes: Vec<CfgNode>,
    by_pc: HashMap<Pc, NodeId, FibBuild>,
}

impl Cfg {
    fn new(func: FuncId) -> Self {
        Cfg {
            func,
            nodes: vec![CfgNode::default(), CfgNode::default()],
            by_pc: HashMap::default(),
        }
    }

    /// The function this CFG describes.
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// Number of nodes, including the virtual entry and exit.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no site of the function was observed: its frame opened
    /// (a call, or the root frame of a thread) but none of its
    /// instructions followed.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// The node for `pc`, if that site was observed in this function.
    pub fn node_of(&self, pc: Pc) -> Option<NodeId> {
        self.by_pc.get(&pc).copied()
    }

    /// Node data.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &CfgNode {
        &self.nodes[id.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The node executed at `pc` right after `from`. A successor of
    /// `from` with that PC is the prediction, and a hit needs neither a
    /// hash probe nor a new edge. On a miss, `pc` is interned and the edge
    /// `from → pc` recorded; it cannot exist yet, since a PC names one
    /// node per function and the scan saw every successor's PC.
    #[inline]
    fn advance(&mut self, from: NodeId, pc: Pc) -> NodeId {
        let nodes = &self.nodes;
        let predicted = nodes[from.index()]
            .succs
            .iter()
            .find(|s| nodes[s.index()].pc == Some(pc));
        if let Some(&next) = predicted {
            return next;
        }
        let fresh = NodeId(self.nodes.len() as u32);
        let to = *self.by_pc.entry(pc).or_insert(fresh);
        if to == fresh {
            self.nodes.push(CfgNode {
                pc: Some(pc),
                ..CfgNode::default()
            });
        }
        self.nodes[from.index()].succs.push(to);
        self.nodes[to.index()].preds.push(from);
        to
    }

    /// Records the edge `from → EXIT` unless it was already observed.
    fn exit_from(&mut self, from: NodeId) {
        if !self.nodes[from.index()].succs.contains(&NodeId::EXIT) {
            self.nodes[from.index()].succs.push(NodeId::EXIT);
            self.nodes[NodeId::EXIT.index()].preds.push(from);
        }
    }
}

/// One open dynamic frame of the fold: its function, that function's
/// arena slot, and the last node it executed (the entry until its first
/// instruction).
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: FuncId,
    slot: u32,
    last: NodeId,
}

/// The trace-folding state of [`CfgSet::build`], fed window by window
/// from any [`ColumnSource`].
#[derive(Debug)]
struct CfgBuilder {
    cfgs: Vec<Cfg>,
    slots: HashMap<FuncId, u32, FibBuild>,
    /// Call stacks indexed by the `u8` thread id.
    stacks: Vec<Vec<Frame>>,
}

impl CfgBuilder {
    fn new() -> Self {
        CfgBuilder {
            cfgs: Vec::new(),
            slots: HashMap::default(),
            stacks: vec![Vec::new(); 256],
        }
    }

    /// A fresh frame of `func` at its entry, giving `func` an arena slot
    /// the first time the trace enters it. The slot map is probed here
    /// only, when a frame opens, not per instruction.
    fn open(
        cfgs: &mut Vec<Cfg>,
        slots: &mut HashMap<FuncId, u32, FibBuild>,
        func: FuncId,
    ) -> Frame {
        let slot = *slots.entry(func).or_insert_with(|| {
            cfgs.push(Cfg::new(func));
            (cfgs.len() - 1) as u32
        });
        Frame {
            func,
            slot,
            last: NodeId::ENTRY,
        }
    }

    /// Folds one window of instructions in. Windows must arrive in trace
    /// order and tile the trace without gaps.
    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        // Iterate the columns directly: this pass reads only the thread,
        // function, PC, and kind fields, so materializing whole `Instr`
        // views would drag every operand through the cache for nothing.
        for idx in cur.lo()..cur.hi() {
            let func = cur.func(idx);
            let stack = &mut self.stacks[cur.tid(idx).0 as usize];
            if stack.last().map(|top| top.func) != Some(func) {
                // An empty stack is the first sight of this thread (its root
                // function never had a call emitted) or a thread whose root
                // returned. A top frame of another function comes only from
                // a malformed trace (an instruction moved past its
                // function's return, a call naming the wrong callee): resync
                // with a fresh frame of `func` in its place, so no edge ever
                // joins two functions.
                stack.pop();
                stack.push(Self::open(&mut self.cfgs, &mut self.slots, func));
            }
            let frame = stack.last_mut().expect("frame just ensured");
            let cfg = &mut self.cfgs[frame.slot as usize];
            let node = cfg.advance(frame.last, cur.pc(idx));
            frame.last = node;
            match cur.kind(idx) {
                InstrKind::Call { callee } => {
                    stack.push(Self::open(&mut self.cfgs, &mut self.slots, callee));
                }
                InstrKind::Ret => {
                    // The return leaves the current function: connect it to
                    // exit and pop back to the caller, whose cursor stays at
                    // the call site so the next caller instruction gets a
                    // call→next edge.
                    cfg.exit_from(node);
                    stack.pop();
                }
                _ => {}
            }
        }
    }

    /// Closes every frame still open at the end of the trace, thread by
    /// thread in id order and each stack from the top, and returns the
    /// finished set.
    fn finish(mut self) -> CfgSet {
        for stack in &mut self.stacks {
            while let Some(frame) = stack.pop() {
                self.cfgs[frame.slot as usize].exit_from(frame.last);
            }
        }
        CfgSet {
            cfgs: self.cfgs,
            slots: self.slots,
        }
    }
}

/// All per-function CFGs discovered in a trace.
#[derive(Debug, Clone, Default)]
pub struct CfgSet {
    /// The arena, in the order the trace first entered each function.
    cfgs: Vec<Cfg>,
    slots: HashMap<FuncId, u32, FibBuild>,
}

impl CfgSet {
    /// Builds the CFG of every function executed in `trace`.
    ///
    /// Functions are delimited by matching calls and returns per thread;
    /// frames still open at the end of the trace are closed with an edge to
    /// the virtual exit so every observed node reaches it.
    pub fn build(trace: &Trace) -> Self {
        let Ok(set) = CfgSet::build_streamed(&mut { trace });
        set
    }

    /// [`CfgSet::build`] over any [`ColumnSource`]: a `WPTRACE2` reader
    /// feeds the fold one bounded chunk window at a time.
    ///
    /// # Errors
    ///
    /// Any read or decode error of the source.
    pub fn build_streamed<S: ColumnSource>(src: &mut S) -> Result<Self, S::Error> {
        let mut b = CfgBuilder::new();
        let n = src.len();
        src.stream_range(0, n, |cur| b.feed(cur))?;
        Ok(b.finish())
    }

    /// The CFG of `func`, if the trace entered it.
    pub fn get(&self, func: FuncId) -> Option<&Cfg> {
        self.slots.get(&func).map(|&slot| &self.cfgs[slot as usize])
    }

    /// Iterates over all CFGs, in the order the trace first entered each
    /// function.
    pub fn iter(&self) -> impl Iterator<Item = (&FuncId, &Cfg)> {
        self.cfgs.iter().map(|cfg| (&cfg.func, cfg))
    }

    /// Number of functions with a CFG.
    pub fn len(&self) -> usize {
        self.cfgs.len()
    }

    /// True if the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.cfgs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasteprof_trace::{site, Recorder, Reg, RegSet, Region, ThreadKind};

    #[test]
    fn straight_line_chain() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let root = rec.current_func();
        let a = site!();
        let b = site!();
        rec.alu(a, Reg::Rax, RegSet::EMPTY);
        rec.alu(b, Reg::Rax, RegSet::EMPTY);
        let trace = rec.finish();
        let set = CfgSet::build(&trace);
        let cfg = set.get(root).unwrap();
        let na = cfg.node_of(a).unwrap();
        let nb = cfg.node_of(b).unwrap();
        assert_eq!(cfg.node(NodeId::ENTRY).succs, vec![na]);
        assert_eq!(cfg.node(na).succs, vec![nb]);
        assert_eq!(cfg.node(nb).succs, vec![NodeId::EXIT]);
    }

    #[test]
    fn branch_gets_both_observed_successors() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let root = rec.current_func();
        let cell = rec.alloc_cell(Region::Heap);
        let br = site!();
        let then_s = site!();
        let join_s = site!();
        // Taken path.
        rec.branch_mem(br, cell, true);
        rec.alu(then_s, Reg::Rax, RegSet::EMPTY);
        rec.alu(join_s, Reg::Rax, RegSet::EMPTY);
        // Not-taken path.
        rec.branch_mem(br, cell, false);
        rec.alu(join_s, Reg::Rax, RegSet::EMPTY);
        let trace = rec.finish();
        let cfg = CfgSet::build(&trace);
        let cfg = cfg.get(root).unwrap();
        let nbr = cfg.node_of(br).unwrap();
        let nthen = cfg.node_of(then_s).unwrap();
        let njoin = cfg.node_of(join_s).unwrap();
        let succs = &cfg.node(nbr).succs;
        assert!(succs.contains(&nthen));
        assert!(succs.contains(&njoin));
        assert_eq!(succs.len(), 2);
    }

    #[test]
    fn loops_create_back_edges() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let root = rec.current_func();
        let cell = rec.alloc_cell(Region::Heap);
        let head = site!();
        let body = site!();
        for _ in 0..3 {
            rec.branch_mem(head, cell, true);
            rec.alu(body, Reg::Rax, RegSet::EMPTY);
        }
        rec.branch_mem(head, cell, false);
        let trace = rec.finish();
        let cfg = CfgSet::build(&trace);
        let cfg = cfg.get(root).unwrap();
        let nhead = cfg.node_of(head).unwrap();
        let nbody = cfg.node_of(body).unwrap();
        assert!(cfg.node(nbody).succs.contains(&nhead), "back edge missing");
        assert!(cfg.node(nhead).succs.contains(&nbody));
        assert!(cfg.node(nhead).succs.contains(&NodeId::EXIT));
    }

    #[test]
    fn calls_delimit_functions() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let root = rec.current_func();
        let callee = rec.intern_func("callee");
        let callsite = site!();
        let after = site!();
        let inner = site!();
        rec.in_func(callsite, callee, |rec| {
            rec.alu(inner, Reg::Rax, RegSet::EMPTY);
        });
        rec.alu(after, Reg::Rax, RegSet::EMPTY);
        let trace = rec.finish();
        let set = CfgSet::build(&trace);

        let caller = set.get(root).unwrap();
        let ncall = caller.node_of(callsite).unwrap();
        let nafter = caller.node_of(after).unwrap();
        // The callee body does not appear in the caller's CFG; the call's
        // successor is the instruction after the call returns.
        assert_eq!(caller.node(ncall).succs, vec![nafter]);

        let callee_cfg = set.get(callee).unwrap();
        let ninner = callee_cfg.node_of(inner).unwrap();
        assert_eq!(callee_cfg.node(NodeId::ENTRY).succs, vec![ninner]);
        // inner -> ret -> exit
        let nret = callee_cfg.node(ninner).succs[0];
        assert!(callee_cfg.node(nret).succs.contains(&NodeId::EXIT));
    }

    #[test]
    fn interleaved_threads_do_not_cross_edges() {
        let mut rec = Recorder::new();
        let t0 = rec.spawn_thread(ThreadKind::Main, "root");
        let t1 = rec.spawn_thread(ThreadKind::Compositor, "root");
        let a = site!();
        let b = site!();
        rec.switch_to(t0);
        rec.alu(a, Reg::Rax, RegSet::EMPTY);
        rec.switch_to(t1);
        rec.alu(b, Reg::Rax, RegSet::EMPTY);
        rec.switch_to(t0);
        rec.alu(b, Reg::Rax, RegSet::EMPTY);
        let trace = rec.finish();
        let set = CfgSet::build(&trace);
        // Both threads run the same root function; edges must reflect each
        // thread's own path (a->b in t0; entry->b in t1), never a->b->a.
        let cfg = set.iter().next().unwrap().1;
        let na = cfg.node_of(a).unwrap();
        let nb = cfg.node_of(b).unwrap();
        assert!(cfg.node(na).succs.contains(&nb));
        assert!(cfg.node(NodeId::ENTRY).succs.contains(&nb)); // from t1
        assert!(!cfg.node(nb).succs.contains(&na));
    }

    #[test]
    fn open_frames_reach_exit() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let callee = rec.intern_func("callee");
        let inner = site!();
        rec.enter(site!(), callee);
        rec.alu(inner, Reg::Rax, RegSet::EMPTY);
        // No leave(): frame is open at end of trace.
        let trace = rec.finish();
        let set = CfgSet::build(&trace);
        let cfg = set.get(callee).unwrap();
        let ninner = cfg.node_of(inner).unwrap();
        assert!(cfg.node(ninner).succs.contains(&NodeId::EXIT));
    }
}
