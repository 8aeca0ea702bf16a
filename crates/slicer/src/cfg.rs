//! Dynamic control-flow graph construction (forward pass, part 1).
//!
//! The profiler "builds a Control Flow Graph for each function/procedure
//! from the trace of dynamically executed instructions. Boundaries of
//! functions/procedures are identified through matching call and return
//! instructions" (§III-A). Building from the *dynamic* trace is essential:
//! indirect-branch targets cannot be found statically, so a node's
//! successors are exactly the static PCs observed to follow it in some
//! execution of the function.

use std::collections::HashMap;

use wasteprof_trace::{ColumnCursor, ColumnSource, FuncId, InstrKind, Pc, ThreadId, Trace};

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
    /// Observed successors.
    pub succs: Vec<NodeId>,
    /// Observed predecessors.
    pub preds: Vec<NodeId>,
}

/// The dynamic CFG of one function.
#[derive(Clone, Debug)]
pub struct Cfg {
    func: FuncId,
    nodes: Vec<CfgNode>,
    by_pc: HashMap<Pc, NodeId>,
}

impl Cfg {
    fn new(func: FuncId) -> Self {
        let entry = CfgNode {
            pc: None,
            succs: Vec::new(),
            preds: Vec::new(),
        };
        let exit = CfgNode {
            pc: None,
            succs: Vec::new(),
            preds: Vec::new(),
        };
        Cfg {
            func,
            nodes: vec![entry, exit],
            by_pc: HashMap::new(),
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

    /// True only for a never-executed function (cannot happen in practice).
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

    fn intern(&mut self, pc: Pc) -> NodeId {
        if let Some(&id) = self.by_pc.get(&pc) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(CfgNode {
            pc: Some(pc),
            succs: Vec::new(),
            preds: Vec::new(),
        });
        self.by_pc.insert(pc, id);
        id
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.nodes[from.index()].succs.contains(&to) {
            self.nodes[from.index()].succs.push(to);
            self.nodes[to.index()].preds.push(from);
        }
    }
}

/// Per-thread, per-frame cursor used while folding the trace into CFGs.
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    last: Option<NodeId>,
}

/// The trace-folding state of [`CfgSet::build`], fed window by window
/// from any [`ColumnSource`].
#[derive(Debug, Default)]
struct CfgBuilder {
    cfgs: HashMap<FuncId, Cfg>,
    stacks: HashMap<ThreadId, Vec<Frame>>,
}

impl CfgBuilder {
    fn new() -> Self {
        CfgBuilder::default()
    }

    /// Folds one window of instructions in. Windows must arrive in trace
    /// order and tile the trace without gaps.
    fn feed(&mut self, cur: &ColumnCursor<'_>) {
        // Iterate the columns directly: this pass reads only the thread,
        // function, PC, and kind fields, so materializing whole `Instr`
        // views would drag every operand through the cache for nothing.
        for idx in cur.lo()..cur.hi() {
            let func = cur.func(idx);
            let stack = self.stacks.entry(cur.tid(idx)).or_default();
            if stack.is_empty() {
                // First sight of this thread: its root function never had
                // a call emitted, so open its frame here.
                stack.push(Frame { func, last: None });
            }
            CfgSet::step(&mut self.cfgs, stack, func, cur.pc(idx), cur.kind(idx));
        }
    }

    /// Closes every frame still open at the end of the trace and returns
    /// the finished set.
    fn finish(mut self) -> CfgSet {
        for stack in self.stacks.values_mut() {
            while let Some(frame) = stack.pop() {
                let cfg = self
                    .cfgs
                    .entry(frame.func)
                    .or_insert_with(|| Cfg::new(frame.func));
                let from = frame.last.unwrap_or(NodeId::ENTRY);
                cfg.add_edge(from, NodeId::EXIT);
            }
        }
        CfgSet { cfgs: self.cfgs }
    }
}

/// All per-function CFGs discovered in a trace.
#[derive(Debug, Clone, Default)]
pub struct CfgSet {
    cfgs: HashMap<FuncId, Cfg>,
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

    fn step(
        cfgs: &mut HashMap<FuncId, Cfg>,
        stack: &mut Vec<Frame>,
        func: FuncId,
        pc: Pc,
        kind: InstrKind,
    ) {
        let frame = stack.last_mut().expect("frame exists");
        debug_assert_eq!(
            frame.func, func,
            "instruction attributed outside current frame"
        );
        let cfg = cfgs.entry(func).or_insert_with(|| Cfg::new(func));
        let node = cfg.intern(pc);
        let from = frame.last.unwrap_or(NodeId::ENTRY);
        cfg.add_edge(from, node);
        frame.last = Some(node);

        match kind {
            InstrKind::Call { callee } => {
                stack.push(Frame {
                    func: callee,
                    last: None,
                });
            }
            InstrKind::Ret => {
                // The return leaves the current function: connect it to exit
                // and pop back to the caller, whose cursor stays at the call
                // site so the next caller instruction gets a call→next edge.
                cfg.add_edge(node, NodeId::EXIT);
                stack.pop();
            }
            _ => {}
        }
    }

    /// The CFG of `func`, if it executed.
    pub fn get(&self, func: FuncId) -> Option<&Cfg> {
        self.cfgs.get(&func)
    }

    /// Iterates over all CFGs.
    pub fn iter(&self) -> impl Iterator<Item = (&FuncId, &Cfg)> {
        self.cfgs.iter()
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
