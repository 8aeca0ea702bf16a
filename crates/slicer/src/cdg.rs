//! Control dependence computation (forward pass, part 3).
//!
//! "CDG shows on what branches each instruction is dependent" (§III-A).
//! We use the classic Ferrante–Ottenstein–Warren construction: for every
//! CFG edge `A → B` where `B` does not postdominate `A`, all nodes on the
//! postdominator-tree path from `B` up to (but excluding) `ipdom(A)` are
//! control-dependent on `A`.

use std::collections::HashMap;

use wasteprof_trace::{FuncId, Pc, Trace};

use crate::cfg::{Cfg, CfgSet, NodeId};
use crate::postdom::PostDoms;
use crate::slice::FibBuild;

/// The control-dependence relation of one function.
///
/// Maps each node to the list of *controlling* nodes (branch sites) it is
/// directly control-dependent on.
#[derive(Debug, Clone)]
pub struct Cdg {
    deps: Vec<Vec<NodeId>>,
}

impl Cdg {
    /// Computes control dependences from a CFG and its postdominator tree.
    pub fn compute(cfg: &Cfg, pd: &PostDoms) -> Self {
        let mut deps: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.len()];
        for a in cfg.node_ids() {
            let succs = &cfg.node(a).succs;
            if succs.len() < 2 {
                // Only multi-successor nodes (branches) create control
                // dependences; the virtual entry also qualifies when a
                // function body diverges immediately, which is harmless.
                continue;
            }
            let lim = pd.ipdom(a);
            for &b in succs {
                let mut runner = b;
                loop {
                    if Some(runner) == lim || runner == NodeId::EXIT {
                        break;
                    }
                    if !deps[runner.index()].contains(&a) {
                        deps[runner.index()].push(a);
                    }
                    if runner == a {
                        // A loop branch controls itself; recording it lets
                        // the pending-branch mechanism re-arm across
                        // iterations.
                        break;
                    }
                    match pd.ipdom(runner) {
                        Some(next) => runner = next,
                        None => break,
                    }
                }
            }
        }
        Cdg { deps }
    }

    /// Nodes that directly control `node`.
    pub fn controllers(&self, node: NodeId) -> &[NodeId] {
        self.deps
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Control-dependence maps for every function in a trace, keyed by static
/// location — the form the backward pass consumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlDeps {
    /// `(func, pc)` → controlling branch PCs within the same function.
    by_loc: HashMap<(FuncId, Pc), Vec<Pc>, FibBuild>,
}

impl ControlDeps {
    /// Computes control dependences for every CFG in `cfgs`.
    pub fn compute(cfgs: &CfgSet) -> Self {
        let mut by_loc = HashMap::default();
        for (&func, cfg) in cfgs.iter() {
            let pd = PostDoms::compute(cfg);
            let cdg = Cdg::compute(cfg, &pd);
            for node in cfg.node_ids() {
                let Some(pc) = cfg.node(node).pc else {
                    continue;
                };
                let controllers: Vec<Pc> = cdg
                    .controllers(node)
                    .iter()
                    .filter_map(|&c| cfg.node(c).pc)
                    .collect();
                if !controllers.is_empty() {
                    by_loc.insert((func, pc), controllers);
                }
            }
        }
        ControlDeps { by_loc }
    }

    /// Convenience: build straight from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::compute(&CfgSet::build(trace))
    }

    /// Branch PCs that the instruction at `(func, pc)` is directly
    /// control-dependent on.
    pub fn controllers(&self, func: FuncId, pc: Pc) -> &[Pc] {
        self.by_loc
            .get(&(func, pc))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of locations with at least one controller.
    pub fn len(&self) -> usize {
        self.by_loc.len()
    }

    /// True if no control dependences exist (straight-line trace).
    pub fn is_empty(&self) -> bool {
        self.by_loc.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasteprof_trace::{site, Recorder, Reg, RegSet, Region, ThreadKind};

    #[test]
    fn then_block_depends_on_branch_join_does_not() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let f = rec.intern_func("diamond");
        let cell = rec.alloc_cell(Region::Heap);
        let callsite = site!();
        let br = site!();
        let then_s = site!();
        let join_s = site!();
        // Each path through the diamond is a separate invocation, so the
        // merged CFG is a true diamond and not an artificial loop.
        rec.in_func(callsite, f, |rec| {
            rec.branch_mem(br, cell, true);
            rec.alu(then_s, Reg::Rax, RegSet::EMPTY);
            rec.alu(join_s, Reg::Rax, RegSet::EMPTY);
        });
        rec.in_func(callsite, f, |rec| {
            rec.branch_mem(br, cell, false);
            rec.alu(join_s, Reg::Rax, RegSet::EMPTY);
        });
        let trace = rec.finish();
        let deps = ControlDeps::from_trace(&trace);
        assert_eq!(deps.controllers(f, then_s), &[br]);
        assert!(deps.controllers(f, join_s).is_empty());
        assert!(deps.controllers(f, br).is_empty());
    }

    #[test]
    fn loop_body_depends_on_loop_branch() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let root = rec.current_func();
        let cell = rec.alloc_cell(Region::Heap);
        let head = site!();
        let body = site!();
        for _ in 0..2 {
            rec.branch_mem(head, cell, true);
            rec.alu(body, Reg::Rax, RegSet::EMPTY);
        }
        rec.branch_mem(head, cell, false);
        let trace = rec.finish();
        let deps = ControlDeps::from_trace(&trace);
        assert_eq!(deps.controllers(root, body), &[head]);
        // The loop branch controls its own re-execution.
        assert_eq!(deps.controllers(root, head), &[head]);
    }

    #[test]
    fn nested_branches_chain() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let root = rec.current_func();
        let c1 = rec.alloc_cell(Region::Heap);
        let c2 = rec.alloc_cell(Region::Heap);
        let f = rec.intern_func("nested");
        let callsite = site!();
        let outer = site!();
        let inner = site!();
        let deep = site!();
        let join = site!();
        let _ = root;
        // outer taken -> inner taken -> deep -> join
        rec.in_func(callsite, f, |rec| {
            rec.branch_mem(outer, c1, true);
            rec.branch_mem(inner, c2, true);
            rec.alu(deep, Reg::Rax, RegSet::EMPTY);
            rec.alu(join, Reg::Rax, RegSet::EMPTY);
        });
        // outer taken -> inner not taken -> join
        rec.in_func(callsite, f, |rec| {
            rec.branch_mem(outer, c1, true);
            rec.branch_mem(inner, c2, false);
            rec.alu(join, Reg::Rax, RegSet::EMPTY);
        });
        // outer not taken -> join
        rec.in_func(callsite, f, |rec| {
            rec.branch_mem(outer, c1, false);
            rec.alu(join, Reg::Rax, RegSet::EMPTY);
        });
        let trace = rec.finish();
        let deps = ControlDeps::from_trace(&trace);
        assert_eq!(deps.controllers(f, deep), &[inner]);
        assert_eq!(deps.controllers(f, inner), &[outer]);
        assert!(deps.controllers(f, join).is_empty());
    }

    #[test]
    fn straight_line_has_no_dependences() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        let trace = rec.finish();
        let deps = ControlDeps::from_trace(&trace);
        assert!(deps.is_empty());
    }
}
