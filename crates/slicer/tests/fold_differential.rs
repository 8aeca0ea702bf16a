//! Differential test of the CFG fold: [`CfgSet::build`] against a model
//! fold written the obvious way, over generated traces that interleave
//! threads, call and return (direct recursion included) and leave frames
//! open at the end. Stray calls and returns (the recorder emits the
//! instruction but keeps its own call stack) make a thread run an
//! instruction outside its current frame's function, as a malformed
//! trace does, so the fold's resync is compared too.
//!
//! The model keeps per-thread stacks of `(func, last pc)`, numbers each
//! function's nodes in the order its sites are first seen, and records
//! edges in the order they are first observed. It never predicts a node:
//! every step looks the PC up. The fold must give the same functions in
//! the same first-entry order, the same `node_of` for every PC, and
//! identical `succs`/`preds` sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wasteprof_slicer::{CfgSet, NodeId};
use wasteprof_trace::{FuncId, InstrKind, MemOps, Pc, Recorder, Reg, RegSet, ThreadKind, Trace};

/// Sites per kind of instruction; every function draws from the same
/// pools, so PCs repeat across functions as well as within one.
const STEP_SITES: u32 = 6;
const CALL_SITES: u32 = 3;
const RET_SITES: u32 = 2;
/// Threads of a generated trace; the first and last share a root.
const THREADS: u8 = 3;
/// Callable functions besides the roots.
const CALLEES: u32 = 3;
/// A callee id outside the function table, as a corrupted trace names.
const WILD: FuncId = FuncId(9_999);

#[derive(Debug, Clone)]
enum Op {
    /// One instruction at step site `s` of the current function.
    Step(u32),
    /// Switch to thread `t`.
    Switch(u8),
    /// Call callee `f` from call site `s`.
    Call(u32, u32),
    /// Call the current function from call site `s`: direct recursion.
    Recurse(u32),
    /// Return from ret site `s` (skipped at a thread's root).
    Ret(u32),
    /// A call to callee `f` (or to a wild id) whose frame the recorder
    /// never opens: the fold's callee frame then meets an instruction of
    /// the caller.
    StrayCall(Option<u32>, u32),
    /// A return the recorder does not pop: the fold's caller frame then
    /// meets an instruction of the callee. At a thread's root it empties
    /// the fold's stack.
    StrayRet(u32),
}

/// Steps and returns are listed more than once to weight them, so calls
/// nest and unwind.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..STEP_SITES).prop_map(Op::Step),
        (0..STEP_SITES).prop_map(Op::Step),
        (0..STEP_SITES).prop_map(Op::Step),
        (0..THREADS).prop_map(Op::Switch),
        (0..CALLEES, 0..CALL_SITES).prop_map(|(f, s)| Op::Call(f, s)),
        (0..CALL_SITES).prop_map(Op::Recurse),
        (0..RET_SITES).prop_map(Op::Ret),
        (0..RET_SITES).prop_map(Op::Ret),
        (proptest::option::of(0..CALLEES), 0..CALL_SITES).prop_map(|(f, s)| Op::StrayCall(f, s)),
        (0..RET_SITES).prop_map(Op::StrayRet),
    ]
}

/// Records `ops` on three threads; `stray` keeps the stray ops, so the
/// trace is well formed exactly when it is false.
fn record(ops: &[Op], stray: bool) -> Trace {
    let mut rec = Recorder::new();
    let kinds = [ThreadKind::Main, ThreadKind::Compositor, ThreadKind::Other];
    let roots = ["main", "worker", "main"];
    let tids: Vec<_> = (0..THREADS as usize)
        .map(|t| rec.spawn_thread(kinds[t], roots[t]))
        .collect();
    let callees: Vec<FuncId> = (0..CALLEES)
        .map(|f| rec.intern_func(&format!("callee{f}")))
        .collect();
    // Open frames above each thread's root, as the recorder counts them.
    let mut depth = vec![0usize; THREADS as usize];
    let mut cur = THREADS as usize - 1;
    let raw = |rec: &mut Recorder, pc: u32, kind: InstrKind| {
        rec.raw(
            Pc(pc),
            kind,
            RegSet::EMPTY,
            RegSet::EMPTY,
            MemOps::default(),
        );
    };
    for op in ops {
        match *op {
            Op::Step(s) => {
                rec.alu(Pc(100 + s), Reg::Rax, RegSet::EMPTY);
            }
            Op::Switch(t) => {
                cur = t as usize;
                rec.switch_to(tids[cur]);
            }
            Op::Call(f, s) => {
                rec.enter(Pc(200 + s), callees[f as usize]);
                depth[cur] += 1;
            }
            Op::Recurse(s) => {
                let me = rec.current_func();
                rec.enter(Pc(200 + s), me);
                depth[cur] += 1;
            }
            Op::Ret(s) if depth[cur] > 0 => {
                rec.leave(Pc(300 + s));
                depth[cur] -= 1;
            }
            Op::Ret(_) => {}
            Op::StrayCall(f, s) if stray => {
                let callee = f.map_or(WILD, |f| callees[f as usize]);
                raw(&mut rec, 200 + s, InstrKind::Call { callee });
            }
            Op::StrayRet(s) if stray => raw(&mut rec, 300 + s, InstrKind::Ret),
            Op::StrayCall(..) | Op::StrayRet(_) => {}
        }
    }
    rec.finish()
}

/// One function's CFG as the model builds it: node `i` is `pcs[i]`
/// (`None` for the entry and exit), with its edge lists.
struct ModelCfg {
    func: FuncId,
    pcs: Vec<Option<Pc>>,
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
}

impl ModelCfg {
    fn new(func: FuncId) -> Self {
        ModelCfg {
            func,
            pcs: vec![None, None],
            succs: vec![Vec::new(), Vec::new()],
            preds: vec![Vec::new(), Vec::new()],
        }
    }

    /// The node of `pc`, numbered on first sight; `None` is the entry.
    fn node(&mut self, pc: Option<Pc>) -> u32 {
        let Some(pc) = pc else { return 0 };
        if let Some(i) = self.pcs.iter().position(|&p| p == Some(pc)) {
            return i as u32;
        }
        self.pcs.push(Some(pc));
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        (self.pcs.len() - 1) as u32
    }

    fn edge(&mut self, from: u32, to: u32) {
        if !self.succs[from as usize].contains(&to) {
            self.succs[from as usize].push(to);
            self.preds[to as usize].push(from);
        }
    }
}

/// The index of `func`'s model CFG, created when a frame of it first
/// opens.
fn model_of(cfgs: &mut Vec<ModelCfg>, func: FuncId) -> usize {
    match cfgs.iter().position(|c| c.func == func) {
        Some(i) => i,
        None => {
            cfgs.push(ModelCfg::new(func));
            cfgs.len() - 1
        }
    }
}

/// The model fold. A thread whose stack is empty, or whose top frame
/// belongs to another function, gets a fresh frame of the instruction's
/// function in place of its top; frames still open at the end reach the
/// exit, thread by thread in id order and each stack from the top.
fn model_fold(trace: &Trace) -> Vec<ModelCfg> {
    const EXIT: u32 = 1;
    let mut cfgs = Vec::new();
    let mut stacks: BTreeMap<u8, Vec<(FuncId, Option<Pc>)>> = BTreeMap::new();
    for ins in trace.iter() {
        let stack = stacks.entry(ins.tid.0).or_default();
        if stack.last().map(|&(f, _)| f) != Some(ins.func) {
            stack.pop();
            stack.push((ins.func, None));
            model_of(&mut cfgs, ins.func);
        }
        let top = stack.last_mut().expect("frame just pushed");
        let c = model_of(&mut cfgs, ins.func);
        let from = cfgs[c].node(top.1);
        let to = cfgs[c].node(Some(ins.pc));
        cfgs[c].edge(from, to);
        top.1 = Some(ins.pc);
        match ins.kind {
            InstrKind::Call { callee } => {
                model_of(&mut cfgs, callee);
                stack.push((callee, None));
            }
            InstrKind::Ret => {
                cfgs[c].edge(to, EXIT);
                stack.pop();
            }
            _ => {}
        }
    }
    for stack in stacks.values_mut() {
        while let Some((func, last)) = stack.pop() {
            let c = model_of(&mut cfgs, func);
            let from = cfgs[c].node(last);
            cfgs[c].edge(from, EXIT);
        }
    }
    cfgs
}

fn assert_fold_matches_model(trace: &Trace) -> Result<(), TestCaseError> {
    let set = CfgSet::build(trace);
    let model = model_fold(trace);
    let funcs: Vec<FuncId> = set.iter().map(|(&f, _)| f).collect();
    let model_funcs: Vec<FuncId> = model.iter().map(|m| m.func).collect();
    prop_assert_eq!(funcs, model_funcs);
    let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
    for m in &model {
        let cfg = set.get(m.func).expect("every model function has a CFG");
        prop_assert_eq!(cfg.func(), m.func);
        prop_assert_eq!(cfg.len(), m.pcs.len(), "node count of {:?}", m.func);
        let sites = (100..100 + STEP_SITES)
            .chain(200..200 + CALL_SITES)
            .chain(300..300 + RET_SITES);
        for pc in sites.map(Pc) {
            let want = m.pcs.iter().position(|&p| p == Some(pc));
            prop_assert_eq!(
                cfg.node_of(pc),
                want.map(|i| NodeId(i as u32)),
                "node_of({:?}) in {:?}",
                pc,
                m.func
            );
        }
        for (i, id) in cfg.node_ids().enumerate() {
            let node = cfg.node(id);
            prop_assert_eq!(node.pc, m.pcs[i]);
            prop_assert_eq!(&node.succs, &ids(&m.succs[i]), "succs of {:?}", id);
            prop_assert_eq!(&node.preds, &ids(&m.preds[i]), "preds of {:?}", id);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Well-formed traces: every instruction runs in its thread's
    /// current frame.
    #[test]
    fn fold_matches_model_on_well_formed_traces(
        ops in proptest::collection::vec(arb_op(), 0..160),
    ) {
        assert_fold_matches_model(&record(&ops, false))?;
    }

    /// Traces with stray calls and returns: the fold resyncs exactly as
    /// the model does.
    #[test]
    fn fold_matches_model_on_malformed_traces(
        ops in proptest::collection::vec(arb_op(), 0..160),
    ) {
        assert_fold_matches_model(&record(&ops, true))?;
    }
}
