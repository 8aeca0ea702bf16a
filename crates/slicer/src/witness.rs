//! Dependence witnesses: the structural reasons slice members joined.
//!
//! A slice alone is unauditable — the only way to re-check it is to run
//! the slicer again. A *witness* makes it checkable by an independent
//! forward pass (`wasteprof-checker`'s `certify`), which shares no code
//! with the backward walk. The witness holds only what that pass cannot
//! recompute from the trace: one row per member that joined for a
//! *structural* reason — a pending branch ([`WitnessKind::Control`]), an
//! `include_instr` criterion anchor ([`WitnessKind::Criterion`]), or a
//! call whose callee frame holds a later member ([`WitnessKind::Call`]).
//! Every other member joined by liveness kill/gen, and the certifier
//! derives the data edges that justify it from its own last-writer
//! shadows, so such a member gets no row.
//!
//! The backward walk (`slice::Backward`) records each row as its member
//! joins. Its pending-branch map remembers the member that armed each
//! entry, and each dynamic frame remembers the first member found in it,
//! so a row costs no extra pass and no second copy of that bookkeeping.
//! The row depends only on structural state (pending branches, frames,
//! criteria), never on the live sets, so the table is a pure function of
//! `(trace, criteria, bitmap)`.

use wasteprof_trace::TracePos;

/// The structural reason a member joined the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WitnessKind {
    /// The member is a branch the consumer is control-dependent on (a
    /// recovered CDG edge): the walk reached it while the entry the
    /// consumer armed was pending.
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
            WitnessKind::Control => "control",
            WitnessKind::Call => "call",
            WitnessKind::Criterion => "criterion",
        }
    }
}

/// One decoded witness row: the structural reason `member` is in the
/// slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessRow {
    /// The slice member this row justifies.
    pub member: TracePos,
    /// The kind of structural edge.
    pub kind: WitnessKind,
    /// The later member the edge leads to: the control-dependent member
    /// that armed the branch, a member inside the call's frame, or (for
    /// [`WitnessKind::Criterion`]) the member itself.
    pub consumer: TracePos,
}

/// Columnar witness side-table: one row per member with a structural
/// reason, sorted by member position. Stored struct-of-arrays next to
/// [`crate::SliceResult`], 9 bytes per row.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Witnesses {
    members: Vec<u32>,
    kinds: Vec<WitnessKind>,
    consumers: Vec<u32>,
}

impl Witnesses {
    /// Number of rows.
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
            consumer: TracePos(self.consumers[i] as u64),
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

    /// Reverses the row order in place.
    pub(crate) fn reverse(&mut self) {
        self.members.reverse();
        self.kinds.reverse();
        self.consumers.reverse();
    }

    pub(crate) fn push(&mut self, r: WitnessRow) {
        self.members.push(r.member.0 as u32);
        self.kinds.push(r.kind);
        self.consumers.push(r.consumer.0 as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::pixel_criteria;
    use crate::slice::{slice, ForwardPass, SliceOptions};
    use wasteprof_trace::{site, Recorder, Region, ThreadKind, Trace};

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
    fn witness_rows_are_structural() {
        let trace = rich_trace();
        let fwd = ForwardPass::build(&trace);
        let criteria = pixel_criteria(&trace);
        let opts = SliceOptions {
            witness: true,
            ..Default::default()
        };
        let r = slice(&trace, &fwd, &criteria, &opts);

        let w = r.witness().expect("witness requested");
        assert!(
            (w.len() as u64) < r.slice_count(),
            "data-justified members carry no row"
        );
        let mut prev = None;
        for row in w.rows() {
            assert!(r.contains(row.member), "row member must be in the slice");
            assert!(
                prev.is_none_or(|p| p < row.member),
                "rows sorted by member, no duplicates"
            );
            prev = Some(row.member);
            assert!(
                r.contains(row.consumer),
                "consumer {:?} of {:?} must be a member",
                row.consumer,
                row.member
            );
        }
        // The session has both kinds of structural edge.
        for kind in [WitnessKind::Control, WitnessKind::Call] {
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
    fn rows_roundtrip_through_columns() {
        let rows = vec![
            WitnessRow {
                member: TracePos(3),
                kind: WitnessKind::Call,
                consumer: TracePos(9),
            },
            WitnessRow {
                member: TracePos(5),
                kind: WitnessKind::Control,
                consumer: TracePos(7),
            },
        ];
        let w = Witnesses::from_rows(rows.clone());
        assert_eq!(w.len(), 2);
        assert_eq!(w.rows().collect::<Vec<_>>(), rows);
    }
}
