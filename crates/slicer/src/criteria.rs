//! Slicing criteria: `(program point, set of variables)` pairs (§II-C).
//!
//! Two browser-independent criterion families are provided, matching §IV-C:
//!
//! * [`pixel_criteria`] — the values of the pixels buffer at every point
//!   where it holds final display pixels (the marker instructions logged by
//!   the rasterizer).
//! * [`syscall_criteria`] — the values read by any system call: everything
//!   the process communicates to the outside world (network, display,
//!   audio). This slice is by construction a superset of the pixel slice
//!   whenever the framebuffer is handed to the display through a syscall.

use wasteprof_trace::{AddrRange, ColumnSource, InstrKind, RegSet, Trace, TracePos};

/// One slicing criterion: at `pos`, the given memory ranges and registers
/// are declared *necessary*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicingCriterion {
    /// The program point (position in the trace).
    pub pos: TracePos,
    /// Memory ranges whose values at `pos` are necessary.
    pub mem: Vec<AddrRange>,
    /// Registers (in the executing thread's context) whose values are
    /// necessary.
    pub regs: RegSet,
    /// If true, the instruction at `pos` itself joins the slice (used for
    /// syscalls, which are themselves the communication).
    pub include_instr: bool,
}

impl SlicingCriterion {
    /// Criterion over memory ranges only.
    pub fn mem_at(pos: TracePos, mem: Vec<AddrRange>) -> Self {
        SlicingCriterion {
            pos,
            mem,
            regs: RegSet::EMPTY,
            include_instr: false,
        }
    }
}

/// A set of criteria, indexed by trace position for the backward pass.
#[derive(Debug, Clone, Default)]
pub struct Criteria {
    items: Vec<SlicingCriterion>,
}

impl Criteria {
    /// Creates a criteria set from individual criteria.
    pub fn new(mut items: Vec<SlicingCriterion>) -> Self {
        items.sort_by_key(|c| c.pos);
        Criteria { items }
    }

    /// All criteria, sorted by position.
    pub fn items(&self) -> &[SlicingCriterion] {
        &self.items
    }

    /// Number of criteria.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if there are no criteria (the slice will be empty).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl FromIterator<SlicingCriterion> for Criteria {
    fn from_iter<I: IntoIterator<Item = SlicingCriterion>>(iter: I) -> Self {
        Criteria::new(iter.into_iter().collect())
    }
}

/// Builds pixel-buffer criteria from the trace's marker records.
///
/// Every marker is a point where a tile buffer contains final display pixel
/// values; the criterion makes that buffer live there.
pub fn pixel_criteria(trace: &Trace) -> Criteria {
    pixel_criteria_streamed(&trace)
}

/// [`pixel_criteria`] over any [`ColumnSource`]. Markers live in a
/// `WPTRACE2` footer, so a reader needs no segment reads at all.
pub fn pixel_criteria_streamed<S: ColumnSource>(src: &S) -> Criteria {
    src.markers()
        .iter()
        .map(|m| SlicingCriterion::mem_at(m.pos, vec![m.tile]))
        .collect()
}

/// Builds syscall criteria: at every *output* syscall, the values it reads
/// (payload buffers and argument registers) are necessary, and the syscall
/// itself is part of the slice.
///
/// Input syscalls (e.g. `recvfrom`) are not criteria — their buffers only
/// become live if something downstream that is already necessary reads
/// them.
pub fn syscall_criteria(trace: &Trace) -> Criteria {
    let Ok(criteria) = syscall_criteria_streamed(&mut { trace });
    criteria
}

/// [`syscall_criteria`] over any [`ColumnSource`]: one forward pass,
/// holding only a reader's bounded chunk window in memory.
///
/// # Errors
///
/// Any read or decode error of the source.
pub fn syscall_criteria_streamed<S: ColumnSource>(src: &mut S) -> Result<Criteria, S::Error> {
    let mut items = Vec::new();
    let n = src.len();
    src.stream_range(0, n, |cur| {
        for idx in cur.lo()..cur.hi() {
            if let InstrKind::Syscall { nr } = cur.kind(idx) {
                if !nr.is_output() {
                    continue;
                }
                items.push(SlicingCriterion {
                    pos: TracePos(idx as u64),
                    mem: cur.mem_reads(idx).to_vec(),
                    regs: cur.reg_reads(idx),
                    include_instr: true,
                });
            }
        }
    })?;
    Ok(Criteria::new(items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasteprof_trace::{site, Recorder, Region, Syscall, ThreadKind};

    #[test]
    fn pixel_criteria_follow_markers() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let t1 = rec.alloc(Region::PixelTile, 64);
        let t2 = rec.alloc(Region::PixelTile, 64);
        rec.marker(site!(), t1);
        rec.marker(site!(), t2);
        let trace = rec.finish();
        let c = pixel_criteria(&trace);
        assert_eq!(c.len(), 2);
        assert_eq!(c.items()[0].mem, vec![t1]);
        assert_eq!(c.items()[1].mem, vec![t2]);
        assert!(!c.items()[0].include_instr);
    }

    #[test]
    fn syscall_criteria_only_cover_output_calls() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "root");
        let buf = rec.alloc(Region::Heap, 32);
        rec.syscall(site!(), Syscall::Sendto, &[], vec![buf], vec![]);
        rec.syscall(site!(), Syscall::Recvfrom, &[], vec![], vec![buf]);
        rec.syscall(site!(), Syscall::ClockGettime, &[], vec![], vec![buf]);
        let trace = rec.finish();
        let c = syscall_criteria(&trace);
        assert_eq!(c.len(), 1);
        assert_eq!(c.items()[0].mem, vec![buf]);
        assert!(c.items()[0].include_instr);
        assert!(!c.items()[0].regs.is_empty());
    }

    #[test]
    fn criteria_sorted_by_position() {
        let items = vec![
            SlicingCriterion::mem_at(TracePos(20), vec![]),
            SlicingCriterion::mem_at(TracePos(5), vec![]),
        ];
        let c = Criteria::new(items);
        assert!(c.items()[0].pos < c.items()[1].pos);
    }
}
