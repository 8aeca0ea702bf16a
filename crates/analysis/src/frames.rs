//! Call-frame and syscall profile of a trace.
//!
//! Reads the kind column for calls, returns and syscalls, and the tid
//! column for per-thread nesting depth. Used by `trace_tool analyze` to
//! summarize arbitrary `WPTRACE2` files.

use wasteprof_trace::{
    AnalysisCtx, AnalysisDriver, ColumnMask, InstrKind, Syscall, Trace, TraceAnalysis,
};

/// Call-frame nesting and syscall counts for one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameProfile {
    /// Total call instructions.
    pub calls: u64,
    /// Total return instructions.
    pub rets: u64,
    /// Returns that popped an empty per-thread stack (a malformed trace;
    /// WP0002 diagnoses them individually).
    pub unmatched_rets: u64,
    /// Deepest call nesting reached on any single thread.
    pub max_depth: u32,
    /// Syscall counts parallel to [`Syscall::ALL`].
    pub syscalls: [u64; Syscall::ALL.len()],
}

impl FrameProfile {
    /// Total syscall instructions.
    pub fn total_syscalls(&self) -> u64 {
        self.syscalls.iter().sum()
    }
}

/// The frame profiler as a fusable [`TraceAnalysis`].
#[derive(Default)]
pub struct FrameAnalysis {
    depth: Vec<u32>,
    profile: FrameProfile,
}

impl FrameAnalysis {
    /// An empty profiler.
    pub fn new() -> FrameAnalysis {
        FrameAnalysis::default()
    }

    /// Computes the profile of an in-memory trace with a solo driver run.
    pub fn profile_trace(trace: &Trace) -> FrameProfile {
        let mut analysis = FrameAnalysis::new();
        let mut driver = AnalysisDriver::new();
        driver.register(&mut analysis);
        driver.run(trace);
        drop(driver);
        analysis.into_profile()
    }

    /// The computed profile; call after the driver run.
    pub fn into_profile(self) -> FrameProfile {
        self.profile
    }
}

impl TraceAnalysis for FrameAnalysis {
    fn name(&self) -> &'static str {
        "frames"
    }

    fn columns(&self) -> ColumnMask {
        ColumnMask::KINDS.union(ColumnMask::TIDS)
    }

    fn begin(&mut self, ctx: &AnalysisCtx<'_>) {
        self.depth = vec![0; ctx.threads.len()];
        self.profile = FrameProfile::default();
    }

    fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
        match ctx.cols.kind(idx) {
            InstrKind::Call { .. } => {
                self.profile.calls += 1;
                let t = ctx.cols.tid(idx).index();
                if let Some(d) = self.depth.get_mut(t) {
                    *d += 1;
                    self.profile.max_depth = self.profile.max_depth.max(*d);
                }
            }
            InstrKind::Ret => {
                self.profile.rets += 1;
                let t = ctx.cols.tid(idx).index();
                match self.depth.get_mut(t) {
                    Some(d) if *d > 0 => *d -= 1,
                    _ => self.profile.unmatched_rets += 1,
                }
            }
            InstrKind::Syscall { nr } => {
                let slot = Syscall::ALL.iter().position(|&s| s == nr).expect("ALL");
                self.profile.syscalls[slot] += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasteprof_trace::{site, Recorder, Region, ThreadKind};

    #[test]
    fn profile_counts_frames_and_syscalls() {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "main");
        let outer = rec.intern_func("outer");
        let inner = rec.intern_func("inner");
        let buf = rec.alloc(Region::Channel, 16);
        rec.in_func(site!(), outer, |rec| {
            rec.in_func(site!(), inner, |rec| {
                rec.compute(site!(), &[], &[buf]);
            });
            rec.syscall(site!(), Syscall::Sendto, &[], vec![buf], vec![]);
        });
        let trace = rec.finish();
        let p = FrameAnalysis::profile_trace(&trace);
        assert_eq!(p.calls, 2);
        assert_eq!(p.rets, 2);
        assert_eq!(p.unmatched_rets, 0);
        assert_eq!(p.max_depth, 2);
        assert_eq!(p.total_syscalls(), 1);
        let sendto = Syscall::ALL
            .iter()
            .position(|&s| s == Syscall::Sendto)
            .unwrap();
        assert_eq!(p.syscalls[sendto], 1);
    }
}
