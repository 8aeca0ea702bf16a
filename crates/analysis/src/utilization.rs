//! CPU utilization over a browsing session (paper Figure 2).
//!
//! The paper plots the main-thread CPU utilization of the tab process over
//! a short Amazon session: a long ~100% stretch while the page loads, then
//! short spikes at each interaction, separated by idle think time. Our
//! virtual time is `instructions + idle ticks`; utilization of a thread in
//! a bucket is the fraction of the bucket's virtual time the thread spent
//! executing.

use wasteprof_browser::IdleSpan;
use wasteprof_trace::{AnalysisCtx, AnalysisDriver, ColumnMask, ThreadId, Trace, TraceAnalysis};

/// A utilization time series for one thread.
#[derive(Debug, Clone)]
pub struct UtilizationSeries {
    /// Per-bucket utilization in `[0, 1]`.
    pub buckets: Vec<f64>,
    /// Virtual-time width of each bucket.
    pub bucket_width: u64,
}

impl UtilizationSeries {
    /// Computes the utilization of `tid` over the session, in `buckets`
    /// equal slices of virtual time. This is a solo-driver run of
    /// [`UtilizationAnalysis`]; fused callers register the analysis
    /// directly and get the same series from one shared sweep.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn compute(
        trace: &Trace,
        idle_spans: &[IdleSpan],
        tid: ThreadId,
        buckets: usize,
    ) -> UtilizationSeries {
        let mut analysis = UtilizationAnalysis::new(idle_spans.to_vec(), tid, buckets);
        let mut driver = AnalysisDriver::new();
        driver.register(&mut analysis);
        driver.run(trace);
        drop(driver);
        analysis.into_series()
    }

    /// Mean utilization over the whole session.
    pub fn mean(&self) -> f64 {
        if self.buckets.is_empty() {
            0.0
        } else {
            self.buckets.iter().sum::<f64>() / self.buckets.len() as f64
        }
    }

    /// Peak bucket utilization.
    pub fn peak(&self) -> f64 {
        self.buckets.iter().copied().fold(0.0, f64::max)
    }
}

/// The Figure 2 computation as a fusable [`TraceAnalysis`]: buckets one
/// thread's instructions over virtual time (`instructions + idle ticks`).
///
/// Subscribes to the tid column only, so a streamed fused run that carries
/// just this analysis decodes two of the eleven segment streams.
pub struct UtilizationAnalysis {
    idle_spans: Vec<IdleSpan>,
    tid: ThreadId,
    buckets: usize,
    width: u64,
    idle_next: usize,
    idle_so_far: u64,
    busy: Vec<u64>,
}

impl UtilizationAnalysis {
    /// An analysis computing `tid`'s utilization in `buckets` equal slices
    /// of virtual time. `idle_spans` must be ordered by position, as the
    /// browser emits them.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn new(idle_spans: Vec<IdleSpan>, tid: ThreadId, buckets: usize) -> UtilizationAnalysis {
        assert!(buckets > 0, "need at least one bucket");
        UtilizationAnalysis {
            idle_spans,
            tid,
            buckets,
            width: 1,
            idle_next: 0,
            idle_so_far: 0,
            busy: Vec::new(),
        }
    }

    /// The computed series; call after the driver run.
    pub fn into_series(self) -> UtilizationSeries {
        UtilizationSeries {
            buckets: self
                .busy
                .iter()
                .map(|&b| (b as f64 / self.width as f64).min(1.0))
                .collect(),
            bucket_width: self.width,
        }
    }
}

impl TraceAnalysis for UtilizationAnalysis {
    fn name(&self) -> &'static str {
        "utilization"
    }

    fn columns(&self) -> ColumnMask {
        ColumnMask::TIDS
    }

    fn begin(&mut self, ctx: &AnalysisCtx<'_>) {
        let total_idle: u64 = self.idle_spans.iter().map(|s| s.ticks).sum();
        let virtual_total = ctx.total as u64 + total_idle;
        self.width = (virtual_total / self.buckets as u64).max(1);
        self.idle_next = 0;
        self.idle_so_far = 0;
        self.busy = vec![0; self.buckets];
    }

    fn on_instr(&mut self, ctx: &AnalysisCtx<'_>, idx: usize) {
        // Virtual timestamp of each instruction = position + idle ticks
        // that occurred before it.
        while let Some(span) = self.idle_spans.get(self.idle_next) {
            if span.at.index() <= idx {
                self.idle_so_far += span.ticks;
                self.idle_next += 1;
            } else {
                break;
            }
        }
        if ctx.cols.tid(idx) != self.tid {
            return;
        }
        let vt = idx as u64 + self.idle_so_far;
        let b = ((vt / self.width) as usize).min(self.buckets - 1);
        self.busy[b] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasteprof_trace::{site, Recorder, Reg, RegSet, ThreadKind, TracePos};

    #[test]
    fn idle_gaps_produce_low_buckets() {
        let mut rec = Recorder::new();
        let main = rec.spawn_thread(ThreadKind::Main, "m");
        // 100 busy instructions...
        for _ in 0..100 {
            rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        }
        let idle_at = rec.pos();
        // ...then 900 ticks of idle, then 10 more instructions.
        for _ in 0..10 {
            rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        }
        let trace = rec.finish();
        let spans = vec![IdleSpan {
            at: idle_at,
            ticks: 900,
        }];
        let series = UtilizationSeries::compute(&trace, &spans, main, 10);
        // Virtual time ~1010, bucket ~101: first bucket saturated, middle
        // ones idle.
        assert!(series.buckets[0] > 0.9, "{:?}", series.buckets);
        assert!(series.buckets[5] < 0.1, "{:?}", series.buckets);
        assert!(series.peak() > 0.9);
        assert!(series.mean() < 0.5);
        let _ = TracePos(0);
    }

    #[test]
    fn only_requested_thread_counts() {
        let mut rec = Recorder::new();
        let main = rec.spawn_thread(ThreadKind::Main, "m");
        let other = rec.spawn_thread(ThreadKind::Io, "io");
        rec.switch_to(other);
        for _ in 0..50 {
            rec.alu(site!(), Reg::Rax, RegSet::EMPTY);
        }
        let trace = rec.finish();
        let series = UtilizationSeries::compute(&trace, &[], main, 5);
        assert!(series.mean() < 1e-9);
    }
}
