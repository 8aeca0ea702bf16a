//! The measurement loop every workload shares, and the metrics it derives.
//!
//! A run sets up its inputs [`Workload::SETUP_REPS`] times, then runs back-to-back
//! passes (a closed loop with one caller) until the requested seconds
//! have elapsed. End-to-end metrics come from untraced passes. With
//! tracing on, passes alternate untraced and traced: the traced ones give
//! the per-layer metrics, and the two halves give the tracing overhead.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::spans::{Phase, Spans};
use crate::stats::{median, peak_rss_mb, reset_peak_rss};
use wasteprof_bench::engine::SessionKey;

/// How much input a run builds.
#[derive(Debug, Clone)]
pub struct Size {
    /// Sessions of the `slice` and `streamed` workloads.
    pub sessions: &'static [SessionKey],
    /// Browses the `incremental` workload pools, one per sub-seed.
    pub browses: usize,
    /// Frames per browse.
    pub frames: usize,
}

pub struct Ctx<'a> {
    pub seed: u64,
    pub size: &'a Size,
    /// The repository root: committed artifacts are read, and scratch
    /// files written, below it.
    pub root: &'a Path,
}

/// Output checks, all made outside the timed windows.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of each item: one verdict on one unit of input (an engine
    /// run, a session, a new frame).
    pub items: Vec<Duration>,
    /// Timed windows that are not items (the warm re-queries).
    pub other: Duration,
    /// Layer counters read from the program's public reports, keyed by
    /// per-layer metric name. A counter takes precedence over the spans
    /// the metric is otherwise derived from.
    pub counters: Vec<(&'static str, f64)>,
}

impl Pass {
    fn wall(&self) -> Duration {
        self.items.iter().sum::<Duration>() + self.other
    }
}

pub trait Workload {
    type Input;

    /// Set-up repetitions per run; `setup_s` is their median.
    const SETUP_REPS: u32 = 3;

    /// Builds the inputs and returns them with the time that counts as
    /// set-up. With `last`, also builds the references the checks compare
    /// against, outside the returned time.
    fn setup(
        &self,
        ctx: &Ctx,
        spans: &mut Spans,
        checks: &mut Checks,
        last: bool,
    ) -> (Self::Input, Duration);

    /// One pass over the inputs; checks its outputs after each timed
    /// window.
    fn pass(&self, input: &Self::Input, ctx: &Ctx, spans: &mut Spans, checks: &mut Checks) -> Pass;
}

/// Where a per-layer metric comes from when no counter supplies it.
enum Source {
    /// Summed self time of these spans in ms, median over set-ups.
    SetupMs(&'static [&'static str]),
    /// Their instructions per µs of self time (Minstr/s), median over set-ups.
    SetupRate(&'static [&'static str]),
    /// Summed self time in ms, median over traced passes.
    PassMs(&'static [&'static str]),
    /// Minstr/s of self time, median over traced passes.
    PassRate(&'static [&'static str]),
    /// Only from [`Pass::counters`]; 0 where no pass reports it.
    Counter,
    /// How much slower traced passes ran than untraced ones, in percent.
    Overhead,
}

const SLICE_CALLS: &[&str] = &[
    "slicer.slice_pixel",
    "slicer.slice_syscall",
    "slicer.slice_streamed",
    "slicer.incremental_prime",
    "slicer.incremental_warm",
];

/// Every per-layer metric: name, unit, and where it comes from. Times in
/// ms are limited to layers every workload exercises; a layer only some
/// workloads reach is reported as a rate or a count, which reads 0 on
/// the others.
const PER_LAYER: &[(&str, &str, Source)] = &[
    (
        "browser.record_ms",
        "ms",
        Source::SetupMs(&["browser.record"]),
    ),
    (
        "browser.record_minstr_s",
        "Minstr/s",
        Source::SetupRate(&["browser.record"]),
    ),
    ("slicer.slice_ms", "ms", Source::PassMs(SLICE_CALLS)),
    (
        "slicer.forward_minstr_s",
        "Minstr/s",
        Source::PassRate(&["slicer.forward"]),
    ),
    (
        "slicer.criteria_minstr_s",
        "Minstr/s",
        Source::PassRate(&["slicer.criteria"]),
    ),
    (
        "slicer.slice_pixel_minstr_s",
        "Minstr/s",
        Source::PassRate(&["slicer.slice_pixel"]),
    ),
    (
        "slicer.slice_syscall_minstr_s",
        "Minstr/s",
        Source::PassRate(&["slicer.slice_syscall"]),
    ),
    (
        "trace.write_minstr_s",
        "Minstr/s",
        Source::SetupRate(&["trace.write"]),
    ),
    ("trace.bytes_per_instr", "B/instr", Source::Counter),
    (
        "slicer.forward_streamed_minstr_s",
        "Minstr/s",
        Source::PassRate(&["slicer.forward_streamed"]),
    ),
    (
        "slicer.slice_streamed_minstr_s",
        "Minstr/s",
        Source::PassRate(&["slicer.slice_streamed"]),
    ),
    (
        "checker.certify_streamed_minstr_s",
        "Minstr/s",
        Source::PassRate(&["checker.certify_streamed"]),
    ),
    (
        "trace.analyze_streamed_minstr_s",
        "Minstr/s",
        Source::PassRate(&["trace.analyze_streamed"]),
    ),
    ("slicer.witness_rows", "count", Source::Counter),
    ("trace.chunks_decoded", "count", Source::Counter),
    ("trace.decoded_mb", "MB", Source::Counter),
    ("trace.decode_skip_ratio", "ratio", Source::Counter),
    (
        "slicer.hashes_minstr_s",
        "Minstr/s",
        Source::PassRate(&["slicer.hashes"]),
    ),
    (
        "slicer.incremental_prime_minstr_s",
        "Minstr/s",
        Source::PassRate(&["slicer.incremental_prime"]),
    ),
    (
        "slicer.incremental_warm_minstr_s",
        "Minstr/s",
        Source::PassRate(&["slicer.incremental_warm"]),
    ),
    ("slicer.incremental.hits", "count", Source::Counter),
    ("slicer.incremental.misses", "count", Source::Counter),
    ("slicer.incremental.hit_rate", "ratio", Source::Counter),
    ("slicer.incremental.stitch_reused", "count", Source::Counter),
    ("slicer.incremental.bytes_held_mb", "MB", Source::Counter),
    (
        "bench.engine.sessions_minstr_s",
        "Minstr/s",
        Source::Counter,
    ),
    ("bench.engine.forward_minstr_s", "Minstr/s", Source::Counter),
    ("bench.engine.slices_minstr_s", "Minstr/s", Source::Counter),
    ("bench.engine.analyze_minstr_s", "Minstr/s", Source::Counter),
    ("bench.engine.certify_minstr_s", "Minstr/s", Source::Counter),
    ("bench.engine.static_minstr_s", "Minstr/s", Source::Counter),
    (
        "bench.engine.incremental_minstr_s",
        "Minstr/s",
        Source::Counter,
    ),
    ("bench.engine.views_minstr_s", "Minstr/s", Source::Counter),
    ("bench.store.sessions_run", "count", Source::Counter),
    ("bench.store.forward_builds", "count", Source::Counter),
    ("bench.store.slices_run", "count", Source::Counter),
    ("bench.trace_overhead_pct", "%", Source::Overhead),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

#[derive(Debug)]
pub struct Outcome {
    pub checks: Checks,
    pub passes: u32,
    /// Wall seconds and peak RSS of each untraced pass, in order.
    pub walls: Vec<(f64, f64)>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub spans: Spans,
}

/// Runs `workload` for `seconds`, with at least one pass (two when
/// traced).
pub fn run<W: Workload>(workload: &W, ctx: &Ctx, seconds: f64, trace: bool) -> Outcome {
    let mut spans = Spans::new(trace);
    let mut checks = Checks::default();

    let mut setup = Vec::new();
    let mut input = None;
    for rep in 0..W::SETUP_REPS {
        spans.set_phase(Phase::Setup(rep));
        // Free the previous inputs first, so set-up never holds two copies.
        drop(input.take());
        let (built, took) = workload.setup(ctx, &mut spans, &mut checks, rep + 1 == W::SETUP_REPS);
        setup.push(took.as_secs_f64());
        input = Some(built);
    }
    let input = input.expect("at least one set-up");

    let min_passes = if trace { 2 } else { 1 };
    let mut untraced: Vec<(f64, f64)> = Vec::new(); // (wall s, peak RSS MB)
    let mut items_ms = Vec::new();
    let mut traced: Vec<(u32, Pass)> = Vec::new();
    let started = Instant::now();
    let mut n = 0;
    loop {
        let traced_pass = trace && n % 2 == 1;
        spans.set_enabled(traced_pass);
        spans.set_phase(Phase::Pass(n));
        reset_peak_rss();
        let pass = spans.time(
            "bench.pass",
            |_| 0,
            |s| workload.pass(&input, ctx, s, &mut checks),
        );
        let rss = peak_rss_mb();
        if traced_pass {
            traced.push((n, pass));
        } else {
            untraced.push((pass.wall().as_secs_f64(), rss));
            items_ms.extend(pass.items.iter().map(|d| d.as_secs_f64() * 1e3));
        }
        n += 1;
        if n >= min_passes && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    drop(input);
    if checks.attempted == 0 {
        checks.check(false, || "the run checked no output".to_owned());
    }

    let walls: Vec<f64> = untraced.iter().map(|u| u.0).collect();
    let rss: Vec<f64> = untraced.iter().map(|u| u.1).collect();
    let e2e = |name, unit, samples: &[f64]| Metric {
        name,
        unit,
        value: median(samples),
        samples: samples.len(),
    };
    let end_to_end = vec![
        e2e("setup_s", "s", &setup),
        e2e("wall_s", "s", &walls),
        e2e("peak_rss_mb", "MB", &rss),
        e2e("item_ms_p50", "ms", &items_ms),
    ];
    let per_layer = if trace {
        per_layer(&spans, &traced, median(&walls))
    } else {
        Vec::new()
    };
    Outcome {
        checks,
        passes: n,
        walls: untraced,
        end_to_end,
        per_layer,
        spans,
    }
}

/// Per-layer metrics from the recorded spans and the traced passes'
/// counters.
fn per_layer(spans: &Spans, traced: &[(u32, Pass)], untraced_wall: f64) -> Vec<Metric> {
    let own = spans.self_times();
    let setups: Vec<u32> = {
        let mut reps: Vec<u32> = spans
            .spans()
            .iter()
            .filter_map(|s| match s.phase {
                Phase::Setup(r) => Some(r),
                Phase::Pass(_) => None,
            })
            .collect();
        reps.dedup();
        reps
    };
    // (self seconds, instructions) of the named spans in one phase.
    let sum = |phase: Phase, names: &[&str]| {
        spans
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.phase == phase && names.contains(&s.name))
            .fold((0.0, 0u64), |(t, n), (s, d)| {
                (t + d.as_secs_f64(), n + s.instrs)
            })
    };
    let ms = |(t, _): (f64, u64)| t * 1e3;
    let rate = |(t, n): (f64, u64)| if t > 0.0 { n as f64 / t / 1e6 } else { 0.0 };
    let over_setups = |f: &dyn Fn((f64, u64)) -> f64, names: &[&str]| {
        let v: Vec<f64> = setups
            .iter()
            .map(|&r| f(sum(Phase::Setup(r), names)))
            .collect();
        (median(&v), v.len())
    };
    let over_passes = |f: &dyn Fn((f64, u64)) -> f64, names: &[&str]| {
        let v: Vec<f64> = traced
            .iter()
            .map(|(p, _)| f(sum(Phase::Pass(*p), names)))
            .collect();
        (median(&v), v.len())
    };

    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let counted: Vec<f64> = traced
                .iter()
                .filter_map(|(_, p)| p.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                .collect();
            let (value, samples) = if !counted.is_empty() {
                (median(&counted), counted.len())
            } else {
                match *source {
                    Source::SetupMs(names) => over_setups(&ms, names),
                    Source::SetupRate(names) => over_setups(&rate, names),
                    Source::PassMs(names) => over_passes(&ms, names),
                    Source::PassRate(names) => over_passes(&rate, names),
                    Source::Counter => (0.0, 0),
                    Source::Overhead => {
                        let walls: Vec<f64> =
                            traced.iter().map(|(_, p)| p.wall().as_secs_f64()).collect();
                        let slower = median(&walls) / untraced_wall.max(1e-9) - 1.0;
                        (slower * 100.0, walls.len())
                    }
                }
            };
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect()
}
