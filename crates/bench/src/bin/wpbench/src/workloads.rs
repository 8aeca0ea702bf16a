//! The four workloads. Each wraps calls to the layers' public functions
//! in spans and checks every output outside its timed windows.
//!
//! | workload | exercises | bypasses |
//! |---|---|---|
//! | `paper` | the whole `run_all` engine: certify, witnesses, static referee | nothing |
//! | `slice` | forward pass and backward slice, witness off | certify, witness, decode |
//! | `streamed` | WPTRACE2 decode and every `_streamed` pass | in-memory traces |
//! | `incremental` | the summary cache: prime and warm re-query per frame | certify, static |

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wasteprof_analysis::CategoryAnalysis;
use wasteprof_bench::engine::{self, EngineOptions, EngineReport, SessionKey};
use wasteprof_browser::Session;
use wasteprof_checker::{certify, certify_streamed, DeadWriteLint, Registry};
use wasteprof_slicer::{
    pixel_criteria, pixel_criteria_streamed, slice, slice_streamed, syscall_criteria, CacheStats,
    Criteria, ForwardPass, SegmentHashes, SliceOptions, SliceResult, SummaryCache,
};
use wasteprof_trace::{
    write_trace2, AnalysisDriver, DecodeStats, Trace, Trace2Stats, TracePos, TraceReader,
};
use wasteprof_workloads::{Benchmark, FrameSession};

use crate::gen;
use crate::run::{Checks, Ctx, Pass, Workload};
use crate::spans::Spans;

/// Hash of a slice's membership: its counts and every member position.
fn members(r: &SliceResult) -> u64 {
    let mut h = DefaultHasher::new();
    (r.considered(), r.slice_count()).hash(&mut h);
    for pos in 0..r.considered() {
        if r.contains(TracePos(pos)) {
            pos.hash(&mut h);
        }
    }
    h.finish()
}

fn record(spans: &mut Spans, key: SessionKey, seed: u64) -> Session {
    spans.time(
        "browser.record",
        |s: &Session| s.trace.len() as u64,
        |_| gen::record(key, seed),
    )
}

fn witnessed() -> SliceOptions {
    SliceOptions {
        witness: true,
        ..SliceOptions::default()
    }
}

/// `run_all` itself: `engine::run` with the default options, checked
/// artifact by artifact against the committed `results/` files. The
/// engine takes no seed, so this workload's input is the canonical set.
pub struct Paper;

impl Workload for Paper {
    /// The committed text and CSV artifacts of `results/`, by file name.
    type Input = BTreeMap<String, Vec<u8>>;

    /// Warms the process up by recording the smallest canonical session,
    /// as the engine's sessions stage does, then loads the references.
    /// Without the warm-up, set-up would be a fraction of a millisecond of
    /// file reads, mostly syscall jitter.
    fn setup(
        &self,
        ctx: &Ctx,
        spans: &mut Spans,
        _: &mut Checks,
        _: bool,
    ) -> (Self::Input, Duration) {
        let t = Instant::now();
        spans.time(
            "browser.record",
            |s: &Session| s.trace.len() as u64,
            |_| Benchmark::AmazonMobile.run(),
        );
        let dir = ctx.root.join("results");
        let mut refs = BTreeMap::new();
        for entry in std::fs::read_dir(&dir).expect("the repository has a results/ directory") {
            let path = entry.expect("readable results/ entry").path();
            // The engine's views emit only .txt and .csv artifacts.
            let is_artifact = path.extension().is_some_and(|e| e == "txt" || e == "csv");
            let name = path.file_name().and_then(|n| n.to_str()).map(str::to_owned);
            if let (true, Some(name)) = (is_artifact, name) {
                let bytes = std::fs::read(&path).expect("readable results/ artifact");
                refs.insert(name, bytes);
            }
        }
        (refs, t.elapsed())
    }

    fn pass(&self, refs: &Self::Input, _: &Ctx, spans: &mut Spans, checks: &mut Checks) -> Pass {
        let t = Instant::now();
        let report = spans.time(
            "bench.engine.run",
            |r: &EngineReport| r.stages.iter().map(|s| s.instructions).sum(),
            |_| engine::run(&EngineOptions::default()),
        );
        let wall = t.elapsed();
        for view in &report.views {
            for (name, content) in &view.artifacts {
                checks.check(
                    refs.get(name).is_some_and(|r| r == content.as_bytes()),
                    || format!("results/{name} differs from the engine's output"),
                );
            }
        }
        Pass {
            items: vec![wall],
            other: Duration::ZERO,
            counters: engine_counters(&report),
        }
    }
}

fn engine_counters(report: &EngineReport) -> Vec<(&'static str, f64)> {
    const STAGES: [(&str, &str); 8] = [
        ("sessions", "bench.engine.sessions_minstr_s"),
        ("forward", "bench.engine.forward_minstr_s"),
        ("slices", "bench.engine.slices_minstr_s"),
        ("analyze", "bench.engine.analyze_minstr_s"),
        ("certify", "bench.engine.certify_minstr_s"),
        ("static", "bench.engine.static_minstr_s"),
        ("incremental", "bench.engine.incremental_minstr_s"),
        ("views", "bench.engine.views_minstr_s"),
    ];
    let mut out = Vec::new();
    for s in &report.stages {
        if let Some((_, metric)) = STAGES.iter().find(|(name, _)| *name == s.name) {
            out.push((*metric, s.instr_per_sec() / 1e6));
        }
        // The engine's sessions and slices stages are the browser's
        // recording and the slicer's backward passes.
        match s.name {
            "sessions" => {
                out.push(("browser.record_ms", s.wall.as_secs_f64() * 1e3));
                out.push(("browser.record_minstr_s", s.instr_per_sec() / 1e6));
            }
            "slices" => out.push(("slicer.slice_ms", s.wall.as_secs_f64() * 1e3)),
            _ => {}
        }
    }
    out.push(("bench.store.sessions_run", f64::from(report.sessions_run)));
    out.push((
        "bench.store.forward_builds",
        f64::from(report.forward_builds),
    ));
    out.push(("bench.store.slices_run", f64::from(report.slices_run)));
    if let Some(c) = &report.incremental {
        out.extend(cache_counters(c));
    }
    out
}

fn cache_counters(c: &CacheStats) -> [(&'static str, f64); 5] {
    [
        ("slicer.incremental.hits", c.hits as f64),
        ("slicer.incremental.misses", c.misses as f64),
        ("slicer.incremental.hit_rate", c.hit_rate()),
        ("slicer.incremental.stitch_reused", c.stitch_reused as f64),
        (
            "slicer.incremental.bytes_held_mb",
            c.bytes_held as f64 / 1e6,
        ),
    ]
}

/// Forward pass plus pixel and syscall slices of the recorded sessions,
/// witness off: the slicer's hot path alone.
pub struct Slice;

pub struct Recorded {
    traces: Vec<Trace>,
    /// Per session, the members of the witnessed (pixel, syscall) slices.
    reference: Vec<(u64, u64)>,
}

impl Workload for Slice {
    type Input = Recorded;

    fn setup(
        &self,
        ctx: &Ctx,
        spans: &mut Spans,
        checks: &mut Checks,
        last: bool,
    ) -> (Recorded, Duration) {
        let t = Instant::now();
        let traces: Vec<Trace> = ctx
            .size
            .sessions
            .iter()
            .map(|&key| record(spans, key, ctx.seed).trace)
            .collect();
        let took = t.elapsed();
        let mut reference = Vec::new();
        if last {
            // Slice once more with witnesses on and certify: the timed
            // slices must have exactly these members.
            for (trace, key) in traces.iter().zip(ctx.size.sessions) {
                let forward = ForwardPass::build(trace);
                let mut certified = |criteria: Criteria, kind: &str| {
                    let r = slice(trace, &forward, &criteria, &witnessed());
                    let diags = certify(trace, &forward, &criteria, &r);
                    checks.check(diags.is_empty(), || {
                        format!(
                            "{} {kind}: {} certify diagnostics",
                            key.label(),
                            diags.len()
                        )
                    });
                    members(&r)
                };
                let pixel = certified(pixel_criteria(trace), "pixel");
                let syscall = certified(syscall_criteria(trace), "syscall");
                reference.push((pixel, syscall));
            }
        }
        (Recorded { traces, reference }, took)
    }

    fn pass(&self, input: &Recorded, ctx: &Ctx, spans: &mut Spans, checks: &mut Checks) -> Pass {
        let opts = SliceOptions::default();
        let mut pass = Pass::default();
        for ((trace, key), want) in input
            .traces
            .iter()
            .zip(ctx.size.sessions)
            .zip(&input.reference)
        {
            let n = trace.len() as u64;
            let t = Instant::now();
            let forward = spans.time("slicer.forward", |_| n, |_| ForwardPass::build(trace));
            let (pixel_c, syscall_c) = spans.time(
                "slicer.criteria",
                |_| n,
                |_| (pixel_criteria(trace), syscall_criteria(trace)),
            );
            let pixel = spans.time("slicer.slice_pixel", SliceResult::considered, |_| {
                slice(trace, &forward, &pixel_c, &opts)
            });
            let syscall = spans.time("slicer.slice_syscall", SliceResult::considered, |_| {
                slice(trace, &forward, &syscall_c, &opts)
            });
            pass.items.push(t.elapsed());
            checks.check(members(&pixel) == want.0, || {
                format!("{} pixel slice differs from the certified one", key.label())
            });
            checks.check(members(&syscall) == want.1, || {
                format!(
                    "{} syscall slice differs from the certified one",
                    key.label()
                )
            });
        }
        pass
    }
}

/// A directory for the run's trace files, removed with the value.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(root: &Path) -> ScratchDir {
        let dir = root
            .join(".wpbench")
            .join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The sessions as WPTRACE2 files, analyzed only through the streamed
/// passes: open, forward, witnessed slice, certify, and one fused
/// analysis sweep (lint battery, dead writes, categories).
pub struct Streamed;

pub struct Written {
    files: Vec<(PathBuf, u64)>,
    bytes_per_instr: f64,
    /// Per session, the members of the in-memory pixel slice.
    reference: Vec<u64>,
    _dir: ScratchDir,
}

impl Workload for Streamed {
    type Input = Written;

    fn setup(
        &self,
        ctx: &Ctx,
        spans: &mut Spans,
        _: &mut Checks,
        last: bool,
    ) -> (Written, Duration) {
        let dir = ScratchDir::new(ctx.root);
        let mut took = Duration::ZERO;
        let (mut files, mut reference) = (Vec::new(), Vec::new());
        let mut file_bytes = 0;
        // One session at a time: record, write, drop.
        for &key in ctx.size.sessions {
            let t = Instant::now();
            let session = record(spans, key, ctx.seed);
            let path = dir.0.join(format!("session{}.wptrace2", files.len()));
            let stats = spans.time(
                "trace.write",
                |s: &Trace2Stats| s.instrs,
                |_| {
                    let file = File::create(&path).expect("create a scratch trace");
                    let mut w = BufWriter::new(file);
                    let stats = write_trace2(&mut w, &session.trace).expect("write WPTRACE2");
                    w.flush().expect("flush the scratch trace");
                    stats
                },
            );
            took += t.elapsed();
            if last {
                let trace = &session.trace;
                let forward = ForwardPass::build(trace);
                let r = slice(
                    trace,
                    &forward,
                    &pixel_criteria(trace),
                    &SliceOptions::default(),
                );
                reference.push(members(&r));
            }
            file_bytes += stats.file_bytes;
            files.push((path, stats.instrs));
        }
        let instrs: u64 = files.iter().map(|f| f.1).sum();
        let input = Written {
            files,
            bytes_per_instr: file_bytes as f64 / instrs.max(1) as f64,
            reference,
            _dir: dir,
        };
        (input, took)
    }

    fn pass(&self, input: &Written, ctx: &Ctx, spans: &mut Spans, checks: &mut Checks) -> Pass {
        let mut pass = Pass::default();
        let mut decode = DecodeStats::default();
        let mut witness_rows = 0;
        let files = input
            .files
            .iter()
            .zip(ctx.size.sessions)
            .zip(&input.reference);
        for (((path, n), key), want) in files {
            let n = *n;
            let t = Instant::now();
            let mut reader = spans.time(
                "trace.open",
                |_| 0,
                |_| {
                    let file = File::open(path).expect("open a scratch trace");
                    TraceReader::open(BufReader::new(file)).expect("read a scratch trace")
                },
            );
            let forward = spans.time(
                "slicer.forward_streamed",
                |_| n,
                |_| ForwardPass::build_streamed(&mut reader).expect("streamed forward pass"),
            );
            let criteria = pixel_criteria_streamed(&reader);
            let result = spans.time("slicer.slice_streamed", SliceResult::considered, |_| {
                slice_streamed(&mut reader, &forward, &criteria, &witnessed())
                    .expect("streamed slice")
            });
            let certified = spans.time(
                "checker.certify_streamed",
                |_| n,
                |_| {
                    certify_streamed(&mut reader, &forward, &criteria, &result)
                        .expect("streamed certify")
                },
            );
            let lints = spans.time(
                "trace.analyze_streamed",
                |_| n,
                |_| {
                    let mut verify = Registry::with_default_lints();
                    let mut verify = verify.as_analysis("verify");
                    let mut dead = Registry::new();
                    dead.register(Box::new(DeadWriteLint::default()));
                    let mut dead = dead.as_analysis("dead-writes");
                    let mut category = CategoryAnalysis::new(&result);
                    let mut driver = AnalysisDriver::new();
                    driver.register(&mut verify);
                    driver.register(&mut dead);
                    driver.register(&mut category);
                    driver.run_streamed(&mut reader).expect("streamed analysis");
                    drop(driver);
                    std::hint::black_box((category.into_breakdown(), dead.take_diags()));
                    verify.take_diags()
                },
            );
            pass.items.push(t.elapsed());
            let label = key.label();
            checks.check(certified.is_empty(), || {
                format!("{label}: {} streamed certify diagnostics", certified.len())
            });
            checks.check(lints.is_empty(), || {
                format!("{label}: {} lint diagnostics", lints.len())
            });
            checks.check(members(&result) == *want, || {
                format!("{label}: streamed slice differs from the in-memory one")
            });
            witness_rows += result.witness().map_or(0, |w| w.len() as u64);
            let d = reader.decode_stats();
            decode.chunks_decoded += d.chunks_decoded;
            decode.decoded_stream_bytes += d.decoded_stream_bytes;
            decode.skipped_stream_bytes += d.skipped_stream_bytes;
        }
        let seen = decode.decoded_stream_bytes + decode.skipped_stream_bytes;
        pass.counters = vec![
            ("slicer.witness_rows", witness_rows as f64),
            ("trace.chunks_decoded", decode.chunks_decoded as f64),
            ("trace.decoded_mb", decode.decoded_stream_bytes as f64 / 1e6),
            (
                "trace.decode_skip_ratio",
                decode.skipped_stream_bytes as f64 / seen.max(1) as f64,
            ),
            ("trace.bytes_per_instr", input.bytes_per_instr),
        ];
        pass
    }
}

/// Seeded Bing browses replayed one frame at a time, each through a fresh
/// summary cache: a prime slice per new frame, then a warm re-query.
///
/// A run pools several browses, one per sub-seed. Which frames force a
/// near-total re-summarization depends on the page content, so one
/// browse's cost swings with its seed; the pool averages that out.
pub struct Incremental;

pub struct Browse {
    frames: FrameSession,
    /// From-scratch slices of every sixth frame, by frame index.
    reference: Vec<(usize, SliceResult)>,
}

impl Workload for Incremental {
    type Input = Vec<Browse>;

    fn setup(
        &self,
        ctx: &Ctx,
        spans: &mut Spans,
        _: &mut Checks,
        last: bool,
    ) -> (Vec<Browse>, Duration) {
        let t = Instant::now();
        let pool = ctx.size.browses as u64;
        let sessions: Vec<FrameSession> = (0..pool)
            .map(|j| {
                spans.time(
                    "browser.record",
                    |f: &FrameSession| f.session.trace.len() as u64,
                    |_| {
                        gen::bing_frames(
                            ctx.size.frames,
                            ctx.seed.wrapping_mul(pool).wrapping_add(j),
                        )
                    },
                )
            })
            .collect();
        let took = t.elapsed();
        let browses = sessions
            .into_iter()
            .map(|frames| {
                let mut reference = Vec::new();
                if last {
                    for k in (0..frames.frames()).step_by(6) {
                        let frame = frames.frame_trace(k);
                        let forward = ForwardPass::build(&frame);
                        let criteria = pixel_criteria(&frame);
                        let r = slice(&frame, &forward, &criteria, &SliceOptions::default());
                        reference.push((k, r));
                    }
                }
                Browse { frames, reference }
            })
            .collect();
        (browses, took)
    }

    fn pass(&self, input: &Vec<Browse>, _: &Ctx, spans: &mut Spans, checks: &mut Checks) -> Pass {
        let opts = SliceOptions::default();
        let mut pass = Pass::default();
        let mut totals = CacheStats::default();
        for (b, browse) in input.iter().enumerate() {
            let mut cache = SummaryCache::new();
            let mut hashes: Option<SegmentHashes> = None;
            for k in 0..browse.frames.frames() {
                // Materialized outside the timed windows, one frame at a time.
                let frame = browse.frames.frame_trace(k);
                let n = frame.len() as u64;
                let appended = n - hashes.as_ref().map_or(0, |h| h.len() as u64);
                let t = Instant::now();
                let h = spans.time(
                    "slicer.hashes",
                    |_| appended,
                    |_| match &hashes {
                        None => SegmentHashes::compute(&frame),
                        Some(prev) => prev.extend_appended(&frame),
                    },
                );
                let criteria = pixel_criteria(&frame);
                let prime = spans.time(
                    "slicer.incremental_prime",
                    |_| n,
                    |_| cache.slice_with_hashes(&frame, &h, &criteria, &opts),
                );
                pass.items.push(t.elapsed());
                let t = Instant::now();
                let warm = spans.time(
                    "slicer.incremental_warm",
                    |_| n,
                    |_| cache.slice_with_hashes(&frame, &h, &criteria, &opts),
                );
                pass.other += t.elapsed();
                checks.check(prime == warm, || {
                    format!("browse {b} frame {k}: warm re-query differs from prime")
                });
                if let Some((_, scratch)) = browse.reference.iter().find(|(j, _)| *j == k) {
                    checks.check(prime == *scratch, || {
                        format!("browse {b} frame {k}: incremental slice differs from slice()")
                    });
                }
                hashes = Some(h);
            }
            let s = cache.stats();
            totals.hits += s.hits;
            totals.misses += s.misses;
            totals.stitch_reused += s.stitch_reused;
            totals.bytes_held = totals.bytes_held.max(s.bytes_held);
        }
        pass.counters = cache_counters(&totals).to_vec();
        pass
    }
}
