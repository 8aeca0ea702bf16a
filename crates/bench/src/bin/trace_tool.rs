//! Trace tooling: export a benchmark's instruction trace to disk, inspect
//! a trace file, slice it, verify it, or certify a witnessed slice of it —
//! the paper's workflow of storing traces in stable storage and
//! re-profiling them with different criteria (§III-A).
//!
//! `check` runs the wasteprof-checker battery (happens-before race
//! detector + well-formedness lints); `certify` computes a witnessed
//! backward slice and replays its dependence witness through the
//! independent certifier (codes WP0008-WP0011). Both exit 0 when clean,
//! 1 with findings, 2 on usage errors.
//!
//! `export` writes the chunked, per-column compressed WPTRACE2 format,
//! the only one the tool reads. `slice`/`check`/`certify`/`analyze` load
//! the file into memory by default; with `--out-of-core` they run
//! entirely from it through [`TraceReader`]'s bounded chunk window — the
//! whole trace never lives in memory. Each of those subcommands is one
//! body generic over [`ColumnSource`]; `--out-of-core` only picks which
//! source it opens.
//!
//! `static` needs no trace at all: it runs the wasteprof-staticjs
//! interprocedural analyzer (codes WP0101-WP0106) over a benchmark's
//! script sources, the ahead-of-time counterpart the engine's
//! `static_vs_dynamic` referee scores against execution witnesses;
//! `static --referee` runs the engine's referee ([`engine::referee`])
//! against the site's canonical session and prints that session's block
//! of `results/static_vs_dynamic.txt` ([`engine::referee_block`]).

use std::fmt::Display;
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use wasteprof_analysis::{format_count, thread_rows, FrameAnalysis, TextTable, ThreadRow};
use wasteprof_bench::engine::{self, SessionKey};
use wasteprof_checker::{DeadWriteLint, Diag, Registry};
use wasteprof_slicer::{
    pixel_criteria_streamed, slice_streamed, syscall_criteria_streamed, Criteria, ForwardPass,
    SliceOptions, SliceResult,
};
use wasteprof_staticjs::{Metric, RefereeReport};
use wasteprof_trace::{
    write_trace2, AnalysisDriver, ColumnSource, Trace, TraceIoError, TracePos, TraceReader,
};
use wasteprof_workloads::{bing_frames, Benchmark};

/// Set once stdout's reader has gone away (`trace_tool inspect f | head`).
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout; every stdout line goes through here. A closed
/// pipe ends output quietly, and the subcommand still exits with its own
/// status. Any other write error exits 1.
fn emit(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        } else {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// One consolidated usage table for every subcommand; all usage errors —
/// including unknown flags anywhere — exit 2.
fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         trace_tool export  <amazon_desktop|amazon_mobile|maps|bing> <file> [--frames N]\n  \
         trace_tool inspect <file> [--head N]\n  \
         trace_tool slice   <file> [shared flags]\n  \
         trace_tool check   <file> [--json] [--max-diags N] [--out-of-core]\n  \
         trace_tool analyze <file> [--analyses a,b,c] [--json] [--out-of-core]\n  \
         trace_tool static  <amazon_desktop|amazon_mobile|maps|bing> [--json] [--referee]\n  \
         trace_tool certify <file> [shared flags] [--json]\n\n\
         shared flags:\n  \
         flag                  slice  check  certify  meaning\n  \
         --criteria p|s        yes    -      yes      pixels (default) or syscalls\n  \
         --out-of-core         yes    yes    yes      stream the file instead of loading it\n  \
         --json                -      yes    yes      machine-readable diagnostics\n\n\
         `analyze` runs any subset of the registered analyses in ONE fused\n  \
         sweep (default: all of them):\n  \
         lints          the full verifier battery (WP0001-WP0007)\n  \
         dead-writes    the WP0012 dead-producer-write metric\n  \
         frames         call-frame nesting + syscall profile\n  \
         with --out-of-core the decoded chunks and bytes go to stderr.\n\n\
         `static` runs the ahead-of-time interprocedural analyzer over a\n  \
         site's scripts — no trace needed: possibly-undefined reads\n  \
         (WP0101), dead stores (WP0102), unreachable code (WP0103),\n  \
         statements outside the static effect slice (WP0104), useless\n  \
         effect-free calls (WP0105), and uncallable functions (WP0106).\n  \
         --referee additionally runs the site's canonical session and\n  \
         scores the predictions against its execution witness and the\n  \
         allocator-stripped pixel slice, printing that session's block of\n  \
         results/static_vs_dynamic.txt. With --json the output is one\n  \
         object:\n  \
           {{\"diags\": [{{code, title, pos, message}}...],\n  \
            \"referee\": {{\"units_compared\", \"maybe_undef\",\n  \
              \"unreachable\"|\"dead_stores\"|\"wasted\"|\"useless_calls\"|\n  \
              \"uncallable\": {{predicted, observed, tp, gt, precision,\n  \
              recall, violations}},\n  \
              \"misses_fundamental\", \"misses_weakness\",\n  \
              \"per_function\": [{{origin, name, idx, reachable, pure,\n  \
              calls, waste}}...], \"soundness_violations\"}}}}\n  \
         Without --referee, --json emits the bare diags array.\n\n\
         `export --frames N` (bing only) records an N-frame browse session and\n  \
         writes one trace file per frame: <file>.f0 ... <file>.f{{N-1}}.\n\n\
         exit codes: 0 clean / success, 1 findings or I/O error, 2 usage error"
    );
    std::process::exit(2);
}

/// Opens `path` and decodes it with `read`; exits 1 on any I/O or format
/// error.
fn open<T>(path: &str, read: impl FnOnce(BufReader<File>) -> Result<T, TraceIoError>) -> T {
    let file = File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    read(BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    })
}

/// Loads a trace file into memory.
fn load(path: &str) -> Trace {
    open(path, |r| TraceReader::open(r)?.read_to_trace())
}

/// Opens a `WPTRACE2` file for streaming.
fn open_reader(path: &str) -> TraceReader<BufReader<File>> {
    open(path, TraceReader::open)
}

/// Creates the output file `path`; exits 1 if it cannot.
fn create(path: &str) -> BufWriter<File> {
    let file = File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    });
    BufWriter::new(file)
}

/// Writes `trace` to `w` (created for `path`); exits 1 if it cannot.
fn write(mut w: BufWriter<File>, path: &str, trace: &Trace) {
    write_trace2(&mut w, trace).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// Exits 1 with a message when a pass over the source fails mid-trace.
fn stream_ok<T, E: Display>(res: Result<T, E>) -> T {
    res.unwrap_or_else(|e| {
        eprintln!("stream error: {e}");
        std::process::exit(1);
    })
}

/// One referee metric as a JSON object (`static --referee --json`).
fn metric_json(m: &Metric) -> String {
    let opt = |v: Option<f64>| v.map_or_else(|| "null".to_owned(), |p| format!("{p:.4}"));
    format!(
        "{{\"predicted\": {}, \"observed\": {}, \"tp\": {}, \"gt\": {}, \
         \"precision\": {}, \"recall\": {}, \"violations\": {}}}",
        m.predicted,
        m.observed,
        m.tp,
        m.gt,
        opt(m.precision()),
        opt(m.recall()),
        m.violations
    )
}

/// The `"referee"` member of the `static --referee --json` object (see
/// the usage table for the schema).
fn referee_json(r: &RefereeReport) -> String {
    let mut out = String::from("\"referee\": {\n");
    out.push_str(&format!("  \"units_compared\": {},\n", r.units_compared));
    out.push_str(&format!("  \"maybe_undef\": {},\n", r.maybe_undef));
    out.push_str(&format!(
        "  \"unreachable\": {},\n",
        metric_json(&r.unreachable)
    ));
    out.push_str(&format!(
        "  \"dead_stores\": {},\n",
        metric_json(&r.dead_stores)
    ));
    out.push_str(&format!("  \"wasted\": {},\n", metric_json(&r.wasted)));
    out.push_str(&format!(
        "  \"useless_calls\": {},\n",
        metric_json(&r.useless_calls)
    ));
    out.push_str(&format!(
        "  \"uncallable\": {},\n",
        metric_json(&r.uncallable)
    ));
    out.push_str(&format!(
        "  \"misses_fundamental\": {},\n  \"misses_weakness\": {},\n",
        r.misses_fundamental, r.misses_weakness
    ));
    out.push_str("  \"per_function\": [\n");
    for (i, f) in r.per_function.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"origin\": \"{}\", \"name\": \"{}\", \"idx\": {}, \
             \"reachable\": {}, \"pure\": {}, \"calls\": {}, \"waste\": {}}}{}\n",
            f.origin,
            f.name,
            f.idx,
            f.reachable,
            f.pure,
            f.calls,
            metric_json(&f.waste),
            if i + 1 < r.per_function.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"soundness_violations\": {}\n}}\n",
        r.soundness_violations()
    ));
    out
}

/// The pixel or syscall criteria of `src`.
fn criteria_of<S: ColumnSource>(src: &mut S, syscalls: bool) -> Criteria
where
    S::Error: Display,
{
    if syscalls {
        stream_ok(syscall_criteria_streamed(src))
    } else {
        pixel_criteria_streamed(src)
    }
}

/// `slice`: forward pass, criteria and backward slice, plus the Table II
/// rows.
fn slice_source<S: ColumnSource>(src: &mut S, syscalls: bool) -> (SliceResult, Vec<ThreadRow>)
where
    S::Error: Display,
{
    let forward = stream_ok(ForwardPass::build_streamed(src));
    let criteria = criteria_of(src, syscalls);
    let opts = SliceOptions::default();
    let result = stream_ok(slice_streamed(src, &forward, &criteria, &opts));
    let rows = thread_rows(src.threads(), &result);
    (result, rows)
}

/// `check`: the verifier battery's diagnostics and the instruction count.
fn check_source<S: ColumnSource>(src: &mut S) -> (Vec<Diag>, u64)
where
    S::Error: Display,
{
    let diags = stream_ok(wasteprof_checker::verify_streamed(src));
    (diags, src.len() as u64)
}

/// `analyze`: one fused sweep of the registered analyses; returns the
/// instruction count.
fn analyze_source<S: ColumnSource>(src: &mut S, driver: &mut AnalysisDriver<'_>) -> u64
where
    S::Error: Display,
{
    stream_ok(driver.run_streamed(src));
    src.len() as u64
}

/// `certify`: a witnessed slice and its certifier diagnostics.
fn certify_source<S: ColumnSource>(src: &mut S, syscalls: bool) -> (SliceResult, Vec<Diag>)
where
    S::Error: Display,
{
    let forward = stream_ok(ForwardPass::build_streamed(src));
    let criteria = criteria_of(src, syscalls);
    let opts = SliceOptions {
        witness: true,
        ..Default::default()
    };
    let result = stream_ok(slice_streamed(src, &forward, &criteria, &opts));
    let diags = stream_ok(wasteprof_checker::certify_streamed(
        src, &forward, &criteria, &result,
    ));
    (result, diags)
}

/// Parses the value of `--criteria`; returns `true` for syscalls.
fn parse_criteria(value: Option<&String>) -> bool {
    match value.map(String::as_str) {
        Some("pixels") => false,
        Some("syscalls") => true,
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("export") => {
            let (Some(name), Some(path)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let mut frames: Option<usize> = None;
            let mut rest = args[3..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--frames" => {
                        frames = Some(
                            rest.next()
                                .and_then(|v| v.parse().ok())
                                .filter(|&n| n > 0)
                                .unwrap_or_else(|| usage()),
                        );
                    }
                    _ => usage(),
                }
            }
            let benchmark = Benchmark::ALL
                .into_iter()
                .find(|b| b.short_name() == name)
                .unwrap_or_else(|| usage());
            if let Some(n) = frames {
                // Frame export is a Bing feature: the multi-frame browse
                // generator scripts that benchmark's interactions.
                if benchmark != Benchmark::Bing {
                    usage();
                }
                let outs: Vec<(String, BufWriter<File>)> = (0..n)
                    .map(|k| {
                        let out = format!("{path}.f{k}");
                        let w = create(&out);
                        (out, w)
                    })
                    .collect();
                eprintln!("running {} ({n} frames)...", benchmark.label());
                let fs = bing_frames(n);
                for (k, (out, w)) in outs.into_iter().enumerate() {
                    let frame = fs.frame_trace(k);
                    write(w, &out, &frame);
                    outln!(
                        "wrote {} instructions to {out}",
                        format_count(frame.len() as u64)
                    );
                }
            } else {
                let w = create(path);
                eprintln!("running {}...", benchmark.label());
                let session = benchmark.run();
                write(w, path, &session.trace);
                outln!(
                    "wrote {} instructions ({} markers) to {path}",
                    format_count(session.trace.len() as u64),
                    session.trace.markers().len()
                );
            }
        }
        Some("inspect") => {
            let Some(path) = args.get(1) else { usage() };
            let mut head: Option<usize> = None;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--head" => {
                        head = Some(
                            rest.next()
                                .and_then(|v| v.parse().ok())
                                .unwrap_or_else(|| usage()),
                        );
                    }
                    _ => usage(),
                }
            }
            let trace = load(path);
            outln!("instructions: {}", format_count(trace.len() as u64));
            outln!("markers:      {}", trace.markers().len());
            let h = trace.kind_histogram();
            outln!(
                "kinds: {} ops, {} loads, {} stores, {} branches, {} calls, {} syscalls",
                h.ops,
                h.loads,
                h.stores,
                h.branches,
                h.calls,
                h.syscalls
            );
            outln!("\nper thread:");
            let counts = trace.per_thread_counts();
            for info in trace.threads().iter() {
                let count = counts.get(&info.id()).copied().unwrap_or(0);
                outln!("  {:<14} {:>10}", info.name(), format_count(count));
            }
            outln!("\ntop functions by instruction count:");
            let mut funcs: Vec<(u64, String)> = trace
                .per_func_counts()
                .into_iter()
                .map(|(f, n)| (n, trace.functions().name(f).to_owned()))
                .collect();
            funcs.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
            for (n, name) in funcs.into_iter().take(15) {
                outln!("  {:<58} {:>10}", name, format_count(n));
            }
            // `--head N`: print the first N instructions with resolved
            // function names.
            if let Some(n) = head {
                outln!("\nfirst {} instructions:", n.min(trace.len()));
                for pos in 0..n.min(trace.len()) {
                    outln!(
                        "  {:>6}  {}",
                        pos,
                        trace.display_instr(TracePos(pos as u64))
                    );
                }
            }
        }
        Some("slice") => {
            let Some(path) = args.get(1) else { usage() };
            let mut syscalls = false;
            let mut out_of_core = false;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--criteria" => syscalls = parse_criteria(rest.next()),
                    "--out-of-core" => out_of_core = true,
                    _ => usage(),
                }
            }
            let (result, rows) = if out_of_core {
                slice_source(&mut open_reader(path), syscalls)
            } else {
                slice_source(&mut &load(path), syscalls)
            };
            outln!(
                "{} criteria; slice = {} of {} instructions ({:.1}%)\n",
                if syscalls { "syscall" } else { "pixel" },
                format_count(result.slice_count()),
                format_count(result.considered()),
                result.fraction() * 100.0
            );
            let mut table = TextTable::new(vec!["Threads", "slice", "total"]);
            for r in rows {
                table.row(vec![
                    r.label.clone(),
                    format!("{:.0}%", r.percentage()),
                    format_count(r.total),
                ]);
            }
            outln!("{}", table.render());
        }
        Some("check") => {
            let Some(path) = args.get(1) else { usage() };
            let mut json = false;
            let mut out_of_core = false;
            let mut max_diags: Option<usize> = None;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--out-of-core" => out_of_core = true,
                    "--max-diags" => {
                        let n = rest
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage());
                        max_diags = Some(n);
                    }
                    _ => usage(),
                }
            }
            let (mut diags, instrs) = if out_of_core {
                check_source(&mut open_reader(path))
            } else {
                check_source(&mut &load(path))
            };
            let total = diags.len();
            if let Some(cap) = max_diags {
                diags.truncate(cap);
            }
            if json {
                outln!("{}", wasteprof_checker::render_json(&diags));
            } else if total == 0 {
                outln!(
                    "clean: {} instructions, 0 diagnostics",
                    format_count(instrs)
                );
            } else {
                out!("{}", wasteprof_checker::render_text(&diags));
                outln!(
                    "{total} diagnostic{} ({} shown)",
                    if total == 1 { "" } else { "s" },
                    diags.len()
                );
            }
            std::process::exit(if total == 0 { 0 } else { 1 });
        }
        Some("static") => {
            let Some(name) = args.get(1) else { usage() };
            let mut json = false;
            let mut referee = false;
            for arg in &args[2..] {
                match arg.as_str() {
                    "--json" => json = true,
                    "--referee" => referee = true,
                    _ => usage(),
                }
            }
            let benchmark = Benchmark::ALL
                .into_iter()
                .find(|b| b.short_name() == name)
                .unwrap_or_else(|| usage());
            let analysis = wasteprof_staticjs::analyze_sources(&benchmark.scripts())
                .unwrap_or_else(|e| {
                    eprintln!("static analysis failed: {e}");
                    std::process::exit(1);
                });
            let report = referee.then(|| {
                let session = benchmark.run();
                let forward = ForwardPass::build(&session.trace);
                engine::referee(&analysis, &session, &forward)
            });
            let total = analysis.diags.len();
            let violations = report.as_ref().map_or(0, |r| r.soundness_violations());
            if json {
                match &report {
                    None => outln!("{}", wasteprof_checker::render_json(&analysis.diags)),
                    Some(r) => {
                        outln!("{{");
                        outln!(
                            "\"diags\": {},",
                            wasteprof_checker::render_json(&analysis.diags)
                        );
                        out!("{}", referee_json(r));
                        outln!("}}");
                    }
                }
            } else {
                if total == 0 {
                    outln!("clean: {} scripts, 0 findings", analysis.units.len());
                } else {
                    out!("{}", wasteprof_checker::render_text(&analysis.diags));
                    outln!(
                        "{total} finding{} across {} scripts",
                        if total == 1 { "" } else { "s" },
                        analysis.units.len()
                    );
                }
                if let Some(r) = &report {
                    let label = SessionKey::Base(benchmark).label();
                    out!("{}", engine::referee_block(&label, r));
                }
            }
            std::process::exit(if total == 0 && violations == 0 { 0 } else { 1 });
        }
        Some("analyze") => {
            let Some(path) = args.get(1) else { usage() };
            let mut json = false;
            let mut out_of_core = false;
            let mut selected: Option<Vec<String>> = None;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--out-of-core" => out_of_core = true,
                    "--analyses" => {
                        let list = rest.next().unwrap_or_else(|| usage());
                        selected = Some(list.split(',').map(str::to_owned).collect());
                    }
                    _ => usage(),
                }
            }
            // The registry of analyses `analyze` can fuse, in canonical
            // order. `--analyses` picks a subset; unknown names are usage
            // errors so a typo cannot silently run nothing.
            const ANALYSES: [&str; 3] = ["lints", "dead-writes", "frames"];
            let names: Vec<&str> = match &selected {
                None => ANALYSES.to_vec(),
                Some(list) => {
                    if list.iter().any(|n| !ANALYSES.contains(&n.as_str())) {
                        usage();
                    }
                    ANALYSES
                        .iter()
                        .copied()
                        .filter(|a| list.iter().any(|n| n == a))
                        .collect()
                }
            };
            if names.is_empty() {
                usage();
            }
            let mut lint_reg = names.contains(&"lints").then(Registry::with_default_lints);
            let mut dead_reg = names.contains(&"dead-writes").then(|| {
                let mut r = Registry::new();
                r.register(Box::new(DeadWriteLint::default()));
                r
            });
            let mut frames = names.contains(&"frames").then(FrameAnalysis::new);
            let mut lint_battery = lint_reg.as_mut().map(|r| r.as_analysis("lints"));
            let mut dead_battery = dead_reg.as_mut().map(|r| r.as_analysis("dead-writes"));
            let mut driver = AnalysisDriver::new();
            if let Some(a) = lint_battery.as_mut() {
                driver.register(a);
            }
            if let Some(a) = dead_battery.as_mut() {
                driver.register(a);
            }
            if let Some(a) = frames.as_mut() {
                driver.register(a);
            }
            let instrs = if out_of_core {
                let mut reader = open_reader(path);
                let instrs = analyze_source(&mut reader, &mut driver);
                let s = reader.decode_stats();
                // stderr keeps stdout diffable against in-memory.
                eprintln!(
                    "decode: {} chunks, {} stream bytes decoded",
                    s.chunks_decoded,
                    format_count(s.decoded_stream_bytes)
                );
                instrs
            } else {
                analyze_source(&mut &load(path), &mut driver)
            };
            drop(driver);
            let mut diags = lint_battery.map(|mut b| b.take_diags()).unwrap_or_default();
            diags.extend(dead_battery.map(|mut b| b.take_diags()).unwrap_or_default());
            wasteprof_checker::sort_diags(&mut diags);
            let profile = frames.map(FrameAnalysis::into_profile);
            if json {
                let frames_json = match &profile {
                    Some(p) => format!(
                        "{{\"calls\": {}, \"rets\": {}, \"unmatched_rets\": {}, \
                         \"max_depth\": {}, \"syscalls\": {}}}",
                        p.calls,
                        p.rets,
                        p.unmatched_rets,
                        p.max_depth,
                        p.total_syscalls()
                    ),
                    None => "null".to_owned(),
                };
                let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
                outln!(
                    "{{\n  \"analyses\": [{}],\n  \"instructions\": {},\n  \
                     \"frames\": {},\n  \"diagnostics\": {}\n}}",
                    quoted.join(", "),
                    instrs,
                    frames_json,
                    wasteprof_checker::render_json(&diags)
                );
            } else {
                outln!("fused analyses: {}", names.join(", "));
                if let Some(p) = &profile {
                    outln!(
                        "frames: {} calls, {} rets ({} unmatched), max depth {}, {} syscalls",
                        format_count(p.calls),
                        format_count(p.rets),
                        p.unmatched_rets,
                        p.max_depth,
                        format_count(p.total_syscalls())
                    );
                }
                if diags.is_empty() {
                    outln!(
                        "clean: {} instructions, 0 diagnostics",
                        format_count(instrs)
                    );
                } else {
                    out!("{}", wasteprof_checker::render_text(&diags));
                    outln!(
                        "{} diagnostic{}",
                        diags.len(),
                        if diags.len() == 1 { "" } else { "s" }
                    );
                }
            }
            std::process::exit(if diags.is_empty() { 0 } else { 1 });
        }
        Some("certify") => {
            let Some(path) = args.get(1) else { usage() };
            let mut json = false;
            let mut syscalls = false;
            let mut out_of_core = false;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--criteria" => syscalls = parse_criteria(rest.next()),
                    "--out-of-core" => out_of_core = true,
                    _ => usage(),
                }
            }
            let (result, diags) = if out_of_core {
                certify_source(&mut open_reader(path), syscalls)
            } else {
                certify_source(&mut &load(path), syscalls)
            };
            if json {
                outln!("{}", wasteprof_checker::render_json(&diags));
            } else if diags.is_empty() {
                outln!(
                    "certified: {} slice members, {} witness rows, 0 diagnostics",
                    format_count(result.slice_count()),
                    format_count(result.witness().map_or(0, |w| w.len() as u64))
                );
            } else {
                out!("{}", wasteprof_checker::render_text(&diags));
                outln!(
                    "{} diagnostic{}",
                    diags.len(),
                    if diags.len() == 1 { "" } else { "s" }
                );
            }
            std::process::exit(if diags.is_empty() { 0 } else { 1 });
        }
        _ => usage(),
    }
}
