//! `wpbench`: the wasteprof workload benchmark.
//!
//! ```text
//! wpbench --workload W --seconds S [--seed N] [--trace 0|1]
//! wpbench compare BASE.jsonl NEW.jsonl
//! ```
//!
//! Run from the repository root with `RAYON_NUM_THREADS=1`. A workload
//! run prints every metric with its unit and sample count, then, as its
//! last line, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. Untraced runs report the end-to-end metrics, traced runs
//! the per-layer ones and write their spans under `.wpbench/`. See
//! README.md for the workloads and metrics.

mod compare;
mod gen;
mod json;
mod run;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::exit;

use run::{Ctx, Metric, Outcome, Size};

const FULL: Size = Size {
    sessions: &gen::CANONICAL,
    browses: 4,
    frames: 10,
};

const WORKLOADS: [&str; 4] = ["paper", "slice", "streamed", "incremental"];

fn usage() -> ! {
    eprintln!(
        "usage: wpbench --workload {} --seconds S [--seed N] [--trace 0|1]\n       \
         wpbench compare BASE.jsonl NEW.jsonl",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn run_workload(name: &str, ctx: &Ctx, seconds: f64, trace: bool) -> Outcome {
    match name {
        "paper" => run::run(&workloads::Paper, ctx, seconds, trace),
        "slice" => run::run(&workloads::Slice, ctx, seconds, trace),
        "streamed" => run::run(&workloads::Streamed, ctx, seconds, trace),
        "incremental" => run::run(&workloads::Incremental, ctx, seconds, trace),
        _ => usage(),
    }
}

/// The result line: `metrics` holds the per-layer metrics of a traced run
/// and the end-to-end metrics otherwise.
fn result_json(outcome: &Outcome, trace: bool) -> String {
    let metrics: &[Metric] = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let mut fields = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            fields,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    let c = &outcome.checks;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{fields}}}}}",
        c.failed == 0,
        c.attempted,
        c.failed
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = Path::new(".");
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.as_slice() else {
            usage()
        };
        match compare::compare(root, Path::new(base), Path::new(new)) {
            Ok(clean) => exit(if clean { 0 } else { 1 }),
            Err(e) => {
                eprintln!("wpbench compare: {e}");
                exit(2);
            }
        }
    }

    let (mut workload, mut seconds, mut seed, mut trace) = (None, None, 0u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--trace" if value == "0" || value == "1" => trace = value == "1",
            _ => usage(),
        }
    }
    let (Some(workload), Some(seconds)) = (workload, seconds) else {
        usage()
    };
    // The benchmark measures single-threaded wall time; a wider pool would
    // make every number depend on the host's core count.
    if rayon::current_num_threads() != 1 {
        eprintln!(
            "wpbench: run with RAYON_NUM_THREADS=1 (the pool has {} threads)",
            rayon::current_num_threads()
        );
        exit(2);
    }

    let ctx = Ctx {
        seed,
        size: &FULL,
        root,
    };
    let outcome = run_workload(&workload, &ctx, seconds, trace);

    println!(
        "wpbench {workload} seed {seed}: {} passes, {} checks, {} failed",
        outcome.passes, outcome.checks.attempted, outcome.checks.failed
    );
    let walls: Vec<String> = outcome
        .walls
        .iter()
        .map(|w| format!("{:.3}/{:.0}", w.0, w.1))
        .collect();
    println!(
        "  untraced passes (wall s/peak RSS MB): {}",
        walls.join(" ")
    );
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!(
            "  {:<36} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if trace {
        let dir = root.join(".wpbench");
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, outcome.spans.to_json_lines()));
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("wpbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&outcome, trace));
    if outcome.checks.failed > 0 {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use wasteprof_bench::engine::SessionKey;
    use wasteprof_workloads::Benchmark;

    const TINY: Size = Size {
        sessions: &[SessionKey::Base(Benchmark::AmazonMobile)],
        browses: 1,
        frames: 3,
    };

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
    }

    /// Every workload at a tiny size emits every metric `BENCHMARK.json`
    /// lists, finite, with no failed check.
    #[test]
    fn every_workload_emits_every_listed_metric() {
        let root = repo_root();
        let bench = Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap())
            .expect("BENCHMARK.json parses");
        // (name, unit) of every entry under `key`.
        let listed = |key: &str| -> Vec<(String, Option<String>)> {
            let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).map(str::to_owned);
            let entries = bench.get(key).expect("listed in BENCHMARK.json").as_array();
            entries
                .iter()
                .map(|m| (field(m, "name").expect("named"), field(m, "unit")))
                .collect()
        };
        let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS);
        let ctx = Ctx {
            seed: 0,
            size: &TINY,
            root: &root,
        };
        for w in WORKLOADS {
            let outcome = run_workload(w, &ctx, 0.0, true);
            assert_eq!(outcome.checks.failed, 0, "{w}");
            assert!(outcome.checks.attempted > 0, "{w}");
            for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
                let result = Json::parse(&result_json(&outcome, trace)).expect("result parses");
                let metrics = result.get("metrics").expect("metrics").fields();
                let emitted: Vec<(String, Option<String>)> = metrics
                    .iter()
                    .map(|(k, m)| {
                        (
                            k.clone(),
                            m.get("unit").and_then(Json::as_str).map(str::to_owned),
                        )
                    })
                    .collect();
                assert_eq!(emitted, listed(key), "{w} {key}");
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64);
                    assert!(v.is_some_and(f64::is_finite), "{w} {name} = {v:?}");
                }
            }
            for m in &outcome.end_to_end {
                assert!(m.value > 0.0, "{w} {} must be positive", m.name);
            }
        }
    }
}
