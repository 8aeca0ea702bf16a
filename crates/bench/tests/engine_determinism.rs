//! The experiment engine's output must not depend on the thread count:
//! a forced single-threaded run and a 4-thread run must produce
//! byte-identical view text and artifacts, every artifact must equal its
//! committed `results/` file, and the memoizing store must compute each
//! artifact exactly once either way.
//!
//! This file deliberately holds a single `#[test]`: it owns the
//! `RAYON_NUM_THREADS` environment variable for the whole process, so no
//! sibling test can race on it.

use wasteprof_bench::engine::{self, EngineOptions};

#[test]
fn engine_output_is_byte_identical_across_thread_counts() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single = engine::run(&EngineOptions::default());
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let parallel = engine::run(&EngineOptions::default());
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(single.threads, 1);
    assert_eq!(parallel.threads, 4);

    assert_eq!(single.views.len(), parallel.views.len());
    for (a, b) in single.views.iter().zip(&parallel.views) {
        assert_eq!(a.name, b.name, "view order must be fixed");
        assert_eq!(a.stdout, b.stdout, "stdout of {} differs", a.name);
        let names = |v: &engine::View| -> Vec<String> {
            v.artifacts.iter().map(|(n, _)| n.clone()).collect()
        };
        assert_eq!(names(a), names(b), "artifact set of {} differs", a.name);
        for ((name, single_bytes), (_, parallel_bytes)) in a.artifacts.iter().zip(&b.artifacts) {
            assert_eq!(
                single_bytes, parallel_bytes,
                "artifact {name} differs between 1 and 4 threads"
            );
        }
    }

    // Every committed view artifact under `results/` is this run's
    // artifact byte for byte, so no table or figure can go stale, and the
    // referee floors `scripts/check.sh` reads from
    // `results/static_vs_dynamic.txt` gate live engine output.
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut compared = 0;
    for (name, live) in single.views.iter().flat_map(|v| &v.artifacts) {
        let committed = std::fs::read_to_string(format!("{results}/{name}"))
            .unwrap_or_else(|e| panic!("committed results/{name}: {e}"));
        assert!(
            *live == committed,
            "results/{name} differs from the engine's output; rerun run_all"
        );
        compared += 1;
    }
    assert_eq!(compared, 14, "every view artifact is compared");

    // The verifier view exists, carries the `check.txt` artifact (covered
    // by the byte-wise comparison above), and found every session clean —
    // no WP diagnostic codes anywhere in the report.
    for report in [&single, &parallel] {
        let check = report
            .views
            .iter()
            .find(|v| v.name == "check")
            .expect("verifier view present by default");
        assert!(
            check.artifacts.iter().any(|(n, _)| n == "check.txt"),
            "verifier view must emit check.txt"
        );
        assert!(
            check.stdout.contains("6 sessions verified, 0 diagnostics"),
            "all engine sessions must verify clean:\n{}",
            check.stdout
        );
        // Rendered diagnostics are indented under their session line; the
        // report header legitimately names the code range.
        assert!(
            !check.stdout.contains("\n    WP0"),
            "no diagnostic lines expected:\n{}",
            check.stdout
        );
        let stage = report
            .stages
            .iter()
            .find(|s| s.name == "analyze")
            .expect("fused analyze stage recorded");
        assert_eq!(stage.items, 6, "one fused sweep per session");
        assert!(stage.instructions > 0, "analyze stage counts instructions");
        assert!(
            !report.stages.iter().any(|s| s.name == "check"),
            "the dedicated check stage is folded into analyze"
        );
    }

    // The fused analyze stage feeds the figure views; the waste cross it
    // introduces must be present, byte-identical (covered above), and
    // well-formed on both runs.
    for report in [&single, &parallel] {
        let waste = report
            .views
            .iter()
            .find(|v| v.name == "table2_waste")
            .expect("waste cross view present");
        assert!(
            waste.artifacts.iter().any(|(n, _)| n == "table2_waste.txt"),
            "waste view must emit table2_waste.txt"
        );
        for label in ["All", "Main", "Compositor", "Rasterizers"] {
            assert!(
                waste.stdout.contains(label),
                "waste cross must report the {label} thread role:\n{}",
                waste.stdout
            );
        }
    }

    // The certifier view exists, carries `certify.txt` (covered by the
    // byte-wise comparison above), and certified every pixel and syscall
    // slice of every session with zero diagnostics.
    for report in [&single, &parallel] {
        let certify = report
            .views
            .iter()
            .find(|v| v.name == "certify")
            .expect("certifier view present by default");
        assert!(
            certify.artifacts.iter().any(|(n, _)| n == "certify.txt"),
            "certifier view must emit certify.txt"
        );
        assert!(
            certify
                .stdout
                .contains("12 slices certified, 0 diagnostics."),
            "every engine slice must certify clean:\n{}",
            certify.stdout
        );
        assert!(
            !certify.stdout.contains("\n    WP0"),
            "no certifier diagnostic lines expected:\n{}",
            certify.stdout
        );
        // Certification runs inside the analyze sweeps: no certify stage
        // is recorded, and analyze keeps one sweep per session.
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "sessions",
                "forward",
                "slices",
                "analyze",
                "static",
                "incremental",
                "views"
            ],
            "no separate certify stage"
        );
        let stage = report
            .stages
            .iter()
            .find(|s| s.name == "analyze")
            .expect("analyze stage recorded");
        assert_eq!(stage.items, 6, "one fused sweep per session");
    }

    // The store computed each shared artifact exactly once per run:
    // 6 sessions (4 base + the Amazon-desktop and Maps browse sessions;
    // Bing's browse request aliases its base session), 6 forward passes
    // (4 base + the 2 distinct browse sessions), and 13 slices (4 pixel +
    // 4 syscall + the bounded §V-A Bing slice + pixel and syscall over
    // both distinct browse sessions).
    for report in [&single, &parallel] {
        assert_eq!(report.sessions_run, 6, "sessions must run exactly once");
        assert_eq!(
            report.forward_builds, 6,
            "one forward pass per distinct session"
        );
        assert_eq!(report.slices_run, 13, "independent slices computed once");
    }
}
