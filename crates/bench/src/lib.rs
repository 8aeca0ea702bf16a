#![forbid(unsafe_code)]

//! Experiment harness for the wasteprof reproduction.
//!
//! `run_all` regenerates every table and figure of the paper's evaluation
//! in one [`engine::run`], printing each view and saving it into
//! `results/`:
//!
//! | artifact | paper artifact |
//! |---|---|
//! | `table1.txt` | Table I — unused JS/CSS bytes |
//! | `table2.txt` | Table II — pixel-slice statistics per thread |
//! | `table2_waste.txt` | Table II × Figure 5 — waste by thread role |
//! | `fig2.txt` | Figure 2 — main-thread CPU utilization while browsing Amazon |
//! | `fig4.txt` | Figure 4 — slice percentage over the backward pass |
//! | `fig5.txt` | Figure 5 — categorization of unnecessary computations |
//! | `bing_backslice.txt` | §V-A — load-time slice vs full-session slice |
//! | `ablations.txt` | §VII — ablations of the proposed optimizations |
//! | `check.txt`, `certify.txt`, `static_vs_dynamic.txt` | the referees: trace verifier, slice certifier, static analyzer |
//!
//! `trace_tool` exports a session's trace to disk and re-profiles it
//! (§III-A); `out_of_core` regenerates `BENCH_6.json`, the bounded-RSS
//! evidence. The other `BENCH_*.json` files are frozen history.
//!
//! Criterion benches (`cargo bench`) measure the profiler itself (forward
//! pass, postdominators, backward slicing, interval sets) and the browser
//! substrate stages.

#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

pub mod engine;
pub mod progress;

/// Directory the experiment binaries write artifacts into.
///
/// Resolution order:
///
/// 1. `WASTEPROF_RESULTS_DIR`, when set — scripts redirecting artifacts.
/// 2. `<workspace root>/results`, anchored via this crate's manifest dir —
///    a bare `PathBuf::from("results")` would scatter artifacts into
///    whatever directory the binary happened to be started from.
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var_os("WASTEPROF_RESULTS_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            // crates/bench -> workspace root
            match manifest.parent().and_then(|p| p.parent()) {
                Some(root) => root.join("results"),
                None => PathBuf::from("results"),
            }
        }
    };
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes an artifact file and echoes where it went.
pub fn save(name: &str, content: &str) {
    let path = results_dir().join(name);
    match fs::write(&path, content) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
