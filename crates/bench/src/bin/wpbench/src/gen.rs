//! Seeded inputs: the canonical benchmark sessions and the Bing frame
//! sequence, with `seed` XORed into every [`SiteSpec::seed`].
//!
//! Seed 0 reproduces [`Benchmark::run`], [`Benchmark::run_with_browse`]
//! and [`wasteprof_workloads::bing_frames`] exactly. The seed only
//! reshuffles the generated page text and CSS, so every seed yields
//! sessions of nearly the same size and the same interaction script.
//!
//! The post-load timeline and the per-frame interaction script are
//! private to `wasteprof-workloads`, so they are copied here; the unit
//! test below fails if the copies drift from the originals.

use wasteprof_bench::engine::SessionKey;
use wasteprof_browser::{Session, Tab};
use wasteprof_workloads::{
    amazon_browse, bing_browse, build_site, maps_browse, Benchmark, FrameSession, SiteSpec,
};

/// The six distinct sessions the experiment engine records: the four
/// Table II sessions plus the Amazon-desktop and Maps browse sessions
/// (Bing's Table II session already is its browse session).
pub const CANONICAL: [SessionKey; 6] = [
    SessionKey::Base(Benchmark::AmazonDesktop),
    SessionKey::Base(Benchmark::AmazonMobile),
    SessionKey::Base(Benchmark::GoogleMaps),
    SessionKey::Base(Benchmark::Bing),
    SessionKey::Browse(Benchmark::AmazonDesktop),
    SessionKey::Browse(Benchmark::GoogleMaps),
];

/// The benchmark's site spec with `seed` mixed in.
fn spec(bench: Benchmark, seed: u64) -> SiteSpec {
    let mut spec = bench.spec();
    spec.seed ^= seed;
    spec
}

/// Records one session.
pub fn record(key: SessionKey, seed: u64) -> Session {
    let (SessionKey::Base(bench) | SessionKey::Browse(bench)) = key;
    let mut tab = loaded_tab(bench, seed);
    match key {
        SessionKey::Base(Benchmark::Bing) | SessionKey::Browse(Benchmark::Bing) => {
            bing_browse(&mut tab)
        }
        SessionKey::Base(_) => {}
        SessionKey::Browse(Benchmark::GoogleMaps) => maps_browse(&mut tab),
        SessionKey::Browse(_) => amazon_browse(&mut tab),
    }
    tab.finish()
}

/// Loads the page and plays the post-load timeline of `Benchmark::run`.
fn loaded_tab(bench: Benchmark, seed: u64) -> Tab {
    // (load vsync ticks, utility chunks) per benchmark.
    let (vsync, utility) = match bench {
        Benchmark::AmazonDesktop => (260, 140),
        Benchmark::AmazonMobile => (240, 40),
        Benchmark::GoogleMaps => (220, 330),
        Benchmark::Bing => (200, 240),
    };
    let mut tab = Tab::new(bench.browser_config());
    tab.load(build_site(&spec(bench, seed)));
    tab.pump_vsync(vsync / 3);
    tab.set_animation("photo", true);
    tab.pump_vsync(vsync);
    tab.pump_utility(utility);
    tab.run_timers();
    tab
}

/// The Bing load-and-browse session cut into `n_frames` snapshots, as
/// `wasteprof_workloads::bing_frames` records it.
///
/// # Panics
///
/// Panics if `n_frames` is zero.
pub fn bing_frames(n_frames: usize, seed: u64) -> FrameSession {
    assert!(n_frames > 0, "a session needs at least one frame");
    let mut tab = loaded_tab(Benchmark::Bing, seed);
    let mut frame_ends = vec![tab.trace_len() as usize];
    for k in 1..n_frames {
        interaction_block(&mut tab, k);
        frame_ends.push(tab.trace_len() as usize);
    }
    let session = tab.finish();
    *frame_ends.last_mut().expect("at least one frame") = session.trace.len();
    FrameSession {
        session,
        frame_ends,
    }
}

fn interaction_block(tab: &mut Tab, k: usize) {
    tab.idle(40_000 + (k as u64 % 5) * 7_000);
    match k % 4 {
        0 => {
            tab.click("menu-btn");
            tab.pump_vsync(24 + (k % 3) as u32 * 8);
            tab.click("menu-btn");
        }
        1 => {
            tab.click("news-roll");
            tab.pump_vsync(32);
        }
        2 => {
            tab.scroll(if k % 8 < 4 { 240.0 } else { -180.0 });
            tab.pump_vsync(16);
        }
        _ => {
            if k == 3 {
                tab.fetch_extra("suggest.js");
            }
            let terms = ["weather today", "news near me", "flight status"];
            tab.type_text("search", terms[(k / 4) % terms.len()]);
            tab.pump_vsync(16);
        }
    }
    if k.is_multiple_of(5) {
        tab.pump_utility(40);
    }
    tab.run_timers();
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions};
    use wasteprof_trace::{segment_content_hash, Trace, SEGMENT_LEN};

    /// Length plus the content hash of every segment, final partial one
    /// included.
    fn fingerprint(trace: &Trace) -> (usize, Vec<[u64; 2]>) {
        let cols = trace.columns();
        let hashes = (0..trace.len())
            .step_by(SEGMENT_LEN)
            .map(|lo| segment_content_hash(cols, lo, (lo + SEGMENT_LEN).min(trace.len())))
            .collect();
        (trace.len(), hashes)
    }

    #[test]
    fn seed_zero_reproduces_the_canonical_inputs() {
        for bench in Benchmark::ALL {
            assert_eq!(
                fingerprint(&record(SessionKey::Base(bench), 0).trace),
                fingerprint(&bench.run().trace),
                "{bench:?} run"
            );
            assert_eq!(
                fingerprint(&record(SessionKey::Browse(bench), 0).trace),
                fingerprint(&bench.run_with_browse().trace),
                "{bench:?} run_with_browse"
            );
        }
        let ours = bing_frames(25, 0);
        let theirs = wasteprof_workloads::bing_frames(25);
        assert_eq!(ours.frame_ends, theirs.frame_ends);
        assert_eq!(
            fingerprint(&ours.session.trace),
            fingerprint(&theirs.session.trace)
        );
    }

    #[test]
    fn other_seeds_change_the_inputs_and_stay_clean() {
        for seed in [1, 2] {
            for key in CANONICAL {
                let session = record(key, seed);
                let trace = &session.trace;
                if seed == 1 && key == SessionKey::Base(Benchmark::AmazonMobile) {
                    let canonical = record(key, 0).trace;
                    assert_ne!(fingerprint(trace), fingerprint(&canonical));
                }
                assert_eq!(
                    wasteprof_checker::verify(trace),
                    vec![],
                    "{key:?} seed {seed}"
                );
                let forward = ForwardPass::build(trace);
                let criteria = pixel_criteria(trace);
                let opts = SliceOptions {
                    witness: true,
                    ..SliceOptions::default()
                };
                let result = slice(trace, &forward, &criteria, &opts);
                assert_eq!(
                    wasteprof_checker::certify(trace, &forward, &criteria, &result),
                    vec![],
                    "{key:?} seed {seed}"
                );
            }
        }
    }
}
