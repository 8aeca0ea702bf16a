//! Differential test for the incremental slicer on the real workloads:
//! for every canonical engine session, the pixel slice computed through
//! a *shared* [`SummaryCache`] must equal the from-scratch slicer
//! exactly, with the dependence witness off and on (`SliceResult`
//! equality is structural over bitmap, counts, per-thread/per-function
//! stats, the checkpoint timeline and the witness).
//!
//! One memo serves all sessions and both configs on purpose: its key
//! must separate distinct traces (content hashes) and distinct slice
//! configs (`SliceOptions::config_fingerprint`), so a collision anywhere
//! shows up as a divergence here.

use wasteprof_bench::engine::{SessionKey, SessionStore};
use wasteprof_slicer::{pixel_criteria, slice, SliceOptions, SummaryCache};
use wasteprof_workloads::Benchmark;

#[test]
fn incremental_slices_match_from_scratch_on_all_sessions() {
    let store = SessionStore::new();
    let sessions = [
        SessionKey::Base(Benchmark::AmazonDesktop),
        SessionKey::Base(Benchmark::AmazonMobile),
        SessionKey::Base(Benchmark::GoogleMaps),
        SessionKey::Base(Benchmark::Bing),
        SessionKey::Browse(Benchmark::AmazonDesktop),
        SessionKey::Browse(Benchmark::GoogleMaps),
    ];
    let mut cache = SummaryCache::new();
    for key in sessions {
        let session = store.session(key);
        let trace = &session.trace;
        let forward = store.forward(key);
        let criteria = pixel_criteria(trace);
        for witness in [false, true] {
            let opts = SliceOptions {
                witness,
                ..Default::default()
            };
            let want = slice(trace, &forward, &criteria, &opts);
            let got = cache.slice(trace, &criteria, &opts);
            assert_eq!(
                got,
                want,
                "{} incremental slice diverged with witness={witness}",
                key.label()
            );
        }
    }

    // Every query above was a distinct (trace, config) pair, so each
    // missed. Re-slicing the *last* one is the memo's one hit.
    assert_eq!(cache.stats().hits, 0, "{:?}", cache.stats());
    let key = SessionKey::Browse(Benchmark::GoogleMaps);
    let session = store.session(key);
    let criteria = pixel_criteria(&session.trace);
    let opts = SliceOptions {
        witness: true,
        ..Default::default()
    };
    let before = cache.stats();
    let again = cache.slice(&session.trace, &criteria, &opts);
    assert_eq!(
        again,
        slice(&session.trace, &store.forward(key), &criteria, &opts)
    );
    let s = cache.stats();
    assert_eq!(s.hits, before.hits + 1, "re-slice must hit: {s:?}");
    assert_eq!(s.misses, before.misses, "re-slice must not miss: {s:?}");
}
