//! Property test: randomized synthetic sessions verify clean, and every
//! single-fault mutation of them triggers exactly its own lint code.
//!
//! Programs are random cross-thread task chains built on the browser's
//! real scheduler (`Sched::post_task`), so all shared-state traffic is
//! lock-ordered the same way canonical sessions are — the pristine trace
//! must be race-free and well-formed by construction, and every
//! [`Mutation`] must break exactly one invariant.

use proptest::prelude::*;
use wasteprof_browser::Sched;
use wasteprof_checker::{certify, render_text, verify, Mutation, SliceMutation, TraceMutator};
use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions, SliceResult, Witnesses};
use wasteprof_trace::{site, Recorder, Region, ThreadKind, Trace};

/// A random cross-thread task chain: each hop `(worker, weight)` posts a
/// task to a worker through the scheduler's lock hand-off, touches the
/// shared cell there, and posts back to main; the chain feeds a pixel
/// tile. The pixel slice threads through the hand-offs, so its data edges
/// cross threads and its witness carries call rows.
fn task_chain(hops: &[(u8, u32)]) -> Trace {
    let mut rec = Recorder::new();
    let main = rec.spawn_thread(ThreadKind::Main, "main_root");
    let workers = [
        rec.spawn_thread(ThreadKind::Compositor, "comp_root"),
        rec.spawn_thread(ThreadKind::Raster(0), "raster_root"),
        rec.spawn_thread(ThreadKind::Io, "io_root"),
    ];
    rec.switch_to(main);
    let mut sched = Sched::new(&mut rec, 4);
    let shared = rec.alloc_cell(Region::Heap);
    let input = rec.alloc(Region::Input, 64);
    let tile = rec.alloc(Region::PixelTile, 64);
    let work = rec.intern_func("worker::Work");

    // Producer bytes: write the input buffer once, consume it once.
    rec.compute(site!(), &[], &[input]);
    rec.compute(site!(), &[input], &[shared.into()]);
    // Random task chain: every hop crosses threads through the
    // scheduler's lock hand-off, touching the shared cell on both
    // sides — ordered, so race-free.
    for &(w, weight) in hops {
        sched.post_task(&mut rec, workers[w as usize]);
        rec.in_func(site!(), work, |rec| {
            rec.compute_weighted(site!(), &[shared.into()], &[shared.into()], weight);
        });
        sched.post_task(&mut rec, main);
    }
    rec.compute(site!(), &[shared.into()], &[tile]);
    rec.marker(site!(), tile);
    sched.ipc_send(&mut rec, &[tile], 2);
    rec.finish()
}

/// `result` with its witness rows in a seeded random order.
fn shuffled_rows(result: &SliceResult, seed: u64) -> SliceResult {
    let mut rows: Vec<_> = result.witness().expect("witnessed").rows().collect();
    let mut state = seed | 1;
    for i in (1..rows.len()).rev() {
        // xorshift64: a fixed, dependency-free Fisher-Yates source.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        rows.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut out = result.clone();
    out.set_witness(Some(Witnesses::from_rows(rows)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mutations_fire_their_code_on_synthetic_sessions(
        hops in proptest::collection::vec((0..3u8, 1..4u32), 4..16),
        mutation_sel in 0..7usize,
    ) {
        let trace = task_chain(&hops);

        let clean = verify(&trace);
        prop_assert!(
            clean.is_empty(),
            "pristine synthetic trace not clean: {} diags, first: {}",
            clean.len(),
            clean[0]
        );

        let m = Mutation::ALL[mutation_sel];
        let mutated = TraceMutator::new(&trace).apply(m);
        // Every synthetic program carries all seven injection sites.
        prop_assert!(mutated.is_some(), "{}: no injection site found", m.name());
        if let Some(mutated) = mutated {
            let diags = verify(&mutated);
            prop_assert!(!diags.is_empty(), "{} went undetected", m.name());
            for d in &diags {
                prop_assert_eq!(
                    d.code,
                    m.expected_code(),
                    "{}: unexpected diagnostic {}",
                    m.name(),
                    d
                );
            }
        }
    }

    #[test]
    fn slice_mutations_fire_their_code_on_synthetic_sessions(
        hops in proptest::collection::vec((0..3u8, 1..4u32), 4..16),
        mutation_sel in 0..SliceMutation::ALL.len(),
    ) {
        let trace = task_chain(&hops);
        let fwd = ForwardPass::build(&trace);
        let criteria = pixel_criteria(&trace);
        let opts = SliceOptions { witness: true, ..Default::default() };
        let result = slice(&trace, &fwd, &criteria, &opts);
        let clean = certify(&trace, &fwd, &criteria, &result);
        prop_assert!(
            clean.is_empty(),
            "pristine synthetic slice failed certification: {} diags, first: {}",
            clean.len(),
            clean[0]
        );

        let m = SliceMutation::ALL[mutation_sel];
        let mutated = TraceMutator::new(&trace).apply_slice(m, &result);
        // Every synthetic slice has a call row with a non-member in its
        // callee frame, a non-member return, and a read-free member with
        // no row.
        prop_assert!(mutated.is_some(), "{}: no injection site found", m.name());
        if let Some(mutated) = mutated {
            let diags = certify(&trace, &fwd, &criteria, &mutated);
            prop_assert!(!diags.is_empty(), "{} went undetected", m.name());
            for d in &diags {
                prop_assert_eq!(
                    d.code,
                    m.expected_code(),
                    "{}: unexpected diagnostic {}",
                    m.name(),
                    d
                );
            }
        }
    }

    /// Certification does not depend on the witness table's row order:
    /// rows rebuilt in a random permutation — members and consumers no
    /// longer in order — render byte-identical
    /// diagnostics, clean and under every slice mutation.
    #[test]
    fn witness_row_order_does_not_change_certification(
        hops in proptest::collection::vec((0..3u8, 1..4u32), 4..16),
        seed in any::<u64>(),
    ) {
        let trace = task_chain(&hops);
        let fwd = ForwardPass::build(&trace);
        let criteria = pixel_criteria(&trace);
        let opts = SliceOptions { witness: true, ..Default::default() };
        let result = slice(&trace, &fwd, &criteria, &opts);
        let mutator = TraceMutator::new(&trace);
        let variants = std::iter::once(("clean", Some(result.clone()))).chain(
            SliceMutation::ALL.map(|m| (m.name(), mutator.apply_slice(m, &result))),
        );
        for (name, variant) in variants {
            prop_assert!(variant.is_some(), "{}: no injection site found", name);
            if let Some(variant) = variant {
                let want = render_text(&certify(&trace, &fwd, &criteria, &variant));
                let shuffled = shuffled_rows(&variant, seed);
                let got = render_text(&certify(&trace, &fwd, &criteria, &shuffled));
                prop_assert_eq!(got, want, "{}: row order changed the diagnostics", name);
            }
        }
    }
}
