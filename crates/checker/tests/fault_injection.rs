//! Differential fault-injection tests: pristine canonical sessions must
//! verify clean, each single-fault corruption must trigger exactly its
//! own diagnostic code, and no corruption may make the slicer panic.

use wasteprof_browser::Session;
use wasteprof_checker::{certify, verify, Mutation, TraceMutator};
use wasteprof_slicer::{pixel_criteria, slice, ForwardPass, SliceOptions};
use wasteprof_workloads::Benchmark;

/// The six canonical engine sessions (four loads + two browse phases).
fn canonical_sessions() -> Vec<(String, Session)> {
    let mut out = Vec::new();
    for b in Benchmark::ALL {
        out.push((b.label().to_owned(), b.run()));
    }
    for b in [Benchmark::AmazonDesktop, Benchmark::GoogleMaps] {
        out.push((
            format!("{} (load + browse)", b.label()),
            b.run_with_browse(),
        ));
    }
    out
}

#[test]
fn pristine_canonical_sessions_verify_clean() {
    for (label, session) in canonical_sessions() {
        let diags = verify(&session.trace);
        assert!(
            diags.is_empty(),
            "{label}: expected a clean verify, got {} diagnostics; first: {}",
            diags.len(),
            diags[0],
        );
    }
}

#[test]
fn each_mutation_triggers_exactly_its_lint_code() {
    // One session is enough for the per-mutation differential (the
    // pristine test already covers all six); mobile Amazon is the
    // smallest load.
    let session = Benchmark::AmazonMobile.run();
    for m in Mutation::ALL {
        let mutated = TraceMutator::new(&session.trace)
            .apply(m)
            .unwrap_or_else(|| panic!("{}: no injection site found", m.name()));
        let diags = verify(&mutated);
        assert!(
            !diags.is_empty(),
            "{}: corruption went undetected",
            m.name()
        );
        for d in &diags {
            assert_eq!(
                d.code,
                m.expected_code(),
                "{}: expected only {}, got {d}",
                m.name(),
                m.expected_code(),
            );
        }
    }
}

/// Every trace-mutation class still slices and certifies: the forward
/// pass folds the malformed trace (a store moved past its function's
/// return, a call naming a wild callee, ...) without panicking, the
/// witnessed pixel slice at one segment certifies with 0 diagnostics, and
/// eight segments give the identical result.
#[test]
fn every_mutation_class_slices_and_certifies() {
    let session = Benchmark::AmazonMobile.run();
    for m in Mutation::ALL {
        let mutated = TraceMutator::new(&session.trace)
            .apply(m)
            .unwrap_or_else(|| panic!("{}: no injection site found", m.name()));
        let fwd = ForwardPass::build(&mutated);
        let criteria = pixel_criteria(&mutated);
        let witnessed = |segments| SliceOptions {
            witness: true,
            segments,
            ..Default::default()
        };
        let one = slice(&mutated, &fwd, &criteria, &witnessed(1));
        let diags = certify(&mutated, &fwd, &criteria, &one);
        assert!(
            diags.is_empty(),
            "{}: expected a clean certify, got {} diagnostics; first: {}",
            m.name(),
            diags.len(),
            diags[0],
        );
        let eight = slice(&mutated, &fwd, &criteria, &witnessed(8));
        assert!(
            eight == one,
            "{}: the 8-segment slice differs from the sequential one",
            m.name()
        );
    }
}
