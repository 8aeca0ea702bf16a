//! Differential fault-injection tests: pristine canonical sessions must
//! verify clean, each single-fault corruption must trigger exactly its
//! own diagnostic code, and no corruption may make the slicer panic or
//! its resident and out-of-core runs disagree.

use std::io::Cursor;

use wasteprof_browser::Session;
use wasteprof_checker::{certify, certify_streamed, verify, Mutation, TraceMutator};
use wasteprof_slicer::{
    pixel_criteria, pixel_criteria_streamed, slice, slice_streamed, syscall_criteria,
    syscall_criteria_streamed, ForwardPass, SliceOptions,
};
use wasteprof_trace::{Trace, Trace2Writer, TraceReader};
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

/// Writes `trace` with [`Trace2Writer`], row by row, and opens a reader
/// over the bytes.
fn reader_for(trace: &Trace) -> TraceReader<Cursor<Vec<u8>>> {
    let mut buf = Vec::new();
    let mut w = Trace2Writer::new(&mut buf).expect("writer");
    let cols = trace.columns();
    for idx in 0..cols.len() {
        w.push(
            cols.tid(idx),
            cols.func(idx),
            cols.pc(idx),
            cols.kind(idx),
            cols.reg_reads(idx),
            cols.reg_writes(idx),
            cols.mem_reads(idx),
            cols.mem_writes(idx),
        )
        .expect("push");
    }
    w.finish(trace.functions(), trace.threads(), trace.markers())
        .expect("finish");
    TraceReader::open(Cursor::new(buf)).expect("open")
}

/// Every trace-mutation class still slices and certifies, in memory and
/// out of core, under both criteria: the forward pass folds the malformed
/// trace (a store moved past its function's return, a call naming a wild
/// callee, ...) without panicking, the witnessed slice certifies with 0
/// diagnostics, and the mutated trace read back through a [`TraceReader`]
/// gives the same forward pass, criteria and witnessed slice, which
/// `certify_streamed` also passes clean.
#[test]
fn every_mutation_class_slices_and_certifies() {
    let session = Benchmark::AmazonMobile.run();
    let witnessed = SliceOptions {
        witness: true,
        ..Default::default()
    };
    for m in Mutation::ALL {
        let mutated = TraceMutator::new(&session.trace)
            .apply(m)
            .unwrap_or_else(|| panic!("{}: no injection site found", m.name()));
        let fwd = ForwardPass::build(&mutated);
        let mut reader = reader_for(&mutated);
        let fwd_st = ForwardPass::build_streamed(&mut reader).expect("streamed forward pass");
        assert!(fwd_st == fwd, "{}: streamed forward pass differs", m.name());
        for kind in ["pixel", "syscall"] {
            let name = format!("{} [{kind}]", m.name());
            let (criteria, criteria_st) = if kind == "pixel" {
                (pixel_criteria(&mutated), pixel_criteria_streamed(&reader))
            } else {
                let st = syscall_criteria_streamed(&mut reader).expect("streamed criteria");
                (syscall_criteria(&mutated), st)
            };
            assert_eq!(
                criteria_st.items(),
                criteria.items(),
                "{name}: streamed criteria differ"
            );
            let result = slice(&mutated, &fwd, &criteria, &witnessed);
            let diags = certify(&mutated, &fwd, &criteria, &result);
            assert!(
                diags.is_empty(),
                "{name}: expected a clean certify, got {} diagnostics; first: {}",
                diags.len(),
                diags[0],
            );
            let st = slice_streamed(&mut reader, &fwd_st, &criteria_st, &witnessed)
                .expect("streamed slice");
            assert!(st == result, "{name}: streamed slice differs");
            let diags = certify_streamed(&mut reader, &fwd_st, &criteria_st, &st)
                .expect("streamed certify");
            assert!(diags.is_empty(), "{name}: streamed certify: {diags:?}");
        }
    }
}
