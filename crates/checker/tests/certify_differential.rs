//! Differential certifier tests: witnessed slices of every canonical
//! session must certify clean, alone and in one shared sweep, and every [`SliceMutation`] must trigger exactly its own
//! certifier code — in its own job only when it shares a sweep.

use std::io::Cursor;
use std::sync::OnceLock;

use wasteprof_browser::Session;
use wasteprof_checker::{
    certify, certify_all, certify_streamed, render_text, Code, Diag, SliceMutation, TraceMutator,
};
use wasteprof_slicer::{
    pixel_criteria, slice, syscall_criteria, Criteria, ForwardPass, SliceOptions, SliceResult,
    WitnessKind, WitnessRow, Witnesses,
};
use wasteprof_trace::{
    site, write_trace2, InstrKind, MemOps, Recorder, Reg, RegSet, Syscall, ThreadKind, Trace,
    TracePos, TraceReader,
};
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

fn witnessed() -> SliceOptions {
    SliceOptions {
        witness: true,
        ..Default::default()
    }
}

fn certify_clean(
    label: &str,
    trace: &Trace,
    fwd: &ForwardPass,
    criteria: &Criteria,
) -> SliceResult {
    let result = slice(trace, fwd, criteria, &witnessed());
    assert!(
        result.witness().is_some(),
        "{label}: witness missing from result"
    );
    let diags = certify(trace, fwd, criteria, &result);
    assert!(
        diags.is_empty(),
        "{label}: expected a clean certify, got {} diagnostics; first: {}",
        diags.len(),
        diags[0],
    );
    result
}

/// Every canonical slice certifies clean, and one shared sweep over a session's pixel and syscall slices reports exactly what
/// two separate certifications do. On Bing, the load-prefix slice shares
/// a sweep with the full pixel slice: jobs with different considered
/// prefixes.
#[test]
fn canonical_slices_certify_clean() {
    for (label, session) in canonical_sessions() {
        let trace = &session.trace;
        let fwd = ForwardPass::build(trace);
        let (pixel, syscall) = (pixel_criteria(trace), syscall_criteria(trace));
        let [pixel_slice, syscall_slice] =
            [("pixel", &pixel), ("syscall", &syscall)].map(|(kind, criteria)| {
                certify_clean(&format!("{label} [{kind}]"), trace, &fwd, criteria)
            });

        let jobs = [(&pixel, &pixel_slice), (&syscall, &syscall_slice)];
        let separate: Vec<Vec<Diag>> = jobs
            .iter()
            .map(|&(c, r)| certify(trace, &fwd, c, r))
            .collect();
        assert_eq!(
            certify_all(trace, &fwd, &jobs),
            separate,
            "{label}: the shared sweep disagrees with separate certifications"
        );

        if label == Benchmark::Bing.label() {
            let prefix_criteria = pixel.truncated(session.load_end);
            let bounded = SliceOptions {
                end: Some(session.load_end),
                ..witnessed()
            };
            let prefix = slice(trace, &fwd, &prefix_criteria, &bounded);
            assert!(prefix.considered() < pixel_slice.considered());
            let diags = certify_all(
                trace,
                &fwd,
                &[(&prefix_criteria, &prefix), (&pixel, &pixel_slice)],
            );
            assert_eq!(
                diags,
                [Vec::new(), Vec::new()],
                "{label}: load-prefix and full pixel slices in one sweep"
            );
        }
    }
}

/// AmazonMobile's forward pass and witnessed pixel and syscall
/// slices, built once for every test that corrupts or re-pairs them.
struct Fixture {
    session: Session,
    fwd: ForwardPass,
    pixel: Criteria,
    syscall: Criteria,
    pixel_slice: SliceResult,
    syscall_slice: SliceResult,
}

fn amazon_mobile() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let session = Benchmark::AmazonMobile.run();
        let trace = &session.trace;
        let fwd = ForwardPass::build(trace);
        let (pixel, syscall) = (pixel_criteria(trace), syscall_criteria(trace));
        let pixel_slice = slice(trace, &fwd, &pixel, &witnessed());
        let syscall_slice = slice(trace, &fwd, &syscall, &witnessed());
        Fixture {
            session,
            fwd,
            pixel,
            syscall,
            pixel_slice,
            syscall_slice,
        }
    })
}

/// The full rendered diagnostics each mutation produces on the
/// AmazonMobile pixel slice.
fn pinned_text(m: SliceMutation) -> &'static str {
    match m {
        SliceMutation::DropStructuralRow => {
            "WP0008 @0: no witness row, and no checked read consumes its writes \
             (unconsumed slice member)\n"
        }
        SliceMutation::AddUnconsumedMember => {
            "WP0008 @6: no witness row, and no checked read consumes its writes \
             (unconsumed slice member)\n"
        }
        SliceMutation::RetargetStructuralConsumer => {
            "WP0009 @0: call edge @0 -> @6 ends outside the slice (impossible witness edge)\n"
        }
        SliceMutation::UnmarkLiveWriter => {
            "WP0010 @248: non-slice write to R15 read by slice member @250 \
             (non-slice write reaches a consumer)\n"
        }
    }
}

#[test]
fn each_slice_mutation_triggers_exactly_its_certifier_code() {
    let f = amazon_mobile();
    let trace = &f.session.trace;
    let mutator = TraceMutator::new(trace);
    for m in SliceMutation::ALL {
        let mutated = mutator
            .apply_slice(m, &f.pixel_slice)
            .unwrap_or_else(|| panic!("{}: no injection site found", m.name()));
        let diags = certify(trace, &f.fwd, &f.pixel, &mutated);
        // Messages are formatted lazily (only when a check fails); their
        // rendered bytes are part of the certifier's contract.
        assert_eq!(
            render_text(&diags),
            pinned_text(m),
            "{}: rendered diagnostics changed",
            m.name()
        );
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

/// A corrupted slice sharing a sweep with a clean one fires in its own
/// job only, with the text it renders alone, whichever job comes first.
#[test]
fn a_slice_mutation_fires_only_in_its_own_job_of_a_shared_sweep() {
    let f = amazon_mobile();
    let trace = &f.session.trace;
    let mutator = TraceMutator::new(trace);
    for m in SliceMutation::ALL {
        let name = m.name();
        let pixel = mutator.apply_slice(m, &f.pixel_slice).unwrap();
        let clean = (&f.syscall, &f.syscall_slice);
        let [a, b] = two(certify_all(trace, &f.fwd, &[(&f.pixel, &pixel), clean]));
        assert_eq!(
            render_text(&a),
            pinned_text(m),
            "{name}: mutated job, first"
        );
        assert!(b.is_empty(), "{name}: clean job, second: {b:?}");
        let [b, a] = two(certify_all(trace, &f.fwd, &[clean, (&f.pixel, &pixel)]));
        assert_eq!(
            render_text(&a),
            pinned_text(m),
            "{name}: mutated job, second"
        );
        assert!(b.is_empty(), "{name}: clean job, first: {b:?}");

        let syscall = mutator.apply_slice(m, &f.syscall_slice).unwrap();
        let alone = certify(trace, &f.fwd, &f.syscall, &syscall);
        assert!(alone.iter().all(|d| d.code == m.expected_code()) && !alone.is_empty());
        let [p, s] = two(certify_all(
            trace,
            &f.fwd,
            &[(&f.pixel, &f.pixel_slice), (&f.syscall, &syscall)],
        ));
        assert!(p.is_empty(), "{name}: clean pixel job: {p:?}");
        assert_eq!(s, alone, "{name}: mutated syscall job");
    }
}

fn two(diags: Vec<Vec<Diag>>) -> [Vec<Diag>; 2] {
    diags.try_into().expect("two jobs, two results")
}

/// A slice certified against a shorter trace than it considers is one
/// bookkeeping mismatch, in memory and out of core — not a panic, and no
/// sweep past the end of the trace.
#[test]
fn slice_longer_than_its_trace_is_one_mismatch() {
    let f = amazon_mobile();
    let full = f.session.trace.len();
    let half = f.session.trace.prefix(full / 2);
    let expected = format!(
        "WP0011 @end: slice considers {full} instructions, trace has {} \
         (witness bookkeeping mismatch)\n",
        half.len()
    );
    let diags = certify(&half, &f.fwd, &f.pixel, &f.pixel_slice);
    assert_eq!(render_text(&diags), expected, "in memory");

    let mut bytes = Vec::new();
    write_trace2(&mut bytes, &half).unwrap();
    let mut reader = TraceReader::open(Cursor::new(bytes)).unwrap();
    let diags = certify_streamed(&mut reader, &f.fwd, &f.pixel, &f.pixel_slice).unwrap();
    assert_eq!(render_text(&diags), expected, "streamed");
}

#[test]
fn unwitnessed_slice_reports_mismatch() {
    let f = amazon_mobile();
    let trace = &f.session.trace;
    let result = slice(trace, &f.fwd, &f.pixel, &SliceOptions::default());
    let diags = certify(trace, &f.fwd, &f.pixel, &result);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::CertifyMismatch);
}

/// A `call` row whose consumer is the non-member right after the call —
/// same thread, inside the callee frame, so the call stack check alone
/// passes — is one impossible edge: every consumer must be a member.
#[test]
fn call_row_with_a_non_member_consumer_is_an_impossible_edge() {
    let f = amazon_mobile();
    let trace = &f.session.trace;
    let cols = trace.columns();
    let mut rows: Vec<WitnessRow> = f.pixel_slice.witness().unwrap().rows().collect();
    let i = rows
        .iter()
        .position(|r| {
            let next = r.member.index() + 1;
            r.kind == WitnessKind::Call
                && cols.tid(next) == cols.tid(r.member.index())
                && !f.pixel_slice.contains(TracePos(next as u64))
        })
        .expect("a call whose first callee instruction is not a member");
    rows[i].consumer = TracePos(rows[i].member.0 + 1);
    let mut mutated = f.pixel_slice.clone();
    mutated.set_witness(Some(Witnesses::from_rows(rows)));
    assert_eq!(
        render_text(&certify(trace, &f.fwd, &f.pixel, &mutated)),
        "WP0009 @46185: call edge @46185 -> @46186 ends outside the slice \
         (impossible witness edge)\n"
    );
}

/// A one-thread trace for the late read check: `@0` writes `RAX`, then an
/// output syscall at `@1` reads and writes `RAX`. Returns the trace and
/// the syscall's `include_instr` criterion, with `RAX` as its fact or
/// with no facts at all.
fn rax_syscall(with_facts: bool) -> (Trace, Criteria) {
    let mut rec = Recorder::new();
    rec.spawn_thread(ThreadKind::Main, "main_root");
    let rax = RegSet::of(&[Reg::Rax]);
    rec.raw(site!(), InstrKind::Op, RegSet::EMPTY, rax, MemOps::None);
    rec.raw(
        site!(),
        InstrKind::Syscall {
            nr: Syscall::Sendto,
        },
        rax,
        rax,
        MemOps::None,
    );
    let trace = rec.finish();
    let mut criteria = syscall_criteria(&trace);
    if !with_facts {
        let mut items = criteria.items().to_vec();
        items[0].regs = RegSet::EMPTY;
        criteria = Criteria::new(items);
    }
    (trace, criteria)
}

fn certify_witnessed(
    trace: &Trace,
    criteria: &Criteria,
    edit: impl Fn(&mut SliceResult),
) -> String {
    let fwd = ForwardPass::build(trace);
    let mut result = slice(trace, &fwd, criteria, &witnessed());
    edit(&mut result);
    render_text(&certify(trace, &fwd, criteria, &result))
}

/// The anchor overwrites its own criterion register, so the criterion
/// consumes the anchor and the anchor's read pulls in `@0`, which has no
/// row: the late check finds `@0` consumed.
#[test]
fn late_check_consumes_the_writer_of_a_consumed_anchors_read() {
    let (trace, criteria) = rax_syscall(true);
    let fwd = ForwardPass::build(&trace);
    let result = slice(&trace, &fwd, &criteria, &witnessed());
    assert_eq!(result.slice_count(), 2, "the walk pulls in the RAX writer");
    let rows: Vec<WitnessRow> = result.witness().unwrap().rows().collect();
    assert_eq!(
        rows,
        [WitnessRow {
            member: TracePos(1),
            kind: WitnessKind::Criterion,
            consumer: TracePos(1),
        }]
    );
    assert_eq!(certify_witnessed(&trace, &criteria, |_| {}), "");
}

/// Dropping that writer from the slice leaks it through the late check.
#[test]
fn late_check_reports_a_dropped_writer_of_a_consumed_anchors_read() {
    let (trace, criteria) = rax_syscall(true);
    let text = certify_witnessed(&trace, &criteria, |r| {
        assert!(r.remove_member(TracePos(0)));
    });
    assert_eq!(
        text,
        "WP0010 @0: non-slice write to Rax read by slice member @1 \
         (non-slice write reaches a consumer)\n"
    );
}

/// An anchor with no facts whose write nothing reads: its reads were never
/// live, so their writer stays outside the slice and nothing is reported.
#[test]
fn late_check_skips_the_reads_of_an_unconsumed_anchor() {
    let (trace, criteria) = rax_syscall(false);
    let fwd = ForwardPass::build(&trace);
    let result = slice(&trace, &fwd, &criteria, &witnessed());
    assert_eq!(result.slice_count(), 1, "only the anchor joins");
    assert_eq!(certify_witnessed(&trace, &criteria, |_| {}), "");
}
