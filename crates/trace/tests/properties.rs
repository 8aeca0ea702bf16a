//! Property-based tests for the trace substrate: `WPTRACE2` serialization
//! round-trips arbitrary recordings (materialized and streamed),
//! recordings always satisfy the structural invariants, and — the
//! hardening contract — no mutated or truncated byte stream can make the
//! reader panic or allocate beyond the input it was given: every outcome
//! is `Ok` or a typed [`TraceIoError`].

use std::io::Cursor;

use proptest::prelude::*;
use wasteprof_trace::{
    write_trace2, ColumnSource, Pc, Recorder, Reg, RegSet, Region, Syscall, ThreadKind, TraceReader,
};

/// One random emission step.
#[derive(Debug, Clone)]
enum Step {
    Alu(u8),
    LoadStore,
    Branch(bool),
    CallRet(u8),
    Syscall(u8),
    Marker,
    Compute(u8, u8),
    SwitchThread(u8),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..16).prop_map(Step::Alu),
        Just(Step::LoadStore),
        any::<bool>().prop_map(Step::Branch),
        (0u8..4).prop_map(Step::CallRet),
        (0u8..8).prop_map(Step::Syscall),
        Just(Step::Marker),
        (0u8..4, 0u8..3).prop_map(|(r, w)| Step::Compute(r, w)),
        (0u8..3).prop_map(Step::SwitchThread),
    ]
}

fn record(steps: &[Step]) -> wasteprof_trace::Trace {
    let mut rec = Recorder::new();
    let t0 = rec.spawn_thread(ThreadKind::Main, "m");
    let t1 = rec.spawn_thread(ThreadKind::Compositor, "c");
    let t2 = rec.spawn_thread(ThreadKind::Io, "io");
    let tids = [t0, t1, t2];
    rec.switch_to(t0);
    let funcs: Vec<_> = (0..4)
        .map(|i| rec.intern_func(&format!("ns{}::fn{}", i % 2, i)))
        .collect();
    let cells: Vec<_> = (0..8).map(|_| rec.alloc_cell(Region::Heap)).collect();
    let mut pc_salt = 0u32;
    let mut pc = move || {
        pc_salt += 1;
        Pc::from_location("prop").step(pc_salt)
    };
    for s in steps {
        match s {
            Step::Alu(r) => {
                rec.alu(pc(), Reg::from_index(*r as usize), RegSet::EMPTY);
            }
            Step::LoadStore => {
                rec.load(pc(), Reg::Rax, cells[0]);
                rec.store(pc(), cells[1], Reg::Rax);
            }
            Step::Branch(taken) => {
                rec.branch_mem(pc(), cells[2], *taken);
            }
            Step::CallRet(f) => {
                let callee = funcs[*f as usize];
                rec.enter(pc(), callee);
                rec.alu(pc(), Reg::Rbx, RegSet::EMPTY);
                rec.leave(pc());
            }
            Step::Syscall(nr) => {
                let call = Syscall::ALL[*nr as usize % Syscall::ALL.len()];
                rec.syscall(
                    pc(),
                    call,
                    &[cells[3].into()],
                    vec![cells[4].into()],
                    vec![],
                );
            }
            Step::Marker => {
                let tile = rec.alloc(Region::PixelTile, 64);
                rec.marker(pc(), tile);
            }
            Step::Compute(r, w) => {
                let reads: Vec<_> = cells[..*r as usize].iter().map(|&c| c.into()).collect();
                let writes: Vec<_> = cells[4..4 + *w as usize]
                    .iter()
                    .map(|&c| c.into())
                    .collect();
                rec.compute(pc(), &reads, &writes);
            }
            Step::SwitchThread(t) => {
                rec.switch_to(tids[*t as usize % tids.len()]);
            }
        }
    }
    rec.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_recordings_are_valid(steps in proptest::collection::vec(step(), 0..60)) {
        let trace = record(&steps);
        prop_assert_eq!(trace.validate(), Ok(()));
        prop_assert_eq!(trace.kind_histogram().total() as usize, trace.len());
    }

    #[test]
    fn serialization_roundtrips(steps in proptest::collection::vec(step(), 0..60)) {
        let trace = record(&steps);
        let mut buf = Vec::new();
        write_trace2(&mut buf, &trace).unwrap();
        let back = TraceReader::open(Cursor::new(buf)).unwrap().read_to_trace().unwrap();
        prop_assert_eq!(back.len(), trace.len());
        prop_assert_eq!(back.markers(), trace.markers());
        prop_assert_eq!(back.functions().len(), trace.functions().len());
        for (id, info) in trace.functions().iter() {
            prop_assert_eq!(info.name(), back.functions().name(id));
        }
        prop_assert_eq!(back.threads().len(), trace.threads().len());
        for (a, b) in trace.threads().iter().zip(back.threads().iter()) {
            prop_assert_eq!(a.kind(), b.kind());
        }
        for (a, b) in trace.iter().zip(back.iter()) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn wptrace2_roundtrips_and_streams(steps in proptest::collection::vec(step(), 0..60)) {
        let trace = record(&steps);
        let mut buf = Vec::new();
        write_trace2(&mut buf, &trace).unwrap();
        let mut reader = TraceReader::open(Cursor::new(buf)).unwrap();
        prop_assert_eq!(reader.len(), trace.len());
        prop_assert_eq!(reader.markers(), trace.markers());
        prop_assert_eq!(reader.functions().len(), trace.functions().len());
        prop_assert_eq!(reader.threads().len(), trace.threads().len());
        // Field-for-field comparison against the in-memory columns
        // through the streaming cursor window.
        let cols = trace.columns();
        let n = reader.len();
        let mut seen = 0usize;
        reader.stream_range(0, n, |cur| {
            for idx in cur.lo()..cur.hi() {
                assert_eq!(cur.tid(idx), cols.tid(idx));
                assert_eq!(cur.func(idx), cols.func(idx));
                assert_eq!(cur.pc(idx), cols.pc(idx));
                assert_eq!(cur.kind(idx), cols.kind(idx));
                assert_eq!(cur.reg_reads(idx), cols.reg_reads(idx));
                assert_eq!(cur.reg_writes(idx), cols.reg_writes(idx));
                assert_eq!(cur.mem_reads(idx), cols.mem_reads(idx));
                assert_eq!(cur.mem_writes(idx), cols.mem_writes(idx));
                seen += 1;
            }
        }).unwrap();
        prop_assert_eq!(seen, trace.len());
    }

    #[test]
    fn corrupt_wptrace2_never_panics(
        steps in proptest::collection::vec(step(), 0..30),
        flip_at in 0usize..1000,
        flip_to in any::<u8>(),
        trunc_at in 0usize..1000,
        truncate in any::<bool>(),
    ) {
        let trace = record(&steps);
        let mut buf = Vec::new();
        write_trace2(&mut buf, &trace).unwrap();
        if truncate {
            buf.truncate(buf.len() * trunc_at / 1000);
        } else if !buf.is_empty() {
            let idx = (buf.len() - 1) * flip_at / 1000;
            buf[idx] = flip_to;
        }
        // Open validates the trailer and footer; if that survives the
        // corruption, every chunk decode must still be bounds-checked.
        if let Ok(mut reader) = TraceReader::open(Cursor::new(buf)) {
            let n = reader.len();
            let _ = reader.stream_range(0, n, |_| {});
            let _ = reader.read_to_trace();
        }
    }

    #[test]
    fn payload_bit_flips_never_yield_wrong_rows(
        steps in proptest::collection::vec(step(), 1..30),
        flip_at in 0usize..1000,
        flip_bit in 0u8..8,
    ) {
        // Stronger than "never panics": a bit-flip strictly inside a
        // segment payload — the region the per-column codecs might decode
        // "successfully" — must either produce a typed error (codec or
        // footer content-hash mismatch) or leave the decoded rows
        // identical to the original. It must never hand back different
        // rows as if they were genuine.
        let trace = record(&steps);
        let mut buf = Vec::new();
        write_trace2(&mut buf, &trace).unwrap();
        let probe = TraceReader::open(Cursor::new(buf.clone())).unwrap();
        if probe.n_chunks() == 0 {
            // A step list of pure thread switches records nothing.
            return Ok(());
        }
        let meta = probe.chunk_meta(0).clone();
        let lo = meta.offset as usize;
        let hi = lo + meta.byte_len as usize;
        let idx = lo + (hi - lo - 1) * flip_at / 1000;
        buf[idx] ^= 1 << flip_bit;
        let mut reader = TraceReader::open(Cursor::new(buf)).unwrap();
        let cols = trace.columns();
        let end = (meta.n_instr as usize).min(reader.len());
        // If the chunk decodes at all, the content hash has vouched for
        // it, so the rows must match the original exactly.
        let _ = reader.stream_range(0, end, |cur| {
            for idx in cur.lo()..cur.hi() {
                assert_eq!(cur.kind(idx), cols.kind(idx));
                assert_eq!(cur.tid(idx), cols.tid(idx));
                assert_eq!(cur.func(idx), cols.func(idx));
                assert_eq!(cur.pc(idx), cols.pc(idx));
                assert_eq!(cur.reg_reads(idx), cols.reg_reads(idx));
                assert_eq!(cur.reg_writes(idx), cols.reg_writes(idx));
                assert_eq!(cur.mem_reads(idx), cols.mem_reads(idx));
                assert_eq!(cur.mem_writes(idx), cols.mem_writes(idx));
            }
        });
    }

    #[test]
    fn traced_allocations_keep_recordings_valid(
        steps in proptest::collection::vec(step(), 0..40),
    ) {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "m");
        rec.set_traced_allocations(true);
        for i in 0..6u32 {
            let c = rec.alloc_cell(Region::Heap);
            rec.compute(Pc::from_location("anchor").step(i), &[], &[c.into()]);
        }
        drop(steps); // variety comes from the allocation loop above
        let trace = rec.finish();
        prop_assert_eq!(trace.validate(), Ok(()));
        // The allocator symbol appears and its calls balance.
        let h = trace.kind_histogram();
        prop_assert_eq!(h.calls, h.rets);
    }
}
