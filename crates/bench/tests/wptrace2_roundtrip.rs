//! Round-trip differential over the canonical sessions: every engine
//! session serialized as `WPTRACE2`, streamed back through the bounded
//! chunk window, and compared field for field against the in-memory
//! [`Columns`] — tables, markers, and all eight per-instruction columns.

use std::io::Cursor;

use wasteprof_trace::{write_trace2, ColumnSource, Trace, TraceReader};
use wasteprof_workloads::Benchmark;

fn assert_roundtrip(label: &str, trace: &Trace) {
    let mut buf = Vec::new();
    let stats = write_trace2(&mut buf, trace).unwrap();
    assert_eq!(stats.instrs, trace.len() as u64, "{label}: count");
    assert_eq!(stats.file_bytes, buf.len() as u64, "{label}: file size");
    assert!(
        stats.bytes_per_instr() < 30.5,
        "{label}: compression worse than the in-memory tier ({:.2} bytes/instr)",
        stats.bytes_per_instr()
    );

    let mut reader = TraceReader::open(Cursor::new(buf)).unwrap();
    assert_eq!(reader.len(), trace.len(), "{label}: reader length");
    assert_eq!(reader.markers(), trace.markers(), "{label}: markers");
    assert_eq!(
        reader.functions().len(),
        trace.functions().len(),
        "{label}: function registry"
    );
    for (id, info) in trace.functions().iter() {
        assert_eq!(info.name(), reader.functions().info(id).name());
    }
    assert_eq!(
        reader.threads().len(),
        trace.threads().len(),
        "{label}: thread table"
    );
    for (a, b) in trace.threads().iter().zip(reader.threads().iter()) {
        assert_eq!(a.kind(), b.kind(), "{label}: thread kind");
        assert_eq!(a.name(), b.name(), "{label}: thread name");
    }

    let cols = trace.columns();
    let n = reader.len();
    let mut seen = 0usize;
    reader
        .stream_range(0, n, |cur| {
            for idx in cur.lo()..cur.hi() {
                assert_eq!(cur.tid(idx), cols.tid(idx), "{label}@{idx}: tid");
                assert_eq!(cur.func(idx), cols.func(idx), "{label}@{idx}: func");
                assert_eq!(cur.pc(idx), cols.pc(idx), "{label}@{idx}: pc");
                assert_eq!(cur.kind(idx), cols.kind(idx), "{label}@{idx}: kind");
                assert_eq!(
                    cur.reg_reads(idx),
                    cols.reg_reads(idx),
                    "{label}@{idx}: reg reads"
                );
                assert_eq!(
                    cur.reg_writes(idx),
                    cols.reg_writes(idx),
                    "{label}@{idx}: reg writes"
                );
                assert_eq!(
                    cur.mem_reads(idx),
                    cols.mem_reads(idx),
                    "{label}@{idx}: mem reads"
                );
                assert_eq!(
                    cur.mem_writes(idx),
                    cols.mem_writes(idx),
                    "{label}@{idx}: mem writes"
                );
                seen += 1;
            }
        })
        .unwrap();
    assert_eq!(seen, trace.len(), "{label}: streamed instruction count");
}

#[test]
fn all_canonical_sessions_roundtrip_through_wptrace2() {
    for b in Benchmark::ALL {
        assert_roundtrip(b.label(), &b.run().trace);
    }
    for b in [Benchmark::AmazonDesktop, Benchmark::GoogleMaps] {
        assert_roundtrip(
            &format!("{} (load + browse)", b.label()),
            &b.run_with_browse().trace,
        );
    }
}
