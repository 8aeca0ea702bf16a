//! One acceptance rule for a trace file: loading it into memory accepts
//! exactly what streaming it out of core accepts. A trace with a
//! structural defect — here a return with no open call — is the
//! checker's finding (WP0002) both ways, not a load error, and it slices
//! the same both ways. A corrupted chunk is refused by every pass, loaded
//! or streamed, whatever columns the pass reads.

use std::io::Cursor;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use wasteprof_analysis::FrameAnalysis;
use wasteprof_checker::{dead_writes_streamed, verify_streamed};
use wasteprof_trace::compress::ByteReader;
use wasteprof_trace::{
    site, write_trace2, AnalysisDriver, Columns, InstrKind, Recorder, Region, SegmentMeta, Syscall,
    ThreadKind, Trace, Trace2Writer, TraceReader,
};

/// A small marker-fed session whose instruction 1 is rewritten into a
/// `Ret` while no call is open.
fn unmatched_ret_trace() -> Trace {
    let mut rec = Recorder::new();
    rec.spawn_thread(ThreadKind::Main, "main");
    let paint = rec.intern_func("gfx::Paint");
    let cell = rec.alloc_cell(Region::Heap);
    let tile = rec.alloc(Region::PixelTile, 64);
    for _ in 0..3 {
        rec.compute(site!(), &[], &[cell.into()]);
    }
    rec.in_func(site!(), paint, |rec| {
        rec.compute(site!(), &[cell.into()], &[tile]);
    });
    rec.marker(site!(), tile);
    let good = rec.finish();

    let src = good.columns();
    let mut cols = Columns::default();
    for i in 0..src.len() {
        let kind = if i == 1 { InstrKind::Ret } else { src.kind(i) };
        cols.push(
            src.tid(i),
            src.func(i),
            src.pc(i),
            kind,
            src.reg_reads(i),
            src.reg_writes(i),
            src.mem_reads(i),
            src.mem_writes(i),
        );
    }
    Trace::from_parts(
        cols,
        good.functions().clone(),
        good.threads().clone(),
        good.markers().to_vec(),
    )
}

fn trace_tool(args: &[&str], file: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .arg(args[0])
        .arg(file)
        .args(&args[1..])
        .output()
        .expect("run trace_tool")
}

/// Runs `args` on `file` loaded and out of core; both must exit with
/// `code` and print the same stdout, which is returned.
fn same_both_ways(args: &[&str], file: &Path, code: i32) -> String {
    let loaded = trace_tool(args, file);
    let streamed = trace_tool(&[args, &["--out-of-core"]].concat(), file);
    for (how, out) in [("loaded", &loaded), ("out of core", &streamed)] {
        assert_eq!(
            out.status.code(),
            Some(code),
            "{args:?} {how}: stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        String::from_utf8_lossy(&loaded.stdout),
        String::from_utf8_lossy(&streamed.stdout),
        "{args:?}: loaded and out-of-core output differ"
    );
    String::from_utf8(loaded.stdout).expect("utf-8 output")
}

#[test]
fn unmatched_return_is_a_finding_loaded_and_streamed() {
    let trace = unmatched_ret_trace();
    let refused = trace.validate().expect_err("the fixture is malformed");
    assert!(
        refused.contains("unmatched return at position 1"),
        "{refused}"
    );

    let file = TempFile(std::env::temp_dir().join(format!(
        "wasteprof-unmatched-ret-{}.wptrace",
        std::process::id()
    )));
    let mut bytes = Vec::new();
    write_trace2(&mut bytes, &trace).expect("encode the fixture");
    std::fs::write(&file.0, bytes).expect("write the fixture");

    let check = same_both_ways(&["check"], &file.0, 1);
    assert!(check.contains("WP0002 @1:"), "{check}");
    same_both_ways(&["check", "--json"], &file.0, 1);
    same_both_ways(&["slice"], &file.0, 0);
    same_both_ways(&["slice", "--criteria", "syscalls"], &file.0, 0);
}

/// A two-thread session written in 64-instruction chunks: calls,
/// register traffic, memory operands, syscalls and markers in every
/// chunk.
fn multi_chunk_image() -> Vec<u8> {
    let mut rec = Recorder::new();
    let main = rec.spawn_thread(ThreadKind::Main, "main");
    let io = rec.spawn_thread(ThreadKind::Io, "io");
    let paint = rec.intern_func("gfx::Paint");
    let cells = [rec.alloc_cell(Region::Heap), rec.alloc_cell(Region::Heap)];
    let io_cell = rec.alloc_cell(Region::Heap);
    let tile = rec.alloc(Region::PixelTile, 64);
    let buf = rec.alloc(Region::Heap, 32);
    rec.switch_to(main);
    rec.compute(site!(), &[], &[cells[0].into(), cells[1].into()]);
    for round in 0..24 {
        rec.switch_to(main);
        let (from, to) = (cells[round % 2], cells[(round + 1) % 2]);
        rec.compute(site!(), &[from.into()], &[to.into()]);
        rec.in_func(site!(), paint, |rec| {
            rec.compute(site!(), &[to.into()], &[tile]);
        });
        rec.marker(site!(), tile);
        rec.switch_to(io);
        rec.compute(site!(), &[], &[io_cell.into()]);
        rec.syscall(site!(), Syscall::Recvfrom, &[], Vec::new(), vec![buf]);
    }
    let trace = rec.finish();

    let mut image = Vec::new();
    let mut w = Trace2Writer::with_segment_len(&mut image, 64).expect("a 64-row writer");
    let cols = trace.columns();
    for i in 0..cols.len() {
        w.push(
            cols.tid(i),
            cols.func(i),
            cols.pc(i),
            cols.kind(i),
            cols.reg_reads(i),
            cols.reg_writes(i),
            cols.mem_reads(i),
            cols.mem_writes(i),
        )
        .expect("encode a row");
    }
    w.finish(trace.functions(), trace.threads(), trace.markers())
        .expect("encode the tables");
    image
}

/// How four consumers of `image` end, each over a fresh reader: loading
/// it, the verify battery and the dead-write battery streamed, and a
/// frames-only fused run streamed.
fn outcomes(image: &[u8]) -> [Result<(), String>; 4] {
    let open = || TraceReader::open(Cursor::new(image)).expect("the footer is intact");
    let loaded = open().read_to_trace().map(drop);
    let verified = verify_streamed(&mut open()).map(drop);
    let dead = dead_writes_streamed(&mut open()).map(drop);
    let mut frames = FrameAnalysis::new();
    let mut driver = AnalysisDriver::new();
    driver.register(&mut frames);
    let framed = driver.run_streamed(&mut open());
    [loaded, verified, dead, framed].map(|r| r.map_err(|e| e.to_string()))
}

#[test]
fn payload_bit_flips_are_refused_by_every_pass_or_by_none() {
    let image = multi_chunk_image();
    let reader = TraceReader::open(Cursor::new(&image[..])).expect("a clean image");
    assert!(
        reader.n_chunks() > 4,
        "the fixture must outgrow the chunk cache"
    );
    assert_eq!(outcomes(&image), [Ok(()), Ok(()), Ok(()), Ok(())]);
    let payload = (0..reader.n_chunks()).flat_map(|i| {
        let meta = reader.chunk_meta(i);
        meta.offset as usize..(meta.offset + meta.byte_len) as usize
    });
    let mut refused = 0;
    for pos in payload {
        let mut flipped = image.clone();
        flipped[pos] ^= 1 << (pos % 8);
        let [loaded, streamed @ ..] = outcomes(&flipped);
        for (pass, got) in ["verify", "dead writes", "frames"].iter().zip(&streamed) {
            assert_eq!(
                got.is_ok(),
                loaded.is_ok(),
                "byte {pos}: {pass} streamed {got:?}, loaded {loaded:?}"
            );
        }
        refused += usize::from(loaded.is_err());
    }
    assert!(refused > 0, "no flip was refused");
}

/// The value bytes of chunk `meta`'s register-read block in `image`:
/// past its length prefix and encoder tag.
fn reg_reads_values(image: &[u8], meta: &SegmentMeta) -> Range<usize> {
    let start = meta.offset as usize;
    let payload = &image[start..start + meta.byte_len as usize];
    let mut r = ByteReader::new(payload);
    let block = |r: &mut ByteReader<'_>| {
        let len = r.varint().expect("a block length") as usize;
        let at = start + payload.len() - r.remaining();
        r.bytes(len).expect("a whole block");
        at + 1..at + len
    };
    // Kind tags and payloads, tids, the function dictionary's length,
    // entries and indices, and pcs come first.
    for _ in 0..3 {
        block(&mut r);
    }
    r.varint().expect("the dictionary length");
    for _ in 0..3 {
        block(&mut r);
    }
    block(&mut r)
}

#[test]
fn register_set_corruption_is_refused_loaded_and_streamed() {
    let image = multi_chunk_image();
    let reader = TraceReader::open(Cursor::new(&image[..])).expect("a clean image");
    // A flip inside chunk 0's register reads that still decodes, to other
    // rows: only the footer's content hash can refuse it.
    let flipped = reg_reads_values(&image, reader.chunk_meta(0))
        .map(|pos| {
            let mut b = image.clone();
            b[pos] ^= 1;
            b
        })
        .find(|b| {
            let loaded =
                TraceReader::open(Cursor::new(&b[..])).and_then(TraceReader::read_to_trace);
            loaded.is_err_and(|e| e.to_string().contains("segment 0 content hash mismatch"))
        })
        .expect("a register-set flip only the content hash refuses");

    let file = TempFile(std::env::temp_dir().join(format!(
        "wasteprof-regset-flip-{}.wptrace",
        std::process::id()
    )));
    std::fs::write(&file.0, flipped).expect("write the fixture");
    same_both_ways(&["check"], &file.0, 1);
    same_both_ways(&["analyze"], &file.0, 1);
    let streamed = trace_tool(&["analyze", "--out-of-core"], &file.0);
    let stderr = String::from_utf8_lossy(&streamed.stderr);
    assert!(
        stderr.contains("segment 0 content hash mismatch"),
        "{stderr}"
    );
}

/// A file removed when the test ends, whether or not it passed.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
