//! One acceptance rule for a trace file: `trace_tool` loading it into
//! memory accepts exactly what streaming it out of core accepts. A trace
//! with a structural defect — here a return with no open call — is the
//! checker's finding (WP0002) both ways, not a load error, and it slices
//! the same both ways.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use wasteprof_trace::{
    site, write_trace2, Columns, InstrKind, Recorder, Region, ThreadKind, Trace,
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

/// A file removed when the test ends, whether or not it passed.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
