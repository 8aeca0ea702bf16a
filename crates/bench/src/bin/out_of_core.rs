//! Out-of-core trace-tier benchmark (`results/BENCH_6.json`).
//!
//! Two stages, mirroring the acceptance criteria of the `WPTRACE2` tier:
//!
//! 1. **sessions** — every canonical engine session is serialized as
//!    `WPTRACE2`, then pixel-sliced both in memory and through the
//!    streamed path. The streamed [`SliceResult`] must be *equal* to the
//!    in-memory one (bitmap, counts, per-thread and per-func stats,
//!    timeline — `SliceResult`'s `PartialEq` covers every observable
//!    component); any divergence fails the run with exit code 1. Compressed bytes/instruction and streamed slicing
//!    throughput are recorded per session.
//!
//! 2. **synthetic** — a procedurally generated session (default 10^9
//!    instructions, configurable via `--synthetic-instrs N`) is written
//!    straight through [`Trace2Writer`] — the instructions never exist in
//!    memory — and then forward-passed, criteria-extracted, and
//!    backward-sliced entirely from the file. Peak RSS (`VmHWM`) is read
//!    from `/proc/self/status` and reported next to what the in-memory
//!    columnar storage would have needed, proving bounded-memory slicing
//!    at a scale the in-memory tier cannot represent on this machine.
//!
//! The synthetic workload is a two-strand dependence chain: a *useful*
//! strand whose accumulator periodically flushes into a pixel tile at a
//! marker (so the pixel slice walks the whole strand), and a *wasted*
//! strand whose stores never reach any marker — the paper's unnecessary
//! computation, at arbitrary scale, with an analytically known slice
//! fraction of roughly one half.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

use wasteprof_analysis::format_count;
use wasteprof_bench::save;
use wasteprof_slicer::{
    pixel_criteria, pixel_criteria_streamed, slice, slice_streamed, ForwardPass, SliceOptions,
    SliceResult,
};
use wasteprof_trace::{
    write_trace2, AddrRange, Columns, FunctionRegistry, InstrKind, MarkerRecord, Pc, Reg, RegSet,
    Region, ThreadKind, ThreadTable, Trace, Trace2Writer, TraceReader,
};
use wasteprof_workloads::Benchmark;

/// Peak resident set size of this process so far, in bytes (`VmHWM`).
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// A scratch file that disappears with the value.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(name: &str) -> ScratchFile {
        ScratchFile(std::env::temp_dir().join(format!("wasteprof-{}-{name}", std::process::id())))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn open_reader(path: &Path) -> TraceReader<BufReader<File>> {
    let file = File::open(path).expect("open scratch trace");
    TraceReader::open(BufReader::new(file)).expect("read scratch trace")
}

/// One session's measurements, rendered into the JSON report.
struct SessionEntry {
    label: String,
    instructions: u64,
    file_bytes: u64,
    payload_bytes: u64,
    bytes_per_instr: f64,
    in_memory_bytes_per_instr: f64,
    identical: bool,
    streamed_wall_ms: f64,
    streamed_instr_per_sec: f64,
}

/// Runs one canonical session through both tiers.
fn session_entry(label: &str, trace: &Trace) -> SessionEntry {
    eprintln!("[sessions] {label}: {} instructions", trace.len());
    let forward = ForwardPass::build(trace);
    let criteria = pixel_criteria(trace);
    let scratch = ScratchFile::new(&label.replace(' ', "_"));
    let file = File::create(scratch.path()).expect("create scratch trace");
    let mut writer = BufWriter::new(file);
    let stats = write_trace2(&mut writer, trace).expect("serialize WPTRACE2");
    drop(writer);

    let opts = SliceOptions::default();
    let mem = slice(trace, &forward, &criteria, &opts);

    let mut reader = open_reader(scratch.path());
    let started = Instant::now();
    let fwd_st = ForwardPass::build_streamed(&mut reader).expect("streamed forward pass");
    let crit_st = pixel_criteria_streamed(&reader);
    let st = slice_streamed(&mut reader, &fwd_st, &crit_st, &opts).expect("streamed slice");
    let wall = started.elapsed();

    let identical = st == mem;
    if !identical {
        eprintln!(
            "MISMATCH: {label}: streamed slice {} of {} vs in-memory {} of {}",
            st.slice_count(),
            st.considered(),
            mem.slice_count(),
            mem.considered()
        );
    }

    SessionEntry {
        label: label.to_owned(),
        instructions: stats.instrs,
        file_bytes: stats.file_bytes,
        payload_bytes: stats.payload_bytes,
        bytes_per_instr: stats.bytes_per_instr(),
        in_memory_bytes_per_instr: trace.storage_bytes() as f64 / trace.len().max(1) as f64,
        identical,
        streamed_wall_ms: wall.as_secs_f64() * 1e3,
        streamed_instr_per_sec: trace.len() as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// The six canonical engine sessions (Bing's browse session *is* its base
/// session, so it appears once).
fn canonical_sessions() -> Vec<(String, Trace)> {
    let mut out = Vec::new();
    for b in Benchmark::ALL {
        eprintln!("[sessions] running {}...", b.label());
        out.push((b.label().to_owned(), b.run().trace));
    }
    for b in [Benchmark::AmazonDesktop, Benchmark::GoogleMaps] {
        eprintln!("[sessions] running {} (load + browse)...", b.label());
        out.push((
            format!("{} (load + browse)", b.label()),
            b.run_with_browse().trace,
        ));
    }
    out
}

/// Registers of the synthetic chain generator.
const USEFUL_ACC: Reg = Reg::Rax;
const USEFUL_TMP: Reg = Reg::Rcx;
const WASTED_ACC: Reg = Reg::Rdx;
const WASTED_TMP: Reg = Reg::Rbx;

/// Instructions between pixel-tile flushes (block = 6 instructions, flush
/// adds 2 more). Chosen so a 10^9-instruction trace carries ~250k markers.
const BLOCKS_PER_FLUSH: u64 = 640;

/// Measurements from the synthetic generate-then-slice run.
struct SyntheticEntry {
    instructions: u64,
    markers: u64,
    file_bytes: u64,
    bytes_per_instr: f64,
    in_memory_bytes_estimate: u64,
    generate_wall_ms: f64,
    generate_instr_per_sec: f64,
    slice_wall_ms: f64,
    slice_instr_per_sec: f64,
    slice_count: u64,
    slice_fraction: f64,
    peak_rss_bytes: u64,
}

/// Writes a synthetic session of at least `target` instructions straight
/// to `path` as `WPTRACE2`; the instruction stream never exists in memory.
fn generate_synthetic(path: &Path, target: u64) -> (wasteprof_trace::Trace2Stats, u64) {
    let mut funcs = FunctionRegistry::new();
    let func = funcs.intern("synthetic::chain");
    let mut threads = ThreadTable::new();
    let tid = threads.register(ThreadKind::Main);
    let mut markers: Vec<MarkerRecord> = Vec::new();

    let useful_cell = AddrRange::new(Region::Heap.base(), 64);
    let wasted_cell = AddrRange::new(Region::Heap.base().offset(64), 64);
    let tiles: Vec<AddrRange> = (0..16)
        .map(|i| AddrRange::new(Region::PixelTile.base().offset(i * 64), 64))
        .collect();

    let file = File::create(path).expect("create synthetic trace");
    let mut w = Trace2Writer::new(BufWriter::new(file)).expect("writer");
    let mut emitted: u64 = 0;
    let of = RegSet::of;

    // Seed both accumulators so the chains read initialized registers.
    w.push(
        tid,
        func,
        Pc(1),
        InstrKind::Op,
        RegSet::EMPTY,
        of(&[USEFUL_ACC]),
        &[],
        &[],
    )
    .expect("push");
    w.push(
        tid,
        func,
        Pc(2),
        InstrKind::Op,
        RegSet::EMPTY,
        of(&[WASTED_ACC]),
        &[],
        &[],
    )
    .expect("push");
    emitted += 2;

    let mut block: u64 = 0;
    while emitted < target {
        // Useful strand: load the cell, fold it into the accumulator,
        // store the accumulator back — a def→use chain through memory.
        w.push(
            tid,
            func,
            Pc(11),
            InstrKind::Load,
            RegSet::EMPTY,
            of(&[USEFUL_TMP]),
            &[useful_cell],
            &[],
        )
        .expect("push");
        w.push(
            tid,
            func,
            Pc(12),
            InstrKind::Op,
            of(&[USEFUL_ACC, USEFUL_TMP]),
            of(&[USEFUL_ACC]),
            &[],
            &[],
        )
        .expect("push");
        w.push(
            tid,
            func,
            Pc(13),
            InstrKind::Store,
            of(&[USEFUL_ACC]),
            RegSet::EMPTY,
            &[],
            &[useful_cell],
        )
        .expect("push");
        // Wasted strand: identical shape, but its values never reach a
        // marker — the unnecessary computation under pixel criteria.
        w.push(
            tid,
            func,
            Pc(21),
            InstrKind::Load,
            RegSet::EMPTY,
            of(&[WASTED_TMP]),
            &[wasted_cell],
            &[],
        )
        .expect("push");
        w.push(
            tid,
            func,
            Pc(22),
            InstrKind::Op,
            of(&[WASTED_ACC, WASTED_TMP]),
            of(&[WASTED_ACC]),
            &[],
            &[],
        )
        .expect("push");
        w.push(
            tid,
            func,
            Pc(23),
            InstrKind::Store,
            of(&[WASTED_ACC]),
            RegSet::EMPTY,
            &[],
            &[wasted_cell],
        )
        .expect("push");
        emitted += 6;
        block += 1;

        if block.is_multiple_of(BLOCKS_PER_FLUSH) {
            let tile = tiles[(block / BLOCKS_PER_FLUSH) as usize % tiles.len()];
            w.push(
                tid,
                func,
                Pc(41),
                InstrKind::Store,
                of(&[USEFUL_ACC]),
                RegSet::EMPTY,
                &[],
                &[tile],
            )
            .expect("push");
            let r13 = of(&[Reg::R13]);
            w.push(tid, func, Pc(42), InstrKind::Marker, r13, r13, &[], &[])
                .expect("push");
            markers.push(MarkerRecord {
                pos: wasteprof_trace::TracePos(emitted + 1),
                tile,
            });
            emitted += 2;
        }
    }

    let stats = w.finish(&funcs, &threads, &markers).expect("finish");
    (stats, markers.len() as u64)
}

/// Generates and stream-slices the synthetic session.
fn synthetic_entry(target: u64) -> SyntheticEntry {
    let scratch = ScratchFile::new("synthetic");
    eprintln!(
        "[synthetic] generating {} instructions...",
        format_count(target)
    );
    let started = Instant::now();
    let (stats, markers) = generate_synthetic(scratch.path(), target);
    let generate_wall = started.elapsed();
    eprintln!(
        "[synthetic] wrote {} instructions, {} bytes ({:.2} bytes/instr) in {:.1}s",
        format_count(stats.instrs),
        format_count(stats.file_bytes),
        stats.bytes_per_instr(),
        generate_wall.as_secs_f64()
    );

    let started = Instant::now();
    let mut reader = open_reader(scratch.path());
    let forward = ForwardPass::build_streamed(&mut reader).expect("streamed forward pass");
    let criteria = pixel_criteria_streamed(&reader);
    let result: SliceResult =
        slice_streamed(&mut reader, &forward, &criteria, &SliceOptions::default())
            .expect("streamed slice");
    let slice_wall = started.elapsed();
    eprintln!(
        "[synthetic] sliced: {} of {} instructions ({:.1}%) in {:.1}s, peak RSS {} bytes",
        format_count(result.slice_count()),
        format_count(result.considered()),
        result.fraction() * 100.0,
        slice_wall.as_secs_f64(),
        format_count(peak_rss_bytes())
    );

    // What the in-memory tier would need for the same trace: the fixed
    // per-instruction column cost plus one arena slot per memory operand
    // (each block carries 4 operands over 6 instructions, plus 1 on each
    // tile flush).
    let operand_slots = stats.instrs / 6 * 4 + markers;
    let in_memory = stats.instrs * Columns::BYTES_PER_INSTR as u64
        + operand_slots * std::mem::size_of::<AddrRange>() as u64;

    SyntheticEntry {
        instructions: stats.instrs,
        markers,
        file_bytes: stats.file_bytes,
        bytes_per_instr: stats.bytes_per_instr(),
        in_memory_bytes_estimate: in_memory,
        generate_wall_ms: generate_wall.as_secs_f64() * 1e3,
        generate_instr_per_sec: stats.instrs as f64 / generate_wall.as_secs_f64().max(1e-9),
        slice_wall_ms: slice_wall.as_secs_f64() * 1e3,
        slice_instr_per_sec: stats.instrs as f64 / slice_wall.as_secs_f64().max(1e-9),
        slice_count: result.slice_count(),
        slice_fraction: result.fraction(),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

fn render_json(sessions: &[SessionEntry], synthetic: &SyntheticEntry) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"note\": \"out-of-core WPTRACE2 tier: per-session compressed bytes/instr \
         and streamed slicing throughput, with streamed SliceResults asserted equal \
         to the in-memory path; the synthetic run slices a \
         >=1e9-instruction session straight from disk with peak RSS far below the \
         in-memory columnar footprint\",\n",
    );
    out.push_str("  \"sessions\": [\n");
    for (i, s) in sessions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"instructions\": {}, \"file_bytes\": {}, \
             \"payload_bytes\": {}, \"bytes_per_instr\": {:.2}, \
             \"in_memory_bytes_per_instr\": {:.2}, \
             \"identical\": {}, \
             \"streamed_wall_ms\": {:.3}, \"streamed_instr_per_sec\": {:.1}}}{}\n",
            s.label,
            s.instructions,
            s.file_bytes,
            s.payload_bytes,
            s.bytes_per_instr,
            s.in_memory_bytes_per_instr,
            s.identical,
            s.streamed_wall_ms,
            s.streamed_instr_per_sec,
            if i + 1 < sessions.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"synthetic\": {{\n    \"instructions\": {},\n    \"markers\": {},\n    \
         \"file_bytes\": {},\n    \"bytes_per_instr\": {:.3},\n    \
         \"in_memory_bytes_estimate\": {},\n    \"generate_wall_ms\": {:.1},\n    \
         \"generate_instr_per_sec\": {:.1},\n    \"slice_wall_ms\": {:.1},\n    \
         \"slice_instr_per_sec\": {:.1},\n    \"slice_count\": {},\n    \
         \"slice_fraction\": {:.4},\n    \"peak_rss_bytes\": {}\n  }}\n",
        synthetic.instructions,
        synthetic.markers,
        synthetic.file_bytes,
        synthetic.bytes_per_instr,
        synthetic.in_memory_bytes_estimate,
        synthetic.generate_wall_ms,
        synthetic.generate_instr_per_sec,
        synthetic.slice_wall_ms,
        synthetic.slice_instr_per_sec,
        synthetic.slice_count,
        synthetic.slice_fraction,
        synthetic.peak_rss_bytes,
    ));
    out.push_str("}\n");
    out
}

/// How peak RSS compares with the in-memory estimate, as the real ratio
/// with one decimal: "36.0x below the in-memory estimate", or "above"
/// when RSS is the larger.
fn rss_vs_estimate(peak_rss: u64, estimate: u64) -> String {
    let (peak, estimate) = (peak_rss.max(1) as f64, estimate.max(1) as f64);
    if peak <= estimate {
        format!("{:.1}x below the in-memory estimate", estimate / peak)
    } else {
        format!("{:.1}x above the in-memory estimate", peak / estimate)
    }
}

fn main() {
    let mut synthetic_instrs: u64 = 1_000_000_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--synthetic-instrs" => {
                synthetic_instrs = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("usage: out_of_core [--synthetic-instrs N]");
                    std::process::exit(2);
                });
            }
            _ => {
                eprintln!("usage: out_of_core [--synthetic-instrs N]");
                std::process::exit(2);
            }
        }
    }

    let entries: Vec<SessionEntry> = canonical_sessions()
        .iter()
        .map(|(label, trace)| session_entry(label, trace))
        .collect();
    let all_identical = entries.iter().all(|e| e.identical);

    let synthetic = synthetic_entry(synthetic_instrs);

    save("BENCH_6.json", &render_json(&entries, &synthetic));
    if !all_identical {
        eprintln!("FAILED: streamed SliceResults diverged from the in-memory path");
        std::process::exit(1);
    }
    println!(
        "out-of-core tier verified: 6 sessions identical; \
         synthetic {} instructions sliced at {:.2} bytes/instr with peak RSS {} ({})",
        format_count(synthetic.instructions),
        synthetic.bytes_per_instr,
        format_count(synthetic.peak_rss_bytes),
        rss_vs_estimate(synthetic.peak_rss_bytes, synthetic.in_memory_bytes_estimate)
    );
}

#[cfg(test)]
mod tests {
    use super::rss_vs_estimate;

    #[test]
    fn rss_ratio_reads_in_both_directions() {
        assert_eq!(
            rss_vs_estimate(1_000, 36_000),
            "36.0x below the in-memory estimate"
        );
        assert_eq!(
            rss_vs_estimate(293_000_000, 120_000_000),
            "2.4x above the in-memory estimate"
        );
        assert_eq!(rss_vs_estimate(0, 0), "1.0x below the in-memory estimate");
    }
}
