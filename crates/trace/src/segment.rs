//! `WPTRACE2` segment codec: fixed-size, 64-aligned instruction segments,
//! each encoded as independently decodable per-column blocks, plus the
//! file footer that indexes them.
//!
//! A `WPTRACE2` file is laid out as
//!
//! ```text
//! "WPTRACE2"  segment_0 .. segment_{k-1}  footer  footer_len:u64  "WPT2END\0"
//! ```
//!
//! Segments are found through the footer's index (offset + byte length per
//! segment), so a writer can stream segments out as they fill and a reader
//! can seek straight to any chunk. Each segment covers a contiguous
//! instruction range whose start is 64-aligned.
//!
//! Inside a segment every column is one [`crate::compress`] block with a
//! column-specific pre-transform:
//!
//! * `pc` and operand start addresses: zigzag delta (straight-line code
//!   and sequential buffers become tiny constant-delta runs);
//! * `func`: a per-segment sorted dictionary of global function ids
//!   (delta-coded), then dictionary indices;
//! * kind tags, tids, register bitsets, operand counts, operand lengths:
//!   raw values (the run-length encoder collapses their long runs);
//! * kind payloads: present only for the branch/call/syscall rows that
//!   carry one.
//!
//! Decoding validates every count against the bytes that remain and every
//! value against its column's domain, so corrupt input produces
//! [`TraceIoError::Format`] — never a panic, and never an allocation the
//! input's own size does not justify.

use crate::addr::{Addr, AddrRange, Region};
use crate::columns::{ColumnCursor, Columns, MemOpsRef};
use crate::compress::{decode_runs, encode_block, put_varint, unzigzag, zigzag, ByteReader};
use crate::io::{bad, TraceIoError};
use crate::syscall::Syscall;
use crate::thread::ThreadId;

/// Magic bytes opening a `WPTRACE2` file.
pub const MAGIC2: &[u8; 8] = b"WPTRACE2";
/// Trailer bytes closing a `WPTRACE2` file.
pub const TRAILER2: &[u8; 8] = b"WPT2END\0";

/// Default instructions per segment (a multiple of 64).
pub const SEGMENT_LEN: usize = 1 << 16;

/// Hard cap on instructions per segment a reader will decode. Bounds the
/// allocation a corrupt footer can demand from one chunk.
pub const MAX_SEGMENT_INSTRS: usize = 1 << 22;

/// Hard cap on memory-operand arena entries per segment, for the same
/// reason (run-length operand counts could otherwise claim arbitrarily
/// many operands from a few bytes).
pub const MAX_SEGMENT_ARENA: usize = 1 << 22;

/// One segment's entry in the file footer's index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Byte offset of the segment's payload in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub byte_len: u64,
    /// Global index of the segment's first instruction (64-aligned).
    pub first_instr: u64,
    /// Number of instructions in the segment.
    pub n_instr: u64,
    /// Bitmap of thread ids appearing in the segment (bit `t` of word
    /// `t / 64`).
    pub thread_bits: [u64; 4],
    /// Bitmap of [`crate::Region`]s touched by the segment's memory
    /// operands; bit 15 marks unmapped addresses.
    pub region_bits: u16,
    /// 128-bit content hash of the segment's instruction rows (see
    /// [`segment_content_hash`]); position-independent, so identical rows
    /// at a different trace offset hash identically. Doubles as an
    /// integrity check on decode.
    pub content_hash: [u64; 2],
}

impl SegmentMeta {
    /// True if any instruction of this segment executes on `tid`.
    pub fn has_thread(&self, tid: ThreadId) -> bool {
        self.thread_bits[tid.index() / 64] >> (tid.index() % 64) & 1 == 1
    }
}

/// Streaming accumulator for [`segment_content_hash`]: two independently
/// seeded 64-bit multiplicative-mix lanes, giving a 128-bit digest. The
/// collision bar matters here — a colliding pair of segments would make
/// the incremental slicer's re-query memo serve a stale result — so a single
/// 64-bit lane is not enough, and the two lanes use distinct odd
/// constants and seeds so they do not degenerate into one.
#[derive(Clone, Copy, Debug)]
pub struct ContentHasher {
    lanes: [u64; 2],
}

const LANE_MUL: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];
const LANE_SEED: [u64; 2] = [0x5851_F42D_4C95_7F2D, 0x1405_7B7E_F767_814F];

impl ContentHasher {
    /// A fresh hasher over zero rows.
    pub fn new() -> ContentHasher {
        ContentHasher { lanes: LANE_SEED }
    }

    /// Folds one 64-bit word into the digest: the mixing step every row
    /// field goes through, exposed for digests of other data (the
    /// incremental slicer's re-query memo key).
    #[inline]
    pub fn fold_word(&mut self, w: u64) {
        for (lane, mul) in self.lanes.iter_mut().zip(LANE_MUL) {
            let v = (*lane ^ w).wrapping_mul(mul);
            *lane = v.rotate_left(29) ^ (v >> 32);
        }
    }

    /// Folds the rows of one cursor window into the digest. Every field
    /// the slicer can observe is hashed — kind tag and payload, thread,
    /// function, pc, both register bitsets, and each memory operand's
    /// start and length — but nothing positional, so the digest is
    /// invariant under relocating the rows to a different trace offset,
    /// and a range folded window by window hashes as one resident fold.
    pub fn fold(&mut self, cur: &ColumnCursor<'_>) {
        let (cols, lo, hi) = cur.physical();
        for idx in lo..hi {
            let (tag, data) = cols.raw_kind(idx);
            self.fold_word(u64::from(tag) | u64::from(data) << 8);
            self.fold_word(
                u64::from(cols.tid(idx).0)
                    | u64::from(cols.reg_reads(idx).bits()) << 8
                    | u64::from(cols.reg_writes(idx).bits()) << 24,
            );
            self.fold_word(u64::from(cols.func(idx).0) | u64::from(cols.pc(idx).0) << 32);
            let reads = cols.mem_reads(idx);
            let writes = cols.mem_writes(idx);
            self.fold_word(reads.len() as u64 | (writes.len() as u64) << 32);
            for r in reads.iter().chain(writes) {
                self.fold_word(r.start().raw());
                self.fold_word(u64::from(r.len()));
            }
        }
    }

    /// Finishes the digest. The row count is folded in last so a segment
    /// is never a hash-prefix of a longer one.
    pub fn finish(mut self, n_rows: u64) -> [u64; 2] {
        self.fold_word(n_rows ^ 0x0165_6667_C78F_u64);
        self.fold_word(self.lanes[1] ^ self.lanes[0].rotate_left(17));
        self.lanes
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

/// 128-bit content hash of the instruction rows `[lo, hi)` of `cols`
/// (physical indices). This is the canonical segment identity used by the
/// `WPTRACE2` footer index and the incremental slicer's re-query memo key:
/// equal row content ⇒ equal hash regardless of trace position, and any
/// slicer-visible field difference perturbs it.
pub fn segment_content_hash(cols: &Columns, lo: usize, hi: usize) -> [u64; 2] {
    let mut h = ContentHasher::new();
    h.fold(&cols.cursor(lo, hi));
    h.finish((hi - lo) as u64)
}

/// Working storage [`encode_segment`] keeps between calls: the run heads
/// of the block being written, the segment's function dictionary, and the
/// columns the payload stores transformed — pc and operand-start deltas,
/// kind payloads, dictionary indices, operand counts and lengths.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    runs: Vec<u32>,
    dict: Vec<u32>,
    wide: Vec<u64>,
    narrow: Vec<u32>,
    counts: Vec<u16>,
}

/// Encodes the instruction range `[lo, hi)` of `cols` (physical indices)
/// as one segment payload appended to `out`, returning the thread and
/// region bitmaps for the footer index.
///
/// Each column is encoded straight from the store's typed slice, or from
/// its transform staged in `scratch`, through [`encode_block`]; a
/// `scratch` reused across segments reaches its working size once and
/// then encodes without allocating. The function dictionary is built
/// from the heads of the func column's runs, and each run looks its index
/// up once.
///
/// # Errors
///
/// [`TraceIoError::Format`] if the range holds more instructions than
/// [`MAX_SEGMENT_INSTRS`] or more memory operands than
/// [`MAX_SEGMENT_ARENA`] — format limits a reader enforces, reported
/// before a byte is written rather than written unreadably.
pub fn encode_segment(
    cols: &Columns,
    lo: usize,
    hi: usize,
    out: &mut Vec<u8>,
    scratch: &mut EncodeScratch,
) -> Result<([u64; 4], u16), TraceIoError> {
    let n = hi - lo;
    if n > MAX_SEGMENT_INSTRS {
        return Err(bad(format!(
            "segment of {n} instructions, above the {MAX_SEGMENT_INSTRS} format cap"
        )));
    }
    let ops = cols.operands(lo, hi);
    if ops.len() > MAX_SEGMENT_ARENA {
        return Err(bad(format!(
            "segment carries {} memory operands, above the {MAX_SEGMENT_ARENA} format cap",
            ops.len()
        )));
    }
    let EncodeScratch {
        runs,
        dict,
        wide,
        narrow,
        counts,
    } = scratch;

    // 1–2. kind tags, then the payloads of the few rows that carry one.
    let kinds = &cols.kinds[lo..hi];
    encode_block(out, kinds, runs);
    narrow.clear();
    narrow.extend(
        kinds
            .iter()
            .zip(&cols.kind_data[lo..hi])
            .filter(|(&tag, _)| matches!(tag, 3 | 4 | 6))
            .map(|(_, &data)| data),
    );
    encode_block(out, narrow, runs);

    // 3. tids.
    let tids = &cols.tids[lo..hi];
    let mut seen = [false; 256];
    for &t in tids {
        seen[usize::from(t)] = true;
    }
    let mut thread_bits = [0u64; 4];
    for t in (0..256).filter(|&t| seen[t]) {
        thread_bits[t / 64] |= 1 << (t % 64);
    }
    encode_block(out, tids, runs);

    // 4. funcs: the sorted dictionary of the column's run heads
    // (delta-coded), then each row's index, looked up once per run.
    let funcs = &cols.funcs[lo..hi];
    dict.clear();
    dict.extend(funcs.chunk_by(|a, b| a == b).map(|run| run[0]));
    dict.sort_unstable();
    dict.dedup();
    narrow.clear();
    narrow.extend(
        dict.iter()
            .scan(0, |prev, &f| Some(f - std::mem::replace(prev, f))),
    );
    put_varint(out, dict.len() as u64);
    encode_block(out, narrow, runs);
    narrow.clear();
    let (mut func, mut index) = (None, 0);
    narrow.extend(funcs.iter().map(|&f| {
        if func != Some(f) {
            func = Some(f);
            index = dict.binary_search(&f).expect("a run head of this column") as u32;
        }
        index
    }));
    encode_block(out, narrow, runs);

    // 5. pcs: zigzag delta, the first from 0.
    let pcs = &cols.pcs[lo..hi];
    wide.clear();
    wide.extend(pcs.first().map(|&pc| zigzag(i64::from(pc))));
    wide.extend(
        pcs.iter()
            .skip(1)
            .zip(pcs)
            .map(|(&pc, &prev)| zigzag(i64::from(pc) - i64::from(prev))),
    );
    encode_block(out, wide, runs);

    // 6–7. register bitsets.
    encode_block(out, &cols.reg_reads[lo..hi], runs);
    encode_block(out, &cols.reg_writes[lo..hi], runs);

    // 8–9. operand counts, split out of the rows' arena references in
    // one sweep.
    counts.resize(2 * n, 0);
    let (nreads, nwrites) = counts.split_at_mut(n);
    for ((r, w), m) in nreads.iter_mut().zip(&mut *nwrites).zip(&cols.mem[lo..hi]) {
        (*r, *w) = (m.nreads, m.nwrites);
    }
    encode_block(out, nreads, runs);
    encode_block(out, nwrites, runs);

    // 10–11. operand start addresses (zigzag delta over the arena
    // sequence, reads before writes per instruction) and lengths.
    let mut region_bits = 0u16;
    wide.clear();
    let mut prev = 0i64;
    wide.extend(ops.iter().map(|r| {
        region_bits |= 1 << r.start().region().map_or(15, Region::index);
        let start = r.start().raw() as i64;
        let delta = zigzag(start.wrapping_sub(prev));
        prev = start;
        delta
    }));
    encode_block(out, wide, runs);
    narrow.clear();
    narrow.extend(ops.iter().map(|r| r.len()));
    encode_block(out, narrow, runs);

    Ok((thread_bits, region_bits))
}

/// Decodes one segment payload of `n` instructions into a fresh physical
/// [`Columns`] store (indices `0..n`).
///
/// `nfuncs` is the symbol-table size from the footer; the func column is
/// validated against it so downstream per-function tables can index
/// without guards, matching what [`crate::Trace`] guarantees in memory.
///
/// # Errors
///
/// [`TraceIoError::Format`] on any structural defect: truncated streams,
/// out-of-domain values, dictionary misuse, operand caps exceeded, or
/// trailing bytes after the last column.
pub fn decode_segment(bytes: &[u8], n: usize, nfuncs: usize) -> Result<Columns, TraceIoError> {
    let mut cols = Columns::default();
    decode_segment_into(bytes, n, nfuncs, &mut cols, &mut DecodeScratch::default())?;
    Ok(cols)
}

/// Working storage [`decode_segment_into`] keeps between calls: the
/// segment's function dictionary, and the operand start addresses, which
/// the payload stores before the lengths they pair with.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    dict: Vec<u32>,
    starts: Vec<u64>,
}

/// Appends `run` copies of `v` to `col`.
#[inline]
fn push_run<T: Copy>(col: &mut Vec<T>, v: T, run: usize) {
    if run == 1 {
        col.push(v);
    } else {
        col.resize(col.len() + run, v);
    }
}

/// Refills `col` from one block of `n` values through `conv`, called
/// once per run.
fn decode_column<T: Copy>(
    r: &mut ByteReader<'_>,
    n: usize,
    col: &mut Vec<T>,
    conv: impl Fn(u64) -> Result<T, TraceIoError>,
) -> Result<(), TraceIoError> {
    col.clear();
    col.reserve(n);
    decode_runs(r, n, |v, run| {
        push_run(col, conv(v)?, run);
        Ok(())
    })
}

/// [`decode_segment`] into a caller-owned store: every column is cleared
/// and filled straight from its block, with its domain check applied once
/// per run, so a store and `scratch` reused across segments reach their
/// working size once and then decode without allocating. On error the
/// store's contents are unspecified.
///
/// # Errors
///
/// As [`decode_segment`].
pub fn decode_segment_into(
    bytes: &[u8],
    n: usize,
    nfuncs: usize,
    cols: &mut Columns,
    scratch: &mut DecodeScratch,
) -> Result<(), TraceIoError> {
    if n > MAX_SEGMENT_INSTRS {
        return Err(bad(format!(
            "segment claims {n} instructions, above the {MAX_SEGMENT_INSTRS} format cap"
        )));
    }
    let r = &mut ByteReader::new(bytes);

    // 1–2. kind tags, then the payloads of the rows whose tags carry one.
    let kinds = &mut cols.kinds;
    kinds.clear();
    kinds.reserve(n);
    let mut payload_rows = 0usize;
    decode_runs(r, n, |v, run| {
        let tag = u8::try_from(v).map_err(|_| bad("kind tag overflows u8"))?;
        if tag > 7 {
            return Err(bad(format!("unknown instr tag {tag}")));
        }
        if matches!(tag, 3 | 4 | 6) {
            payload_rows += run;
        }
        push_run(kinds, tag, run);
        Ok(())
    })?;
    cols.kind_data.clear();
    cols.kind_data.resize(n, 0);
    let mut rows = kinds
        .iter()
        .zip(&mut cols.kind_data)
        .filter(|(tag, _)| matches!(tag, 3 | 4 | 6));
    decode_runs(r, payload_rows, |v, run| {
        let data = u32::try_from(v).map_err(|_| bad("kind payload overflows u32"))?;
        let syscall = Syscall::from_number(data).is_some();
        for (&tag, slot) in rows.by_ref().take(run) {
            if tag == 6 && !syscall {
                return Err(bad(format!("unknown syscall {data}")));
            }
            *slot = data;
        }
        Ok(())
    })?;

    // 3. tids.
    decode_column(r, n, &mut cols.tids, |v| {
        u8::try_from(v).map_err(|_| bad("tid overflows u8"))
    })?;

    // 4. funcs: dictionary length (raw varint), dictionary, indices.
    let dict_len = r.varint()?;
    let dict_len = usize::try_from(dict_len).map_err(|_| bad("dictionary too large"))?;
    if dict_len > n {
        return Err(bad(format!(
            "function dictionary of {dict_len} entries for {n} instructions"
        )));
    }
    let dict = &mut scratch.dict;
    dict.clear();
    let mut acc = 0u64;
    decode_runs(r, dict_len, |d, run| {
        for _ in 0..run {
            acc = if dict.is_empty() {
                d
            } else {
                acc.checked_add(d)
                    .ok_or_else(|| bad("function dictionary overflows"))?
            };
            let f = u32::try_from(acc).map_err(|_| bad("function id overflows u32"))?;
            if f as usize >= nfuncs {
                return Err(bad(format!(
                    "function id {f} outside the {nfuncs}-entry symbol table"
                )));
            }
            dict.push(f);
        }
        Ok(())
    })?;
    decode_column(r, n, &mut cols.funcs, |v| {
        let i = usize::try_from(v).map_err(|_| bad("dictionary index overflows"))?;
        dict.get(i)
            .copied()
            .ok_or_else(|| bad(format!("dictionary index {i} out of range {dict_len}")))
    })?;

    // 5. pcs: zigzag deltas, so each run's delta repeats per row.
    let pcs = &mut cols.pcs;
    pcs.clear();
    pcs.reserve(n);
    let mut prev = 0i64;
    decode_runs(r, n, |v, run| {
        let delta = unzigzag(v);
        for _ in 0..run {
            prev = prev
                .checked_add(delta)
                .ok_or_else(|| bad("pc delta overflows"))?;
            pcs.push(u32::try_from(prev).map_err(|_| bad("pc outside u32 range"))?);
        }
        Ok(())
    })?;

    // 6–7. register bitsets.
    for col in [&mut cols.reg_reads, &mut cols.reg_writes] {
        decode_column(r, n, col, |v| {
            u16::try_from(v).map_err(|_| bad("register bitset overflows u16"))
        })?;
    }

    // 8–11. operand counts, start addresses, and lengths. Like the kind
    // payloads, the start/length streams' counts derive from the decoded
    // counts. The counts go straight into each row's arena reference:
    // reads first, then writes, which also fixes every row's first arena
    // index.
    let count = |v: u64, run: usize, total: &mut usize| {
        let c = u16::try_from(v).map_err(|_| bad("operand count overflows u16"))?;
        *total = total.saturating_add(usize::from(c).saturating_mul(run));
        if *total > MAX_SEGMENT_ARENA {
            return Err(bad(format!(
                "segment claims more than {MAX_SEGMENT_ARENA} memory operands"
            )));
        }
        Ok(c)
    };
    let mem = &mut cols.mem;
    mem.clear();
    mem.reserve(n);
    let mut total = 0usize;
    decode_runs(r, n, |v, run| {
        let nreads = count(v, run, &mut total)?;
        let row = MemOpsRef {
            start: 0,
            nreads,
            nwrites: 0,
        };
        push_run(mem, row, run);
        Ok(())
    })?;
    let (mut total, mut start, mut at) = (0usize, 0u32, 0usize);
    decode_runs(r, n, |v, run| {
        let nwrites = count(v, run, &mut total)?;
        for m in &mut mem[at..at + run] {
            m.start = start;
            m.nwrites = nwrites;
            start += u32::from(m.nreads) + u32::from(nwrites);
        }
        at += run;
        Ok(())
    })?;
    let total_ops = start as usize;

    let starts = &mut scratch.starts;
    starts.clear();
    starts.reserve(total_ops);
    let mut prev = 0i64;
    decode_runs(r, total_ops, |v, run| {
        let delta = unzigzag(v);
        for _ in 0..run {
            prev = prev.wrapping_add(delta);
            starts.push(prev as u64);
        }
        Ok(())
    })?;
    let arena = &mut cols.arena;
    arena.clear();
    arena.reserve(total_ops);
    decode_runs(r, total_ops, |v, run| {
        let len = u32::try_from(v).map_err(|_| bad("operand length overflows u32"))?;
        if len == 0 {
            return Err(bad("zero-length memory operand"));
        }
        for &s in &starts[arena.len()..arena.len() + run] {
            let op = AddrRange::try_new(Addr::new(s), len)
                .ok_or_else(|| bad("memory operand wraps the address space"))?;
            arena.push(op);
        }
        Ok(())
    })?;

    if !r.is_exhausted() {
        return Err(bad(format!(
            "{} trailing bytes after the last column",
            r.remaining()
        )));
    }
    debug_assert!(
        [
            cols.kind_data.len(),
            cols.tids.len(),
            cols.funcs.len(),
            cols.pcs.len(),
            cols.reg_reads.len(),
            cols.reg_writes.len(),
            cols.mem.len(),
        ]
        .iter()
        .all(|&len| len == n)
            && cols.kinds.len() == n
            && cols.mem.last().map_or(0, |m| {
                m.start as usize + m.nreads as usize + m.nwrites as usize
            }) == cols.arena.len(),
        "one entry per row in every column, and every operand in the arena"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FuncId;
    use crate::instr::InstrKind;
    use crate::pc::Pc;
    use crate::reg::RegSet;
    use crate::Region;

    fn sample_columns(n: usize) -> Columns {
        let mut cols = Columns::default();
        let heap = Region::Heap.base().raw();
        for i in 0..n {
            let kind = match i % 5 {
                0 => InstrKind::Op,
                1 => InstrKind::Load,
                2 => InstrKind::Store,
                3 => InstrKind::Branch { taken: i % 2 == 0 },
                _ => InstrKind::Call {
                    callee: FuncId((i % 3) as u32),
                },
            };
            let reads = [AddrRange::new(Addr::new(heap + (i as u64 % 7) * 8), 8)];
            cols.push(
                ThreadId((i % 3) as u8),
                FuncId((i % 4) as u32),
                Pc(1000 + (i % 13) as u32),
                kind,
                RegSet::from_bits(0b11),
                RegSet::from_bits(0b100),
                if i % 2 == 0 { &reads } else { &[] },
                &[],
            );
        }
        cols
    }

    fn assert_columns_eq(a: &Columns, b: &Columns, lo: usize) {
        for i in 0..b.len() {
            assert_eq!(a.kind(lo + i), b.kind(i), "kind at {i}");
            assert_eq!(a.tid(lo + i), b.tid(i));
            assert_eq!(a.func(lo + i), b.func(i));
            assert_eq!(a.pc(lo + i), b.pc(i));
            assert_eq!(a.reg_reads(lo + i), b.reg_reads(i));
            assert_eq!(a.reg_writes(lo + i), b.reg_writes(i));
            assert_eq!(a.mem_reads(lo + i), b.mem_reads(i));
            assert_eq!(a.mem_writes(lo + i), b.mem_writes(i));
        }
    }

    #[test]
    fn segment_roundtrip_preserves_all_columns() {
        let cols = sample_columns(300);
        let mut buf = Vec::new();
        let (threads, regions) =
            encode_segment(&cols, 0, 300, &mut buf, &mut EncodeScratch::default()).unwrap();
        assert_eq!(threads[0], 0b111);
        assert_ne!(regions & (1 << Region::Heap.index()), 0);
        let back = decode_segment(&buf, 300, 4).unwrap();
        assert_eq!(back.len(), 300);
        assert_columns_eq(&cols, &back, 0);
    }

    /// No operand can end past `u64::MAX`, so a segment that declares one
    /// is a typed error. One ending exactly there roundtrips.
    #[test]
    fn wrapping_operand_is_refused() {
        let mut cols = Columns::default();
        let top = AddrRange::new(Addr::new(u64::MAX - 7), 7);
        cols.push(
            ThreadId(0),
            FuncId(0),
            Pc(1),
            InstrKind::Load,
            RegSet::EMPTY,
            RegSet::EMPTY,
            &[top],
            &[],
        );
        let mut buf = Vec::new();
        encode_segment(&cols, 0, 1, &mut buf, &mut EncodeScratch::default()).unwrap();
        assert_columns_eq(&cols, &decode_segment(&buf, 1, 1).unwrap(), 0);
        // The operand-length stream comes last: one plain varint, 7.
        assert_eq!(buf.last(), Some(&7));
        *buf.last_mut().unwrap() = 8;
        match decode_segment(&buf, 1, 1) {
            Err(TraceIoError::Format(msg)) => {
                assert_eq!(msg, "memory operand wraps the address space")
            }
            Err(e) => panic!("expected a format error, got {e:?}"),
            Ok(_) => panic!("wrapping operand accepted"),
        }
    }

    #[test]
    fn partial_range_roundtrips_with_rebased_arena() {
        let cols = sample_columns(200);
        let mut buf = Vec::new();
        encode_segment(&cols, 64, 192, &mut buf, &mut EncodeScratch::default()).unwrap();
        let back = decode_segment(&buf, 128, 4).unwrap();
        assert_eq!(back.len(), 128);
        assert_columns_eq(&cols, &back, 64);
    }

    #[test]
    fn compresses_repetitive_traces_below_a_byte_per_instr() {
        // A tight one-site loop: constant tid/func/pc, striding addresses.
        let mut cols = Columns::default();
        let heap = Region::Heap.base().raw();
        for i in 0..10_000u64 {
            cols.push(
                ThreadId(0),
                FuncId(0),
                Pc(500),
                InstrKind::Op,
                RegSet::from_bits(1),
                RegSet::from_bits(2),
                &[],
                &[AddrRange::new(Addr::new(heap + i * 8), 8)],
            );
        }
        let mut buf = Vec::new();
        encode_segment(&cols, 0, 10_000, &mut buf, &mut EncodeScratch::default()).unwrap();
        assert!(
            buf.len() * 2 < 10_000,
            "loop encodes at {} bytes for 10k instrs",
            buf.len()
        );
        let back = decode_segment(&buf, 10_000, 1).unwrap();
        assert_columns_eq(&cols, &back, 0);
    }

    #[test]
    fn decode_rejects_bad_tags_funcs_and_truncation() {
        let cols = sample_columns(64);
        let mut buf = Vec::new();
        encode_segment(&cols, 0, 64, &mut buf, &mut EncodeScratch::default()).unwrap();

        // Symbol table smaller than the func ids used.
        let err = decode_segment(&buf, 64, 2).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");

        // Wrong instruction count.
        let err = decode_segment(&buf, 63, 4).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");

        // Truncation at every prefix must never panic.
        for cut in 0..buf.len() {
            let res = decode_segment(&buf[..cut], 64, 4);
            assert!(res.is_err(), "prefix {cut} decoded");
        }
    }

    /// The message of the format error `res` must hold.
    fn format_err<T: std::fmt::Debug>(res: Result<T, TraceIoError>) -> String {
        match res {
            Err(TraceIoError::Format(msg)) => msg,
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn encode_refuses_a_range_over_the_row_cap_before_writing() {
        // `MAX_SEGMENT_INSTRS + 1` operand-free rows, column by column.
        let n = MAX_SEGMENT_INSTRS + 1;
        let cols = Columns {
            kinds: vec![0; n],
            kind_data: vec![0; n],
            tids: vec![0; n],
            funcs: vec![0; n],
            pcs: vec![0; n],
            reg_reads: vec![0; n],
            reg_writes: vec![0; n],
            mem: vec![MemOpsRef::default(); n],
            arena: Vec::new(),
        };
        let scratch = &mut EncodeScratch::default();
        let mut buf = vec![0xaa];
        let msg = format_err(encode_segment(&cols, 0, n, &mut buf, scratch));
        assert_eq!(
            msg,
            "segment of 4194305 instructions, above the 4194304 format cap"
        );
        assert_eq!(buf, [0xaa], "nothing written");
        // One row fewer is a segment a reader accepts.
        encode_segment(&cols, 1, n, &mut buf, scratch).unwrap();
    }

    #[test]
    fn encode_refuses_operands_over_the_arena_cap_before_writing() {
        // 33 rows of 2 × 65,535 operands carry 4,325,310, above the
        // 4,194,304 cap; 32 of them carry 4,194,240, within it.
        let ops = vec![AddrRange::new(Region::Heap.base(), 8); u16::MAX as usize];
        let mut cols = Columns::default();
        cols.arena.reserve_exact(33 * 2 * ops.len());
        for _ in 0..33 {
            cols.push(
                ThreadId(0),
                FuncId(0),
                Pc(1),
                InstrKind::Op,
                RegSet::EMPTY,
                RegSet::EMPTY,
                &ops,
                &ops,
            );
        }
        let scratch = &mut EncodeScratch::default();
        let mut buf = vec![0xaa];
        let msg = format_err(encode_segment(&cols, 0, 33, &mut buf, scratch));
        assert_eq!(
            msg,
            "segment carries 4325310 memory operands, above the 4194304 format cap"
        );
        assert_eq!(buf, [0xaa], "nothing written");
        buf.clear();
        encode_segment(&cols, 1, 33, &mut buf, scratch).unwrap();
        let back = decode_segment(&buf, 32, 1).unwrap();
        assert_eq!(back.arena_len(), 32 * 2 * ops.len());
        assert_eq!(back.mem_writes(31), &ops[..]);
    }

    #[test]
    fn decode_rejects_oversized_claims() {
        let err = decode_segment(&[], MAX_SEGMENT_INSTRS + 1, 1).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }

    #[test]
    fn content_hash_is_position_independent_and_field_sensitive() {
        let cols = sample_columns(200);
        // Same rows materialized at physical offset 0 hash identically to
        // the windowed range — the property the cache and footer rely on.
        let mut buf = Vec::new();
        encode_segment(&cols, 64, 192, &mut buf, &mut EncodeScratch::default()).unwrap();
        let rebased = decode_segment(&buf, 128, 4).unwrap();
        assert_eq!(
            segment_content_hash(&cols, 64, 192),
            segment_content_hash(&rebased, 0, 128)
        );

        // Streaming fold over split windows — the second one a decoded
        // chunk presented at its trace positions — matches the one-shot
        // hash.
        let mut h = ContentHasher::new();
        h.fold(&cols.cursor(64, 100));
        h.fold(&rebased.cursor_at(64, 100, 192));
        assert_eq!(h.finish(128), segment_content_hash(&cols, 64, 192));

        // Every slicer-visible field of a single row perturbs the digest:
        // variant 0 is the reference, each later variant changes exactly
        // one field of the appended row.
        let heap = Region::Heap.base().raw();
        let make = |which: usize| {
            let mut c = sample_columns(63);
            let (tid, func, pc, kind, rr, mem) = match which {
                1 => (ThreadId(9), FuncId(0), Pc(1000), InstrKind::Op, 0b11, 0),
                2 => (ThreadId(0), FuncId(3), Pc(1000), InstrKind::Op, 0b11, 0),
                3 => (ThreadId(0), FuncId(0), Pc(999), InstrKind::Op, 0b11, 0),
                4 => (ThreadId(0), FuncId(0), Pc(1000), InstrKind::Ret, 0b11, 0),
                5 => (ThreadId(0), FuncId(0), Pc(1000), InstrKind::Op, 0b10, 0),
                6 => (ThreadId(0), FuncId(0), Pc(1000), InstrKind::Op, 0b11, 1),
                _ => (ThreadId(0), FuncId(0), Pc(1000), InstrKind::Op, 0b11, 0),
            };
            let reads = [AddrRange::new(Addr::new(heap), 8)];
            c.push(
                tid,
                func,
                pc,
                kind,
                RegSet::from_bits(rr),
                RegSet::from_bits(0b100),
                &reads[..mem],
                &[],
            );
            segment_content_hash(&c, 0, 64)
        };
        let base = make(0);
        for which in 1..=6 {
            assert_ne!(
                make(which),
                base,
                "variant {which} failed to perturb the content hash"
            );
        }
        // Prefixes never collide with the full segment.
        assert_ne!(
            segment_content_hash(&cols, 0, 63),
            segment_content_hash(&cols, 0, 64)
        );
    }

    #[test]
    fn segment_meta_thread_bitmap() {
        let meta = SegmentMeta {
            offset: 0,
            byte_len: 0,
            first_instr: 0,
            n_instr: 64,
            thread_bits: [0b101, 0, 0, 1],
            region_bits: 0,
            content_hash: [0, 0],
        };
        assert!(meta.has_thread(ThreadId(0)));
        assert!(!meta.has_thread(ThreadId(1)));
        assert!(meta.has_thread(ThreadId(2)));
        assert!(meta.has_thread(ThreadId(192)));
        assert!(!meta.has_thread(ThreadId(255)));
    }
}
