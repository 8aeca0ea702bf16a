//! Differential test: the typed segment decoder, which refills a
//! caller-owned store straight from the byte stream, against the decoder
//! it replaced, which staged every column in a `Vec<u64>` and built a
//! fresh store per segment.
//!
//! `reference` below keeps the previous `ByteReader::varint`,
//! `decode_stream` and `decode_segment_masked` verbatim, with the reader
//! helpers they call. The one change: the reference decoder returns its
//! nine column vectors, since the raw `Columns` constructor it called is
//! private to the crate.
//!
//! Both decoders run over the same payloads: random segments (every
//! instruction kind, multi-byte pc and address deltas, long runs),
//! re-encoded with boundary and non-canonical varints of up to 10 bytes
//! and now and then an over-long one of 11 bytes, under every column
//! mask, at every truncation prefix, and under random byte mutations.
//! The current decoder refills one store and one scratch throughout, so a
//! column it forgets to reset shows up as a difference. Both must decode
//! the same rows with the same `SegmentDecodeStats`, or both must fail
//! with `TraceIoError::Format`.
//!
//! The reader case streams a file of 64-row chunks through `TraceReader`,
//! interleaving forward and reverse sweeps under narrowed and widened
//! masks, against the resident rows.

use std::io::Cursor;

use proptest::prelude::*;
use wasteprof_trace::segment::{decode_segment_masked, encode_segment, DecodeScratch};
use wasteprof_trace::{
    segment_content_hash, Addr, AddrRange, ColumnMask, ColumnSource, Columns, ContentHasher,
    FuncId, FunctionRegistry, InstrKind, Pc, RegSet, Syscall, ThreadId, ThreadKind, ThreadTable,
    Trace2Writer, TraceIoError, TraceReader,
};

/// The segment decoder as it was before it decoded into a reused store.
mod reference {
    use wasteprof_trace::compress::unzigzag;
    use wasteprof_trace::segment::{SegmentDecodeStats, MAX_SEGMENT_ARENA, MAX_SEGMENT_INSTRS};
    use wasteprof_trace::{Addr, AddrRange, ColumnMask, MemOpsRef, Syscall, TraceIoError};

    fn bad(msg: impl Into<String>) -> TraceIoError {
        TraceIoError::Format(msg.into())
    }

    /// The nine column vectors of a decoded segment.
    pub struct Decoded {
        pub kinds: Vec<u8>,
        pub kind_data: Vec<u32>,
        pub tids: Vec<u8>,
        pub funcs: Vec<u32>,
        pub pcs: Vec<u32>,
        pub reg_reads: Vec<u16>,
        pub reg_writes: Vec<u16>,
        pub mem: Vec<MemOpsRef>,
        pub arena: Vec<AddrRange>,
    }

    pub struct ByteReader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> ByteReader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            ByteReader { buf, pos: 0 }
        }

        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        pub fn is_exhausted(&self) -> bool {
            self.pos == self.buf.len()
        }

        pub fn u8(&mut self) -> Result<u8, TraceIoError> {
            let b = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| bad("truncated chunk: byte past the end"))?;
            self.pos += 1;
            Ok(b)
        }

        pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceIoError> {
            if n > self.remaining() {
                return Err(bad(format!(
                    "truncated chunk: {n} bytes requested, {} remain",
                    self.remaining()
                )));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        /// Reads one LEB128 varint (at most 10 bytes).
        pub fn varint(&mut self) -> Result<u64, TraceIoError> {
            let mut v: u64 = 0;
            let mut shift = 0u32;
            loop {
                let b = self.u8()?;
                if shift == 63 && b > 1 {
                    return Err(bad("varint overflows u64"));
                }
                v |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
                if shift > 63 {
                    return Err(bad("varint longer than 10 bytes"));
                }
            }
        }
    }

    const ENC_PLAIN: u8 = 0;
    const ENC_RLE: u8 = 1;

    pub fn decode_stream(
        r: &mut ByteReader<'_>,
        n: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), TraceIoError> {
        let len = r.varint()?;
        let len = usize::try_from(len).map_err(|_| bad("block length overflows usize"))?;
        if len == 0 {
            return Err(bad("column block with zero length"));
        }
        let mut r = ByteReader::new(r.bytes(len)?);
        out.reserve(n.min(len));
        match r.u8()? {
            ENC_PLAIN => {
                for _ in 0..n {
                    out.push(r.varint()?);
                }
            }
            ENC_RLE => {
                let mut got = 0usize;
                while got < n {
                    let v = r.varint()?;
                    let run = r.varint()?;
                    let run =
                        usize::try_from(run).map_err(|_| bad("run length overflows usize"))?;
                    if run == 0 || run > n - got {
                        return Err(bad(format!(
                            "run of {run} values does not fit the {} still expected",
                            n - got
                        )));
                    }
                    for _ in 0..run {
                        out.push(v);
                    }
                    got += run;
                }
            }
            tag => return Err(bad(format!("unknown column encoder tag {tag}"))),
        }
        if !r.is_exhausted() {
            return Err(bad(format!(
                "column block declares {len} bytes but decoding left {}",
                r.remaining()
            )));
        }
        Ok(())
    }

    pub fn skip_stream(r: &mut ByteReader<'_>) -> Result<usize, TraceIoError> {
        let len = r.varint()?;
        let len = usize::try_from(len).map_err(|_| bad("block length overflows usize"))?;
        if len == 0 {
            return Err(bad("column block with zero length"));
        }
        r.bytes(len)?;
        Ok(len)
    }

    pub fn decode_segment_masked(
        bytes: &[u8],
        n: usize,
        nfuncs: usize,
        mask: ColumnMask,
    ) -> Result<(Decoded, SegmentDecodeStats), TraceIoError> {
        if n > MAX_SEGMENT_INSTRS {
            return Err(bad(format!(
                "segment claims {n} instructions, above the {MAX_SEGMENT_INSTRS} format cap"
            )));
        }
        let r = &mut ByteReader::new(bytes);
        let mut stats = SegmentDecodeStats::default();
        let mut vals: Vec<u64> = Vec::new();

        // 1–2. kind tags and payloads. The payload stream's value count is
        // only known from the decoded tags, but skipping needs no count —
        // that is what the block length prefix buys.
        let (kinds, kind_data) = if mask.contains(ColumnMask::KINDS) {
            let before = r.remaining();
            decode_stream(r, n, &mut vals)?;
            let mut kinds = Vec::with_capacity(n);
            let mut payload_rows = 0usize;
            for &v in &vals {
                let tag = u8::try_from(v).map_err(|_| bad("kind tag overflows u8"))?;
                if tag > 7 {
                    return Err(bad(format!("unknown instr tag {tag}")));
                }
                if matches!(tag, 3 | 4 | 6) {
                    payload_rows += 1;
                }
                kinds.push(tag);
            }
            vals.clear();
            decode_stream(r, payload_rows, &mut vals)?;
            let mut kind_data = vec![0u32; n];
            let mut pi = 0usize;
            for (i, &tag) in kinds.iter().enumerate() {
                if matches!(tag, 3 | 4 | 6) {
                    let data =
                        u32::try_from(vals[pi]).map_err(|_| bad("kind payload overflows u32"))?;
                    if tag == 6 && Syscall::from_number(data).is_none() {
                        return Err(bad(format!("unknown syscall {data}")));
                    }
                    kind_data[i] = data;
                    pi += 1;
                }
            }
            stats.decoded_bytes += (before - r.remaining()) as u64;
            (kinds, kind_data)
        } else {
            let before = r.remaining();
            skip_stream(r)?;
            skip_stream(r)?;
            stats.skipped_bytes += (before - r.remaining()) as u64;
            (vec![0u8; n], vec![0u32; n])
        };

        // 3. tids.
        let tids = if mask.contains(ColumnMask::TIDS) {
            let before = r.remaining();
            vals.clear();
            decode_stream(r, n, &mut vals)?;
            let mut tids = Vec::with_capacity(n);
            for &v in &vals {
                tids.push(u8::try_from(v).map_err(|_| bad("tid overflows u8"))?);
            }
            stats.decoded_bytes += (before - r.remaining()) as u64;
            tids
        } else {
            let before = r.remaining();
            skip_stream(r)?;
            stats.skipped_bytes += (before - r.remaining()) as u64;
            vec![0u8; n]
        };

        // 4. funcs: dictionary length (raw varint), dictionary, indices.
        let funcs = if mask.contains(ColumnMask::FUNCS) {
            let before = r.remaining();
            let dict_len = r.varint()?;
            let dict_len = usize::try_from(dict_len).map_err(|_| bad("dictionary too large"))?;
            if dict_len > n {
                return Err(bad(format!(
                    "function dictionary of {dict_len} entries for {n} instructions"
                )));
            }
            vals.clear();
            decode_stream(r, dict_len, &mut vals)?;
            let mut dict: Vec<u32> = Vec::with_capacity(dict_len);
            let mut acc = 0u64;
            for (i, &d) in vals.iter().enumerate() {
                acc = if i == 0 {
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
            vals.clear();
            decode_stream(r, n, &mut vals)?;
            let mut funcs = Vec::with_capacity(n);
            for &v in &vals {
                let i = usize::try_from(v).map_err(|_| bad("dictionary index overflows"))?;
                let f = *dict
                    .get(i)
                    .ok_or_else(|| bad(format!("dictionary index {i} out of range {dict_len}")))?;
                funcs.push(f);
            }
            stats.decoded_bytes += (before - r.remaining()) as u64;
            funcs
        } else {
            let before = r.remaining();
            r.varint()?; // dictionary length, unused under the mask
            skip_stream(r)?;
            skip_stream(r)?;
            stats.skipped_bytes += (before - r.remaining()) as u64;
            vec![0u32; n]
        };

        // 5. pcs.
        let pcs = if mask.contains(ColumnMask::PCS) {
            let before = r.remaining();
            vals.clear();
            decode_stream(r, n, &mut vals)?;
            let mut pcs = Vec::with_capacity(n);
            let mut prev = 0i64;
            for &v in &vals {
                let pc = prev
                    .checked_add(unzigzag(v))
                    .ok_or_else(|| bad("pc delta overflows"))?;
                pcs.push(u32::try_from(pc).map_err(|_| bad("pc outside u32 range"))?);
                prev = pc;
            }
            stats.decoded_bytes += (before - r.remaining()) as u64;
            pcs
        } else {
            let before = r.remaining();
            skip_stream(r)?;
            stats.skipped_bytes += (before - r.remaining()) as u64;
            vec![0u32; n]
        };

        // 6–7. register bitsets.
        let (reg_reads, reg_writes) = if mask.contains(ColumnMask::REGSETS) {
            let before = r.remaining();
            let mut reg_cols: [Vec<u16>; 2] = [Vec::with_capacity(n), Vec::with_capacity(n)];
            for col in reg_cols.iter_mut() {
                vals.clear();
                decode_stream(r, n, &mut vals)?;
                for &v in &vals {
                    col.push(u16::try_from(v).map_err(|_| bad("register bitset overflows u16"))?);
                }
            }
            stats.decoded_bytes += (before - r.remaining()) as u64;
            let [rr, rw] = reg_cols;
            (rr, rw)
        } else {
            let before = r.remaining();
            skip_stream(r)?;
            skip_stream(r)?;
            stats.skipped_bytes += (before - r.remaining()) as u64;
            (vec![0u16; n], vec![0u16; n])
        };

        // 8–11. operand counts, start addresses, and lengths. Like the kind
        // payloads, the start/length streams' counts derive from the decoded
        // counts, and skipping needs none of them.
        let (mem, arena) = if mask.contains(ColumnMask::OPERANDS) {
            let before = r.remaining();
            let mut count_cols: [Vec<u16>; 2] = [Vec::with_capacity(n), Vec::with_capacity(n)];
            for col in count_cols.iter_mut() {
                vals.clear();
                decode_stream(r, n, &mut vals)?;
                let mut total = 0usize;
                for &v in &vals {
                    let c = u16::try_from(v).map_err(|_| bad("operand count overflows u16"))?;
                    total += c as usize;
                    if total > MAX_SEGMENT_ARENA {
                        return Err(bad(format!(
                            "segment claims more than {MAX_SEGMENT_ARENA} memory operands"
                        )));
                    }
                    col.push(c);
                }
            }
            let [nreads, nwrites] = count_cols;
            let mut mem = Vec::with_capacity(n);
            let mut start = 0u32;
            for i in 0..n {
                mem.push(MemOpsRef {
                    start,
                    nreads: nreads[i],
                    nwrites: nwrites[i],
                });
                start += u32::from(nreads[i]) + u32::from(nwrites[i]);
            }
            let total_ops = start as usize;

            vals.clear();
            decode_stream(r, total_ops, &mut vals)?;
            let mut starts: Vec<u64> = Vec::with_capacity(total_ops);
            let mut prev = 0i64;
            for &v in &vals {
                let s = prev.wrapping_add(unzigzag(v));
                starts.push(s as u64);
                prev = s;
            }
            vals.clear();
            decode_stream(r, total_ops, &mut vals)?;
            let mut arena = Vec::with_capacity(total_ops);
            for (i, &lv) in vals.iter().enumerate() {
                let len = u32::try_from(lv).map_err(|_| bad("operand length overflows u32"))?;
                if len == 0 {
                    return Err(bad("zero-length memory operand"));
                }
                let op = AddrRange::try_new(Addr::new(starts[i]), len)
                    .ok_or_else(|| bad("memory operand wraps the address space"))?;
                arena.push(op);
            }
            stats.decoded_bytes += (before - r.remaining()) as u64;
            (mem, arena)
        } else {
            let before = r.remaining();
            for _ in 0..4 {
                skip_stream(r)?;
            }
            stats.skipped_bytes += (before - r.remaining()) as u64;
            (
                vec![
                    MemOpsRef {
                        start: 0,
                        nreads: 0,
                        nwrites: 0
                    };
                    n
                ],
                Vec::new(),
            )
        };

        if !r.is_exhausted() {
            return Err(bad(format!(
                "{} trailing bytes after the last column",
                r.remaining()
            )));
        }
        Ok((
            Decoded {
                kinds,
                kind_data,
                tids,
                funcs,
                pcs,
                reg_reads,
                reg_writes,
                mem,
                arena,
            },
            stats,
        ))
    }
}

/// A small deterministic generator (xorshift64*), seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Symbol-table size of every generated segment.
const NFUNCS: usize = 40;

/// Every segment column group, one bit each.
const GROUPS: [ColumnMask; 6] = [
    ColumnMask::KINDS,
    ColumnMask::TIDS,
    ColumnMask::FUNCS,
    ColumnMask::PCS,
    ColumnMask::REGSETS,
    ColumnMask::OPERANDS,
];

/// The mask made of the groups whose bits are set in `bits`.
fn mask_of(bits: u64) -> ColumnMask {
    GROUPS
        .iter()
        .enumerate()
        .filter(|(i, _)| bits >> i & 1 == 1)
        .fold(ColumnMask::NONE, |m, (_, g)| m.union(*g))
}

/// A random operand: any start, from small strides to the top of the
/// address space, and a length that keeps it from wrapping.
fn operand(rng: &mut Rng, near: u64) -> AddrRange {
    let start = match rng.below(4) {
        0 => near.wrapping_add(rng.below(64) * 8),
        1 => rng.next(),
        2 => u64::MAX - rng.below(1 << 20),
        _ => rng.below(1 << 40),
    };
    let len = match rng.below(3) {
        0 => 8,
        1 => 1 + rng.below(64) as u32,
        _ => 1 + rng.next() as u32 % u32::MAX,
    };
    let len = len
        .min(u32::try_from(u64::MAX - start).unwrap_or(u32::MAX))
        .max(1);
    let start = start.min(u64::MAX - u64::from(len));
    AddrRange::new(Addr::new(start), len)
}

/// One row's fields, as [`Columns::push`] takes them.
type Row = (
    ThreadId,
    FuncId,
    Pc,
    InstrKind,
    RegSet,
    RegSet,
    Vec<AddrRange>,
    Vec<AddrRange>,
);

/// `n` random rows: every instruction kind, pcs from small strides to
/// whole-u32 jumps, and rows that repeat the previous one for long runs.
fn random_rows(rng: &mut Rng, n: usize) -> Columns {
    let mut cols = Columns::default();
    let mut prev: Option<Row> = None;
    let mut near = rng.next();
    for _ in 0..n {
        if let Some((tid, func, pc, kind, rr, rw, reads, writes)) =
            prev.clone().filter(|_| rng.chance(40))
        {
            cols.push(tid, func, pc, kind, rr, rw, &reads, &writes);
            continue;
        }
        let kind = match rng.below(8) {
            0 => InstrKind::Op,
            1 => InstrKind::Load,
            2 => InstrKind::Store,
            3 => InstrKind::Branch {
                taken: rng.chance(50),
            },
            4 => InstrKind::Call {
                callee: FuncId(rng.below(NFUNCS as u64) as u32),
            },
            5 => InstrKind::Ret,
            6 => InstrKind::Syscall {
                nr: Syscall::ALL[rng.below(8) as usize],
            },
            _ => InstrKind::Marker,
        };
        let tid = ThreadId(if rng.chance(90) {
            rng.below(4) as u8
        } else {
            rng.next() as u8
        });
        let func = FuncId(rng.below(NFUNCS as u64) as u32);
        let pc = Pc(match rng.below(3) {
            0 => 1000 + rng.below(64) as u32,
            1 => rng.next() as u32,
            _ => u32::MAX - rng.below(1 << 16) as u32,
        });
        let reg =
            |rng: &mut Rng| RegSet::from_bits(if rng.chance(50) { 0 } else { rng.next() as u16 });
        let (rr, rw) = (reg(rng), reg(rng));
        let nops = |rng: &mut Rng| match rng.below(10) {
            0..=5 => 0,
            6..=8 => 1,
            _ => 2 + rng.below(3) as usize,
        };
        let (nr, nw) = (nops(rng), nops(rng));
        let reads: Vec<AddrRange> = (0..nr).map(|_| operand(rng, near)).collect();
        let writes: Vec<AddrRange> = (0..nw).map(|_| operand(rng, near)).collect();
        if rng.chance(5) {
            near = rng.next();
        }
        cols.push(tid, func, pc, kind, rr, rw, &reads, &writes);
        prev = Some((tid, func, pc, kind, rr, rw, reads, writes));
    }
    cols
}

/// Writes `v` as a varint of exactly `len` bytes (`len` at least its
/// canonical length): continuation bytes carrying zero bits pad it.
fn put_padded(out: &mut Vec<u8>, mut v: u64, len: usize) {
    for i in 0..len {
        let last = i + 1 == len;
        out.push((v as u8 & 0x7f) | if last { 0 } else { 0x80 });
        v >>= 7;
    }
}

/// Bytes of `v` as a canonical varint.
fn canonical_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// A segment payload taken apart: the function dictionary's length and
/// the body (encoder tag and values) of each of the 12 column blocks.
fn split(payload: &[u8]) -> (u64, Vec<Vec<u8>>) {
    let mut r = reference::ByteReader::new(payload);
    let mut dict_len = 0;
    let mut bodies = Vec::new();
    for block in 0..12 {
        if block == 3 {
            dict_len = r.varint().expect("a valid payload");
        }
        let len = r.varint().expect("a valid payload") as usize;
        bodies.push(r.bytes(len).expect("a valid payload").to_vec());
    }
    assert!(r.is_exhausted());
    (dict_len, bodies)
}

/// Puts a payload back together, writing each length varint at the
/// width `width` picks from its canonical length.
fn join(dict_len: u64, bodies: &[Vec<u8>], mut width: impl FnMut(usize) -> usize) -> Vec<u8> {
    let mut out = Vec::new();
    for (b, body) in bodies.iter().enumerate() {
        if b == 3 {
            put_padded(&mut out, dict_len, width(canonical_len(dict_len)));
        }
        let len = body.len() as u64;
        put_padded(&mut out, len, width(canonical_len(len)));
        out.extend_from_slice(body);
    }
    out
}

/// Re-encodes every varint of a segment payload — block lengths, the
/// dictionary length and every value of every block body — at a random
/// width from its canonical length up to 10 bytes, and, when `overlong`,
/// the first value of one block at 11 bytes, which both decoders must
/// refuse.
fn repad(payload: &[u8], rng: &mut Rng, overlong: bool) -> Vec<u8> {
    let (dict_len, bodies) = split(payload);
    let mut bodies: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| {
            let mut br = reference::ByteReader::new(&body[1..]);
            let mut out = vec![body[0]];
            while !br.is_exhausted() {
                let v = br.varint().expect("a valid value");
                let width = canonical_len(v) + rng.below((11 - canonical_len(v)) as u64) as usize;
                put_padded(&mut out, v, width);
            }
            out
        })
        .collect();
    let filled: Vec<usize> = (0..12).filter(|&b| bodies[b].len() > 1).collect();
    if overlong && !filled.is_empty() {
        let body = &mut bodies[filled[rng.below(filled.len() as u64) as usize]];
        let mut br = reference::ByteReader::new(&body[1..]);
        br.varint().expect("a valid value");
        let first = body.len() - 1 - br.remaining();
        body.splice(1..1 + first, [0x80; 10].into_iter().chain([0]));
    }
    join(dict_len, &bodies, |len| len + rng.below(2) as usize)
}

/// The kind a store built from these raw columns reports.
fn kind_of(tag: u8, data: u32) -> InstrKind {
    match tag {
        0 => InstrKind::Op,
        1 => InstrKind::Load,
        2 => InstrKind::Store,
        3 => InstrKind::Branch { taken: data != 0 },
        4 => InstrKind::Call {
            callee: FuncId(data),
        },
        5 => InstrKind::Ret,
        6 => InstrKind::Syscall {
            nr: Syscall::from_number(data).expect("a validated syscall"),
        },
        _ => InstrKind::Marker,
    }
}

/// The content hash of the reference's rows, folded field by field as
/// `ContentHasher::fold` folds a store: it pins the raw kind payloads,
/// which `Columns::kind` reads only through their `InstrKind`.
fn reference_hash(d: &reference::Decoded) -> [u64; 2] {
    let mut h = ContentHasher::new();
    for i in 0..d.kinds.len() {
        h.fold_word(u64::from(d.kinds[i]) | u64::from(d.kind_data[i]) << 8);
        h.fold_word(
            u64::from(d.tids[i])
                | u64::from(d.reg_reads[i]) << 8
                | u64::from(d.reg_writes[i]) << 24,
        );
        h.fold_word(u64::from(d.funcs[i]) | u64::from(d.pcs[i]) << 32);
        let m = d.mem[i];
        h.fold_word(u64::from(m.nreads) | u64::from(m.nwrites) << 32);
        let ops = m.start as usize..m.start as usize + (m.nreads + m.nwrites) as usize;
        for r in &d.arena[ops] {
            h.fold_word(r.start().raw());
            h.fold_word(u64::from(r.len()));
        }
    }
    h.finish(d.kinds.len() as u64)
}

/// Both decoders on one payload: the same rows and accounting, or both a
/// format error.
fn assert_same_decode(
    bytes: &[u8],
    n: usize,
    mask: ColumnMask,
    store: &mut Columns,
    scratch: &mut DecodeScratch,
    what: &str,
) {
    let want = reference::decode_segment_masked(bytes, n, NFUNCS, mask);
    let got = decode_segment_masked(bytes, n, NFUNCS, mask, store, scratch);
    match (want, got) {
        (Ok((d, want_stats)), Ok(got_stats)) => {
            assert_same_rows(&d, store, what);
            assert_eq!(want_stats, got_stats, "{what}: decode accounting");
        }
        (Err(TraceIoError::Format(_)), Err(TraceIoError::Format(_))) => {}
        (want, got) => panic!(
            "{what} under {mask:?}: reference {:?}, current {:?}",
            want.map(|(_, s)| s),
            got
        ),
    }
}

fn assert_same_rows(d: &reference::Decoded, got: &Columns, what: &str) {
    assert_eq!(got.len(), d.kinds.len(), "{what}: row count");
    assert_eq!(got.arena_len(), d.arena.len(), "{what}: operand arena");
    for i in 0..got.len() {
        assert_eq!(
            got.kind(i),
            kind_of(d.kinds[i], d.kind_data[i]),
            "{what}: kind {i}"
        );
        assert_eq!(got.tid(i), ThreadId(d.tids[i]), "{what}: tid {i}");
        assert_eq!(got.func(i), FuncId(d.funcs[i]), "{what}: func {i}");
        assert_eq!(got.pc(i), Pc(d.pcs[i]), "{what}: pc {i}");
        assert_eq!(
            got.reg_reads(i).bits(),
            d.reg_reads[i],
            "{what}: reg reads {i}"
        );
        assert_eq!(
            got.reg_writes(i).bits(),
            d.reg_writes[i],
            "{what}: reg writes {i}"
        );
        let m = d.mem[i];
        let (s, r) = (m.start as usize, m.nreads as usize);
        assert_eq!(got.mem_reads(i), &d.arena[s..s + r], "{what}: reads {i}");
        assert_eq!(
            got.mem_writes(i),
            &d.arena[s + r..s + r + m.nwrites as usize],
            "{what}: writes {i}"
        );
    }
    assert_eq!(
        segment_content_hash(got, 0, got.len()),
        reference_hash(d),
        "{what}: raw rows"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decoders_agree_on_random_segments(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let mut store = Columns::default();
        let mut scratch = DecodeScratch::default();
        // A few segments per case, so the store carries every earlier
        // segment's columns into the next decode.
        for seg in 0..3 {
            let n = match rng.below(4) {
                0 => rng.below(4) as usize,
                _ => rng.below(96) as usize,
            };
            let cols = random_rows(&mut rng, n);
            let mut canonical = Vec::new();
            encode_segment(&cols, 0, n, &mut canonical).unwrap();
            let padded = repad(&canonical, &mut rng, false);
            let overlong = repad(&canonical, &mut rng, true);

            for (name, bytes) in [("canonical", &canonical), ("padded", &padded), ("overlong", &overlong)] {
                for bits in 0..64 {
                    let what = format!("segment {seg} {name}, mask {bits:06b}");
                    assert_same_decode(bytes, n, mask_of(bits), &mut store, &mut scratch, &what);
                }
            }
            for cut in 0..padded.len() {
                let mask = mask_of(rng.below(64));
                let what = format!("segment {seg} padded, prefix {cut}");
                assert_same_decode(&padded[..cut], n, mask, &mut store, &mut scratch, &what);
            }
            // A wrong row count, and random byte mutations.
            let what = format!("segment {seg}, {} rows claimed", n + 1);
            assert_same_decode(&canonical, n + 1, ColumnMask::ALL, &mut store, &mut scratch, &what);
            for m in 0..48 {
                let mut bytes = if m % 2 == 0 { canonical.clone() } else { padded.clone() };
                if bytes.is_empty() {
                    break;
                }
                for _ in 0..1 + rng.below(3) {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] = match rng.below(3) {
                        0 => bytes[at] ^ 1 << rng.below(8),
                        1 => rng.next() as u8,
                        _ => bytes[at] ^ 0x80,
                    };
                }
                let mask = mask_of(rng.below(64));
                let what = format!("segment {seg}, mutation {m}");
                assert_same_decode(&bytes, n, mask, &mut store, &mut scratch, &what);
            }
        }
    }
}

/// Boundary varints at every width up to 10 bytes, and over-long ones of
/// 11, decode alike in both decoders, first in a block (with at least
/// eight bytes after them, on the word-at-a-time path up to 8 bytes) and
/// last (on the byte-at-a-time path).
#[test]
fn boundary_and_overlong_varints_agree() {
    let mut values: Vec<u64> = vec![0, 1, 2, u64::MAX, 1 << 63, (1 << 63) - 1];
    for k in 1..10 {
        values.extend([(1u64 << (7 * k)) - 1, 1u64 << (7 * k)]);
    }
    // A row with four one-byte reads at address 0; the tested value goes
    // into the plain operand-start block (block 10), whose zigzag deltas
    // take any u64, next to three zero deltas.
    let mut cols = Columns::default();
    cols.push(
        ThreadId(0),
        FuncId(0),
        Pc(7),
        InstrKind::Load,
        RegSet::EMPTY,
        RegSet::EMPTY,
        &[AddrRange::new(Addr::new(0), 1); 4],
        &[],
    );
    let mut canonical = Vec::new();
    encode_segment(&cols, 0, 1, &mut canonical).unwrap();
    let (dict_len, mut bodies) = split(&canonical);
    let mut store = Columns::default();
    let mut scratch = DecodeScratch::default();
    for &v in &values {
        for width in canonical_len(v)..=11 {
            for first in [true, false] {
                let mut body = vec![0u8];
                if !first {
                    put_padded(&mut body, 0, 10);
                    body.extend([0, 0]);
                }
                put_padded(&mut body, v, width);
                if first {
                    put_padded(&mut body, 0, 10);
                    body.extend([0, 0]);
                }
                bodies[10] = body;
                let bytes = join(dict_len, &bodies, |len| len);
                let what = format!("value {v:#x} at {width} bytes, first {first}");
                assert_same_decode(&bytes, 1, ColumnMask::ALL, &mut store, &mut scratch, &what);
            }
        }
    }
}

/// A resident trace of random rows and its file of 64-row chunks.
fn chunked_file(rng: &mut Rng, n: usize) -> (Columns, Vec<u8>) {
    let cols = random_rows(rng, n);
    let mut funcs = FunctionRegistry::new();
    for f in 0..NFUNCS {
        funcs.intern(&format!("f{f}"));
    }
    let mut threads = ThreadTable::new();
    threads.register(ThreadKind::Main);
    let mut buf = Vec::new();
    let mut w = Trace2Writer::with_segment_len(&mut buf, 64).unwrap();
    for i in 0..n {
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
        .unwrap();
    }
    w.finish(&funcs, &threads, &[]).unwrap();
    (cols, buf)
}

/// Forward and reverse sweeps under narrowed and widened masks, over a
/// file of 64-row chunks and so through every cache path of the reader:
/// hits, evictions and stale narrower copies. A subscribed column reads
/// the resident rows; a skipped one reads defaults on a fresh decode, and
/// on a cache hit whole groups of either, never another chunk's values.
#[test]
fn reader_sweeps_match_the_resident_rows() {
    let mut rng = Rng(0x5eed_c0de);
    let (cols, file) = chunked_file(&mut rng, 64 * 23 + 17);
    let n = cols.len();
    let mut rd = TraceReader::open(Cursor::new(file)).unwrap();
    assert_eq!(rd.n_chunks(), 24);
    for step in 0..400 {
        let mask = match rng.below(6) {
            0 => ColumnMask::ALL,
            1 => ColumnMask::SEGMENT,
            2 => ColumnMask::NONE,
            _ => mask_of(rng.below(64)),
        };
        rd.swap_decode_mask(mask);
        let (lo, hi) = match rng.below(3) {
            // One chunk, to check a fresh decode exactly.
            0 => {
                let c = rng.below(24) as usize;
                (c * 64, (c * 64 + 64).min(n))
            }
            1 => (0, n),
            _ => {
                let lo = rng.below(n as u64) as usize;
                (lo, lo + rng.below((n - lo) as u64 + 1) as usize)
            }
        };
        let decoded_before = rd.decode_stats().chunks_decoded;
        let mut windows = Vec::new();
        let mut check = |cur: &wasteprof_trace::ColumnCursor<'_>| {
            windows.push((cur.lo(), cur.hi()));
            let rows = cur.lo()..cur.hi();
            // Per group: every row real, or every row default.
            let group =
                |g: ColumnMask, real: &dyn Fn(usize) -> bool, default: &dyn Fn(usize) -> bool| {
                    let all_real = rows.clone().all(real);
                    let all_default = rows.clone().all(default);
                    if mask.contains(g) {
                        assert!(
                            all_real,
                            "step {step}: subscribed {g:?} differs in {rows:?}"
                        );
                    }
                    assert!(
                        all_real || all_default,
                        "step {step}: {g:?} mixes values in {rows:?}"
                    );
                    all_default && !all_real
                };
            let kinds = group(ColumnMask::KINDS, &|i| cur.kind(i) == cols.kind(i), &|i| {
                cur.kind(i) == InstrKind::Op
            });
            let tids = group(ColumnMask::TIDS, &|i| cur.tid(i) == cols.tid(i), &|i| {
                cur.tid(i) == ThreadId(0)
            });
            let funcs = group(ColumnMask::FUNCS, &|i| cur.func(i) == cols.func(i), &|i| {
                cur.func(i) == FuncId(0)
            });
            let pcs = group(ColumnMask::PCS, &|i| cur.pc(i) == cols.pc(i), &|i| {
                cur.pc(i) == Pc(0)
            });
            let regs = group(
                ColumnMask::REGSETS,
                &|i| {
                    cur.reg_reads(i) == cols.reg_reads(i) && cur.reg_writes(i) == cols.reg_writes(i)
                },
                &|i| cur.reg_reads(i) == RegSet::EMPTY && cur.reg_writes(i) == RegSet::EMPTY,
            );
            let ops = group(
                ColumnMask::OPERANDS,
                &|i| {
                    cur.mem_reads(i) == cols.mem_reads(i) && cur.mem_writes(i) == cols.mem_writes(i)
                },
                &|i| cur.mem_reads(i).is_empty() && cur.mem_writes(i).is_empty(),
            );
            [kinds, tids, funcs, pcs, regs, ops]
        };
        let mut defaulted = Vec::new();
        if rng.chance(50) {
            rd.stream_range(lo, hi, |cur| defaulted.push(check(cur)))
                .unwrap();
        } else {
            rd.stream_range_rev(lo, hi, |cur| defaulted.push(check(cur)))
                .unwrap();
        }
        let mut want: Vec<usize> = (lo..hi).collect();
        let mut got: Vec<usize> = windows.iter().flat_map(|&(a, b)| a..b).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "step {step}: windows tile the range");
        // A lone chunk decoded just now was decoded under this mask, so
        // each skipped group must read as defaults.
        let fresh = rd.decode_stats().chunks_decoded - decoded_before;
        if windows.len() == 1 && fresh == 1 && hi > lo {
            for (g, defaults) in GROUPS.iter().zip(defaulted[0]) {
                let rows_differ = (lo..hi).any(|i| {
                    *g == ColumnMask::KINDS && cols.kind(i) != InstrKind::Op
                        || *g == ColumnMask::TIDS && cols.tid(i) != ThreadId(0)
                        || *g == ColumnMask::FUNCS && cols.func(i) != FuncId(0)
                        || *g == ColumnMask::PCS && cols.pc(i) != Pc(0)
                        || *g == ColumnMask::REGSETS
                            && (cols.reg_reads(i) != RegSet::EMPTY
                                || cols.reg_writes(i) != RegSet::EMPTY)
                        || *g == ColumnMask::OPERANDS
                            && !(cols.mem_reads(i).is_empty() && cols.mem_writes(i).is_empty())
                });
                if !mask.contains(*g) && rows_differ {
                    assert!(
                        defaults,
                        "step {step}: skipped {g:?} of a fresh decode is not default"
                    );
                }
            }
        }
    }
}
