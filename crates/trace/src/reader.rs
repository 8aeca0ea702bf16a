//! Out-of-core `WPTRACE2` access: a streaming [`Trace2Writer`] that never
//! buffers more than one segment, and a [`TraceReader`] that serves any
//! chunk on demand through a small bounded window of decoded segments.
//!
//! The contract streaming consumers rely on:
//!
//! * [`TraceReader::open`] reads **only the footer** — symbol table,
//!   thread table, marker records, and the segment index. Opening a
//!   billion-instruction trace costs footer-sized memory.
//! * [`TraceReader::chunk`] decodes one segment into a physical
//!   [`Columns`] store and caches at most [`MAX_CACHED_CHUNKS`] of them,
//!   so peak memory is `O(segment_len)`, never `O(trace_len)`.
//! * As a [`ColumnSource`], the reader presents each decoded chunk at its
//!   true global instruction range via [`Columns::cursor_at`], so streamed
//!   passes index it with exactly the positions an in-memory pass would
//!   use — results are identical by construction.
//!
//! Every footer field is validated before it sizes an allocation: counts
//! are capped by the bytes that actually remain, segment ranges must be
//! 64-aligned, contiguous, and sum to the declared total, and offsets
//! must land inside the payload area. Corrupt input yields
//! [`TraceIoError::Format`] — never a panic or an attacker-sized buffer.

use std::io::{Read, Seek, SeekFrom, Write};

use crate::addr::{Addr, AddrRange};
use crate::analysis::ColumnMask;
use crate::columns::{ColumnCursor, Columns};
use crate::compress::ByteReader;
use crate::func::{FuncId, FunctionRegistry};
use crate::instr::{InstrKind, TracePos};
use crate::io::{
    bad, count_u32, thread_kind_from, thread_kind_tag, w_str, TraceIoError, MAX_NAME_LEN,
};
use crate::pc::Pc;
use crate::reg::RegSet;
use crate::segment::{
    decode_segment_masked, encode_segment, segment_content_hash, DecodeScratch, SegmentMeta,
    MAGIC2, MAX_SEGMENT_INSTRS, SEGMENT_LEN, TRAILER2,
};
use crate::source::ColumnSource;
use crate::thread::{ThreadId, ThreadTable};
use crate::trace::{MarkerRecord, Trace};

/// Decoded segments a [`TraceReader`] keeps resident at once.
pub const MAX_CACHED_CHUNKS: usize = 4;

/// Footer bytes per marker record (`pos` + range start + range len).
const MARKER_WIRE_BYTES: usize = 8 + 8 + 4;
/// Footer bytes per segment index entry (fixed fields + thread bitmap +
/// region bitmap + 128-bit content hash).
const SEGMENT_WIRE_BYTES: usize = 8 + 8 + 8 + 8 + 32 + 2 + 16;

// ----- footer ------------------------------------------------------------

fn write_footer(
    w: &mut impl Write,
    total: u64,
    funcs: &FunctionRegistry,
    threads: &ThreadTable,
    markers: &[MarkerRecord],
    segs: &[SegmentMeta],
) -> Result<u64, TraceIoError> {
    let mut f: Vec<u8> = Vec::new();
    f.extend_from_slice(&total.to_le_bytes());

    f.extend_from_slice(&count_u32(funcs.len(), "function")?.to_le_bytes());
    for (_, info) in funcs.iter() {
        w_str(&mut f, info.name())?;
    }

    f.extend_from_slice(&count_u32(threads.len(), "thread")?.to_le_bytes());
    for t in threads.iter() {
        let (tag, payload) = thread_kind_tag(t.kind());
        f.push(tag);
        f.push(payload);
    }

    f.extend_from_slice(&(markers.len() as u64).to_le_bytes());
    for m in markers {
        f.extend_from_slice(&m.pos.0.to_le_bytes());
        f.extend_from_slice(&m.tile.start().raw().to_le_bytes());
        f.extend_from_slice(&m.tile.len().to_le_bytes());
    }

    f.extend_from_slice(&count_u32(segs.len(), "segment")?.to_le_bytes());
    for s in segs {
        f.extend_from_slice(&s.offset.to_le_bytes());
        f.extend_from_slice(&s.byte_len.to_le_bytes());
        f.extend_from_slice(&s.first_instr.to_le_bytes());
        f.extend_from_slice(&s.n_instr.to_le_bytes());
        for word in s.thread_bits {
            f.extend_from_slice(&word.to_le_bytes());
        }
        f.extend_from_slice(&s.region_bits.to_le_bytes());
        for word in s.content_hash {
            f.extend_from_slice(&word.to_le_bytes());
        }
    }

    w.write_all(&f)?;
    w.write_all(&(f.len() as u64).to_le_bytes())?;
    w.write_all(TRAILER2)?;
    Ok(f.len() as u64 + 16)
}

struct Footer {
    total: u64,
    funcs: FunctionRegistry,
    threads: ThreadTable,
    markers: Vec<MarkerRecord>,
    segs: Vec<SegmentMeta>,
}

fn parse_footer(bytes: &[u8], payload_end: u64) -> Result<Footer, TraceIoError> {
    let r = &mut ByteReader::new(bytes);
    let total = r.u64()?;

    let nfuncs = r.u32()? as usize;
    let mut funcs = FunctionRegistry::new();
    for i in 0..nfuncs {
        let len = r.u32()? as usize;
        if len > MAX_NAME_LEN {
            return Err(bad("string too long"));
        }
        let name =
            std::str::from_utf8(r.bytes(len)?).map_err(|_| bad("invalid utf-8 in symbol name"))?;
        if funcs.intern(name) != FuncId(i as u32) {
            return Err(bad(format!("duplicate symbol name `{name}`")));
        }
    }

    let nthreads = r.u32()?;
    if nthreads > 256 {
        return Err(bad("thread count exceeds 256"));
    }
    let mut threads = ThreadTable::new();
    for _ in 0..nthreads {
        let tag = r.u8()?;
        let payload = r.u8()?;
        threads.register(thread_kind_from(tag, payload)?);
    }

    let nmarkers = r.u64()?;
    if nmarkers as u128 * MARKER_WIRE_BYTES as u128 > r.remaining() as u128 {
        return Err(bad("marker table larger than the footer"));
    }
    let mut markers = Vec::with_capacity(nmarkers as usize);
    for _ in 0..nmarkers {
        let pos = r.u64()?;
        if pos >= total {
            return Err(bad(format!("marker record points past the trace ({pos})")));
        }
        let start = r.u64()?;
        let len = r.u32()?;
        if len == 0 {
            return Err(bad("zero-length marker tile"));
        }
        let tile = AddrRange::try_new(Addr::new(start), len)
            .ok_or_else(|| bad("marker tile wraps the address space"))?;
        markers.push(MarkerRecord {
            pos: TracePos(pos),
            tile,
        });
    }

    let nsegs = r.u32()? as usize;
    if nsegs * SEGMENT_WIRE_BYTES > r.remaining() {
        return Err(bad("segment index larger than the footer"));
    }
    let mut segs = Vec::with_capacity(nsegs);
    let mut running = 0u64;
    for i in 0..nsegs {
        let offset = r.u64()?;
        let byte_len = r.u64()?;
        let first_instr = r.u64()?;
        let n_instr = r.u64()?;
        let mut thread_bits = [0u64; 4];
        for word in thread_bits.iter_mut() {
            *word = r.u64()?;
        }
        let region_bits = r.u16()?;
        let mut content_hash = [0u64; 2];
        for word in content_hash.iter_mut() {
            *word = r.u64()?;
        }

        if first_instr != running {
            return Err(bad(format!(
                "segment {i} starts at {first_instr}, expected {running}"
            )));
        }
        if n_instr == 0 || n_instr > MAX_SEGMENT_INSTRS as u64 {
            return Err(bad(format!("segment {i} claims {n_instr} instructions")));
        }
        if i + 1 < nsegs && n_instr % 64 != 0 {
            return Err(bad(format!(
                "non-final segment {i} of {n_instr} instructions is not 64-aligned"
            )));
        }
        if offset < 8
            || offset
                .checked_add(byte_len)
                .is_none_or(|end| end > payload_end)
        {
            return Err(bad(format!("segment {i} payload lies outside the file")));
        }
        running = running
            .checked_add(n_instr)
            .ok_or_else(|| bad("instruction count overflows u64"))?;
        segs.push(SegmentMeta {
            offset,
            byte_len,
            first_instr,
            n_instr,
            thread_bits,
            region_bits,
            content_hash,
        });
    }
    if running != total {
        return Err(bad(format!(
            "segments cover {running} instructions, header claims {total}"
        )));
    }
    if !r.is_exhausted() {
        return Err(bad(format!(
            "{} trailing bytes in the footer",
            r.remaining()
        )));
    }
    Ok(Footer {
        total,
        funcs,
        threads,
        markers,
        segs,
    })
}

// ----- writer ------------------------------------------------------------

/// Sizes reported by [`Trace2Writer::finish`] / [`write_trace2`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Trace2Stats {
    /// Instructions written.
    pub instrs: u64,
    /// Bytes of compressed segment payload (excluding header and footer).
    pub payload_bytes: u64,
    /// Total file bytes, header and footer included.
    pub file_bytes: u64,
    /// Segments written.
    pub segments: u64,
}

impl Trace2Stats {
    /// Compressed payload bytes per instruction.
    pub fn bytes_per_instr(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / self.instrs as f64
        }
    }
}

/// Streams a trace out as `WPTRACE2`, holding at most one segment's
/// instructions in memory.
///
/// Rows are [pushed](Trace2Writer::push) exactly as into
/// [`Columns::push`]; every [`segment_len`](Trace2Writer::with_segment_len)
/// rows the buffer is compressed and flushed. [`Trace2Writer::finish`]
/// writes the final partial segment and the footer. This is how the
/// synthetic large-session generator produces billion-instruction traces
/// without ever materializing them.
pub struct Trace2Writer<W: Write> {
    w: W,
    segment_len: usize,
    buf: Columns,
    segs: Vec<SegmentMeta>,
    enc: Vec<u8>,
    offset: u64,
    total: u64,
}

impl<W: Write> Trace2Writer<W> {
    /// A writer with the default [`SEGMENT_LEN`] chunk size. Writes the
    /// file magic immediately.
    pub fn new(w: W) -> Result<Self, TraceIoError> {
        Self::with_segment_len(w, SEGMENT_LEN)
    }

    /// A writer flushing every `segment_len` instructions.
    ///
    /// # Panics
    ///
    /// Panics unless `segment_len` is a positive multiple of 64 no larger
    /// than [`MAX_SEGMENT_INSTRS`] — a writer-configuration bug, not a
    /// data error.
    pub fn with_segment_len(mut w: W, segment_len: usize) -> Result<Self, TraceIoError> {
        assert!(
            segment_len > 0 && segment_len.is_multiple_of(64) && segment_len <= MAX_SEGMENT_INSTRS,
            "segment length must be a positive multiple of 64 within the format cap"
        );
        w.write_all(MAGIC2)?;
        Ok(Trace2Writer {
            w,
            segment_len,
            buf: Columns::default(),
            segs: Vec::new(),
            enc: Vec::new(),
            offset: 8,
            total: 0,
        })
    }

    /// Instructions accepted so far.
    pub fn instrs(&self) -> u64 {
        self.total + self.buf.len() as u64
    }

    /// Appends one instruction, flushing a compressed segment when the
    /// buffer fills.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`TraceIoError::Format`] if one segment's operands
    /// exceed the format cap.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        tid: ThreadId,
        func: FuncId,
        pc: Pc,
        kind: InstrKind,
        reg_reads: RegSet,
        reg_writes: RegSet,
        reads: &[AddrRange],
        writes: &[AddrRange],
    ) -> Result<(), TraceIoError> {
        self.buf
            .push(tid, func, pc, kind, reg_reads, reg_writes, reads, writes);
        if self.buf.len() == self.segment_len {
            self.flush_segment()?;
        }
        Ok(())
    }

    fn flush_segment(&mut self) -> Result<(), TraceIoError> {
        let n = self.buf.len();
        if n == 0 {
            return Ok(());
        }
        self.enc.clear();
        let (thread_bits, region_bits) = encode_segment(&self.buf, 0, n, &mut self.enc)?;
        self.w.write_all(&self.enc)?;
        self.segs.push(SegmentMeta {
            offset: self.offset,
            byte_len: self.enc.len() as u64,
            first_instr: self.total,
            n_instr: n as u64,
            thread_bits,
            region_bits,
            content_hash: segment_content_hash(&self.buf, 0, n),
        });
        self.offset += self.enc.len() as u64;
        self.total += n as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the final partial segment, writes the footer, and returns
    /// the size accounting.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`TraceIoError::Format`] if a table does not fit
    /// its wire field.
    pub fn finish(
        mut self,
        funcs: &FunctionRegistry,
        threads: &ThreadTable,
        markers: &[MarkerRecord],
    ) -> Result<Trace2Stats, TraceIoError> {
        self.flush_segment()?;
        let footer_bytes =
            write_footer(&mut self.w, self.total, funcs, threads, markers, &self.segs)?;
        self.w.flush()?;
        Ok(Trace2Stats {
            instrs: self.total,
            payload_bytes: self.offset - 8,
            file_bytes: self.offset + footer_bytes,
            segments: self.segs.len() as u64,
        })
    }
}

/// Serializes an in-memory [`Trace`] as `WPTRACE2` with the default
/// segment size, flushes `w`, and returns the size accounting.
///
/// # Errors
///
/// I/O failure (a failed final flush included: a buffered writer's last
/// buffer holds the footer), or [`TraceIoError::Format`] if a table or
/// segment exceeds a wire-format cap.
pub fn write_trace2(w: &mut impl Write, trace: &Trace) -> Result<Trace2Stats, TraceIoError> {
    w.write_all(MAGIC2)?;
    let cols = trace.columns();
    let n = cols.len();
    let mut segs = Vec::new();
    let mut enc = Vec::new();
    let mut offset = 8u64;
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + SEGMENT_LEN).min(n);
        enc.clear();
        let (thread_bits, region_bits) = encode_segment(cols, lo, hi, &mut enc)?;
        w.write_all(&enc)?;
        segs.push(SegmentMeta {
            offset,
            byte_len: enc.len() as u64,
            first_instr: lo as u64,
            n_instr: (hi - lo) as u64,
            thread_bits,
            region_bits,
            content_hash: segment_content_hash(cols, lo, hi),
        });
        offset += enc.len() as u64;
        lo = hi;
    }
    let footer_bytes = write_footer(
        w,
        n as u64,
        trace.functions(),
        trace.threads(),
        trace.markers(),
        &segs,
    )?;
    w.flush()?;
    Ok(Trace2Stats {
        instrs: n as u64,
        payload_bytes: offset - 8,
        file_bytes: offset + footer_bytes,
        segments: segs.len() as u64,
    })
}

// ----- reader ------------------------------------------------------------

/// Cumulative decode accounting of one [`TraceReader`]: how many segment
/// decodes it performed and how the payload bytes split between decoded
/// and mask-skipped column blocks. Selective-decode benchmarks read this
/// to report the bytes a narrowed mask saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Segment payloads decoded from disk (cache hits excluded).
    pub chunks_decoded: u64,
    /// Payload bytes decompressed into columns.
    pub decoded_stream_bytes: u64,
    /// Payload bytes skipped via block length prefixes under a narrowed
    /// [`ColumnMask`].
    pub skipped_stream_bytes: u64,
}

/// Streaming random-chunk access to a `WPTRACE2` trace.
///
/// Holds the footer tables plus a bounded cache of decoded segments (see
/// the module docs for the full contract).
pub struct TraceReader<R: Read + Seek> {
    r: R,
    total: u64,
    funcs: FunctionRegistry,
    threads: ThreadTable,
    markers: Vec<MarkerRecord>,
    segs: Vec<SegmentMeta>,
    /// Most-recently-used decoded chunks, front first, each tagged with
    /// the segment column groups it was decoded under: a cached chunk only
    /// serves requests whose groups it covers, so a narrowly decoded chunk
    /// can never leak default-filled columns to a consumer that subscribed
    /// to them.
    cache: Vec<(usize, ColumnMask, Columns)>,
    /// Column groups [`TraceReader::chunk`] decodes; defaults to
    /// [`ColumnMask::ALL`].
    decode_mask: ColumnMask,
    /// The segment payload being decoded, reused from chunk to chunk.
    payload: Vec<u8>,
    /// The decoder's working storage, reused from chunk to chunk.
    scratch: DecodeScratch,
    /// Cumulative decode accounting.
    stats: DecodeStats,
}

impl<R: Read + Seek> TraceReader<R> {
    /// Opens a `WPTRACE2` stream, reading only the footer.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Format`] on any structural defect (wrong magic or
    /// trailer, inconsistent segment index, corrupt tables);
    /// [`TraceIoError::Io`] if the underlying reads fail.
    pub fn open(mut r: R) -> Result<Self, TraceIoError> {
        let file_len = r.seek(SeekFrom::End(0))?;
        if file_len < 24 {
            return Err(bad("file too small to be a WPTRACE2 trace"));
        }
        let mut head = [0u8; 8];
        r.seek(SeekFrom::Start(0))?;
        r.read_exact(&mut head)?;
        if &head != MAGIC2 {
            return Err(bad("bad magic (not a WPTRACE2 trace)"));
        }
        let mut tail = [0u8; 16];
        r.seek(SeekFrom::End(-16))?;
        r.read_exact(&mut tail)?;
        if &tail[8..] != TRAILER2 {
            return Err(bad("bad trailer (truncated WPTRACE2 trace?)"));
        }
        let footer_len = u64::from_le_bytes(tail[..8].try_into().expect("8-byte slice"));
        if footer_len > file_len - 24 {
            return Err(bad(format!(
                "footer of {footer_len} bytes larger than the file"
            )));
        }
        let payload_end = file_len - 16 - footer_len;
        r.seek(SeekFrom::Start(payload_end))?;
        // Bounded: footer_len was just validated against the file size.
        let mut fbytes = vec![0u8; footer_len as usize];
        r.read_exact(&mut fbytes)?;
        let footer = parse_footer(&fbytes, payload_end)?;
        Ok(TraceReader {
            r,
            total: footer.total,
            funcs: footer.funcs,
            threads: footer.threads,
            markers: footer.markers,
            segs: footer.segs,
            cache: Vec::new(),
            decode_mask: ColumnMask::ALL,
            payload: Vec::new(),
            scratch: DecodeScratch::default(),
            stats: DecodeStats::default(),
        })
    }

    /// Cumulative decode accounting since `open` (or the last
    /// [`TraceReader::reset_decode_stats`]).
    pub fn decode_stats(&self) -> DecodeStats {
        self.stats
    }

    /// Zeroes the decode accounting, so a benchmark can meter one pass.
    pub fn reset_decode_stats(&mut self) {
        self.stats = DecodeStats::default();
    }

    /// Number of on-disk segments.
    pub fn n_chunks(&self) -> usize {
        self.segs.len()
    }

    /// Index metadata of chunk `i`.
    pub fn chunk_meta(&self, i: usize) -> &SegmentMeta {
        &self.segs[i]
    }

    /// Index of the chunk containing global instruction `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is at or past the end of the trace.
    pub fn chunk_of(&self, idx: usize) -> usize {
        assert!((idx as u64) < self.total, "instruction index out of range");
        self.segs.partition_point(|s| s.first_instr <= idx as u64) - 1
    }

    /// Decodes chunk `i` (or serves it from the bounded cache), returning
    /// its physical column store.
    ///
    /// A decode first evicts, then refills the evicted store in place: a
    /// copy of chunk `i` decoded under narrower column groups is stale for
    /// this request, otherwise a full cache gives up its least recently
    /// used chunk. So at most `MAX_CACHED_CHUNKS` (4) stores ever exist, and
    /// once they and the payload buffer reach their working size a decode
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Format`] if the segment payload is corrupt,
    /// [`TraceIoError::Io`] on read failure.
    pub fn chunk(&mut self, i: usize) -> Result<&Columns, TraceIoError> {
        // The marker table lives in the footer: only the segment groups
        // decide what a decode reads, checks and can serve.
        let mask = self.decode_mask.intersection(ColumnMask::SEGMENT);
        if let Some(p) = self
            .cache
            .iter()
            .position(|(j, m, _)| *j == i && m.contains(mask))
        {
            let hit = self.cache.remove(p);
            self.cache.insert(0, hit);
            return Ok(&self.cache[0].2);
        }
        let mut cols = match self.cache.iter().position(|(j, _, _)| *j == i) {
            Some(stale) => self.cache.remove(stale).2,
            None if self.cache.len() >= MAX_CACHED_CHUNKS => {
                self.cache.pop().expect("a full cache").2
            }
            None => Columns::default(),
        };
        let meta = &self.segs[i];
        self.r.seek(SeekFrom::Start(meta.offset))?;
        // Bounded: offset + byte_len was validated against the payload
        // area when the footer was parsed.
        self.payload.clear();
        self.payload.resize(meta.byte_len as usize, 0);
        self.r.read_exact(&mut self.payload)?;
        let seg_stats = decode_segment_masked(
            &self.payload,
            meta.n_instr as usize,
            self.funcs.len(),
            mask,
            &mut cols,
            &mut self.scratch,
        )?;
        self.stats.chunks_decoded += 1;
        self.stats.decoded_stream_bytes += seg_stats.decoded_bytes;
        self.stats.skipped_stream_bytes += seg_stats.skipped_bytes;
        // The footer's content hash is the end-to-end integrity check: a
        // payload bit-flip the per-column codecs happen to decode
        // "successfully" still changes the decoded rows, and is caught
        // here instead of silently corrupting downstream analyses. It
        // covers every segment column, so it is checked whenever all of
        // them are decoded; a mask that skips one trades it for skipping
        // (see [`ColumnSource::swap_decode_mask`]).
        if mask == ColumnMask::SEGMENT {
            let got = segment_content_hash(&cols, 0, cols.len());
            if got != meta.content_hash {
                return Err(bad(format!(
                    "segment {i} content hash mismatch: footer {:016x}{:016x}, decoded {:016x}{:016x}",
                    meta.content_hash[0], meta.content_hash[1], got[0], got[1]
                )));
            }
        }
        self.cache.insert(0, (i, mask, cols));
        Ok(&self.cache[0].2)
    }

    /// Chunk `i` at its global instruction range, clipped to `[lo, hi)`:
    /// one window of [`ColumnSource::stream_range`].
    fn clipped_chunk(
        &mut self,
        i: usize,
        lo: usize,
        hi: usize,
    ) -> Result<ColumnCursor<'_>, TraceIoError> {
        let first = self.segs[i].first_instr as usize;
        let n = self.segs[i].n_instr as usize;
        let cols = self.chunk(i)?;
        Ok(cols.cursor_at(first, lo.max(first), hi.min(first + n)))
    }

    /// Materializes the whole trace in memory (every in-memory load of a
    /// trace file goes through here) and validates it structurally.
    ///
    /// # Errors
    ///
    /// Any chunk error, or [`TraceIoError::Format`] if the assembled
    /// trace fails [`Trace::validate`].
    pub fn read_to_trace(mut self) -> Result<Trace, TraceIoError> {
        let mut cols = Columns::default();
        for i in 0..self.n_chunks() {
            let chunk = self.chunk(i)?;
            for idx in 0..chunk.len() {
                cols.push(
                    chunk.tid(idx),
                    chunk.func(idx),
                    chunk.pc(idx),
                    chunk.kind(idx),
                    chunk.reg_reads(idx),
                    chunk.reg_writes(idx),
                    chunk.mem_reads(idx),
                    chunk.mem_writes(idx),
                );
            }
        }
        let trace = Trace::from_parts(cols, self.funcs, self.threads, self.markers);
        trace.validate().map_err(bad)?;
        Ok(trace)
    }
}

/// The tables come from the footer; rows stream through the reader's
/// bounded chunk window.
impl<R: Read + Seek> ColumnSource for TraceReader<R> {
    type Error = TraceIoError;

    fn len(&self) -> usize {
        usize::try_from(self.total).expect("trace length fits usize on this platform")
    }

    fn functions(&self) -> &FunctionRegistry {
        &self.funcs
    }

    fn threads(&self) -> &ThreadTable {
        &self.threads
    }

    fn markers(&self) -> &[MarkerRecord] {
        &self.markers
    }

    fn stream_range(
        &mut self,
        lo: usize,
        hi: usize,
        mut f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), TraceIoError> {
        if lo >= hi {
            return Ok(());
        }
        for i in self.chunk_of(lo)..=self.chunk_of(hi - 1) {
            f(&self.clipped_chunk(i, lo, hi)?);
        }
        Ok(())
    }

    fn stream_range_rev(
        &mut self,
        lo: usize,
        hi: usize,
        mut f: impl FnMut(&ColumnCursor<'_>),
    ) -> Result<(), TraceIoError> {
        if lo >= hi {
            return Ok(());
        }
        for i in (self.chunk_of(lo)..=self.chunk_of(hi - 1)).rev() {
            f(&self.clipped_chunk(i, lo, hi)?);
        }
        Ok(())
    }

    /// Narrows (or restores) the column groups [`TraceReader::chunk`]
    /// decodes. Streams outside `mask` are skipped through their block
    /// length prefixes instead of decompressed, and come back as default
    /// values.
    ///
    /// Under a mask that skips any segment column group the footer's
    /// per-segment content hash — which covers every segment column —
    /// cannot be recomputed, so the end-to-end integrity check is skipped;
    /// block framing and per-value domain checks on the decoded columns
    /// still apply. [`ColumnMask::MARKERS`] reads the footer only, so it
    /// neither decides the check nor the cache tag. Cached chunks are
    /// tagged with their segment column groups, so narrowing then widening
    /// never serves default-filled columns.
    fn swap_decode_mask(&mut self, mask: ColumnMask) -> ColumnMask {
        std::mem::replace(&mut self.decode_mask, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::site;
    use crate::source::ColumnSource;
    use crate::syscall::Syscall;
    use crate::thread::ThreadKind;
    use crate::Region;
    use std::io::Cursor;

    fn sample() -> Trace {
        sample_with(300)
    }

    /// A two-thread trace whose parse loop runs `iters` times.
    fn sample_with(iters: usize) -> Trace {
        let mut rec = Recorder::new();
        rec.spawn_thread(ThreadKind::Main, "main");
        rec.spawn_thread(ThreadKind::Raster(0), "cc::RasterMain");
        rec.switch_to(ThreadId::MAIN);
        let f = rec.intern_func("blink::Parse");
        let g = rec.intern_func("cc::Raster");
        let cell = rec.alloc_cell(Region::Heap);
        let tile = rec.alloc(Region::PixelTile, 128);
        rec.in_func(site!(), f, |rec| {
            for _ in 0..iters {
                rec.compute(site!(), &[cell.into()], &[tile]);
                rec.branch_mem(site!(), cell, true);
            }
            rec.syscall(site!(), Syscall::Writev, &[cell.into()], vec![tile], vec![]);
        });
        rec.switch_to(ThreadId(1));
        rec.in_func(site!(), g, |rec| {
            rec.marker(site!(), tile);
        });
        rec.finish()
    }

    fn assert_trace_eq(a: &Trace, b: &Trace) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.markers(), b.markers());
        assert_eq!(a.functions().len(), b.functions().len());
        for (id, info) in a.functions().iter() {
            assert_eq!(info.name(), b.functions().info(id).name());
        }
        assert_eq!(a.threads().len(), b.threads().len());
        for (x, y) in a.threads().iter().zip(b.threads().iter()) {
            assert_eq!(x.kind(), y.kind());
        }
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    fn push_all(w: &mut Trace2Writer<&mut Vec<u8>>, t: &Trace) {
        let cols = t.columns();
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
            .unwrap();
        }
    }

    #[test]
    fn streamed_writer_and_whole_trace_writer_agree() {
        let t = sample();
        let mut streamed = Vec::new();
        let mut w = Trace2Writer::new(&mut streamed).unwrap();
        push_all(&mut w, &t);
        let stats = w.finish(t.functions(), t.threads(), t.markers()).unwrap();
        assert_eq!(stats.instrs, t.len() as u64);
        assert_eq!(stats.file_bytes, streamed.len() as u64);

        let mut whole = Vec::new();
        let s2 = write_trace2(&mut whole, &t).unwrap();
        assert_eq!(streamed, whole, "the two writers must agree byte for byte");
        assert_eq!(stats.payload_bytes, s2.payload_bytes);

        let back = TraceReader::open(Cursor::new(streamed))
            .unwrap()
            .read_to_trace()
            .unwrap();
        assert_trace_eq(&t, &back);
    }

    #[test]
    fn multi_chunk_traces_roundtrip_and_stream() {
        let t = sample();
        let mut buf = Vec::new();
        // Force many chunks with a tiny segment size.
        let mut w = Trace2Writer::with_segment_len(&mut buf, 64).unwrap();
        push_all(&mut w, &t);
        let stats = w.finish(t.functions(), t.threads(), t.markers()).unwrap();
        assert!(stats.segments > 1, "fixture too small");

        let mut rd = TraceReader::open(Cursor::new(buf)).unwrap();
        assert_eq!(rd.len(), t.len());
        assert_eq!(rd.markers(), t.markers());
        // Cursor-based access at global positions.
        for i in 0..rd.n_chunks() {
            let cur = rd.clipped_chunk(i, 0, usize::MAX).unwrap();
            for idx in cur.lo()..cur.hi() {
                assert_eq!(cur.instr(idx), t.instr(TracePos(idx as u64)));
            }
        }
        // Cache stays bounded.
        assert!(rd.cache.len() <= MAX_CACHED_CHUNKS);
        // chunk_of maps positions to chunks.
        assert_eq!(rd.chunk_of(0), 0);
        assert_eq!(rd.chunk_of(t.len() - 1), rd.n_chunks() - 1);
        let back = rd.read_to_trace().unwrap();
        assert_trace_eq(&t, &back);
    }

    #[test]
    fn stream_range_tiles_arbitrary_windows() {
        let t = sample();
        let mut buf = Vec::new();
        let mut w = Trace2Writer::with_segment_len(&mut buf, 64).unwrap();
        push_all(&mut w, &t);
        w.finish(t.functions(), t.threads(), t.markers()).unwrap();
        let mut rd = TraceReader::open(Cursor::new(buf)).unwrap();
        let n = rd.len();
        // Windows crossing chunk boundaries, chunk-aligned, and within one
        // chunk, plus empty ones.
        for (lo, hi) in [(0, n), (1, n - 1), (63, 130), (64, 128), (10, 20), (5, 5)] {
            let mut fwd: Vec<usize> = Vec::new();
            rd.stream_range(lo, hi, |cur| {
                for idx in cur.lo()..cur.hi() {
                    assert_eq!(cur.instr(idx), t.instr(TracePos(idx as u64)));
                    fwd.push(idx);
                }
            })
            .unwrap();
            assert_eq!(fwd, (lo..hi).collect::<Vec<_>>());

            let mut rev: Vec<usize> = Vec::new();
            rd.stream_range_rev(lo, hi, |cur| {
                for idx in cur.rev_indices() {
                    rev.push(idx);
                }
            })
            .unwrap();
            assert_eq!(rev, (lo..hi).rev().collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Recorder::new().finish();
        let mut buf = Vec::new();
        let stats = write_trace2(&mut buf, &t).unwrap();
        assert_eq!(stats.instrs, 0);
        let rd = TraceReader::open(Cursor::new(buf)).unwrap();
        assert!(rd.is_empty());
        assert_eq!(rd.n_chunks(), 0);
    }

    #[test]
    fn open_rejects_corrupt_headers_and_footers() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace2(&mut buf, &t).unwrap();

        // Bad magic.
        let mut b = buf.clone();
        b[0] = b'X';
        assert!(matches!(
            TraceReader::open(Cursor::new(b)).err(),
            Some(TraceIoError::Format(_))
        ));

        // Bad trailer.
        let mut b = buf.clone();
        let n = b.len();
        b[n - 1] = b'X';
        assert!(matches!(
            TraceReader::open(Cursor::new(b)).err(),
            Some(TraceIoError::Format(_))
        ));

        // Footer length pointing outside the file.
        let mut b = buf.clone();
        let n = b.len();
        b[n - 16..n - 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            TraceReader::open(Cursor::new(b)).err(),
            Some(TraceIoError::Format(_))
        ));

        // Too small to hold anything.
        assert!(matches!(
            TraceReader::open(Cursor::new(b"WPTRACE2".to_vec())).err(),
            Some(TraceIoError::Format(_))
        ));
    }

    #[test]
    fn payload_bit_flips_never_decode_to_different_rows() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace2(&mut buf, &t).unwrap();
        let probe = TraceReader::open(Cursor::new(buf.clone())).unwrap();
        let meta = probe.chunk_meta(0).clone();
        assert_ne!(meta.content_hash, [0, 0]);
        let (lo, hi) = (meta.offset as usize, (meta.offset + meta.byte_len) as usize);
        let mut caught_by_hash = 0usize;
        for pos in lo..hi {
            for bit in [0u8, 3, 7] {
                let mut b = buf.clone();
                b[pos] ^= 1 << bit;
                let mut rd = TraceReader::open(Cursor::new(b)).unwrap();
                match rd.chunk(0) {
                    // Either the codec rejects the flip outright, or the
                    // footer hash catches a "successful" decode of
                    // different rows. A clean Ok means the flip did not
                    // change the decoded rows at all (hash verified).
                    Err(TraceIoError::Format(msg)) => {
                        if msg.contains("content hash mismatch") {
                            caught_by_hash += 1;
                        }
                    }
                    Err(e) => panic!("unexpected error kind: {e:?}"),
                    Ok(_) => {}
                }
            }
        }
        assert!(
            caught_by_hash > 0,
            "no flip exercised the content-hash check"
        );
    }

    #[test]
    fn masked_chunks_never_poison_the_cache() {
        let t = sample();
        let mut buf = Vec::new();
        let mut w = Trace2Writer::with_segment_len(&mut buf, 64).unwrap();
        push_all(&mut w, &t);
        w.finish(t.functions(), t.threads(), t.markers()).unwrap();
        let mut rd = TraceReader::open(Cursor::new(buf)).unwrap();

        // Narrow decode: tids real, everything else skipped.
        assert_eq!(rd.swap_decode_mask(ColumnMask::TIDS), ColumnMask::ALL);
        {
            let cols = rd.chunk(0).unwrap();
            for idx in 0..cols.len() {
                assert_eq!(cols.tid(idx), t.columns().tid(idx));
            }
        }
        let narrow = rd.decode_stats();
        assert_eq!(narrow.chunks_decoded, 1);
        assert!(narrow.skipped_stream_bytes > 0, "{narrow:?}");

        // Widening re-decodes rather than serving the default-filled copy,
        // and the full decode re-enables the content-hash check.
        rd.swap_decode_mask(ColumnMask::ALL);
        let cur = rd.clipped_chunk(0, 0, usize::MAX).unwrap();
        assert_eq!(cur.instr(0), t.instr(TracePos(0)));
        assert_eq!(rd.decode_stats().chunks_decoded, 2);

        // A full-mask cached chunk covers any narrower request.
        rd.swap_decode_mask(ColumnMask::TIDS);
        rd.chunk(0).unwrap();
        assert_eq!(rd.decode_stats().chunks_decoded, 2, "cache hit expected");
        rd.reset_decode_stats();
        assert_eq!(rd.decode_stats(), DecodeStats::default());
    }

    /// `MARKERS` lives in the footer, so a mask of the six segment groups
    /// without it still decodes every segment column: the footer hash is
    /// checked, and the chunk serves a later `ALL` request from the cache.
    #[test]
    fn segment_groups_without_markers_check_the_hash_and_serve_all() {
        let t = sample_with(20);
        let mut buf = Vec::new();
        write_trace2(&mut buf, &t).unwrap();
        let segment_groups = ColumnMask::KINDS
            .union(ColumnMask::TIDS)
            .union(ColumnMask::FUNCS)
            .union(ColumnMask::PCS)
            .union(ColumnMask::REGSETS)
            .union(ColumnMask::OPERANDS);

        let mut rd = TraceReader::open(Cursor::new(buf.clone())).unwrap();
        rd.swap_decode_mask(segment_groups);
        rd.chunk(0).unwrap();
        rd.swap_decode_mask(ColumnMask::ALL);
        let cur = rd.clipped_chunk(0, 0, usize::MAX).unwrap();
        assert_eq!(cur.instr(0), t.instr(TracePos(0)));
        assert_eq!(rd.decode_stats().chunks_decoded, 1, "the ALL request hits");

        let meta = rd.chunk_meta(0).clone();
        let mut caught_by_hash = 0usize;
        for pos in meta.offset..meta.offset + meta.byte_len {
            for bit in [0u8, 3, 7] {
                let mut b = buf.clone();
                b[pos as usize] ^= 1 << bit;
                let mut rd = TraceReader::open(Cursor::new(b)).unwrap();
                rd.swap_decode_mask(segment_groups);
                match rd.chunk(0) {
                    Err(TraceIoError::Format(msg)) if msg.contains("content hash mismatch") => {
                        caught_by_hash += 1
                    }
                    Err(TraceIoError::Format(_)) => {}
                    Err(e) => panic!("unexpected error kind: {e:?}"),
                    // A clean decode is a flip that left the rows as they
                    // were: the hash was checked.
                    Ok(cols) => assert_eq!(cols.instr(0), t.instr(TracePos(0))),
                }
            }
        }
        assert!(caught_by_hash > 0, "no flip reached the content-hash check");
    }

    /// A sink that accepts every write but fails to flush, like a full
    /// disk behind a `BufWriter`.
    struct FailingFlush;

    impl Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn write_trace2_reports_a_failed_flush() {
        let err = write_trace2(&mut FailingFlush, &sample()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)), "{err:?}");
    }

    /// The leading footer fields: an instruction total of 0 and a symbol
    /// table of `(declared length, bytes)` entries.
    fn symbols(entries: &[(u32, &[u8])]) -> Vec<u8> {
        let mut f = 0u64.to_le_bytes().to_vec();
        f.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (len, bytes) in entries {
            f.extend_from_slice(&len.to_le_bytes());
            f.extend_from_slice(bytes);
        }
        f
    }

    /// The message of the format error `parse_footer` must return.
    fn footer_err(footer: &[u8]) -> String {
        match parse_footer(footer, u64::MAX) {
            Err(TraceIoError::Format(msg)) => msg,
            Err(e) => panic!("expected a format error, got {e:?}"),
            Ok(_) => panic!("corrupt footer accepted"),
        }
    }

    #[test]
    fn footer_rejects_oversized_thread_count() {
        // A ThreadTable holds at most 256 threads: a larger count is an
        // error, not a register() panic.
        let mut f = symbols(&[]);
        f.extend_from_slice(&257u32.to_le_bytes());
        f.extend_from_slice(&[0u8; 2 * 257]);
        assert_eq!(footer_err(&f), "thread count exceeds 256");
    }

    #[test]
    fn footer_rejects_huge_symbol_length_before_reading() {
        // Nothing follows the 4 GiB length: the cap fires before any
        // read or buffer is sized from it.
        assert_eq!(footer_err(&symbols(&[(u32::MAX, b"")])), "string too long");
    }

    #[test]
    fn footer_rejects_symbol_running_past_its_end() {
        let msg = footer_err(&symbols(&[(100, b"abc")]));
        assert!(msg.contains("100 bytes requested, 3 remain"), "{msg}");
    }

    #[test]
    fn footer_rejects_invalid_utf8_symbol() {
        let msg = footer_err(&symbols(&[(2, &[0xff, 0xfe])]));
        assert_eq!(msg, "invalid utf-8 in symbol name");
    }

    #[test]
    fn footer_rejects_duplicate_symbol() {
        let msg = footer_err(&symbols(&[(1, b"f"), (1, b"f")]));
        assert_eq!(msg, "duplicate symbol name `f`");
    }

    /// A footer with an instruction total of 1, no symbols or threads,
    /// and one marker tile of `len` bytes at `start`.
    fn marker_footer(start: u64, len: u32) -> Vec<u8> {
        let mut f = 1u64.to_le_bytes().to_vec();
        f.extend_from_slice(&0u32.to_le_bytes()); // symbols
        f.extend_from_slice(&0u32.to_le_bytes()); // threads
        f.extend_from_slice(&1u64.to_le_bytes()); // markers
        f.extend_from_slice(&0u64.to_le_bytes()); // marker position
        f.extend_from_slice(&start.to_le_bytes());
        f.extend_from_slice(&len.to_le_bytes());
        f
    }

    #[test]
    fn footer_rejects_empty_and_wrapping_marker_tiles() {
        assert_eq!(
            footer_err(&marker_footer(0x1000, 0)),
            "zero-length marker tile"
        );
        assert_eq!(
            footer_err(&marker_footer(u64::MAX - 3, 8)),
            "marker tile wraps the address space"
        );
    }

    #[test]
    fn truncating_anywhere_never_panics() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace2(&mut buf, &t).unwrap();
        for cut in 0..buf.len() {
            if let Ok(rd) = TraceReader::open(Cursor::new(buf[..cut].to_vec())) {
                // Footer may survive a payload truncation; chunk reads
                // must then fail cleanly, not panic.
                let _ = rd.read_to_trace().unwrap_err();
            }
        }
    }
}
