//! Per-column compression primitives for the `WPTRACE2` chunked format.
//!
//! Everything here operates on blocks of unsigned integers; the segment
//! codec (`segment.rs`) chooses a per-column *pre-transform* (zigzag delta
//! for monotone-ish columns like pcs and operand start addresses,
//! dictionary indices for funcs, raw values otherwise) and then encodes the
//! column, as stored or as transformed, through [`encode_block`], which
//! emits the smaller of two wire encodings per column:
//!
//! * **plain** — each value as a LEB128 varint;
//! * **run-length** — `(value, run length)` varint pairs, which collapses
//!   the long constant runs real traces are full of (tids during a
//!   scheduling quantum, zero operand counts on ALU ops, constant pc
//!   deltas in straight-line code).
//!
//! Decoding is fully bounds-checked through [`ByteReader`]: every length
//! and count is validated against the bytes that actually remain, so a
//! corrupt or truncated chunk yields a [`TraceIoError::Format`] instead of
//! a panic or an attacker-sized allocation. [`decode_runs`] reads a block
//! as runs of equal values, so a decoder converts each value once per run
//! and writes it straight into its typed column.

use crate::io::{bad, TraceIoError};

// ----- varint / zigzag ---------------------------------------------------

/// Appends `v` to `out` as an LEB128 varint (7 bits per byte, high bit =
/// continuation).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag-encodes a signed delta so small magnitudes of either sign stay
/// small varints.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ----- bounds-checked reader --------------------------------------------

/// A cursor over an in-memory byte slice whose every read is checked
/// against the remaining length.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, TraceIoError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| bad("truncated chunk: byte past the end"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` bytes as a slice without copying.
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

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, TraceIoError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, TraceIoError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, TraceIoError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
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

    /// Reads one varint as [`ByteReader::varint`] does, eight bytes at a
    /// time: a varint of at most eight bytes that lies wholly inside the
    /// buffer is gathered from one little-endian word. Longer varints, the
    /// buffer's last seven bytes and every error take the byte-at-a-time
    /// path, so both accept exactly the same input.
    #[inline]
    fn varint_fast(&mut self) -> Result<u64, TraceIoError> {
        if let Some(window) = self.buf.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(window.try_into().expect("an 8-byte window"));
            if word & 0x80 == 0 {
                self.pos += 1;
                return Ok(word & 0x7f);
            }
            let stops = !word & 0x8080_8080_8080_8080;
            if stops != 0 {
                let len = stops.trailing_zeros() / 8 + 1;
                self.pos += len as usize;
                return Ok(gather7(word & (u64::MAX >> (64 - 8 * len))));
            }
        }
        self.varint()
    }
}

/// Packs the low seven bits of each byte of `w` into 56 contiguous bits,
/// byte 0 lowest: the value of an up-to-8-byte LEB128 varint read as one
/// little-endian word with the bytes past its end cleared.
#[inline]
fn gather7(w: u64) -> u64 {
    let w = w & 0x7f7f_7f7f_7f7f_7f7f;
    let w = (w & 0x007f_007f_007f_007f) | ((w & 0x7f00_7f00_7f00_7f00) >> 1);
    let w = (w & 0x0000_3fff_0000_3fff) | ((w & 0x3fff_0000_3fff_0000) >> 2);
    (w & 0x0000_0000_0fff_ffff) | ((w & 0x0fff_ffff_0000_0000) >> 4)
}

/// Bytes [`put_varint`] spends on `v`: for a `u64`, from its leading
/// zeros; for a narrower type, one comparison per seven bits it can hold,
/// which vectorizes where a leading-zero count does not.
#[inline]
fn value_len<T: Copy + Into<u64>>(v: T) -> usize {
    let bits = 8 * std::mem::size_of::<T>();
    let v: u64 = v.into();
    if bits >= 64 {
        return (70 - (v | 1).leading_zeros() as usize) / 7;
    }
    let mut len = 1;
    let mut shift = 7;
    while shift < bits {
        len += usize::from(v >> shift != 0);
        shift += 7;
    }
    len
}

/// Spreads the low 56 bits of `v` over the low seven bits of each byte,
/// byte 0 lowest: the inverse of [`gather7`].
#[inline]
fn scatter7(v: u64) -> u64 {
    let v = (v & 0x0000_0000_0fff_ffff) | (v & 0x00ff_ffff_f000_0000) << 4;
    let v = (v & 0x0000_3fff_0000_3fff) | (v & 0x0fff_c000_0fff_c000) << 2;
    (v & 0x007f_007f_007f_007f) | (v & 0x3f80_3f80_3f80_3f80) << 1
}

/// The continuation bits of a varint of up to eight bytes, by its length:
/// set on every byte but the last.
const CONTINUED: [u64; 9] = {
    let mut bits = [0; 9];
    let mut len = 2;
    while len <= 8 {
        bits[len] = 0x8080_8080_8080_8080 & ((1u64 << (8 * len - 8)) - 1);
        len += 1;
    }
    bits
};

/// Writes `v` as the varint [`put_varint`] writes, at `buf[pos..]`, and
/// returns the position past it. A varint of up to eight bytes goes out
/// as one little-endian word, so `buf` must hold eight bytes from `pos`;
/// the word's bytes past the varint are zeros, for the next store to
/// overwrite.
#[inline]
fn store_varint<T: Copy + Into<u64>>(buf: &mut [u8], pos: usize, v: T) -> usize {
    let len = value_len(v);
    let mut v: u64 = v.into();
    if len <= 8 {
        buf[pos..pos + 8].copy_from_slice(&(scatter7(v) | CONTINUED[len]).to_le_bytes());
    } else {
        for b in &mut buf[pos..pos + len - 1] {
            *b = (v as u8) | 0x80;
            v >>= 7;
        }
        buf[pos + len - 1] = v as u8;
    }
    pos + len
}

// ----- dual-encoding column blocks --------------------------------------

/// Wire tag for a plain varint stream.
const ENC_PLAIN: u8 = 0;
/// Wire tag for a run-length (`value`,`runlen`) varint-pair stream.
const ENC_RLE: u8 = 1;

/// Values per partial sum of [`encode_block`]'s sizing sweep: few enough
/// that a `u16` holds any sum, since no value adds more than 11.
const SUM_CHUNK: usize = 1 << 12;

/// Encodes `values` as one column block: a varint byte length covering the
/// rest of the block, a 1-byte encoder tag, then either a plain varint
/// stream or a run-length stream — whichever is smaller for this column of
/// this segment, plain on a tie. The length prefix lets a selective
/// decoder skip a block it never subscribed to in O(1) without touching
/// its payload.
///
/// Generic over the column's integer type, so a column is encoded
/// straight from its typed store. One sweep with no branch per value sizes
/// the plain stream, counts the runs and bounds the run-length size from
/// below; only a block that bound leaves open finds its runs, eight values
/// at a time, into `runs` (working storage the caller keeps between
/// blocks), and sizes them exactly. Only the chosen encoding is written,
/// straight into `out`, a word per varint of up to eight bytes.
///
/// # Panics
///
/// Panics if `values` holds `u32::MAX` values or more.
pub fn encode_block<T: Copy + Eq + Into<u64>>(
    out: &mut Vec<u8>,
    values: &[T],
    runs: &mut Vec<u32>,
) {
    let n = values.len();
    assert!(n < u32::MAX as usize, "column block of {n} values");
    let Some(&first) = values.first() else {
        put_varint(out, 1);
        out.push(ENC_PLAIN);
        return;
    };

    // `floor` counts one byte per run length, the least one takes.
    let mut plain = value_len(first);
    let mut floor = plain + 1;
    let mut heads = 1;
    for (vs, prevs) in values[1..].chunks(SUM_CHUNK).zip(values.chunks(SUM_CHUNK)) {
        let sums = (0u16, 0u16, 0u16);
        let (p, f, h) = vs.iter().zip(prevs).fold(sums, |(p, f, h), (&v, &prev)| {
            let len = value_len(v) as u16;
            let head = u16::from(v != prev);
            (p + len, f + head * (len + 1), h + head)
        });
        plain += p as usize;
        floor += f as usize;
        heads += h as usize;
    }

    // Run-length can only win below its floor; exactly, each run length
    // takes a byte more than the floor counts per seven bits past seven.
    let mut rle = usize::MAX;
    if floor < plain {
        if runs.len() <= heads {
            runs.resize(heads + 1, 0);
        }
        find_runs(values, &mut runs[..=heads]);
        rle = floor
            + runs[..=heads]
                .windows(2)
                .map(|w| value_len(w[1] - w[0]) - 1)
                .sum::<usize>();
    }

    let body = plain.min(rle);
    put_varint(out, body as u64 + 1);
    out.push(if rle < plain { ENC_RLE } else { ENC_PLAIN });
    // Eight bytes of slack for the word stores, cut off at the end.
    let start = out.len();
    out.resize(start + body + 8, 0);
    let mut pos = start;
    if rle < plain {
        for w in runs[..=heads].windows(2) {
            pos = store_varint(out, pos, values[w[0] as usize]);
            pos = store_varint(out, pos, w[1] - w[0]);
        }
    } else {
        for &v in values {
            pos = store_varint(out, pos, v);
        }
    }
    debug_assert_eq!(pos, start + body, "a body of its sized length");
    out.truncate(start + body);
}

/// Fills `runs`, which holds one slot more than `values` has runs, with
/// the index of each run's first value, then `values.len()`. It compares
/// eight values at a time: eight that start no run cost one comparison
/// mask, and eight that do store all eight indices, advancing past the
/// run heads only, so there is no branch per value either way.
fn find_runs<T: Copy + Eq>(values: &[T], runs: &mut [u32]) {
    let (rest, prevs) = (&values[1..], &values[..values.len() - 1]);
    let (mut rest, mut prevs) = (rest.chunks_exact(8), prevs.chunks_exact(8));
    runs[0] = 0;
    let mut h = 1;
    let mut at = 1u32;
    for (vs, ps) in rest.by_ref().zip(prevs.by_ref()) {
        let mut mask = 0u32;
        for k in 0..8 {
            mask |= u32::from(vs[k] != ps[k]) << k;
        }
        if mask != 0 {
            for k in 0..8 {
                runs[h] = at + k;
                h += (mask >> k & 1) as usize;
            }
        }
        at += 8;
    }
    for ((v, p), k) in rest.remainder().iter().zip(prevs.remainder()).zip(0..) {
        runs[h] = at + k;
        h += usize::from(v != p);
    }
    runs[h] = values.len() as u32;
}

/// Decodes one block written by [`encode_block`] that must hold exactly
/// `n` values, handing `f` each run of equal values as `(value, run
/// length)`: a plain block yields runs of one, a run-length block its
/// pairs. The segment decoder fills each typed column from these runs
/// directly, converting a value once per run; an error from `f` ends the
/// decode.
///
/// # Errors
///
/// [`TraceIoError::Format`] on a zero or truncated block length, an
/// unknown encoder tag, a truncated stream, a run of zero values or of
/// more than the block still owes, or a block whose values do not consume
/// its declared byte length.
#[inline]
pub fn decode_runs(
    r: &mut ByteReader<'_>,
    n: usize,
    mut f: impl FnMut(u64, usize) -> Result<(), TraceIoError>,
) -> Result<(), TraceIoError> {
    let len = r.varint()?;
    let len = usize::try_from(len).map_err(|_| bad("block length overflows usize"))?;
    if len == 0 {
        return Err(bad("column block with zero length"));
    }
    let mut body = ByteReader::new(r.bytes(len)?);
    match body.u8()? {
        ENC_PLAIN => {
            for _ in 0..n {
                f(body.varint_fast()?, 1)?;
            }
        }
        ENC_RLE => {
            let mut left = n;
            while left > 0 {
                let v = body.varint_fast()?;
                let run = body.varint_fast()?;
                let run = usize::try_from(run).map_err(|_| bad("run length overflows usize"))?;
                if run == 0 || run > left {
                    return Err(bad(format!(
                        "run of {run} values does not fit the {left} still expected"
                    )));
                }
                f(v, run)?;
                left -= run;
            }
        }
        tag => return Err(bad(format!("unknown column encoder tag {tag}"))),
    }
    if !body.is_exhausted() {
        return Err(bad(format!(
            "column block declares {len} bytes but decoding left {}",
            body.remaining()
        )));
    }
    Ok(())
}

/// Skips one block written by [`encode_block`] without decoding its
/// payload, returning the number of payload bytes (tag included) skipped.
/// This is the selective-decode fast path: a column no registered analysis
/// subscribed to costs one varint read and a cursor bump.
///
/// # Errors
///
/// [`TraceIoError::Format`] when the declared length runs past the bytes
/// that remain.
pub fn skip_stream(r: &mut ByteReader<'_>) -> Result<usize, TraceIoError> {
    let len = r.varint()?;
    let len = usize::try_from(len).map_err(|_| bad("block length overflows usize"))?;
    if len == 0 {
        return Err(bad("column block with zero length"));
    }
    r.bytes(len)?;
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes exactly `n` values of one block, appending them to `out`.
    fn decode_stream(
        r: &mut ByteReader<'_>,
        n: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), TraceIoError> {
        decode_runs(r, n, |v, run| {
            out.extend(std::iter::repeat_n(v, run));
            Ok(())
        })
    }

    fn roundtrip<T: Copy + Eq + Into<u64>>(values: &[T]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_block(&mut buf, values, &mut Vec::new());
        let mut r = ByteReader::new(&buf);
        let mut back = Vec::new();
        decode_stream(&mut r, values.len(), &mut back).unwrap();
        assert!(r.is_exhausted(), "trailing bytes after decode");
        assert!(back.iter().copied().eq(values.iter().map(|&v| v.into())));
        buf
    }

    /// Encoder tag of a block (the byte after the length prefix).
    fn block_tag(buf: &[u8]) -> u8 {
        let mut r = ByteReader::new(buf);
        r.varint().unwrap();
        r.u8().unwrap()
    }

    #[test]
    fn varint_roundtrips_boundary_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn zigzag_roundtrips_and_keeps_small_magnitudes_small() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-1) < 8 && zigzag(1) < 8);
    }

    #[test]
    fn constant_runs_choose_rle() {
        let buf = roundtrip(&[7u64; 1000]);
        assert_eq!(block_tag(&buf), ENC_RLE);
        assert!(buf.len() < 8, "1000 constants in {} bytes", buf.len());
        assert_eq!(roundtrip(&[7u8; 1000]), buf, "the same block from u8");
    }

    #[test]
    fn incompressible_streams_choose_plain() {
        let values: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        let buf = roundtrip(&values);
        assert_eq!(block_tag(&buf), ENC_PLAIN);
    }

    #[test]
    fn empty_stream_roundtrips() {
        roundtrip::<u64>(&[]);
        roundtrip::<u16>(&[]);
    }

    #[test]
    fn skip_stream_advances_exactly_one_block() {
        let mut buf = Vec::new();
        let runs = &mut Vec::new();
        encode_block(&mut buf, &[3u16; 500], runs);
        encode_block(&mut buf, &[1u64, 2, 3, 4], runs);
        let mut r = ByteReader::new(&buf);
        let skipped = skip_stream(&mut r).unwrap();
        assert!(skipped > 0);
        let mut back = Vec::new();
        decode_stream(&mut r, 4, &mut back).unwrap();
        assert_eq!(back, vec![1, 2, 3, 4]);
        assert!(r.is_exhausted());
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, body.len() as u64);
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn decode_rejects_overlong_runs_and_truncation() {
        // RLE claiming a run of 5 where only 3 values are expected.
        let mut body = vec![ENC_RLE];
        put_varint(&mut body, 9);
        put_varint(&mut body, 5);
        let buf = framed(&body);
        let mut out = Vec::new();
        let err = decode_stream(&mut ByteReader::new(&buf), 3, &mut out).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");

        // Plain stream that ends before all values arrive.
        let mut body = vec![ENC_PLAIN];
        put_varint(&mut body, 1);
        let buf = framed(&body);
        let mut out = Vec::new();
        let err = decode_stream(&mut ByteReader::new(&buf), 2, &mut out).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }

    #[test]
    fn decode_rejects_wrong_declared_length() {
        // A valid 1-value plain block whose frame claims one extra byte.
        let mut body = vec![ENC_PLAIN];
        put_varint(&mut body, 1);
        body.push(0x55); // stray byte inside the declared frame
        let buf = framed(&body);
        let mut out = Vec::new();
        let err = decode_stream(&mut ByteReader::new(&buf), 1, &mut out).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");

        // A zero-length frame is never valid (the tag byte is mandatory).
        let buf = framed(&[]);
        let err = skip_stream(&mut ByteReader::new(&buf)).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }

    /// The encoder before it sized both encodings up front: it built
    /// each in a buffer of its own and copied the smaller one out. Kept
    /// verbatim as the byte-identity reference.
    fn encode_stream_buffered(out: &mut Vec<u8>, values: &[u64]) {
        let mut plain = Vec::new();
        for &v in values {
            put_varint(&mut plain, v);
        }
        let mut rle = Vec::new();
        let mut i = 0;
        while i < values.len() {
            let v = values[i];
            let mut j = i + 1;
            while j < values.len() && values[j] == v {
                j += 1;
            }
            put_varint(&mut rle, v);
            put_varint(&mut rle, (j - i) as u64);
            i = j;
        }
        let body = if rle.len() < plain.len() {
            &rle
        } else {
            &plain
        };
        put_varint(out, (body.len() + 1) as u64);
        out.push(if rle.len() < plain.len() {
            ENC_RLE
        } else {
            ENC_PLAIN
        });
        out.extend_from_slice(body);
    }

    /// `values` encoded by the typed block encoder, with `runs` as its
    /// working storage, against the buffered reference over the same
    /// values widened to `u64`.
    fn assert_encodes_like_buffered<T: Copy + Eq + Into<u64> + std::fmt::Debug>(
        values: &[T],
        runs: &mut Vec<u32>,
    ) {
        let wide: Vec<u64> = values.iter().map(|&v| v.into()).collect();
        let (mut got, mut want) = (vec![0xaa], vec![0xaa]);
        encode_block(&mut got, values, runs);
        encode_stream_buffered(&mut want, &wide);
        assert_eq!(got, want, "encoding of {values:?}");
    }

    #[test]
    fn typed_encoder_matches_the_buffered_one_byte_for_byte() {
        let runs = &mut Vec::new();
        assert_encodes_like_buffered::<u64>(&[], runs);
        assert_encodes_like_buffered(&[7u64; 1000], runs);
        assert_encodes_like_buffered(&[u64::MAX; 3], runs);
        // Ties go to plain: `[5, 5]` is two bytes either way.
        assert_encodes_like_buffered(&[5u8, 5], runs);
        assert_eq!(block_tag(&roundtrip(&[5u64, 5])), ENC_PLAIN);
        assert_encodes_like_buffered(&[200u16, 200, 1], runs);
        // Every varint width, 1 to 10 bytes, on both sides of each
        // boundary: the word stores up to 8 bytes, the byte loop past.
        let mut edges = vec![0u64, u64::MAX, 1 << 63];
        for k in 1..10 {
            edges.extend([(1u64 << (7 * k)) - 1, 1u64 << (7 * k)]);
        }
        assert_encodes_like_buffered(&edges, runs);
        let pairs: Vec<u64> = edges.iter().flat_map(|&v| [v, v]).collect();
        assert_encodes_like_buffered(&pairs, runs);
        for &v in &edges {
            assert_encodes_like_buffered(&[v], runs);
        }
    }

    proptest::proptest! {
        #[test]
        fn typed_encoder_matches_on_random_streams(
            blocks in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::prop_oneof![0u64..4, 0u64..300, proptest::prelude::any::<u64>()],
                    0..200,
                ),
                1..4,
            )
        ) {
            // One run buffer for every block and width, so a run head left
            // from a longer block shows.
            let runs = &mut Vec::new();
            for values in &blocks {
                assert_encodes_like_buffered(values, runs);
                let narrow: Vec<u32> = values.iter().map(|&v| v as u32).collect();
                assert_encodes_like_buffered(&narrow, runs);
                let narrow: Vec<u16> = values.iter().map(|&v| v as u16).collect();
                assert_encodes_like_buffered(&narrow, runs);
                let narrow: Vec<u8> = values.iter().map(|&v| v as u8).collect();
                assert_encodes_like_buffered(&narrow, runs);
            }
        }
    }

    #[test]
    fn reader_rejects_varint_overflow() {
        let buf = [0xffu8; 11];
        let err = ByteReader::new(&buf).varint().unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }
}
