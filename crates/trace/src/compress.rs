//! Per-column compression primitives for the `WPTRACE2` chunked format.
//!
//! Everything here operates on streams of `u64` values; the segment codec
//! (`segment.rs`) chooses a per-column *pre-transform* (zigzag delta for
//! monotone-ish columns like pcs and operand start addresses, dictionary
//! indices for funcs, raw values otherwise) and then encodes the
//! transformed stream through [`encode_stream`], which emits the smaller
//! of two wire encodings per column:
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

/// Bytes [`put_varint`] spends on `v`.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

// ----- dual-encoding u64 stream blocks ----------------------------------

/// Wire tag for a plain varint stream.
const ENC_PLAIN: u8 = 0;
/// Wire tag for a run-length (`value`,`runlen`) varint-pair stream.
const ENC_RLE: u8 = 1;

/// Encodes `values` as one column block: a varint byte length covering the
/// rest of the block, a 1-byte encoder tag, then either a plain varint
/// stream or a run-length stream — whichever is smaller for this column of
/// this segment, plain on a tie. The length prefix lets a selective
/// decoder skip a block it never subscribed to in O(1) without touching
/// its payload. Both encodings are sized first, so only the chosen one is
/// written, straight into `out`.
pub fn encode_stream(out: &mut Vec<u8>, values: &[u64]) {
    let runs = || {
        values
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len()))
    };
    let plain: usize = values.iter().map(|&v| varint_len(v)).sum();
    let rle: usize = runs()
        .map(|(v, run)| varint_len(v) + varint_len(run as u64))
        .sum();
    put_varint(out, (plain.min(rle) + 1) as u64);
    if rle < plain {
        out.push(ENC_RLE);
        for (v, run) in runs() {
            put_varint(out, v);
            put_varint(out, run as u64);
        }
    } else {
        out.push(ENC_PLAIN);
        for &v in values {
            put_varint(out, v);
        }
    }
}

/// Decodes one block written by [`encode_stream`] that must hold exactly
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

/// Skips one block written by [`encode_stream`] without decoding its
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

    fn roundtrip(values: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_stream(&mut buf, values);
        let mut r = ByteReader::new(&buf);
        let mut back = Vec::new();
        decode_stream(&mut r, values.len(), &mut back).unwrap();
        assert!(r.is_exhausted(), "trailing bytes after decode");
        assert_eq!(back, values);
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
    }

    #[test]
    fn incompressible_streams_choose_plain() {
        let values: Vec<u64> = (0..256u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        let buf = roundtrip(&values);
        assert_eq!(block_tag(&buf), ENC_PLAIN);
    }

    #[test]
    fn empty_stream_roundtrips() {
        roundtrip(&[]);
    }

    #[test]
    fn skip_stream_advances_exactly_one_block() {
        let mut buf = Vec::new();
        encode_stream(&mut buf, &[3u64; 500]);
        encode_stream(&mut buf, &[1, 2, 3, 4]);
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

    fn assert_encodes_like_buffered(values: &[u64]) {
        let (mut got, mut want) = (vec![0xaa], vec![0xaa]);
        encode_stream(&mut got, values);
        encode_stream_buffered(&mut want, values);
        assert_eq!(got, want, "encoding of {values:?}");
    }

    #[test]
    fn sized_encoder_matches_the_buffered_one_byte_for_byte() {
        assert_encodes_like_buffered(&[]);
        assert_encodes_like_buffered(&[7; 1000]);
        assert_encodes_like_buffered(&[u64::MAX; 3]);
        // Ties go to plain: `[5, 5]` is two bytes either way.
        assert_encodes_like_buffered(&[5, 5]);
        assert_eq!(block_tag(&roundtrip(&[5, 5])), ENC_PLAIN);
        assert_encodes_like_buffered(&[200, 200, 1]);
    }

    proptest::proptest! {
        #[test]
        fn sized_encoder_matches_on_random_streams(
            values in proptest::collection::vec(
                proptest::prop_oneof![0u64..4, 0u64..300, proptest::prelude::any::<u64>()],
                0..200,
            )
        ) {
            assert_encodes_like_buffered(&values);
        }
    }

    #[test]
    fn reader_rejects_varint_overflow() {
        let buf = [0xffu8; 11];
        let err = ByteReader::new(&buf).varint().unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }
}
