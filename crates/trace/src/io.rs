//! The error type and wire helpers of the trace file format.
//!
//! The paper stores collected traces in stable storage and re-reads them for
//! different slicing criteria (§III-A). The on-disk format is `WPTRACE2`
//! ([`crate::write_trace2`] / [`crate::TraceReader`]); this module holds the
//! pieces its writer and reader share: [`TraceIoError`], checked count
//! narrowing, the symbol-name codec, and the thread-kind tags.

use std::error::Error;
use std::fmt;
use std::io::{self, Write};

use crate::thread::ThreadKind;

/// Errors produced while reading or writing a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a wasteprof trace or is structurally corrupt.
    Format(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Format(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Format(_) => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

pub(crate) fn bad(msg: impl Into<String>) -> TraceIoError {
    TraceIoError::Format(msg.into())
}

/// Longest symbol name the format accepts, writer- and reader-side.
pub(crate) const MAX_NAME_LEN: usize = 1 << 20;

/// Checked narrowing for header count fields: a count that does not fit
/// its wire field is a loud [`TraceIoError::Format`], never a silent
/// truncation.
pub(crate) fn count_u32(n: usize, what: &str) -> Result<u32, TraceIoError> {
    u32::try_from(n).map_err(|_| bad(format!("{what} count {n} exceeds the u32 wire field")))
}

/// Writes a length-prefixed symbol name, refusing one the reader would
/// reject as too long.
pub(crate) fn w_str(w: &mut impl Write, s: &str) -> Result<(), TraceIoError> {
    if s.len() > MAX_NAME_LEN {
        return Err(bad(format!("symbol name of {} bytes too long", s.len())));
    }
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

pub(crate) fn thread_kind_tag(kind: ThreadKind) -> (u8, u8) {
    match kind {
        ThreadKind::Main => (0, 0),
        ThreadKind::Compositor => (1, 0),
        ThreadKind::Raster(i) => (2, i),
        ThreadKind::Io => (3, 0),
        ThreadKind::Other => (4, 0),
    }
}

pub(crate) fn thread_kind_from(tag: u8, payload: u8) -> Result<ThreadKind, TraceIoError> {
    Ok(match tag {
        0 => ThreadKind::Main,
        1 => ThreadKind::Compositor,
        2 => ThreadKind::Raster(payload),
        3 => ThreadKind::Io,
        4 => ThreadKind::Other,
        _ => return Err(bad(format!("unknown thread kind tag {tag}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = bad("boom");
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn count_fields_never_truncate() {
        assert_eq!(count_u32(7, "x").unwrap(), 7);
        let err = count_u32(u32::MAX as usize + 1, "function").unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }

    #[test]
    fn writer_rejects_oversized_symbol_name() {
        let name = "x".repeat(MAX_NAME_LEN + 1);
        let mut buf = Vec::new();
        let err = w_str(&mut buf, &name).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err:?}");
    }
}
