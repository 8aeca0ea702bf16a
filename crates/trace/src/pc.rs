//! Static program counters.
//!
//! Real binary instrumentation sees the same machine address every time a
//! static instruction executes; the slicer's forward pass relies on that to
//! fold the dynamic trace into per-function CFGs. Our engine code is Rust,
//! so we synthesize stable PCs from *source locations* with the [`site!`]
//! macro: every emission site in the engine gets a PC that is identical
//! across executions and unique within its function.

use std::fmt;

/// A static program counter: the identity of an instruction *site*.
///
/// PCs are only meaningful within one function ([`crate::FuncId`]); the pair
/// `(FuncId, Pc)` is a global static location. Helper routines that expand
/// one engine-level operation into several machine-like instructions derive
/// sub-PCs with [`Pc::step`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pc(pub u32);

impl Pc {
    /// Synthetic PC of a function's virtual entry node.
    pub const ENTRY: Pc = Pc(0);

    /// Hashes a source location string into a PC (FNV-1a, 32-bit).
    ///
    /// Only the workspace-relative part of the location is hashed: from its
    /// last `crates/` path component on, or all of it if it has none.
    /// `file!()` is workspace-relative in a workspace member but absolute
    /// in a path dependency built from another workspace (a benchmark or
    /// downstream crate), so both spellings give the same PC wherever the
    /// checkout lives.
    ///
    /// Used by the [`crate::site!`] macro at compile time; stable across runs.
    pub const fn from_location(loc: &str) -> Pc {
        let bytes = loc.as_bytes();
        let mut hash: u32 = 0x811c_9dc5;
        let mut i = workspace_relative_start(bytes);
        while i < bytes.len() {
            hash ^= bytes[i] as u32;
            hash = hash.wrapping_mul(0x0100_0193);
            i += 1;
        }
        // Reserve 0 for the virtual entry node.
        if hash == 0 {
            hash = 1;
        }
        Pc(hash)
    }

    /// Derives the `i`-th sub-PC of this site.
    ///
    /// Helpers that emit several instructions from one source site use this
    /// to give each emitted instruction a distinct, stable PC.
    pub const fn step(self, i: u32) -> Pc {
        // Weyl-sequence style mix keeps sub-PCs spread out and stable.
        let v = self.0.wrapping_add(i.wrapping_mul(0x9e37_79b9)) | 1;
        Pc(v)
    }
}

/// Where the workspace-relative part of a source path starts: at its last
/// `crates/` component (one that opens the path or follows a `/`), or 0.
const fn workspace_relative_start(path: &[u8]) -> usize {
    const DIR: &[u8] = b"crates/";
    let mut start = 0;
    let mut i = 0;
    while i + DIR.len() <= path.len() {
        let mut j = 0;
        while j < DIR.len() && path[i + j] == DIR[j] {
            j += 1;
        }
        if j == DIR.len() && (i == 0 || path[i - 1] == b'/') {
            start = i;
        }
        i += 1;
    }
    start
}

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:08x}", self.0)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

/// Produces a stable [`Pc`] for the current source location.
///
/// # Examples
///
/// ```
/// use wasteprof_trace::site;
///
/// let a = site!();
/// let b = site!();
/// assert_ne!(a, b); // different columns/lines -> different PCs
/// ```
#[macro_export]
macro_rules! site {
    () => {{
        const PC: $crate::Pc =
            $crate::Pc::from_location(concat!(file!(), ":", line!(), ":", column!()));
        PC
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_hash_is_stable() {
        let a = Pc::from_location("x.rs:10:5");
        let b = Pc::from_location("x.rs:10:5");
        assert_eq!(a, b);
    }

    #[test]
    fn different_locations_differ() {
        let a = Pc::from_location("x.rs:10:5");
        let b = Pc::from_location("x.rs:11:5");
        assert_ne!(a, b);
    }

    #[test]
    fn absolute_and_workspace_relative_spellings_agree() {
        let rel = Pc::from_location("crates/trace/src/pc.rs:10:5");
        for abs in [
            "/home/dev/wasteprof/crates/trace/src/pc.rs:10:5",
            "/srv/crates/checkout/crates/trace/src/pc.rs:10:5",
        ] {
            assert_eq!(Pc::from_location(abs), rel, "{abs}");
        }
        assert_ne!(Pc::from_location("/x/crates/slicer/src/pc.rs:10:5"), rel);
        // Only a whole path component counts.
        assert_ne!(Pc::from_location("/x/subcrates/trace/src/pc.rs:10:5"), rel);
    }

    #[test]
    fn never_zero() {
        // 0 is reserved for the entry node; from_location remaps collisions.
        assert_ne!(Pc::from_location("").0, 0);
    }

    #[test]
    fn steps_are_distinct_and_stable() {
        let base = Pc::from_location("y.rs:1:1");
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            assert!(seen.insert(base.step(i)), "collision at step {i}");
            assert_eq!(base.step(i), base.step(i));
        }
    }

    #[test]
    fn site_macro_same_line_same_column_identical() {
        fn one() -> Pc {
            site!()
        }
        assert_eq!(one(), one());
    }
}
