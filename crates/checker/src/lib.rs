#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Streaming trace verifier: a happens-before race detector plus a
//! battery of well-formedness lints, all sharing one sweep over the
//! packed trace columns.
//!
//! The paper's shared live-memory model (PAPER.md §III-B) is only sound
//! when cross-thread accesses to the same bytes are ordered by
//! happens-before, and every downstream pass (CFG build, liveness,
//! Table 2 classification) assumes traces are structurally well-formed —
//! balanced call/ret nesting, in-table thread ids, paired pixel markers,
//! operands confined to one region class. This crate checks all of that
//! directly instead of assuming it:
//!
//! - [`verify`] runs the full default battery over a trace and returns
//!   typed [`Diag`]s with stable `WP0001…WP0007` codes;
//! - [`Registry`] / [`Lint`] let callers compose their own battery — all
//!   registered lints run behind one shared cursor, so N lints cost
//!   roughly one pass;
//! - [`RaceLint`] is the FastTrack-style vector-clock detector, deriving
//!   happens-before edges from lock frames, channel syscalls, and thread
//!   spawn hand-offs already present in the trace;
//! - [`TraceMutator`] injects single surgical faults into known-good
//!   traces so differential tests can prove each lint catches exactly the
//!   invariant it owns;
//! - [`certify()`] independently re-checks a backward slice in one
//!   forward sweep over the columns: every member is consumed by a later
//!   member or criterion (a data edge found in the sweep's own last-writer
//!   shadows, or a structural witness row that is a real CDG or
//!   call-stack edge), and no non-slice instruction feeds a value into
//!   the slice (`WP0008…WP0011`); [`CertifyAnalysis`] is that sweep as
//!   one fused analysis, certifying several slices of one trace in a
//!   single shared pass next to whatever else the driver runs;
//! - [`dead_writes`] runs the `WP0012` dead-producer-write lint, the
//!   simplest waste category the paper motivates.

pub mod certify;
pub mod diag;
pub mod lint;
pub mod lints;
mod mem_shadow;
pub mod mutate;
pub mod race;

pub use certify::{certify, certify_streamed, CertifyAnalysis};
pub use diag::{render_json, render_text, sort_diags, Code, Diag};
pub use lint::{Ctx, Lint, LintBattery, Registry};
pub use lints::{
    CallRetLint, DeadWriteLint, InvalidTidLint, MarkerPairingLint, RegionOverlapLint,
    UndefinedCalleeLint, UninitReadLint, PRODUCER_REGIONS,
};
pub use mutate::{Mutation, SliceMutation, TraceMutator};
pub use race::{RaceLint, LOCK_SYMBOL};

use wasteprof_trace::{ColumnSource, Trace};

/// Runs the default lint battery (race detector + six well-formedness
/// lints) over `trace`, returning diagnostics in canonical sorted order.
/// An empty result means the trace is well-formed and race-free under
/// the checker's happens-before model.
pub fn verify(trace: &Trace) -> Vec<Diag> {
    let Ok(diags) = verify_streamed(&mut { trace });
    diags
}

/// Runs only the `WP0012` dead-write lint over `trace`: writes to
/// single-producer regions (IPC channel, network input, framebuffer)
/// whose bytes are overwritten before any read. Kept out of [`verify`]'s
/// battery because dead writes are a waste *metric*, not a malformation —
/// well-formed sessions legitimately contain them.
pub fn dead_writes(trace: &Trace) -> Vec<Diag> {
    let Ok(diags) = dead_writes_streamed(&mut { trace });
    diags
}

/// [`verify`] over any [`ColumnSource`]; a `WPTRACE2` reader holds only
/// its bounded chunk window in memory.
///
/// # Errors
///
/// Any read or decode error of the source.
pub fn verify_streamed<S: ColumnSource>(src: &mut S) -> Result<Vec<Diag>, S::Error> {
    Registry::with_default_lints().run_streamed(src)
}

/// [`dead_writes`] over any [`ColumnSource`].
///
/// # Errors
///
/// Any read or decode error of the source.
pub fn dead_writes_streamed<S: ColumnSource>(src: &mut S) -> Result<Vec<Diag>, S::Error> {
    let mut r = Registry::new();
    r.register(Box::new(DeadWriteLint::default()));
    r.run_streamed(src)
}
