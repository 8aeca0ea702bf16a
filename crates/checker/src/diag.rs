//! Typed diagnostics with stable codes.
//!
//! Every finding a lint produces is a [`Diag`]: a stable [`Code`] (so
//! tests and tooling can match on `WP0001` instead of message text), an
//! optional trace position, and a human-readable message. Diagnostics are
//! sorted deterministically — by position, then code, then message — so a
//! checker run over the same trace renders byte-identical output no
//! matter how the lints interleaved their reports.
//!
//! # The full stable code table
//!
//! `WP00xx` codes are *dynamic* findings anchored to trace positions;
//! `WP01xx` codes are *static* predictions from `wasteprof-staticjs`
//! anchored to statement ids (their `pos` carries the statement id of the
//! numbered script, not a trace position).
//!
//! | Code     | Family    | Meaning |
//! |----------|-----------|---------|
//! | `WP0001` | checker   | data race: conflicting accesses, no happens-before edge |
//! | `WP0002` | checker   | call/return nesting broken |
//! | `WP0003` | checker   | read of never-written producer-region bytes |
//! | `WP0004` | checker   | one memory operand spans two region classes |
//! | `WP0005` | checker   | instruction attributed to an unregistered thread id |
//! | `WP0006` | checker   | marker instruction / marker record pairing broken |
//! | `WP0007` | checker   | call target unknown or never executes |
//! | `WP0008` | certifier | slice member whose writes reach no slice consumer |
//! | `WP0009` | certifier | structurally impossible witness edge |
//! | `WP0010` | certifier | complement-safety violation: non-slice write reaches a consumer |
//! | `WP0011` | certifier | witness bookkeeping mismatch |
//! | `WP0012` | checker   | dead producer write: overwritten before any read |
//! | `WP0101` | staticjs  | possibly-undefined variable use (uninitialized def reaches a read) |
//! | `WP0102` | staticjs  | statically dead store: no path reads the value before overwrite |
//! | `WP0103` | staticjs  | statically unreachable code (CFG- or call-graph-unreachable) |
//! | `WP0104` | staticjs  | statically wasted: outside the static slice from effect sinks |
//! | `WP0105` | staticjs  | useless call: only effect-free callees, every result discarded |
//! | `WP0106` | staticjs  | uncallable function: unreachable from entry points and callbacks |

use std::fmt;

use wasteprof_trace::TracePos;

/// Stable diagnostic codes, one per lint.
///
/// The numeric suffix is part of the public contract: fault-injection
/// tests assert that a given corruption fires exactly its code, and
/// `trace_tool check --json` emits the code string for machine consumers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Code {
    /// `WP0001` — conflicting accesses to the same bytes with no
    /// happens-before edge between them (data race).
    Race,
    /// `WP0002` — call/return nesting broken: a return with no matching
    /// call, or a non-root frame still open at the end of the trace.
    UnmatchedCallRet,
    /// `WP0003` — a read of producer-region bytes (IPC channel, network
    /// input, pixel tiles, framebuffer) that were never written.
    UninitRead,
    /// `WP0004` — one memory operand spanning two region classes, which
    /// breaks every pass that routes an address by `addr >> REGION_SHIFT`.
    RegionOverlap,
    /// `WP0005` — an instruction attributed to a thread id the thread
    /// table never registered.
    InvalidTid,
    /// `WP0006` — marker instruction / marker record pairing broken: a
    /// `Marker` with no record, or a record not pointing at a `Marker`.
    UnpairedMarker,
    /// `WP0007` — a call target outside the symbol table, or one that
    /// never executes a single instruction anywhere in the trace.
    UndefinedCallee,
    /// `WP0008` — a slice member whose writes reach no slice consumer: it
    /// carries no witness row, and no checked read of a slice member or
    /// criterion has it as last writer.
    CertifyUnconsumed,
    /// `WP0009` — a witness edge that is structurally impossible: a
    /// control edge absent from the recovered CDG, a call edge that does
    /// not match the dynamic call stack, a criterion edge with no
    /// `include_instr` criterion, or a consumer outside the slice.
    CertifyBadEdge,
    /// `WP0010` — complement-safety violation: an instruction *outside*
    /// the slice is the last writer of bytes or a register that a slice
    /// member (or criterion) consumes.
    CertifyLiveLeak,
    /// `WP0011` — witness bookkeeping mismatch: missing witness table, a
    /// slice longer than its trace, a row outside the considered prefix,
    /// a row whose member is not in the slice bitmap, or two rows for one
    /// member.
    CertifyMismatch,
    /// `WP0012` — dead producer write: bytes in a single-producer region
    /// (IPC channel, network input, framebuffer) overwritten before any
    /// read — the simplest unnecessary computation the paper motivates.
    DeadWrite,
    /// `WP0101` — a use of a declared variable that an uninitialized
    /// definition may reach (static reaching-definitions analysis).
    MaybeUndef,
    /// `WP0102` — statically dead store: on every path the stored value
    /// is overwritten (or the scope exits) before any read. Soundness
    /// contract: the dynamic witness must never observe a read-back.
    StaticDeadStore,
    /// `WP0103` — statically unreachable statement: in a CFG-unreachable
    /// block, or in a function the call graph can never reach. Soundness
    /// contract: the dynamic witness must never count an execution.
    StaticUnreachable,
    /// `WP0104` — statically wasted statement: reachable, but outside the
    /// static backward slice from every side-effect sink (DOM writes,
    /// timers, network/beacons) — predicted to never feed pixels.
    StaticWasted,
    /// `WP0105` — useless call: an expression statement whose only user
    /// calls dispatch to transitively effect-free functions and whose
    /// results are all discarded. Soundness contract: the work must stay
    /// outside the dynamic pixel slice.
    StaticUselessCall,
    /// `WP0106` — uncallable function: no path from a unit's top level or
    /// any host-registered callback reaches the function through the call
    /// graph. Soundness contract: the witness must never count a call.
    StaticUncallable,
}

impl Code {
    /// All codes, in numeric order.
    pub const ALL: [Code; 18] = [
        Code::Race,
        Code::UnmatchedCallRet,
        Code::UninitRead,
        Code::RegionOverlap,
        Code::InvalidTid,
        Code::UnpairedMarker,
        Code::UndefinedCallee,
        Code::CertifyUnconsumed,
        Code::CertifyBadEdge,
        Code::CertifyLiveLeak,
        Code::CertifyMismatch,
        Code::DeadWrite,
        Code::MaybeUndef,
        Code::StaticDeadStore,
        Code::StaticUnreachable,
        Code::StaticWasted,
        Code::StaticUselessCall,
        Code::StaticUncallable,
    ];

    /// The stable code string, e.g. `"WP0001"`.
    pub const fn as_str(self) -> &'static str {
        match self {
            Code::Race => "WP0001",
            Code::UnmatchedCallRet => "WP0002",
            Code::UninitRead => "WP0003",
            Code::RegionOverlap => "WP0004",
            Code::InvalidTid => "WP0005",
            Code::UnpairedMarker => "WP0006",
            Code::UndefinedCallee => "WP0007",
            Code::CertifyUnconsumed => "WP0008",
            Code::CertifyBadEdge => "WP0009",
            Code::CertifyLiveLeak => "WP0010",
            Code::CertifyMismatch => "WP0011",
            Code::DeadWrite => "WP0012",
            Code::MaybeUndef => "WP0101",
            Code::StaticDeadStore => "WP0102",
            Code::StaticUnreachable => "WP0103",
            Code::StaticWasted => "WP0104",
            Code::StaticUselessCall => "WP0105",
            Code::StaticUncallable => "WP0106",
        }
    }

    /// Short human title used in rendered output.
    pub const fn title(self) -> &'static str {
        match self {
            Code::Race => "data race",
            Code::UnmatchedCallRet => "unmatched call/return",
            Code::UninitRead => "read of unwritten producer bytes",
            Code::RegionOverlap => "operand spans region classes",
            Code::InvalidTid => "invalid thread id",
            Code::UnpairedMarker => "unpaired pixel marker",
            Code::UndefinedCallee => "undefined call target",
            Code::CertifyUnconsumed => "unconsumed slice member",
            Code::CertifyBadEdge => "impossible witness edge",
            Code::CertifyLiveLeak => "non-slice write reaches a consumer",
            Code::CertifyMismatch => "witness bookkeeping mismatch",
            Code::DeadWrite => "dead producer write",
            Code::MaybeUndef => "possibly-undefined variable use",
            Code::StaticDeadStore => "statically dead store",
            Code::StaticUnreachable => "statically unreachable code",
            Code::StaticWasted => "statement outside static slice",
            Code::StaticUselessCall => "useless effect-free call",
            Code::StaticUncallable => "uncallable function",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One checker finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diag {
    /// The stable code of the lint that fired.
    pub code: Code,
    /// The trace position the finding anchors to; `None` for end-of-trace
    /// findings (e.g. a frame still open when the trace stops).
    pub pos: Option<TracePos>,
    /// Human-readable description, including resolved symbol names where
    /// the lint has them.
    pub message: String,
}

impl Diag {
    /// A finding anchored at instruction index `idx`.
    pub fn at(code: Code, idx: usize, message: String) -> Diag {
        Diag {
            code,
            pos: Some(TracePos(idx as u64)),
            message,
        }
    }

    /// An end-of-trace finding with no single anchoring instruction.
    pub fn at_end(code: Code, message: String) -> Diag {
        Diag {
            code,
            pos: None,
            message,
        }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(
                f,
                "{} {}: {} ({})",
                self.code,
                p,
                self.message,
                self.code.title()
            ),
            None => write!(
                f,
                "{} @end: {} ({})",
                self.code,
                self.message,
                self.code.title()
            ),
        }
    }
}

/// Sorts diagnostics into the canonical deterministic order: by trace
/// position (end-of-trace findings last), then code, then message.
pub fn sort_diags(diags: &mut [Diag]) {
    diags.sort_by(|a, b| {
        let ka = (a.pos.map_or(u64::MAX, |p| p.0), a.code, &a.message);
        let kb = (b.pos.map_or(u64::MAX, |p| p.0), b.code, &b.message);
        ka.cmp(&kb)
    });
}

/// Renders diagnostics as plain text, one per line.
pub fn render_text(diags: &[Diag]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a JSON array (`trace_tool check --json`).
pub fn render_json(diags: &[Diag]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        let pos = match d.pos {
            Some(p) => p.0.to_string(),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "  {{\"code\": \"{}\", \"title\": \"{}\", \"pos\": {}, \"message\": \"{}\"}}{}\n",
            d.code,
            escape_json(d.code.title()),
            pos,
            escape_json(&d.message),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            strs,
            vec![
                "WP0001", "WP0002", "WP0003", "WP0004", "WP0005", "WP0006", "WP0007", "WP0008",
                "WP0009", "WP0010", "WP0011", "WP0012", "WP0101", "WP0102", "WP0103", "WP0104",
                "WP0105", "WP0106"
            ]
        );
        // Uniqueness of code strings, titles, and enum ordering agreeing
        // with numeric ordering (sort_diags relies on the derive).
        let mut dedup = strs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Code::ALL.len(), "code strings unique");
        let mut titles: Vec<&str> = Code::ALL.iter().map(|c| c.title()).collect();
        titles.sort_unstable();
        titles.dedup();
        assert_eq!(titles.len(), Code::ALL.len(), "titles unique");
        for pair in Code::ALL.windows(2) {
            assert!(pair[0] < pair[1], "enum order matches numeric order");
            assert!(pair[0].as_str() < pair[1].as_str());
        }
    }

    #[test]
    fn static_codes_sort_in_canonical_pos_code_message_order() {
        let mut diags = vec![
            Diag::at(Code::StaticWasted, 5, "w".into()),
            Diag::at(Code::StaticDeadStore, 5, "d".into()),
            Diag::at(Code::MaybeUndef, 5, "u".into()),
            Diag::at(Code::StaticUnreachable, 2, "x".into()),
            Diag::at(Code::DeadWrite, 5, "dynamic first".into()),
            Diag::at(Code::StaticDeadStore, 5, "a".into()),
        ];
        sort_diags(&mut diags);
        let order: Vec<(u64, &str, &str)> = diags
            .iter()
            .map(|d| (d.pos.unwrap().0, d.code.as_str(), d.message.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![
                (2, "WP0103", "x"),
                (5, "WP0012", "dynamic first"),
                (5, "WP0101", "u"),
                (5, "WP0102", "a"),
                (5, "WP0102", "d"),
                (5, "WP0104", "w"),
            ],
            "canonical (pos, code, message) order"
        );
    }

    #[test]
    fn sort_is_position_then_code_then_message() {
        let mut diags = vec![
            Diag::at_end(Code::UnmatchedCallRet, "frame open".into()),
            Diag::at(Code::UnpairedMarker, 7, "b".into()),
            Diag::at(Code::Race, 7, "a".into()),
            Diag::at(Code::Race, 3, "z".into()),
        ];
        sort_diags(&mut diags);
        assert_eq!(diags[0].pos, Some(wasteprof_trace::TracePos(3)));
        assert_eq!(diags[1].code, Code::Race);
        assert_eq!(diags[2].code, Code::UnpairedMarker);
        assert_eq!(diags[3].pos, None, "end-of-trace findings sort last");
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let diags = vec![Diag::at(Code::Race, 0, "say \"hi\"\nagain".into())];
        let json = render_json(&diags);
        assert!(json.contains("say \\\"hi\\\"\\nagain"), "{json}");
        assert!(json.contains("\"pos\": 0"));
    }

    #[test]
    fn text_render_carries_code_position_and_title() {
        let d = Diag::at(Code::UninitRead, 42, "read of nothing".into());
        let s = d.to_string();
        assert!(s.contains("WP0003"), "{s}");
        assert!(s.contains("@42"), "{s}");
        assert!(s.contains("read of nothing"), "{s}");
    }
}
