//! In-memory span recorder for the traced run.
//!
//! Spans are opened only around calls into a layer's public functions,
//! never per instruction, so a span costs two clock reads and one push.
//! With recording off, [`Spans::time`] is one branch around the call.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up repetition `n`.
    Setup(u32),
    /// Measured pass `n`.
    Pass(u32),
}

#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `slicer.slice_pixel`.
    pub name: &'static str,
    pub phase: Phase,
    /// Index of the enclosing span in [`Spans::spans`].
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Trace instructions the call processed (0 when not meaningful).
    pub instrs: u64,
}

impl Span {
    /// The module the span's call belongs to: the name up to its last dot.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }

    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    phase: Phase,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            phase: Phase::Setup(0),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags every span opened from now on with `phase`.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`. Spans opened inside `f` become
    /// its children. After the span closes, `instrs` reads from the result
    /// how many trace instructions the call processed.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        instrs: impl FnOnce(&T) -> u64,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            phase: self.phase,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            instrs: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        self.spans[idx].instrs = instrs(&out);
        out
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (lo, hi) in kids {
                    let (lo, hi) = (lo.max(reach), hi.min(s.end));
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration() - covered
            })
            .collect()
    }

    /// One JSON object per line: name, layer, phase, pass, parent, start
    /// and end in ns since the run began, instructions, self time in ns.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let (phase, n) = match s.phase {
                Phase::Setup(n) => ("setup", n),
                Phase::Pass(n) => ("pass", n),
            };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"phase\": \"{phase}\", \
                 \"pass\": {n}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"instrs\": {}, \"self_ns\": {}}}",
                s.name,
                s.layer(),
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.instrs,
                own.as_nanos()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            phase: Phase::Pass(0),
            parent,
            start: ms(start),
            end: ms(end),
            instrs: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut spans = Spans::new(true);
        spans.spans = vec![
            span("bench.pass", None, 0, 100),
            span("slicer.forward", Some(0), 10, 30),
            span("slicer.slice", Some(0), 40, 70),
            span("slicer.witness", Some(2), 50, 60),
        ];
        assert_eq!(spans.self_times(), vec![ms(50), ms(20), ms(20), ms(10)]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut spans = Spans::new(true);
        spans.spans = vec![
            span("bench.pass", None, 0, 100),
            span("a.x", Some(0), 10, 50),
            span("a.y", Some(0), 30, 60),
            span("a.z", Some(0), 90, 120),
        ];
        assert_eq!(spans.self_times()[0], ms(100 - 50 - 10));
    }

    #[test]
    fn recorded_spans_nest_and_disabled_spans_vanish() {
        let mut spans = Spans::new(true);
        spans.set_phase(Phase::Pass(3));
        let v = spans.time(
            "bench.pass",
            |_| 0,
            |s| s.time("slicer.slice", |v| *v + 1, |_| 41u64),
        );
        assert_eq!(v, 41);
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[1].parent, Some(0));
        assert_eq!(recorded[1].instrs, 42);
        assert_eq!(recorded[1].layer(), "slicer");
        assert_eq!(recorded[1].phase, Phase::Pass(3));
        assert!(recorded[0].start <= recorded[1].start && recorded[1].end <= recorded[0].end);
        let own = spans.self_times();
        assert_eq!(own[0], recorded[0].duration() - recorded[1].duration());

        let mut off = Spans::new(false);
        off.time("bench.pass", |_| 0, |_| ());
        assert!(off.spans().is_empty());
    }
}
