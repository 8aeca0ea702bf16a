//! The checker's one write-granular byte-interval map.
//!
//! Three consumers record facts per write operand: the certifier's
//! last-writer shadow (`MemShadow<u32>`), `WP0003`'s written-byte coverage
//! (`MemShadow<()>` per producer region) and `WP0012`'s unread producer
//! writes (`MemShadow<(usize, bool)>`); `TraceMutator`'s producer-write
//! planner uses it too. Each [`MemShadow::write`] makes its span one
//! entry, truncating whatever it overlaps, so a query sees the bytes split
//! exactly at the write boundaries that still matter. The race detector
//! keeps its own shadow (`crate::race`): it tiles at every access
//! boundary, reads included, and its messages print those tiles.

use std::collections::BTreeMap;

/// Disjoint `[start, end)` spans keyed by start, each carrying the value
/// of the write that last covered it. Spans are split on demand and never
/// merged.
pub(crate) struct MemShadow<V> {
    map: BTreeMap<u64, (u64, V)>,
}

impl<V> Default for MemShadow<V> {
    fn default() -> Self {
        MemShadow {
            map: BTreeMap::new(),
        }
    }
}

impl<V: Copy> MemShadow<V> {
    /// Records `value` over `[lo, hi)`, replacing whatever covered it.
    pub(crate) fn write(&mut self, lo: u64, hi: u64, value: V) {
        if lo >= hi {
            return;
        }
        // Fast path: operands are cell-granular and heavily rewritten, so
        // the range is usually exactly one span already — retarget it in
        // place (the race detector's shadow does the same).
        if let Some(span) = self.map.get_mut(&lo) {
            if span.0 == hi {
                span.1 = value;
                return;
            }
        }
        // Otherwise truncate the spans straddling either edge and drop
        // everything in between — what splitting at `lo` and `hi` would
        // leave, without allocating.
        if let Some((_, span)) = self.map.range_mut(..lo).next_back() {
            let (end, v) = *span;
            if end > lo {
                span.0 = lo;
                if end > hi {
                    self.map.insert(hi, (end, v));
                }
            }
        }
        while let Some((&s, &(end, v))) = self.map.range(lo..hi).next() {
            self.map.remove(&s);
            if end > hi {
                self.map.insert(hi, (end, v));
                break;
            }
        }
        self.map.insert(lo, (hi, value));
    }

    /// Visits every sub-interval of `[lo, hi)` in address order with its
    /// value, `None` for bytes never written. Gaps are materialized so
    /// callers see full coverage of the query.
    pub(crate) fn for_range(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, u64, Option<V>)) {
        if lo >= hi {
            return;
        }
        let mut at = lo;
        if let Some((_, &(end, v))) = self.map.range(..=lo).next_back() {
            if end > lo {
                let stop = end.min(hi);
                f(at, stop, Some(v));
                // One span covers the whole query (the common case for
                // cell-granular operands): no second probe.
                if stop == hi {
                    return;
                }
                at = stop;
            }
        }
        for (&s, &(end, v)) in self.map.range(at..hi) {
            if s > at {
                f(at, s, None);
            }
            let stop = end.min(hi);
            f(s, stop, Some(v));
            at = stop;
            if at >= hi {
                break;
            }
        }
        if at < hi {
            f(at, hi, None);
        }
    }

    /// The first byte of `[lo, hi)` no write has covered: the start of its
    /// first uncovered piece.
    pub(crate) fn first_gap(&self, lo: u64, hi: u64) -> Option<u64> {
        let mut gap = None;
        self.for_range(lo, hi, |s, _, v| {
            if v.is_none() && gap.is_none() {
                gap = Some(s);
            }
        });
        gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model of [`MemShadow::write`]: split at both edges,
    /// collect the doomed keys, remove them — no fast paths.
    #[derive(Default)]
    struct SplitShadow {
        map: BTreeMap<u64, (u64, u32)>,
    }

    impl SplitShadow {
        fn split_at(&mut self, at: u64) {
            let split = match self.map.range(..at).next_back() {
                Some((&s, &(end, wr))) if end > at => Some((s, end, wr)),
                _ => None,
            };
            if let Some((s, end, wr)) = split {
                self.map.get_mut(&s).expect("entry just observed").0 = at;
                self.map.insert(at, (end, wr));
            }
        }

        fn write(&mut self, lo: u64, hi: u64, writer: u32) {
            if lo >= hi {
                return;
            }
            self.split_at(lo);
            self.split_at(hi);
            let doomed: Vec<u64> = self.map.range(lo..hi).map(|(&s, _)| s).collect();
            for s in doomed {
                self.map.remove(&s);
            }
            self.map.insert(lo, (hi, writer));
        }
    }

    fn spans(shadow: &MemShadow<u32>, lo: u64, hi: u64) -> Vec<(u64, u64, Option<u32>)> {
        let mut out = Vec::new();
        shadow.for_range(lo, hi, |s, e, wr| out.push((s, e, wr)));
        out
    }

    /// The reference's covered bytes in `[lo, hi)`, one flag per byte.
    fn covered(reference: &SplitShadow, lo: u64, hi: u64) -> Vec<bool> {
        (lo..hi)
            .map(|b| {
                reference
                    .map
                    .range(..=b)
                    .next_back()
                    .is_some_and(|(_, &(end, _))| end > b)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random write sequences over a small address grid —
        /// exact-interval repeats, straddles, adjacent and nested ranges —
        /// leave the fast-pathed shadow with exactly the reference spans,
        /// the same `for_range` answers, and a `first_gap` at the first
        /// byte the reference leaves uncovered.
        #[test]
        fn mem_shadow_matches_split_reference(
            ops in proptest::collection::vec((0..2u8, 0..12u8, 0..4u8), 1..60),
        ) {
            let mut fast = MemShadow::default();
            let mut reference = SplitShadow::default();
            let mut prev = (0u64, 8u64);
            for (writer, &(op, a, b)) in ops.iter().enumerate() {
                let fresh = (a as u64 * 4, a as u64 * 4 + [1, 4, 8, 16][b as usize]);
                // Op 1 repeats the previous interval exactly.
                let (lo, hi) = if op == 1 { prev } else { fresh };
                prev = (lo, hi);
                fast.write(lo, hi, writer as u32);
                reference.write(lo, hi, writer as u32);
                prop_assert_eq!(&fast.map, &reference.map);
                let model = MemShadow { map: reference.map.clone() };
                let probe = (fresh.0.saturating_sub(2), fresh.1 + 3);
                prop_assert_eq!(
                    spans(&fast, probe.0, probe.1),
                    spans(&model, probe.0, probe.1)
                );
                let want = covered(&reference, probe.0, probe.1)
                    .iter()
                    .position(|&c| !c)
                    .map(|i| probe.0 + i as u64);
                prop_assert_eq!(fast.first_gap(probe.0, probe.1), want);
            }
        }
    }
}
