//! The static-vs-dynamic referee: scores static predictions against the
//! interpreter's execution witness and the dynamic pixel slice.
//!
//! For each canonical session the engine hands the referee three things:
//! the [`ProgramAnalysis`] of the session's scripts, the
//! [`wasteprof_js::JsWitness`] those same scripts produced when the
//! session actually ran, and a membership test for the dynamic
//! backward-slice ground truth. The referee then checks, per analysis:
//!
//! * **unreachable (WP0103)** — a statement the analyzer calls
//!   unreachable that *executed* is a soundness violation; precision over
//!   executed claims must be 1.0. Recall is measured against every
//!   statement that never ran (which includes statements a richer input
//!   would have reached, so static recall is honestly partial).
//! * **dead stores (WP0102)** — a claimed site that executed and was
//!   read back is a soundness violation; ground truth is every witnessed
//!   site whose stores were never read back. Claims the session never
//!   executed are excluded from the precision denominator. Missed ground
//!   truth is split into two classes: sites the analyzer *modeled and
//!   proved live* ([`UnitReport::live_stores`](crate::UnitReport::live_stores))
//!   are **fundamental** misses — a sound flow-insensitive-heap analysis
//!   must keep them (e.g. a read in a branch the dynamic run skipped) —
//!   while sites the analyzer never modeled are implementation
//!   **weaknesses**.
//! * **static waste (WP0104 ∪ WP0105)** — no soundness class on the
//!   metric itself: precision is the fraction of executed claims whose
//!   self instructions stay entirely outside the dynamic slice, recall
//!   the fraction of dynamically wasted statements the analyzer found.
//!   Useless-call claims join the prediction set — both codes assert the
//!   same thing at the same statement granularity, that the statement's
//!   execution was unnecessary.
//! * **useless calls (WP0105)** — additionally scored on its own
//!   soundness channel: a claimed call statement that executed with any
//!   self instruction *inside* the pixel slice is a soundness violation,
//!   because the analyzer promised the callees were effect-free and
//!   every result discarded. No standalone recall channel — the claims
//!   fold into the waste recall above.
//! * **uncallable functions (WP0106)** — a claimed-uncallable function
//!   the witness counted even one invocation of (any entry path: direct
//!   call, stored closure, timer, handler) is a soundness violation.
//!   Recall is against every declared function the run never invoked.
//!
//! Beyond the per-analysis aggregates the referee emits a per-function
//! breakdown ([`FuncRow`]): for every declared function, its
//! reachability/purity verdicts, its witnessed invocation count, and the
//! WP0104 waste metric restricted to the function's own statements — the
//! table behind `results/static_vs_dynamic.txt`.
//!
//! Only units present in both the analysis and the witness are compared,
//! and every aggregate is computed in deterministic order.

use wasteprof_js::JsWitness;

use crate::analyses::ProgramAnalysis;

/// Counters for one analysis on one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metric {
    /// Statically predicted findings (in compared units).
    pub predicted: u64,
    /// Predictions the dynamic run actually exercised (the precision
    /// denominator).
    pub observed: u64,
    /// Predictions the dynamic ground truth confirms.
    pub tp: u64,
    /// Dynamic ground-truth findings (the recall denominator).
    pub gt: u64,
    /// Soundness violations: predictions the dynamic run refutes.
    pub violations: u64,
}

impl Metric {
    /// `tp / observed`; `None` when nothing was observed.
    #[must_use]
    pub fn precision(&self) -> Option<f64> {
        (self.observed > 0).then(|| self.tp as f64 / self.observed as f64)
    }

    /// `tp / gt`; `None` when the ground truth is empty.
    #[must_use]
    pub fn recall(&self) -> Option<f64> {
        (self.gt > 0).then(|| self.tp as f64 / self.gt as f64)
    }

    /// Accumulates another metric (used for cross-session totals).
    pub fn merge(&mut self, other: &Metric) {
        self.predicted += other.predicted;
        self.observed += other.observed;
        self.tp += other.tp;
        self.gt += other.gt;
        self.violations += other.violations;
    }
}

/// Per-function referee row: static verdicts next to dynamic truth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuncRow {
    /// The unit (script origin) declaring the function.
    pub origin: String,
    /// Function name (`<anon>` for unnamed function expressions).
    pub name: String,
    /// Function index into the unit's function table.
    pub idx: u32,
    /// Call-graph verdict: reachable from an entry point or callback.
    pub reachable: bool,
    /// Summary verdict: transitively effect-free.
    pub pure: bool,
    /// Witnessed invocation count across every entry path.
    pub calls: u64,
    /// WP0104 waste metric restricted to the function's own statements.
    pub waste: Metric,
}

/// One session's static-vs-dynamic comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefereeReport {
    /// WP0103 unreachable-code metrics.
    pub unreachable: Metric,
    /// WP0102 dead-store metrics.
    pub dead_stores: Metric,
    /// WP0104 static-waste metrics.
    pub wasted: Metric,
    /// WP0105 useless-call metrics (no recall channel: `gt` stays 0).
    pub useless_calls: Metric,
    /// WP0106 uncallable-function metrics.
    pub uncallable: Metric,
    /// WP0101 predictions (counts only; undefined reads have no dynamic
    /// ground-truth channel in the witness).
    pub maybe_undef: u64,
    /// Missed dead-store ground truth the analyzer modeled and proved
    /// live — inherent to a sound static model, not a bug.
    pub misses_fundamental: u64,
    /// Missed dead-store ground truth the analyzer never modeled.
    pub misses_weakness: u64,
    /// Per-function breakdown across every compared unit, in unit order
    /// then function-table order.
    pub per_function: Vec<FuncRow>,
    /// Units present in both the analysis and the witness.
    pub units_compared: usize,
}

impl RefereeReport {
    /// Total soundness violations (must be zero for a sound analyzer).
    #[must_use]
    pub fn soundness_violations(&self) -> u64 {
        self.unreachable.violations
            + self.dead_stores.violations
            + self.useless_calls.violations
            + self.uncallable.violations
    }

    /// Accumulates another report's aggregate metrics and function rows
    /// (used for cross-session totals).
    pub fn merge(&mut self, other: &RefereeReport) {
        self.unreachable.merge(&other.unreachable);
        self.dead_stores.merge(&other.dead_stores);
        self.wasted.merge(&other.wasted);
        self.useless_calls.merge(&other.useless_calls);
        self.uncallable.merge(&other.uncallable);
        self.maybe_undef += other.maybe_undef;
        self.misses_fundamental += other.misses_fundamental;
        self.misses_weakness += other.misses_weakness;
        self.per_function.extend(other.per_function.iter().cloned());
        self.units_compared += other.units_compared;
    }
}

/// Scores `analysis` against the witness of an actual run. `in_slice`
/// answers whether a trace position belongs to the dynamic pixel slice
/// (the ground truth for WP0104/WP0105).
pub fn compare(
    analysis: &ProgramAnalysis,
    witness: &JsWitness,
    in_slice: &dyn Fn(u64) -> bool,
) -> RefereeReport {
    let mut r = RefereeReport::default();
    for unit in &analysis.units {
        let Some(w) = witness.unit(&unit.origin) else {
            continue;
        };
        r.units_compared += 1;
        r.maybe_undef += unit.maybe_undef.len() as u64;

        // Shared oracle: did `stmt`'s own instructions stay out of the
        // pixel slice? None when unmeasurable (never ran / no self work).
        let dyn_wasted = |s: u32| -> Option<bool> {
            if w.exec_count(s) == 0 {
                return None;
            }
            let spans = w.self_spans.get(&s)?;
            if spans.iter().all(|(a, b)| a == b) {
                return None;
            }
            Some(spans.iter().all(|&(a, b)| (a..b).all(|p| !in_slice(p))))
        };

        // WP0103: predicted-unreachable vs execution counts.
        for &s in &unit.unreachable {
            r.unreachable.predicted += 1;
            r.unreachable.observed += 1;
            if w.exec_count(s) > 0 {
                r.unreachable.violations += 1;
            } else {
                r.unreachable.tp += 1;
            }
        }
        for s in 0..unit.stmt_count {
            if w.exec_count(s) == 0 {
                r.unreachable.gt += 1;
            }
        }

        // WP0102: predicted-dead stores vs store fates.
        for key in &unit.dead_stores {
            r.dead_stores.predicted += 1;
            let Some(f) = w.stores.get(key) else {
                continue; // site never executed: unmeasurable
            };
            if f.stores == 0 {
                continue;
            }
            r.dead_stores.observed += 1;
            if f.read_back > 0 {
                r.dead_stores.violations += 1;
            } else {
                r.dead_stores.tp += 1;
            }
        }
        let mut gt_sites: Vec<_> = w
            .stores
            .iter()
            .filter(|(_, f)| f.stores > 0 && f.read_back == 0)
            .collect();
        gt_sites.sort_by_key(|(k, _)| (*k).clone());
        r.dead_stores.gt += gt_sites.len() as u64;
        for (key, _) in &gt_sites {
            if !unit.dead_stores.contains(key) {
                if unit.live_stores.contains(key) {
                    r.misses_fundamental += 1;
                } else {
                    r.misses_weakness += 1;
                }
            }
        }

        // WP0104 ∪ WP0105: predicted-wasted vs the dynamic slice over
        // self spans. A useless-call claim (WP0105) is a waste claim at
        // the same statement granularity — the call runs but its work is
        // unnecessary — so it joins the waste prediction set here; its
        // soundness channel is scored separately below.
        for &s in unit.wasted.union(&unit.useless_calls) {
            r.wasted.predicted += 1;
            let Some(is_wasted) = dyn_wasted(s) else {
                continue; // never executed, or no self instructions
            };
            r.wasted.observed += 1;
            if is_wasted {
                r.wasted.tp += 1;
            }
        }
        for s in 0..unit.stmt_count {
            if dyn_wasted(s) == Some(true) {
                r.wasted.gt += 1;
            }
        }

        // WP0105: a claimed useless call that fed pixels refutes the
        // effect-free promise — a soundness violation, not precision loss.
        for &s in &unit.useless_calls {
            r.useless_calls.predicted += 1;
            let Some(is_wasted) = dyn_wasted(s) else {
                continue;
            };
            r.useless_calls.observed += 1;
            if is_wasted {
                r.useless_calls.tp += 1;
            } else {
                r.useless_calls.violations += 1;
            }
        }

        // WP0106: claimed-uncallable vs witnessed invocation counts.
        for &f in &unit.uncallable {
            r.uncallable.predicted += 1;
            r.uncallable.observed += 1;
            if w.call_count(f) > 0 {
                r.uncallable.violations += 1;
            } else {
                r.uncallable.tp += 1;
            }
        }
        for func in &unit.funcs {
            if w.call_count(func.idx) == 0 {
                r.uncallable.gt += 1;
            }
        }

        // Per-function breakdown: waste metric over each function's own
        // statements, next to its static verdicts and dynamic call count.
        for func in &unit.funcs {
            let mut row = FuncRow {
                origin: unit.origin.clone(),
                name: func.name.clone(),
                idx: func.idx,
                reachable: func.reachable,
                pure: func.pure,
                calls: w.call_count(func.idx),
                waste: Metric::default(),
            };
            for &s in &func.stmts {
                let claimed = unit.wasted.contains(&s);
                if claimed {
                    row.waste.predicted += 1;
                }
                match dyn_wasted(s) {
                    Some(true) => {
                        row.waste.gt += 1;
                        if claimed {
                            row.waste.observed += 1;
                            row.waste.tp += 1;
                        }
                    }
                    Some(false) if claimed => {
                        row.waste.observed += 1;
                    }
                    _ => {}
                }
            }
            r.per_function.push(row);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use wasteprof_js::{JsWitness, StoreFate, UnitWitness};

    use super::*;
    use crate::analyses::{FuncReport, ProgramAnalysis, UnitReport};

    fn unit_report() -> UnitReport {
        UnitReport {
            origin: "a.js".to_owned(),
            stmt_count: 4,
            unreachable: BTreeSet::from([2]),
            dead_stores: BTreeSet::from([(0, "x".to_owned()), (3, "y".to_owned())]),
            wasted: BTreeSet::from([1]),
            maybe_undef: BTreeSet::new(),
            useless_calls: BTreeSet::new(),
            uncallable: BTreeSet::new(),
            live_stores: BTreeSet::new(),
            funcs: Vec::new(),
        }
    }

    fn witness(exec2: u64, read_back: u64) -> JsWitness {
        let mut w = UnitWitness {
            origin: "a.js".to_owned(),
            ..UnitWitness::default()
        };
        w.exec.insert(0, 1);
        w.exec.insert(1, 1);
        if exec2 > 0 {
            w.exec.insert(2, exec2);
        }
        w.stores.insert(
            (0, "x".to_owned()),
            StoreFate {
                stores: 1,
                read_back,
                dead: 1 - read_back,
            },
        );
        // Stmt 1 ran its own instructions at positions 10..12; stmt 3
        // (the second dead-store claim) never executed.
        w.self_spans.insert(1, vec![(10, 12)]);
        JsWitness { units: vec![w] }
    }

    #[test]
    fn clean_run_scores_perfect_precision() {
        let analysis = ProgramAnalysis {
            units: vec![unit_report()],
            diags: Vec::new(),
        };
        let w = witness(0, 0);
        let r = compare(&analysis, &w, &|p| p < 5);
        assert_eq!(r.units_compared, 1);
        assert_eq!(r.soundness_violations(), 0);
        assert_eq!(r.unreachable.tp, 1);
        assert_eq!(r.unreachable.precision(), Some(1.0));
        // gt: stmts 2 and 3 never ran.
        assert_eq!(r.unreachable.gt, 2);
        // The (3, y) claim never executed: excluded from the denominator.
        assert_eq!(r.dead_stores.predicted, 2);
        assert_eq!(r.dead_stores.observed, 1);
        assert_eq!(r.dead_stores.precision(), Some(1.0));
        assert_eq!(r.dead_stores.gt, 1);
        // Every ground-truth site was predicted: no misses to classify.
        assert_eq!((r.misses_fundamental, r.misses_weakness), (0, 0));
        // Stmt 1's spans (10..12) are outside the slice (p < 5).
        assert_eq!(r.wasted.observed, 1);
        assert_eq!(r.wasted.tp, 1);
        assert_eq!(r.wasted.recall(), Some(1.0));
    }

    #[test]
    fn refuted_claims_count_as_violations() {
        let analysis = ProgramAnalysis {
            units: vec![unit_report()],
            diags: Vec::new(),
        };
        // Stmt 2 executed despite the unreachable claim; the store at
        // stmt 0 was read back despite the dead-store claim.
        let w = witness(3, 1);
        let r = compare(&analysis, &w, &|p| p >= 10);
        assert_eq!(r.unreachable.violations, 1);
        assert_eq!(r.dead_stores.violations, 1);
        assert_eq!(r.soundness_violations(), 2);
        // Stmt 1's spans now overlap the slice: predicted wasted but
        // dynamically useful — precision loss, not a violation.
        assert_eq!(r.wasted.observed, 1);
        assert_eq!(r.wasted.tp, 0);
        assert_eq!(r.wasted.precision(), Some(0.0));
    }

    #[test]
    fn units_missing_from_witness_are_skipped() {
        let analysis = ProgramAnalysis {
            units: vec![unit_report()],
            diags: Vec::new(),
        };
        let w = JsWitness { units: Vec::new() };
        let r = compare(&analysis, &w, &|_| false);
        assert_eq!(r.units_compared, 0);
        assert_eq!(r, RefereeReport::default());
    }

    #[test]
    fn useless_call_feeding_pixels_is_a_violation() {
        let mut u = unit_report();
        u.useless_calls = BTreeSet::from([1]);
        let analysis = ProgramAnalysis {
            units: vec![u],
            diags: Vec::new(),
        };
        let w = witness(0, 0);
        // Out of slice (p < 5 in-slice; spans 10..12): confirmed.
        let r = compare(&analysis, &w, &|p| p < 5);
        assert_eq!(r.useless_calls.tp, 1);
        assert_eq!(r.useless_calls.violations, 0);
        // In slice: the "effect-free" promise is refuted — soundness.
        let r = compare(&analysis, &w, &|p| p >= 10);
        assert_eq!(r.useless_calls.violations, 1);
        assert_eq!(r.soundness_violations(), 1);
    }

    #[test]
    fn useless_calls_join_the_waste_prediction_set() {
        let mut u = unit_report();
        u.wasted = BTreeSet::from([1]);
        u.useless_calls = BTreeSet::from([2]);
        let analysis = ProgramAnalysis {
            units: vec![u],
            diags: Vec::new(),
        };
        let w = witness(0, 0);
        let r = compare(&analysis, &w, &|p| p < 5);
        // Both the WP0104 claim and the WP0105 claim count as waste
        // predictions; an id claimed by both would count once.
        assert_eq!(r.wasted.predicted, 2);
    }

    #[test]
    fn uncallable_claims_score_against_call_counts() {
        let mut u = unit_report();
        u.uncallable = BTreeSet::from([0, 1]);
        u.funcs = vec![
            FuncReport {
                idx: 0,
                name: "orphan".into(),
                stmts: vec![],
                reachable: false,
                pure: true,
            },
            FuncReport {
                idx: 1,
                name: "hot".into(),
                stmts: vec![],
                reachable: false,
                pure: false,
            },
            FuncReport {
                idx: 2,
                name: "cold".into(),
                stmts: vec![],
                reachable: true,
                pure: false,
            },
        ];
        let analysis = ProgramAnalysis {
            units: vec![u],
            diags: Vec::new(),
        };
        let mut w = witness(0, 0);
        w.units[0].calls.insert(1, 2); // `hot` actually ran: refuted
        let r = compare(&analysis, &w, &|_| false);
        assert_eq!(r.uncallable.predicted, 2);
        assert_eq!(r.uncallable.tp, 1, "orphan confirmed");
        assert_eq!(r.uncallable.violations, 1, "hot refuted");
        // gt: orphan and cold never ran (2 of 3 declared functions).
        assert_eq!(r.uncallable.gt, 2);
        assert_eq!(r.soundness_violations(), 1);
    }

    #[test]
    fn missed_dead_stores_split_into_fundamental_and_weakness() {
        let mut u = unit_report();
        // The analyzer claims neither ground-truth site; it proved
        // (0, x) live (fundamental) and never modeled (2, z).
        u.dead_stores = BTreeSet::new();
        u.live_stores = BTreeSet::from([(0, "x".to_owned())]);
        let analysis = ProgramAnalysis {
            units: vec![u],
            diags: Vec::new(),
        };
        let mut w = witness(0, 0);
        w.units[0].stores.insert(
            (2, "z".to_owned()),
            StoreFate {
                stores: 1,
                read_back: 0,
                dead: 1,
            },
        );
        let r = compare(&analysis, &w, &|_| false);
        assert_eq!(r.dead_stores.gt, 2);
        assert_eq!(r.misses_fundamental, 1);
        assert_eq!(r.misses_weakness, 1);
    }

    #[test]
    fn per_function_rows_carry_verdicts_calls_and_waste() {
        let mut u = unit_report();
        u.funcs = vec![FuncReport {
            idx: 0,
            name: "helper".into(),
            stmts: vec![1, 2],
            reachable: true,
            pure: true,
        }];
        let analysis = ProgramAnalysis {
            units: vec![u],
            diags: Vec::new(),
        };
        let mut w = witness(0, 0);
        w.units[0].calls.insert(0, 4);
        let r = compare(&analysis, &w, &|p| p < 5);
        assert_eq!(r.per_function.len(), 1);
        let row = &r.per_function[0];
        assert_eq!((row.origin.as_str(), row.name.as_str()), ("a.js", "helper"));
        assert_eq!(row.calls, 4);
        assert!(row.reachable && row.pure);
        // Stmt 1 is claimed wasted and dynamically wasted; stmt 2 never
        // ran (unmeasurable).
        assert_eq!(row.waste.predicted, 1);
        assert_eq!(row.waste.tp, 1);
        assert_eq!(row.waste.gt, 1);
        assert_eq!(row.waste.precision(), Some(1.0));
    }

    #[test]
    fn merge_accumulates_metrics_and_rows() {
        let analysis = ProgramAnalysis {
            units: vec![unit_report()],
            diags: Vec::new(),
        };
        let w = witness(0, 0);
        let one = compare(&analysis, &w, &|p| p < 5);
        let mut totals = RefereeReport::default();
        totals.merge(&one);
        totals.merge(&one);
        assert_eq!(totals.units_compared, 2);
        assert_eq!(totals.wasted.tp, one.wasted.tp * 2);
        assert_eq!(totals.dead_stores.predicted, one.dead_stores.predicted * 2);
    }
}
