//! Result sets and their comparison under the bounds in `BENCHMARK.json`.
//!
//! A set file holds one JSON object per line:
//! `{"workload": W, "seed": N, "result": <the run's result line>}`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median, spread};

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload_names(bench: &Json) -> Vec<String> {
    bench
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

/// workload → metric → seed → value.
type Set = BTreeMap<String, BTreeMap<String, BTreeMap<u64, f64>>>;

fn load_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |e: String| format!("{}:{}: {e}", path.display(), i + 1);
        let row = Json::parse(line).map_err(bad)?;
        let workload = row.get("workload").and_then(Json::as_str);
        let seed = row.get("seed").and_then(Json::as_f64);
        let metrics = row.get("result").and_then(|r| r.get("metrics"));
        let (Some(workload), Some(seed), Some(metrics)) = (workload, seed, metrics) else {
            return Err(bad("expected workload, seed and result.metrics".to_owned()));
        };
        for (name, m) in metrics.fields() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .insert(seed as u64, v);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// Judges one (workload, metric) pair, and returns it with the change of
/// the new median against the base median. `base` and `new` map seed to
/// value.
pub fn verdict(
    lower_is_better: bool,
    bound: f64,
    base: &BTreeMap<u64, f64>,
    new: &BTreeMap<u64, f64>,
) -> (Verdict, f64) {
    let b: Vec<f64> = base.values().copied().collect();
    let n: Vec<f64> = new.values().copied().collect();
    if b.is_empty() || n.is_empty() {
        return (Verdict::Unresolved, 0.0);
    }
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (mb, mn) = (median(&b), median(&n));
    let change = if mb == 0.0 { 0.0 } else { mn / mb - 1.0 };
    let worse = if lower_is_better { change } else { -change };
    let every_run_better = n.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let pairs: Vec<(f64, f64)> = new
        .iter()
        .filter_map(|(seed, &x)| base.get(seed).map(|&y| (x, y)))
        .collect();
    let wins = pairs.iter().filter(|&&(x, y)| better(x, y)).count();
    let wins_most = !pairs.is_empty() && wins * 10 >= pairs.len() * 9;
    let v = if (spread(&b) > bound || spread(&n) > bound) && !every_run_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if every_run_better || (-worse > spread(&b) && wins_most) {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (v, change)
}

fn runs<'a>(set: &'a Set, workload: &str, metric: &str) -> &'a BTreeMap<u64, f64> {
    static NO_RUNS: BTreeMap<u64, f64> = BTreeMap::new();
    set.get(workload)
        .and_then(|m| m.get(metric))
        .unwrap_or(&NO_RUNS)
}

/// Prints one row per workload with a verdict per end-to-end metric.
/// Returns false if any pair regressed or is unresolved.
pub fn compare(root: &Path, base: &Path, new: &Path) -> Result<bool, String> {
    let bench = load_json(&root.join("BENCHMARK.json"))?;
    let (base, new) = (load_set(base)?, load_set(new)?);
    let metrics: Vec<(String, bool, f64)> = bench
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            let lower = m.get("better")?.as_str()? == "lower";
            Some((name, lower, m.get("bound")?.as_f64()?))
        })
        .collect();
    let mut clean = true;
    print!("{:<12}", "workload");
    for (name, _, bound) in &metrics {
        print!(" {:>24}", format!("{name} (±{:.0}%)", bound * 100.0));
    }
    println!();
    for w in workload_names(&bench) {
        print!("{w:<12}");
        for (name, lower, bound) in &metrics {
            let (b, n) = (runs(&base, &w, name), runs(&new, &w, name));
            let (v, change) = verdict(*lower, *bound, b, n);
            clean &= matches!(v, Verdict::Ok | Verdict::Improved);
            let cell = format!("{v:?} {:+.1}%", change * 100.0).to_lowercase();
            print!(" {cell:>24}");
        }
        println!();
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> BTreeMap<u64, f64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = runs(&[10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]);
        let same = runs(&[
            10.01, 10.0, 9.97, 10.03, 10.0, 9.99, 10.02, 10.0, 9.98, 10.01,
        ]);
        assert_eq!(verdict(true, 0.1, &base, &same).0, Verdict::Ok);
        let slower: BTreeMap<u64, f64> = base.iter().map(|(&s, &v)| (s, v * 1.2)).collect();
        assert_eq!(verdict(true, 0.1, &base, &slower).0, Verdict::Regressed);
        assert_eq!(verdict(false, 0.1, &base, &slower).0, Verdict::Improved);
        let faster: BTreeMap<u64, f64> = base.iter().map(|(&s, &v)| (s, v * 0.95)).collect();
        assert_eq!(verdict(true, 0.1, &base, &faster).0, Verdict::Improved);
        let noisy = runs(&[5.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 10.0, 10.0]);
        assert_eq!(verdict(true, 0.1, &base, &noisy).0, Verdict::Unresolved);
    }
}
