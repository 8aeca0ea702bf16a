//! Order statistics and process memory readings.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `n - 1` cut points dividing `values` into `n` groups, computed as
/// Python's `statistics.quantiles(values, n=n)` does (the default
/// "exclusive" method). Fewer than two values repeat the one value.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return vec![v.first().copied().unwrap_or(0.0); n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            // Negative past the ends: Python extrapolates there too.
            let delta = (i * m) as f64 - (j * n) as f64;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        })
        .collect()
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let q = quantiles(values, 4);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / mid.abs()
    }
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// resident size. Returns false where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MB since the last reset.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=10)[8] == 2.7 (extrapolated)
        assert_eq!(quantiles(&[1.0, 2.0], 10)[8], 2.7);
        // ... and below the smallest, [0] == 0.3
        assert!((quantiles(&[1.0, 2.0], 10)[0] - 0.3).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&v), 1.0);
    }
}
