//! Order statistics shared by the runner and the steadiness report.

/// The sample at rank `ceil(q·n)` (1-based) of an ascending slice — the
/// convention `serve_load` and the server's histogram estimator use, so
/// the numbers line up with theirs. `None` on an empty slice.
#[must_use]
pub fn rank_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, with the quartiles as
/// Python's `statistics.quantiles(values, n=4)` computes them (the
/// default "exclusive" method), so a spread printed here matches one
/// computed from the same values in Python. Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), median(&data)?, cut(3)))
}

/// Interquartile distance as a share of the median: the spread the
/// steadiness check compares with a metric's bound.
#[must_use]
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Values sorted ascending (NaN-free inputs assumed; NaNs sort last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// This process's resident-memory high-water mark in MiB (`VmHWM`), or
/// `None` where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's resident-memory high-water mark to its current
/// resident size, so that the next `peak_rss_mb` covers only what runs
/// after it. Does nothing where `/proc` is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_ceil_rank_convention() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // rank ceil(0.5·10) = 5, ceil(0.99·10) = 10, ceil(0.01·10) = 1.
        assert_eq!(rank_percentile(&v, 0.50), Some(5.0));
        assert_eq!(rank_percentile(&v, 0.99), Some(10.0));
        assert_eq!(rank_percentile(&v, 0.01), Some(1.0));
        // rank ceil(0.95·7) = ceil(6.65) = 7, not the interpolated 6.7.
        let w: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(rank_percentile(&w, 0.95), Some(7.0));
        assert_eq!(rank_percentile(&w, 0.5), Some(4.0));
        assert_eq!(rank_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_resets_to_the_current_size() {
        let Some(before) = peak_rss_mb() else { return };
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let high = peak_rss_mb().unwrap();
        assert!(high >= before + 60.0, "{before} -> {high}");
        drop(block);
        reset_peak_rss();
        let after = peak_rss_mb().unwrap();
        assert!(after < high - 32.0, "{high} -> {after}");
    }
}
