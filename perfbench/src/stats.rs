//! Order statistics for latency samples.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p90 needs 100 samples, a p50 needs 20. Fewer would make
//! the figure a statement about one or two outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `sorted` (ascending).
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    let beyond = n.saturating_sub(idx + 1);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it, have {beyond} of {n} samples"
        ));
    }
    Ok(sorted[idx])
}

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the middle pair for even counts). `None` when
/// empty. Used for per-run repeats such as set-up times, where the count
/// is small and fixed.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[m] } else { (v[m - 1] + v[m]) / 2.0 })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&xs, 90.0).is_err(), "99 samples leave only 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Ok(90.0));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&xs, 50.0).is_err());
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
