//! Order statistics: the only summaries the benchmark reports.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by nearest rank on the
/// sorted sample; 0 for an empty sample.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let idx = ((values.len() - 1) as f64 * q).round() as usize;
    values[idx]
}

/// Median of a float sample (mean of the two middle values when the
/// count is even); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so a spread computed here equals the one the
/// acceptance procedure computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread of a sample as a share of its median: the
/// interquartile distance from four values up, the full range below
/// that (three segments have no meaningful quartiles).
pub fn spread_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 || values.len() < 2 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let q = quartiles(values).expect("len >= 4");
        q[2] - q[0]
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    (width / m).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.0), 1);
        assert_eq!(percentile(&mut v, 0.5), 51);
        assert_eq!(percentile(&mut v, 0.9), 90);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // One slow segment does not move the reported value.
        assert_eq!(median(&[100.0, 101.0, 55.0]), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median_from_four_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        // Three segments: full range over the median.
        assert!((spread_share(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread_share(&[5.0]), 0.0);
    }
}
