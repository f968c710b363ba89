//! Percentiles and quartiles.

/// Nearest-rank percentile (`p` in `(0, 100]`) of unsorted samples; 0
/// for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Ratio that reads 0 when the denominator is 0.
pub fn frac(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `(Q1, median, Q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the run-to-run spread
/// criterion is stated in. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let n = 4;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        let small = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&small, 30.0), 20.0);
        assert_eq!(percentile(&small, 40.0), 20.0);
        assert_eq!(percentile(&small, 50.0), 35.0);
        assert_eq!(percentile(&small, 1.0), 15.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let shuffled = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&shuffled, 50.0), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0] (extrapolates)
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 3.0, 6.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }
}
