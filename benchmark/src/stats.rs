//! Order statistics over timing samples.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread computed here equals
//! the one computed from the same values in Python.

/// The three quartiles `[q1, median, q3]` of `values`. A single value is
/// its own quartiles; an empty slice gives NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [data[0]; 3],
        _ => {
            let m = n as i64 + 1;
            [1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                // Negative or past 4 when the clamp moved `j`: Python
                // then extrapolates from the two end values, and so do we.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            })
        }
    }
}

/// The median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with [`TAIL_BEYOND`] samples above it, as
/// `(percentile, sample)`: the sample with exactly that many above it. Of
/// 100 samples that is p90, of 30 it is p67; fewer than 11 have none.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let rank = n.checked_sub(TAIL_BEYOND + 1)?;
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    Some((100.0 * (n - TAIL_BEYOND) as f64 / n as f64, data[rank]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([7, 1, 3, 5, 9], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 5.0, 9.0]), [2.0, 5.0, 8.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_of_odd_even_and_degenerate_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[0.7]), 0.7);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_sample_with_exactly_ten_above_it() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        let (percentile, value) = tail(&thirty).unwrap();
        assert_eq!(value, 20.0);
        assert!((percentile - 200.0 / 3.0).abs() < 1e-12);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).map(|t| t.1), Some(0.0));
        assert_eq!(tail(&eleven[..10]), None);
        assert_eq!(tail(&[]), None);
    }
}
