//! Evaluation-window sampling.
//!
//! The paper samples 100 random consecutive frames for similarity
//! assessment (Section VI-B); [`sample_windows`] encodes that protocol
//! deterministically.

use crate::{LearnError, Result};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Samples `count` starting offsets of consecutive `window`-frame segments
/// inside `range`, mirroring the paper's "100 consecutive frames, randomly
/// selected, repeated 5 times" protocol.
///
/// # Errors
///
/// Returns [`LearnError::InvalidArgument`] when the window does not fit in
/// the range or `count` is zero.
pub fn sample_windows(
    range: std::ops::Range<usize>,
    window: usize,
    count: usize,
    seed: u64,
) -> Result<Vec<usize>> {
    let len = range.end.saturating_sub(range.start);
    if window == 0 || window > len {
        return Err(LearnError::InvalidArgument(format!(
            "window {window} does not fit in range of length {len}"
        )));
    }
    if count == 0 {
        return Err(LearnError::InvalidArgument("count must be positive".into()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let max_start = range.end - window;
    Ok((0..count)
        .map(|_| rng.random_range(range.start..=max_start))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_windows_fit_range() {
        let starts = sample_windows(1000..3000, 100, 5, 7).unwrap();
        assert_eq!(starts.len(), 5);
        for s in starts {
            assert!(s >= 1000 && s + 100 <= 3000);
        }
    }

    #[test]
    fn sampled_windows_deterministic() {
        let a = sample_windows(0..500, 100, 5, 3).unwrap();
        let b = sample_windows(0..500, 100, 5, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sample_windows_rejects_bad_args() {
        assert!(sample_windows(0..50, 100, 5, 0).is_err());
        assert!(sample_windows(0..50, 0, 5, 0).is_err());
        assert!(sample_windows(0..50, 10, 0, 0).is_err());
    }

    #[test]
    fn window_equal_to_range_is_allowed() {
        let starts = sample_windows(10..20, 10, 3, 1).unwrap();
        assert!(starts.iter().all(|&s| s == 10));
    }
}
