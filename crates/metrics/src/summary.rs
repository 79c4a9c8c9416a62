//! Sample summaries: mean ± std, extrema, percentiles.

use crate::online::OnlineStats;
use std::fmt;

/// Descriptive statistics of a finished sample, as reported in the paper's
/// tables (e.g. `2.657 (±0.0914)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a slice of observations. Empty slices yield a zeroed
    /// summary with `n == 0`.
    pub fn of(data: &[f64]) -> Summary {
        let mut s = OnlineStats::new();
        for &x in data {
            s.push(x);
        }
        Summary::from(&s)
    }
}

impl From<&OnlineStats> for Summary {
    fn from(s: &OnlineStats) -> Summary {
        Summary {
            n: s.count(),
            mean: s.mean(),
            std: s.std(),
            min: if s.count() == 0 { 0.0 } else { s.min() },
            max: if s.count() == 0 { 0.0 } else { s.max() },
        }
    }
}

impl fmt::Display for Summary {
    /// Formats like the paper's tables: `2.657 (±0.0914)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} (±{:.4})", self.mean, self.std)
    }
}

/// Linear-interpolated percentile of a sample (`q` in `[0, 1]`).
///
/// Sorts a copy; fine for the monitoring windows used here (≤ thousands of
/// points). Returns `None` on an empty slice.
pub fn percentile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "percentile out of range: {q}");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_slice() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn empty_slice() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn display_matches_paper_style() {
        let s = Summary {
            n: 966,
            mean: 2.657,
            std: 0.0914,
            min: 2.4,
            max: 2.9,
        };
        assert_eq!(s.to_string(), "2.657 (±0.0914)");
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 1.0), Some(4.0));
        assert_eq!(percentile(&data, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_bad_q() {
        percentile(&[1.0], 1.5);
    }
}
