//! Sampled time series.

use crate::summary::Summary;

/// A `(time, value)` series sampled at (typically) fixed intervals, e.g. the
/// 10-second monitoring windows of the paper's experiments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Times must be non-decreasing.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "time series must be appended in order");
        }
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample timestamps.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate `(t, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Summary statistics over all values.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.values)
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_summarize() {
        let mut ts = TimeSeries::new();
        ts.push(10.0, 1.0);
        ts.push(20.0, 2.0);
        ts.push(30.0, 3.0);
        assert_eq!(ts.len(), 3);
        assert!((ts.summary().mean - 2.0).abs() < 1e-12);
        assert_eq!(ts.last(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(5.0, 1.0);
        ts.push(4.0, 1.0);
    }

    #[test]
    fn iter_pairs() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 10.0);
        ts.push(2.0, 20.0);
        let pairs: Vec<_> = ts.iter().collect();
        assert_eq!(pairs, vec![(1.0, 10.0), (2.0, 20.0)]);
    }
}
