//! Fixed-bin histograms with approximate quantiles.
//!
//! Storing every observation works for one experiment; monitoring stacks
//! keep histograms instead. This one uses uniform bins over a configured
//! range with an underflow bucket and linear-interpolated quantiles —
//! accuracy bounded by the bin width. Observations at or above the range
//! count toward the total and clamp quantiles to `hi`.

/// Uniform-bin histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    nonfinite: u64,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Histogram over `[lo, hi)` with `bins` uniform buckets.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "empty range");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            nonfinite: 0,
            count: 0,
            sum: 0.0,
        }
    }

    fn width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Record one observation.  Non-finite values (NaN, ±inf — e.g. the
    /// poisoned metrics a Crash `ServiceFault` produces) are tallied in a
    /// separate `nonfinite` bucket and excluded from `count`, `sum` and
    /// quantiles rather than aborting the run.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            self.nonfinite += 1;
            return;
        }
        self.count += 1;
        self.sum += x;
        if x < self.lo {
            self.underflow += 1;
        } else if x < self.hi {
            let idx = (((x - self.lo) / self.width()) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total finite observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite observations (NaN/±inf), kept out of every statistic.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// Mean of all observations (exact, kept outside the bins).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`q` in `[0,1]`), linear within the bin.
    /// Underflow clamps to `lo`, overflow to `hi`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let target = q * self.count as f64;
        let mut seen = self.underflow as f64;
        // Clamp to `lo` only when underflow observations actually exist;
        // with underflow == 0, `0.0 <= 0.0` used to misreport the minimum
        // of mid-range data as the range floor.
        if self.underflow > 0 && target <= seen {
            return Some(self.lo);
        }
        for (i, &n) in self.bins.iter().enumerate() {
            let next = seen + n as f64;
            if target <= next && n > 0 {
                let frac = (target - seen) / n as f64;
                return Some(self.lo + (i as f64 + frac) * self.width());
            }
            seen = next;
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9, -1.0, 12.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 6);
        assert!((h.mean() - (0.5 + 1.5 + 1.7 + 9.9 - 1.0 + 12.0) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_approximate_uniform_data() {
        let mut h = Histogram::new(0.0, 1.0, 100);
        for i in 0..10_000 {
            h.record(i as f64 / 10_000.0);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = h.quantile(q).unwrap();
            assert!((est - q).abs() < 0.02, "q{q}: {est}");
        }
    }

    #[test]
    fn quantiles_clamp_at_range_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(5.0);
        assert_eq!(h.quantile(0.25).unwrap(), 0.0);
        assert_eq!(h.quantile(1.0).unwrap(), 1.0);
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    #[test]
    fn nonfinite_observations_are_bucketed_not_fatal() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(0.5);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 1);
        assert_eq!(h.nonfinite(), 3);
        // Statistics see only the finite observation.
        assert_eq!(h.mean(), 0.5);
        assert!(h.quantile(0.5).unwrap().is_finite());
    }

    #[test]
    fn quantile_zero_without_underflow_reports_data_minimum() {
        // Data clustered mid-range: q=0 must not collapse to the range
        // floor when there are no underflow observations.
        let mut h = Histogram::new(0.0, 100.0, 100);
        for x in [40.5, 41.5, 42.5] {
            h.record(x);
        }
        let q0 = h.quantile(0.0).unwrap();
        assert!((40.0..41.0).contains(&q0), "q0 = {q0}");
        let q1 = h.quantile(1.0).unwrap();
        assert!((42.0..=43.0).contains(&q1), "q1 = {q1}");
    }

    #[test]
    fn quantile_edges_with_outliers_still_clamp() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-2.0); // underflow
        h.record(0.5);
        h.record(3.0); // overflow
        assert_eq!(h.quantile(0.0).unwrap(), 0.0);
        assert_eq!(h.quantile(1.0).unwrap(), 1.0);
    }

    #[test]
    fn quantile_edges_ignore_nonfinite_bucket() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(f64::NAN);
        assert_eq!(h.quantile(0.5), None, "only-NaN histogram has no data");
        h.record(0.5);
        assert!(h.quantile(0.0).unwrap().is_finite());
        assert!(h.quantile(1.0).unwrap().is_finite());
    }
}
