//! Single-pass, numerically stable moment accumulation (Welford's method).

/// Running count/mean/variance/min/max over a stream of observations.
///
/// Uses Welford's algorithm, so the variance stays accurate even when the
/// mean is large relative to the spread (e.g. response times in
/// microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_two_pass_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // two-pass variance: sum((x-5)^2) = 32; unbiased: 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn stable_with_large_offsets() {
        // Welford must not lose the variance when mean >> std.
        let mut s = OnlineStats::new();
        for i in 0..1000 {
            s.push(1e9 + (i % 2) as f64);
        }
        assert!((s.variance() - 0.25025).abs() < 1e-3, "{}", s.variance());
    }
}
