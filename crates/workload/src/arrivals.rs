//! Open-loop request generation.

use e2c_des::{Dist, SimTime};
use rand::Rng;
use std::fmt;

/// A workload rate that cannot describe an arrival process.
///
/// Zero is *not* an error: a trace epoch with zero demand (e.g. a dark
/// deployment month) is a valid open-loop source that simply generates
/// no arrivals. Only negative and non-finite rates are rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateError {
    /// The rate was negative.
    Negative(f64),
    /// The rate was NaN or infinite.
    NonFinite(f64),
}

impl fmt::Display for RateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateError::Negative(r) => write!(f, "arrival rate must be >= 0, got {r}"),
            RateError::NonFinite(r) => write!(f, "arrival rate must be finite, got {r}"),
        }
    }
}

impl std::error::Error for RateError {}

/// An open-loop (Poisson) workload with a fixed arrival rate.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Mean arrivals per second.
    pub rate: f64,
}

impl OpenLoop {
    /// A Poisson source with `rate` arrivals per second. Zero is allowed
    /// (a source that never fires); negative or non-finite rates are a
    /// typed error so trace-driven callers can surface them.
    pub fn new(rate: f64) -> Result<Self, RateError> {
        if !rate.is_finite() {
            return Err(RateError::NonFinite(rate));
        }
        if rate < 0.0 {
            return Err(RateError::Negative(rate));
        }
        Ok(OpenLoop { rate })
    }

    /// Sample the gap to the next arrival. A zero-rate source never
    /// fires; the gap saturates past any horizon.
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        if self.rate == 0.0 {
            return SimTime(u64::MAX);
        }
        let d = Dist::Exp {
            mean: 1.0 / self.rate,
        };
        SimTime::from_secs_f64(d.sample(rng))
    }

    /// Generate all arrival instants up to `horizon`.
    pub fn arrivals_until<R: Rng + ?Sized>(&self, horizon: SimTime, rng: &mut R) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            let gap = self.next_gap(rng);
            t = SimTime(t.0.saturating_add(gap.0));
            if t > horizon {
                break;
            }
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_rate_approximately_holds() {
        let src = OpenLoop::new(50.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let arrivals = src.arrivals_until(SimTime::from_secs(100), &mut rng);
        let rate = arrivals.len() as f64 / 100.0;
        assert!((rate - 50.0).abs() < 3.0, "rate {rate}");
        // Arrivals sorted by construction.
        for pair in arrivals.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
    }

    #[test]
    fn open_loop_accepts_zero_rate_and_generates_nothing() {
        // Regression: a zero-demand trace epoch must be representable
        // (this used to panic with "rate must be positive").
        let src = OpenLoop::new(0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(src
            .arrivals_until(SimTime::from_secs(1000), &mut rng)
            .is_empty());
    }

    #[test]
    fn open_loop_rejects_bad_rates_with_typed_errors() {
        assert_eq!(OpenLoop::new(-1.0).unwrap_err(), RateError::Negative(-1.0));
        assert!(matches!(
            OpenLoop::new(f64::NAN).unwrap_err(),
            RateError::NonFinite(_)
        ));
        assert!(matches!(
            OpenLoop::new(f64::INFINITY).unwrap_err(),
            RateError::NonFinite(f64::INFINITY)
        ));
        // The error renders a useful message for conf-layer surfacing.
        let msg = RateError::Negative(-1.0).to_string();
        assert!(msg.contains(">= 0"), "{msg}");
    }
}
