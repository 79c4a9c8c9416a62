//! Random distributions for service times and think times.
//!
//! Implemented from scratch on top of `rand`'s uniform source so the
//! workspace has no dependency beyond `rand` itself. All samples that model
//! durations are clamped to be non-negative.

use rand::Rng;

/// A sampleable distribution over `f64`.
///
/// `Dist` is `Copy` and fully described by its parameters, so experiment
/// definitions embedding distributions are trivially serializable and
/// reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    /// Always returns the same value.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given mean (not rate).
    Exp { mean: f64 },
    /// Normal with the given mean and standard deviation, truncated at zero.
    Normal { mean: f64, std: f64 },
    /// Log-normal parameterized by the *target* mean and coefficient of
    /// variation of the resulting distribution (more intuitive for service
    /// times than the underlying normal's mu/sigma).
    LogNormal { mean: f64, cv: f64 },
}

impl Dist {
    /// Draw one sample. Equivalent to `self.prepare().sample(rng)`; a
    /// caller that draws many times should keep the [`Sampler`].
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.prepare().sample(rng)
    }

    /// This distribution with its per-draw constants computed once.
    pub fn prepare(&self) -> Sampler {
        match *self {
            Dist::Constant(v) => Sampler::Constant(v),
            Dist::Uniform { lo, hi } => {
                debug_assert!(hi >= lo);
                Sampler::Uniform { lo, width: hi - lo }
            }
            Dist::Exp { mean } => Sampler::Exp { mean },
            Dist::Normal { mean, std } => Sampler::Normal { mean, std },
            Dist::LogNormal { mean, cv } => {
                // For LogNormal(mu, sigma): mean = exp(mu + sigma^2/2),
                // cv^2 = exp(sigma^2) - 1  =>  sigma^2 = ln(1 + cv^2).
                let sigma2 = (1.0 + cv * cv).ln();
                Sampler::LogNormal {
                    mu: mean.ln() - sigma2 / 2.0,
                    sigma: sigma2.sqrt(),
                }
            }
        }
    }

    /// The analytic mean of this distribution (post-truncation effects on
    /// `Normal` are ignored; callers keep `std << mean` for service times).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exp { mean } => mean,
            Dist::Normal { mean, .. } => mean,
            Dist::LogNormal { mean, .. } => mean,
        }
    }
}

/// A [`Dist`] prepared for repeated draws ([`Dist::prepare`]): the
/// log-normal's `mu` and `sigma` are computed once instead of on every
/// draw. [`Dist::sample`] prepares and draws once, so both take the same
/// formula: the same bits from the same random words.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sampler {
    /// Always returns the same value.
    Constant(f64),
    /// Uniform on `[lo, lo + width)`.
    Uniform { lo: f64, width: f64 },
    /// Exponential with the given mean.
    Exp { mean: f64 },
    /// Normal truncated at zero.
    Normal { mean: f64, std: f64 },
    /// `exp(mu + sigma·z)` for a standard-normal `z`.
    LogNormal { mu: f64, sigma: f64 },
}

impl Sampler {
    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Sampler::Constant(v) => v,
            Sampler::Uniform { lo, width } => lo + width * rng.gen::<f64>(),
            Sampler::Exp { mean } => {
                // Inverse CDF; 1-U avoids ln(0).
                let u: f64 = rng.gen();
                -mean * (1.0 - u).ln()
            }
            Sampler::Normal { mean, std } => (mean + std * standard_normal(rng)).max(0.0),
            Sampler::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
        }
    }
}

/// One standard-normal draw via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // avoid ln(0)
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mean(dist: Dist, n: usize) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(123);
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn constant_is_constant() {
        let (m, s) = sample_mean(Dist::Constant(4.2), 100);
        assert!((m - 4.2).abs() < 1e-12);
        assert!(s < 1e-9);
    }

    #[test]
    fn uniform_mean_matches() {
        let (m, _) = sample_mean(Dist::Uniform { lo: 2.0, hi: 6.0 }, 50_000);
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn exp_mean_matches() {
        let (m, s) = sample_mean(Dist::Exp { mean: 3.0 }, 100_000);
        assert!((m - 3.0).abs() < 0.1, "mean {m}");
        assert!((s - 3.0).abs() < 0.15, "std {s}"); // exp: std == mean
    }

    #[test]
    fn normal_mean_and_std_match() {
        let (m, s) = sample_mean(
            Dist::Normal {
                mean: 10.0,
                std: 2.0,
            },
            100_000,
        );
        assert!((m - 10.0).abs() < 0.05, "mean {m}");
        assert!((s - 2.0).abs() < 0.05, "std {s}");
    }

    #[test]
    fn normal_truncated_at_zero() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = Dist::Normal {
            mean: 0.1,
            std: 5.0,
        };
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn lognormal_mean_and_cv_match() {
        let (m, s) = sample_mean(Dist::LogNormal { mean: 2.0, cv: 0.5 }, 200_000);
        assert!((m - 2.0).abs() < 0.03, "mean {m}");
        assert!((s / m - 0.5).abs() < 0.03, "cv {}", s / m);
    }

    #[test]
    fn analytic_means() {
        assert_eq!(Dist::Constant(5.0).mean(), 5.0);
        assert_eq!(Dist::Uniform { lo: 0.0, hi: 2.0 }.mean(), 1.0);
        assert_eq!(Dist::Exp { mean: 7.0 }.mean(), 7.0);
    }
}
