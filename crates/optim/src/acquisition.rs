//! Acquisition functions for Bayesian optimization.
//!
//! All scores follow the convention **higher = more worth evaluating**, for
//! a *minimization* problem (the optimizer negates targets when maximizing,
//! like `tune.run(mode=...)` does).

/// Standard normal PDF.
pub fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max absolute error ≈ 1.5e-7 — far below acquisition-ranking needs).
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// The acquisition strategies of scikit-optimize, including the `gp_hedge`
/// portfolio the paper's Listing 1 configures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected improvement over the incumbent.
    Ei,
    /// Probability of improvement.
    Pi,
    /// Lower confidence bound, `mean - kappa·std` (to minimize).
    Lcb {
        /// Exploration weight.
        kappa: f64,
    },
    /// Probability-matched portfolio over EI, PI and LCB (`gp_hedge`).
    GpHedge,
}

impl Acquisition {
    /// Score a candidate with predictive `(mean, std)` against the best
    /// observed value `best`. Must not be called on `GpHedge` (the
    /// portfolio scores through its members).
    pub fn score(&self, mean: f64, std: f64, best: f64) -> f64 {
        match *self {
            Acquisition::Ei => expected_improvement(mean, std, best),
            Acquisition::Pi => probability_of_improvement(mean, std, best),
            Acquisition::Lcb { kappa } => -(mean - kappa * std),
            Acquisition::GpHedge => {
                unreachable!("gp_hedge delegates to its portfolio members")
            }
        }
    }
}

/// Expected improvement for minimization.
pub fn expected_improvement(mean: f64, std: f64, best: f64) -> f64 {
    if std <= 1e-12 {
        return (best - mean).max(0.0);
    }
    let imp = best - mean;
    let z = imp / std;
    // EI is analytically non-negative; the erf approximation can push the
    // deep tail a few ulps below zero, so clamp.
    (imp * norm_cdf(z) + std * norm_pdf(z)).max(0.0)
}

/// Probability of improvement for minimization.
pub fn probability_of_improvement(mean: f64, std: f64, best: f64) -> f64 {
    if std <= 1e-12 {
        return if mean < best { 1.0 } else { 0.0 };
    }
    norm_cdf((best - mean) / std)
}

/// The `gp_hedge` portfolio state: per-member cumulative gains drive
/// probability matching (softmax) over which member's proposal is used.
#[derive(Debug, Clone)]
pub struct Hedge {
    members: Vec<Acquisition>,
    gains: Vec<f64>,
    eta: f64,
}

impl Default for Hedge {
    fn default() -> Self {
        Hedge::new(1.0)
    }
}

impl Hedge {
    /// Portfolio of EI, PI and LCB with softmax temperature `eta`.
    pub fn new(eta: f64) -> Self {
        Hedge {
            members: vec![
                Acquisition::Ei,
                Acquisition::Pi,
                Acquisition::Lcb { kappa: 1.96 },
            ],
            gains: vec![0.0; 3],
            eta,
        }
    }

    /// The portfolio members.
    pub fn members(&self) -> &[Acquisition] {
        &self.members
    }

    /// Selection probabilities (softmax of gains).
    pub fn probabilities(&self) -> Vec<f64> {
        let m = self.gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = self
            .gains
            .iter()
            .map(|g| ((g - m) * self.eta).exp())
            .collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Pick a member index given a uniform draw in `[0, 1)`.
    pub fn choose(&self, u: f64) -> usize {
        let probs = self.probabilities();
        let mut acc = 0.0;
        for (i, p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        probs.len() - 1
    }

    /// Reward member `i` (scikit-optimize adds the *negative* posterior
    /// mean at the member's proposal, so members proposing low-mean points
    /// gain influence on a minimization problem).
    pub fn update(&mut self, i: usize, reward: f64) {
        self.gains[i] += reward;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_reference_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(norm_cdf(8.0) > 0.999999);
    }

    #[test]
    fn pdf_reference_values() {
        assert!((norm_pdf(0.0) - 0.39894228).abs() < 1e-7);
        assert!((norm_pdf(1.0) - 0.24197072).abs() < 1e-7);
    }

    #[test]
    fn ei_prefers_lower_mean_at_equal_std() {
        let best = 1.0;
        assert!(expected_improvement(0.5, 0.1, best) > expected_improvement(0.9, 0.1, best));
    }

    #[test]
    fn ei_prefers_higher_std_at_equal_mean() {
        let best = 1.0;
        assert!(expected_improvement(1.2, 0.5, best) > expected_improvement(1.2, 0.01, best));
    }

    #[test]
    fn ei_zero_std_is_plain_improvement() {
        assert_eq!(expected_improvement(0.4, 0.0, 1.0), 0.6);
        assert_eq!(expected_improvement(1.4, 0.0, 1.0), 0.0);
    }

    #[test]
    fn pi_is_a_probability() {
        for (m, s) in [(0.0, 1.0), (2.0, 0.5), (-3.0, 0.1)] {
            let p = probability_of_improvement(m, s, 0.5);
            assert!((0.0..=1.0).contains(&p));
        }
        assert_eq!(probability_of_improvement(0.0, 0.0, 1.0), 1.0);
        assert_eq!(probability_of_improvement(2.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn lcb_trades_mean_against_std() {
        let lcb = Acquisition::Lcb { kappa: 2.0 };
        // (mean 1, std 1) scores -(1-2) = 1; (mean 0.5, std 0) scores -0.5.
        assert!(lcb.score(1.0, 1.0, 0.0) > lcb.score(0.5, 0.0, 0.0));
    }

    #[test]
    fn hedge_probability_matching_shifts_mass() {
        let mut h = Hedge::new(1.0);
        let p0 = h.probabilities();
        assert!((p0.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p0[0] - 1.0 / 3.0).abs() < 1e-12);
        // Reward EI heavily; it must now dominate.
        h.update(0, 5.0);
        let p1 = h.probabilities();
        assert!(p1[0] > 0.9, "{p1:?}");
        assert_eq!(h.choose(0.5), 0);
    }

    #[test]
    fn hedge_choose_covers_all_members() {
        let h = Hedge::new(1.0);
        assert_eq!(h.choose(0.0), 0);
        assert_eq!(h.choose(0.5), 1);
        assert_eq!(h.choose(0.99), 2);
    }
}
