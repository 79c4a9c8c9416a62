//! The optimization-problem formalization of Eq. 1.
//!
//! The paper states the general form: minimize/maximize `f_m(x)` subject to
//! inequality constraints `g_j(x) ≤ 0`, equality constraints `h_k(x) = 0`
//! and variable bounds. [`OptimizationProblem`] captures objectives,
//! inequality constraints and bounds (an equality is the pair `h ≤ 0`,
//! `−h ≤ 0`) and offers a penalized scalar evaluation so any minimizer in
//! this crate can honor constraints.

use crate::space::Space;

/// A scalar function over external-unit decision vectors, as used for
/// objectives and constraints.
pub type ScalarFn = Box<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// Whether an objective is minimized or maximized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Smaller is better.
    Minimize,
    /// Larger is better.
    Maximize,
}

/// One objective of a (possibly multi-objective) problem.
pub struct Objective {
    /// Display name (e.g. `user_resp_time`).
    pub name: String,
    /// Optimization direction.
    pub sense: Sense,
    /// The objective function over external-unit points.
    pub f: ScalarFn,
}

/// The full Eq. 1 structure: objectives + constraints + bounded variables.
pub struct OptimizationProblem {
    /// Bounded decision variables.
    pub space: Space,
    /// One or more objectives.
    pub objectives: Vec<Objective>,
    /// Inequality constraints `g(x) ≤ 0`.
    pub constraints: Vec<ScalarFn>,
    /// Penalty coefficient for constraint violations in
    /// [`OptimizationProblem::penalized`].
    pub penalty: f64,
}

impl OptimizationProblem {
    /// Single-objective problem without constraints.
    pub fn single(
        space: Space,
        name: &str,
        sense: Sense,
        f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        OptimizationProblem {
            space,
            objectives: vec![Objective {
                name: name.to_string(),
                sense,
                f: Box::new(f),
            }],
            constraints: Vec::new(),
            penalty: 1e3,
        }
    }

    /// Add an inequality constraint `g(x) ≤ 0`.
    pub fn subject_to(mut self, g: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        self.constraints.push(Box::new(g));
        self
    }

    /// Add another objective (making the problem multi-objective).
    pub fn and_objective(
        mut self,
        name: &str,
        sense: Sense,
        f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.objectives.push(Objective {
            name: name.to_string(),
            sense,
            f: Box::new(f),
        });
        self
    }

    /// Total constraint violation at `x`.
    pub fn total_violation(&self, x: &[f64]) -> f64 {
        self.constraints.iter().map(|g| g(x).max(0.0)).sum()
    }

    /// Raw objective values at `x`, in declaration order.
    pub fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.objectives.iter().map(|o| (o.f)(x)).collect()
    }

    /// Scalarized, penalized, minimization-oriented value: objectives are
    /// sign-normalized to minimization, combined by `weights` (uniform when
    /// `None`), plus `penalty × total_violation`. This is what the
    /// metaheuristics and the Bayesian optimizer consume.
    pub fn penalized(&self, x: &[f64], weights: Option<&[f64]>) -> f64 {
        let default = vec![1.0; self.objectives.len()];
        let w = weights.unwrap_or(&default);
        assert_eq!(w.len(), self.objectives.len(), "one weight per objective");
        let mut total = 0.0;
        for (obj, &wi) in self.objectives.iter().zip(w) {
            let v = (obj.f)(x);
            total += wi
                * match obj.sense {
                    Sense::Minimize => v,
                    Sense::Maximize => -v,
                };
        }
        total + self.penalty * self.total_violation(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metaheuristics::{DifferentialEvolution, Metaheuristic};

    #[test]
    fn single_objective_definition() {
        let p = OptimizationProblem::single(
            Space::new().real("x", -2.0, 2.0),
            "sphere",
            Sense::Minimize,
            |x| x[0] * x[0],
        );
        assert_eq!(p.evaluate(&[1.5]), vec![2.25]);
        assert_eq!(p.total_violation(&[1.5]), 0.0);
        assert_eq!(p.penalized(&[1.5], None), 2.25);
    }

    #[test]
    fn maximization_negates() {
        let p = OptimizationProblem::single(
            Space::new().real("x", 0.0, 1.0),
            "throughput",
            Sense::Maximize,
            |x| x[0],
        );
        assert!(p.penalized(&[0.9], None) < p.penalized(&[0.1], None));
    }

    #[test]
    fn inequality_constraints_penalize() {
        // The paper's example: response time must stay below 3 seconds.
        let p = OptimizationProblem::single(
            Space::new().real("x", 0.0, 10.0),
            "cost",
            Sense::Minimize,
            |x| 10.0 - x[0], // cheaper with bigger x
        )
        .subject_to(|x| x[0] - 3.0); // x <= 3
        assert_eq!(p.total_violation(&[2.0]), 0.0);
        assert!((p.total_violation(&[5.0]) - 2.0).abs() < 1e-12);
        // The penalty must overwhelm the objective gain.
        assert!(p.penalized(&[5.0], None) > p.penalized(&[3.0], None));
    }

    #[test]
    fn multi_objective_weighted_scalarization() {
        // Fig. 4 (right): minimize communication cost AND end-to-end
        // latency. Encode both and check weights steer the trade-off.
        let p = OptimizationProblem::single(
            Space::new().real("placement", 0.0, 1.0),
            "comm_cost",
            Sense::Minimize,
            |x| x[0], // cost grows toward the cloud
        )
        .and_objective("latency", Sense::Minimize, |x| 1.0 - x[0]); // latency shrinks
        let cost_heavy = p.penalized(&[0.2], Some(&[10.0, 1.0]));
        let cost_heavy_worse = p.penalized(&[0.8], Some(&[10.0, 1.0]));
        assert!(cost_heavy < cost_heavy_worse);
        let lat_heavy = p.penalized(&[0.8], Some(&[1.0, 10.0]));
        let lat_heavy_worse = p.penalized(&[0.2], Some(&[1.0, 10.0]));
        assert!(lat_heavy < lat_heavy_worse);
    }

    #[test]
    fn metaheuristic_respects_constraints_via_penalty() {
        let p = OptimizationProblem::single(
            Space::new().real("x", 0.0, 10.0),
            "f",
            Sense::Minimize,
            |x| (x[0] - 8.0).powi(2), // unconstrained optimum at 8
        )
        .subject_to(|x| x[0] - 5.0); // but x must be <= 5
        let space = p.space.clone();
        let mut de = DifferentialEvolution::new(3);
        let mut obj = |x: &[f64]| p.penalized(x, None);
        let r = de.minimize(&space, &mut obj, 2000);
        assert!(
            (r.best_x[0] - 5.0).abs() < 0.1,
            "constrained optimum at 5, got {:?}",
            r.best_x
        );
    }
}
