//! Metaheuristics for short-running applications.
//!
//! Phase II distinguishes long-running workflows (Bayesian optimization)
//! from short-running ones, which "can use other optimization techniques
//! such as evolutionary algorithms and swarm intelligence".
//! Differential Evolution lives here behind [`Metaheuristic`]; the
//! genetic algorithm the `genetic_algorithm` search route runs is the
//! tuner's ask/tell searcher (`e2c-tune`'s `evolution` module).

mod de;

pub use de::DifferentialEvolution;

use crate::space::{Point, Space};

/// Result of a metaheuristic run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Best point found (external units).
    pub best_x: Point,
    /// Its objective value.
    pub best_f: f64,
    /// Total objective evaluations.
    pub evals: usize,
    /// Best-so-far value after each generation/iteration.
    pub history: Vec<f64>,
}

/// A derivative-free minimizer over a [`Space`].
pub trait Metaheuristic {
    /// Minimize `f` with an evaluation budget of (approximately)
    /// `max_evals` calls. Implementations are deterministic for a given
    /// seed (provided at construction).
    fn minimize(
        &mut self,
        space: &Space,
        f: &mut dyn FnMut(&[f64]) -> f64,
        max_evals: usize,
    ) -> RunResult;

    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rastrigin-lite: multimodal but with a clear global minimum at the
    /// center of the space.
    fn rastrigin(p: &[f64]) -> f64 {
        p.iter()
            .map(|&x| x * x - 5.0 * (2.0 * std::f64::consts::PI * x).cos() + 5.0)
            .sum()
    }

    fn sphere(p: &[f64]) -> f64 {
        p.iter().map(|&x| (x - 1.0) * (x - 1.0)).sum()
    }

    fn space_2d() -> Space {
        Space::new().real("x", -5.0, 5.0).real("y", -5.0, 5.0)
    }

    #[test]
    fn minimizes_the_sphere() {
        let space = space_2d();
        let mut algo = DifferentialEvolution::new(3);
        let mut f = sphere;
        let result = algo.minimize(&space, &mut f, 3000);
        assert!(
            result.best_f < 0.05,
            "{}: best {} at {:?}",
            algo.name(),
            result.best_f,
            result.best_x
        );
        assert!(result.evals <= 3300, "{} overspent budget", algo.name());
        assert!(space.contains(&space.sanitize(&result.best_x)));
    }

    #[test]
    fn handles_multimodal() {
        let space = space_2d();
        let mut algo = DifferentialEvolution::new(7);
        let mut f = rastrigin;
        let result = algo.minimize(&space, &mut f, 6000);
        // Global minimum is 0 at origin; accept any good basin.
        assert!(
            result.best_f < 3.0,
            "{}: best {}",
            algo.name(),
            result.best_f
        );
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let space = space_2d();
        let mut algo = DifferentialEvolution::new(11);
        let mut f = sphere;
        let result = algo.minimize(&space, &mut f, 1500);
        for w in result.history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "{}: history regressed {w:?}",
                algo.name()
            );
        }
        assert_eq!(
            *result.history.last().unwrap(),
            result.best_f,
            "{}",
            algo.name()
        );
    }

    #[test]
    fn integer_spaces_yield_integer_points() {
        let space = Space::new().int("a", 0, 10).int("b", -5, 5);
        let mut algo = DifferentialEvolution::new(13);
        let mut f = |p: &[f64]| (p[0] - 4.0).powi(2) + (p[1] - 1.0).powi(2);
        let result = algo.minimize(&space, &mut f, 800);
        assert!(
            space.contains(&result.best_x),
            "{}: {:?} not in space",
            algo.name(),
            result.best_x
        );
        assert_eq!(result.best_x[0].fract(), 0.0, "{}", algo.name());
    }

    #[test]
    fn deterministic_per_seed() {
        let space = space_2d();
        let mut f1 = sphere;
        let mut f2 = sphere;
        let r1 = DifferentialEvolution::new(5).minimize(&space, &mut f1, 1000);
        let r2 = DifferentialEvolution::new(5).minimize(&space, &mut f2, 1000);
        assert_eq!(r1.best_x, r2.best_x);
        assert_eq!(r1.best_f, r2.best_f);
    }
}
