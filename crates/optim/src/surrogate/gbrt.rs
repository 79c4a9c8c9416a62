//! Gradient-boosted regression trees (squared loss).
//!
//! Stage-wise fitting of shallow CART trees on the residuals. Uncertainty:
//! the residual standard deviation after the final stage — a cruder
//! estimate than the quantile-ensemble trick scikit-optimize uses, but
//! sufficient for acquisition ranking (documented substitution).

use super::tree::{Columns, RegressionTree, TreeParams};
use super::Surrogate;

/// Gradient boosting machine for regression.
pub struct Gbrt {
    n_estimators: usize,
    learning_rate: f64,
    seed: u64,
    base: f64,
    stages: Vec<RegressionTree>,
    residual_std: f64,
}

impl Gbrt {
    /// `n_estimators` depth-3 trees with the given shrinkage.
    pub fn new(n_estimators: usize, learning_rate: f64, seed: u64) -> Self {
        assert!(n_estimators > 0, "need at least one stage");
        assert!(
            learning_rate > 0.0 && learning_rate <= 1.0,
            "learning rate must be in (0, 1]"
        );
        Gbrt {
            n_estimators,
            learning_rate,
            seed,
            base: 0.0,
            stages: Vec::new(),
            residual_std: 0.0,
        }
    }

    fn raw_predict(&self, x: &[f64]) -> f64 {
        let mut acc = self.base;
        for tree in &self.stages {
            acc += self.learning_rate * tree.predict_one(x);
        }
        acc
    }
}

impl Surrogate for Gbrt {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        self.stages.clear();
        self.base = y.iter().sum::<f64>() / y.len() as f64;
        let mut residual: Vec<f64> = y.iter().map(|&v| v - self.base).collect();
        let cols = Columns::from_rows(x);
        let params = TreeParams {
            max_depth: 3,
            min_samples_leaf: 2,
            ..TreeParams::cart()
        };
        for stage in 0..self.n_estimators {
            let mut tree = RegressionTree::new(params, self.seed ^ (stage as u64) << 1);
            tree.grow(&cols, &residual);
            for (r, xi) in residual.iter_mut().zip(x) {
                *r -= self.learning_rate * tree.predict_one(xi);
            }
            self.stages.push(tree);
            // Early stop once residuals vanish (pure training fit).
            let sse: f64 = residual.iter().map(|r| r * r).sum();
            if sse / x.len() as f64 <= 1e-12 {
                break;
            }
        }
        let mse: f64 = residual.iter().map(|r| r * r).sum::<f64>() / x.len() as f64;
        self.residual_std = mse.sqrt();
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert!(!self.stages.is_empty(), "predict before fit");
        (self.raw_predict(x), self.residual_std)
    }

    fn is_fitted(&self) -> bool {
        !self.stages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fits_linear_function_closely() {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..200).map(|_| vec![rng.gen::<f64>()]).collect();
        let y: Vec<f64> = x.iter().map(|p| 3.0 * p[0] - 1.0).collect();
        let mut m = Gbrt::new(200, 0.1, 0);
        m.fit(&x, &y);
        for probe in [0.1, 0.5, 0.9] {
            let (pred, _) = m.predict(&[probe]);
            assert!((pred - (3.0 * probe - 1.0)).abs() < 0.1, "{probe}: {pred}");
        }
    }

    #[test]
    fn boosting_reduces_residuals_with_stages() {
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<Vec<f64>> = (0..150).map(|_| vec![rng.gen(), rng.gen()]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 4.0).sin() + p[1]).collect();
        let mut few = Gbrt::new(5, 0.1, 0);
        let mut many = Gbrt::new(150, 0.1, 0);
        few.fit(&x, &y);
        many.fit(&x, &y);
        assert!(
            many.predict(&[0.5, 0.5]).1 < few.predict(&[0.5, 0.5]).1,
            "more stages must shrink the residual std"
        );
    }

    #[test]
    fn constant_target_is_base_value() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![4.0; 10];
        let mut m = Gbrt::new(50, 0.1, 0);
        m.fit(&x, &y);
        let (pred, std) = m.predict(&[100.0]);
        assert!((pred - 4.0).abs() < 1e-9);
        assert!(std < 1e-6);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn invalid_learning_rate_rejected() {
        Gbrt::new(10, 0.0, 0);
    }
}
