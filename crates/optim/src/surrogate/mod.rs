//! Surrogate regression models with predictive uncertainty.
//!
//! Phase II of the methodology lists the surrogate candidates: Gaussian
//! process (Kriging), decision trees, random forest, gradient-boosted
//! trees, SVM, and polynomial regression; the paper's experiments use
//! **Extra Trees** (`base_estimator='ET'` in Listing 1). All are
//! implemented here behind one [`Surrogate`] trait.
//!
//! Models are trained on inputs normalized to the unit hypercube (the
//! Bayesian optimizer handles the mapping), which keeps kernel
//! length-scales and tree thresholds comparable across dimensions.

mod forest;
mod gbrt;
mod gp;
mod kernel_ridge;
mod poly;
mod tree;

pub use forest::{Forest, ForestParams};
pub use gbrt::Gbrt;
pub use gp::{GaussianProcess, Kernel};
pub use kernel_ridge::KernelRidge;
pub use poly::Polynomial;
pub use tree::{RegressionTree, TreeParams};

/// A regression model exposing a predictive mean and standard deviation.
pub trait Surrogate: Send {
    /// Fit on rows `x` (all the same length) with targets `y`.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]);

    /// Predict `(mean, std)` at a point. `std` is the model's epistemic
    /// uncertainty estimate (ensemble spread, GP posterior, or residual
    /// scale depending on the model).
    fn predict(&self, x: &[f64]) -> (f64, f64);

    /// Predict `(mean, std)` for every row of `xs`. The default simply
    /// forwards to [`Surrogate::predict`]; models override it to amortize
    /// per-call overhead (e.g. the forest transposes the batch once and
    /// walks each tree over blocks of rows in lockstep). Overrides must
    /// return bit-identical values to the per-point path — the Bayesian
    /// optimizer's replay determinism depends on it.
    fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Fit on `x`, `y`, then predict every row of `xs`: what
    /// [`Surrogate::fit`] followed by [`Surrogate::predict_many`] returns,
    /// bit for bit. The model stays fitted for later `predict` calls.
    /// The forest overrides it to grow each tree and walk the batch
    /// through it as one work item.
    fn fit_predict_many(&mut self, x: &[Vec<f64>], y: &[f64], xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        self.fit(x, y);
        self.predict_many(xs)
    }

    /// Whether `fit` has been called with at least one sample.
    fn is_fitted(&self) -> bool;
}

/// The surrogate families available by name (configuration files use these
/// identifiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateKind {
    /// Extra Trees ensemble — the paper's `base_estimator='ET'`.
    ExtraTrees,
    /// Random forest (bootstrap + best-split trees).
    RandomForest,
    /// A single CART regression tree.
    Cart,
    /// Gradient-boosted regression trees.
    Gbrt,
    /// Gaussian process with an RBF kernel (Kriging).
    GpRbf,
    /// Gaussian process with a Matérn 5/2 kernel.
    GpMatern,
    /// Kernel ridge regression — the SVR stand-in (see DESIGN.md).
    KernelRidge,
    /// Degree-2 polynomial least squares.
    Polynomial,
}

impl SurrogateKind {
    /// Instantiate the model with sensible defaults and a seed for any
    /// internal randomness.
    pub fn build(&self, seed: u64) -> Box<dyn Surrogate> {
        match self {
            SurrogateKind::ExtraTrees => Box::new(Forest::extra_trees(50, seed)),
            SurrogateKind::RandomForest => Box::new(Forest::random_forest(50, seed)),
            SurrogateKind::Cart => Box::new(RegressionTree::new(TreeParams::cart(), seed)),
            SurrogateKind::Gbrt => Box::new(Gbrt::new(100, 0.1, seed)),
            SurrogateKind::GpRbf => Box::new(GaussianProcess::new(Kernel::Rbf, 1e-6)),
            SurrogateKind::GpMatern => Box::new(GaussianProcess::new(Kernel::Matern52, 1e-6)),
            SurrogateKind::KernelRidge => Box::new(KernelRidge::new(1e-3)),
            SurrogateKind::Polynomial => Box::new(Polynomial::quadratic()),
        }
    }

    /// Every kind, for ablation sweeps.
    pub fn all() -> [SurrogateKind; 8] {
        [
            SurrogateKind::ExtraTrees,
            SurrogateKind::RandomForest,
            SurrogateKind::Cart,
            SurrogateKind::Gbrt,
            SurrogateKind::GpRbf,
            SurrogateKind::GpMatern,
            SurrogateKind::KernelRidge,
            SurrogateKind::Polynomial,
        ]
    }

    /// Stable identifier.
    pub fn name(&self) -> &'static str {
        match self {
            SurrogateKind::ExtraTrees => "extra_trees",
            SurrogateKind::RandomForest => "random_forest",
            SurrogateKind::Cart => "cart",
            SurrogateKind::Gbrt => "gbrt",
            SurrogateKind::GpRbf => "gp",
            SurrogateKind::GpMatern => "gp_matern",
            SurrogateKind::KernelRidge => "kernel_ridge",
            SurrogateKind::Polynomial => "poly",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Quadratic bowl with minimum at (0.3, 0.7).
    fn bowl(x: &[f64]) -> f64 {
        (x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2)
    }

    fn training_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| bowl(p)).collect();
        (x, y)
    }

    #[test]
    fn every_kind_fits_and_predicts_the_bowl() {
        let (x, y) = training_data(120, 42);
        for kind in SurrogateKind::all() {
            let mut model = kind.build(7);
            assert!(!model.is_fitted(), "{kind:?} claims fitted before fit");
            model.fit(&x, &y);
            assert!(model.is_fitted());
            // At the known minimum the prediction must be small; far away
            // it must be larger.
            let (near, std_near) = model.predict(&[0.3, 0.7]);
            let (far, _) = model.predict(&[1.0, 0.0]);
            assert!(near < far, "{kind:?}: near={near:.4} !< far={far:.4}");
            assert!(std_near >= 0.0, "{kind:?}: negative std");
            assert!(near.is_finite() && far.is_finite(), "{kind:?}");
        }
    }

    #[test]
    fn gp_reports_more_uncertainty_off_data() {
        // Train on the left half of the cube only; the GP posterior std at
        // an unseen point must exceed the on-data std. (Tree ensembles
        // extrapolate constants, so this property is GP-specific.)
        let mut rng = StdRng::seed_from_u64(9);
        let x: Vec<Vec<f64>> = (0..100)
            .map(|_| vec![rng.gen::<f64>() * 0.5, rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| bowl(p)).collect();
        for kind in [SurrogateKind::GpRbf, SurrogateKind::GpMatern] {
            let mut model = kind.build(1);
            model.fit(&x, &y);
            let (_, std_on) = model.predict(&[0.25, 0.5]);
            let (_, std_off) = model.predict(&[0.95, 0.5]);
            assert!(
                std_off > std_on,
                "{kind:?}: off-data std {std_off:.4} not above on-data {std_on:.4}"
            );
        }
    }
}
