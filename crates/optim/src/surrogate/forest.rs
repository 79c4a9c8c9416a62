//! Tree ensembles: Random Forest and Extra Trees.
//!
//! The ensemble's predictive mean is the average of tree predictions, and
//! its uncertainty is the spread across trees — points far from the
//! training data land in different leaves per tree, widening the spread.
//! This is exactly how scikit-optimize derives `std` from its `ET`/`RF`
//! base estimators.

use super::tree::{Columns, RegressionTree, TreeParams};
use super::Surrogate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ensemble configuration.
#[derive(Debug, Clone, Copy)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Bootstrap-resample the training set per tree (random forest) or
    /// train each tree on the full data (extra trees).
    pub bootstrap: bool,
    /// Per-tree construction parameters.
    pub tree: TreeParams,
}

/// A bagged ensemble of regression trees.
pub struct Forest {
    params: ForestParams,
    seed: u64,
    trees: Vec<RegressionTree>,
}

impl Forest {
    /// Generic constructor.
    pub fn new(params: ForestParams, seed: u64) -> Self {
        assert!(params.n_trees > 0, "need at least one tree");
        Forest {
            params,
            seed,
            trees: Vec::new(),
        }
    }

    /// The paper's `base_estimator='ET'`: randomized thresholds, full
    /// training set per tree.
    pub fn extra_trees(n_trees: usize, seed: u64) -> Self {
        Forest::new(
            ForestParams {
                n_trees,
                bootstrap: false,
                tree: TreeParams::extra(),
            },
            seed,
        )
    }

    /// Classic random forest: best splits on bootstrap resamples.
    pub fn random_forest(n_trees: usize, seed: u64) -> Self {
        Forest::new(
            ForestParams {
                n_trees,
                bootstrap: true,
                tree: TreeParams::cart(),
            },
            seed,
        )
    }

    /// Total node count over all trees (for tests/diagnostics).
    pub fn node_count(&self) -> usize {
        self.trees.iter().map(RegressionTree::node_count).sum()
    }

    /// Ensemble mean and spread over per-tree predictions.
    fn moments(preds: &[f64]) -> (f64, f64) {
        let n = preds.len() as f64;
        let mean = preds.iter().sum::<f64>() / n;
        let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }
}

impl Surrogate for Forest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        self.trees.clear();
        let cols = Columns::from_rows(x);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (mut draws, mut by) = (Vec::new(), Vec::new());
        for t in 0..self.params.n_trees {
            let tree_seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t as u64;
            let mut tree = RegressionTree::new(self.params.tree, tree_seed);
            if self.params.bootstrap {
                let n = x.len();
                draws.clear();
                draws.extend((0..n).map(|_| rng.gen_range(0..n)));
                by.clear();
                by.extend(draws.iter().map(|&i| y[i]));
                tree.grow(&cols.select(&draws), &by);
            } else {
                tree.grow(&cols, y);
            }
            self.trees.push(tree);
        }
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert!(!self.trees.is_empty(), "predict before fit");
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict_one(x)).collect();
        Self::moments(&preds)
    }

    fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        assert!(!self.trees.is_empty(), "predict before fit");
        if xs.is_empty() {
            return Vec::new();
        }
        // Tree-major: the batch is transposed once, and each tree walks
        // all of it in blocks while its nodes are hot in cache, filling a
        // [tree][point] table. The moments then read each point's
        // predictions in tree order, exactly as `predict` does, so both
        // paths return bit-identical values.
        let batch = Columns::blocks(xs);
        let n = batch.n_rows();
        let mut table = vec![0.0f64; n * self.trees.len()];
        for (tree, out) in self.trees.iter().zip(table.chunks_exact_mut(n)) {
            tree.predict_blocks(&batch, out);
        }
        let mut preds = vec![0.0f64; self.trees.len()];
        (0..xs.len())
            .map(|i| {
                for (p, column) in preds.iter_mut().zip(table.chunks_exact(n)) {
                    *p = column[i];
                }
                Self::moments(&preds)
            })
            .collect()
    }

    fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy_sine(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen::<f64>()]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| (p[0] * 6.0).sin() + 0.05 * rng.gen::<f64>())
            .collect();
        (x, y)
    }

    #[test]
    fn extra_trees_fits_sine() {
        let (x, y) = noisy_sine(300, 1);
        let mut f = Forest::extra_trees(30, 5);
        f.fit(&x, &y);
        for probe in [0.1, 0.4, 0.8] {
            let (m, _) = f.predict(&[probe]);
            let truth = (probe * 6.0f64).sin();
            assert!((m - truth).abs() < 0.25, "at {probe}: {m} vs {truth}");
        }
    }

    #[test]
    fn random_forest_fits_sine() {
        let (x, y) = noisy_sine(300, 2);
        let mut f = Forest::random_forest(30, 5);
        f.fit(&x, &y);
        let (m, _) = f.predict(&[0.5]);
        let truth = (0.5f64 * 6.0).sin();
        assert!((m - truth).abs() < 0.25, "{m} vs {truth}");
    }

    #[test]
    fn ensemble_spread_peaks_at_ambiguity() {
        // Trees disagree most where the target is steepest: for a step at
        // 0.5, the per-tree split thresholds scatter around the boundary,
        // so the ensemble spread at 0.5 must exceed the spread deep inside
        // a flat region. (Note tree ensembles extrapolate *constants*
        // off-data — "more uncertainty far away" is a GP property, not a
        // forest property.)
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<Vec<f64>> = (0..150).map(|_| vec![rng.gen::<f64>()]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| if p[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let mut f = Forest::extra_trees(40, 9);
        f.fit(&x, &y);
        let (_, s_boundary) = f.predict(&[0.5]);
        let (_, s_flat) = f.predict(&[0.1]);
        assert!(
            s_boundary > s_flat,
            "boundary {s_boundary} <= flat {s_flat}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_sine(100, 4);
        let mut a = Forest::extra_trees(10, 77);
        let mut b = Forest::extra_trees(10, 77);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict(&[0.3]), b.predict(&[0.3]));
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = noisy_sine(100, 4);
        let mut a = Forest::extra_trees(10, 1);
        let mut b = Forest::extra_trees(10, 2);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_ne!(a.predict(&[0.3]), b.predict(&[0.3]));
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        Forest::new(
            ForestParams {
                n_trees: 0,
                bootstrap: false,
                tree: TreeParams::extra(),
            },
            0,
        );
    }
}
