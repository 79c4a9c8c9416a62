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
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

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

    /// The moments of the first `n` points of a `[tree][point]` table.
    /// Each point's predictions are read in tree order, exactly as
    /// `predict` reads them, so both paths return bit-identical values.
    fn moments_of(table: &[Vec<f64>], n: usize) -> Vec<(f64, f64)> {
        let mut preds = vec![0.0f64; table.len()];
        (0..n)
            .map(|i| {
                for (p, column) in preds.iter_mut().zip(table) {
                    *p = column[i];
                }
                Self::moments(&preds)
            })
            .collect()
    }

    /// Replace the ensemble with trees grown on `x`, `y` and, when a
    /// `batch` is given, return its `[tree][point]` prediction table.
    ///
    /// Growing tree `t` and walking the batch through it is one work
    /// item; the calling thread and one helper pull items from a shared
    /// counter ([`steal_each`]). Every tree draws from its own seeded RNG
    /// and the bootstrap samples are drawn up front from the forest's
    /// RNG in tree order, so which thread grows a tree changes nothing.
    fn grow(&mut self, x: &[Vec<f64>], y: &[f64], batch: Option<&Columns>) -> Vec<Vec<f64>> {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let cols = Columns::from_rows(x);
        let n = x.len();
        let (params, seed) = (self.params, self.seed);
        let draws: Vec<usize> = if params.bootstrap {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n * params.n_trees)
                .map(|_| rng.gen_range(0..n))
                .collect()
        } else {
            Vec::new()
        };
        // The trees and their prediction columns are allocated here, at
        // their final sizes (every split leaves rows on both sides, so a
        // tree of n rows has at most 2n − 1 nodes): buffers the helper
        // allocated would keep their pages in a malloc arena of its own.
        let mut trees: Vec<RegressionTree> = (0..params.n_trees)
            .map(|t| {
                let tree_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t as u64;
                RegressionTree::with_node_capacity(params.tree, tree_seed, 2 * n - 1)
            })
            .collect();
        let rows = batch.map_or(0, Columns::n_rows);
        let mut table: Vec<Vec<f64>> = (0..params.n_trees).map(|_| vec![0.0; rows]).collect();
        let slots: Vec<Mutex<(&mut RegressionTree, &mut Vec<f64>)>> =
            trees.iter_mut().zip(&mut table).map(Mutex::new).collect();
        steal_each(params.n_trees, |t| {
            let mut slot = slots[t].lock().unwrap_or_else(PoisonError::into_inner);
            let (tree, column) = &mut *slot;
            if params.bootstrap {
                let draws = &draws[t * n..(t + 1) * n];
                let by: Vec<f64> = draws.iter().map(|&i| y[i]).collect();
                tree.grow(&cols.select(draws), &by);
            } else {
                tree.grow(&cols, y);
            }
            if let Some(batch) = batch {
                tree.predict_blocks(batch, column);
            }
        });
        drop(slots);
        self.trees = trees;
        table
    }
}

/// `work(i)` for every `i` in `0..n`. The calling thread and one scoped
/// helper pull indices from a shared counter, so a thread slowed by other
/// work on the machine simply takes fewer items; on a single-CPU host
/// everything runs inline. A helper's panic is re-raised with its
/// original payload.
fn steal_each(n: usize, work: impl Fn(usize) + Sync) {
    if n < 2 || parallelism() < 2 {
        return (0..n).for_each(work);
    }
    let next = AtomicUsize::new(0);
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        work(i);
    };
    std::thread::scope(|s| {
        let helper = s.spawn(drain);
        drain();
        helper.join()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
}

/// The CPUs this process may run on, read once.
fn parallelism() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

impl Surrogate for Forest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        self.grow(x, y, None);
    }

    fn fit_predict_many(&mut self, x: &[Vec<f64>], y: &[f64], xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        if xs.is_empty() {
            self.fit(x, y);
            return Vec::new();
        }
        let batch = Columns::blocks(xs);
        let table = self.grow(x, y, Some(&batch));
        Self::moments_of(&table, xs.len())
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
        // all of it in blocks while its nodes are hot in cache.
        let batch = Columns::blocks(xs);
        let table: Vec<Vec<f64>> = self
            .trees
            .iter()
            .map(|tree| {
                let mut column = vec![0.0f64; batch.n_rows()];
                tree.predict_blocks(&batch, &mut column);
                column
            })
            .collect();
        Self::moments_of(&table, xs.len())
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
    fn every_item_is_worked_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        steal_each(200, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        steal_each(0, |_| unreachable!("no items"));
    }

    #[test]
    fn a_panicking_work_item_re_raises_its_own_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(usize);
        // Whichever thread takes item 5, the caller sees its payload.
        let caught = std::panic::catch_unwind(|| {
            steal_each(16, |i| {
                if i == 5 {
                    std::panic::panic_any(Payload(i));
                }
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<Payload>(), Some(&Payload(5)));
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
