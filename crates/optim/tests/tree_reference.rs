//! The tree kernel against a reference model.
//!
//! `reference` keeps the original row-major builder verbatim: one
//! `Vec<usize>` per node from `Iterator::partition`, a fresh `thresholds`
//! Vec per feature, a branchy split scan and a point-major forest
//! prediction. The production kernel (column-major copy, in-place stable
//! partition, a branch-free scan scoring four cuts per pass, self-loop
//! leaves walked in lockstep blocks) must grow node-for-node the same
//! trees and return bit-identical predictions for every tree family built
//! on it: CART, Extra Trees, random forest and the gradient-boosting
//! stages, on batches of any length and at NaN and infinite coordinates.
//! The forest's fused `fit_predict_many`, whose trees two threads grow,
//! must return exactly what `fit` followed by `predict_many` returns.

use e2c_optim::surrogate::{Forest, ForestParams, Gbrt, RegressionTree, Surrogate, TreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use e2c_optim::surrogate::{ForestParams, TreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    enum Node {
        Leaf {
            mean: f64,
        },
        Split {
            feature: usize,
            threshold: f64,
            left: usize,
            right: usize,
        },
    }

    pub struct RefTree {
        params: TreeParams,
        rng: StdRng,
        nodes: Vec<Node>,
        residual_std: f64,
    }

    impl RefTree {
        pub fn new(params: TreeParams, seed: u64) -> Self {
            RefTree {
                params,
                rng: StdRng::seed_from_u64(seed),
                nodes: Vec::new(),
                residual_std: 0.0,
            }
        }

        fn build(&mut self, x: &[Vec<f64>], y: &[f64], idx: Vec<usize>, depth: usize) -> usize {
            let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
            let sse: f64 = idx.iter().map(|&i| (y[i] - mean).powi(2)).sum();
            let stop = depth >= self.params.max_depth
                || idx.len() < self.params.min_samples_split
                || sse <= 1e-12;
            if stop {
                self.nodes.push(Node::Leaf { mean });
                return self.nodes.len() - 1;
            }
            match self.best_split(x, y, &idx) {
                None => {
                    self.nodes.push(Node::Leaf { mean });
                    self.nodes.len() - 1
                }
                Some((feature, threshold)) => {
                    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                        idx.into_iter().partition(|&i| x[i][feature] <= threshold);
                    if left_idx.len() < self.params.min_samples_leaf
                        || right_idx.len() < self.params.min_samples_leaf
                    {
                        self.nodes.push(Node::Leaf { mean });
                        return self.nodes.len() - 1;
                    }
                    let slot = self.nodes.len();
                    self.nodes.push(Node::Leaf { mean });
                    let left = self.build(x, y, left_idx, depth + 1);
                    let right = self.build(x, y, right_idx, depth + 1);
                    self.nodes[slot] = Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    slot
                }
            }
        }

        fn best_split(&mut self, x: &[Vec<f64>], y: &[f64], idx: &[usize]) -> Option<(usize, f64)> {
            let n_features = x[0].len();
            let k = ((n_features as f64 * self.params.max_features).ceil() as usize)
                .clamp(1, n_features);
            let mut features: Vec<usize> = (0..n_features).collect();
            for i in 0..k {
                let j = self.rng.gen_range(i..n_features);
                features.swap(i, j);
            }
            let mut best: Option<(f64, usize, f64)> = None;
            for &f in &features[..k] {
                let lo = idx.iter().map(|&i| x[i][f]).fold(f64::INFINITY, f64::min);
                let hi = idx
                    .iter()
                    .map(|&i| x[i][f])
                    .fold(f64::NEG_INFINITY, f64::max);
                if hi <= lo {
                    continue;
                }
                let thresholds: Vec<f64> = if self.params.random_threshold {
                    vec![lo + self.rng.gen::<f64>() * (hi - lo)]
                } else {
                    let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
                    vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
                    vals.dedup();
                    vals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
                };
                for t in thresholds {
                    let (mut nl, mut sl, mut ssl) = (0usize, 0.0, 0.0);
                    let (mut nr, mut sr, mut ssr) = (0usize, 0.0, 0.0);
                    for &i in idx {
                        let v = y[i];
                        if x[i][f] <= t {
                            nl += 1;
                            sl += v;
                            ssl += v * v;
                        } else {
                            nr += 1;
                            sr += v;
                            ssr += v * v;
                        }
                    }
                    if nl < self.params.min_samples_leaf || nr < self.params.min_samples_leaf {
                        continue;
                    }
                    let score = (ssl - sl * sl / nl as f64) + (ssr - sr * sr / nr as f64);
                    if best.is_none_or(|(b, _, _)| score < b) {
                        best = Some((score, f, t));
                    }
                }
            }
            best.map(|(_, f, t)| (f, t))
        }

        pub fn predict_one(&self, x: &[f64]) -> f64 {
            let mut node = 0;
            loop {
                match &self.nodes[node] {
                    Node::Leaf { mean } => return *mean,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        node = if x[*feature] <= *threshold {
                            *left
                        } else {
                            *right
                        };
                    }
                }
            }
        }

        pub fn node_count(&self) -> usize {
            self.nodes.len()
        }

        pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
            self.nodes.clear();
            let idx: Vec<usize> = (0..x.len()).collect();
            self.build(x, y, idx, 0);
            let sse: f64 = x
                .iter()
                .zip(y)
                .map(|(xi, &yi)| (self.predict_one(xi) - yi).powi(2))
                .sum();
            self.residual_std = (sse / x.len() as f64).sqrt();
        }

        pub fn predict(&self, x: &[f64]) -> (f64, f64) {
            (self.predict_one(x), self.residual_std)
        }
    }

    pub struct RefForest {
        params: ForestParams,
        seed: u64,
        trees: Vec<RefTree>,
    }

    impl RefForest {
        pub fn new(params: ForestParams, seed: u64) -> Self {
            RefForest {
                params,
                seed,
                trees: Vec::new(),
            }
        }

        fn moments(preds: &[f64]) -> (f64, f64) {
            let n = preds.len() as f64;
            let mean = preds.iter().sum::<f64>() / n;
            let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n;
            (mean, var.sqrt())
        }

        pub fn node_count(&self) -> usize {
            self.trees.iter().map(RefTree::node_count).sum()
        }

        pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
            self.trees.clear();
            let mut rng = StdRng::seed_from_u64(self.seed);
            for t in 0..self.params.n_trees {
                let tree_seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t as u64;
                let mut tree = RefTree::new(self.params.tree, tree_seed);
                if self.params.bootstrap {
                    let n = x.len();
                    let mut bx = Vec::with_capacity(n);
                    let mut by = Vec::with_capacity(n);
                    for _ in 0..n {
                        let i = rng.gen_range(0..n);
                        bx.push(x[i].clone());
                        by.push(y[i]);
                    }
                    tree.fit(&bx, &by);
                } else {
                    tree.fit(x, y);
                }
                self.trees.push(tree);
            }
        }

        pub fn predict(&self, x: &[f64]) -> (f64, f64) {
            let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(x).0).collect();
            Self::moments(&preds)
        }

        pub fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
            let mut preds = vec![0.0f64; self.trees.len()];
            xs.iter()
                .map(|x| {
                    for (slot, tree) in preds.iter_mut().zip(&self.trees) {
                        *slot = tree.predict(x).0;
                    }
                    Self::moments(&preds)
                })
                .collect()
        }
    }

    pub struct RefGbrt {
        n_estimators: usize,
        learning_rate: f64,
        seed: u64,
        base: f64,
        stages: Vec<RefTree>,
        residual_std: f64,
    }

    impl RefGbrt {
        pub fn new(n_estimators: usize, learning_rate: f64, seed: u64) -> Self {
            RefGbrt {
                n_estimators,
                learning_rate,
                seed,
                base: 0.0,
                stages: Vec::new(),
                residual_std: 0.0,
            }
        }

        pub fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
            self.stages.clear();
            self.base = y.iter().sum::<f64>() / y.len() as f64;
            let mut residual: Vec<f64> = y.iter().map(|&v| v - self.base).collect();
            let params = TreeParams {
                max_depth: 3,
                min_samples_leaf: 2,
                ..TreeParams::cart()
            };
            for stage in 0..self.n_estimators {
                let mut tree = RefTree::new(params, self.seed ^ (stage as u64) << 1);
                tree.fit(x, &residual);
                for (r, xi) in residual.iter_mut().zip(x) {
                    *r -= self.learning_rate * tree.predict(xi).0;
                }
                self.stages.push(tree);
                let sse: f64 = residual.iter().map(|r| r * r).sum();
                if sse / x.len() as f64 <= 1e-12 {
                    break;
                }
            }
            let mse: f64 = residual.iter().map(|r| r * r).sum::<f64>() / x.len() as f64;
            self.residual_std = mse.sqrt();
        }

        pub fn predict(&self, x: &[f64]) -> (f64, f64) {
            let mut acc = self.base;
            for tree in &self.stages {
                acc += self.learning_rate * tree.predict(x).0;
            }
            (acc, self.residual_std)
        }
    }
}

use reference::{RefForest, RefGbrt, RefTree};

/// One generated training set plus probe points.
struct Data {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    probes: Vec<Vec<f64>>,
}

/// `n` rows of `d` features. `shape` picks the feature and target kind:
/// bit 0 — integer-grid features (many duplicates, signed zeros) vs real
/// features with duplicated rows; bit 1 — a duplicated column (equal split scores, so
/// the tie-break decides); bits 2..3 — constant, smooth, integer-valued
/// or partly constant targets.
fn data(n: usize, d: usize, shape: u32, seed: u64) -> Data {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = rng.gen_range(2..9u32) as f64;
    let feature = |rng: &mut StdRng| {
        if shape & 1 == 0 {
            // A quarter of the grid values flip sign, so the columns mix
            // -0.0 and +0.0 as well as repeated values.
            let v = (rng.gen_range(0..=grid as u32) as f64) / grid;
            if rng.gen::<f64>() < 0.25 {
                -v
            } else {
                v
            }
        } else {
            rng.gen::<f64>()
        }
    };
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        if !x.is_empty() && shape & 1 == 1 && rng.gen::<f64>() < 0.15 {
            let j = rng.gen_range(0..x.len());
            let row = x[j].clone();
            x.push(row);
            continue;
        }
        let mut row: Vec<f64> = (0..d).map(|_| feature(&mut rng)).collect();
        if shape & 2 == 2 && d > 1 {
            row[d - 1] = row[0];
        }
        x.push(row);
    }
    let level = rng.gen_range(-3.0..3.0);
    let y = x
        .iter()
        .map(|p| match (shape >> 2) & 3 {
            0 => level,
            1 => {
                p.iter()
                    .enumerate()
                    .map(|(f, v)| ((f + 1) as f64 * v).sin())
                    .sum::<f64>()
                    + 0.05 * rng.gen::<f64>()
            }
            2 => (p[0] * 4.0).round() - (p[d - 1] * 3.0).round(),
            _ => {
                if p[0] < 0.5 {
                    level
                } else {
                    level + p.iter().sum::<f64>()
                }
            }
        })
        .collect();
    // Probes with a NaN or infinite coordinate come first, so short
    // batches walk them too; NaN compares false and goes right.
    let mut probes: Vec<Vec<f64>> = Vec::new();
    for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let mut p: Vec<f64> = (0..d).map(|_| rng.gen_range(-0.1..1.1)).collect();
        p[rng.gen_range(0..d)] = special;
        probes.push(p);
    }
    probes.extend(x.iter().take(16).cloned());
    for _ in 0..32 {
        probes.push((0..d).map(|_| rng.gen_range(-0.1..1.1)).collect());
    }
    Data { x, y, probes }
}

/// The GBRT stage parameters (`Gbrt::fit` grows these).
fn gbrt_stage() -> TreeParams {
    TreeParams {
        max_depth: 3,
        min_samples_leaf: 2,
        ..TreeParams::cart()
    }
}

fn tree_params(which: u32) -> TreeParams {
    match which % 6 {
        0 => TreeParams::cart(),
        1 => TreeParams::extra(),
        2 => gbrt_stage(),
        3 => TreeParams {
            max_features: 0.5,
            ..TreeParams::extra()
        },
        // Shallow enough that most trees stop at the depth limit.
        4 => TreeParams {
            max_depth: 2,
            ..TreeParams::extra()
        },
        _ => TreeParams {
            min_samples_leaf: 3,
            min_samples_split: 5,
            max_features: 0.6,
            ..TreeParams::cart()
        },
    }
}

/// Batch lengths around the 16-row prediction block (`usize::MAX`: every
/// probe).
const BATCHES: [usize; 6] = [0, 1, 15, 17, 33, usize::MAX];

fn bits(p: (f64, f64)) -> (u64, u64) {
    (p.0.to_bits(), p.1.to_bits())
}

/// 96 cases per property, unless `PROPTEST_CASES` sets the count (CI
/// runs 2000).
fn config() -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(96)
    }
}

proptest! {
    #![proptest_config(config())]

    /// A single tree, every parameter family: same node count, and the
    /// same `(mean, residual std)` bits at training rows and off-data
    /// probes. Fitting twice advances the tree's own RNG the same way.
    #[test]
    fn tree_matches_the_reference_builder(
        n in 1usize..400,
        d in 1usize..6,
        shape in 0u32..16,
        which in 0u32..6,
        seed in 0u64..1_000_000
    ) {
        let data = data(n, d, shape, seed);
        let params = tree_params(which);
        let mut tree = RegressionTree::new(params, seed ^ 0x5eed);
        let mut model = RefTree::new(params, seed ^ 0x5eed);
        for round in 0..2 {
            tree.fit(&data.x, &data.y);
            model.fit(&data.x, &data.y);
            prop_assert_eq!(tree.node_count(), model.node_count(), "round {}", round);
            for p in &data.probes {
                prop_assert_eq!(bits(tree.predict(p)), bits(model.predict(p)), "at {:?}", p);
            }
            let many = tree.predict_many(&data.probes);
            for (got, p) in many.iter().zip(&data.probes) {
                prop_assert_eq!(bits(*got), bits(model.predict(p)));
            }
        }
    }

    /// Extra Trees and random forests: same total node count and
    /// bit-identical `predict` and `predict_many`, on batches that fill
    /// no block, part of one, or whole blocks plus a tail.
    #[test]
    fn forest_matches_the_reference_ensemble(
        n in 1usize..400,
        d in 1usize..6,
        shape in 0u32..16,
        bootstrap in any::<bool>(),
        which in 0u32..6,
        batch in 0usize..BATCHES.len(),
        seed in 0u64..1_000_000
    ) {
        let data = data(n, d, shape, seed);
        let params = ForestParams {
            n_trees: 1 + (seed % 7) as usize,
            bootstrap,
            tree: tree_params(which),
        };
        let mut forest = Forest::new(params, seed);
        let mut model = RefForest::new(params, seed);
        forest.fit(&data.x, &data.y);
        model.fit(&data.x, &data.y);
        prop_assert_eq!(forest.node_count(), model.node_count());
        let probes = &data.probes[..BATCHES[batch].min(data.probes.len())];
        let want = model.predict_many(probes);
        let got = forest.predict_many(probes);
        prop_assert_eq!(got.len(), want.len());
        for ((g, w), p) in got.iter().zip(&want).zip(probes) {
            prop_assert_eq!(bits(*g), bits(*w), "at {:?}", p);
            prop_assert_eq!(bits(forest.predict(p)), bits(model.predict(p)));
        }
    }

    /// Gradient boosting: every stage grows through the new builder on
    /// the shared column copy; predictions and the residual std agree.
    #[test]
    fn gbrt_matches_the_reference_stages(
        n in 1usize..300,
        d in 1usize..6,
        shape in 0u32..16,
        seed in 0u64..1_000_000
    ) {
        let data = data(n, d, shape, seed);
        let stages = 1 + (seed % 12) as usize;
        let mut gbrt = Gbrt::new(stages, 0.1, seed);
        let mut model = RefGbrt::new(stages, 0.1, seed);
        gbrt.fit(&data.x, &data.y);
        model.fit(&data.x, &data.y);
        for p in &data.probes {
            prop_assert_eq!(bits(gbrt.predict(p)), bits(model.predict(p)), "at {:?}", p);
        }
    }
}

/// Batch lengths for the fused fit: none, one row, either side of the
/// 16-row prediction block, and the optimizer's 512-candidate pool.
const FUSED_BATCHES: [usize; 5] = [0, 1, 15, 17, 512];

/// `len` probes of `d` coordinates: the data's probes first (the NaN and
/// infinite ones lead), then uniform points around the unit cube.
fn probe_batch(data: &Data, d: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c);
    let mut probes: Vec<Vec<f64>> = data.probes.iter().take(len).cloned().collect();
    while probes.len() < len {
        probes.push((0..d).map(|_| rng.gen_range(-0.1..1.1)).collect());
    }
    probes
}

proptest! {
    #![proptest_config(config())]

    /// The fused fit the optimizer's ask takes: `fit_predict_many`
    /// returns exactly what `fit` followed by `predict_many` returns, each
    /// row equals `predict` bit for bit, and the fused model is left
    /// fitted with the same trees, whichever thread grew them.
    #[test]
    fn fused_fit_matches_fit_then_predict(
        n in 1usize..400,
        d in 1usize..6,
        shape in 0u32..16,
        bootstrap in any::<bool>(),
        batch in 0usize..FUSED_BATCHES.len(),
        seed in 0u64..1_000_000
    ) {
        let data = data(n, d, shape, seed);
        let probes = probe_batch(&data, d, FUSED_BATCHES[batch], seed);
        let n_trees = 1 + (seed % 12) as usize;
        let build = || if bootstrap {
            Forest::random_forest(n_trees, seed)
        } else {
            Forest::extra_trees(n_trees, seed)
        };
        let mut fused = build();
        let got = fused.fit_predict_many(&data.x, &data.y, &probes);
        let mut plain = build();
        plain.fit(&data.x, &data.y);
        let want = plain.predict_many(&probes);
        prop_assert_eq!(fused.node_count(), plain.node_count());
        prop_assert_eq!(got.len(), want.len());
        for ((g, w), p) in got.iter().zip(&want).zip(&probes) {
            prop_assert_eq!(bits(*g), bits(*w), "at {:?}", p);
            prop_assert_eq!(bits(*g), bits(plain.predict(p)), "at {:?}", p);
            prop_assert_eq!(bits(fused.predict(p)), bits(plain.predict(p)), "at {:?}", p);
        }
    }
}

/// The paper's configuration at the size the short-trial workload reaches:
/// a 50-tree Extra-Trees forest on 320 rows of the 4-integer space
/// (unit-scaled), ranked over a 512-candidate pool.
#[test]
fn paper_sized_extra_trees_matches_the_reference() {
    let mut rng = StdRng::seed_from_u64(320);
    let unit = |rng: &mut StdRng, hi: u32| rng.gen_range(0..=hi) as f64 / hi as f64;
    let x: Vec<Vec<f64>> = (0..320)
        .map(|_| {
            vec![
                unit(&mut rng, 40),
                unit(&mut rng, 40),
                unit(&mut rng, 40),
                unit(&mut rng, 6),
            ]
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|p| (p[0] - 0.5).powi(2) + (p[1] - 0.3).powi(2) + (p[3] - 0.5).abs())
        .collect();
    let pool: Vec<Vec<f64>> = (0..512)
        .map(|_| (0..4).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let params = ForestParams {
        n_trees: 50,
        bootstrap: false,
        tree: TreeParams::extra(),
    };
    let mut forest = Forest::extra_trees(50, 11);
    let mut model = RefForest::new(params, 11);
    forest.fit(&x, &y);
    model.fit(&x, &y);
    assert_eq!(forest.node_count(), model.node_count());
    let got = forest.predict_many(&pool);
    let want = model.predict_many(&pool);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(bits(*g), bits(*w));
    }
}
