//! CART-style regression trees, with the randomized-split variant used by
//! Extra Trees.

use super::Surrogate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tree construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum depth (root = 0).
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Leaves keep at least this many samples.
    pub min_samples_leaf: usize,
    /// Fraction of features considered at each split (1.0 = all).
    pub max_features: f64,
    /// Extra-Trees mode: draw one uniform random threshold per candidate
    /// feature instead of scanning for the best cut point.
    pub random_threshold: bool,
}

impl TreeParams {
    /// Classic CART: exhaustive best-split search over all features.
    pub fn cart() -> Self {
        TreeParams {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: 1.0,
            random_threshold: false,
        }
    }

    /// An Extra-Trees member: random thresholds, all features considered.
    pub fn extra() -> Self {
        TreeParams {
            random_threshold: true,
            ..TreeParams::cart()
        }
    }
}

/// Training features stored column-major: `column(f)[i]` is feature `f`
/// of row `i`. A fit makes one such copy of its rows; every tree of a
/// forest and every boosting stage grows on it, so split scans read
/// contiguous columns instead of chasing one pointer per row.
pub(crate) struct Columns {
    n_rows: usize,
    data: Vec<f64>,
}

impl Columns {
    /// Transpose `x` (rows of equal length, at least one row).
    pub(crate) fn from_rows(x: &[Vec<f64>]) -> Self {
        Columns::transpose(x, x.len())
    }

    /// Transpose a prediction batch `x` (at least one row) with its row
    /// count rounded up to whole blocks of [`BLOCK`]; the padding rows are
    /// zeros whose predictions nobody reads.
    pub(crate) fn blocks(x: &[Vec<f64>]) -> Self {
        Columns::transpose(x, x.len().div_ceil(BLOCK) * BLOCK)
    }

    fn transpose(x: &[Vec<f64>], n_rows: usize) -> Self {
        let n_features = x[0].len();
        let mut data = vec![0.0; n_rows * n_features];
        for (i, row) in x.iter().enumerate() {
            for f in 0..n_features {
                data[f * n_rows + i] = row[f];
            }
        }
        Columns { n_rows, data }
    }

    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The rows `rows` in that order, repeats included (a bootstrap
    /// resample).
    pub(crate) fn select(&self, rows: &[usize]) -> Self {
        let mut data = Vec::with_capacity(rows.len() * self.n_features());
        for column in self.data.chunks_exact(self.n_rows) {
            data.extend(rows.iter().map(|&i| column[i]));
        }
        Columns {
            n_rows: rows.len(),
            data,
        }
    }

    fn n_features(&self) -> usize {
        self.data.len() / self.n_rows
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.data[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// One node of the tree, stored in pre-order.
///
/// A leaf is a self-loop: feature 0 and both children pointing at
/// itself. A descent can therefore take exactly the tree's height in
/// steps from any row, ending on its leaf whichever way the last
/// comparisons went, so a batch of rows walks in lockstep.
#[derive(Clone, Copy)]
struct Node {
    /// Split threshold (`x[feature] <= value` goes left), or the leaf
    /// mean.
    value: f64,
    /// Split feature (0 for a leaf).
    feature: u32,
    /// `[left, right]` child indices, or the node's own index twice for a
    /// leaf. Indexing them by the comparison keeps the descent free of
    /// data-dependent branches.
    children: [u32; 2],
}

impl Node {
    /// The child a row with `x` in this node's feature descends to. NaN
    /// compares false, so it goes right.
    fn next(&self, x: f64) -> u32 {
        let left = x <= self.value;
        self.children[usize::from(!left)]
    }
}

/// Rows a batch prediction walks through a tree together: enough
/// independent descents to hide each step's load latency.
const BLOCK: usize = 16;

/// A single regression tree.
pub struct RegressionTree {
    params: TreeParams,
    rng: StdRng,
    nodes: Vec<Node>,
    /// Depth of the deepest leaf: the steps every descent takes.
    height: usize,
    fitted: bool,
    /// Training-residual std, reported as the (weak) uncertainty of a
    /// single tree.
    residual_std: f64,
}

impl RegressionTree {
    /// New unfitted tree.
    pub fn new(params: TreeParams, seed: u64) -> Self {
        RegressionTree {
            params,
            rng: StdRng::seed_from_u64(seed),
            nodes: Vec::new(),
            height: 0,
            fitted: false,
            residual_std: 0.0,
        }
    }

    /// New unfitted tree whose node list holds `nodes` without growing.
    pub(crate) fn with_node_capacity(params: TreeParams, seed: u64, nodes: usize) -> Self {
        RegressionTree {
            nodes: Vec::with_capacity(nodes),
            ..RegressionTree::new(params, seed)
        }
    }

    /// Grow the tree on `cols` with targets `y`. Skips the residual-std
    /// pass: ensemble members never report it.
    pub(crate) fn grow(&mut self, cols: &Columns, y: &[f64]) {
        assert_eq!(cols.n_rows, y.len(), "x/y length mismatch");
        let n_features = cols.n_features();
        self.nodes.clear();
        let mut grower = Grower {
            params: self.params,
            rng: &mut self.rng,
            nodes: &mut self.nodes,
            cols,
            y,
            height: 0,
            ids: (0..y.len() as u32).collect(),
            spill: Vec::with_capacity(y.len()),
            sorted: Vec::new(),
            features: Vec::with_capacity(n_features),
            cuts: Vec::new(),
        };
        grower.grow(0, y.len(), 0);
        self.height = grower.height;
        self.fitted = true;
    }

    pub(crate) fn predict_one(&self, x: &[f64]) -> f64 {
        let mut at = 0;
        for _ in 0..self.height {
            let node = &self.nodes[at as usize];
            at = node.next(x[node.feature as usize]);
        }
        self.nodes[at as usize].value
    }

    /// Predict every row of `batch` (made by [`Columns::blocks`]) into
    /// `out`, walking [`BLOCK`] rows down the tree in lockstep so their
    /// node loads overlap.
    pub(crate) fn predict_blocks(&self, batch: &Columns, out: &mut [f64]) {
        let n = batch.n_rows;
        assert!(
            n.is_multiple_of(BLOCK) && out.len() == n,
            "batch not in blocks"
        );
        for (b, out) in out.chunks_exact_mut(BLOCK).enumerate() {
            let base = b * BLOCK;
            let mut at = [0u32; BLOCK];
            for _ in 0..self.height {
                for (j, at) in at.iter_mut().enumerate() {
                    let node = &self.nodes[*at as usize];
                    *at = node.next(batch.data[node.feature as usize * n + base + j]);
                }
            }
            for (o, &at) in out.iter_mut().zip(&at) {
                *o = self.nodes[at as usize].value;
            }
        }
    }

    /// Number of nodes (for tests/diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// The state of one tree build: the tree's RNG and node list, the shared
/// training columns, and reusable scratch buffers.
struct Grower<'a> {
    params: TreeParams,
    rng: &'a mut StdRng,
    nodes: &'a mut Vec<Node>,
    cols: &'a Columns,
    y: &'a [f64],
    /// Depth of the deepest node so far.
    height: usize,
    /// Row ids; every node owns a contiguous range of them.
    ids: Vec<u32>,
    /// Right-hand ids while a range is partitioned.
    spill: Vec<u32>,
    /// CART: the node's distinct feature values, ascending.
    sorted: Vec<f64>,
    /// Feature draw order.
    features: Vec<usize>,
    /// The node's candidate cuts, in the order the scan considers them.
    cuts: Vec<Cut>,
}

/// A candidate split: `x[feature] <= threshold` goes left.
#[derive(Clone, Copy)]
struct Cut {
    feature: usize,
    threshold: f64,
}

impl Grower<'_> {
    /// Grow the subtree over `ids[lo..hi]` and return its root index.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let n = hi - lo;
        let mean = self.targets(lo, hi).sum::<f64>() / n as f64;
        let slot = self.nodes.len();
        self.nodes.push(Node {
            value: mean,
            feature: 0,
            children: [slot as u32; 2],
        });
        self.height = self.height.max(depth);
        let stop = depth >= self.params.max_depth
            || n < self.params.min_samples_split
            || self.pure(lo, hi, mean);
        if stop {
            return slot;
        }
        let Some((feature, threshold)) = self.best_split(lo, hi) else {
            return slot;
        };
        // The sides get exactly the scan's counts, so both children keep
        // at least `min_samples_leaf` samples.
        let mid = self.partition(lo, hi, feature, threshold);
        let left = self.grow(lo, mid, depth + 1);
        let right = self.grow(mid, hi, depth + 1);
        self.nodes[slot] = Node {
            value: threshold,
            feature: feature as u32,
            children: [left as u32, right as u32],
        };
        slot
    }

    /// The targets of `ids[lo..hi]`, in that order.
    fn targets(&self, lo: usize, hi: usize) -> impl Iterator<Item = f64> + '_ {
        self.ids[lo..hi].iter().map(|&i| self.y[i as usize])
    }

    /// Whether the targets of `ids[lo..hi]` have a summed squared error
    /// about `mean` of at most 1e-12. The squared deviations are never
    /// negative, so the running sum never falls (and a NaN stays NaN):
    /// the first prefix over the bound decides, and an impure node, the
    /// common case, is known after a few terms.
    fn pure(&self, lo: usize, hi: usize, mean: f64) -> bool {
        let mut sse = 0.0;
        self.targets(lo, hi).all(|v| {
            sse += (v - mean).powi(2);
            sse <= 1e-12
        })
    }

    /// Pick the split `(feature, threshold)` of `ids[lo..hi]` minimizing
    /// the children's summed squared error, or `None` if nothing
    /// separates the samples.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        let n_features = self.cols.n_features();
        let k =
            ((n_features as f64 * self.params.max_features).ceil() as usize).clamp(1, n_features);
        // Sample k distinct features.
        self.features.clear();
        self.features.extend(0..n_features);
        for i in 0..k {
            let j = self.rng.gen_range(i..n_features);
            self.features.swap(i, j);
        }
        // Read the ranges of the drawn features four at a time (a short
        // last group repeats its last feature) and list the cuts: one
        // random threshold per feature that varies (Extra Trees, drawn in
        // feature order) or every midpoint between consecutive distinct
        // values.
        let cols = self.cols;
        let ids = &self.ids[lo..hi];
        self.cuts.clear();
        for drawn in self.features[..k].chunks(4) {
            let columns: [&[f64]; 4] =
                std::array::from_fn(|c| cols.column(drawn[c.min(drawn.len() - 1)]));
            // NaN is skipped as by `f64::min`/`max`; of two equal zeros
            // the first is kept, and a `-0.0` for a `+0.0` changes neither
            // `max <= min` nor the drawn threshold.
            let (mut min, mut max) = ([f64::INFINITY; 4], [f64::NEG_INFINITY; 4]);
            for &id in ids {
                for c in 0..4 {
                    let v = columns[c][id as usize];
                    min[c] = if v < min[c] { v } else { min[c] };
                    max[c] = if v > max[c] { v } else { max[c] };
                }
            }
            for (c, &feature) in drawn.iter().enumerate() {
                let (min, max) = (min[c], max[c]);
                if max <= min {
                    continue;
                }
                if self.params.random_threshold {
                    let threshold = min + self.rng.gen::<f64>() * (max - min);
                    self.cuts.push(Cut { feature, threshold });
                } else {
                    let column = columns[c];
                    self.sorted.clear();
                    self.sorted
                        .extend(ids.iter().map(|&id| column[id as usize]));
                    self.sorted
                        .sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
                    self.sorted.dedup();
                    self.cuts.extend(self.sorted.windows(2).map(|w| Cut {
                        feature,
                        threshold: (w[0] + w[1]) / 2.0,
                    }));
                }
            }
        }
        // Score four cuts per pass; a short last group repeats its last
        // cut. The first strictly lowest score wins.
        let mut best: Option<(f64, Cut)> = None;
        for group in self.cuts.chunks(4) {
            let cut = |c: usize| group[c.min(group.len() - 1)];
            let scores = score_cuts(
                std::array::from_fn(|c| cols.column(cut(c).feature)),
                std::array::from_fn(|c| cut(c).threshold),
                ids,
                self.y,
                self.params.min_samples_leaf,
            );
            for (&cut, score) in group.iter().zip(scores) {
                if let Some(score) = score {
                    if best.is_none_or(|(b, _)| score < b) {
                        best = Some((score, cut));
                    }
                }
            }
        }
        best.map(|(_, cut)| (cut.feature, cut.threshold))
    }

    /// Stable in-place partition of `ids[lo..hi]` by
    /// `x[feature] <= threshold`; returns where the right side starts.
    /// Left ids are compacted in place (the write index never passes the
    /// read index) and right ids wait in `spill`, so both sides keep
    /// their order and every later sum adds the same values in the same
    /// order as a fresh per-node list would. Each id is written to both
    /// places and only the matching cursor advances, so the loop has no
    /// data-dependent branch.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let column = self.cols.column(feature);
        self.spill.resize(hi - lo, 0);
        let (mut mid, mut n_right) = (lo, 0);
        for r in lo..hi {
            let id = self.ids[r];
            let left = column[id as usize] <= threshold;
            self.ids[mid] = id;
            self.spill[n_right] = id;
            mid += usize::from(left);
            n_right += usize::from(!left);
        }
        self.ids[mid..hi].copy_from_slice(&self.spill[..n_right]);
        mid
    }
}

/// The children's summed squared error for each cut
/// `columns[c] <= thresholds[c]`, or `None` where a side would keep fewer
/// than `min_leaf` samples. One pass serves all four cuts, and their
/// sixteen running sums are independent add chains.
///
/// The scan is branch-free: each target is added to its own side and
/// `+0.0` to the other. A sum that starts at `+0.0` never becomes `-0.0`
/// (round-to-nearest gives `a + -a = +0.0`), and `s + 0.0 == s` bit for
/// bit for every other `s`, so each side's sums are exactly those of
/// adding only its own targets, in the same order.
fn score_cuts(
    columns: [&[f64]; 4],
    thresholds: [f64; 4],
    ids: &[u32],
    y: &[f64],
    min_leaf: usize,
) -> [Option<f64>; 4] {
    let n = ids.len();
    let mut nl = [0usize; 4];
    let (mut sl, mut ssl) = ([0.0; 4], [0.0; 4]);
    let (mut sr, mut ssr) = ([0.0; 4], [0.0; 4]);
    for &id in ids {
        let v = y[id as usize];
        for c in 0..4 {
            let left = columns[c][id as usize] <= thresholds[c];
            nl[c] += usize::from(left);
            let (vl, vr) = if left { (v, 0.0) } else { (0.0, v) };
            sl[c] += vl;
            ssl[c] += vl * vl;
            sr[c] += vr;
            ssr[c] += vr * vr;
        }
    }
    std::array::from_fn(|c| {
        let nr = n - nl[c];
        // SSE = Σy² - (Σy)²/n for each side.
        (nl[c] >= min_leaf && nr >= min_leaf)
            .then(|| (ssl[c] - sl[c] * sl[c] / nl[c] as f64) + (ssr[c] - sr[c] * sr[c] / nr as f64))
    })
}

impl Surrogate for RegressionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        self.grow(&Columns::from_rows(x), y);
        let sse: f64 = x
            .iter()
            .zip(y)
            .map(|(xi, &yi)| (self.predict_one(xi) - yi).powi(2))
            .sum();
        self.residual_std = (sse / x.len() as f64).sqrt();
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert!(self.fitted, "predict before fit");
        (self.predict_one(x), self.residual_std)
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 1 if x0 > 0.5 else 0 — one split suffices.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| if p[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        (x, y)
    }

    #[test]
    fn cart_learns_a_step() {
        let (x, y) = step_data();
        let mut tree = RegressionTree::new(TreeParams::cart(), 0);
        tree.fit(&x, &y);
        assert_eq!(tree.predict(&[0.2]).0, 0.0);
        assert_eq!(tree.predict(&[0.9]).0, 1.0);
        // Training fit of a pure step is exact.
        assert!(tree.predict(&[0.2]).1 < 1e-9);
    }

    #[test]
    fn extra_tree_learns_a_step_too() {
        let (x, y) = step_data();
        let mut tree = RegressionTree::new(TreeParams::extra(), 3);
        tree.fit(&x, &y);
        assert!(tree.predict(&[0.1]).0 < 0.3);
        assert!(tree.predict(&[0.95]).0 > 0.7);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![5.0; 10];
        let mut tree = RegressionTree::new(TreeParams::cart(), 0);
        tree.fit(&x, &y);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[3.0]).0, 5.0);
    }

    #[test]
    fn depth_limit_respected() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let params = TreeParams {
            max_depth: 2,
            ..TreeParams::cart()
        };
        let mut tree = RegressionTree::new(params, 0);
        tree.fit(&x, &y);
        // Depth-2 tree has at most 4 leaves + 3 splits = 7 nodes.
        assert!(tree.node_count() <= 7, "{}", tree.node_count());
    }

    #[test]
    fn two_feature_interaction() {
        // y depends on x1 only; splits must pick feature 1.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                x.push(vec![i as f64 / 20.0, j as f64 / 20.0]);
                y.push(if j >= 10 { 2.0 } else { -2.0 });
            }
        }
        let mut tree = RegressionTree::new(TreeParams::cart(), 0);
        tree.fit(&x, &y);
        assert_eq!(tree.predict(&[0.5, 0.9]).0, 2.0);
        assert_eq!(tree.predict(&[0.5, 0.1]).0, -2.0);
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_unfitted_panics() {
        let tree = RegressionTree::new(TreeParams::cart(), 0);
        tree.predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fit_empty_panics() {
        let mut tree = RegressionTree::new(TreeParams::cart(), 0);
        tree.fit(&[], &[]);
    }
}
