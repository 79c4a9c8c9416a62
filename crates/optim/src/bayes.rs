//! Ask/tell Bayesian optimizer (the `skopt.Optimizer` analogue).
//!
//! The paper's Listing 1 configures `Optimizer(base_estimator='ET',
//! n_initial_points=45, initial_point_generator="lhs",
//! acq_func="gp_hedge")`. [`BayesOpt`] mirrors that interface:
//!
//! * the first `n_initial_points` asks come from the initial design;
//! * afterwards, a surrogate is fitted and candidates are ranked by the
//!   acquisition function;
//! * **asynchronous parallelism**: points that were asked but not yet told
//!   are treated with the *constant liar* strategy (they are assumed to
//!   return the worst observed value), so concurrent workers do not pile
//!   onto the same point — this is what makes the trial runner's
//!   "asynchronous model optimization" sound.

use crate::acquisition::{Acquisition, Hedge};
use crate::sampling::InitialDesign;
use crate::space::{Point, Space};
use crate::surrogate::SurrogateKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Candidate pool size per ask (the acquisition optimization budget).
const N_CANDIDATES: usize = 512;

/// Configuration + state of one Bayesian optimization run (minimization).
pub struct BayesOpt {
    space: Space,
    kind: SurrogateKind,
    acq: Acquisition,
    design: InitialDesign,
    n_initial: usize,
    rng: StdRng,
    seed: u64,
    initial_queue: Vec<Point>,
    xs: Vec<Point>,
    ys: Vec<f64>,
    pending: Vec<Point>,
    hedge: Hedge,
    /// Member proposals from the last hedge ask, for gain updates.
    hedge_proposals: Vec<(usize, Point)>,
}

impl BayesOpt {
    /// Optimizer over `space` with the paper's defaults (Extra Trees,
    /// LHS initialization, `gp_hedge` acquisition).
    pub fn new(space: Space, seed: u64) -> Self {
        BayesOpt {
            space,
            kind: SurrogateKind::ExtraTrees,
            acq: Acquisition::GpHedge,
            design: InitialDesign::Lhs,
            n_initial: 10,
            rng: StdRng::seed_from_u64(seed),
            seed,
            initial_queue: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            pending: Vec::new(),
            hedge: Hedge::default(),
            hedge_proposals: Vec::new(),
        }
    }

    /// Choose the surrogate family (`base_estimator`).
    pub fn base_estimator(mut self, kind: SurrogateKind) -> Self {
        self.kind = kind;
        self
    }

    /// Choose the acquisition function.
    pub fn acq_func(mut self, acq: Acquisition) -> Self {
        self.acq = acq;
        self
    }

    /// Size of the initial design.
    pub fn n_initial_points(mut self, n: usize) -> Self {
        self.n_initial = n.max(1);
        self
    }

    /// Initial design generator.
    pub fn initial_point_generator(mut self, design: InitialDesign) -> Self {
        self.design = design;
        self
    }

    /// The search space.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Number of completed observations.
    pub fn n_observed(&self) -> usize {
        self.ys.len()
    }

    /// Points asked but not yet told.
    pub fn n_pending(&self) -> usize {
        self.pending.len()
    }

    /// All observations so far, in tell order.
    pub fn history(&self) -> impl Iterator<Item = (&Point, f64)> {
        self.xs.iter().zip(self.ys.iter().copied())
    }

    /// Best observation `(point, value)` so far.
    pub fn best(&self) -> Option<(Point, f64)> {
        let (mut bx, mut by): (Option<&Point>, f64) = (None, f64::INFINITY);
        for (x, &y) in self.xs.iter().zip(&self.ys) {
            if y < by {
                by = y;
                bx = Some(x);
            }
        }
        bx.map(|x| (x.clone(), by))
    }

    /// Request the next point to evaluate.
    pub fn ask(&mut self) -> Point {
        // Phase 1: serve (and lazily generate) the initial design, then
        // uniform points until something has been told: a surrogate fitted
        // on pending points alone would learn the constant liar of no
        // observations, `max(∅) = -∞`.
        let served = self.xs.len() + self.pending.len();
        if served < self.n_initial || self.xs.is_empty() {
            if self.initial_queue.is_empty() {
                self.initial_queue =
                    self.design
                        .generate(&self.space, self.n_initial, &mut self.rng);
                // Pop from the back; reverse to keep design order.
                self.initial_queue.reverse();
            }
            let point = self
                .initial_queue
                .pop()
                .unwrap_or_else(|| self.space.sample(&mut self.rng));
            self.pending.push(point.clone());
            return point;
        }

        // Phase 2: surrogate-guided.
        let point = self.suggest();
        self.pending.push(point.clone());
        point
    }

    /// Report the objective value for a previously asked point. Points
    /// never asked are accepted too (e.g. seeding with the baseline).
    pub fn tell(&mut self, point: Point, value: f64) {
        assert!(
            value.is_finite(),
            "objective value must be finite, got {value}"
        );
        let sanitized = self.space.sanitize(&point);
        if let Some(i) = self
            .pending
            .iter()
            .position(|p| points_equal(p, &sanitized))
        {
            self.pending.swap_remove(i);
        }
        self.xs.push(sanitized);
        self.ys.push(value);
    }

    /// Fit the configured surrogate on the observations plus constant-liar
    /// pending points, in unit coordinates.
    fn fit_model(&mut self) -> Box<dyn crate::surrogate::Surrogate> {
        let liar = self.ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut x_unit: Vec<Vec<f64>> = self.xs.iter().map(|p| self.space.to_unit(p)).collect();
        let mut y: Vec<f64> = self.ys.clone();
        for p in &self.pending {
            x_unit.push(self.space.to_unit(p));
            y.push(liar);
        }
        let mut model = self.kind.build(self.seed ^ self.xs.len() as u64);
        model.fit(&x_unit, &y);
        model
    }

    fn suggest(&mut self) -> Point {
        let model = self.fit_model();
        let best_y = self.ys.iter().cloned().fold(f64::INFINITY, f64::min);

        // Update hedge gains from the previous round's member proposals,
        // using the refreshed model (probability matching on estimated
        // outcome, as in scikit-optimize).
        if self.acq == Acquisition::GpHedge {
            let proposals = std::mem::take(&mut self.hedge_proposals);
            for (member, p) in proposals {
                let (mean, _) = model.predict(&self.space.to_unit(&p));
                self.hedge.update(member, -mean);
            }
        }

        // Candidate pool: global uniform + local perturbations of the best.
        let mut candidates: Vec<Point> = Vec::with_capacity(N_CANDIDATES);
        let n_local = N_CANDIDATES / 4;
        for _ in 0..(N_CANDIDATES - n_local) {
            candidates.push(self.space.sample(&mut self.rng));
        }
        if let Some((best_x, _)) = self.best() {
            let unit_best = self.space.to_unit(&best_x);
            for _ in 0..n_local {
                let perturbed: Vec<f64> = unit_best
                    .iter()
                    .map(|&u| {
                        let step = 0.1 * (self.rng.gen::<f64>() - 0.5) * 2.0;
                        (u + step).clamp(0.0, 1.0)
                    })
                    .collect();
                candidates.push(self.space.from_unit(&perturbed));
            }
        }
        // Drop duplicates of evaluated/pending points (integer spaces
        // collide often); keep at least one candidate.
        drop_known(&mut candidates, &self.xs, &self.pending);
        if candidates.is_empty() {
            return self.space.sample(&mut self.rng);
        }

        // Predict the whole pool once: every acquisition member ranks the
        // same (mean, std) table, so under gp_hedge the surrogate runs one
        // batch prediction instead of one full pass per member.
        let units: Vec<Vec<f64>> = candidates.iter().map(|c| self.space.to_unit(c)).collect();
        let preds = model.predict_many(&units);

        let pick_best = |acq: &Acquisition| -> Point {
            let mut best_score = f64::NEG_INFINITY;
            let mut best_idx = 0;
            for (i, &(mean, std)) in preds.iter().enumerate() {
                let score = acq.score(mean, std, best_y);
                if score > best_score {
                    best_score = score;
                    best_idx = i;
                }
            }
            candidates[best_idx].clone()
        };

        match self.acq {
            Acquisition::GpHedge => {
                // Each member proposes; probability matching picks one.
                let members = self.hedge.members().to_vec();
                let proposals: Vec<Point> = members.iter().map(pick_best).collect();
                self.hedge_proposals = proposals.iter().cloned().enumerate().collect();
                let chosen = self.hedge.choose(self.rng.gen::<f64>());
                proposals[chosen].clone()
            }
            ref acq => pick_best(acq),
        }
    }
}

fn points_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
}

/// Drop every candidate that [`points_equal`] some point of `xs` or
/// `pending`, without comparing every pair. The known points are sorted
/// by first coordinate once; `fl(p₀ − c₀)` is monotone in `p₀`, so the
/// points whose first coordinate is within 1e-9 of a candidate's form one
/// run, found by `partition_point` on that same difference and scanned
/// with the full comparison. A NaN first coordinate equals nothing, so
/// such points are left out of the sort.
fn drop_known(candidates: &mut Vec<Point>, xs: &[Point], pending: &[Point]) {
    let mut known: Vec<&Point> = xs
        .iter()
        .chain(pending)
        .filter(|p| !p[0].is_nan())
        .collect();
    known.sort_by(|a, b| a[0].total_cmp(&b[0]));
    candidates.retain(|c| {
        let lo = known.partition_point(|p| p[0] - c[0] <= -1e-9);
        !known[lo..]
            .iter()
            .take_while(|p| p[0] - c[0] < 1e-9)
            .any(|p| points_equal(p, c))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shifted sphere on a mixed int/real space.
    fn objective(p: &[f64]) -> f64 {
        (p[0] - 7.0).powi(2) + (p[1] - 0.25).powi(2) * 16.0
    }

    fn space() -> Space {
        Space::new().int("i", 0, 20).real("r", 0.0, 1.0)
    }

    #[test]
    fn initial_points_follow_design() {
        let mut opt = BayesOpt::new(space(), 1)
            .n_initial_points(8)
            .initial_point_generator(InitialDesign::Lhs);
        let mut pts = Vec::new();
        for _ in 0..8 {
            let p = opt.ask();
            assert!(opt.space().contains(&p));
            pts.push(p.clone());
            opt.tell(p, 1.0);
        }
        // LHS over 8 samples in [0,20] ints: strata are 2.6 integers wide,
        // so adjacent strata may share a boundary integer — but most
        // samples must still land on distinct values (pure random sampling
        // collides far more).
        let distinct: std::collections::BTreeSet<i64> = pts.iter().map(|p| p[0] as i64).collect();
        assert!(distinct.len() >= 6, "{distinct:?}");
    }

    #[test]
    fn converges_near_optimum_on_sphere() {
        for acq in [
            Acquisition::Ei,
            Acquisition::Lcb { kappa: 1.96 },
            Acquisition::GpHedge,
        ] {
            let mut opt = BayesOpt::new(space(), 42)
                .base_estimator(SurrogateKind::ExtraTrees)
                .acq_func(acq)
                .n_initial_points(10);
            for _ in 0..40 {
                let p = opt.ask();
                let y = objective(&p);
                opt.tell(p, y);
            }
            let (bx, by) = opt.best().unwrap();
            assert!(
                by < 2.5,
                "{acq:?}: best {by} at {bx:?} — did not approach optimum"
            );
        }
    }

    #[test]
    fn async_asks_differ_under_constant_liar() {
        let mut opt = BayesOpt::new(space(), 7).n_initial_points(4);
        // Complete the initial phase.
        for _ in 0..4 {
            let p = opt.ask();
            let y = objective(&p);
            opt.tell(p, y);
        }
        // Ask several points without telling: they must not all collapse
        // onto the same candidate.
        let a = opt.ask();
        let b = opt.ask();
        let c = opt.ask();
        assert_eq!(opt.n_pending(), 3);
        assert!(
            !(points_equal(&a, &b) && points_equal(&b, &c)),
            "constant liar failed: {a:?} {b:?} {c:?}"
        );
        opt.tell(a, 1.0);
        opt.tell(b, 2.0);
        opt.tell(c, 3.0);
        assert_eq!(opt.n_pending(), 0);
        assert_eq!(opt.n_observed(), 7);
    }

    #[test]
    fn tell_accepts_unasked_seed_points() {
        let mut opt = BayesOpt::new(space(), 1);
        opt.tell(vec![7.0, 0.25], 0.0); // seed with the known optimum
        assert_eq!(opt.n_observed(), 1);
        assert_eq!(opt.best().unwrap().1, 0.0);
    }

    #[test]
    fn best_tracks_minimum() {
        let mut opt = BayesOpt::new(space(), 1);
        opt.tell(vec![1.0, 0.5], 5.0);
        opt.tell(vec![2.0, 0.5], 3.0);
        opt.tell(vec![3.0, 0.5], 4.0);
        let (bx, by) = opt.best().unwrap();
        assert_eq!(by, 3.0);
        assert_eq!(bx[0], 2.0);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut opt = BayesOpt::new(space(), seed).n_initial_points(5);
            let mut trace = Vec::new();
            for _ in 0..12 {
                let p = opt.ask();
                let y = objective(&p);
                trace.push((p.clone(), y));
                opt.tell(p, y);
            }
            trace
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_tell_rejected() {
        let mut opt = BayesOpt::new(space(), 1);
        opt.tell(vec![1.0, 0.5], f64::NAN);
    }

    #[test]
    fn guided_asks_wait_for_the_first_observation() {
        // One initial point and three asks before the first tell: a
        // guided ask here would fit the constant liar of no observations,
        // -inf, and the gp_hedge gains would become infinite.
        let mut opt = BayesOpt::new(space(), 3).n_initial_points(1);
        let early: Vec<Point> = (0..3).map(|_| opt.ask()).collect();
        for p in early {
            assert!(opt.space().contains(&p));
            let y = objective(&p);
            opt.tell(p, y);
        }
        for _ in 0..8 {
            let p = opt.ask();
            let y = objective(&p);
            opt.tell(p, y);
        }
        let probabilities = opt.hedge.probabilities();
        assert!(
            probabilities.iter().all(|p| p.is_finite() && *p > 0.0),
            "{probabilities:?}"
        );
    }

    /// The duplicate filter as a linear scan: the reference for
    /// [`drop_known`].
    fn drop_known_linearly(candidates: &[Point], xs: &[Point], pending: &[Point]) -> Vec<Point> {
        candidates
            .iter()
            .filter(|c| {
                !xs.iter().any(|x| points_equal(x, c))
                    && !pending.iter().any(|p| points_equal(p, c))
            })
            .cloned()
            .collect()
    }

    /// Points of `dims` coordinates alternating integer and real values.
    /// The first coordinate takes one of the few values in `firsts`, so it
    /// ties often.
    fn mixed_point(rng: &mut StdRng, firsts: &[f64], dims: usize) -> Point {
        let mut p = vec![firsts[rng.gen_range(0..firsts.len())]];
        for d in 1..dims {
            p.push(if d % 2 == 1 {
                rng.gen_range(0..4) as f64
            } else {
                rng.gen_range(0..3) as f64 * 0.25
            });
        }
        p
    }

    /// Offsets around the 1e-9 tolerance: exactly on it, a hair inside
    /// and outside, well inside and well outside, in both directions.
    const OFFSETS: [f64; 11] = [
        0.0,
        1e-9,
        -1e-9,
        1e-9 - 1e-14,
        -(1e-9 - 1e-14),
        1e-9 + 1e-14,
        -(1e-9 + 1e-14),
        5e-10,
        -5e-10,
        3e-9,
        -3e-9,
    ];

    fn bits(points: &[Point]) -> Vec<Vec<u64>> {
        points
            .iter()
            .map(|p| p.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The sorted filter keeps exactly the candidates the linear
        /// `points_equal` scan keeps, in the same order.
        #[test]
        fn sorted_duplicate_filter_matches_the_linear_scan(
            dims in 1usize..5,
            n_xs in 0usize..40,
            n_pending in 0usize..4,
            n_candidates in 0usize..60,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Signed zeros, a value one tolerance from zero, integers, and
            // reals, at which `v + 1e-9` rounds to either side of the
            // tolerance.
            let mut firsts = vec![-0.0, 0.0, 1e-9, 20.0, -3.0];
            firsts.extend((0..3).map(|_| rng.gen_range(-50.0..50.0)));
            let xs: Vec<Point> =
                (0..n_xs).map(|_| mixed_point(&mut rng, &firsts, dims)).collect();
            let pending: Vec<Point> =
                (0..n_pending).map(|_| mixed_point(&mut rng, &firsts, dims)).collect();
            let known: Vec<&Point> = xs.iter().chain(&pending).collect();
            let candidates: Vec<Point> = (0..n_candidates)
                .map(|_| {
                    // Mostly near-copies of a known point: one coordinate
                    // moved by an offset around the tolerance, or a zero's
                    // sign flipped.
                    if known.is_empty() || rng.gen::<f64>() < 0.2 {
                        return mixed_point(&mut rng, &firsts, dims);
                    }
                    let mut c = known[rng.gen_range(0..known.len())].clone();
                    let d = rng.gen_range(0..dims);
                    if c[d] == 0.0 && rng.gen::<bool>() {
                        c[d] = -c[d];
                    } else {
                        c[d] += OFFSETS[rng.gen_range(0..OFFSETS.len())];
                    }
                    c
                })
                .collect();
            let want = drop_known_linearly(&candidates, &xs, &pending);
            let mut got = candidates;
            drop_known(&mut got, &xs, &pending);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn gp_surrogate_also_converges() {
        let mut opt = BayesOpt::new(space(), 5)
            .base_estimator(SurrogateKind::GpRbf)
            .acq_func(Acquisition::Ei)
            .n_initial_points(8);
        for _ in 0..25 {
            let p = opt.ask();
            let y = objective(&p);
            opt.tell(p, y);
        }
        assert!(opt.best().unwrap().1 < 4.0);
    }
}
