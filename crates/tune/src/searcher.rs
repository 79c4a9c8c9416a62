//! Search algorithms behind a uniform ask/observe interface.

use e2c_optim::bayes::BayesOpt;
use e2c_optim::sampling::InitialDesign;
use e2c_optim::space::{Point, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A source of trial configurations that learns from completed trials.
///
/// Implementations must be `Send`: the tuner drives them from worker
/// threads behind a mutex — that lock is the "asynchronous model
/// optimization" serialization point.
pub trait Searcher: Send {
    /// Propose a configuration for a new trial, or `None` if the searcher
    /// cannot propose right now (budget exhausted or concurrency-limited).
    fn suggest(&mut self, trial_id: u64) -> Option<Point>;

    /// Feed back the final metric value of a finished trial (already
    /// sign-normalized: the tuner always *minimizes* internally).
    fn observe(&mut self, trial_id: u64, value: f64);

    /// The search space.
    fn space(&self) -> &Space;
}

/// The paper's `SkOptSearch`: Bayesian optimization over the space.
pub struct SkOptSearch {
    opt: BayesOpt,
    inflight: BTreeMap<u64, Point>,
}

impl SkOptSearch {
    /// Wrap a configured [`BayesOpt`].
    pub fn new(opt: BayesOpt) -> Self {
        SkOptSearch {
            opt,
            inflight: BTreeMap::new(),
        }
    }
}

impl Searcher for SkOptSearch {
    fn suggest(&mut self, trial_id: u64) -> Option<Point> {
        let p = self.opt.ask();
        self.inflight.insert(trial_id, p.clone());
        Some(p)
    }

    fn observe(&mut self, trial_id: u64, value: f64) {
        let point = self
            .inflight
            .remove(&trial_id)
            .expect("observe for unknown trial");
        self.opt.tell(point, value);
    }

    fn space(&self) -> &Space {
        self.opt.space()
    }
}

/// Uniform random search (the standard baseline).
pub struct RandomSearch {
    space: Space,
    rng: StdRng,
}

impl RandomSearch {
    /// Random search over `space`.
    pub fn new(space: Space, seed: u64) -> Self {
        RandomSearch {
            space,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Searcher for RandomSearch {
    fn suggest(&mut self, _trial_id: u64) -> Option<Point> {
        Some(self.space.sample(&mut self.rng))
    }

    fn observe(&mut self, _trial_id: u64, _value: f64) {}

    fn space(&self) -> &Space {
        &self.space
    }
}

/// Evaluate an explicit list of configurations (grid sweeps, OAT plans,
/// paper-table reproductions). Exhausts after the list.
pub struct GridSearch {
    space: Space,
    queue: Vec<Point>,
    cursor: usize,
}

impl GridSearch {
    /// Search over the explicit `points` (evaluated in order).
    pub fn from_points(space: Space, points: Vec<Point>) -> Self {
        for p in &points {
            assert!(space.contains(p), "grid point {p:?} outside space");
        }
        GridSearch {
            space,
            queue: points,
            cursor: 0,
        }
    }

    /// Full-factorial design of `n` points via the grid initial design.
    pub fn factorial(space: Space, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = InitialDesign::Grid.generate(&space, n, &mut rng);
        GridSearch {
            space,
            queue: points,
            cursor: 0,
        }
    }

    /// Remaining proposals.
    pub fn remaining(&self) -> usize {
        self.queue.len() - self.cursor
    }
}

impl Searcher for GridSearch {
    fn suggest(&mut self, _trial_id: u64) -> Option<Point> {
        let p = self.queue.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(p)
    }

    fn observe(&mut self, _trial_id: u64, _value: f64) {}

    fn space(&self) -> &Space {
        &self.space
    }
}

/// Caps the number of unobserved suggestions, exactly like Ray Tune's
/// `ConcurrencyLimiter(algo, max_concurrent=2)` in the paper's Listing 1.
pub struct ConcurrencyLimiter<S: Searcher> {
    inner: S,
    max_concurrent: usize,
    inflight: usize,
}

impl<S: Searcher> ConcurrencyLimiter<S> {
    /// Allow at most `max_concurrent` unobserved suggestions.
    pub fn new(inner: S, max_concurrent: usize) -> Self {
        assert!(max_concurrent > 0, "max_concurrent must be positive");
        ConcurrencyLimiter {
            inner,
            max_concurrent,
            inflight: 0,
        }
    }

    /// Currently outstanding suggestions.
    pub fn inflight(&self) -> usize {
        self.inflight
    }
}

impl<S: Searcher> Searcher for ConcurrencyLimiter<S> {
    fn suggest(&mut self, trial_id: u64) -> Option<Point> {
        if self.inflight >= self.max_concurrent {
            return None;
        }
        let p = self.inner.suggest(trial_id)?;
        self.inflight += 1;
        Some(p)
    }

    fn observe(&mut self, trial_id: u64, value: f64) {
        assert!(self.inflight > 0, "observe without suggestion");
        self.inflight -= 1;
        self.inner.observe(trial_id, value);
    }

    fn space(&self) -> &Space {
        self.inner.space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::new().int("x", 0, 10)
    }

    #[test]
    fn random_search_suggests_in_space() {
        let mut s = RandomSearch::new(space(), 1);
        for id in 0..50 {
            let p = s.suggest(id).unwrap();
            assert!(s.space().contains(&p));
            s.observe(id, 1.0);
        }
    }

    #[test]
    fn grid_search_exhausts() {
        let pts = vec![vec![1.0], vec![2.0], vec![3.0]];
        let mut g = GridSearch::from_points(space(), pts.clone());
        assert_eq!(g.remaining(), 3);
        assert_eq!(g.suggest(0), Some(pts[0].clone()));
        assert_eq!(g.suggest(1), Some(pts[1].clone()));
        assert_eq!(g.suggest(2), Some(pts[2].clone()));
        assert_eq!(g.suggest(3), None);
    }

    #[test]
    #[should_panic(expected = "outside space")]
    fn grid_rejects_foreign_points() {
        GridSearch::from_points(space(), vec![vec![99.0]]);
    }

    #[test]
    fn limiter_blocks_at_capacity() {
        let mut s = ConcurrencyLimiter::new(RandomSearch::new(space(), 2), 2);
        assert!(s.suggest(0).is_some());
        assert!(s.suggest(1).is_some());
        assert_eq!(s.inflight(), 2);
        assert!(
            s.suggest(2).is_none(),
            "third concurrent suggest must block"
        );
        s.observe(0, 1.0);
        assert!(s.suggest(3).is_some(), "capacity freed by observe");
    }

    #[test]
    fn skopt_search_learns() {
        // The searcher must eventually concentrate near the optimum x=3.
        let mut s = SkOptSearch::new(BayesOpt::new(space(), 5).n_initial_points(5));
        let mut best = f64::INFINITY;
        for id in 0..30u64 {
            let p = s.suggest(id).unwrap();
            let y = (p[0] - 3.0).powi(2);
            s.observe(id, y);
            best = best.min(y);
        }
        assert_eq!(best, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown trial")]
    fn skopt_observe_unknown_trial_panics() {
        let mut s = SkOptSearch::new(BayesOpt::new(space(), 5));
        s.observe(42, 1.0);
    }
}
