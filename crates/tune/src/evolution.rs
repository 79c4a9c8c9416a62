//! Ask/tell evolutionary search for short-running applications.
//!
//! §III-B2: applications whose evaluation takes only minutes "can use
//! other optimization techniques such as evolutionary algorithms". Batch
//! metaheuristics (e2c-optim's DE) need the objective inline; this
//! adapter re-expresses a generational GA as a [`Searcher`] so the same
//! parallel trial runner (and its concurrency limiter) drives it.
//!
//! Protocol: asks serve individuals of the current generation; once every
//! individual of a generation has been observed, the next generation is
//! bred (tournament selection, blend crossover, Gaussian mutation,
//! elitism of one).

use crate::searcher::Searcher;
use e2c_optim::space::{Point, Space};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Generational GA behind the ask/tell interface.
pub struct EvolutionSearch {
    space: Space,
    rng: StdRng,
    pop_size: usize,
    mutation_rate: f64,
    mutation_sigma: f64,
    crossover_rate: f64,
    tournament: usize,
    /// Unit-coordinate individuals of the current generation.
    generation: Vec<Vec<f64>>,
    /// Fitness per individual (filled as observations arrive).
    fitness: Vec<Option<f64>>,
    /// Next individual to hand out.
    cursor: usize,
    /// trial id → generation slot.
    inflight: BTreeMap<u64, usize>,
    /// Best-ever individual (unit coords) and value, for elitism.
    best: Option<(Vec<f64>, f64)>,
}

impl EvolutionSearch {
    /// GA search over `space` with the given population size.
    pub fn new(space: Space, pop_size: usize, seed: u64) -> Self {
        assert!(pop_size >= 2, "population needs at least two individuals");
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = space.len();
        let generation: Vec<Vec<f64>> = (0..pop_size)
            .map(|_| (0..dims).map(|_| rng.gen::<f64>()).collect())
            .collect();
        EvolutionSearch {
            space,
            rng,
            pop_size,
            mutation_rate: 0.15,
            mutation_sigma: 0.1,
            crossover_rate: 0.9,
            tournament: 3,
            fitness: vec![None; pop_size],
            generation,
            cursor: 0,
            inflight: BTreeMap::new(),
            best: None,
        }
    }

    /// Best observed point so far.
    pub fn best(&self) -> Option<(Point, f64)> {
        self.best
            .as_ref()
            .map(|(u, v)| (self.space.from_unit(u), *v))
    }

    fn tournament_pick(&mut self) -> usize {
        let n = self.pop_size;
        let mut best = self.rng.gen_range(0..n);
        for _ in 1..self.tournament {
            let c = self.rng.gen_range(0..n);
            let fc = self.fitness[c].expect("generation fully evaluated");
            let fb = self.fitness[best].expect("generation fully evaluated");
            if fc < fb {
                best = c;
            }
        }
        best
    }

    fn breed_next_generation(&mut self) {
        let dims = self.space.len();
        let mut next: Vec<Vec<f64>> = Vec::with_capacity(self.pop_size);
        // Elitism: re-inject the best-ever individual.
        if let Some((elite, _)) = &self.best {
            next.push(elite.clone());
        }
        while next.len() < self.pop_size {
            let p1 = self.tournament_pick();
            let p2 = self.tournament_pick();
            let mut child: Vec<f64> = if self.rng.gen::<f64>() < self.crossover_rate {
                (0..dims)
                    .map(|d| {
                        let w = self.rng.gen::<f64>();
                        self.generation[p1][d] * w + self.generation[p2][d] * (1.0 - w)
                    })
                    .collect()
            } else {
                self.generation[p1].clone()
            };
            for g in child.iter_mut() {
                if self.rng.gen::<f64>() < self.mutation_rate {
                    let step = self.mutation_sigma * 2.0 * (self.rng.gen::<f64>() - 0.5);
                    *g = (*g + step).clamp(0.0, 1.0);
                }
            }
            next.push(child);
        }
        self.generation = next;
        self.fitness = vec![None; self.pop_size];
        self.cursor = 0;
    }
}

impl Searcher for EvolutionSearch {
    fn suggest(&mut self, trial_id: u64) -> Option<Point> {
        if self.cursor >= self.pop_size {
            // Generation exhausted; breed once everything is observed.
            if self.fitness.iter().all(|f| f.is_some()) {
                self.breed_next_generation();
            } else {
                return None; // wait for stragglers
            }
        }
        let slot = self.cursor;
        self.cursor += 1;
        self.inflight.insert(trial_id, slot);
        Some(self.space.from_unit(&self.generation[slot]))
    }

    fn observe(&mut self, trial_id: u64, value: f64) {
        let slot = self
            .inflight
            .remove(&trial_id)
            .expect("observe for unknown trial");
        self.fitness[slot] = Some(value);
        let unit = self.generation[slot].clone();
        match &self.best {
            Some((_, bv)) if *bv <= value => {}
            _ => self.best = Some((unit, value)),
        }
    }

    fn space(&self) -> &Space {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::new().int("x", 0, 40).real("y", 0.0, 1.0)
    }

    fn objective(p: &[f64]) -> f64 {
        (p[0] - 13.0).powi(2) + (p[1] - 0.7).powi(2) * 50.0
    }

    #[test]
    fn generational_protocol_improves() {
        let mut s = EvolutionSearch::new(space(), 10, 4);
        let mut first_gen_best = f64::INFINITY;
        let mut trial = 0u64;
        // Generation 0.
        for _ in 0..10 {
            let p = s.suggest(trial).expect("gen 0 individual");
            let v = objective(&p);
            first_gen_best = first_gen_best.min(v);
            s.observe(trial, v);
            trial += 1;
        }
        // Several more generations.
        for _ in 0..8 {
            for _ in 0..10 {
                let p = s.suggest(trial).expect("next generation");
                let v = objective(&p);
                s.observe(trial, v);
                trial += 1;
            }
        }
        let (bx, bv) = s.best().expect("observed");
        assert!(bv <= first_gen_best, "no improvement over gen 0");
        assert!(bv < 5.0, "best {bv} at {bx:?}");
        assert!(s.space().contains(&bx));
    }

    #[test]
    fn waits_for_stragglers_at_generation_boundary() {
        let mut s = EvolutionSearch::new(space(), 4, 1);
        let p: Vec<_> = (0..4).map(|id| s.suggest(id).expect("gen 0")).collect();
        // Only 3 of 4 observed: the searcher must hold the next generation.
        s.observe(0, objective(&p[0]));
        s.observe(1, objective(&p[1]));
        s.observe(2, objective(&p[2]));
        assert!(s.suggest(4).is_none(), "must wait for the straggler");
        s.observe(3, objective(&p[3]));
        assert!(s.suggest(5).is_some(), "new generation after last observe");
    }

    #[test]
    fn elitism_preserves_best() {
        let mut s = EvolutionSearch::new(space(), 6, 9);
        let mut trial = 0u64;
        for _ in 0..6 {
            let p = s.suggest(trial).expect("gen 0");
            s.observe(trial, objective(&p));
            trial += 1;
        }
        let (_, best_after_g0) = s.best().expect("observed");
        for _ in 0..5 {
            for _ in 0..6 {
                let p = s.suggest(trial).expect("individual");
                s.observe(trial, objective(&p));
                trial += 1;
            }
            let (_, best_now) = s.best().expect("observed");
            assert!(best_now <= best_after_g0, "elite lost");
        }
    }

    #[test]
    fn works_under_the_tuner() {
        use crate::tuner::{Mode, Tuner};
        let tuner = Tuner::new(60, 3, Mode::Min);
        let analysis = tuner.run(Box::new(EvolutionSearch::new(space(), 10, 5)), |cfg, _| {
            objective(cfg)
        });
        assert_eq!(analysis.trials().len(), 60);
        assert!(analysis.best_trial().unwrap().value().unwrap() < 10.0);
    }
}
