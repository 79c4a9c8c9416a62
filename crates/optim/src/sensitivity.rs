//! Sensitivity analysis: One-at-a-time (OAT) and Morris elementary
//! effects.
//!
//! §IV-C of the paper refines the preliminary optimum with OAT — varying
//! the `extract` pool ±2 and the `simsearch` pool ±3 around the optimum
//! and re-running the experiment for each variant. [`OatPlan`] generates
//! exactly those configurations; [`morris`] implements the screening
//! method the OAT literature (Hamby, ref. [43]) positions it against.

use crate::space::{Point, Space};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An OAT experiment plan around a center point.
#[derive(Debug, Clone)]
pub struct OatPlan {
    center: Point,
    /// `(dimension index, value)` for every variant, center excluded.
    variants: Vec<(usize, f64)>,
}

impl OatPlan {
    /// Vary each listed dimension over `center ± delta` in integer steps
    /// (for real dimensions, in `levels` evenly spaced offsets), keeping
    /// all other coordinates at the center. Values falling outside the
    /// space are dropped.
    pub fn around(space: &Space, center: &[f64], deltas: &[(usize, f64)]) -> OatPlan {
        assert!(space.contains(center), "center {center:?} not in space");
        let mut variants = Vec::new();
        for &(dim, delta) in deltas {
            assert!(dim < space.len(), "dimension {dim} out of range");
            assert!(delta > 0.0, "delta must be positive");
            let steps = delta.round() as i64;
            for off in -steps..=steps {
                if off == 0 {
                    continue;
                }
                let v = center[dim] + off as f64;
                let mut candidate = center.to_vec();
                candidate[dim] = v;
                if space.contains(&candidate) {
                    variants.push((dim, v));
                }
            }
        }
        OatPlan {
            center: center.to_vec(),
            variants,
        }
    }

    /// All configurations to evaluate: the center first, then each
    /// one-dimension variant.
    pub fn configurations(&self) -> Vec<Point> {
        let mut out = vec![self.center.clone()];
        for &(dim, v) in &self.variants {
            let mut p = self.center.clone();
            p[dim] = v;
            out.push(p);
        }
        out
    }

    /// Variants touching one dimension, as `(value, full point)` sorted by
    /// value — the rows of a Fig. 9/10-style sweep (includes the center).
    pub fn sweep_of(&self, dim: usize) -> Vec<(f64, Point)> {
        let mut rows: Vec<(f64, Point)> = self
            .variants
            .iter()
            .filter(|&&(d, _)| d == dim)
            .map(|&(_, v)| {
                let mut p = self.center.clone();
                p[dim] = v;
                (v, p)
            })
            .collect();
        rows.push((self.center[dim], self.center.clone()));
        rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN value"));
        rows
    }

    /// Number of evaluations the plan requires (center + variants).
    pub fn len(&self) -> usize {
        self.variants.len() + 1
    }

    /// True when the plan has no variants (degenerate).
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }
}

/// Effect of one variable from an OAT sweep: the spread of the output over
/// its variation.
#[derive(Debug, Clone, PartialEq)]
pub struct OatEffect {
    /// Dimension index.
    pub dim: usize,
    /// Output at the center.
    pub center_output: f64,
    /// Minimum output over the sweep (and the value achieving it).
    pub best: (f64, f64),
    /// max(output) − min(output) over the sweep.
    pub range: f64,
}

/// Summarize OAT results: `outputs` must align with
/// [`OatPlan::configurations`].
pub fn oat_effects(plan: &OatPlan, outputs: &[f64]) -> Vec<OatEffect> {
    assert_eq!(
        outputs.len(),
        plan.len(),
        "one output per configuration required"
    );
    let center_output = outputs[0];
    let mut dims: Vec<usize> = plan.variants.iter().map(|&(d, _)| d).collect();
    dims.sort_unstable();
    dims.dedup();
    dims.into_iter()
        .map(|dim| {
            let mut lo = center_output;
            let mut hi = center_output;
            let mut best = (plan.center[dim], center_output);
            for (i, &(d, v)) in plan.variants.iter().enumerate() {
                if d != dim {
                    continue;
                }
                let y = outputs[i + 1];
                lo = lo.min(y);
                hi = hi.max(y);
                if y < best.1 {
                    best = (v, y);
                }
            }
            OatEffect {
                dim,
                center_output,
                best,
                range: hi - lo,
            }
        })
        .collect()
}

/// Morris elementary-effects screening: `r` random trajectories, each
/// perturbing every dimension once by `delta` (in unit coordinates).
/// Returns `(mu_star, sigma)` per dimension — mean absolute effect and
/// effect standard deviation.
pub fn morris(
    space: &Space,
    f: &mut dyn FnMut(&[f64]) -> f64,
    r: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    assert!(r >= 2, "need at least two trajectories");
    let dims = space.len();
    let delta = 0.25; // quarter of the unit range, a common choice
    let mut rng = StdRng::seed_from_u64(seed);
    let mut effects: Vec<Vec<f64>> = vec![Vec::with_capacity(r); dims];
    for _ in 0..r {
        // Random base point leaving room for +delta.
        let mut unit: Vec<f64> = (0..dims)
            .map(|_| rng.gen::<f64>() * (1.0 - delta))
            .collect();
        let mut y = f(&space.from_unit(&unit));
        // Random dimension order per trajectory.
        let mut order: Vec<usize> = (0..dims).collect();
        for i in (1..dims).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for &d in &order {
            unit[d] += delta;
            let y2 = f(&space.from_unit(&unit));
            effects[d].push((y2 - y) / delta);
            y = y2;
        }
    }
    effects
        .into_iter()
        .map(|e| {
            let n = e.len() as f64;
            let mu_star = e.iter().map(|x| x.abs()).sum::<f64>() / n;
            let mean = e.iter().sum::<f64>() / n;
            let var = e.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            (mu_star, var.sqrt())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plantnet_space() -> Space {
        Space::plantnet()
    }

    #[test]
    fn oat_plan_matches_paper_counts() {
        // §IV-C: extract ±2 and simsearch ±3 around (54, 54, 53, 7) gives
        // 10 new configurations.
        let space = plantnet_space();
        let center = [54.0, 54.0, 53.0, 7.0];
        let plan = OatPlan::around(
            &space,
            &center,
            &[(3, 2.0), (2, 3.0)], // extract ±2, simsearch ±3
        );
        assert_eq!(plan.len() - 1, 10, "paper: 10 new configurations");
        // All configurations differ from the center in exactly one dim.
        for cfg in &plan.configurations()[1..] {
            let diffs = cfg
                .iter()
                .zip(center.iter())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diffs, 1, "{cfg:?}");
            assert!(space.contains(cfg));
        }
    }

    #[test]
    fn oat_plan_clips_at_bounds() {
        let space = plantnet_space();
        // extract center 8, ±2 would give 6,7,9,10 but 10 is out of bounds.
        let plan = OatPlan::around(&space, &[40.0, 40.0, 40.0, 8.0], &[(3, 2.0)]);
        let values: Vec<f64> = plan.sweep_of(3).iter().map(|(v, _)| *v).collect();
        assert_eq!(values, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn sweep_is_sorted_and_contains_center() {
        let space = plantnet_space();
        let plan = OatPlan::around(&space, &[54.0, 54.0, 53.0, 7.0], &[(3, 2.0)]);
        let sweep = plan.sweep_of(3);
        let values: Vec<f64> = sweep.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, vec![5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn oat_effects_identify_the_sensitive_dimension() {
        let space = Space::new().int("a", 0, 10).int("b", 0, 10);
        let plan = OatPlan::around(&space, &[5.0, 5.0], &[(0, 2.0), (1, 2.0)]);
        // Output strongly depends on dim 0, weakly on dim 1.
        let outputs: Vec<f64> = plan
            .configurations()
            .iter()
            .map(|p| 10.0 * (p[0] - 3.0).powi(2) + 0.1 * p[1])
            .collect();
        let effects = oat_effects(&plan, &outputs);
        assert_eq!(effects.len(), 2);
        let e0 = effects.iter().find(|e| e.dim == 0).unwrap();
        let e1 = effects.iter().find(|e| e.dim == 1).unwrap();
        assert!(e0.range > e1.range * 10.0);
        assert_eq!(e0.best.0, 3.0, "best value of dim 0 is at a=3");
    }

    #[test]
    fn morris_ranks_variables_by_influence() {
        let space = Space::new()
            .real("strong", 0.0, 1.0)
            .real("weak", 0.0, 1.0)
            .real("inert", 0.0, 1.0);
        let mut f = |p: &[f64]| 10.0 * p[0] + 0.5 * p[1];
        let eff = morris(&space, &mut f, 8, 3);
        assert!(eff[0].0 > eff[1].0, "{eff:?}");
        assert!(eff[1].0 > eff[2].0, "{eff:?}");
        assert!(eff[2].0 < 1e-9);
        // Linear function: no interaction, sigma ~ 0.
        assert!(eff[0].1 < 1e-9, "{eff:?}");
    }

    #[test]
    fn morris_detects_interactions_via_sigma() {
        let space = Space::new().real("x", 0.0, 1.0).real("y", 0.0, 1.0);
        let mut f = |p: &[f64]| p[0] * p[1]; // pure interaction
        let eff = morris(&space, &mut f, 16, 5);
        assert!(eff[0].1 > 0.05, "interaction must show in sigma: {eff:?}");
    }

    #[test]
    #[should_panic(expected = "not in space")]
    fn center_outside_space_rejected() {
        let space = plantnet_space();
        OatPlan::around(&space, &[100.0, 40.0, 40.0, 7.0], &[(3, 1.0)]);
    }
}
