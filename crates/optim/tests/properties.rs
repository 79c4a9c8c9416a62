//! Property-based tests over the optimization toolkit's invariants.

use e2c_optim::acquisition::{expected_improvement, norm_cdf, probability_of_improvement};
use e2c_optim::bayes::BayesOpt;
use e2c_optim::metaheuristics::{DifferentialEvolution, Metaheuristic};
use e2c_optim::sampling::InitialDesign;
use e2c_optim::space::Space;
use e2c_optim::surrogate::SurrogateKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_space() -> impl Strategy<Value = Space> {
    ((-20i64..0, 1i64..50), (-5.0f64..0.0, 0.1f64..10.0)).prop_map(
        |((ilo, ispan), (rlo, rspan))| {
            Space::new()
                .int("i", ilo, ilo + ispan)
                .real("r", rlo, rlo + rspan)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unit-cube mapping always produces points inside the space, for all
    /// designs and space shapes.
    #[test]
    fn designs_stay_in_space(space in arb_space(), n in 1usize..40, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for design in [
            InitialDesign::Random,
            InitialDesign::Lhs,
            InitialDesign::Halton,
            InitialDesign::Sobol,
            InitialDesign::Grid,
        ] {
            let pts = design.generate(&space, n, &mut rng);
            prop_assert_eq!(pts.len(), n);
            for p in &pts {
                prop_assert!(space.contains(p), "{design:?} escaped: {p:?}");
            }
        }
    }

    /// sanitize() is idempotent and always lands inside the space.
    #[test]
    fn sanitize_idempotent(space in arb_space(), raw in prop::collection::vec(-100.0f64..100.0, 2)) {
        let once = space.sanitize(&raw);
        prop_assert!(space.contains(&once), "{once:?}");
        let twice = space.sanitize(&once);
        prop_assert_eq!(once, twice);
    }

    /// to_unit/from_unit round-trips integer dimension values exactly.
    #[test]
    fn unit_roundtrip_integers(lo in -50i64..50, span in 1i64..100, seed in 0u64..500) {
        let space = Space::new().int("x", lo, lo + span);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = space.sample(&mut rng);
        let u = space.to_unit(&p);
        prop_assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let back = space.from_unit(&u);
        prop_assert_eq!(p, back);
    }

    /// The normal CDF is monotone and bounded.
    #[test]
    fn cdf_monotone(a in -6.0f64..6.0, b in -6.0f64..6.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(norm_cdf(lo) <= norm_cdf(hi) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&norm_cdf(a)));
    }

    /// EI is non-negative and PI is a probability, for any inputs.
    #[test]
    fn acquisition_bounds(mean in -10.0f64..10.0, std in 0.0f64..5.0, best in -10.0f64..10.0) {
        prop_assert!(expected_improvement(mean, std, best) >= 0.0);
        let pi = probability_of_improvement(mean, std, best);
        prop_assert!((0.0..=1.0).contains(&pi));
    }

    /// Every surrogate's prediction is finite with non-negative std on
    /// arbitrary (finite) training data.
    #[test]
    fn surrogates_finite(
        data in prop::collection::vec(((0.0f64..1.0), (0.0f64..1.0), (-100.0f64..100.0)), 3..25),
        probe_x in 0.0f64..1.0,
        probe_y in 0.0f64..1.0,
    ) {
        let x: Vec<Vec<f64>> = data.iter().map(|(a, b, _)| vec![*a, *b]).collect();
        let y: Vec<f64> = data.iter().map(|(_, _, v)| *v).collect();
        for kind in SurrogateKind::all() {
            let mut m = kind.build(1);
            m.fit(&x, &y);
            let (mean, std) = m.predict(&[probe_x, probe_y]);
            prop_assert!(mean.is_finite(), "{kind:?} mean not finite");
            prop_assert!(std.is_finite() && std >= 0.0, "{kind:?} std bad: {std}");
        }
    }

    /// BayesOpt never proposes a point outside its space, whatever the
    /// seed and objective.
    #[test]
    fn bayes_asks_stay_in_space(seed in 0u64..200, shift in -5.0f64..5.0) {
        let space = Space::new().int("a", 0, 15).real("b", -1.0, 1.0);
        let mut opt = BayesOpt::new(space, seed).n_initial_points(4);
        for _ in 0..12 {
            let p = opt.ask();
            prop_assert!(opt.space().contains(&p), "{p:?}");
            let y = (p[0] - shift).powi(2) + p[1].abs();
            opt.tell(p, y);
        }
    }

    /// best() equals the minimum of everything told.
    #[test]
    fn bayes_best_is_min(values in prop::collection::vec(-100.0f64..100.0, 1..20)) {
        let space = Space::new().int("a", 0, 1000);
        let mut opt = BayesOpt::new(space, 1);
        for (i, &v) in values.iter().enumerate() {
            opt.tell(vec![i as f64], v);
        }
        let (_, best) = opt.best().unwrap();
        let expect = values.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(best, expect);
    }
}

proptest! {
    // Metaheuristics are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The metaheuristic returns a point inside the space whose value
    /// equals the reported best, and never beats the true optimum.
    #[test]
    fn metaheuristics_sound(seed in 0u64..100, cx in -3.0f64..3.0, cy in -3.0f64..3.0) {
        let space = Space::new().real("x", -4.0, 4.0).real("y", -4.0, 4.0);
        let mut algo = DifferentialEvolution::new(seed);
        let mut f = |p: &[f64]| (p[0] - cx).powi(2) + (p[1] - cy).powi(2);
        let r = algo.minimize(&space, &mut f, 600);
        prop_assert!(space.contains(&space.sanitize(&r.best_x)));
        let check = (r.best_x[0] - cx).powi(2) + (r.best_x[1] - cy).powi(2);
        prop_assert!((check - r.best_f).abs() < 1e-9, "{} misreports", algo.name());
        prop_assert!(r.best_f >= 0.0);
    }
}
