//! Prepared samplers against the per-draw formulas they replaced.
//!
//! `Dist::prepare` hoists the log-normal's `ln`/`sqrt` out of the draw.
//! Engine runs are pinned to the bit, so for every variant the prepared
//! form must return exactly what the old per-draw formula returned and
//! consume exactly the same random words.

use e2c_des::Dist;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `Dist::sample` as it was before samplers existed, recomputing every
/// constant on every draw.
fn per_draw(dist: Dist, rng: &mut StdRng) -> f64 {
    fn standard_normal(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
    match dist {
        Dist::Constant(v) => v,
        Dist::Uniform { lo, hi } => lo + (hi - lo) * rng.gen::<f64>(),
        Dist::Exp { mean } => {
            let u: f64 = rng.gen();
            -mean * (1.0 - u).ln()
        }
        Dist::Normal { mean, std } => (mean + std * standard_normal(rng)).max(0.0),
        Dist::LogNormal { mean, cv } => {
            let sigma2 = (1.0 + cv * cv).ln();
            let mu = mean.ln() - sigma2 / 2.0;
            (mu + sigma2.sqrt() * standard_normal(rng)).exp()
        }
    }
}

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        (-1e6f64..1e6).prop_map(Dist::Constant),
        (-1e3f64..1e3, 0.0f64..1e3).prop_map(|(lo, w)| Dist::Uniform { lo, hi: lo + w }),
        (1e-9f64..1e6).prop_map(|mean| Dist::Exp { mean }),
        (-10.0f64..1e3, 0.0f64..1e2).prop_map(|(mean, std)| Dist::Normal { mean, std }),
        (1e-9f64..1e9, 0.0f64..4.0).prop_map(|(mean, cv)| Dist::LogNormal { mean, cv }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A prepared sampler, `Dist::sample` and the per-draw formula agree
    /// to the bit over a run of draws, and leave their RNGs in the same
    /// state: the next raw word from each is equal.
    #[test]
    fn prepared_samplers_match_the_per_draw_formula(
        dist in arb_dist(),
        seed in any::<u64>(),
        draws in 1usize..64
    ) {
        let sampler = dist.prepare();
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let mut c = StdRng::seed_from_u64(seed);
        for draw in 0..draws {
            let want = per_draw(dist, &mut c).to_bits();
            prop_assert_eq!(sampler.sample(&mut a).to_bits(), want, "draw {}", draw);
            prop_assert_eq!(dist.sample(&mut b).to_bits(), want, "draw {}", draw);
        }
        let next = c.gen::<u64>();
        prop_assert_eq!(a.gen::<u64>(), next);
        prop_assert_eq!(b.gen::<u64>(), next);
    }
}
