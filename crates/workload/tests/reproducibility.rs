//! Integration-level reproducibility for the workload generators: two
//! instantiations driven by equally seeded RNGs must emit identical
//! streams (the property the optimization cycle's replay story depends
//! on), different seeds must actually diversify the stochastic
//! generators, and the deterministic seasonal envelope must be seed-free
//! by construction.

use e2c_des::SimTime;
use e2c_workload::seasonal::GrowthModel;
use e2c_workload::{ImageMix, OpenLoop};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drive every stochastic generator once and collect its stream.
fn streams(seed: u64) -> (Vec<SimTime>, Vec<u64>) {
    let open = OpenLoop::new(40.0).expect("positive rate");
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals = open.arrivals_until(SimTime::from_secs(30), &mut rng);

    let mix = ImageMix::new(180_000.0, 0.6);
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: Vec<u64> = (0..200).map(|_| mix.sample_bytes(&mut rng)).collect();

    (arrivals, sizes)
}

#[test]
fn equal_seeds_reproduce_every_stream_exactly() {
    let a = streams(42);
    let b = streams(42);
    assert_eq!(a.0, b.0, "open-loop arrivals diverge");
    assert_eq!(a.1, b.1, "image sizes diverge");
}

#[test]
fn different_seeds_actually_diversify_the_stochastic_streams() {
    let a = streams(42);
    let b = streams(43);
    assert_ne!(a.0, b.0, "open-loop arrivals ignore the seed");
    assert_ne!(a.1, b.1, "image sizes ignore the seed");
}

#[test]
fn the_seasonal_envelope_is_deterministic_across_instantiations() {
    // The seasonal trace (Fig. 2's shape) takes no RNG at all;
    // independent instantiations agree bit-for-bit.
    let t1 = GrowthModel::default().trace(2017, 2021);
    let t2 = GrowthModel::default().trace(2017, 2021);
    assert_eq!(t1.len(), 60);
    for (a, b) in t1.iter().zip(&t2) {
        assert_eq!((a.year, a.month), (b.year, b.month));
        assert_eq!(a.new_users.to_bits(), b.new_users.to_bits());
    }
}
