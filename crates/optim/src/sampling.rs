//! Initial experimental designs.
//!
//! Phase II of the methodology starts surrogate-model building by sampling
//! "a few sample points ... respecting the upper and lower limits of each
//! optimization variable", naming Latin Hypercube and low-discrepancy
//! sampling. All designs generate in the unit hypercube and map through the
//! [`Space`] so integer dimensions round correctly.

use crate::space::{Point, Space};
use rand::Rng;

/// The available initial designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialDesign {
    /// i.i.d. uniform.
    Random,
    /// Latin Hypercube: one sample per stratum per dimension.
    Lhs,
    /// Halton low-discrepancy sequence (prime bases).
    Halton,
    /// Sobol low-discrepancy sequence (Joe–Kuo direction numbers, ≤ 8
    /// dimensions).
    Sobol,
    /// Full-factorial grid, truncated to the requested size.
    Grid,
}

impl InitialDesign {
    /// Generate `n` points in external units.
    pub fn generate<R: Rng + ?Sized>(&self, space: &Space, n: usize, rng: &mut R) -> Vec<Point> {
        let unit = self.generate_unit(space.len(), n, rng);
        unit.into_iter().map(|u| space.from_unit(&u)).collect()
    }

    /// Generate `n` points in the unit hypercube.
    pub fn generate_unit<R: Rng + ?Sized>(
        &self,
        dims: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<Vec<f64>> {
        if n == 0 || dims == 0 {
            return Vec::new();
        }
        match self {
            InitialDesign::Random => (0..n)
                .map(|_| (0..dims).map(|_| rng.gen::<f64>()).collect())
                .collect(),
            InitialDesign::Lhs => lhs(dims, n, rng),
            InitialDesign::Halton => halton(dims, n),
            InitialDesign::Sobol => sobol(dims, n),
            InitialDesign::Grid => grid(dims, n),
        }
    }
}

/// Latin Hypercube: each dimension's `[0,1)` is split into `n` strata; a
/// random permutation assigns one stratum per sample, jittered within it.
fn lhs<R: Rng + ?Sized>(dims: usize, n: usize, rng: &mut R) -> Vec<Vec<f64>> {
    let mut out = vec![vec![0.0; dims]; n];
    for d in 0..dims {
        let mut perm: Vec<usize> = (0..n).collect();
        // Fisher–Yates.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for (i, row) in out.iter_mut().enumerate() {
            row[d] = (perm[i] as f64 + rng.gen::<f64>()) / n as f64;
        }
    }
    out
}

const PRIMES: [u32; 16] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];

/// Radical inverse of `i` in base `b`.
fn radical_inverse(mut i: u64, b: u64) -> f64 {
    let mut inv = 0.0;
    let mut frac = 1.0 / b as f64;
    while i > 0 {
        inv += (i % b) as f64 * frac;
        i /= b;
        frac /= b as f64;
    }
    inv
}

fn halton(dims: usize, n: usize) -> Vec<Vec<f64>> {
    assert!(
        dims <= PRIMES.len(),
        "Halton supports up to {} dimensions",
        PRIMES.len()
    );
    // Skip the first 20 points — the early Halton prefix is badly
    // correlated in higher bases.
    const SKIP: u64 = 20;
    (0..n as u64)
        .map(|i| {
            (0..dims)
                .map(|d| radical_inverse(i + 1 + SKIP, PRIMES[d] as u64))
                .collect()
        })
        .collect()
}

/// Joe–Kuo (new-joe-kuo-6) parameters for Sobol dimensions 2..=8:
/// (degree s, polynomial coefficient a, initial direction numbers m).
const SOBOL_PARAMS: [(u32, u32, &[u32]); 7] = [
    (1, 0, &[1]),
    (2, 1, &[1, 3]),
    (3, 1, &[1, 3, 1]),
    (3, 2, &[1, 1, 1]),
    (4, 1, &[1, 1, 3, 3]),
    (4, 4, &[1, 3, 5, 13]),
    (5, 2, &[1, 1, 5, 5, 17]),
];

const SOBOL_BITS: usize = 31;

/// Direction numbers `v[0..SOBOL_BITS]` for one dimension.
fn sobol_directions(dim: usize) -> Vec<u64> {
    let mut v = vec![0u64; SOBOL_BITS];
    if dim == 0 {
        // First dimension: van der Corput in base 2.
        for (k, slot) in v.iter_mut().enumerate() {
            *slot = 1 << (SOBOL_BITS - 1 - k);
        }
        return v;
    }
    let (s, a, m_init) = SOBOL_PARAMS[dim - 1];
    let s = s as usize;
    let mut m = vec![0u64; SOBOL_BITS];
    m[..s].copy_from_slice(&m_init.iter().map(|&x| x as u64).collect::<Vec<_>>()[..s]);
    for k in s..SOBOL_BITS {
        let mut val = m[k - s] ^ (m[k - s] << s);
        for i in 1..s {
            if (a >> (s - 1 - i)) & 1 == 1 {
                val ^= m[k - i] << i;
            }
        }
        m[k] = val;
    }
    for k in 0..SOBOL_BITS {
        v[k] = m[k] << (SOBOL_BITS - 1 - k);
    }
    v
}

fn sobol(dims: usize, n: usize) -> Vec<Vec<f64>> {
    assert!(
        dims <= SOBOL_PARAMS.len() + 1,
        "Sobol supports up to {} dimensions",
        SOBOL_PARAMS.len() + 1
    );
    let directions: Vec<Vec<u64>> = (0..dims).map(sobol_directions).collect();
    let scale = 1.0 / (1u64 << SOBOL_BITS) as f64;
    let mut x = vec![0u64; dims];
    let mut out = Vec::with_capacity(n);
    // Gray-code construction; skip the all-zeros first point.
    for i in 0..n as u64 {
        let c = (i + 1).trailing_zeros() as usize;
        for d in 0..dims {
            x[d] ^= directions[d][c];
        }
        out.push(x.iter().map(|&xi| xi as f64 * scale).collect());
    }
    out
}

fn grid(dims: usize, n: usize) -> Vec<Vec<f64>> {
    // Levels per dimension: smallest k with k^dims >= n.
    let mut levels = 1usize;
    while levels.pow(dims as u32) < n {
        levels += 1;
    }
    let mut out = Vec::with_capacity(n);
    let mut idx = vec![0usize; dims];
    'outer: loop {
        let point: Vec<f64> = idx
            .iter()
            .map(|&i| {
                if levels == 1 {
                    0.5
                } else {
                    // Cell centers, not edges, so Int dims hit distinct bins.
                    (i as f64 + 0.5) / levels as f64
                }
            })
            .collect();
        out.push(point);
        if out.len() == n {
            break;
        }
        // Odometer increment.
        for digit in idx.iter_mut() {
            *digit += 1;
            if *digit < levels {
                continue 'outer;
            }
            *digit = 0;
        }
        break; // full grid exhausted before n (possible when levels^dims == n)
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn in_unit(points: &[Vec<f64>]) -> bool {
        points
            .iter()
            .all(|p| p.iter().all(|&x| (0.0..1.0).contains(&x) || x == 0.0))
    }

    #[test]
    fn all_designs_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for design in [
            InitialDesign::Random,
            InitialDesign::Lhs,
            InitialDesign::Halton,
            InitialDesign::Sobol,
            InitialDesign::Grid,
        ] {
            let pts = design.generate_unit(4, 50, &mut rng);
            assert_eq!(pts.len(), 50, "{design:?}");
            assert!(in_unit(&pts), "{design:?} out of unit cube");
        }
    }

    #[test]
    fn lhs_stratification_holds() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40;
        let pts = lhs(3, n, &mut rng);
        for d in 0..3 {
            let mut strata: Vec<usize> = pts.iter().map(|p| (p[d] * n as f64) as usize).collect();
            strata.sort_unstable();
            let expect: Vec<usize> = (0..n).collect();
            assert_eq!(strata, expect, "dimension {d} not stratified");
        }
    }

    #[test]
    fn halton_low_discrepancy_beats_clumping() {
        // First coordinate in base 2 fills dyadic intervals evenly: among
        // 2^k consecutive points every length-2^-k interval gets exactly 1.
        let pts = halton(1, 64);
        for chunk in pts.chunks(8) {
            let mut bins = [0; 8];
            for p in chunk {
                bins[(p[0] * 8.0) as usize] += 1;
            }
            assert!(bins.iter().all(|&b| b == 1), "{bins:?}");
        }
    }

    #[test]
    fn sobol_first_points_match_reference() {
        // Classic 2-D Sobol sequence beginning (after skipping 0):
        // (0.5, 0.5), (0.75, 0.25), (0.25, 0.75), (0.375, 0.375), ...
        let pts = sobol(2, 4);
        let expect = [[0.5, 0.5], [0.75, 0.25], [0.25, 0.75], [0.375, 0.375]];
        for (p, e) in pts.iter().zip(expect.iter()) {
            for (a, b) in p.iter().zip(e.iter()) {
                assert!((a - b).abs() < 1e-12, "{pts:?}");
            }
        }
    }

    #[test]
    fn sobol_balance_in_each_dimension() {
        // We skip the all-zeros point, so the first 128 generated points
        // are indices 1..=128 of the digital net: balanced to within one
        // point per half in every dimension.
        let pts = sobol(5, 128);
        for d in 0..5 {
            let low = pts.iter().filter(|p| p[d] < 0.5).count() as i64;
            assert!((low - 64).abs() <= 1, "dimension {d}: {low}/128 low");
        }
    }

    #[test]
    fn grid_covers_levels() {
        let pts = grid(2, 9); // 3x3 grid
        assert_eq!(pts.len(), 9);
        let mut xs: Vec<i32> = pts.iter().map(|p| (p[0] * 3.0) as i32).collect();
        xs.sort_unstable();
        assert_eq!(xs, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn external_units_respect_space() {
        let space = Space::plantnet();
        let mut rng = StdRng::seed_from_u64(3);
        for design in [
            InitialDesign::Lhs,
            InitialDesign::Sobol,
            InitialDesign::Halton,
        ] {
            for p in design.generate(&space, 30, &mut rng) {
                assert!(space.contains(&p), "{design:?}: {p:?}");
            }
        }
    }

    #[test]
    fn lhs_on_integer_space_spreads_values() {
        // 41 LHS samples over http ∈ [20, 60] must hit many distinct values
        // (random sampling would collide much more).
        let space = Space::new().int("http", 20, 60);
        let mut rng = StdRng::seed_from_u64(11);
        let pts = InitialDesign::Lhs.generate(&space, 41, &mut rng);
        let distinct: std::collections::BTreeSet<i64> = pts.iter().map(|p| p[0] as i64).collect();
        assert_eq!(distinct.len(), 41, "LHS must hit every integer once");
    }

    #[test]
    fn zero_points_is_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(InitialDesign::Lhs.generate_unit(3, 0, &mut rng).is_empty());
    }
}
