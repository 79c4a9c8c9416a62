//! Search-space definition.
//!
//! A [`Space`] is an ordered list of named [`Dimension`]s. Points are
//! `Vec<f64>` in *external* units (integers appear as whole floats);
//! [`Space::to_unit`]/[`Space::from_unit`]
//! map to the normalized hypercube the samplers and surrogates work in.

use rand::Rng;

/// A candidate configuration: one `f64` per dimension, in external units.
pub type Point = Vec<f64>;

/// One search-space dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum Dimension {
    /// Integer in `[lo, hi]`, both inclusive (the paper's `tune.randint`
    /// draws `[lo, hi)`; we use inclusive bounds like Eq. 2 states them).
    Int {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Real in `[lo, hi]`.
    Real {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl Dimension {
    /// Map a unit-interval coordinate to an external value.
    pub fn from_unit(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self {
            Dimension::Int { lo, hi } => {
                let span = (hi - lo + 1) as f64;
                let v = *lo as f64 + (u * span).floor();
                v.min(*hi as f64)
            }
            Dimension::Real { lo, hi } => lo + u * (hi - lo),
        }
    }

    /// Map an external value to the unit interval (inverse of
    /// [`Dimension::from_unit`] up to within-bin position).
    pub fn to_unit(&self, v: f64) -> f64 {
        match self {
            Dimension::Int { lo, hi } => {
                if hi == lo {
                    return 0.5;
                }
                // Center of the value's bin.
                let span = (hi - lo + 1) as f64;
                ((v - *lo as f64) + 0.5) / span
            }
            Dimension::Real { lo, hi } => {
                if hi == lo {
                    0.5
                } else {
                    ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Clamp/round an external value into the dimension's domain.
    pub fn sanitize(&self, v: f64) -> f64 {
        match self {
            Dimension::Int { lo, hi } => (v.round()).clamp(*lo as f64, *hi as f64),
            Dimension::Real { lo, hi } => v.clamp(*lo, *hi),
        }
    }

    /// Whether an external value lies in the domain (integers must be
    /// whole).
    pub fn contains(&self, v: f64) -> bool {
        match self {
            Dimension::Int { lo, hi } => v.fract() == 0.0 && v >= *lo as f64 && v <= *hi as f64,
            Dimension::Real { lo, hi } => v >= *lo && v <= *hi,
        }
    }
}

/// An ordered, named set of dimensions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Space {
    names: Vec<String>,
    dims: Vec<Dimension>,
}

impl Space {
    /// Empty space; add dimensions with the builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an integer dimension `[lo, hi]` (inclusive).
    pub fn int(mut self, name: &str, lo: i64, hi: i64) -> Self {
        assert!(hi >= lo, "{name}: hi < lo");
        self.push(name, Dimension::Int { lo, hi });
        self
    }

    /// Add a real dimension `[lo, hi]`.
    pub fn real(mut self, name: &str, lo: f64, hi: f64) -> Self {
        assert!(hi >= lo, "{name}: hi < lo");
        self.push(name, Dimension::Real { lo, hi });
        self
    }

    fn push(&mut self, name: &str, dim: Dimension) {
        assert!(
            !self.names.iter().any(|n| n == name),
            "duplicate dimension `{name}`"
        );
        self.names.push(name.to_string());
        self.dims.push(dim);
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// True when the space has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Dimension names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Uniform random point (external units).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        self.dims
            .iter()
            .map(|d| d.from_unit(rng.gen::<f64>()))
            .collect()
    }

    /// Map a unit-hypercube point to external units.
    pub fn from_unit(&self, unit: &[f64]) -> Point {
        assert_eq!(unit.len(), self.len(), "dimension mismatch");
        self.dims
            .iter()
            .zip(unit)
            .map(|(d, &u)| d.from_unit(u))
            .collect()
    }

    /// Map an external point to the unit hypercube.
    pub fn to_unit(&self, point: &[f64]) -> Vec<f64> {
        assert_eq!(point.len(), self.len(), "dimension mismatch");
        self.dims
            .iter()
            .zip(point)
            .map(|(d, &v)| d.to_unit(v))
            .collect()
    }

    /// Clamp/round a point into the space.
    pub fn sanitize(&self, point: &[f64]) -> Point {
        assert_eq!(point.len(), self.len(), "dimension mismatch");
        self.dims
            .iter()
            .zip(point)
            .map(|(d, &v)| d.sanitize(v))
            .collect()
    }

    /// Whether a point lies in the space.
    pub fn contains(&self, point: &[f64]) -> bool {
        point.len() == self.len() && self.dims.iter().zip(point).all(|(d, &v)| d.contains(v))
    }

    /// The Pl@ntNet search space of Eq. 2: `http`, `download`, `simsearch`
    /// in `[20, 60]` and `extract` in `[3, 9]`.
    pub fn plantnet() -> Space {
        Space::new()
            .int("http", 20, 60)
            .int("download", 20, 60)
            .int("simsearch", 20, 60)
            .int("extract", 3, 9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builder_and_lookup() {
        let s = Space::plantnet();
        assert_eq!(s.len(), 4);
        assert_eq!(s.names()[3], "extract");
    }

    #[test]
    #[should_panic(expected = "duplicate dimension")]
    fn duplicate_names_rejected() {
        let _ = Space::new().int("x", 0, 1).real("x", 0.0, 1.0);
    }

    #[test]
    fn int_unit_mapping_covers_all_values() {
        let d = Dimension::Int { lo: 3, hi: 9 };
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..700 {
            let u = i as f64 / 700.0;
            seen.insert(d.from_unit(u) as i64);
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![3, 4, 5, 6, 7, 8, 9]
        );
        assert_eq!(d.from_unit(1.0), 9.0); // u = 1 stays in range
    }

    #[test]
    fn unit_roundtrip_int() {
        let d = Dimension::Int { lo: 20, hi: 60 };
        for v in [20.0, 37.0, 60.0] {
            let u = d.to_unit(v);
            assert_eq!(d.from_unit(u), v);
        }
    }

    #[test]
    fn unit_roundtrip_real() {
        let d = Dimension::Real { lo: -1.0, hi: 3.0 };
        for v in [-1.0, 0.0, 2.9, 3.0] {
            assert!((d.from_unit(d.to_unit(v)) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn sanitize_rounds_and_clamps() {
        let s = Space::plantnet();
        let p = s.sanitize(&[19.2, 60.7, 40.4, 9.9]);
        assert_eq!(p, vec![20.0, 60.0, 40.0, 9.0]);
        assert!(s.contains(&p));
    }

    #[test]
    fn samples_always_in_space() {
        let s = Space::new().int("i", -5, 5).real("r", 0.0, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let p = s.sample(&mut rng);
            assert!(s.contains(&p), "{p:?}");
        }
    }

    #[test]
    fn plantnet_space_matches_eq2() {
        let s = Space::plantnet();
        assert!(s.contains(&[20.0, 60.0, 20.0, 3.0]));
        assert!(s.contains(&[40.0, 40.0, 40.0, 7.0])); // baseline
        assert!(!s.contains(&[61.0, 40.0, 40.0, 7.0]));
        assert!(!s.contains(&[40.0, 40.0, 40.0, 2.0]));
    }
}
