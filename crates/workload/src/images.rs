//! Uploaded-image size model.
//!
//! Pl@ntNet's mobile app preprocesses photos before upload to reduce their
//! size (paper §II-A); the engine then downloads each query image. We model
//! the post-preprocessing size as a log-normal around a configurable
//! target — heavy-ish right tail, never negative, matching observed photo
//! upload mixes.

use e2c_des::{Dist, Sampler};
use rand::Rng;

/// Distribution of uploaded image sizes in bytes.
#[derive(Debug, Clone, Copy)]
pub struct ImageMix {
    mean_bytes: f64,
    /// The log-normal, prepared once: a size is drawn per request.
    sizes: Sampler,
}

impl Default for ImageMix {
    /// ~120 KB mean with coefficient of variation 0.4 — a phone photo
    /// after client-side resizing.
    fn default() -> Self {
        ImageMix::new(120_000.0, 0.4)
    }
}

impl ImageMix {
    /// Log-normal image sizes with the given mean (bytes) and coefficient
    /// of variation.
    pub fn new(mean_bytes: f64, cv: f64) -> Self {
        assert!(mean_bytes > 0.0, "mean must be positive");
        ImageMix {
            mean_bytes,
            sizes: Dist::LogNormal {
                mean: mean_bytes,
                cv,
            }
            .prepare(),
        }
    }

    /// Sample one image size in bytes (at least 1 KB — the app never sends
    /// empty uploads).
    pub fn sample_bytes<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.sizes.sample(rng).max(1024.0) as u64
    }

    /// Mean image size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        self.mean_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_tracks_parameter() {
        let mix = ImageMix::new(200_000.0, 0.3);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| mix.sample_bytes(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 200_000.0).abs() / 200_000.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn sizes_have_floor() {
        let mix = ImageMix::new(2_000.0, 2.0); // wide spread
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(mix.sample_bytes(&mut rng) >= 1024);
        }
    }

    #[test]
    fn default_is_about_120kb() {
        assert!((ImageMix::default().mean_bytes() - 120_000.0).abs() < 1e-9);
    }
}
