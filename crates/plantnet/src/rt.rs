//! Real-thread engine: the same pipeline on actual OS threads.
//!
//! The DES backend answers the paper's questions cheaply; this backend
//! exists to integration-test the framework against something that really
//! blocks: every pool is a counting semaphore, every client is a thread in
//! a closed loop, and service times are real (scaled) sleeps. Useful for
//! validating that pool sizing effects (admission queueing, bottleneck
//! waits) appear in a genuinely concurrent implementation, not just in the
//! simulator.

use crate::config::PoolConfig;
use crate::model::EngineModel;
use e2c_metrics::{OnlineStats, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Counting semaphore (std mutex + condvar).
pub struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    /// A semaphore with `n` permits.
    pub fn new(n: usize) -> Self {
        Semaphore {
            permits: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    /// Block until a permit is available, then take it.
    pub fn acquire(&self) {
        let mut p = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *p == 0 {
            p = self.cv.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
        *p -= 1;
    }

    /// Return a permit and wake one waiter.
    pub fn release(&self) {
        let mut p = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        *p += 1;
        self.cv.notify_one();
    }

    /// Current free permits (racy; diagnostics only).
    pub fn available(&self) -> usize {
        *self.permits.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Counts the requests inside one pipeline stage and keeps the most
/// there at once.
#[derive(Default)]
struct Occupancy {
    inside: AtomicUsize,
    peak: AtomicUsize,
}

impl Occupancy {
    fn enter(&self) {
        let inside = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(inside, Ordering::SeqCst);
    }

    fn leave(&self) {
        self.inside.fetch_sub(1, Ordering::SeqCst);
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

/// Results of a real-thread run.
#[derive(Debug, Clone)]
pub struct RtMetrics {
    /// Per-request response times.
    pub response: Summary,
    /// Requests completed.
    pub completed: u64,
    /// Most requests ever inside the extract stage at once: what the
    /// extract pool admitted, independent of how the threads were timed.
    pub peak_extract: usize,
    /// Most requests ever holding an HTTP (admission) slot at once.
    pub peak_http: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Real-thread engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct RtEngine {
    /// Thread-pool sizes.
    pub config: PoolConfig,
    /// Service-time constants (shared with the DES).
    pub model: EngineModel,
    /// Multiplier applied to all service times (e.g. `0.01` runs the
    /// pipeline 100× faster than real time so tests stay quick).
    pub time_scale: f64,
}

impl RtEngine {
    /// An engine with scaled-down service times.
    pub fn new(config: PoolConfig, time_scale: f64) -> Self {
        assert!(time_scale > 0.0, "time scale must be positive");
        RtEngine {
            config,
            model: EngineModel::default(),
            time_scale,
        }
    }

    fn sleep_scaled(&self, secs: f64) {
        let scaled = secs * self.time_scale;
        if scaled > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(scaled));
        }
    }

    /// Run `clients` closed-loop client threads, each issuing
    /// `requests_per_client` requests through the pipeline.
    pub fn run(&self, clients: usize, requests_per_client: usize, seed: u64) -> RtMetrics {
        assert!(clients > 0 && requests_per_client > 0);
        self.config.validate().expect("invalid pool configuration");
        let http = Arc::new(Semaphore::new(self.config.http as usize));
        let download = Arc::new(Semaphore::new(self.config.download as usize));
        let extract = Arc::new(Semaphore::new(self.config.extract as usize));
        let simsearch = Arc::new(Semaphore::new(self.config.simsearch as usize));
        let stats = Arc::new(Mutex::new(OnlineStats::new()));
        let in_http = Arc::new(Occupancy::default());
        let in_extract = Arc::new(Occupancy::default());
        // detlint: allow(DET002) real-time backend: this engine measures actual elapsed time by design (the DES backend is the reproducible path)
        let started = Instant::now();

        std::thread::scope(|scope| {
            for c in 0..clients {
                let http = http.clone();
                let download = download.clone();
                let extract = extract.clone();
                let simsearch = simsearch.clone();
                let stats = stats.clone();
                let in_http = in_http.clone();
                let in_extract = in_extract.clone();
                let engine = *self;
                scope.spawn(move || {
                    use e2c_des::Dist;
                    let mut rng = StdRng::seed_from_u64(seed ^ (c as u64) << 20);
                    let sample = |d: Dist, rng: &mut StdRng| -> f64 { d.sample(rng).max(1e-6) };
                    for _ in 0..requests_per_client {
                        // detlint: allow(DET002) real-time backend: per-request latency is genuinely wall-clock here
                        let t0 = Instant::now();
                        http.acquire();
                        in_http.enter();
                        engine.sleep_scaled(sample(engine.model.t_preprocess, &mut rng));
                        download.acquire();
                        engine.sleep_scaled(sample(engine.model.t_download_cpu, &mut rng));
                        download.release();
                        extract.acquire();
                        in_extract.enter();
                        engine.sleep_scaled(sample(engine.model.t_extract_gpu, &mut rng));
                        in_extract.leave();
                        extract.release();
                        engine.sleep_scaled(sample(engine.model.t_process, &mut rng));
                        simsearch.acquire();
                        engine.sleep_scaled(sample(engine.model.t_simsearch, &mut rng));
                        simsearch.release();
                        engine.sleep_scaled(sample(engine.model.t_postprocess, &mut rng));
                        in_http.leave();
                        http.release();
                        // Report response in *model* seconds (unscaled).
                        let resp = t0.elapsed().as_secs_f64() / engine.time_scale;
                        stats
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(resp);
                    }
                });
            }
        });

        let stats = stats.lock().unwrap_or_else(PoisonError::into_inner);
        RtMetrics {
            response: Summary::from(&*stats),
            completed: stats.count(),
            peak_extract: in_extract.peak(),
            peak_http: in_http.peak(),
            elapsed: started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semaphore_limits_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sem = Arc::new(Semaphore::new(3));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..12 {
                let sem = sem.clone();
                let running = running.clone();
                let peak = peak.clone();
                scope.spawn(move || {
                    sem.acquire();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(3));
                    running.fetch_sub(1, Ordering::SeqCst);
                    sem.release();
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert_eq!(sem.available(), 3);
    }

    #[test]
    fn rt_engine_completes_all_requests() {
        let engine = RtEngine::new(PoolConfig::baseline(), 0.002);
        let m = engine.run(8, 3, 1);
        assert_eq!(m.completed, 24);
        assert!(m.response.mean > 0.0);
    }

    #[test]
    fn admission_queueing_inflates_response() {
        // Same offered load; an HTTP pool of 2 must queue and show larger
        // response times than a pool of 16.
        let mut small = PoolConfig::baseline();
        small.http = 2;
        let mut large = PoolConfig::baseline();
        large.http = 16;
        let m_small = RtEngine::new(small, 0.002).run(16, 2, 3);
        let m_large = RtEngine::new(large, 0.002).run(16, 2, 3);
        assert!(
            m_small.response.mean > m_large.response.mean * 1.5,
            "small {} vs large {}",
            m_small.response.mean,
            m_large.response.mean
        );
    }

    #[test]
    fn extract_bottleneck_visible_in_real_threads() {
        // The bottleneck is the extract pool's admission, which does not
        // depend on how the OS schedules the threads (response times do:
        // comparing them lost under CPU contention). A pool of one must
        // serialize every inference; a pool of eight may overlap them but
        // never more than eight.
        let mut narrow = PoolConfig::baseline();
        narrow.extract = 1;
        let mut wide = PoolConfig::baseline();
        wide.extract = 8;
        let m_narrow = RtEngine::new(narrow, 0.002).run(12, 2, 5);
        let m_wide = RtEngine::new(wide, 0.002).run(12, 2, 5);
        assert_eq!(m_narrow.completed, 24);
        assert_eq!(m_wide.completed, 24);
        assert_eq!(
            m_narrow.peak_extract, 1,
            "narrow pool admitted more than one"
        );
        assert!(
            (1..=8).contains(&m_wide.peak_extract),
            "wide pool admitted {}",
            m_wide.peak_extract
        );
    }
}
