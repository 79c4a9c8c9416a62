//! Metric collection for engine experiments.
//!
//! The paper samples metric values every 10 seconds over each 23-minute
//! run and reports the mean ± std over all windows of all repetitions
//! (138 × 7 = 966 measurements). [`EngineMetrics`] holds one run's series
//! and summaries; [`RepeatedMetrics`] merges repetitions the same way.

use crate::config::PoolConfig;
use e2c_metrics::{OnlineStats, Registry, Summary};
use std::collections::BTreeMap;

/// Metric names used in the registry (shared with the exhibits).
pub mod names {
    /// Mean user response time per window (seconds).
    pub const RESPONSE: &str = "user_resp_time";
    /// CPU utilization per window (0–1).
    pub const CPU: &str = "cpu_usage";
    /// GPU memory footprint (GB).
    pub const GPU_MEM: &str = "gpu_memory_gb";
    /// Container memory footprint (GB).
    pub const SYS_MEM: &str = "sys_memory_gb";
    /// Requests completed per second in the window.
    pub const THROUGHPUT: &str = "throughput";
    /// Busy fraction of the extract pool per window.
    pub const EXTRACT_BUSY: &str = "extract_pool_busy";
    /// Busy fraction of the simsearch pool per window.
    pub const SIMSEARCH_BUSY: &str = "simsearch_pool_busy";
    /// Busy fraction of the HTTP pool per window.
    pub const HTTP_BUSY: &str = "http_pool_busy";
    /// Busy fraction of the download pool per window.
    pub const DOWNLOAD_BUSY: &str = "download_pool_busy";
    /// Requests waiting on the HTTP admission pool at the window boundary.
    pub const HTTP_QUEUE: &str = "http_queue_depth";
    /// Requests waiting on the download pool at the window boundary.
    pub const DOWNLOAD_QUEUE: &str = "download_queue_depth";
    /// Requests waiting on the extract pool at the window boundary.
    pub const EXTRACT_QUEUE: &str = "extract_queue_depth";
    /// Requests waiting on the simsearch pool at the window boundary.
    pub const SIMSEARCH_QUEUE: &str = "simsearch_queue_depth";
    /// Open-loop arrivals offered in the window (serving mode).
    pub const OFFERED: &str = "offered_arrivals";
    /// Arrivals bounced by the admission bound in the window.
    pub const REJECTED: &str = "admission_rejected";
    /// Queued requests shed past their deadline in the window.
    pub const SHED: &str = "queue_shed";
    /// Completions above the SLO bound in the window.
    pub const SLO_VIOLATIONS: &str = "slo_violations";
}

/// Overload accounting for an open-loop serving run. Counts are event
/// counts in simulated time (never wall-clock), so they ride the
/// deterministic artifact formats unchanged.
///
/// Conservation holds exactly at the end of every run:
/// `admitted + rejected + shed == offered`, where `shed` includes
/// queued requests abandoned when the run ended (offered but never
/// served — they are not admissions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadTotals {
    /// Open-loop arrivals offered to the engine.
    pub offered: u64,
    /// Requests that entered service (acquired an HTTP slot).
    pub admitted: u64,
    /// Arrivals bounced because the admission queue was full.
    pub rejected: u64,
    /// Requests dropped from the admission queue without service
    /// (deadline sheds plus the end-of-run queue flush).
    pub shed: u64,
    /// Completions whose response time exceeded the SLO bound.
    pub slo_violations: u64,
    /// Deepest admission queue observed at any point in the run.
    pub peak_queue_depth: usize,
}

/// Everything measured in one engine run.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// The evaluated configuration.
    pub config: PoolConfig,
    /// Closed-loop client count.
    pub clients: usize,
    /// All sampled time series (10 s windows).
    pub registry: Registry,
    /// User response time over the window samples (after warm-up) —
    /// the paper's headline metric.
    pub response: Summary,
    /// Tail of the *per-request* response distribution after warm-up:
    /// (p50, p95, p99) in seconds, or `None` when no request finished
    /// after warm-up (crashed or starved run) — "no data" must stay
    /// distinguishable from a zero-latency engine. The paper's 4-second
    /// bound is a user tolerance, so tails matter as much as means.
    pub response_percentiles: Option<(f64, f64, f64)>,
    /// Mean duration of each pipeline task (seconds), keyed by the task
    /// label of [`crate::pipeline::Task::label`].
    pub task_times: BTreeMap<String, Summary>,
    /// Requests completed over the run.
    pub completed: u64,
    /// Mean completion rate (requests/second) after warm-up.
    pub throughput: f64,
    /// GPU memory footprint (constant per configuration).
    pub gpu_mem_gb: f64,
    /// Container memory footprint (constant per configuration).
    pub sys_mem_gb: f64,
    /// Overload accounting — `Some` for open-loop serving runs, `None`
    /// for the closed-loop protocol (which has no admission control).
    pub overload: Option<OverloadTotals>,
}

impl EngineMetrics {
    /// Mean busy fraction of a pool over the run (`names::*_BUSY` keys).
    pub fn mean_busy(&self, metric: &str) -> f64 {
        self.registry.summary(metric).mean
    }

    /// Mean CPU utilization over the run.
    pub fn mean_cpu(&self) -> f64 {
        self.registry.summary(names::CPU).mean
    }

    /// Mean duration of one task (0 when the label is unknown).
    pub fn task_mean(&self, label: &str) -> f64 {
        self.task_times.get(label).map(|s| s.mean).unwrap_or(0.0)
    }
}

/// Aggregation over repeated runs of the same configuration.
#[derive(Debug, Clone)]
pub struct RepeatedMetrics {
    /// The evaluated configuration.
    pub config: PoolConfig,
    /// Closed-loop client count.
    pub clients: usize,
    /// Per-repetition metrics.
    pub runs: Vec<EngineMetrics>,
    /// Response-time summary pooled over every window of every run (the
    /// paper's 966-measurement aggregate).
    pub response: Summary,
}

impl RepeatedMetrics {
    /// Merge repetitions.
    pub fn from_runs(runs: Vec<EngineMetrics>) -> RepeatedMetrics {
        assert!(!runs.is_empty(), "need at least one run");
        let config = runs[0].config;
        let clients = runs[0].clients;
        let mut pooled = OnlineStats::new();
        for run in &runs {
            if let Some(series) = run.registry.get(names::RESPONSE) {
                for (_, v) in series.iter() {
                    pooled.push(v);
                }
            }
        }
        // A crashed repetition (NaN response mean) poisons the pooled
        // summary: its pre-crash windows are not a valid measurement of
        // the configuration, so the whole evaluation must read as failed.
        let mut response = Summary::from(&pooled);
        if runs.iter().any(|r| !r.response.mean.is_finite()) {
            response.mean = f64::NAN;
        }
        RepeatedMetrics {
            config,
            clients,
            response,
            runs,
        }
    }

    /// Mean of a per-run scalar across repetitions.
    pub fn mean_of(&self, f: impl Fn(&EngineMetrics) -> f64) -> f64 {
        self.runs.iter().map(f).sum::<f64>() / self.runs.len() as f64
    }

    /// Pooled summary of one task's mean duration across repetitions.
    pub fn task_mean(&self, label: &str) -> f64 {
        self.mean_of(|r| r.task_mean(label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_metrics(resp_values: &[f64]) -> EngineMetrics {
        let mut registry = Registry::new();
        for (i, &v) in resp_values.iter().enumerate() {
            registry.record(names::RESPONSE, (i + 1) as f64 * 10.0, v);
        }
        EngineMetrics {
            config: PoolConfig::baseline(),
            clients: 80,
            response: registry.summary(names::RESPONSE),
            response_percentiles: Some((2.0, 2.5, 3.0)),
            registry,
            task_times: BTreeMap::new(),
            completed: 100,
            throughput: 30.0,
            gpu_mem_gb: 7.0,
            sys_mem_gb: 10.0,
            overload: None,
        }
    }

    #[test]
    fn repeated_metrics_pool_all_windows() {
        let r1 = dummy_metrics(&[2.0, 2.2]);
        let r2 = dummy_metrics(&[2.4, 2.6]);
        let rep = RepeatedMetrics::from_runs(vec![r1, r2]);
        assert_eq!(rep.response.n, 4);
        assert!((rep.response.mean - 2.3).abs() < 1e-12);
    }

    #[test]
    fn task_mean_defaults_to_zero() {
        let m = dummy_metrics(&[2.0]);
        assert_eq!(m.task_mean("simsearch"), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_runs_rejected() {
        RepeatedMetrics::from_runs(vec![]);
    }
}
