//! Cross-backend validation: the discrete-event simulator and the
//! real-thread engine implement the same pipeline; they must agree on the
//! *direction* of configuration effects (absolute numbers differ — the
//! real backend pays OS scheduling overheads).
//!
//! On the real-thread side a pool is shown to be the bottleneck by what
//! it admits, not by response times: the undersized pool fills to its
//! size while the baseline lets more requests in at once, so the small
//! pool must have made some wait. Admission counts do not depend on how
//! the OS schedules the threads; response-time comparisons lost under CPU
//! contention.

use e2clab::des::SimTime;
use e2clab::plantnet::rt::{RtEngine, RtMetrics};
use e2clab::plantnet::sim::{Experiment, ExperimentSpec};
use e2clab::plantnet::PoolConfig;

fn des_response(cfg: PoolConfig, clients: usize) -> f64 {
    let mut spec = ExperimentSpec::quick(cfg, clients);
    spec.duration = SimTime::from_secs(60);
    spec.warmup = SimTime::from_secs(10);
    Experiment::run(spec, 3).response.mean
}

fn rt_run(cfg: PoolConfig, clients: usize) -> RtMetrics {
    // 500x time compression: a 0.8 s simsearch becomes 1.6 ms of sleep.
    RtEngine::new(cfg, 0.002).run(clients, 3, 3)
}

#[test]
fn both_backends_punish_tiny_admission_pools() {
    let small = PoolConfig {
        http: 4,
        ..PoolConfig::baseline()
    };
    let base = PoolConfig::baseline();
    let clients = 16;
    let des_ratio = des_response(small, clients) / des_response(base, clients);
    assert!(des_ratio > 1.5, "DES must punish http=4: ratio {des_ratio}");
    let (rt_small, rt_base) = (rt_run(small, clients), rt_run(base, clients));
    assert_eq!(rt_small.completed, 3 * clients as u64);
    assert_eq!(rt_base.completed, 3 * clients as u64);
    assert_eq!(rt_small.peak_http, 4, "RT: http=4 must fill up");
    assert!(
        rt_base.peak_http > 4,
        "RT: baseline admitted at most {} at once, so http=4 queued nobody",
        rt_base.peak_http
    );
}

#[test]
fn both_backends_punish_starved_extract_pools() {
    let starved = PoolConfig {
        extract: 1,
        ..PoolConfig::baseline()
    };
    let base = PoolConfig::baseline();
    let clients = 16;
    assert!(des_response(starved, clients) > des_response(base, clients));
    let (rt_starved, rt_base) = (rt_run(starved, clients), rt_run(base, clients));
    assert_eq!(rt_starved.completed, 3 * clients as u64);
    assert_eq!(rt_base.completed, 3 * clients as u64);
    assert_eq!(rt_starved.peak_extract, 1, "RT: extract=1 admitted more");
    assert!(
        rt_base.peak_extract > 1,
        "RT: baseline never ran two inferences at once, so extract=1 queued nobody"
    );
}

#[test]
fn rt_engine_response_has_sane_absolute_scale() {
    // A single uncontended client should take roughly the sum of service
    // means (~1.3 model seconds) in the DES. The real-thread side is
    // checked by what it admitted, plus a lower bound only: sleeps can
    // overrun under CPU contention but never finish early.
    let des = des_response(PoolConfig::baseline(), 1);
    assert!(
        (0.8..2.5).contains(&des),
        "DES single-client response {des}"
    );
    let rt = rt_run(PoolConfig::baseline(), 1);
    assert_eq!(rt.completed, 3);
    assert_eq!(rt.peak_http, 1, "RT: one client held two HTTP slots");
    assert_eq!(rt.peak_extract, 1, "RT: one client ran two inferences");
    assert!(
        rt.response.mean >= 0.8,
        "RT single-client response {}",
        rt.response.mean
    );
}
