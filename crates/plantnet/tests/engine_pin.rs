//! Bit-identity pin for the DES engine.
//!
//! Every artifact of an optimization run (evaluations, traces, Prometheus
//! exports) is derived from `Experiment` results, so an engine change that
//! shifts one float rounding or one event tie moves them all. This test
//! hashes everything a run reports — completions, response mean and
//! percentile bits, every task-time summary and the registry's Prometheus
//! bytes — for three closed-loop configurations and one saturating
//! open-loop serving cell, and compares against digests recorded from the
//! engine. A performance change to the engine must leave them untouched.

use e2c_des::SimTime;
use e2c_workload::RateSchedule;
use plantnet::sim::ExperimentSpec;
use plantnet::{EngineMetrics, Experiment, OverloadPolicy, PoolConfig};

/// FNV-1a, 64-bit: a fixed, dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(m: &EngineMetrics) -> u64 {
    let mut h = Fnv::new();
    h.u64(m.completed);
    h.f64(m.response.mean);
    h.f64(m.throughput);
    match m.response_percentiles {
        Some((p50, p95, p99)) => {
            h.u64(1);
            h.f64(p50);
            h.f64(p95);
            h.f64(p99);
        }
        None => h.u64(0),
    }
    for (task, s) in &m.task_times {
        h.bytes(task.as_bytes());
        h.u64(s.n);
        h.f64(s.mean);
        h.f64(s.std);
        h.f64(s.min);
        h.f64(s.max);
    }
    if let Some(o) = m.overload {
        h.u64(o.offered);
        h.u64(o.admitted);
        h.u64(o.rejected);
        h.u64(o.shed);
        h.u64(o.slo_violations);
        h.u64(o.peak_queue_depth as u64);
    }
    let mut prom = Vec::new();
    m.registry
        .write_prometheus(&mut prom)
        .expect("in-memory write");
    h.bytes(&prom);
    h.0
}

fn closed_loop(config: PoolConfig, seed: u64) -> u64 {
    let mut spec = ExperimentSpec::paper(config, 80);
    spec.duration = SimTime::from_secs(600);
    spec.warmup = SimTime::from_secs(60);
    digest(&Experiment::run(spec, seed))
}

#[test]
fn closed_loop_runs_are_bit_identical_to_the_pinned_digests() {
    let mut extract3 = PoolConfig::baseline();
    extract3.extract = 3;
    let got = [
        closed_loop(PoolConfig::baseline(), 11),
        closed_loop(PoolConfig::preliminary_optimum(), 12),
        closed_loop(extract3, 13),
    ];
    let pinned: [u64; 3] = [
        0x11bd_85e7_92ea_f724,
        0xafc3_14e8_68f3_96c2,
        0x9ae9_468d_1df3_c008,
    ];
    assert_eq!(got, pinned, "engine results moved: {got:#018x?}");
}

#[test]
fn saturating_serving_cell_is_bit_identical_to_the_pinned_digest() {
    let sched = RateSchedule::constant(100.0, SimTime::from_secs(120)).unwrap();
    let spec = ExperimentSpec::serving(PoolConfig::baseline(), sched.horizon());
    let policy = OverloadPolicy {
        queue_bound: 50,
        shed_after: Some(SimTime::from_secs(8)),
        slo: 4.0,
    };
    let m = Experiment::run_serving(spec, &sched, Some(policy), 3);
    let o = m.overload.expect("serving run reports overload totals");
    assert!(o.rejected > 0 && o.shed > 0, "cell must saturate: {o:?}");
    let got = digest(&m);
    assert_eq!(
        got, 0x9219_90ad_a396_8c9a,
        "engine results moved: {got:#018x}"
    );
}

/// The engine's work, not just its results: the `plantnet_600s` bench
/// spec (seed 0, round 0) handles a pinned number of events. A change
/// that runs more or fewer events to reach the same results fails here
/// by name, where the digests above would stay green.
#[test]
fn plantnet_600s_handles_the_pinned_number_of_events() {
    let mut spec = ExperimentSpec::paper(PoolConfig::baseline(), 80);
    spec.duration = SimTime::from_secs(600);
    spec.warmup = SimTime::from_secs(60);
    let tracer = e2c_trace::Tracer::new();
    let m = Experiment::run_traced(spec, 0, Some(tracer.clone()));
    let runs: Vec<u64> = tracer
        .snapshot()
        .iter()
        .filter(|e| e.phase == "des" && e.name == "run")
        .map(|e| e.fields["events"].as_u64().expect("events is a count"))
        .collect();
    assert_eq!((runs, m.completed), (vec![146_025], 18_216));
}
