//! Criterion micro-benchmarks over the substrates: DES kernel throughput,
//! samplers, metaheuristic steps, and a full short engine experiment.
//! These guard the performance of the pieces the experiment harness leans
//! on (a full Table III reproduction runs ~10⁷ DES events through these
//! paths). Surrogate fit/predict is measured by the `surrogate_fit`
//! registry benchmark (`e2clab bench`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use e2c_des::resources::{ProcShare, Tokens};
use e2c_des::{Dist, SimTime};
use e2c_optim::acquisition::Acquisition;
use e2c_optim::bayes::BayesOpt;
use e2c_optim::metaheuristics::{DifferentialEvolution, Metaheuristic};
use e2c_optim::sampling::InitialDesign;
use e2c_optim::space::Space;
use plantnet::sim::{Experiment, ExperimentSpec};
use plantnet::PoolConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_des_kernel(c: &mut Criterion) {
    c.bench_function("des/tokens_acquire_release", |b| {
        b.iter_batched(
            || Tokens::new(8),
            |mut pool| {
                let mut t = SimTime::ZERO;
                for id in 0..64u64 {
                    pool.try_acquire(t, id);
                    t += SimTime::from_micros(10);
                }
                for _ in 0..8 {
                    pool.release(t);
                    t += SimTime::from_micros(10);
                }
                pool
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("des/procshare_churn_64_jobs", |b| {
        b.iter_batched(
            || ProcShare::cores(40.0),
            |mut cpu| {
                let mut now = SimTime::ZERO;
                for id in 0..64u64 {
                    cpu.start(now, id, 0.5, 1.0);
                    now += SimTime::from_micros(100);
                }
                while let Some((at, id)) = cpu.next_completion(now) {
                    now = at;
                    cpu.remove(now, id);
                }
                cpu
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("des/engine_10s_80clients", |b| {
        let mut spec = ExperimentSpec::paper(PoolConfig::baseline(), 80);
        spec.duration = SimTime::from_secs(10);
        spec.warmup = SimTime::from_secs(1);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            Experiment::run(spec, seed)
        })
    });
}

fn bench_samplers(c: &mut Criterion) {
    let space = PoolConfig::space();
    for design in [
        InitialDesign::Lhs,
        InitialDesign::Sobol,
        InitialDesign::Halton,
    ] {
        c.bench_function(&format!("sampling/{design:?}_256pts_4d"), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| design.generate(&space, 256, &mut rng))
        });
    }
}

fn bench_optimizers(c: &mut Criterion) {
    c.bench_function("bayes/ask_tell_cycle_after_20obs", |b| {
        b.iter_batched(
            || {
                let mut opt =
                    BayesOpt::new(Space::new().real("x", 0.0, 1.0).real("y", 0.0, 1.0), 4)
                        .acq_func(Acquisition::Ei)
                        .n_initial_points(5)
                        .n_candidate_points(128);
                for _ in 0..20 {
                    let p = opt.ask();
                    let v = (p[0] - 0.3).powi(2) + (p[1] - 0.6).powi(2);
                    opt.tell(p, v);
                }
                opt
            },
            |mut opt| {
                let p = opt.ask();
                let v = (p[0] - 0.3).powi(2) + (p[1] - 0.6).powi(2);
                opt.tell(p, v);
                opt
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("metaheuristics/de_1000_evals_sphere", |b| {
        let space = Space::new().real("x", -5.0, 5.0).real("y", -5.0, 5.0);
        b.iter(|| {
            let mut de = DifferentialEvolution::new(9);
            let mut f = |p: &[f64]| p.iter().map(|v| v * v).sum::<f64>();
            de.minimize(&space, &mut f, 1000)
        })
    });
}

fn bench_dists(c: &mut Criterion) {
    c.bench_function("dist/lognormal_sample", |b| {
        let d = Dist::LogNormal {
            mean: 0.8,
            cv: 0.45,
        };
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| d.sample(&mut rng))
    });
}

fn tuned() -> Criterion {
    // Keep `cargo bench --workspace` wall-clock modest: the full engine
    // runs inside some benches are the dominant cost.
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = tuned();
    targets = bench_des_kernel, bench_samplers, bench_optimizers, bench_dists
}
criterion_main!(benches);
