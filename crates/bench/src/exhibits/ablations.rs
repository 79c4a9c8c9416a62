//! Ablations of the optimizer's choices on the Pl@ntNet objective.

use super::{listing1_conf, point};
use e2c_core::OptimizationManager;
use e2c_metrics::Table;
use e2c_optim::acquisition::Acquisition;
use e2c_optim::bayes::BayesOpt;
use e2c_optim::surrogate::SurrogateKind;
use e2c_optim::{InitialDesign, Space};
use e2c_tune::clock;
use plantnet::sim::{Experiment, ExperimentSpec};
use plantnet::PoolConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Write};

/// Evaluations per ablation run.
const BUDGET: usize = 30;

/// Drive `opt` for [`BUDGET`] sequential evaluations of the objective at
/// 80 clients (run seed `seed0 + trial`); returns the best value found
/// after each evaluation.
fn drive(opt: &mut BayesOpt, seed0: u64) -> Vec<f64> {
    (0..BUDGET as u64)
        .map(|trial| {
            let point = opt.ask();
            let cfg = PoolConfig::from_point(&point);
            let resp = Experiment::run(ExperimentSpec::paper(cfg, 80), seed0 + trial)
                .response
                .mean;
            opt.tell(point, resp);
            opt.best().expect("told at least once").1
        })
        .collect()
}

/// **Acquisition functions (§III-D)** — Listing 1 sets
/// `acq_func="gp_hedge"`; compare EI, PI, LCB and the hedge portfolio
/// under one budget.
pub fn ablation_acquisitions(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Ablation — acquisition functions (budget {BUDGET}, workload 80)\n"
    )?;
    let acqs = [
        ("ei", Acquisition::Ei),
        ("pi", Acquisition::Pi),
        ("lcb", Acquisition::Lcb { kappa: 1.96 }),
        ("gp_hedge", Acquisition::GpHedge),
    ];
    let mut table = Table::new(["acq_func", "best_resp(s)", "best_config(http,dl,ss,ex)"]);
    for (name, acq) in acqs {
        let mut opt = BayesOpt::new(PoolConfig::space(), 31)
            .base_estimator(SurrogateKind::ExtraTrees)
            .acq_func(acq)
            .initial_point_generator(InitialDesign::Lhs)
            .n_initial_points(10);
        drive(&mut opt, 700);
        let (bx, bv) = opt.best().expect("non-empty run");
        table.row([name.to_string(), format!("{bv:.3}"), point(&bx)]);
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\npaper setting: gp_hedge (probability-matched EI/PI/LCB portfolio)"
    )
}

/// Minimum pairwise distance of `pts` in the unit cube (larger is better
/// spread).
fn min_pairwise_distance(space: &Space, pts: &[Vec<f64>]) -> f64 {
    let unit: Vec<Vec<f64>> = pts.iter().map(|p| space.to_unit(p)).collect();
    let mut best = f64::INFINITY;
    for i in 0..unit.len() {
        for j in i + 1..unit.len() {
            let d: f64 = unit[i]
                .iter()
                .zip(&unit[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            best = best.min(d);
        }
    }
    best
}

/// **Initial designs (§III-B)** — Phase II names Latin Hypercube and
/// low-discrepancy sampling as initial-point generators; compare random,
/// LHS, Halton, Sobol and grid under one budget, with the design's
/// minimum pairwise distance as its quality.
pub fn ablation_designs(out: &mut dyn Write) -> io::Result<()> {
    let n_init = 12usize;
    writeln!(
        out,
        "Ablation — initial designs (budget {BUDGET}, {n_init} initial points, workload 80)\n"
    )?;
    let designs = [
        InitialDesign::Random,
        InitialDesign::Lhs,
        InitialDesign::Halton,
        InitialDesign::Sobol,
        InitialDesign::Grid,
    ];
    let space = PoolConfig::space();
    let mut table = Table::new(["design", "min_pairwise_dist", "best_resp(s)"]);
    for design in designs {
        let sample = design.generate(&space, n_init, &mut StdRng::seed_from_u64(5));
        let spread = min_pairwise_distance(&space, &sample);
        let mut opt = BayesOpt::new(space.clone(), 13)
            .base_estimator(SurrogateKind::ExtraTrees)
            .acq_func(Acquisition::Ei)
            .initial_point_generator(design)
            .n_initial_points(n_init);
        let best = drive(&mut opt, 900)[BUDGET - 1];
        table.row([
            format!("{design:?}"),
            format!("{spread:.3}"),
            format!("{best:.3}"),
        ]);
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\npaper setting: LHS ('initial_point_generator=\"lhs\"')"
    )
}

/// **Surrogate families (§III-B)** — the paper lists Gaussian processes,
/// decision trees, random forests, GBRT, SVM and polynomial regression
/// and uses Extra Trees. Each family runs the same budget; the table
/// shows the best response found after 10, 20 and 30 evaluations. The
/// first 10 are the shared LHS design, so `best@10` is the common start.
pub fn ablation_surrogates(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Ablation — surrogate families on the Pl@ntNet objective (budget {BUDGET} evaluations, workload 80)\n"
    )?;
    let mut table = Table::new([
        "surrogate",
        "best@10(s)",
        "best@20(s)",
        "best@30(s)",
        "best_config(http,dl,ss,ex)",
    ]);
    for kind in SurrogateKind::all() {
        let mut opt = BayesOpt::new(PoolConfig::space(), 77)
            .base_estimator(kind)
            .acq_func(Acquisition::Ei)
            .initial_point_generator(InitialDesign::Lhs)
            .n_initial_points(10);
        let best_so_far = drive(&mut opt, 500);
        let (bx, _) = opt.best().expect("non-empty run");
        let mut row = vec![kind.name().to_string()];
        row.extend([10, 20, 30].map(|n| format!("{:.3}", best_so_far[n - 1])));
        row.push(point(&bx));
        table.row(row);
    }
    write!(out, "{table}")?;
    writeln!(out, "\npaper setting: Extra Trees ('ET'); any family finding http≫40 with extract 6-7 reproduces Table III's direction")
}

/// **Concurrency (§V-B)** — the paper claims parallel, asynchronous
/// evaluation cuts optimization time "from days to hours". The same
/// 24-evaluation budget at 1, 2, 4 and 8 concurrent evaluations: the
/// found optimum is written out; wall-clock time and speed-up vary from
/// run to run, so they go to stderr.
pub fn ablation_parallel(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Ablation — optimization cycle concurrency (24 evaluations each)\n"
    )?;
    let mut table = Table::new(["max_concurrent", "best_resp(s)"]);
    let mut sequential_secs = None;
    for workers in [1usize, 2, 4, 8] {
        let manager =
            OptimizationManager::new(listing1_conf("parallel-ablation", 24, workers, 8, "ei"))
                .with_seed(5);
        let started = clock::now();
        let summary = manager
            .run(|ctx| {
                let cfg = PoolConfig::from_point(&ctx.point);
                Experiment::run(ExperimentSpec::paper(cfg, 80), 300 + ctx.trial_id)
                    .response
                    .mean
            })
            .expect("optimization run");
        let secs = started.elapsed().as_secs_f64();
        let baseline = *sequential_secs.get_or_insert(secs);
        eprintln!(
            "max_concurrent {workers}: wall_clock {secs:.1} s, speedup {:.2}x",
            baseline / secs
        );
        table.row([
            workers.to_string(),
            format!("{:.3}", summary.best_value.expect("successful run")),
        ]);
    }
    write!(out, "{table}")?;
    writeln!(out, "\npaper claim: parallel asynchronous evaluation cuts optimization wall-clock near-linearly")
}
