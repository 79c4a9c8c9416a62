//! The paper's Listing 1, in Rust: a user-defined optimization of the
//! Pl@ntNet Identification Engine thread pools, driven through the tune
//! layer directly (SkOptSearch + ConcurrencyLimiter).
//!
//! Listing 1's line 13, the asynchronous HyperBand (ASHA) scheduler, is
//! left out. ASHA stops a trial when one of its intermediate reports
//! falls behind its rung, but the objective here, like the paper's
//! `run_objective`, deploys a configuration and returns one metric: with
//! a single report per trial there is nothing to stop early, so every
//! trial runs to completion in ask order (Ray Tune's FIFO scheduling).
//!
//! ```sh
//! cargo run --release --example plantnet_tuning
//! ```

use e2clab::optim::{Acquisition, BayesOpt, InitialDesign, SurrogateKind};
use e2clab::plantnet::sim::{Experiment, ExperimentSpec};
use e2clab::plantnet::PoolConfig;
use e2clab::tune::searcher::{ConcurrencyLimiter, SkOptSearch};
use e2clab::tune::tuner::{Mode, Tuner};

fn main() {
    // Listing 1, lines 6-11: the search algorithm.
    let algo = SkOptSearch::new(
        BayesOpt::new(PoolConfig::space(), 2021)
            .base_estimator(SurrogateKind::ExtraTrees) // base_estimator='ET'
            .n_initial_points(10) // n_initial_points
            .initial_point_generator(InitialDesign::Lhs) // "lhs"
            .acq_func(Acquisition::GpHedge), // acq_func="gp_hedge"
    );
    // Listing 1, line 12: ConcurrencyLimiter(algo, max_concurrent=2).
    let algo = ConcurrencyLimiter::new(algo, 2);

    // Listing 1, lines 14-26: tune.run(...), with metric="user_resp_time"
    // and name="plantnet_engine" (the example prints neither).
    let tuner = Tuner::new(24, 2, Mode::Min);
    let analysis = tuner.run(Box::new(algo), |point, ctx| {
        // Listing 1, lines 28-36: run_objective — deploy the configuration
        // and return the metric.
        let spec = ExperimentSpec::quick(PoolConfig::from_point(point), 80);
        Experiment::run(spec, 500 + ctx.trial_id).response.mean
    });

    println!("{} trials", analysis.trials().len());
    let best = analysis.best_trial().expect("successful trial");
    let cfg = PoolConfig::from_point(&best.config);
    println!(
        "best configuration: {cfg}  ->  user_resp_time {:.3} s",
        best.value().expect("finished")
    );
    println!(
        "paper (Table III): http=54 download=54 extract=7 simsearch=53 -> 2.484 s at 80 requests"
    );
}
