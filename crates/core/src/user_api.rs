//! The class-based user API of Listing 1.
//!
//! The paper lets researchers subclass `Optimization`, configure the
//! search in `run()` and put their deployment logic in `run_objective()`,
//! with `prepare()` / `launch()` / `finalize()` provided by the framework.
//! [`UserOptimization`] is the Rust spelling: implement two methods,
//! inherit the rest. `run_objective` receives the same [`EvalContext`]
//! the manager-level API uses — one evaluation handle everywhere.
//!
//! ```no_run
//! use e2c_core::user_api::{EvalContext, UserOptimization};
//! use e2c_conf::schema::OptimizationConf;
//!
//! struct MyTuning {
//!     conf: OptimizationConf,
//! }
//!
//! impl UserOptimization for MyTuning {
//!     fn setup(&self) -> OptimizationConf {
//!         self.conf.clone() // Listing 1's run(): algo + space + budget
//!     }
//!     fn run_objective(&self, ctx: &EvalContext) -> f64 {
//!         // Listing 1's run_objective(): deploy, execute, return metric.
//!         ctx.point[0] // silly objective
//!     }
//! }
//! ```

use crate::optimization::{OptimizationManager, OptimizationSummary};
use e2c_conf::schema::OptimizationConf;
use std::path::PathBuf;

pub use crate::optimization::EvalContext;

/// The paper's `Optimization` base class as a trait: implement
/// [`UserOptimization::setup`] (the body of `run()`) and
/// [`UserOptimization::run_objective`]; call
/// [`UserOptimization::optimize`] to execute the whole cycle with
/// `prepare()` / `launch()` / `finalize()` handled by the framework.
pub trait UserOptimization: Send + Sync {
    /// Phase I: the optimization problem + search configuration
    /// (Listing 1 lines 5–26).
    fn setup(&self) -> OptimizationConf;

    /// One model evaluation (Listing 1 lines 28–36): deploy the
    /// configuration, run the workload, return the metric value. The
    /// context carries the trial id, the attempt number (> 0 on a
    /// retry), the point and the attempt's trace handle.
    fn run_objective(&self, ctx: &EvalContext) -> f64;

    /// Experiment seed (override for multi-seed studies).
    fn seed(&self) -> u64 {
        0
    }

    /// Archive root (override to enable Phase III artifacts).
    fn archive_root(&self) -> Option<PathBuf> {
        None
    }

    /// Execute the full optimization cycle. Provided by the framework —
    /// the analogue of instantiating the class and letting Tune drive it.
    /// Panics on journal/archive errors; drive
    /// [`OptimizationManager::run`] directly to handle them.
    fn optimize(&self) -> OptimizationSummary {
        let mut manager = OptimizationManager::new(self.setup()).with_seed(self.seed());
        if let Some(root) = self.archive_root() {
            manager = manager.with_archive(root);
        }
        manager
            .run(|ctx: &EvalContext| self.run_objective(ctx))
            .unwrap_or_else(|e| panic!("optimization run failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2c_conf::parse;
    use e2c_conf::schema::ExperimentConf;

    struct Quadratic;

    impl UserOptimization for Quadratic {
        fn setup(&self) -> OptimizationConf {
            let src = r#"
name: x
optimization:
  metric: loss
  mode: min
  name: quadratic
  num_samples: 18
  max_concurrent: 2
  search:
    algo: extra_trees
    n_initial_points: 6
  config:
    - name: a
      type: randint
      bounds: [0, 30]
"#;
            ExperimentConf::from_value(&parse(src).unwrap())
                .unwrap()
                .optimization
                .unwrap()
        }

        fn run_objective(&self, ctx: &EvalContext) -> f64 {
            assert_eq!(ctx.attempt, 0, "no faults configured, no retries");
            (ctx.point[0] - 21.0).powi(2)
        }

        fn seed(&self) -> u64 {
            11
        }
    }

    #[test]
    fn class_style_optimization_runs_end_to_end() {
        let summary = Quadratic.optimize();
        assert_eq!(summary.analysis.trials().len(), 18);
        let best = summary.best_value.unwrap();
        assert!(best <= 9.0, "best {best}");
        assert_eq!(summary.conf.name, "quadratic");
    }
}
