//! # e2c-optim — the optimization toolkit
//!
//! A from-scratch reimplementation of the optimization machinery the paper
//! builds on (scikit-optimize-style Bayesian optimization plus the
//! metaheuristics listed for short-running applications):
//!
//! * [`space`] — search-space definition (integer/real dimensions,
//!   normalization, rounding);
//! * [`sampling`] — initial designs: random, Latin Hypercube, Halton,
//!   Sobol, full grid;
//! * [`surrogate`] — regression models with predictive uncertainty:
//!   CART trees, Random Forest, **Extra Trees** (the paper's
//!   `base_estimator='ET'`), gradient-boosted trees, Gaussian processes
//!   (RBF / Matérn 5/2), kernel ridge (the SVR stand-in) and polynomial
//!   least squares;
//! * [`acquisition`] — EI, PI, LCB and the `gp_hedge` portfolio;
//! * [`bayes`] — an ask/tell [`bayes::BayesOpt`] mirroring
//!   `skopt.Optimizer`, safe to drive asynchronously (constant-liar
//!   handling of in-flight points);
//! * [`metaheuristics`] — Differential Evolution behind the
//!   [`metaheuristics::Metaheuristic`] interface;
//! * [`pareto`] — multi-objective tooling: dominance, non-dominated
//!   sorting, crowding distance, NSGA-II (for the Fig. 4 placement
//!   problems);
//! * [`sensitivity`] — One-at-a-time (§IV-C) and Morris elementary
//!   effects;
//! * [`problem`] — the Eq. 1 formalization: objectives, inequality and
//!   equality constraints, bounds, penalty evaluation;
//! * [`linalg`] — the small dense linear algebra (Cholesky, QR) the
//!   surrogates need.

pub mod acquisition;
pub mod bayes;
pub mod linalg;
pub mod metaheuristics;
pub mod pareto;
pub mod problem;
pub mod sampling;
pub mod sensitivity;
pub mod space;
pub mod surrogate;

pub use acquisition::Acquisition;
pub use bayes::BayesOpt;
pub use sampling::InitialDesign;
pub use space::{Dimension, Point, Space};
pub use surrogate::SurrogateKind;
