//! # e2c-workload — workload generators
//!
//! The paper motivates the work with the seasonal growth of the user base
//! (Fig. 2) and downloads user images whose size varies around a
//! preprocessed target. This crate generates both, and the open-loop
//! arrivals the serving mode replays. (The paper's closed-loop workload
//! of 80/120/140 simultaneous requests is the engine's own client loop,
//! in `plantnet::sim`.)
//!
//! * [`OpenLoop`] — Poisson arrivals, for open-system experiments;
//! * [`trace`] — piecewise-rate open-loop replay of the seasonal trace
//!   (deterministic thinning), the serving mode's arrival source;
//! * [`seasonal`] — a synthetic new-users-per-month trace with exponential
//!   year-over-year growth and May–June peaks (Fig. 2's shape);
//! * [`ImageMix`] — the size distribution of uploaded plant images.

pub mod arrivals;
pub mod images;
pub mod seasonal;
pub mod trace;

pub use arrivals::{OpenLoop, RateError};
pub use images::ImageMix;
pub use trace::{serving_schedule, RateEpoch, RateSchedule};
