//! # e2c-metrics — monitoring and statistics substrate
//!
//! The paper's experiments sample metric values every 10 seconds over
//! 23-minute runs and report mean ± standard deviation across repetitions
//! (966 measurements per configuration). This crate provides the pieces the
//! monitoring manager needs:
//!
//! * [`OnlineStats`] — numerically stable single-pass mean/variance
//!   (Welford);
//! * [`TimeSeries`] — a sampled `(t, value)` series with summary helpers;
//! * [`Summary`] — mean, std, min/max of a sample;
//! * [`Histogram`] — fixed-bin histograms with approximate
//!   quantiles (for tail-latency monitoring);
//! * [`Registry`] — a named collection of series, CSV-exportable;
//! * [`table::Table`] — aligned text tables used by the experiment harness
//!   to print the paper's tables and figure series.

pub mod histogram;
pub mod online;
pub mod registry;
pub mod series;
pub mod summary;
pub mod table;

pub use histogram::Histogram;
pub use online::OnlineStats;
pub use registry::Registry;
pub use series::TimeSeries;
pub use summary::Summary;
pub use table::Table;
