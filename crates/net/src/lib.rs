//! # e2c-net — network emulation substrate
//!
//! E2Clab applies `tc netem`-style constraints (delay, rate, loss) between
//! the Edge, Fog and Cloud layers of an experiment. This crate reproduces
//! that capability for the simulated testbed:
//!
//! * [`LinkSpec`] — the constraint triple (latency, bandwidth, loss);
//! * [`Topology`] — named groups with pairwise constraints and transfer-time
//!   computation;
//! * [`SharedLink`] — a link whose bandwidth is processor-shared among
//!   concurrent flows (what a pool of simultaneous image downloads sees).

pub mod link;
pub mod topology;

pub use link::{LinkSpec, SharedLink};
pub use topology::Topology;
