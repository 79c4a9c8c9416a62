//! # e2c-des — discrete-event simulation engine
//!
//! A small, deterministic discrete-event simulation (DES) kernel used as the
//! execution substrate for the testbed and application models in this
//! workspace. It provides:
//!
//! * [`SimTime`] — integer microsecond simulation time (total order, no
//!   floating-point drift);
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking, plus re-armable keyed timers (its
//!   only way to retract an event);
//! * [`Simulation`] — the event loop driving a user [`Model`];
//! * resources — [`resources::Tokens`] (counting semaphore with FIFO waiters,
//!   e.g. a thread pool) and [`resources::ProcShare`] (processor-sharing
//!   server, e.g. a multi-core CPU or a GPU with concurrency-dependent
//!   efficiency), both with built-in time-weighted utilization accounting;
//! * [`dist`] — seeded random distributions (deterministic runs from a seed).
//!
//! The kernel is intentionally synchronous and single-threaded: parallelism
//! in this workspace happens *across* simulations (parallel optimization
//! trials), not within one, which keeps every experiment bit-reproducible.
//!
//! ## Quick example
//!
//! ```
//! use e2c_des::{Model, Context, Simulation, SimTime};
//!
//! struct Ping { count: u32 }
//! impl Model for Ping {
//!     type Event = ();
//!     fn handle(&mut self, ctx: &mut Context<'_, ()>, _ev: ()) {
//!         self.count += 1;
//!         if self.count < 10 {
//!             ctx.schedule_in(SimTime::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ping { count: 0 }, 42);
//! sim.schedule(SimTime::ZERO, ());
//! sim.run();
//! assert_eq!(sim.model().count, 10);
//! assert_eq!(sim.now(), SimTime::from_secs(9));
//! ```

pub mod dist;
pub mod queue;
pub mod resources;
pub mod sim;
pub mod time;

pub use dist::{Dist, Sampler};
pub use queue::EventQueue;
pub use sim::{Context, Model, Simulation};
pub use time::SimTime;
