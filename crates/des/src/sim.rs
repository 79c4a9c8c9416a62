//! The simulation event loop.
//!
//! A [`Simulation`] owns a user [`Model`], the event queue and a seeded RNG.
//! The model reacts to its own event type and schedules follow-up events
//! through the [`Context`] it receives. This inversion keeps the kernel free
//! of `Rc<RefCell<...>>` webs: the model is plain owned state, mutated one
//! event at a time.

use crate::queue::EventQueue;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// User-provided simulation logic.
pub trait Model {
    /// The event vocabulary of this model (typically an enum).
    type Event;

    /// React to `event` firing at `ctx.now()`.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);
}

/// Kernel services available to a model while handling an event.
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut StdRng,
}

impl<'a, E> Context<'a, E> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at the absolute time `at`. Scheduling in the past
    /// panics: it would silently reorder causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.queue.schedule(at, event);
    }

    /// Schedule `event` to fire `delay` after the current time. A delay
    /// past the end of time saturates at [`SimTime::MAX`] instead of
    /// wrapping into the past.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        let at = self.now.checked_add(delay).unwrap_or(SimTime::MAX);
        self.queue.schedule(at, event);
    }

    /// Arm timer `key` to fire `event` at the absolute time `at`,
    /// replacing the event it held (see [`EventQueue::set_timer`]): the
    /// cheap way to keep one moving event per key, such as a resource's
    /// next completion. Arming in the past panics, as in
    /// [`Context::schedule`].
    pub fn set_timer(&mut self, key: usize, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.queue.set_timer(key, at, event);
    }

    /// Disarm timer `key` (no-op if it is not armed).
    pub fn clear_timer(&mut self, key: usize) {
        self.queue.clear_timer(key);
    }

    /// Seeded random number generator for this simulation run.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// A discrete-event simulation run: model + clock + queue + RNG.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    rng: StdRng,
    now: SimTime,
    processed: u64,
    trace: Option<(e2c_trace::Tracer, String)>,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation at time zero with a deterministic RNG seed.
    pub fn new(model: M, seed: u64) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            processed: 0,
            trace: None,
        }
    }

    /// Attach a tracer: each `run_until` segment emits one `des/run` event
    /// carrying `label`, the segment's event count and the number of
    /// events still queued (`queued`), stamped with the sim clock
    /// (microseconds) as its virtual time.
    pub fn set_trace(&mut self, tracer: e2c_trace::Tracer, label: &str) {
        self.trace = Some((tracer, label.to_string()));
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the model (e.g. to read results after a run).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to install probes between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the simulation and return the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedule an event from outside the event loop (setup phase).
    pub fn schedule(&mut self, at: SimTime, event: M::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, event);
    }

    /// Run until the queue drains. Returns the number of events processed by this call.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Run until the queue drains or the next event would fire strictly after `horizon`. The clock is advanced to
    /// `horizon` if the run was cut by the horizon (so utilization integrals
    /// can be closed at the boundary by the caller).
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let before = self.processed;
        while let Some((at, event)) = self.queue.pop_until(horizon) {
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            let mut ctx = Context {
                now: self.now,
                queue: &mut self.queue,
                rng: &mut self.rng,
            };
            self.model.handle(&mut ctx, event);
            self.processed += 1;
        }
        // Whatever is left fires after the horizon: the run was cut.
        if !self.queue.is_empty() {
            self.now = horizon;
        }
        let done = self.processed - before;
        if let Some((tracer, label)) = &self.trace {
            tracer.point_at(
                self.now.as_micros(),
                "des",
                "run",
                None,
                e2c_trace::fields([
                    ("label", label.as_str().into()),
                    ("events", done.into()),
                    ("queued", self.queue.len().into()),
                ]),
            );
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        ticks: u32,
        limit: u32,
    }

    impl Model for Counter {
        type Event = ();
        fn handle(&mut self, ctx: &mut Context<'_, ()>, _: ()) {
            self.ticks += 1;
            if self.ticks < self.limit {
                ctx.schedule_in(SimTime::from_secs(1), ());
            }
        }
    }

    #[test]
    fn runs_to_completion() {
        let mut sim = Simulation::new(Counter { ticks: 0, limit: 5 }, 1);
        sim.schedule(SimTime::ZERO, ());
        let n = sim.run();
        assert_eq!(n, 5);
        assert_eq!(sim.model().ticks, 5);
        assert_eq!(sim.now(), SimTime::from_secs(4));
    }

    #[test]
    fn horizon_cuts_run_and_advances_clock() {
        let mut sim = Simulation::new(
            Counter {
                ticks: 0,
                limit: 100,
            },
            1,
        );
        sim.schedule(SimTime::ZERO, ());
        sim.run_until(SimTime::from_millis(2_500));
        // ticks at 0s, 1s, 2s fire; the 3s tick is beyond the horizon.
        assert_eq!(sim.model().ticks, 3);
        assert_eq!(sim.now(), SimTime::from_millis(2_500));
        // Continuing past the horizon resumes where we left off.
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.model().ticks, 4);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<'_, ()>, _: ()) {
                let past = ctx.now().saturating_sub(SimTime::from_secs(1));
                ctx.schedule(past, ());
            }
        }
        let mut sim = Simulation::new(Bad, 0);
        sim.schedule(SimTime::from_secs(5), ());
        sim.run();
    }

    #[test]
    fn an_infinite_delay_never_fires_instead_of_wrapping_into_the_past() {
        struct Forever {
            fired: Vec<SimTime>,
        }
        impl Model for Forever {
            type Event = bool;
            fn handle(&mut self, ctx: &mut Context<'_, bool>, arm: bool) {
                self.fired.push(ctx.now());
                if arm {
                    ctx.schedule_in(SimTime::from_secs_f64(f64::INFINITY), false);
                }
            }
        }
        let mut sim = Simulation::new(Forever { fired: vec![] }, 0);
        sim.schedule(SimTime::from_secs(5), true);
        let horizon = SimTime::from_secs(60);
        assert_eq!(sim.run_until(horizon), 1);
        assert_eq!(sim.model().fired, [SimTime::from_secs(5)]);
        assert_eq!(sim.now(), horizon);
        assert_eq!(sim.queue.peek_time(), Some(SimTime::MAX));
    }

    #[test]
    fn timers_fire_and_rearm_through_the_context() {
        // A ticking timer re-armed from its own handler, racing a plain
        // event scheduled for the same instant as one of its ticks.
        struct Tick {
            log: Vec<(SimTime, &'static str)>,
        }
        impl Model for Tick {
            type Event = &'static str;
            fn handle(&mut self, ctx: &mut Context<'_, &'static str>, ev: &'static str) {
                self.log.push((ctx.now(), ev));
                if ev == "tick" && ctx.now() < SimTime::from_secs(3) {
                    ctx.set_timer(0, ctx.now() + SimTime::from_secs(1), "tick");
                }
                if ev == "stop" {
                    ctx.clear_timer(0);
                }
            }
        }
        let mut sim = Simulation::new(Tick { log: vec![] }, 0);
        sim.schedule(SimTime::from_secs(2), "stop");
        sim.queue.set_timer(0, SimTime::from_secs(1), "tick");
        sim.run();
        let s = SimTime::from_secs;
        assert_eq!(
            sim.model().log,
            [(s(1), "tick"), (s(2), "stop")],
            "the plain event was scheduled first, so it wins the 2 s tie"
        );
        assert!(sim.queue.is_empty());
    }

    #[test]
    fn same_seed_same_trace() {
        use rand::Rng;
        struct R {
            draws: Vec<f64>,
        }
        impl Model for R {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Context<'_, u32>, n: u32) {
                let x: f64 = ctx.rng().gen();
                self.draws.push(x);
                if n > 0 {
                    ctx.schedule_in(SimTime::from_micros(1), n - 1);
                }
            }
        }
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut sim = Simulation::new(R { draws: vec![] }, 7);
            sim.schedule(SimTime::ZERO, 20);
            sim.run();
            runs.push(sim.into_model().draws);
        }
        assert_eq!(runs[0], runs[1]);
    }
}
