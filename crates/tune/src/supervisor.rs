//! Worker-slot supervision for the process farm, as a pure state
//! machine.
//!
//! [`Supervisor`] owns no processes, threads or clocks — it is fed
//! millisecond timestamps and events (heartbeats, results, losses) and
//! answers scheduling questions (which slot takes the next ask, which
//! workers stalled, which dead slots are due a respawn, and when the next
//! of those falls due). Keeping it pure
//! makes the crash-tolerance logic exhaustively testable: the property
//! suite drives it with arbitrary interleavings and checks the two
//! invariants everything else leans on — **a ticket resolves at most
//! once** (no double-commit of an ask) and **busy slots never exceed the
//! worker count** (no permit leaks).
//!
//! The actual process wrangling — spawning, killing, reader threads,
//! frame I/O — lives in [`crate::farm`], which holds a `Supervisor`
//! behind its mutex and translates OS events into these calls.
//!
//! ## Slot lifecycle
//!
//! ```text
//!        try_assign                complete
//! Idle ─────────────▶ Busy{ticket} ────────▶ Idle
//!   │                   │    lost (ticket orphaned)
//!   │ lost              ▼
//!   └────────────▶ Dead{respawn_at} ──due──▶ respawned ──▶ Idle
//!                      │ respawn budget spent
//!                      ▼
//!                  Dead{∅}  (terminal)
//! ```
//!
//! Every respawn bumps the slot's *generation*; stale events from a
//! previous incarnation (a reader thread still draining a killed
//! worker's pipe) carry their generation and are ignored.

use crate::fault::RetryPolicy;

/// Lifecycle state of one worker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Healthy and free to take an ask.
    Idle,
    /// Executing the ask identified by `ticket`.
    Busy {
        /// The outstanding ask's ticket.
        ticket: u64,
    },
    /// The worker process is gone (exit, EOF, protocol garbage, missed
    /// heartbeat). `respawn_at_ms == None` means the respawn budget is
    /// spent and the slot is terminally dead.
    Dead {
        /// When the slot may be respawned, if ever.
        respawn_at_ms: Option<u64>,
    },
}

/// Why [`Supervisor::complete`] refused a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaleResult {
    /// The slot is not running anything (idle, or dead and the ticket
    /// already resolved as lost).
    NotBusy,
    /// The slot is busy with a *different* ticket — the result belongs
    /// to a previous incarnation and was already resolved.
    WrongTicket {
        /// The ticket the slot is actually running.
        current: u64,
    },
    /// The worker index is out of range.
    NoSuchWorker,
}

#[derive(Debug, Clone)]
struct Slot {
    state: SlotState,
    /// Timestamp of the last sign of life (spawn, heartbeat, result).
    last_seen_ms: u64,
    /// Bumped on every respawn; events tagged with an older generation
    /// are from a dead incarnation.
    generation: u64,
    /// How many times this slot has been respawned.
    respawns: u32,
}

/// Pure supervision state for a farm of `workers` slots. See the module
/// docs for the lifecycle; all methods take "now" in milliseconds on any
/// monotonic scale (the farm uses time since its own start).
#[derive(Debug)]
pub struct Supervisor {
    slots: Vec<Slot>,
    next_ticket: u64,
    heartbeat_timeout_ms: u64,
    max_respawns: u32,
    backoff: RetryPolicy,
    seed: u64,
}

impl Supervisor {
    /// A farm of `workers` idle slots. `heartbeat_timeout_ms` is the
    /// stall deadline (a worker silent that long is declared lost);
    /// `max_respawns` bounds per-slot restarts; `seed` keys the
    /// deterministic respawn backoff drawn from `backoff`.
    pub fn new(
        workers: usize,
        heartbeat_timeout_ms: u64,
        max_respawns: u32,
        seed: u64,
        backoff: RetryPolicy,
    ) -> Self {
        Supervisor {
            slots: vec![
                Slot {
                    state: SlotState::Idle,
                    last_seen_ms: 0,
                    generation: 0,
                    respawns: 0,
                };
                workers
            ],
            next_ticket: 0,
            heartbeat_timeout_ms,
            max_respawns,
            backoff,
            seed,
        }
    }

    /// Number of slots (fixed at construction).
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// The slot's current state.
    pub fn state(&self, worker: usize) -> Option<SlotState> {
        self.slots.get(worker).map(|s| s.state)
    }

    /// The slot's current incarnation number.
    pub fn generation(&self, worker: usize) -> Option<u64> {
        self.slots.get(worker).map(|s| s.generation)
    }

    /// How many slots are currently executing an ask.
    pub fn busy_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Busy { .. }))
            .count()
    }

    /// Claim an idle slot for the next ask: returns `(worker, ticket)`
    /// and marks the slot busy. Tickets are unique across the farm's
    /// lifetime — the admission permit *is* the busy slot, so at most
    /// `workers` tickets are ever outstanding.
    pub fn try_assign(&mut self, now_ms: u64) -> Option<(usize, u64)> {
        let idx = self
            .slots
            .iter()
            .position(|s| matches!(s.state, SlotState::Idle))?;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.slots[idx].state = SlotState::Busy { ticket };
        self.slots[idx].last_seen_ms = now_ms;
        Some((idx, ticket))
    }

    /// A result arrived for `ticket` on `worker`: frees the slot if the
    /// ticket is the one outstanding there, otherwise reports exactly why
    /// the result is stale so the farm can drop it — a ticket resolves at
    /// most once, ever.
    pub fn complete(&mut self, worker: usize, ticket: u64, now_ms: u64) -> Result<(), StaleResult> {
        let Some(slot) = self.slots.get_mut(worker) else {
            return Err(StaleResult::NoSuchWorker);
        };
        match slot.state {
            SlotState::Busy { ticket: current } if current == ticket => {
                slot.state = SlotState::Idle;
                slot.last_seen_ms = now_ms;
                Ok(())
            }
            SlotState::Busy { ticket: current } => Err(StaleResult::WrongTicket { current }),
            SlotState::Idle | SlotState::Dead { .. } => Err(StaleResult::NotBusy),
        }
    }

    /// The worker died (exit, EOF, garbage) or was declared stalled:
    /// marks the slot dead, schedules a respawn if budget remains, and
    /// returns the orphaned ticket if an ask was in flight — the caller
    /// re-dispatches it. Idempotent: losing an already-dead slot changes
    /// nothing and orphans nothing.
    pub fn lost(&mut self, worker: usize, now_ms: u64) -> Option<u64> {
        let slot = self.slots.get_mut(worker)?;
        let orphaned = match slot.state {
            SlotState::Busy { ticket } => Some(ticket),
            SlotState::Idle => None,
            SlotState::Dead { .. } => return None,
        };
        let respawn_at_ms = (slot.respawns < self.max_respawns).then(|| {
            let delay = self
                .backoff
                .backoff(self.seed, worker as u64, slot.respawns);
            now_ms + delay.as_millis() as u64
        });
        slot.state = SlotState::Dead { respawn_at_ms };
        orphaned
    }

    /// A sign of life from the worker (heartbeat or any valid frame).
    /// Ignored for dead slots — a zombie's beacon does not resurrect it.
    pub fn heartbeat(&mut self, worker: usize, now_ms: u64) {
        if let Some(slot) = self.slots.get_mut(worker) {
            if !matches!(slot.state, SlotState::Dead { .. }) {
                slot.last_seen_ms = now_ms;
            }
        }
    }

    /// Live workers silent for longer than the heartbeat deadline. The
    /// farm kills each and then reports it via [`Supervisor::lost`].
    pub fn stalled(&self, now_ms: u64) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s.state, SlotState::Dead { .. }))
            .filter(|(_, s)| now_ms.saturating_sub(s.last_seen_ms) > self.heartbeat_timeout_ms)
            .map(|(i, _)| i)
            .collect()
    }

    /// Dead slots whose backoff has elapsed and may be respawned now.
    pub fn due_respawns(&self, now_ms: u64) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                matches!(s.state, SlotState::Dead { respawn_at_ms: Some(at) } if at <= now_ms)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// The earliest instant, no earlier than `now_ms`, at which
    /// [`Supervisor::stalled`] or [`Supervisor::due_respawns`] becomes
    /// non-empty if no further event arrives — the farm's monitor sleeps
    /// until then. `None` means neither ever fires without a further
    /// event: every slot is terminally dead, or its deadline lies past
    /// the end of the `u64` millisecond scale.
    pub fn next_deadline(&self, now_ms: u64) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|s| match s.state {
                SlotState::Dead { respawn_at_ms } => respawn_at_ms,
                // `stalled` needs strictly more than the timeout of silence.
                SlotState::Idle | SlotState::Busy { .. } => s
                    .last_seen_ms
                    .checked_add(self.heartbeat_timeout_ms)?
                    .checked_add(1),
            })
            .min()
            .map(|at| at.max(now_ms))
    }

    /// A fresh process now occupies the slot: back to idle under a new
    /// generation, with one more respawn on the meter.
    pub fn respawned(&mut self, worker: usize, now_ms: u64) {
        if let Some(slot) = self.slots.get_mut(worker) {
            if matches!(slot.state, SlotState::Dead { .. }) {
                slot.state = SlotState::Idle;
                slot.generation += 1;
                slot.respawns += 1;
                slot.last_seen_ms = now_ms;
            }
        }
    }

    /// Whether the farm is beyond saving: every slot dead with no respawn
    /// pending. Waiting for a slot would block forever — the run must
    /// fail the attempt instead.
    pub fn all_lost(&self) -> bool {
        self.slots.iter().all(|s| {
            matches!(
                s.state,
                SlotState::Dead {
                    respawn_at_ms: None
                }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup(workers: usize) -> Supervisor {
        Supervisor::new(workers, 1_000, 3, 42, RetryPolicy::default())
    }

    #[test]
    fn assign_complete_cycles_a_slot() {
        let mut s = sup(2);
        let (w0, t0) = s.try_assign(0).unwrap();
        let (w1, t1) = s.try_assign(0).unwrap();
        assert_ne!(w0, w1);
        assert_ne!(t0, t1);
        assert_eq!(s.try_assign(0), None, "both permits out");
        assert_eq!(s.busy_count(), 2);
        s.complete(w0, t0, 5).unwrap();
        assert_eq!(s.busy_count(), 1);
        let (w2, t2) = s.try_assign(5).unwrap();
        assert_eq!(w2, w0, "freed slot is reusable");
        assert_ne!(t2, t0, "but under a fresh ticket");
    }

    #[test]
    fn tickets_resolve_at_most_once() {
        let mut s = sup(1);
        let (w, t) = s.try_assign(0).unwrap();
        s.complete(w, t, 1).unwrap();
        assert_eq!(s.complete(w, t, 2), Err(StaleResult::NotBusy));
        let (w, t) = s.try_assign(3).unwrap();
        assert_eq!(s.lost(w, 4), Some(t), "loss orphans the ticket");
        assert_eq!(s.complete(w, t, 5), Err(StaleResult::NotBusy));
        assert_eq!(s.lost(w, 6), None, "loss is idempotent");
    }

    #[test]
    fn respawn_lifecycle_and_generation() {
        let mut s = sup(1);
        assert_eq!(s.generation(0), Some(0));
        s.lost(0, 10);
        let due_at = match s.state(0) {
            Some(SlotState::Dead {
                respawn_at_ms: Some(at),
            }) => at,
            other => panic!("expected scheduled respawn, got {other:?}"),
        };
        assert!(due_at >= 10);
        assert!(s.due_respawns(due_at.saturating_sub(1)).is_empty());
        assert_eq!(s.due_respawns(due_at), vec![0]);
        s.respawned(0, due_at);
        assert_eq!(s.state(0), Some(SlotState::Idle));
        assert_eq!(s.generation(0), Some(1));
    }

    #[test]
    fn respawn_budget_exhausts_to_terminal_death() {
        let mut s = sup(1);
        for _ in 0..3 {
            s.lost(0, 0);
            let due = s.due_respawns(u64::MAX);
            assert_eq!(due, vec![0]);
            s.respawned(0, 0);
        }
        s.lost(0, 0);
        assert_eq!(
            s.state(0),
            Some(SlotState::Dead {
                respawn_at_ms: None
            })
        );
        assert!(s.due_respawns(u64::MAX).is_empty());
        assert!(s.all_lost());
    }

    #[test]
    fn stall_detection_follows_heartbeats() {
        let mut s = sup(2);
        s.heartbeat(0, 100);
        s.heartbeat(1, 500);
        assert!(s.stalled(1_000).is_empty(), "inside the deadline");
        assert_eq!(s.stalled(1_200), vec![0], "worker 0 silent too long");
        assert_eq!(s.stalled(2_000), vec![0, 1]);
        s.lost(0, 2_000);
        assert_eq!(s.stalled(2_000), vec![1], "dead slots are not stalled");
        s.heartbeat(0, 3_000);
        assert!(
            matches!(s.state(0), Some(SlotState::Dead { .. })),
            "a zombie's beacon does not resurrect it"
        );
    }

    #[test]
    fn next_deadline_is_the_first_stall_or_respawn() {
        let mut s = sup(2);
        s.heartbeat(0, 100);
        s.heartbeat(1, 500);
        assert_eq!(s.next_deadline(200), Some(1_101), "worker 0 stalls first");
        assert!(s.stalled(1_100).is_empty());
        assert_eq!(s.stalled(1_101), vec![0]);
        assert_eq!(s.next_deadline(1_300), Some(1_300), "already overdue");
        s.lost(0, 150);
        let due_at = match s.state(0) {
            Some(SlotState::Dead {
                respawn_at_ms: Some(at),
            }) => at,
            other => panic!("expected scheduled respawn, got {other:?}"),
        };
        assert_eq!(s.next_deadline(150), Some(due_at.min(1_501)));
        let mut s = Supervisor::new(1, 1_000, 0, 42, RetryPolicy::default());
        s.lost(0, 0);
        assert_eq!(s.next_deadline(0), None, "terminally dead");
    }

    #[test]
    fn respawn_backoff_is_deterministic_in_the_seed() {
        let schedule = |seed: u64| {
            let mut s = Supervisor::new(1, 1_000, 3, seed, RetryPolicy::default());
            let mut at = Vec::new();
            for _ in 0..3 {
                s.lost(0, 0);
                match s.state(0) {
                    Some(SlotState::Dead {
                        respawn_at_ms: Some(t),
                    }) => at.push(t),
                    other => panic!("expected scheduled respawn, got {other:?}"),
                }
                s.respawned(0, 0);
            }
            at
        };
        assert_eq!(schedule(7), schedule(7));
    }
}
