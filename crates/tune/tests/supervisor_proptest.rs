//! Property-based coverage of the farm supervisor's state machine.
//!
//! The supervisor is the crash-tolerance core of the multi-process trial
//! farm: every scheduling and loss decision the farm makes goes through
//! it. These properties drive it with arbitrary interleavings of
//! assignment, completion, loss, heartbeats, stall scans and respawns —
//! including deliberately stale and out-of-range events — against a
//! shadow model, and check the invariants the farm leans on:
//!
//! * **a ticket resolves at most once** — either its `complete` is
//!   accepted or its loss orphans it, never both, never twice (no
//!   double-commit of an ask);
//! * **permits are conserved** — `busy_count` always equals the number
//!   of outstanding tickets and never exceeds the worker count (no
//!   leaked or fabricated admission permits);
//! * **tickets are never reused**, even across respawn generations;
//! * **respawns stay within budget**, and a terminally dead farm is
//!   recognized as such;
//! * **`next_deadline` is the first instant anything fires** — nothing
//!   is stalled or due before it, something is at it, and `None` means
//!   nothing ever fires without a further event (the farm's monitor
//!   sleeps until it).

use e2c_tune::fault::RetryPolicy;
use e2c_tune::supervisor::{SlotState, StaleResult, Supervisor};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// One scripted event in an interleaving. Worker indices are drawn a bit
/// past the farm size so out-of-range events are exercised too.
#[derive(Debug, Clone)]
enum Op {
    /// Claim a slot for the next ask.
    Assign,
    /// Deliver the outstanding result for `worker` (if any).
    CompleteCurrent { worker: usize },
    /// Replay an already-resolved ticket at `worker` — must be refused.
    CompleteStale { worker: usize },
    /// The worker died or was declared stalled.
    Lost { worker: usize },
    /// A sign of life.
    Heartbeat { worker: usize },
    /// Let time pass.
    Advance { ms: u64 },
    /// Kill everything the stall scan reports.
    ReapStalled,
    /// Respawn every dead slot whose backoff has elapsed.
    RespawnDue,
}

fn arb_op(workers: usize) -> impl Strategy<Value = Op> {
    let w = 0..workers + 2; // +2: out-of-range indices must be harmless
                            // Assign/complete arms are repeated: interleavings should spend most
                            // of their steps actually cycling permits (the vendored proptest has
                            // no weighted `prop_oneof`).
    prop_oneof![
        Just(Op::Assign),
        Just(Op::Assign),
        Just(Op::Assign),
        w.clone().prop_map(|worker| Op::CompleteCurrent { worker }),
        w.clone().prop_map(|worker| Op::CompleteCurrent { worker }),
        w.clone().prop_map(|worker| Op::CompleteCurrent { worker }),
        w.clone().prop_map(|worker| Op::CompleteStale { worker }),
        w.clone().prop_map(|worker| Op::Lost { worker }),
        w.clone().prop_map(|worker| Op::Lost { worker }),
        w.clone().prop_map(|worker| Op::Heartbeat { worker }),
        w.clone().prop_map(|worker| Op::Heartbeat { worker }),
        (1u64..2_000).prop_map(|ms| Op::Advance { ms }),
        (1u64..2_000).prop_map(|ms| Op::Advance { ms }),
        Just(Op::ReapStalled),
        Just(Op::RespawnDue),
    ]
}

/// Shadow model: which ticket is outstanding where, and everything that
/// has ever resolved (completed or orphaned).
#[derive(Default)]
struct Model {
    outstanding: BTreeMap<u64, usize>,
    resolved: BTreeSet<u64>,
    issued: BTreeSet<u64>,
}

impl Model {
    fn ticket_at(&self, worker: usize) -> Option<u64> {
        self.outstanding
            .iter()
            .find(|(_, &w)| w == worker)
            .map(|(&t, _)| t)
    }

    fn resolve(&mut self, ticket: u64) -> Result<(), TestCaseError> {
        prop_assert!(
            self.outstanding.remove(&ticket).is_some(),
            "resolved ticket {ticket} was not outstanding"
        );
        prop_assert!(
            self.resolved.insert(ticket),
            "ticket {ticket} resolved twice"
        );
        Ok(())
    }
}

/// Cross-check the supervisor against the model after every step.
fn check_invariants(
    sup: &Supervisor,
    model: &Model,
    workers: usize,
    max_respawns: u32,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        sup.busy_count(),
        model.outstanding.len(),
        "permit count drifted from the outstanding-ticket count"
    );
    prop_assert!(sup.busy_count() <= workers, "more permits than workers");
    for (&ticket, &worker) in &model.outstanding {
        prop_assert_eq!(
            sup.state(worker),
            Some(SlotState::Busy { ticket }),
            "model says worker {} runs ticket {}",
            worker,
            ticket
        );
    }
    for worker in 0..workers {
        let gen = sup.generation(worker).unwrap();
        prop_assert!(
            gen <= max_respawns as u64,
            "generation {gen} exceeds the respawn budget"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings of every event the farm can feed the
    /// supervisor never double-resolve a ticket, never leak or fabricate
    /// a permit, and never reuse a ticket.
    #[test]
    fn interleavings_preserve_ticket_and_permit_invariants(
        workers in 1usize..5,
        ops in prop::collection::vec(arb_op(4), 1..80),
    ) {
        let max_respawns = 2u32;
        let mut sup = Supervisor::new(workers, 500, max_respawns, 7, RetryPolicy::default());
        let mut model = Model::default();
        let mut now = 0u64;

        for op in ops {
            match op {
                Op::Assign => {
                    let had_idle = (0..workers)
                        .any(|w| sup.state(w) == Some(SlotState::Idle));
                    match sup.try_assign(now) {
                        Some((worker, ticket)) => {
                            prop_assert!(had_idle, "assigned with no idle slot");
                            prop_assert!(worker < workers);
                            prop_assert!(
                                model.issued.insert(ticket),
                                "ticket {} issued twice", ticket
                            );
                            model.outstanding.insert(ticket, worker);
                        }
                        None => prop_assert!(!had_idle, "idle slot refused an ask"),
                    }
                }
                Op::CompleteCurrent { worker } => {
                    match model.ticket_at(worker) {
                        Some(ticket) => {
                            prop_assert_eq!(sup.complete(worker, ticket, now), Ok(()));
                            model.resolve(ticket)?;
                        }
                        None => {
                            // Nothing outstanding there: any ticket number
                            // must be refused, whatever the reason.
                            prop_assert!(sup.complete(worker, 0, now).is_err());
                        }
                    }
                }
                Op::CompleteStale { worker } => {
                    // Replaying any resolved ticket must be refused — this
                    // is the no-double-commit guarantee under result races.
                    if let Some(&ticket) = model.resolved.iter().next_back() {
                        let refused = sup.complete(worker, ticket, now);
                        prop_assert!(
                            matches!(
                                refused,
                                Err(StaleResult::NotBusy)
                                    | Err(StaleResult::WrongTicket { .. })
                                    | Err(StaleResult::NoSuchWorker)
                            ),
                            "stale ticket {} re-accepted: {:?}", ticket, refused
                        );
                    }
                }
                Op::Lost { worker } => {
                    let expected = model.ticket_at(worker);
                    let orphaned = sup.lost(worker, now);
                    if worker < workers {
                        prop_assert_eq!(orphaned, expected, "wrong orphan on loss");
                    } else {
                        prop_assert_eq!(orphaned, None);
                    }
                    if let Some(ticket) = orphaned {
                        model.resolve(ticket)?;
                    }
                }
                Op::Heartbeat { worker } => sup.heartbeat(worker, now),
                Op::Advance { ms } => now += ms,
                Op::ReapStalled => {
                    for worker in sup.stalled(now) {
                        prop_assert!(
                            !matches!(sup.state(worker), Some(SlotState::Dead { .. })),
                            "stall scan reported a dead slot"
                        );
                        if let Some(ticket) = sup.lost(worker, now) {
                            model.resolve(ticket)?;
                        }
                    }
                }
                Op::RespawnDue => {
                    for worker in sup.due_respawns(now) {
                        let before = sup.generation(worker).unwrap();
                        sup.respawned(worker, now);
                        prop_assert_eq!(sup.state(worker), Some(SlotState::Idle));
                        prop_assert_eq!(sup.generation(worker), Some(before + 1));
                    }
                }
            }
            check_invariants(&sup, &model, workers, max_respawns)?;
        }

        // Terminal check: `all_lost` answers exactly "every slot is dead
        // with no respawn pending".
        let every_slot_terminal = (0..workers).all(|w| {
            matches!(sup.state(w), Some(SlotState::Dead { respawn_at_ms: None }))
        });
        prop_assert_eq!(sup.all_lost(), every_slot_terminal);
    }

    /// Loss is idempotent and a dead slot never yields permits: hammering
    /// one slot with losses orphans its ticket exactly once.
    #[test]
    fn repeated_losses_orphan_exactly_once(losses in 2usize..8) {
        let mut sup = Supervisor::new(1, 500, 1, 3, RetryPolicy::default());
        let (worker, ticket) = sup.try_assign(0).unwrap();
        let mut orphans = 0usize;
        for i in 0..losses {
            if let Some(t) = sup.lost(worker, i as u64) {
                prop_assert_eq!(t, ticket);
                orphans += 1;
            }
        }
        prop_assert_eq!(orphans, 1, "ticket orphaned more than once");
        prop_assert_eq!(sup.busy_count(), 0);
        prop_assert_eq!(sup.complete(worker, ticket, 99), Err(StaleResult::NotBusy));
    }

    /// The monitor's wake-up time agrees with a shadow model of every
    /// slot's last sign of life, and with the scans themselves: nothing
    /// fires in `[now, next_deadline)`, something fires at it, and `None`
    /// means the scans stay empty however late it gets.
    #[test]
    fn next_deadline_is_the_first_instant_a_scan_fires(
        workers in 1usize..5,
        timeout in 0u64..1_500,
        ops in prop::collection::vec(arb_op(4), 1..80),
    ) {
        let mut sup = Supervisor::new(workers, timeout, 2, 11, RetryPolicy::default());
        let mut last_seen = vec![0u64; workers];
        let mut now = 0u64;
        let fires = |sup: &Supervisor, t: u64| {
            !sup.stalled(t).is_empty() || !sup.due_respawns(t).is_empty()
        };

        for op in ops {
            let live = |sup: &Supervisor, w: usize| {
                w < workers && !matches!(sup.state(w), Some(SlotState::Dead { .. }))
            };
            match op {
                Op::Assign => {
                    if let Some((worker, _)) = sup.try_assign(now) {
                        last_seen[worker] = now;
                    }
                }
                Op::CompleteCurrent { worker } => {
                    if let Some(SlotState::Busy { ticket }) = sup.state(worker) {
                        prop_assert_eq!(sup.complete(worker, ticket, now), Ok(()));
                        last_seen[worker] = now;
                    }
                }
                Op::CompleteStale { worker } => {
                    // A refused result is no sign of life.
                    let _ = sup.complete(worker, u64::MAX, now);
                }
                Op::Lost { worker } => {
                    sup.lost(worker, now);
                }
                Op::Heartbeat { worker } => {
                    if live(&sup, worker) {
                        last_seen[worker] = now;
                    }
                    sup.heartbeat(worker, now);
                }
                Op::Advance { ms } => now += ms,
                Op::ReapStalled => {
                    for worker in sup.stalled(now) {
                        sup.lost(worker, now);
                    }
                }
                Op::RespawnDue => {
                    for worker in sup.due_respawns(now) {
                        sup.respawned(worker, now);
                        last_seen[worker] = now;
                    }
                }
            }

            let expected = (0..workers)
                .filter_map(|w| match sup.state(w) {
                    Some(SlotState::Dead { respawn_at_ms }) => respawn_at_ms,
                    _ => Some(last_seen[w] + timeout + 1),
                })
                .min()
                .map(|at| at.max(now));
            let deadline = sup.next_deadline(now);
            prop_assert_eq!(deadline, expected, "deadline disagrees with the shadow model");
            match deadline {
                Some(at) => {
                    prop_assert!(at >= now, "deadline {} lies before now {}", at, now);
                    prop_assert!(fires(&sup, at), "nothing fires at the deadline {}", at);
                    if at > now {
                        for t in [now, now + (at - now) / 2, at - 1] {
                            prop_assert!(
                                !fires(&sup, t),
                                "a scan fires at {} before the deadline {}", t, at
                            );
                        }
                    }
                }
                None => {
                    for t in [now, now + 1_000_000, u64::MAX] {
                        prop_assert!(!fires(&sup, t), "a scan fires at {} with no deadline", t);
                    }
                }
            }
        }
    }
}
