//! Property-based coverage of the tuner's commit sequencer.
//!
//! The sequencer decides every ordering the tuner's byte-identity rests
//! on: which trial a free worker claims, when a trial may commit, and
//! who holds the journal turn. These properties drive it with arbitrary
//! interleavings of asks (suggested, refused, panicking), resumed-trial
//! re-dispatches, trial completions and commit attempts — out-of-order
//! ones included — against a shadow model, and check:
//!
//! * **asks stay in the window** — a fresh ask is admitted only inside
//!   `[next_commit, next_commit + window)`, in id order;
//! * **commits run in ask order**, skipping ids a previous incarnation
//!   settled;
//! * **one journal turn at a time** — while an ask or commit holds it,
//!   nobody else may ask or commit;
//! * **no early commit** — a commit is granted exactly when no fresh ask
//!   is admissible and no dangling trial awaits re-dispatch (or the run
//!   is winding down);
//! * **a commit un-parks the searcher**;
//! * **liveness** — from any reachable state, a fair scheduler drains
//!   the run: every asked trial commits and the budget is spent unless
//!   the searcher ran dry or panicked.

use e2c_tune::sequencer::{AskOutcome, Dispatch, Sequencer, Turn};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeSet, VecDeque};

/// One scripted event in an interleaving. Indices pick among the trials
/// currently running or finished (modulo their count).
#[derive(Debug, Clone)]
enum Op {
    /// A free worker asks the sequencer for work.
    Dispatch,
    /// The ask or resume turn holder finishes with this outcome.
    EndAsk(AskOutcome),
    /// A running trial's attempts are done; it now waits to commit.
    Finish(usize),
    /// A finished trial asks to commit — possibly out of turn.
    Commit(usize),
    /// The commit turn holder finishes; `exhaust` models a searcher
    /// whose observe panicked.
    EndCommit { exhaust: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Arms are repeated to weight them (the vendored proptest has no
    // weighted `prop_oneof`): most steps should make progress.
    prop_oneof![
        Just(Op::Dispatch),
        Just(Op::Dispatch),
        Just(Op::Dispatch),
        Just(Op::EndAsk(AskOutcome::Suggested)),
        Just(Op::EndAsk(AskOutcome::Suggested)),
        Just(Op::EndAsk(AskOutcome::Suggested)),
        Just(Op::EndAsk(AskOutcome::Refused)),
        (0usize..8).prop_map(Op::Finish),
        (0usize..8).prop_map(Op::Finish),
        (0usize..8).prop_map(Op::Commit),
        (0usize..8).prop_map(Op::Commit),
        (0usize..8).prop_map(Op::Commit),
        Just(Op::EndCommit { exhaust: false }),
        Just(Op::EndCommit { exhaust: false }),
        Just(Op::EndCommit { exhaust: false }),
        prop_oneof![
            Just(Op::EndAsk(AskOutcome::Panicked)),
            Just(Op::EndCommit { exhaust: true }),
            Just(Op::Dispatch),
            Just(Op::Dispatch),
        ],
    ]
}

/// Shadow model: which ids are settled, running, finished or dangling,
/// and the searcher flags — tracked as sets rather than counters.
struct Model {
    window: u64,
    budget: u64,
    next_ask: u64,
    /// Settled by a previous incarnation or committed in this one.
    settled: BTreeSet<u64>,
    pending: VecDeque<u64>,
    running: Vec<u64>,
    finished: Vec<u64>,
    turn: Option<Turn>,
    parked: bool,
    dry: bool,
    exhausted: bool,
}

impl Model {
    /// Lowest id not yet settled: the only one allowed to commit.
    fn next_commit(&self) -> u64 {
        (0..).find(|id| !self.settled.contains(id)).unwrap_or(0)
    }

    fn in_flight(&self) -> usize {
        self.running.len() + self.finished.len()
    }

    fn ask_admissible(&self) -> bool {
        !self.exhausted
            && !self.dry
            && !self.parked
            && self.pending.is_empty()
            && self.next_ask < self.budget
            && self.next_ask < self.next_commit() + self.window
    }

    /// A dangling trial still awaits re-dispatch.
    fn resume_due(&self) -> bool {
        !self.exhausted && !self.pending.is_empty()
    }

    fn stopped(&self) -> bool {
        self.exhausted || self.dry || (self.pending.is_empty() && self.next_ask >= self.budget)
    }
}

/// A resumed (or fresh) starting point: ids below `next_ask` are either
/// settled or dangling, and every dangling id lies inside the window of
/// the first one — the run fingerprint pins the window across a crash.
fn start(window: u64, budget: u64, settled_mask: &[bool]) -> (Sequencer, Model) {
    let mut settled = BTreeSet::new();
    let mut pending = VecDeque::new();
    for (id, &done) in (0u64..).zip(settled_mask) {
        let in_window = pending.front().is_none_or(|&first| id < first + window);
        if done || !in_window {
            settled.insert(id);
        } else {
            pending.push_back(id);
        }
    }
    let next_ask = settled_mask.len() as u64;
    let seq = Sequencer::new(
        window as usize,
        budget as usize,
        next_ask,
        settled.clone(),
        pending.iter().map(|&id| (id, vec![id as f64])).collect(),
    );
    let model = Model {
        window,
        budget,
        next_ask,
        settled,
        pending,
        running: Vec::new(),
        finished: Vec::new(),
        turn: None,
        parked: false,
        dry: false,
        exhausted: false,
    };
    (seq, model)
}

fn dispatch(seq: &mut Sequencer, model: &mut Model) -> Result<Dispatch, TestCaseError> {
    let step = seq.dispatch();
    match &step {
        Dispatch::Resume(id, config) => {
            prop_assert!(
                model.turn.is_none(),
                "resume granted while {:?} held",
                model.turn
            );
            prop_assert_eq!(
                model.pending.pop_front(),
                Some(*id),
                "resumes run in id order"
            );
            prop_assert_eq!(config, &vec![*id as f64], "resume lost its configuration");
            model.turn = Some(Turn::Resume(*id));
        }
        Dispatch::Ask(id) => {
            prop_assert!(
                model.turn.is_none(),
                "ask granted while {:?} held",
                model.turn
            );
            prop_assert!(model.ask_admissible(), "inadmissible ask {} granted", id);
            prop_assert_eq!(*id, model.next_ask, "asks run in id order");
            prop_assert!(
                *id >= model.next_commit() && *id < model.next_commit() + model.window,
                "ask {} outside the window at commit {}",
                id,
                model.next_commit()
            );
            model.turn = Some(Turn::Ask(*id));
        }
        Dispatch::Wait => {
            prop_assert!(
                !model.exhausted && !model.dry,
                "a stopped run must say Stop"
            );
            prop_assert!(
                model.turn.is_some()
                    || (!model.stopped() && model.pending.is_empty() && !model.ask_admissible()),
                "idle worker told to wait with work available"
            );
        }
        Dispatch::Stop => prop_assert!(model.stopped(), "Stop with asks still possible"),
    }
    Ok(step)
}

fn end_ask(
    seq: &mut Sequencer,
    model: &mut Model,
    outcome: AskOutcome,
) -> Result<(), TestCaseError> {
    match model.turn {
        Some(Turn::Resume(id)) => {
            seq.end_ask(AskOutcome::Suggested);
            model.running.push(id);
        }
        Some(Turn::Ask(id)) => {
            seq.end_ask(outcome);
            match outcome {
                AskOutcome::Suggested => {
                    model.next_ask += 1;
                    model.running.push(id);
                }
                AskOutcome::Refused if model.in_flight() == 0 => model.dry = true,
                AskOutcome::Refused => model.parked = true,
                AskOutcome::Panicked => model.exhausted = true,
            }
        }
        _ => return Ok(()),
    }
    model.turn = None;
    Ok(())
}

fn commit(seq: &mut Sequencer, model: &mut Model, id: u64) -> Result<bool, TestCaseError> {
    let due = model.turn.is_none()
        && id == model.next_commit()
        && !model.ask_admissible()
        && !model.resume_due();
    match seq.begin_commit(id) {
        Some(asks) => {
            prop_assert!(
                due,
                "commit {} granted before it was due (next commit {})",
                id,
                model.next_commit()
            );
            prop_assert_eq!(asks, model.next_ask, "ask count recorded at commit");
            model.turn = Some(Turn::Commit(id));
            Ok(true)
        }
        None => {
            prop_assert!(!due, "due commit {} refused", id);
            Ok(false)
        }
    }
}

fn end_commit(seq: &mut Sequencer, model: &mut Model, exhaust: bool) -> Result<(), TestCaseError> {
    let Some(Turn::Commit(id)) = model.turn else {
        return Ok(());
    };
    if exhaust {
        seq.exhaust();
        model.exhausted = true;
    }
    seq.end_commit();
    prop_assert!(!seq.ask_parked(), "a commit must clear ask_parked");
    model.finished.retain(|&f| f != id);
    model.settled.insert(id);
    model.parked = false;
    model.turn = None;
    Ok(())
}

fn check(seq: &Sequencer, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(seq.turn(), model.turn, "turn holder drifted");
    prop_assert_eq!(seq.next_ask(), model.next_ask, "next ask drifted");
    prop_assert_eq!(
        seq.next_commit(),
        model.next_commit(),
        "next commit drifted"
    );
    prop_assert_eq!(seq.ask_parked(), model.parked, "parking flag drifted");
    prop_assert!(
        model.in_flight() as u64 <= model.window,
        "{} trials in flight with window {}",
        model.in_flight(),
        model.window
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings keep every sequencer rule, and the run can
    /// always be drained to completion afterwards.
    #[test]
    fn interleavings_keep_the_commit_order_and_drain(
        window in 1u64..5,
        budget in 1u64..12,
        settled_mask in prop::collection::vec(any::<bool>(), 0..6),
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let budget = budget.max(settled_mask.len() as u64);
        let (mut seq, mut model) = start(window, budget, &settled_mask);
        check(&seq, &model)?;
        for op in ops {
            match op {
                Op::Dispatch => {
                    dispatch(&mut seq, &mut model)?;
                }
                Op::EndAsk(outcome) => end_ask(&mut seq, &mut model, outcome)?,
                Op::Finish(k) => {
                    if !model.running.is_empty() {
                        let id = model.running.remove(k % model.running.len());
                        model.finished.push(id);
                    }
                }
                Op::Commit(k) => {
                    if !model.finished.is_empty() {
                        let id = model.finished[k % model.finished.len()];
                        commit(&mut seq, &mut model, id)?;
                    }
                }
                Op::EndCommit { exhaust } => end_commit(&mut seq, &mut model, exhaust)?,
            }
            check(&seq, &model)?;
        }

        // Drain with a fair scheduler: end any held turn, finish every
        // running trial, commit when due, otherwise dispatch. Every step
        // must make progress until the run stops with nothing in flight.
        let mut steps = 0;
        loop {
            steps += 1;
            prop_assert!(steps < 1_000, "drain did not terminate");
            match model.turn {
                Some(Turn::Commit(_)) => end_commit(&mut seq, &mut model, false)?,
                Some(_) => end_ask(&mut seq, &mut model, AskOutcome::Suggested)?,
                None => {
                    model.finished.append(&mut model.running);
                    let next = model.next_commit();
                    if model.finished.contains(&next) && commit(&mut seq, &mut model, next)? {
                        check(&seq, &model)?;
                        continue;
                    }
                    match dispatch(&mut seq, &mut model)? {
                        Dispatch::Stop if model.in_flight() == 0 => break,
                        Dispatch::Wait => prop_assert!(false, "drain stalled"),
                        Dispatch::Stop if !model.finished.contains(&next) => {
                            prop_assert!(false, "trial {} can never commit", next)
                        }
                        _ => {}
                    }
                }
            }
            check(&seq, &model)?;
        }
        for id in 0..model.next_ask {
            prop_assert!(model.settled.contains(&id), "trial {} never committed", id);
        }
        prop_assert!(model.pending.is_empty() || model.exhausted, "dangling trial never re-ran");
        if !model.exhausted && !model.dry {
            prop_assert_eq!(model.next_ask, model.budget, "run stopped short of its budget");
        }
    }
}
