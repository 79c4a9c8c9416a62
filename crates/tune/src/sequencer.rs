//! The tuner's commit sequencer, as a pure state machine.
//!
//! Trials execute concurrently, in any real-time order, but every effect
//! with observable order — searcher asks/tells, journal appends, trace
//! events — is applied in ask-index order, so a run is
//! byte-identical under any thread interleaving. [`Sequencer`] holds the
//! rules; it owns no locks, threads or clocks. The tuner keeps it behind
//! one mutex and performs the I/O itself. The rules:
//! * a fresh ask is admitted only inside `[next_commit, next_commit +
//!   window)`, so the ask/commit permutation is the canonical greedy one;
//! * trial `id` commits only when `next_commit == id`, no fresh ask is
//!   admissible and no dangling trial of a resumed run awaits
//!   re-dispatch (a wind-down waives the last two) — asks always journal
//!   before the commit they canonically precede;
//! * commits skip ids settled by a previous incarnation;
//! * one **journal turn** is granted at a time, to an ask or a commit;
//!   its holder does the turn's I/O outside the tuner's lock.

use e2c_optim::space::Point;
use std::collections::{BTreeSet, VecDeque};

/// The journal turn currently held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Turn {
    /// Re-dispatching dangling trial `id` of a resumed run.
    Resume(u64),
    /// Asking the searcher for fresh trial `id`.
    Ask(u64),
    /// Committing trial `id`.
    Commit(u64),
}

/// What a free worker should do next.
#[derive(Debug, Clone, PartialEq)]
pub enum Dispatch {
    /// Re-run this dangling trial with its journaled configuration. The
    /// caller holds the turn until [`Sequencer::end_ask`].
    Resume(u64, Point),
    /// Ask the searcher for this trial id. The caller holds the turn
    /// until [`Sequencer::end_ask`].
    Ask(u64),
    /// Nothing to do yet; retry after the next turn ends.
    Wait,
    /// No further asks will ever be admitted; the worker may exit.
    Stop,
}

/// How an ask turn ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AskOutcome {
    /// The searcher suggested a configuration (always the case for a
    /// resume turn).
    Suggested,
    /// The searcher declined (e.g. a concurrency limiter at capacity).
    /// Suggest paths that return `None` are side-effect-free, so
    /// re-probing after the next commit cannot perturb determinism.
    Refused,
    /// The searcher panicked: the run winds down, keeping every settled
    /// result.
    Panicked,
}

/// Admission and commit rules of the tuner; see the module docs.
#[derive(Debug)]
pub struct Sequencer {
    window: u64,
    budget: u64,
    next_ask: u64,
    next_commit: u64,
    /// The searcher refused while trials were in flight; cleared by
    /// every commit.
    ask_parked: bool,
    /// Budget spent or searcher dry; in-flight trials still commit.
    asks_done: bool,
    /// Wind-down after a searcher panic; in-flight trials still commit.
    exhausted: bool,
    /// Dangling trials of a resumed run, in id order.
    pending: VecDeque<(u64, Point)>,
    /// Ids settled by a previous incarnation: `next_commit` skips them.
    settled: BTreeSet<u64>,
    turn: Option<Turn>,
}

impl Sequencer {
    /// A sequencer admitting at most `window` trials in flight out of a
    /// `budget` of trials, continuing from `next_ask` with the `settled`
    /// and `pending` trials of a resumed run (all empty for a fresh run).
    pub fn new(
        window: usize,
        budget: usize,
        next_ask: u64,
        settled: BTreeSet<u64>,
        pending: Vec<(u64, Point)>,
    ) -> Self {
        let mut seq = Sequencer {
            window: window as u64,
            budget: budget as u64,
            next_ask,
            next_commit: 0,
            ask_parked: false,
            asks_done: false,
            exhausted: false,
            pending: pending.into(),
            settled,
            turn: None,
        };
        seq.skip_settled();
        seq
    }

    /// Next fresh trial id to ask for.
    pub fn next_ask(&self) -> u64 {
        self.next_ask
    }

    /// Id of the next trial allowed to commit.
    pub fn next_commit(&self) -> u64 {
        self.next_commit
    }

    /// The journal turn currently held, if any.
    pub fn turn(&self) -> Option<Turn> {
        self.turn
    }

    /// Whether the searcher refused and awaits the next commit.
    pub fn ask_parked(&self) -> bool {
        self.ask_parked
    }

    /// Whether a fresh ask is admissible, turn permitting.
    fn ask_admissible(&self) -> bool {
        !self.exhausted
            && !self.asks_done
            && !self.ask_parked
            && self.next_ask < self.budget
            && self.next_ask < self.next_commit + self.window
    }

    /// Whether a dangling trial awaits re-dispatch inside the window.
    /// The run fingerprint pins the window, so that is every dangling
    /// trial; a window shrunk across a crash still cannot deadlock.
    fn resume_due(&self) -> bool {
        !self.exhausted
            && self
                .pending
                .front()
                .is_some_and(|(id, _)| *id < self.next_commit + self.window)
    }

    /// Claim work for a free worker. Dangling trials come first, then
    /// fresh asks while the window has room.
    pub fn dispatch(&mut self) -> Dispatch {
        if self.exhausted || self.asks_done {
            return Dispatch::Stop;
        }
        if self.turn.is_some() {
            return Dispatch::Wait;
        }
        if let Some((id, config)) = self.pending.pop_front() {
            self.turn = Some(Turn::Resume(id));
            return Dispatch::Resume(id, config);
        }
        if self.next_ask >= self.budget {
            self.asks_done = true;
            return Dispatch::Stop;
        }
        if !self.ask_admissible() {
            return Dispatch::Wait;
        }
        self.turn = Some(Turn::Ask(self.next_ask));
        Dispatch::Ask(self.next_ask)
    }

    /// End the resume or ask turn granted by [`Sequencer::dispatch`].
    pub fn end_ask(&mut self, outcome: AskOutcome) {
        match (self.turn.take(), outcome) {
            (_, AskOutcome::Panicked) => self.exhausted = true,
            (Some(Turn::Ask(_)), AskOutcome::Suggested) => self.next_ask += 1,
            // Nothing in flight and nothing suggested: a dry searcher
            // (exhausted grid) can never produce again.
            (Some(Turn::Ask(_)), AskOutcome::Refused) if self.next_commit == self.next_ask => {
                self.asks_done = true
            }
            (Some(Turn::Ask(_)), AskOutcome::Refused) => self.ask_parked = true,
            _ => {}
        }
    }

    /// Take the turn to commit trial `id` if it is due, returning the
    /// number of asks journaled so far (the commit's place in the
    /// ask/commit permutation). `None` means wait for the next turn.
    pub fn begin_commit(&mut self, id: u64) -> Option<u64> {
        let due = self.turn.is_none()
            && self.next_commit == id
            && !self.ask_admissible()
            && !self.resume_due();
        if !due {
            return None;
        }
        self.turn = Some(Turn::Commit(id));
        Some(self.next_ask)
    }

    /// End the commit turn: advance to the next unsettled id and let a
    /// parked searcher be probed again.
    pub fn end_commit(&mut self) {
        if let Some(Turn::Commit(_)) = self.turn {
            self.turn = None;
            self.next_commit += 1;
            self.skip_settled();
            self.ask_parked = false;
        }
    }

    /// Wind the run down: no further dispatch; in-flight trials commit.
    pub fn exhaust(&mut self) {
        self.exhausted = true;
    }

    fn skip_settled(&mut self) {
        while self.settled.contains(&self.next_commit) {
            self.next_commit += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resume with trials 0–1 settled and 2–3 dangling, window 2.
    fn resumed() -> Sequencer {
        Sequencer::new(2, 6, 4, [0, 1].into(), vec![(2, vec![2.0]), (3, vec![3.0])])
    }

    #[test]
    fn commit_waits_for_every_dangling_trial_to_be_redispatched() {
        let mut seq = resumed();
        assert_eq!(seq.next_commit(), 2);
        assert_eq!(seq.dispatch(), Dispatch::Resume(2, vec![2.0]));
        seq.end_ask(AskOutcome::Suggested);
        // Trial 2 finished first, but trial 3's ask trace point precedes
        // commit 2 in the uninterrupted run: the commit must wait.
        assert_eq!(seq.begin_commit(2), None);
        assert_eq!(seq.dispatch(), Dispatch::Resume(3, vec![3.0]));
        seq.end_ask(AskOutcome::Suggested);
        assert_eq!(seq.begin_commit(2), Some(4));
    }

    #[test]
    fn a_winding_down_run_commits_without_redispatching() {
        let mut seq = resumed();
        assert_eq!(seq.dispatch(), Dispatch::Resume(2, vec![2.0]));
        seq.end_ask(AskOutcome::Suggested);
        seq.exhaust();
        assert_eq!(seq.dispatch(), Dispatch::Stop);
        assert_eq!(seq.begin_commit(2), Some(4));
    }

    #[test]
    fn one_turn_at_a_time_and_asks_stay_in_the_window() {
        let mut seq = Sequencer::new(2, 3, 0, BTreeSet::new(), Vec::new());
        assert_eq!(seq.dispatch(), Dispatch::Ask(0));
        assert_eq!(seq.dispatch(), Dispatch::Wait, "turn held");
        seq.end_ask(AskOutcome::Suggested);
        assert_eq!(seq.begin_commit(0), None, "ask 1 is admissible");
        assert_eq!(seq.dispatch(), Dispatch::Ask(1));
        seq.end_ask(AskOutcome::Suggested);
        assert_eq!(seq.dispatch(), Dispatch::Wait, "window full");
        assert_eq!(seq.begin_commit(1), None, "out of order");
        assert_eq!(seq.begin_commit(0), Some(2));
        assert_eq!(seq.dispatch(), Dispatch::Wait, "commit turn held");
        seq.end_commit();
        assert_eq!(seq.dispatch(), Dispatch::Ask(2));
        seq.end_ask(AskOutcome::Suggested);
        assert_eq!(seq.dispatch(), Dispatch::Stop, "budget spent");
    }

    #[test]
    fn a_refusal_parks_until_the_next_commit_or_ends_a_dry_run() {
        let mut seq = Sequencer::new(2, 9, 0, BTreeSet::new(), Vec::new());
        assert_eq!(seq.dispatch(), Dispatch::Ask(0));
        seq.end_ask(AskOutcome::Suggested);
        assert_eq!(seq.dispatch(), Dispatch::Ask(1));
        seq.end_ask(AskOutcome::Refused);
        assert!(seq.ask_parked());
        assert_eq!(seq.dispatch(), Dispatch::Wait);
        assert_eq!(seq.begin_commit(0), Some(1));
        seq.end_commit();
        assert!(!seq.ask_parked());
        assert_eq!(seq.dispatch(), Dispatch::Ask(1));
        seq.end_ask(AskOutcome::Refused);
        assert_eq!(seq.dispatch(), Dispatch::Stop, "dry searcher");
    }
}
