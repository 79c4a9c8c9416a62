//! Event queue with deterministic ordering and keyed timers.
//!
//! Events at equal timestamps pop in insertion (FIFO) order, which makes
//! simulations reproducible regardless of heap internals. Heap entries
//! carry their payload; once scheduled, a heap event always fires.
//!
//! Besides the heap, the queue holds keyed *timers*: at most one pending
//! event per key, re-armed or cleared in place. They are the queue's only
//! way to retract an event. A processor-sharing resource moves its next
//! completion on nearly every event; as a timer, each move costs a store
//! instead of a heap push. Arming a timer takes its sequence number from
//! the same counter as [`EventQueue::schedule`], so a re-armed timer pops
//! exactly where a freshly scheduled event would.
//!
//! The event loop pops with [`EventQueue::pop_until`]: the earliest
//! event if it fires by a horizon, else nothing. It looks at the timers
//! and the heap head once per event, where a `peek_time` before each
//! `pop` would look twice.
//!
//! No hash map is involved anywhere, so iteration order can never depend
//! on hasher state (detlint DET001 stays structurally impossible, not
//! just suppressed).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event with its ordering key `(at, seq)`: a heap entry or an
/// armed timer.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of `(SimTime, E)` pairs plus O(1) re-armable keyed
/// timers.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Timers by key; `None` while disarmed. Models use a handful of
    /// keys, so a scan for the earliest is a few compares.
    timers: Vec<Option<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            timers: Vec::new(),
            next_seq: 0,
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.take_seq();
        self.heap.push(Entry { at, seq, event });
    }

    /// Arm timer `key` to fire `event` at `at`, replacing whatever it
    /// held. The timer takes the next sequence number, exactly as
    /// scheduling `event` afresh would, so ties with heap events break
    /// the same way.
    pub fn set_timer(&mut self, key: usize, at: SimTime, event: E) {
        let seq = self.take_seq();
        if key >= self.timers.len() {
            self.timers.resize_with(key + 1, || None);
        }
        self.timers[key] = Some(Entry { at, seq, event });
    }

    /// Disarm timer `key`. No-op if it is not armed (or already fired).
    pub fn clear_timer(&mut self, key: usize) {
        if let Some(timer) = self.timers.get_mut(key) {
            *timer = None;
        }
    }

    /// The key and `(time, seq)` of the earliest armed timer.
    fn earliest_timer(&self) -> Option<(usize, (SimTime, u64))> {
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (key, timer) in self.timers.iter().enumerate() {
            if let Some(t) = timer {
                if best.is_none_or(|(_, order)| (t.at, t.seq) < order) {
                    best = Some((key, (t.at, t.seq)));
                }
            }
        }
        best
    }

    /// Remove and return the earliest event, heap entry or armed timer.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Remove and return the earliest event if it fires at or before
    /// `horizon`; otherwise leave the queue as it is and return `None`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let head = self.heap.peek().map(|entry| (entry.at, entry.seq));
        if let Some((key, order)) = self.earliest_timer() {
            if head.is_none_or(|head| order < head) {
                if order.0 > horizon {
                    return None;
                }
                let timer = self.timers[key].take().expect("earliest timer is armed");
                return Some((timer.at, timer.event));
            }
        }
        if head?.0 > horizon {
            return None;
        }
        self.heap.pop().map(|entry| (entry.at, entry.event))
    }

    /// Timestamp of the earliest event, if any, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let head = self.heap.peek().map(|entry| entry.at);
        match self.earliest_timer() {
            Some((_, (at, _))) => Some(head.map_or(at, |head| head.min(at))),
            None => head,
        }
    }

    /// Number of pending events: heap entries plus armed timers.
    pub fn len(&self) -> usize {
        self.heap.len() + self.timers.iter().filter(|t| t.is_some()).count()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.timers.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn det001_unordered_iteration_stays_structurally_impossible() {
        // Regression gate: the queue orders events by `(at, seq)` alone
        // and must not reintroduce a HashMap/HashSet that detlint would
        // flag (or that would need a justification comment to pass the
        // workspace lint).
        let findings = detlint::lint_source(
            "crates/des/src/queue.rs",
            include_str!("queue.rs"),
            &detlint::Config::default(),
        );
        let det001: Vec<_> = findings
            .iter()
            .filter(|f| matches!(f.rule, detlint::Rule::UnorderedIteration))
            .collect();
        assert!(det001.is_empty(), "{det001:?}");
    }

    #[test]
    fn timers_interleave_with_heap_events_by_time_then_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, "heap-first");
        q.set_timer(1, t, "timer");
        q.schedule(t, "heap-last");
        q.set_timer(0, SimTime::from_secs(2), "late timer");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, "heap-first")));
        assert_eq!(q.pop(), Some((t, "timer")));
        assert_eq!(q.pop(), Some((t, "heap-last")));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late timer")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn rearming_a_timer_replaces_it_and_takes_a_fresh_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.set_timer(0, t, "stale");
        q.schedule(t, "heap");
        // Re-armed after the heap event was scheduled: it now ties behind it.
        q.set_timer(0, t, "rearmed");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t, "heap")));
        assert_eq!(q.pop(), Some((t, "rearmed")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_until_stops_at_the_horizon_and_leaves_the_rest() {
        let mut q = EventQueue::new();
        let s = SimTime::from_secs;
        q.schedule(s(1), "heap");
        q.set_timer(0, s(1), "timer");
        q.schedule(s(3), "late");
        assert_eq!(q.pop_until(s(0)), None);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_until(s(1)), Some((s(1), "heap")));
        assert_eq!(q.pop_until(s(1)), Some((s(1), "timer")));
        assert_eq!(q.pop_until(s(2)), None);
        assert_eq!(q.peek_time(), Some(s(3)));
        assert_eq!(q.pop_until(s(3)), Some((s(3), "late")));
        assert_eq!(q.pop_until(SimTime::MAX), None);
        assert!(q.is_empty());
    }

    #[test]
    fn clearing_a_timer_is_idempotent_and_live_count_tracks() {
        let mut q = EventQueue::new();
        q.clear_timer(3); // never armed
        q.set_timer(3, SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 2);
        q.clear_timer(3);
        q.clear_timer(3);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        // A fired timer is disarmed; clearing it afterwards is a no-op.
        q.set_timer(3, SimTime::from_secs(3), "c");
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        q.clear_timer(3);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
