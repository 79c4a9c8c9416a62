//! Cancellable event queue with deterministic ordering.
//!
//! Events at equal timestamps pop in insertion (FIFO) order, which makes
//! simulations reproducible regardless of heap internals. Cancellation is
//! lazy: a cancelled entry stays in the heap and is skipped on pop, which
//! keeps `cancel` O(1).
//!
//! Storage is a generational slab: heap entries carry only `(time, seq,
//! slot)` and the event payloads live in a slot vector with a LIFO free
//! list. Cancellation clears the slot in place — no hash lookups anywhere
//! on the hot path, and iteration order can never depend on hasher state
//! (detlint DET001 stays structurally impossible, not just suppressed).
//!
//! Besides the heap, the queue holds keyed *timers*: at most one pending
//! event per key, re-armed in place. A processor-sharing resource moves
//! its next completion on nearly every event; as a timer, each move costs
//! a store instead of a heap push, a lazy cancel and a later stale pop.
//! Arming a timer takes its sequence number from the same counter as
//! [`EventQueue::schedule`], so a timer set where a model used to cancel
//! and reschedule pops at exactly the same place in the event order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can be cancelled later.
///
/// Handles are unique across the lifetime of an [`EventQueue`]; cancelling a
/// handle that already fired (or was already cancelled) is a no-op.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(u64);

impl EventHandle {
    fn new(slot: u32, gen: u32) -> Self {
        EventHandle((gen as u64) << 32 | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Heap entry: ordering key plus the slot holding the payload. Keeping
/// the payload out of the heap makes sift operations move 16-byte
/// entries regardless of the event type's size.
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One payload slot. `gen` advances every time the slot is recycled, so a
/// stale [`EventHandle`] (kept after its event fired) can never cancel
/// the slot's next occupant. `event` is `None` once cancelled.
struct Slot<E> {
    gen: u32,
    event: Option<E>,
}

/// An armed timer: its ordering key and the event it fires.
struct Timer<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// A priority queue of `(SimTime, E)` pairs supporting O(1) cancellation
/// and O(1) re-arming of keyed timers.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    slots: Vec<Slot<E>>,
    /// Recycled slot indices (LIFO — keeps the slab dense and cache-warm).
    free: Vec<u32>,
    /// Timers by key; `None` while disarmed. Models use a handful of
    /// keys, so a scan for the earliest is a few compares.
    timers: Vec<Option<Timer<E>>>,
    next_seq: u64,
    /// Scheduled-and-not-yet-fired-or-cancelled count, armed timers
    /// included.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` concurrent events before any
    /// reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            timers: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let seq = self.take_seq();
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.event.is_none(), "recycled slot must be vacant");
                s.event = Some(event);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    event: Some(event),
                });
                slot
            }
        };
        self.heap.push(Entry { at, seq, slot });
        self.live += 1;
        EventHandle::new(slot, self.slots[slot as usize].gen)
    }

    /// Cancel a previously scheduled event. No-op if it already fired.
    pub fn cancel(&mut self, handle: EventHandle) {
        if let Some(slot) = self.slots.get_mut(handle.slot() as usize) {
            if slot.gen == handle.gen() && slot.event.is_some() {
                slot.event = None;
                self.live -= 1;
            }
        }
    }

    /// Free the slot behind a popped heap entry and return its payload
    /// (`None` when the entry was cancelled).
    fn release(&mut self, entry: &Entry) -> Option<E> {
        let slot = &mut self.slots[entry.slot as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(entry.slot);
        slot.event.take()
    }

    /// Arm timer `key` to fire `event` at `at`, replacing whatever it
    /// held. The timer takes the next sequence number, exactly as
    /// cancelling its previous event and scheduling this one would, so
    /// ties with heap events break the same way.
    pub fn set_timer(&mut self, key: usize, at: SimTime, event: E) {
        let seq = self.take_seq();
        if key >= self.timers.len() {
            self.timers.resize_with(key + 1, || None);
        }
        if self.timers[key].replace(Timer { at, seq, event }).is_none() {
            self.live += 1;
        }
    }

    /// Disarm timer `key`. No-op if it is not armed (or already fired).
    pub fn clear_timer(&mut self, key: usize) {
        if let Some(timer) = self.timers.get_mut(key) {
            if timer.take().is_some() {
                self.live -= 1;
            }
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

    /// `(time, seq)` of the earliest live heap entry, after dropping
    /// cancelled heads.
    fn heap_head(&mut self) -> Option<(SimTime, u64)> {
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize].event.is_some() {
                return Some((entry.at, entry.seq));
            }
            let entry = self.heap.pop().expect("peeked entry must pop");
            self.release(&entry);
        }
        None
    }

    /// Remove and return the earliest live event, heap entry or armed
    /// timer, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some((key, order)) = self.earliest_timer() {
            if self.heap_head().is_none_or(|head| order < head) {
                let timer = self.timers[key].take().expect("earliest timer is armed");
                self.live -= 1;
                return Some((timer.at, timer.event));
            }
        }
        while let Some(entry) = self.heap.pop() {
            let at = entry.at;
            if let Some(event) = self.release(&entry) {
                self.live -= 1;
                return Some((at, event));
            }
        }
        None
    }

    /// Timestamp of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let head = self.heap_head().map(|(at, _)| at);
        match self.earliest_timer() {
            Some((_, (at, _))) => Some(head.map_or(at, |head| head.min(at))),
            None => head,
        }
    }

    /// Number of live events: scheduled and not yet fired or cancelled,
    /// each armed timer counted once. Lazily cancelled heap entries are
    /// not counted, so the figure does not depend on how often the model
    /// cancels and reschedules, nor on whether it uses timers to do so.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(h1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        q.cancel(h);
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_secs(1), "a");
        let h2 = q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(3), "c");
        q.cancel(h1);
        q.cancel(h2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn handles_are_unique() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::ZERO, 1);
        let h2 = q.schedule(SimTime::ZERO, 2);
        assert_ne!(h1, h2);
    }

    #[test]
    fn stale_handle_cannot_cancel_a_recycled_slot() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        // The popped slot is recycled for the next schedule; the stale
        // handle refers to the old generation and must not cancel it.
        let h2 = q.schedule(SimTime::from_secs(2), "b");
        assert_ne!(h1, h2);
        q.cancel(h1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    fn cancel_is_idempotent_and_live_count_tracks() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert!(!q.is_empty());
        assert_eq!(q.len(), 2);
        q.cancel(h);
        q.cancel(h); // double-cancel must not underflow the live count
        assert!(!q.is_empty());
        // The cancelled entry still sits in the heap but is not counted.
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn det001_unordered_iteration_stays_structurally_impossible() {
        // Regression gate for the slab redesign: the queue must not
        // reintroduce a HashMap/HashSet that detlint would flag (or that
        // would need a justification comment to pass the workspace lint).
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

    #[test]
    fn slots_are_recycled_not_leaked() {
        let mut q = EventQueue::new();
        // Steady-state schedule/pop traffic must reuse a bounded slab.
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_micros(i), i);
            let (_, v) = q.pop().unwrap();
            assert_eq!(v, i);
        }
        assert!(q.slots.len() <= 2, "slab grew to {} slots", q.slots.len());
    }
}
