//! Cancellable, deterministic event queue.
//!
//! Events are ordered by `(time, sequence number)`: two events scheduled for
//! the same instant fire in the order they were scheduled, which makes every
//! simulation run reproducible regardless of hash-map iteration order or
//! allocator behaviour elsewhere.
//!
//! The queue is a slab-indexed d-ary heap: the heap array stores slot
//! indices into a slab of event slots, and each slot tracks its current
//! heap position. That makes [`EventQueue::cancel`] a true `O(log n)`
//! removal (no tombstones to skip later) and [`EventQueue::peek_time`] /
//! [`EventQueue::is_empty`] exact `O(1)` reads — with no hashing anywhere
//! on the hot path. [`EventQueue::reschedule`] re-keys a pending entry and
//! sifts it where it stands, for timers that move on every state change.
//! Slots are recycled through a free list; a per-slot generation counter
//! keeps recycled [`EventId`]s from aliasing, so cancelling a fired or
//! already-cancelled event stays a cheap, safe no-op.
//!
//! The arity is 4: sift-down touches 4 children per level but the tree is
//! half as deep as a binary heap's, which wins on timer-heavy workloads
//! (the flow network reschedules its completion timer on every flow
//! change, an insert-then-cancel pattern that rarely sinks far).

use crate::time::SimTime;

/// Heap arity. Four children per node halves the tree depth relative to a
/// binary heap; sift-up (the common case for timer churn) only compares
/// against parents, so it gets the full depth win.
const D: usize = 4;

/// Token identifying a scheduled event, usable to cancel it later.
///
/// Ids are unique across the lifetime of one [`EventQueue`]: slot storage
/// is recycled, but a generation counter embedded in the id keeps stale
/// tokens from ever matching a reused slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId((u64::from(slot) << 32) | u64::from(gen))
    }

    fn slot(self) -> usize {
        (self.0 >> 32) as usize
    }

    fn gen(self) -> u32 {
        self.0 as u32
    }
}

/// One heap entry: the ordering key inline (so sifts compare within the
/// contiguous heap array, never chasing into the slab) plus the index of
/// the slot holding the payload.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// One slab entry. `event` is `Some` while the event is pending; `pos` is
/// the slot's current index in the heap array and is kept in sync by every
/// sift. `gen` increments each time the slot is recycled.
struct Slot<E> {
    gen: u32,
    pos: u32,
    event: Option<E>,
}

/// A deterministic, cancellable priority queue of simulation events.
///
/// The type parameter `E` is the caller's event payload; the queue imposes
/// no trait bounds on it.
///
/// ```
/// use faasflow_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let keep = q.schedule(SimTime::from_nanos(10), "keep");
/// let drop = q.schedule(SimTime::from_nanos(5), "drop");
/// assert!(q.cancel(drop));
/// let _ = keep;
/// assert_eq!(q.pop().map(|(_, e)| e), Some("keep"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// d-ary heap ordered by `(time, seq)`; keys are stored inline.
    heap: Vec<HeapEntry>,
    /// Slab of event payloads; indices are stable while an event is pending.
    slots: Vec<Slot<E>>,
    /// Recycled slot indices available for the next `schedule`.
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The instant of the most recently popped event (the "current" simulated
    /// time from the world's perspective).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `time` and returns a cancellation token.
    ///
    /// Scheduling in the past is a logic error in the caller and panics: a
    /// DES must never move its clock backwards.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the instant of the last popped event.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time} before the current time {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len() as u32;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.pos = pos;
                s.event = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab capacity exceeded");
                self.slots.push(Slot {
                    gen: 0,
                    pos,
                    event: Some(event),
                });
                slot
            }
        };
        self.heap.push(HeapEntry { time, seq, slot });
        let gen = self.slots[slot as usize].gen;
        self.sift_up(pos as usize);
        EventId::new(slot, gen)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (and will now never
    /// fire), `false` if it already fired or was already cancelled. A true
    /// cancel removes the entry from the heap immediately — nothing lingers
    /// to slow later pops.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.pending_slot(id) else {
            return false;
        };
        let s = &mut self.slots[slot];
        s.event = None;
        let pos = s.pos as usize;
        self.release(slot as u32);
        self.remove_at(pos);
        true
    }

    /// Moves a pending event to `time` in place, keeping its id and payload.
    ///
    /// The entry takes the key `(time, next_seq)` — one fresh sequence
    /// number, exactly what cancelling and scheduling the same payload
    /// again would give it — so pop order matches that pair bit for bit,
    /// including among same-instant events. The key is refreshed even when
    /// `time` is unchanged, for the same reason. Returns `false` and
    /// changes nothing when `id` already fired or was cancelled.
    ///
    /// # Panics
    ///
    /// Panics if `id` is pending and `time` is earlier than the instant of
    /// the last popped event.
    pub fn reschedule(&mut self, id: EventId, time: SimTime) -> bool {
        let Some(slot) = self.pending_slot(id) else {
            return false;
        };
        assert!(
            time >= self.now,
            "cannot reschedule an event to {time} before the current time {now}",
            now = self.now
        );
        let pos = self.slots[slot].pos as usize;
        let entry = &mut self.heap[pos];
        entry.time = time;
        entry.seq = self.next_seq;
        self.next_seq += 1;
        // The new key may be smaller than the parent's or larger than a
        // child's; try both directions (one is a no-op).
        self.sift_down(pos);
        self.sift_up(self.slots[slot].pos as usize);
        true
    }

    /// Removes and returns the earliest pending event, advancing the clock.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &HeapEntry { time, slot, .. } = self.heap.first()?;
        let event = self.slots[slot as usize]
            .event
            .take()
            .expect("heap entries are pending");
        self.now = time;
        self.release(slot);
        self.remove_at(0);
        Some((time, event))
    }

    /// The instant of the earliest pending event. `O(1)`.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|entry| entry.time)
    }

    /// Number of pending events. Exact: cancelled events leave the queue
    /// immediately.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no event is pending. `O(1)`.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The slot of `id` while its event is pending; `None` once it fired
    /// or was cancelled, or when the slot was recycled since.
    fn pending_slot(&self, id: EventId) -> Option<usize> {
        let s = self.slots.get(id.slot())?;
        (s.gen == id.gen() && s.event.is_some()).then_some(id.slot())
    }

    /// Recycles `slot` for reuse, invalidating any outstanding [`EventId`]s
    /// pointing at it.
    fn release(&mut self, slot: u32) {
        self.slots[slot as usize].gen = self.slots[slot as usize].gen.wrapping_add(1);
        self.free.push(slot);
    }

    /// Removes the heap entry at `pos`, restoring the heap property.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.pop().expect("remove_at on non-empty heap");
        if pos == self.heap.len() {
            return;
        }
        self.heap[pos] = last;
        self.slots[last.slot as usize].pos = pos as u32;
        // The relocated key may be smaller than the removed one's parent or
        // larger than its children; try both directions (one is a no-op).
        self.sift_down(pos);
        self.sift_up(self.slots[last.slot as usize].pos as usize);
    }

    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        let key = entry.key();
        while pos > 0 {
            let parent = (pos - 1) / D;
            let parent_entry = self.heap[parent];
            if parent_entry.key() <= key {
                break;
            }
            self.heap[pos] = parent_entry;
            self.slots[parent_entry.slot as usize].pos = pos as u32;
            pos = parent;
        }
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].pos = pos as u32;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        let key = entry.key();
        let len = self.heap.len();
        loop {
            let first_child = pos * D + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            let end = (first_child + D).min(len);
            for child in first_child + 1..end {
                let k = self.heap[child].key();
                if k < best_key {
                    best = child;
                    best_key = k;
                }
            }
            if best_key >= key {
                break;
            }
            let child_entry = self.heap[best];
            self.heap[pos] = child_entry;
            self.slots[child_entry.slot as usize].pos = pos as u32;
            pos = best;
        }
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].pos = pos as u32;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("slab", &self.slots.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_survive_slot_recycling() {
        // Recycled slots must not leak stale ordering: the tie-break is the
        // monotonic sequence number, never the slot index.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(5), 0);
        q.cancel(a);
        let t = SimTime::from_nanos(5);
        for i in 1..50 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (1..50).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.schedule(SimTime::from_nanos(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn cancel_removes_immediately() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.schedule(SimTime::from_nanos(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1, "true cancellation leaves no tombstone");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
        assert!(!q.cancel(EventId::new(7, 0)), "slot never allocated");
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert!(!q.cancel(a), "cancelling a fired event must report false");
    }

    #[test]
    fn stale_id_does_not_cancel_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        // "b" reuses a's slot; a's stale token must not touch it.
        let _b = q.schedule(SimTime::from_nanos(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn reschedule_to_the_same_instant_goes_behind_its_ties() {
        // Cancel-then-schedule would put "a" after "b"; so must reschedule.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        let a = q.schedule(t, "a");
        q.schedule(t, "b");
        assert!(q.reschedule(a, t));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
    }

    #[test]
    fn reschedule_of_a_dead_id_is_false_and_changes_nothing() {
        let mut q = EventQueue::new();
        let fired = q.schedule(SimTime::from_nanos(1), 1);
        let cancelled = q.schedule(SimTime::from_nanos(2), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert!(q.cancel(cancelled));
        // Both slots are recycled by the next two schedules; the dead ids
        // must not reach the new occupants.
        q.schedule(SimTime::from_nanos(3), 3);
        q.schedule(SimTime::from_nanos(3), 4);
        let before = q.next_seq;
        for dead in [fired, cancelled, EventId::new(99, 0)] {
            assert!(!q.reschedule(dead, SimTime::from_nanos(9)));
        }
        assert_eq!(q.next_seq, before, "no sequence number consumed");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 4)));
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn rescheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(20), ());
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.reschedule(a, SimTime::from_nanos(5));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(9));
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        q.schedule(SimTime::from_nanos(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interior_cancel_keeps_heap_ordered() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..64)
            .map(|i| q.schedule(SimTime::from_nanos(1000 - i * 7), i))
            .collect();
        let mut cancelled = 0;
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 1 {
                assert!(q.cancel(*id));
                cancelled += 1;
            }
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, e)) = q.pop() {
            assert!(t >= last, "pops must stay time-ordered after cancels");
            assert_ne!(e % 3, 1, "cancelled events must not fire");
            last = t;
            n += 1;
        }
        assert_eq!(n, 64 - cancelled);
    }
}
