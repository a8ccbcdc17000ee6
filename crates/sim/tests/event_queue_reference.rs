//! Randomized differential test: the slab-indexed heap against a
//! `BTreeMap<(SimTime, u64), E>` reference model.
//!
//! The reference is the ordering contract made executable — a sorted map
//! keyed by `(time, sequence)` pops its first entry. Long interleaved
//! schedule/cancel/pop/peek sequences from a seeded [`SimRng`] exercise
//! the patterns the cluster produces (timer churn: schedule, cancel,
//! reschedule), plus the adversarial ones: cancelling events that already
//! fired, cancelling twice, and cancelling with stale ids after their
//! slot was recycled. An in-place `reschedule` is checked against its
//! definition: cancel the event, then schedule the same payload again.

use std::collections::BTreeMap;

use faasflow_sim::{EventId, EventQueue, SimRng, SimTime};

/// Reference model: a sorted map from `(time, seq)` to the payload, plus
/// the side table mapping ids to their key while pending.
#[derive(Default)]
struct Reference {
    queue: BTreeMap<(SimTime, u64), u64>,
    pending: BTreeMap<u64, (SimTime, u64)>,
    next_seq: u64,
    now: SimTime,
}

impl Reference {
    fn schedule(&mut self, time: SimTime, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.insert((time, seq), payload);
        self.pending.insert(seq, (time, seq));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.remove(&seq) {
            Some(key) => {
                self.queue.remove(&key);
                true
            }
            None => false,
        }
    }

    /// Cancel plus schedule of the same payload; the new sequence number,
    /// or `None` (and no change) when `seq` is not pending.
    fn reschedule(&mut self, seq: u64, time: SimTime) -> Option<u64> {
        let key = self.pending.remove(&seq)?;
        let payload = self.queue.remove(&key).expect("pending keys are queued");
        Some(self.schedule(time, payload))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (&(time, seq), &payload) = self.queue.iter().next()?;
        self.queue.remove(&(time, seq));
        self.pending.remove(&seq);
        self.now = time;
        Some((time, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.queue.keys().next().map(|&(time, _)| time)
    }
}

fn run_differential(seed: u64, steps: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut model = Reference::default();
    // Ids issued by each side, aligned by index. `fired[i]` marks ids whose
    // event already popped or cancelled — kept so we can replay cancels on
    // dead ids (they must report false on both sides).
    let mut ids: Vec<(EventId, u64)> = Vec::new();
    let mut payload = 0u64;

    for _ in 0..steps {
        match rng.next_below(12) {
            // Schedule dominates so queues grow enough to stress the heap.
            0..=4 => {
                let dt = rng.next_below(1_000_000);
                let time = SimTime::from_nanos(model.now.as_nanos() + dt);
                payload += 1;
                let id = q.schedule(time, payload);
                let seq = model.schedule(time, payload);
                ids.push((id, seq));
            }
            5..=6 => {
                // Cancel a random id — live, fired, or already cancelled.
                if let Some(&(id, seq)) = rng.pick(&ids) {
                    assert_eq!(q.cancel(id), model.cancel(seq), "cancel verdict diverged");
                    // Duplicate cancel must be false on both sides.
                    assert!(!q.cancel(id));
                    assert!(!model.cancel(seq));
                }
            }
            7..=8 => {
                assert_eq!(q.pop(), model.pop(), "pop diverged");
            }
            10..=11 => {
                // Reschedule a random id to one of a few near instants, so
                // rescheduled events often tie with each other and with
                // the tie-break by sequence number decides their order.
                let i = rng.next_below(ids.len().max(1) as u64) as usize;
                if let Some(&(id, seq)) = ids.get(i) {
                    let time = SimTime::from_nanos(model.now.as_nanos() + rng.next_below(3) * 500);
                    let moved = model.reschedule(seq, time);
                    assert_eq!(
                        q.reschedule(id, time),
                        moved.is_some(),
                        "reschedule verdict diverged"
                    );
                    if let Some(seq) = moved {
                        ids[i].1 = seq;
                    }
                }
            }
            _ => {
                assert_eq!(q.peek_time(), model.peek_time(), "peek diverged");
                assert_eq!(q.len(), model.queue.len(), "len diverged");
                assert_eq!(q.is_empty(), model.queue.is_empty());
            }
        }
    }
    // Drain both: every remaining event must come out in the same order.
    loop {
        let (a, b) = (q.pop(), model.pop());
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn differential_vs_btreemap_reference() {
    for seed in 0..32 {
        run_differential(0xFAA5_F10F ^ seed, 4_000);
    }
}

/// Heavy cancel-after-fire pressure: fire everything, then cancel stale
/// ids while new events recycle the freed slots.
#[test]
fn cancel_after_fire_with_slot_recycling() {
    let mut rng = SimRng::seed_from(42);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut model = Reference::default();
    let mut stale: Vec<(EventId, u64)> = Vec::new();
    for round in 0..50 {
        let mut live = Vec::new();
        for i in 0..20 {
            let t = SimTime::from_nanos(model.now.as_nanos() + 1 + rng.next_below(1000));
            let id = q.schedule(t, round * 100 + i);
            let seq = model.schedule(t, round * 100 + i);
            live.push((id, seq));
        }
        // Fire roughly half, making their ids stale.
        for _ in 0..10 {
            assert_eq!(q.pop(), model.pop());
        }
        // Stale ids from earlier rounds point at recycled slots now; they
        // must never cancel the new occupants.
        for &(id, seq) in &stale {
            assert_eq!(q.cancel(id), model.cancel(seq));
        }
        stale.extend(live);
    }
    loop {
        let (a, b) = (q.pop(), model.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}
