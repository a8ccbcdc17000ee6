//! Property tests: the event queue against a reference model.

use faasflow_sim::{EventQueue, SimTime};
use proptest::prelude::*;

/// Operations applied to both the real queue and a naive model.
#[derive(Debug, Clone)]
enum Op {
    Schedule(u64),
    CancelNth(usize),
    /// Reschedule the n-th issued id to the clock plus a small offset (few
    /// distinct values, so rescheduled events tie often).
    RescheduleNth(usize, u64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000_000).prop_map(Op::Schedule),
        (0usize..64).prop_map(Op::CancelNth),
        (0usize..64, 0u64..3).prop_map(|(n, dt)| Op::RescheduleNth(n, dt)),
        Just(Op::Pop),
    ]
}

proptest! {
    /// The queue delivers exactly the non-cancelled events in
    /// (time, insertion) order, never travelling back in time. A reschedule
    /// counts as a fresh insertion: cancel plus schedule of the same payload.
    #[test]
    fn matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        // Model, indexed by issue order (the payload): (time, seq, cancelled).
        let mut model: Vec<(u64, usize, bool)> = Vec::new();
        let mut ids = Vec::new();
        let mut clock = 0u64;
        let mut seq = 0usize;

        for op in ops {
            match op {
                Op::Schedule(t) => {
                    // Never schedule in the past (the queue would panic by
                    // design); shift the time up to the clock.
                    let t = t.max(clock);
                    let id = q.schedule(SimTime::from_nanos(t), ids.len());
                    ids.push(id);
                    model.push((t, seq, false));
                    seq += 1;
                }
                Op::CancelNth(n) => {
                    if !ids.is_empty() {
                        let idx = n % ids.len();
                        // Live = neither cancelled nor already delivered.
                        let was_live = !model[idx].2 && model[idx].0 != u64::MAX;
                        let cancelled = q.cancel(ids[idx]);
                        prop_assert_eq!(cancelled, was_live);
                        if cancelled {
                            model[idx].2 = true;
                        }
                    }
                }
                Op::RescheduleNth(n, dt) => {
                    if !ids.is_empty() {
                        let idx = n % ids.len();
                        let was_live = !model[idx].2 && model[idx].0 != u64::MAX;
                        let t = clock + dt;
                        let moved = q.reschedule(ids[idx], SimTime::from_nanos(t));
                        prop_assert_eq!(moved, was_live);
                        if moved {
                            model[idx].0 = t;
                            model[idx].1 = seq;
                            seq += 1;
                        }
                    }
                }
                Op::Pop => {
                    // Model pop: earliest (time, seq) among entries that are
                    // neither cancelled nor already delivered.
                    let expect = model
                        .iter()
                        .enumerate()
                        .filter(|(_, &(t, _, cancelled))| !cancelled && t != u64::MAX)
                        .min_by_key(|(_, &(t, s, _))| (t, s))
                        .map(|(i, &(t, _, _))| (i, t));
                    match (q.pop(), expect) {
                        (None, None) => {}
                        (Some((t, payload)), Some((i, mt))) => {
                            prop_assert_eq!(t.as_nanos(), mt);
                            prop_assert_eq!(payload, i);
                            prop_assert!(t.as_nanos() >= clock, "clock must not go back");
                            clock = t.as_nanos();
                            model[i].0 = u64::MAX; // mark delivered
                        }
                        (got, want) => {
                            return Err(TestCaseError::fail(format!(
                                "queue/model disagree: got {got:?}, want {want:?}"
                            )));
                        }
                    }
                }
            }
        }
        // Drain: everything left and live must come out in order.
        let mut last = clock;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t.as_nanos() >= last);
            last = t.as_nanos();
        }
    }
}
