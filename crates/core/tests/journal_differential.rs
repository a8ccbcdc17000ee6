//! Differential property: the indexed, compacting [`Journal`] against the
//! linear-scan record log it replaced.
//!
//! The reference keeps every record with the instant it becomes durable,
//! tears the undurable suffix at a crash, and answers each recovery
//! question by scanning the whole log. The journal keeps only an entry per
//! invocation and the tail a crash can still tear, and drops an ended
//! invocation's entry. After every operation of a random sequence
//! (appends of every event kind under rising and falling slowdowns, lost
//! appends, crashes, replays and drops of ended invocations) both must
//! give the same answers for every invocation never dropped, and the same
//! counts.

use faasflow_core::{Journal, JournalConfig, JournalEvent, JournalRecord, TerminalOutcome};
use faasflow_sim::{FunctionId, InvocationId, SimDuration, SimTime, WorkflowId};
use proptest::prelude::*;

/// The record log the journal replaced, kept only as the reference.
struct ReferenceLog {
    config: JournalConfig,
    records: Vec<(SimTime, JournalRecord)>,
    appends: u64,
    lost_appends: u64,
    torn: u64,
    replays: u64,
    replayed_records: u64,
}

impl ReferenceLog {
    fn new(config: JournalConfig) -> Self {
        ReferenceLog {
            config,
            records: Vec::new(),
            appends: 0,
            lost_appends: 0,
            torn: 0,
            replays: 0,
            replayed_records: 0,
        }
    }

    fn append(&mut self, now: SimTime, slowdown: f64, record: JournalRecord) {
        let flushed = now + self.config.append_overhead.mul_f64(slowdown.max(1.0));
        let durable_at = self
            .records
            .last()
            .map_or(flushed, |&(t, _)| t.max(flushed));
        self.records.push((durable_at, record));
        self.appends += 1;
    }

    fn crash(&mut self, now: SimTime) -> usize {
        let keep = self.records.partition_point(|&(t, _)| t <= now);
        let torn = self.records.len() - keep;
        self.records.truncate(keep);
        self.torn += torn as u64;
        torn
    }

    fn begin_replay(&mut self, slowdown: f64) -> SimDuration {
        self.replays += 1;
        self.replayed_records += self.records.len() as u64;
        self.config
            .replay_overhead
            .mul_f64(slowdown.max(1.0))
            .mul_f64(self.records.len() as f64)
    }

    fn mentions(&self, key: (WorkflowId, InvocationId)) -> bool {
        self.records
            .iter()
            .any(|(_, r)| (r.workflow, r.invocation) == key)
    }

    fn node_done_recorded(&self, key: (WorkflowId, InvocationId), f: FunctionId) -> bool {
        self.records
            .iter()
            .any(|(_, r)| (r.workflow, r.invocation) == key && r.event == JournalEvent::NodeDone(f))
    }
}

/// Functions per invocation: few, so `NodeDone` repeats often.
const FUNCTIONS: u32 = 4;

/// Storage slowdowns a brownout moves between; below 1.0 is clamped.
const SLOWDOWNS: [f64; 5] = [1.0, 0.5, 2.0, 10.0, 3.5];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// After `dt_us`, an append naming a fresh invocation or the
    /// `pick`-th live one.
    Append {
        fresh: bool,
        pick: usize,
        event: JournalEvent,
        dt_us: u64,
    },
    Lost,
    Crash {
        dt_us: u64,
    },
    Replay,
    /// The `pick`-th live invocation ends: the journal drops it, and no
    /// record names it again.
    Drop {
        pick: usize,
    },
    Slowdown(usize),
}

fn event(kind: u8, f: u32) -> JournalEvent {
    let f = FunctionId::new(f % FUNCTIONS);
    match kind {
        0 => JournalEvent::Admitted,
        1 => JournalEvent::Dispatched(f),
        2..=4 => JournalEvent::NodeDone(f),
        5 => JournalEvent::StateSynced(f),
        _ => JournalEvent::Terminal(match f.index() % 3 {
            0 => TerminalOutcome::Completed,
            1 => TerminalOutcome::DeadLettered,
            _ => TerminalOutcome::Shed,
        }),
    }
}

/// A time step: half on a 0.5 ms grid, where appends, flushes and crashes
/// often coincide, half anywhere in 0–3 ms.
fn step_us(coarse: bool, v: u64) -> u64 {
    if coarse {
        v % 8 * 500
    } else {
        v % 3_000
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u8..16,
        any::<usize>(),
        0u8..7,
        any::<u32>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(kind, pick, ev, f, coarse, v)| match kind {
            0..=8 => Op::Append {
                fresh: kind < 2,
                pick,
                event: event(ev, f),
                dt_us: step_us(coarse, v),
            },
            9 => Op::Lost,
            10 | 11 => Op::Crash {
                dt_us: step_us(coarse, v) * 4,
            },
            12 => Op::Replay,
            13 | 14 => Op::Drop { pick },
            _ => Op::Slowdown(pick % SLOWDOWNS.len()),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn journal_matches_the_linear_scan_log(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let config = JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        };
        let mut journal = Journal::new(config);
        let mut reference = ReferenceLog::new(config);
        let mut now = SimTime::ZERO;
        let mut slowdown = 1.0;
        let mut live: Vec<(WorkflowId, InvocationId)> = Vec::new();
        let mut next = 0u32;
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Append { fresh, pick, event, dt_us } => {
                    now += SimDuration::from_micros(dt_us);
                    let key = if fresh || live.is_empty() {
                        next += 1;
                        let key = (WorkflowId::new(next % 3), InvocationId::new(next));
                        live.push(key);
                        key
                    } else {
                        live[pick % live.len()]
                    };
                    let record = JournalRecord {
                        workflow: key.0,
                        invocation: key.1,
                        event,
                    };
                    journal.append(now, slowdown, record);
                    reference.append(now, slowdown, record);
                }
                Op::Lost => {
                    journal.append_lost();
                    reference.lost_appends += 1;
                }
                Op::Crash { dt_us } => {
                    now += SimDuration::from_micros(dt_us);
                    prop_assert_eq!(journal.crash(now), reference.crash(now), "step {} torn", step);
                }
                Op::Replay => {
                    let cost = journal.begin_replay(slowdown);
                    prop_assert_eq!(cost, reference.begin_replay(slowdown), "step {} replay cost", step);
                }
                Op::Drop { pick } => {
                    if !live.is_empty() {
                        let (wf, inv) = live.swap_remove(pick % live.len());
                        journal.release_invocation(wf, inv);
                    }
                }
                Op::Slowdown(level) => slowdown = SLOWDOWNS[level],
            }
            prop_assert_eq!(journal.durable_len(), reference.records.len(), "step {} length", step);
            prop_assert_eq!(journal.append_count(), reference.appends, "step {} appends", step);
            prop_assert_eq!(
                journal.lost_count(),
                reference.lost_appends + reference.torn,
                "step {} lost",
                step
            );
            prop_assert_eq!(journal.replay_count(), reference.replays);
            prop_assert_eq!(journal.replayed_record_count(), reference.replayed_records);
            for &key in &live {
                let recorded = journal.recorded(key.0, key.1);
                prop_assert_eq!(
                    recorded.is_some(),
                    reference.mentions(key),
                    "step {} mentions {:?}",
                    step,
                    key
                );
                for f in (0..FUNCTIONS).map(FunctionId::new) {
                    prop_assert_eq!(
                        recorded.is_some_and(|done| done.contains(&f)),
                        reference.node_done_recorded(key, f),
                        "step {} NodeDone({:?}) of {:?}",
                        step,
                        f,
                        key
                    );
                }
            }
        }
    }
}
