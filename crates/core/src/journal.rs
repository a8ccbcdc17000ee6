//! Engine write-ahead journal: workflow transitions that survive an
//! engine crash.
//!
//! Every scheduling engine (the MasterSP central engine, each WorkerSP
//! per-worker engine) appends workflow transitions to a private log backed
//! by the simulated store ([`faasflow_store::JournalLog`]). Appends are
//! write-behind: the record becomes durable one `append_overhead` after it
//! was issued, so a crash tears off the not-yet-durable tail — exactly the
//! window the recovery protocol's duplicate-suppression guards cover.
//!
//! The record stream is deliberately coarse (Durable Functions-style
//! history events, not byte-level state). Each [`JournalRecord`] names an
//! invocation and one [`JournalEvent`]:
//!
//! * [`JournalEvent::Admitted`] — the engine accepted the invocation. The
//!   one record that can *save* work: an admitted invocation with no
//!   cluster-visible progress is unrecoverable without it.
//! * [`JournalEvent::Dispatched`] — a function node was handed to a
//!   worker. Replay uses cluster-side dispatch dedup, so this record is
//!   corroborating evidence (it marks the invocation as known).
//! * [`JournalEvent::NodeDone`] — the engine processed a node completion
//!   and emitted its downstream effects (syncs, exit reports). Replay
//!   skips re-emitting effects for recorded nodes; unrecorded completions
//!   re-emit and rely on receiver-side dedup.
//! * [`JournalEvent::StateSynced`] / [`JournalEvent::Terminal`] —
//!   bookkeeping for the record stream; terminal outcomes are enforced
//!   exactly-once structurally (single funnel in the cluster), the journal
//!   just witnesses them.

use faasflow_sim::{FunctionId, InvocationId, SimDuration, SimTime, WorkflowId};
use faasflow_store::JournalLog;
use serde::{Deserialize, Serialize};

/// Journal knobs. Off by default — runs without engine-crash faults are
/// bit-for-bit unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JournalConfig {
    /// Engines journal their transitions when `true`.
    pub enabled: bool,
    /// Lag between issuing an append and the record being durable on the
    /// store (write-behind flush latency). Storage brownouts stretch it.
    pub append_overhead: SimDuration,
    /// Per-durable-record cost of replaying the journal at restart.
    pub replay_overhead: SimDuration,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            enabled: false,
            append_overhead: SimDuration::from_millis(2),
            replay_overhead: SimDuration::from_micros(200),
        }
    }
}

/// An invocation's terminal outcome, as witnessed by the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerminalOutcome {
    /// All exits reported; latency recorded.
    Completed,
    /// Dead-lettered (see `DeadLetterReason` for why).
    DeadLettered,
    /// Shed by admission control or queue bounds.
    Shed,
}

/// One journaled workflow transition of an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Workflow the invocation belongs to.
    pub workflow: WorkflowId,
    /// The invocation the transition advanced.
    pub invocation: InvocationId,
    /// What happened to it.
    pub event: JournalEvent,
}

/// What a [`JournalRecord`] witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// The engine accepted the invocation (saw its begin message).
    Admitted,
    /// This function node was dispatched to a worker.
    Dispatched(FunctionId),
    /// The engine processed this node's completion (and emitted its
    /// downstream syncs / exit reports).
    NodeDone(FunctionId),
    /// A cross-worker state sync about this node's completion was sent.
    StateSynced(FunctionId),
    /// The invocation reached a terminal outcome.
    Terminal(TerminalOutcome),
}

/// One engine's journal: a durable-tail record log plus replay accounting.
#[derive(Debug, Clone)]
pub struct Journal {
    config: JournalConfig,
    log: JournalLog<JournalRecord>,
    replays: u64,
    replayed_records: u64,
}

impl Journal {
    /// Creates a journal with the given configuration.
    pub fn new(config: JournalConfig) -> Self {
        Journal {
            config,
            log: JournalLog::new(),
            replays: 0,
            replayed_records: 0,
        }
    }

    /// Whether journaling is on at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configured knobs.
    pub fn config(&self) -> JournalConfig {
        self.config
    }

    /// Appends a record issued at `now`; it becomes durable after the
    /// flush lag stretched by the current storage `slowdown` (1.0 when the
    /// store is healthy). No-op when journaling is disabled.
    pub fn append(&mut self, now: SimTime, slowdown: f64, record: JournalRecord) {
        if !self.config.enabled {
            return;
        }
        let lag = self.config.append_overhead.mul_f64(slowdown.max(1.0));
        self.log.append(now + lag, record);
    }

    /// Records an append that never reached the store (blackout window).
    pub fn append_lost(&mut self) {
        if self.config.enabled {
            self.log.append_lost();
        }
    }

    /// Engine crash at `now`: tears off the not-yet-durable tail. Returns
    /// the number of records lost.
    pub fn crash(&mut self, now: SimTime) -> usize {
        self.log.crash(now)
    }

    /// Starts a replay pass: counts it and returns the time it costs
    /// (per-record overhead stretched by the storage `slowdown`).
    pub fn begin_replay(&mut self, slowdown: f64) -> SimDuration {
        self.replays += 1;
        self.replayed_records += self.log.len() as u64;
        self.config
            .replay_overhead
            .mul_f64(slowdown.max(1.0))
            .mul_f64(self.log.len() as f64)
    }

    /// Whether any durable record mentions this invocation (replay uses
    /// this to tell recoverable invocations from orphans).
    pub fn mentions(&self, workflow: WorkflowId, invocation: InvocationId) -> bool {
        self.log
            .records()
            .any(|r| (r.workflow, r.invocation) == (workflow, invocation))
    }

    /// Whether the engine durably recorded processing this node's
    /// completion (replay then skips re-emitting its downstream effects).
    pub fn node_done_recorded(
        &self,
        workflow: WorkflowId,
        invocation: InvocationId,
        function: FunctionId,
    ) -> bool {
        let done = JournalRecord {
            workflow,
            invocation,
            event: JournalEvent::NodeDone(function),
        };
        self.log.records().any(|r| *r == done)
    }

    /// Durable records currently in the log.
    pub fn durable_len(&self) -> usize {
        self.log.len()
    }

    /// Total appends ever issued.
    pub fn append_count(&self) -> u64 {
        self.log.append_count()
    }

    /// Appends dropped because the store was unreachable, plus records
    /// torn off by crashes before they were durable.
    pub fn lost_count(&self) -> u64 {
        self.log.lost_append_count() + self.log.torn_count()
    }

    /// Replay passes performed.
    pub fn replay_count(&self) -> u64 {
        self.replays
    }

    /// Durable records read back across all replay passes.
    pub fn replayed_record_count(&self) -> u64 {
        self.replayed_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> JournalConfig {
        JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn admitted(inv: u32) -> JournalRecord {
        JournalRecord {
            workflow: WorkflowId::new(0),
            invocation: InvocationId::new(inv),
            event: JournalEvent::Admitted,
        }
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::new(JournalConfig::default());
        j.append(at(0), 1.0, admitted(0));
        j.append_lost();
        assert_eq!(j.append_count(), 0);
        assert_eq!(j.lost_count(), 0);
        assert!(!j.mentions(WorkflowId::new(0), InvocationId::new(0)));
    }

    #[test]
    fn crash_inside_the_flush_window_loses_the_record() {
        let mut j = Journal::new(on());
        j.append(at(10), 1.0, admitted(0));
        // Durable at 12ms; crash at 11ms tears it off.
        assert_eq!(j.crash(at(11)), 1);
        assert!(!j.mentions(WorkflowId::new(0), InvocationId::new(0)));
        assert_eq!(j.lost_count(), 1);

        let mut j = Journal::new(on());
        j.append(at(10), 1.0, admitted(0));
        assert_eq!(j.crash(at(12)), 0, "durable exactly at the flush point");
        assert!(j.mentions(WorkflowId::new(0), InvocationId::new(0)));
    }

    #[test]
    fn brownout_stretches_the_flush_lag() {
        let mut j = Journal::new(on());
        j.append(at(10), 3.0, admitted(0));
        // Durable at 10 + 2*3 = 16ms.
        assert_eq!(j.crash(at(15)), 1);
    }

    #[test]
    fn replay_charges_per_durable_record() {
        let mut j = Journal::new(on());
        for i in 0..5 {
            j.append(at(i), 1.0, admitted(i as u32));
        }
        let cost = j.begin_replay(1.0);
        assert_eq!(cost, SimDuration::from_micros(1000));
        assert_eq!(j.replay_count(), 1);
        assert_eq!(j.replayed_record_count(), 5);
    }

    #[test]
    fn node_done_lookup_is_exact() {
        let mut j = Journal::new(on());
        let (wf, inv) = (WorkflowId::new(0), InvocationId::new(0));
        j.append(
            at(0),
            1.0,
            JournalRecord {
                workflow: wf,
                invocation: inv,
                event: JournalEvent::NodeDone(FunctionId::new(3)),
            },
        );
        assert!(j.node_done_recorded(wf, inv, FunctionId::new(3)));
        assert!(!j.node_done_recorded(wf, inv, FunctionId::new(4)));
        assert!(j.mentions(wf, inv));
    }
}
