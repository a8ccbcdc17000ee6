//! Engine write-ahead journal: workflow transitions that survive an
//! engine crash.
//!
//! Every scheduling engine (the MasterSP central engine, each WorkerSP
//! per-worker engine) appends workflow transitions to a private log on the
//! simulated store. Appends are write-behind: a record's flush takes one
//! `append_overhead` (stretched by a storage brownout), and the log
//! flushes in order, so a record is durable once its own flush and every
//! earlier one are done. A crash tears off the records not yet durable,
//! the same way a real log loses its unfsynced suffix: exactly the window
//! the recovery protocol's duplicate-suppression guards cover.
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
//!
//! The journal keeps only what recovery reads, after Netherite's log
//! truncation: per invocation, whether a kept record names it and which of
//! its nodes have a `NodeDone` record; the records a crash can still tear;
//! and the counts. An ended invocation's entry is dropped
//! ([`Journal::release_invocation`]): recovery asks only about live
//! invocations, and invocation ids are never reused.

use std::collections::VecDeque;

use faasflow_sim::{FastMap, FunctionId, InvocationId, SimDuration, SimTime, WorkflowId};
use serde::{Deserialize, Serialize};

/// Journal knobs. Off by default — runs without engine-crash faults are
/// bit-for-bit unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JournalConfig {
    /// Engines journal their transitions when `true`.
    pub enabled: bool,
    /// Lag between issuing an append and its flush to the store
    /// (write-behind flush latency). Storage brownouts stretch it.
    pub append_overhead: SimDuration,
    /// Per-kept-record cost of replaying the journal at restart.
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

/// What an invocation's kept records say.
#[derive(Debug, Clone, Default)]
struct Entry {
    /// Kept records that name the invocation.
    records: u32,
    /// The node of each kept `NodeDone` record, in append order; a node
    /// recorded twice appears twice.
    done: Vec<FunctionId>,
}

/// One engine's journal: what recovery reads of its record log, plus
/// replay accounting.
///
/// Calls come in simulated-time order: no `now` is earlier than the one
/// before it.
#[derive(Debug, Clone)]
pub struct Journal {
    config: JournalConfig,
    /// Per invocation with a kept record, until it is released.
    entries: FastMap<(WorkflowId, InvocationId), Entry>,
    /// The records not yet durable at the latest append, in append order,
    /// each with the instant it becomes durable: all a crash can tear.
    tail: VecDeque<(SimTime, JournalRecord)>,
    appends: u64,
    lost_appends: u64,
    torn: u64,
    replays: u64,
    replayed_records: u64,
}

impl Journal {
    /// Creates a journal with the given configuration.
    pub fn new(config: JournalConfig) -> Self {
        Journal {
            config,
            entries: FastMap::default(),
            tail: VecDeque::new(),
            appends: 0,
            lost_appends: 0,
            torn: 0,
            replays: 0,
            replayed_records: 0,
        }
    }

    /// Whether journaling is on at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Appends a record issued at `now`. Its flush takes the lag
    /// stretched by the current storage `slowdown` (1.0 when the store is
    /// healthy), and it is durable once that flush and every earlier one
    /// are done. No-op when journaling is disabled.
    pub fn append(&mut self, now: SimTime, slowdown: f64, record: JournalRecord) {
        if !self.config.enabled {
            return;
        }
        while self.tail.front().is_some_and(|&(t, _)| t <= now) {
            self.tail.pop_front();
        }
        let flushed = now + self.config.append_overhead.mul_f64(slowdown.max(1.0));
        let durable_at = self.tail.back().map_or(flushed, |&(t, _)| t.max(flushed));
        let entry = self
            .entries
            .entry((record.workflow, record.invocation))
            .or_default();
        entry.records += 1;
        if let JournalEvent::NodeDone(f) = record.event {
            entry.done.push(f);
        }
        self.tail.push_back((durable_at, record));
        self.appends += 1;
    }

    /// Records an append that never reached the store (blackout window).
    pub fn append_lost(&mut self) {
        if self.config.enabled {
            self.lost_appends += 1;
        }
    }

    /// Engine crash at `now`: tears off the records not yet durable.
    /// Returns the number of records lost.
    pub fn crash(&mut self, now: SimTime) -> usize {
        let mut torn = 0;
        while let Some(&(t, record)) = self.tail.back() {
            if t <= now {
                break;
            }
            self.tail.pop_back();
            torn += 1;
            let key = (record.workflow, record.invocation);
            // A released invocation's records still count as kept until
            // torn, but nothing of it is indexed.
            let Some(entry) = self.entries.get_mut(&key) else {
                continue;
            };
            if let JournalEvent::NodeDone(f) = record.event {
                let last = entry.done.pop();
                debug_assert_eq!(last, Some(f), "the newest NodeDone is torn first");
            }
            entry.records -= 1;
            if entry.records == 0 {
                self.entries.remove(&key);
            }
        }
        self.tail.clear();
        self.torn += torn as u64;
        torn
    }

    /// Drops what the journal holds of an ended invocation. Its records
    /// stay counted in [`Journal::durable_len`].
    pub fn release_invocation(&mut self, workflow: WorkflowId, invocation: InvocationId) {
        self.entries.remove(&(workflow, invocation));
    }

    /// Starts a replay pass: counts it and returns the time it costs
    /// (per-record overhead stretched by the storage `slowdown`).
    pub fn begin_replay(&mut self, slowdown: f64) -> SimDuration {
        let len = self.durable_len();
        self.replays += 1;
        self.replayed_records += len as u64;
        self.config
            .replay_overhead
            .mul_f64(slowdown.max(1.0))
            .mul_f64(len as f64)
    }

    /// What the kept records say about a live invocation: `None` when no
    /// kept record names it (replay then tells it from an orphan),
    /// otherwise the nodes with a `NodeDone` record (replay skips
    /// re-emitting their downstream effects).
    pub fn recorded(
        &self,
        workflow: WorkflowId,
        invocation: InvocationId,
    ) -> Option<&[FunctionId]> {
        self.entries
            .get(&(workflow, invocation))
            .map(|e| e.done.as_slice())
    }

    /// Records kept: every append not torn off by a crash, including
    /// records still flushing and those of released invocations. This is
    /// the length a replay reads.
    pub fn durable_len(&self) -> usize {
        (self.appends - self.torn) as usize
    }

    /// Total appends ever issued.
    pub fn append_count(&self) -> u64 {
        self.appends
    }

    /// Appends dropped because the store was unreachable, plus records
    /// torn off by crashes before they were durable.
    pub fn lost_count(&self) -> u64 {
        self.lost_appends + self.torn
    }

    /// Replay passes performed.
    pub fn replay_count(&self) -> u64 {
        self.replays
    }

    /// Kept records read back across all replay passes.
    pub fn replayed_record_count(&self) -> u64 {
        self.replayed_records
    }

    /// The invocations the journal holds an entry for.
    #[cfg(test)]
    pub(crate) fn invocations(&self) -> impl Iterator<Item = (WorkflowId, InvocationId)> + '_ {
        self.entries.keys().copied()
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

    fn record(inv: u32, event: JournalEvent) -> JournalRecord {
        JournalRecord {
            workflow: WorkflowId::new(0),
            invocation: InvocationId::new(inv),
            event,
        }
    }

    fn admitted(inv: u32) -> JournalRecord {
        record(inv, JournalEvent::Admitted)
    }

    fn mentions(j: &Journal, inv: u32) -> bool {
        j.recorded(WorkflowId::new(0), InvocationId::new(inv))
            .is_some()
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::new(JournalConfig::default());
        j.append(at(0), 1.0, admitted(0));
        j.append_lost();
        assert_eq!(j.append_count(), 0);
        assert_eq!(j.lost_count(), 0);
        assert!(!mentions(&j, 0));
    }

    #[test]
    fn crash_inside_the_flush_window_loses_the_record() {
        let mut j = Journal::new(on());
        j.append(at(10), 1.0, admitted(0));
        // Durable at 12ms; crash at 11ms tears it off.
        assert_eq!(j.crash(at(11)), 1);
        assert!(!mentions(&j, 0));
        assert_eq!(j.lost_count(), 1);

        let mut j = Journal::new(on());
        j.append(at(10), 1.0, admitted(0));
        assert_eq!(j.crash(at(12)), 0, "durable exactly at the flush point");
        assert!(mentions(&j, 0));
    }

    #[test]
    fn brownout_stretches_the_flush_lag() {
        let mut j = Journal::new(on());
        j.append(at(10), 3.0, admitted(0));
        // Durable at 10 + 2*3 = 16ms.
        assert_eq!(j.crash(at(15)), 1);
    }

    #[test]
    fn a_record_flushes_no_earlier_than_the_one_before_it() {
        let mut j = Journal::new(on());
        // Issued inside a 10× brownout: flushes at 10 + 2*10 = 30ms.
        j.append(at(10), 10.0, admitted(0));
        // Issued after it ends: its own flush would land at 22ms, but it
        // waits behind the first record.
        j.append(at(20), 1.0, admitted(1));
        assert_eq!(j.crash(at(25)), 2, "a crash between 22 and 30ms tears both");
        assert_eq!(j.durable_len(), 0);
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
        j.append(
            at(0),
            1.0,
            record(0, JournalEvent::NodeDone(FunctionId::new(3))),
        );
        let done = j.recorded(WorkflowId::new(0), InvocationId::new(0));
        assert_eq!(done, Some(&[FunctionId::new(3)][..]));
    }

    #[test]
    fn a_torn_node_done_stays_recorded_when_an_earlier_one_is_kept() {
        let mut j = Journal::new(on());
        let done = |inv| record(inv, JournalEvent::NodeDone(FunctionId::new(1)));
        j.append(at(0), 1.0, done(0));
        j.append(at(10), 1.0, done(0));
        j.append(at(10), 1.0, admitted(1));
        assert_eq!(j.crash(at(11)), 2);
        let kept = j.recorded(WorkflowId::new(0), InvocationId::new(0));
        assert_eq!(kept, Some(&[FunctionId::new(1)][..]));
        assert!(!mentions(&j, 1), "its only record was torn");
    }

    #[test]
    fn release_drops_the_entry_but_keeps_the_replay_length() {
        let mut j = Journal::new(on());
        j.append(at(0), 1.0, admitted(0));
        j.append(
            at(1),
            1.0,
            record(0, JournalEvent::Terminal(TerminalOutcome::Completed)),
        );
        j.release_invocation(WorkflowId::new(0), InvocationId::new(0));
        assert!(!mentions(&j, 0));
        assert_eq!(j.invocations().count(), 0);
        assert_eq!(j.durable_len(), 2);
        // The Terminal record is still flushing: a crash tears it and
        // leaves nothing indexed.
        assert_eq!(j.crash(at(2)), 1);
        assert_eq!(j.durable_len(), 1);
        assert_eq!(j.invocations().count(), 0);
    }
}
