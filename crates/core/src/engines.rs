//! The scheduling engines and the crash → restart → replay → reconcile
//! cycle they share.
//!
//! [`Engines`] owns the central MasterSP engine with its single-server CPU
//! queue, one WorkerSP engine per worker, and one [`EngineSlot`] per
//! engine: its liveness, the generation and era fences, and its
//! write-ahead journal. It makes the decisions of the cycle, down to the
//! reconcile decision for each live invocation after a revival; `Cluster`
//! carries out their effects: it schedules the `EngineRestart` and
//! `EngineRecovered` events, runs the reconcile loop (dead-letters and
//! replays), hands the engines' actions to the rest of the cluster and
//! traces.
//!
//! Each engine call that routes takes the workflow context to route by:
//! the current deployment for the master and for replay, the invocation's
//! pin for a worker engine's `begin` and `sync` (see `Cluster::engine_pin`).

use std::collections::VecDeque;

use faasflow_engine::{MasterAction, MasterEngine, WorkerAction, WorkerEngine, WorkflowCtx};
use faasflow_scheduler::Assignment;
use faasflow_sim::{FunctionId, InvocationId, SimDuration, SimRng, SimTime, WorkflowId};

use crate::cluster::MasterInbox;
use crate::config::{ClusterConfig, ScheduleMode};
use crate::fault::{BackoffPolicy, DeadLetterReason, EngineTarget, StorageWindow};
use crate::invocation::{InvKey, InvState, WorkerSet};
use crate::journal::{Journal, JournalConfig, JournalEvent, JournalRecord, TerminalOutcome};
use crate::metrics::{RecoveryReport, RunReport};

/// One scheduling engine's liveness, fencing and write-ahead journal.
/// Slot 0 is the master's, slot `w + 1` worker `w`'s.
#[derive(Debug)]
struct EngineSlot {
    /// Between a crash and the end of recovery. Messages reaching a down
    /// engine are lost.
    down: bool,
    /// Generation: bumped at each completed recovery; messages stamped
    /// with an older one predate it and are fenced.
    gen: u64,
    /// Era: bumped at each crash that leaves the engine down; fences
    /// restart/recovery chains orphaned by a later crash.
    era: u32,
    /// Instant the engine went down (downtime accounting).
    down_since: SimTime,
    /// The engine's write-ahead journal. The master's also witnesses
    /// gateway-side admissions and terminal outcomes in both modes.
    journal: Journal,
    /// The journal could not be read back during the current recovery.
    journal_unreadable: bool,
}

impl EngineSlot {
    fn new(journal: JournalConfig) -> Self {
        EngineSlot {
            down: false,
            gen: 0,
            era: 0,
            down_since: SimTime::ZERO,
            journal: Journal::new(journal),
            journal_unreadable: false,
        }
    }

    /// Whether a recovery reads the journal back.
    fn readable(&self) -> bool {
        self.journal.enabled() && !self.journal_unreadable
    }
}

/// How an engine dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Crash {
    /// The engine process alone dies. It stays down until its
    /// supervisor's restart chain replays the journal and revives it.
    Process,
    /// The node dies under it. The node's restart brings it back blank;
    /// partition recovery restarts what it held.
    Node,
}

/// The next step of a restart chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Restart {
    /// The journal store is blacked out: try again after this delay.
    Backoff(SimDuration),
    /// Read the journal back; replay takes this long (zero when the
    /// journal is disabled or unreadable).
    Replay(SimDuration),
}

/// What the reconcile sweep of a revived engine may rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Revived {
    /// Kept journal records replayed (0 without a readable journal).
    pub(crate) replayed: u64,
    /// The sweep consults the journal.
    pub(crate) readable: bool,
    /// The journal is enabled but could not be read back, so an orphaned
    /// invocation is unrecoverable rather than a plain crash orphan.
    pub(crate) unreadable: bool,
}

/// What the reconcile sweep of a revived engine does with one live
/// invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Reconcile {
    /// The engine does not schedule the invocation.
    Skip,
    /// Nothing witnesses the invocation: its `Begin` died with the engine.
    DeadLetter(DeadLetterReason),
    /// Rebuild the trigger tracker and re-issue dispatches: the arguments
    /// of the engine's `replay_invocation`.
    Replay {
        completed: Vec<FunctionId>,
        already_propagated: Vec<FunctionId>,
        inflight: Vec<(FunctionId, u32)>,
    },
}

/// Every scheduling engine of the cluster and its fault state.
#[derive(Debug)]
pub(crate) struct Engines {
    mode: ScheduleMode,
    /// Backoff between journal read attempts during a storage blackout.
    backoff: BackoffPolicy,
    /// The central engine (schedules under MasterSP).
    pub(crate) master: MasterEngine,
    /// One engine per worker (schedule under WorkerSP).
    pub(crate) workers: Vec<WorkerEngine>,
    /// Messages waiting for the master's CPU.
    inbox: VecDeque<MasterInbox>,
    /// The message the master's CPU is processing.
    current: Option<MasterInbox>,
    /// Master CPU time spent on messages.
    busy_time: SimDuration,
    /// The master's slot, then one per worker (see [`slot_index`]).
    slots: Vec<EngineSlot>,
    /// Engine-crash/recovery accounting (journal sums and open downtime
    /// are folded in by [`Engines::report_into`]).
    pub(crate) recovery: RecoveryReport,
}

/// The index of an engine's slot in `Engines::slots`.
fn slot_index(target: EngineTarget) -> usize {
    match target {
        EngineTarget::Master => 0,
        EngineTarget::Worker(w) => w as usize + 1,
    }
}

impl Engines {
    pub(crate) fn new(config: &ClusterConfig) -> Self {
        Engines {
            mode: config.mode,
            backoff: config.fault.backoff,
            master: MasterEngine::new(),
            workers: (0..config.workers)
                .map(|i| WorkerEngine::new(config.worker_node(i)))
                .collect(),
            inbox: VecDeque::new(),
            current: None,
            busy_time: SimDuration::ZERO,
            slots: (0..=config.workers)
                .map(|_| EngineSlot::new(config.journal))
                .collect(),
            recovery: RecoveryReport::default(),
        }
    }

    fn slot(&self, target: EngineTarget) -> &EngineSlot {
        &self.slots[slot_index(target)]
    }

    fn slot_mut(&mut self, target: EngineTarget) -> &mut EngineSlot {
        &mut self.slots[slot_index(target)]
    }

    /// The engine's current generation, stamped on messages sent to it.
    pub(crate) fn gen(&self, target: EngineTarget) -> u64 {
        self.slot(target).gen
    }

    /// The engine is up and `gen` stamps its current incarnation.
    fn current(&self, target: EngineTarget, gen: u64) -> bool {
        let slot = self.slot(target);
        !slot.down && gen == slot.gen
    }

    /// Whether a message stamped `gen` reaches the engine; one that finds
    /// it down or predates its last recovery is counted lost.
    pub(crate) fn deliver(&mut self, target: EngineTarget, gen: u64) -> bool {
        let delivered = self.current(target, gen);
        if !delivered {
            self.recovery.messages_lost += 1;
        }
        delivered
    }

    /// A restart/recovery chain of era `era` is still the live one: the
    /// engine is down and no later crash superseded the chain. A node
    /// crash supersedes it too, so no chain outlives its node.
    pub(crate) fn chain_live(&self, target: EngineTarget, era: u32) -> bool {
        let slot = self.slot(target);
        slot.down && era == slot.era
    }

    /// A message reaches the master's inbox; `false` when it was lost
    /// (see [`Engines::deliver`]).
    pub(crate) fn master_arrive(&mut self, msg: MasterInbox, gen: u64) -> bool {
        let delivered = self.deliver(EngineTarget::Master, gen);
        if delivered {
            self.inbox.push_back(msg);
        }
        delivered
    }

    /// Takes the next inbox message into service when the master's CPU is
    /// idle; returns the generation its completion is stamped with.
    pub(crate) fn master_start(&mut self) -> Option<u64> {
        if self.current.is_some() {
            return None;
        }
        self.current = Some(self.inbox.pop_front()?);
        Some(self.gen(EngineTarget::Master))
    }

    /// The in-service message finishes after `cost` of CPU. `None` when
    /// the engine crashed meanwhile: the work, and the inbox slot it held,
    /// died with the volatile state.
    pub(crate) fn master_finish(&mut self, gen: u64, cost: SimDuration) -> Option<MasterInbox> {
        if !self.current(EngineTarget::Master, gen) {
            return None;
        }
        self.busy_time += cost;
        Some(self.current.take().expect("a message was processing"))
    }

    /// An engine dies. Volatile state (the trigger trackers, and for the
    /// master its inbox and in-service message) vanishes; the message
    /// counters keep counting over the whole run.
    /// Journal appends that never became durable are torn. A crash that
    /// leaves the engine down bumps its era, fencing any restart chain
    /// already pending.
    ///
    /// Returns the new era, or `None` when a process crash hits an engine
    /// already down (overlapping outages collapse into one) or a node
    /// crash hits a worker that runs no engine (MasterSP).
    pub(crate) fn crash(&mut self, now: SimTime, target: EngineTarget, kind: Crash) -> Option<u32> {
        match kind {
            Crash::Process => {
                if self.slot(target).down {
                    return None;
                }
                self.recovery.engine_crashes += 1;
                match target {
                    EngineTarget::Master => self.recovery.master_engine_crashes += 1,
                    EngineTarget::Worker(_) => self.recovery.worker_engine_crashes += 1,
                }
                let slot = self.slot_mut(target);
                slot.down = true;
                slot.down_since = now;
            }
            Crash::Node if self.mode == ScheduleMode::MasterSp => return None,
            Crash::Node => {}
        }
        match target {
            EngineTarget::Master => {
                self.inbox.clear();
                self.current = None;
                self.master.crash();
            }
            EngineTarget::Worker(w) => self.workers[w as usize].crash(),
        }
        let slot = self.slot_mut(target);
        let _torn = slot.journal.crash(now);
        if slot.down {
            slot.era += 1;
        }
        Some(slot.era)
    }

    /// One step of a live restart chain, on attempt `attempt`: the engine
    /// comes back up and tries to read its journal. A blacked-out journal
    /// store pushes the read into backoff (drawn from `rng`), until the
    /// retry budget runs out and the engine boots journal-blind;
    /// otherwise replay costs time in proportion to the kept records.
    pub(crate) fn restart(
        &mut self,
        target: EngineTarget,
        attempt: u32,
        storage: StorageWindow,
        rng: &mut SimRng,
    ) -> Restart {
        let backoff = self.backoff;
        let slot = &mut self.slots[slot_index(target)];
        if slot.journal.enabled() && storage.down {
            if attempt >= backoff.max_attempts {
                slot.journal_unreadable = true;
            } else {
                self.recovery.replay_backoffs += 1;
                return Restart::Backoff(backoff.delay(attempt, rng));
            }
        }
        Restart::Replay(if slot.readable() {
            slot.journal.begin_replay(storage.slowdown)
        } else {
            SimDuration::ZERO
        })
    }

    /// A down engine comes back under a bumped generation, so messages
    /// sent to its previous incarnation are fenced; its downtime is
    /// accounted. `None` when the engine was up.
    pub(crate) fn revive(&mut self, now: SimTime, target: EngineTarget) -> Option<Revived> {
        let slot = self.slot_mut(target);
        if !slot.down {
            return None;
        }
        let readable = slot.readable();
        let revived = Revived {
            replayed: if readable {
                slot.journal.durable_len() as u64
            } else {
                0
            },
            readable,
            unreadable: slot.journal_unreadable,
        };
        slot.down = false;
        slot.gen += 1;
        slot.journal_unreadable = false;
        let down_since = slot.down_since;
        self.recovery.engine_recoveries += 1;
        self.recovery.engine_downtime_secs += (now - down_since).as_secs_f64();
        Some(revived)
    }

    /// The reconcile decision of the engine `target`, just `revived`, for
    /// one live invocation. If neither cluster-visible progress nor a
    /// durable journal record witnesses it, its `Begin` died with the
    /// engine: dead-letter it (exactly one terminal outcome). Otherwise
    /// rebuild the trigger tracker from worker-reported ground truth (each
    /// node's `done` and `remaining` in [`InvState::nodes`] already reflect
    /// every completion, including those whose report messages are still
    /// in flight and will be generation-fenced) and re-issue dispatches;
    /// the same records suppress, at the receiver, any dispatch
    /// (`remaining` is set) or exit report (`exit_reported`) that already
    /// landed, so nothing runs or counts twice.
    ///
    /// The central engine schedules every invocation. A worker engine only
    /// considers invocations whose workflow's `current` deployment routes
    /// work to its worker, and dead-letters only when its worker hosts an
    /// entry node: a begun-elsewhere invocation with its `Begin` still in
    /// flight to a healthy peer must not be killed by an uninvolved
    /// engine's sweep. Routing follows the current deployment, not the
    /// invocation's pinned assignment: replay re-pins the engine to the
    /// current one, and a sweep judging involvement by a stale pin would
    /// skip (or kill) invocations the engine actually schedules.
    pub(crate) fn reconcile(
        &self,
        target: EngineTarget,
        revived: Revived,
        (wf, inv): InvKey,
        state: &InvState,
        current: &Assignment,
    ) -> Reconcile {
        let routing = match target {
            EngineTarget::Master => None,
            EngineTarget::Worker(w) => {
                let node = self.workers[w as usize].node();
                if !current.involves(node) {
                    return Reconcile::Skip;
                }
                Some(node)
            }
        };
        let routed_here = |f: FunctionId| routing.is_none_or(|node| current.worker_of(f) == node);
        let progress = !state.instances.is_empty()
            || state.nodes.iter().any(|p| p.done || p.remaining.is_some());
        let journal = &self.slot(target).journal;
        let recorded = revived
            .readable
            .then(|| journal.recorded(wf, inv))
            .flatten();
        if !progress && recorded.is_none() {
            if !state.dag.entry_nodes().into_iter().any(routed_here) {
                return Reconcile::Skip;
            }
            return Reconcile::DeadLetter(if revived.unreadable {
                DeadLetterReason::JournalUnrecoverable
            } else {
                DeadLetterReason::CrashOrphan
            });
        }
        // Ascending node order. A node whose count reached 0 is done.
        let nodes = || (0..state.nodes.len()).map(|i| (FunctionId::from(i), &state.nodes[i]));
        let completed: Vec<FunctionId> = nodes().filter(|(_, p)| p.done).map(|(f, _)| f).collect();
        let inflight = nodes()
            .filter(|&(f, p)| !p.done && routed_here(f))
            .filter_map(|(f, p)| Some((f, state.dag.node(f).parallelism.max(1) - p.remaining?)))
            .collect();
        let already_propagated = completed
            .iter()
            .copied()
            .filter(|f| recorded.is_some_and(|done| done.contains(f)))
            .collect();
        Reconcile::Replay {
            completed,
            already_propagated,
            inflight,
        }
    }

    /// Write-ahead append to an engine's journal, exposed to the remote
    /// store's fault state: a blackout loses the append outright, a
    /// brownout stretches its time-to-durable.
    pub(crate) fn append(
        &mut self,
        now: SimTime,
        target: EngineTarget,
        (workflow, invocation): (WorkflowId, InvocationId),
        event: JournalEvent,
        storage: StorageWindow,
    ) {
        let journal = &mut self.slot_mut(target).journal;
        if !journal.enabled() {
            return;
        }
        if storage.down {
            journal.append_lost();
        } else {
            let record = JournalRecord {
                workflow,
                invocation,
                event,
            };
            journal.append(now, storage.slowdown, record);
        }
    }

    /// An invocation ended: the master's journal witnesses its terminal
    /// `outcome`, and every journal drops it. Recovery asks only about
    /// live invocations, and invocation ids are never reused.
    pub(crate) fn journal_end(
        &mut self,
        now: SimTime,
        (wf, inv): (WorkflowId, InvocationId),
        outcome: TerminalOutcome,
        storage: StorageWindow,
    ) {
        if !self.slots[0].journal.enabled() {
            return;
        }
        let event = JournalEvent::Terminal(outcome);
        self.append(now, EngineTarget::Master, (wf, inv), event, storage);
        for slot in &mut self.slots {
            slot.journal.release_invocation(wf, inv);
        }
    }

    /// The master hears that one instance of `function` completed; it
    /// assigns what that triggers by `current`, the workflow's current
    /// deployment. It journals the node the moment it first sees it done.
    pub(crate) fn master_state_return(
        &mut self,
        now: SimTime,
        current: &WorkflowCtx,
        (wf, inv): (WorkflowId, InvocationId),
        function: FunctionId,
        storage: StorageWindow,
    ) -> Vec<MasterAction> {
        let was_done = self.master.node_done(wf, inv, function);
        let actions = self.master.on_state_return(current, wf, inv, function);
        if !was_done && self.master.node_done(wf, inv, function) {
            let done = JournalEvent::NodeDone(function);
            self.append(now, EngineTarget::Master, (wf, inv), done, storage);
        }
        actions
    }

    /// A node's completion reaches worker `w`'s engine (a virtual node, or
    /// the last instance of a function). The engine journals the node the
    /// moment it first sees it done.
    pub(crate) fn worker_node_complete(
        &mut self,
        now: SimTime,
        w: usize,
        (wf, inv): (WorkflowId, InvocationId),
        function: FunctionId,
        storage: StorageWindow,
    ) -> Vec<WorkerAction> {
        let engine = &mut self.workers[w];
        let was_done = engine.node_done(wf, inv, function);
        let actions = engine.on_instance_complete(wf, inv, function);
        if !was_done && engine.node_done(wf, inv, function) {
            let done = JournalEvent::NodeDone(function);
            self.append(
                now,
                EngineTarget::Worker(w as u32),
                (wf, inv),
                done,
                storage,
            );
        }
        actions
    }

    /// Drops one invocation's trigger state from the master (under
    /// MasterSP) and from the worker engines in `holders`.
    pub(crate) fn release(&mut self, wf: WorkflowId, inv: InvocationId, holders: &WorkerSet) {
        if self.mode == ScheduleMode::MasterSp {
            self.master.release_invocation(wf, inv);
        }
        for w in holders.iter() {
            self.workers[w].release_invocation(wf, inv);
        }
    }

    /// Fills the engine fields of `report` at `now`: the master's busy
    /// fraction and message counts, the worker engines' sync counts, the
    /// live trigger states and the recovery accounting, with the journal
    /// sums and the partial downtime of engines still down.
    pub(crate) fn report_into(&self, now: SimTime, report: &mut RunReport) {
        let sim_secs = now.as_secs_f64();
        report.master_busy_fraction = if sim_secs > 0.0 {
            self.busy_time.as_secs_f64() / sim_secs
        } else {
            0.0
        };
        report.master_tasks_assigned = self.master.stats().tasks_assigned.get();
        report.master_state_returns = self.master.stats().state_returns.get();
        let workers = || self.workers.iter();
        report.worker_syncs = workers().map(|e| e.stats().syncs_sent.get()).sum();
        report.worker_local_updates = workers().map(|e| e.stats().local_updates.get()).sum();
        let live: usize = workers().map(WorkerEngine::live_invocations).sum();
        report.live_invocation_states = (live + self.master.live_invocations()) as u64;
        let mut recovery = self.recovery;
        for slot in &self.slots {
            let j = &slot.journal;
            recovery.journal_appends += j.append_count();
            recovery.journal_lost_appends += j.lost_count();
            recovery.journal_replays += j.replay_count();
            recovery.journal_replayed_records += j.replayed_record_count();
            if slot.down {
                recovery.engine_downtime_secs += (now - slot.down_since).as_secs_f64();
            }
        }
        report.recovery = recovery;
    }

    /// Every engine's journal, the master's first.
    #[cfg(test)]
    pub(crate) fn journals(&self) -> impl Iterator<Item = &Journal> {
        self.slots.iter().map(|slot| &slot.journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::sync::Arc;

    const MASTER: EngineTarget = EngineTarget::Master;
    const W0: EngineTarget = EngineTarget::Worker(0);

    fn engines(mode: ScheduleMode, journal: bool) -> Engines {
        Engines::new(&ClusterConfig {
            mode,
            workers: 2,
            journal: JournalConfig {
                enabled: journal,
                ..JournalConfig::default()
            },
            fault: FaultPlan {
                backoff: BackoffPolicy { max_attempts: 2 },
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        })
    }

    fn windows(blackout: bool) -> StorageWindow {
        StorageWindow {
            down: blackout,
            ..StorageWindow::CLEAR
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn key(inv: u32) -> (WorkflowId, InvocationId) {
        (WorkflowId::new(0), InvocationId::new(inv))
    }

    #[test]
    fn a_second_crash_bumps_the_era_and_fences_the_pending_chain() {
        let mut e = engines(ScheduleMode::WorkerSp, false);
        let first = e
            .crash(at(0), W0, Crash::Process)
            .expect("up engine crashes");
        assert!(e.chain_live(W0, first));
        // A process crash of a down engine collapses into the open outage.
        assert_eq!(e.crash(at(1), W0, Crash::Process), None);
        assert!(e.chain_live(W0, first));
        // Its node dying under it supersedes the pending restart chain.
        let second = e
            .crash(at(2), W0, Crash::Node)
            .expect("WorkerSP node crash");
        assert_eq!(second, first + 1);
        assert!(!e.chain_live(W0, first));
        assert!(e.chain_live(W0, second));
        assert_eq!(e.recovery.engine_crashes, 1);
        assert_eq!(e.recovery.worker_engine_crashes, 1);
        // A node crash of an up engine leaves no chain to fence.
        let w1 = EngineTarget::Worker(1);
        assert_eq!(e.crash(at(3), w1, Crash::Node), Some(0));
        // Under MasterSP no engine runs on a worker.
        let mut m = engines(ScheduleMode::MasterSp, false);
        assert_eq!(m.crash(at(0), W0, Crash::Node), None);
    }

    #[test]
    fn revive_bumps_the_generation_and_adds_the_downtime() {
        let mut e = engines(ScheduleMode::MasterSp, false);
        assert_eq!(
            e.revive(at(0), MASTER),
            None,
            "an up engine has nothing to revive"
        );
        let gen = e.gen(MASTER);
        assert!(e.current(MASTER, gen));
        e.crash(at(100), MASTER, Crash::Process);
        assert!(!e.deliver(MASTER, gen), "a down engine loses messages");
        let revived = e.revive(at(350), MASTER).expect("down engine revives");
        assert_eq!(revived.replayed, 0);
        assert!(!revived.readable && !revived.unreadable);
        assert_eq!(e.gen(MASTER), gen + 1);
        assert!(!e.deliver(MASTER, gen), "pre-crash messages are fenced");
        assert!(e.deliver(MASTER, gen + 1));
        assert_eq!(e.recovery.messages_lost, 2);
        assert_eq!(e.recovery.engine_recoveries, 1);
        assert!((e.recovery.engine_downtime_secs - 0.25).abs() < 1e-12);
    }

    #[test]
    fn an_append_during_a_blackout_is_counted_lost() {
        let mut e = engines(ScheduleMode::MasterSp, true);
        e.append(
            at(0),
            MASTER,
            key(0),
            JournalEvent::Admitted,
            windows(false),
        );
        e.append(at(1), MASTER, key(1), JournalEvent::Admitted, windows(true));
        let mut report = RunReport::default();
        e.report_into(at(10), &mut report);
        assert_eq!(report.recovery.journal_appends, 1);
        assert_eq!(report.recovery.journal_lost_appends, 1);
        // A disabled journal records nothing, lost or not.
        let mut off = engines(ScheduleMode::MasterSp, false);
        off.append(at(1), MASTER, key(1), JournalEvent::Admitted, windows(true));
        let mut report = RunReport::default();
        off.report_into(at(10), &mut report);
        assert_eq!(report.recovery.journal_appends, 0);
        assert_eq!(report.recovery.journal_lost_appends, 0);
    }

    #[test]
    fn restart_backs_off_until_max_attempts_then_boots_journal_blind() {
        let mut e = engines(ScheduleMode::MasterSp, true);
        e.append(
            at(0),
            MASTER,
            key(0),
            JournalEvent::Admitted,
            windows(false),
        );
        e.crash(at(50), MASTER, Crash::Process);
        let (dark, mut rng) = (windows(true), SimRng::seed_from(7));
        for attempt in 0..2 {
            let step = e.restart(MASTER, attempt, dark, &mut rng);
            assert!(matches!(step, Restart::Backoff(d) if d > SimDuration::ZERO));
        }
        assert_eq!(e.recovery.replay_backoffs, 2);
        let step = e.restart(MASTER, 2, dark, &mut rng);
        assert_eq!(step, Restart::Replay(SimDuration::ZERO));
        let revived = e.revive(at(60), MASTER).expect("down engine revives");
        assert_eq!(
            revived,
            Revived {
                replayed: 0,
                readable: false,
                unreadable: true,
            }
        );
        // Revival clears the mark: the next outage reads the journal back.
        e.crash(at(70), MASTER, Crash::Process);
        let step = e.restart(MASTER, 0, windows(false), &mut rng);
        assert!(matches!(step, Restart::Replay(d) if d > SimDuration::ZERO));
        let revived = e.revive(at(80), MASTER).expect("down engine revives");
        assert_eq!(revived.replayed, 1);
        assert!(revived.readable && !revived.unreadable);
    }

    /// A chain `a -> b -> c` placed `a, b` on node 1 and `c` on node 2
    /// (the nodes of workers 0 and 1), and a fresh invocation of it.
    fn chain() -> (Assignment, InvState) {
        use faasflow_sim::{GroupId, NodeId};
        use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};
        let task = |name| Step::task(name, FunctionProfile::with_millis(1, 0));
        let wf = Workflow::steps(
            "chain",
            Step::sequence(vec![task("a"), task("b"), task("c")]),
        );
        let dag = Arc::new(DagParser::default().parse(&wf).expect("valid workflow"));
        let assignment = Assignment {
            groups: Vec::new(),
            node_of: vec![NodeId::new(1), NodeId::new(1), NodeId::new(2)],
            group_of: vec![GroupId::new(0); 3],
            storage_local: vec![false; 3],
            mem_consume: 0,
            quota: 0,
        };
        let state = InvState::new(dag, Arc::new(assignment.clone()), SimTime::ZERO);
        (assignment, state)
    }

    #[test]
    fn reconcile_skips_dead_letters_or_replays_one_invocation() {
        let mut e = engines(ScheduleMode::WorkerSp, true);
        let (current, mut state) = chain();
        let (a, b, c) = (FunctionId::new(0), FunctionId::new(1), FunctionId::new(2));
        let w1 = EngineTarget::Worker(1);
        let blind = Revived {
            replayed: 0,
            readable: false,
            unreadable: false,
        };
        let lost = Revived {
            unreadable: true,
            ..blind
        };
        let read = Revived {
            readable: true,
            ..blind
        };
        let decide = |e: &Engines, target, revived, state: &InvState, current: &Assignment| {
            e.reconcile(target, revived, key(0), state, current)
        };
        // No progress and no journal record: the Begin died with the
        // engine, if this engine schedules an entry node.
        let orphan = Reconcile::DeadLetter(DeadLetterReason::CrashOrphan);
        assert_eq!(decide(&e, MASTER, blind, &state, &current), orphan);
        assert_eq!(decide(&e, W0, blind, &state, &current), orphan);
        let unrecoverable = Reconcile::DeadLetter(DeadLetterReason::JournalUnrecoverable);
        assert_eq!(decide(&e, W0, lost, &state, &current), unrecoverable);
        // Worker 1 hosts no entry node; an engine outside the current
        // deployment schedules nothing.
        assert_eq!(decide(&e, w1, blind, &state, &current), Reconcile::Skip);
        // Durable records alone are a witness: replay from scratch.
        for event in [JournalEvent::Admitted, JournalEvent::NodeDone(a)] {
            e.append(at(0), W0, key(0), event, windows(false));
        }
        e.crash(at(10), W0, Crash::Process);
        let replay_nothing = Reconcile::Replay {
            completed: vec![],
            already_propagated: vec![],
            inflight: vec![],
        };
        assert_eq!(decide(&e, W0, read, &state, &current), replay_nothing);
        // Cluster-side progress: `a` done (and journaled), `b` running,
        // and `c`, another engine's node, running too.
        state.nodes[a.index()].done = true;
        state.nodes[b.index()].remaining = Some(1);
        state.nodes[c.index()].remaining = Some(1);
        let replay = |propagated: Vec<FunctionId>, inflight| Reconcile::Replay {
            completed: vec![a],
            already_propagated: propagated,
            inflight,
        };
        assert_eq!(
            decide(&e, W0, read, &state, &current),
            replay(vec![a], vec![(b, 0)])
        );
        assert_eq!(
            decide(&e, W0, blind, &state, &current),
            replay(vec![], vec![(b, 0)])
        );
        assert_eq!(
            decide(&e, MASTER, blind, &state, &current),
            replay(vec![], vec![(b, 0), (c, 0)])
        );
    }

    #[test]
    fn report_into_counts_an_engine_still_down_at_snapshot_time() {
        let mut e = engines(ScheduleMode::WorkerSp, false);
        e.crash(at(100), W0, Crash::Process);
        e.revive(at(300), W0);
        e.crash(at(400), W0, Crash::Process);
        let mut report = RunReport::default();
        e.report_into(at(1000), &mut report);
        // 0.2 s of closed outage plus 0.6 s of one still open.
        assert!((report.recovery.engine_downtime_secs - 0.8).abs() < 1e-12);
        assert_eq!(report.recovery.engine_crashes, 2);
        assert_eq!(report.recovery.engine_recoveries, 1);
    }
}
