//! Structured execution traces.
//!
//! When [`crate::ClusterConfig::trace`] is set, the cluster records one
//! [`TraceEvent`] per lifecycle step of every invocation — arrivals,
//! triggers, container starts, executor attempts, transfers, completions,
//! fault-path transitions (crashes, restarts, storage retries,
//! dead-lettering), and the control messages of whichever schedule pattern
//! is active. Traces make the difference between MasterSP and WorkerSP
//! *visible* (who triggered what, where the state travelled) and back both
//! the timeline renderer used by examples and the span-tree assembly in
//! `faasflow-obs`.
//!
//! The recorder is bounded: `TRACE_CAPACITY` caps
//! the event vector, and events beyond the cap are counted (surfaced as
//! `trace_dropped` in [`crate::RunReport`]) rather than recorded, so long
//! open-loop runs cannot grow memory without bound. Dropping the *newest*
//! events keeps the retained prefix causally closed: no retained event
//! ever references an earlier event that was dropped.

use faasflow_sim::{
    ContainerId, FunctionId, InvocationId, NodeId, SimDuration, SimTime, WorkflowId,
};
use serde::{Deserialize, Serialize};

use crate::degrade::DegradeLevel;

/// One recorded lifecycle step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A client invocation arrived at the cluster.
    InvocationArrived {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// Instant.
        at: SimTime,
    },
    /// An engine decided a function node runs (WorkerSP: locally;
    /// MasterSP: the assignment was issued).
    FunctionTriggered {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The function node.
        function: FunctionId,
        /// The worker that will run it.
        worker: NodeId,
        /// Instant.
        at: SimTime,
    },
    /// A container became ready for one executor instance.
    InstanceStarted {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The function node.
        function: FunctionId,
        /// Instance index.
        instance: u32,
        /// The worker hosting the container.
        worker: NodeId,
        /// The container.
        container: ContainerId,
        /// Whether the container cold-started.
        cold: bool,
        /// Instant.
        at: SimTime,
    },
    /// An executor attempt began (inputs in place, compute scheduled).
    ExecStarted {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The function node.
        function: FunctionId,
        /// Instance index.
        instance: u32,
        /// The worker running the attempt.
        worker: NodeId,
        /// Zero-based attempt number (`retries` so far).
        attempt: u32,
        /// Instant.
        at: SimTime,
    },
    /// An executor attempt finished (successfully or not).
    ExecFinished {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The function node.
        function: FunctionId,
        /// Instance index.
        instance: u32,
        /// The worker that ran the attempt.
        worker: NodeId,
        /// Zero-based attempt number.
        attempt: u32,
        /// Whether the injected-failure draw failed this attempt.
        failed: bool,
        /// Instant.
        at: SimTime,
    },
    /// A data transfer completed.
    Transferred {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The consuming/producing function node.
        function: FunctionId,
        /// Instance index of the consuming/producing executor.
        instance: u32,
        /// The worker the executor lives on.
        worker: NodeId,
        /// Bytes moved.
        bytes: u64,
        /// Through the remote store (`false` = worker-local memory).
        remote: bool,
        /// `true` for an input read, `false` for an output write.
        read: bool,
        /// The instant the flow was admitted to the network.
        started: SimTime,
        /// Completion instant.
        at: SimTime,
    },
    /// Every instance of a node finished.
    NodeCompleted {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The function node.
        function: FunctionId,
        /// Instant.
        at: SimTime,
    },
    /// A WorkerSP state-sync message was sent to another worker.
    StateSyncSent {
        /// Sender worker.
        from: NodeId,
        /// Receiver worker.
        to: NodeId,
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The completed function the sync reports.
        completed: FunctionId,
        /// Instant.
        at: SimTime,
    },
    /// A storage access hit a blackout window and was scheduled to retry.
    StorageRetry {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The function node whose transfer is being retried.
        function: FunctionId,
        /// `true` for an input read, `false` for an output write.
        read: bool,
        /// Zero-based retry attempt number.
        attempt: u32,
        /// The backoff delay until the next attempt.
        delay: SimDuration,
        /// Instant.
        at: SimTime,
    },
    /// The invocation's epoch was bumped and it restarted from durable
    /// state (WorkerSP crash recovery).
    InvocationRestarted {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The new (post-bump) epoch.
        epoch: u32,
        /// Instant.
        at: SimTime,
    },
    /// The invocation exhausted its restart budget and was dead-lettered.
    DeadLettered {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// Instant.
        at: SimTime,
    },
    /// The invocation finished (all exit nodes complete).
    InvocationCompleted {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// Instant.
        at: SimTime,
        /// Whether the 60 s timeout had already fired.
        timed_out: bool,
    },
    /// A worker node crashed (fault injection).
    WorkerCrashed {
        /// The crashed worker.
        worker: NodeId,
        /// Instant.
        at: SimTime,
    },
    /// A crashed worker came back online.
    WorkerRestarted {
        /// The restarted worker.
        worker: NodeId,
        /// Instant.
        at: SimTime,
    },
    /// The master's heartbeat lease on a worker expired (crash detected).
    LeaseExpired {
        /// The worker whose lease expired.
        worker: NodeId,
        /// Instant.
        at: SimTime,
    },
    /// Admission control shed the invocation (bounded queue overflow).
    InvocationShed {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The worker whose full queue triggered the shed.
        worker: NodeId,
        /// Instant.
        at: SimTime,
    },
    /// The remote-store circuit breaker changed state.
    BreakerTransition {
        /// Previous state.
        from: crate::overload::BreakerState,
        /// New state.
        to: crate::overload::BreakerState,
        /// Instant.
        at: SimTime,
    },
    /// A hedged execution was dispatched for a straggling instance.
    HedgeLaunched {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The function node.
        function: FunctionId,
        /// Instance index.
        instance: u32,
        /// The worker running the straggling primary.
        from_worker: NodeId,
        /// The worker the hedge was dispatched to.
        to_worker: NodeId,
        /// Instant.
        at: SimTime,
    },
    /// A workflow engine crashed (fault injection), losing its volatile
    /// trigger state: the central master engine (`worker: None`) or one
    /// worker's engine (`worker: Some(w)`).
    EngineCrashed {
        /// The worker whose engine crashed; `None` for the master engine.
        worker: Option<NodeId>,
        /// Instant.
        at: SimTime,
    },
    /// A crashed engine finished journal replay and resumed service.
    EngineRecovered {
        /// The worker whose engine recovered; `None` for the master engine.
        worker: Option<NodeId>,
        /// Journal records replayed to rebuild state.
        replayed: u64,
        /// Instant.
        at: SimTime,
    },
    /// The placement layer ran an incremental rebalance sweep: only the
    /// workflows with groups placed on `worker` were re-placed (via the
    /// epoch-fenced red-black redeploy path), everyone else kept their
    /// deployment.
    PlacementRebalanced {
        /// The worker whose placed groups triggered the sweep (the skewed
        /// hot worker, the crashed node, or the most-crowded survivor at a
        /// restart).
        worker: NodeId,
        /// Workflows re-placed by the sweep.
        workflows: u64,
        /// `true` when a recovery signal (worker crash or restart)
        /// triggered it; `false` for steady-state load skew.
        recovery: bool,
        /// Instant.
        at: SimTime,
    },
    /// A hedged execution resolved: either the hedge or the primary won.
    HedgeResolved {
        /// Workflow.
        workflow: WorkflowId,
        /// Invocation.
        invocation: InvocationId,
        /// The function node.
        function: FunctionId,
        /// Instance index.
        instance: u32,
        /// `true` when the hedge finished first and took the instance.
        winner_is_hedge: bool,
        /// Instant.
        at: SimTime,
    },
    /// An SLO burn-rate alert went active: both the fast and the slow
    /// sliding window exceeded their thresholds (see [`crate::SloConfig`]).
    SloAlertFired {
        /// The workflow whose objective fired.
        workflow: WorkflowId,
        /// Fast-window burn rate at the transition.
        fast_burn: f64,
        /// Slow-window burn rate at the transition.
        slow_burn: f64,
        /// Instant.
        at: SimTime,
    },
    /// A previously firing SLO alert dropped back below its thresholds.
    SloAlertResolved {
        /// The workflow whose objective resolved.
        workflow: WorkflowId,
        /// Instant.
        at: SimTime,
    },
    /// The degradation controller moved a workflow into (or within) a
    /// degraded state (see [`crate::DegradeConfig`]).
    WorkflowDegraded {
        /// The degraded workflow.
        workflow: WorkflowId,
        /// The state entered.
        level: DegradeLevel,
        /// Concurrency cap in force after the transition.
        cap: u32,
        /// Instant.
        at: SimTime,
    },
    /// A degraded workflow completed its recovery probes and returned to
    /// full service.
    WorkflowRestored {
        /// The restored workflow.
        workflow: WorkflowId,
        /// Instant.
        at: SimTime,
    },
    /// The health detector quarantined a worker: its differential stats
    /// scored as a sustained fleet outlier (see [`crate::HealthConfig`]).
    /// The worker is *not* declared dead — its lease stays valid — but its
    /// placement capacity is zeroed and hedges steer away from it.
    WorkerQuarantined {
        /// The quarantined worker.
        worker: NodeId,
        /// MAD score at the transition ([`crate::health::STUCK_SCORE`] for
        /// a stuck executor).
        score: f64,
        /// `true` when this is a relapse out of the half-open probe phase.
        relapse: bool,
        /// Instant.
        at: SimTime,
    },
    /// A quarantined worker passed its half-open probes and returned to
    /// full service.
    WorkerReinstated {
        /// The reinstated worker.
        worker: NodeId,
        /// Instant.
        at: SimTime,
    },
    /// A late completion from a suspected-dead-but-alive worker was
    /// rejected by the seq/epoch fences (the false-suspicion path of an
    /// asymmetric partition).
    ZombieFenced {
        /// The zombie worker whose stale completion was fenced.
        worker: NodeId,
        /// Workflow of the fenced completion.
        workflow: WorkflowId,
        /// Invocation of the fenced completion.
        invocation: InvocationId,
        /// Instant.
        at: SimTime,
    },
}

impl TraceEvent {
    /// The instant the event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::InvocationArrived { at, .. }
            | TraceEvent::FunctionTriggered { at, .. }
            | TraceEvent::InstanceStarted { at, .. }
            | TraceEvent::ExecStarted { at, .. }
            | TraceEvent::ExecFinished { at, .. }
            | TraceEvent::Transferred { at, .. }
            | TraceEvent::NodeCompleted { at, .. }
            | TraceEvent::StateSyncSent { at, .. }
            | TraceEvent::StorageRetry { at, .. }
            | TraceEvent::InvocationRestarted { at, .. }
            | TraceEvent::DeadLettered { at, .. }
            | TraceEvent::InvocationCompleted { at, .. }
            | TraceEvent::WorkerCrashed { at, .. }
            | TraceEvent::WorkerRestarted { at, .. }
            | TraceEvent::LeaseExpired { at, .. }
            | TraceEvent::InvocationShed { at, .. }
            | TraceEvent::BreakerTransition { at, .. }
            | TraceEvent::EngineCrashed { at, .. }
            | TraceEvent::EngineRecovered { at, .. }
            | TraceEvent::HedgeLaunched { at, .. }
            | TraceEvent::PlacementRebalanced { at, .. }
            | TraceEvent::HedgeResolved { at, .. }
            | TraceEvent::SloAlertFired { at, .. }
            | TraceEvent::SloAlertResolved { at, .. }
            | TraceEvent::WorkflowDegraded { at, .. }
            | TraceEvent::WorkflowRestored { at, .. }
            | TraceEvent::WorkerQuarantined { at, .. }
            | TraceEvent::WorkerReinstated { at, .. }
            | TraceEvent::ZombieFenced { at, .. } => *at,
        }
    }

    /// The invocation the event belongs to, or `None` for node-scoped
    /// events (crashes, restarts, lease expiries).
    pub fn invocation(&self) -> Option<(WorkflowId, InvocationId)> {
        match self {
            TraceEvent::InvocationArrived {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::FunctionTriggered {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::InstanceStarted {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::ExecStarted {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::ExecFinished {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::Transferred {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::NodeCompleted {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::StateSyncSent {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::StorageRetry {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::InvocationRestarted {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::DeadLettered {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::InvocationCompleted {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::InvocationShed {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::HedgeLaunched {
                workflow,
                invocation,
                ..
            }
            | TraceEvent::HedgeResolved {
                workflow,
                invocation,
                ..
            } => Some((*workflow, *invocation)),
            TraceEvent::WorkerCrashed { .. }
            | TraceEvent::WorkerRestarted { .. }
            | TraceEvent::LeaseExpired { .. }
            | TraceEvent::BreakerTransition { .. }
            | TraceEvent::EngineCrashed { .. }
            | TraceEvent::EngineRecovered { .. }
            | TraceEvent::PlacementRebalanced { .. }
            | TraceEvent::SloAlertFired { .. }
            | TraceEvent::SloAlertResolved { .. }
            | TraceEvent::WorkflowDegraded { .. }
            | TraceEvent::WorkflowRestored { .. }
            | TraceEvent::WorkerQuarantined { .. }
            | TraceEvent::WorkerReinstated { .. }
            // Deliberately node-scoped: the fenced completion belongs to a
            // superseded attempt, not the invocation's live span tree.
            | TraceEvent::ZombieFenced { .. } => None,
        }
    }
}

/// Maximum retained trace events of a cluster run. Events past the cap
/// are dropped (newest first, keeping the retained prefix causally closed)
/// and counted in `RunReport::trace_dropped`, so `trace` on a long
/// open-loop run cannot grow memory without bound.
pub(crate) const TRACE_CAPACITY: usize = 1 << 20;

/// The recorder held by the cluster.
#[derive(Debug, Clone)]
pub(crate) struct Tracer {
    enabled: bool,
    capacity: usize,
    dropped: u64,
    events: Vec<TraceEvent>,
}

impl Tracer {
    pub(crate) fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            capacity,
            dropped: 0,
            events: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, make: impl FnOnce() -> TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(make());
    }

    /// Events rejected by the capacity cap since construction.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// The recorded events, without draining them.
    pub(crate) fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

/// Renders a per-invocation timeline as indented text — a poor man's Gantt
/// chart for terminal debugging. Node-scoped fault events (crashes,
/// restarts, lease expiries) come first under a `cluster:` header with
/// absolute timestamps.
pub fn render_timeline(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    let mut cluster: Vec<&TraceEvent> =
        events.iter().filter(|e| e.invocation().is_none()).collect();
    cluster.sort_by_key(|e| e.at());
    if !cluster.is_empty() {
        let _ = writeln!(out, "cluster:");
        for e in &cluster {
            let t = e.at().as_millis_f64();
            let line = match e {
                TraceEvent::WorkerCrashed { worker, .. } => format!("crash   {worker}"),
                TraceEvent::WorkerRestarted { worker, .. } => format!("restart {worker}"),
                TraceEvent::LeaseExpired { worker, .. } => format!("lease   {worker} expired"),
                TraceEvent::BreakerTransition { from, to, .. } => {
                    format!("breaker {from:?} -> {to:?}")
                }
                TraceEvent::EngineCrashed { worker, .. } => match worker {
                    Some(w) => format!("engine  crash on {w}"),
                    None => "engine  crash (master)".to_string(),
                },
                TraceEvent::EngineRecovered {
                    worker, replayed, ..
                } => match worker {
                    Some(w) => format!("engine  up on {w} ({replayed} replayed)"),
                    None => format!("engine  up (master, {replayed} replayed)"),
                },
                TraceEvent::PlacementRebalanced {
                    worker,
                    workflows,
                    recovery,
                    ..
                } => format!(
                    "rebal   {workflows} workflow(s) off {worker} ({})",
                    if *recovery { "recovery" } else { "skew" }
                ),
                TraceEvent::SloAlertFired {
                    workflow,
                    fast_burn,
                    slow_burn,
                    ..
                } => format!("slo     {workflow} fired (burn {fast_burn:.1}/{slow_burn:.1})"),
                TraceEvent::SloAlertResolved { workflow, .. } => {
                    format!("slo     {workflow} resolved")
                }
                TraceEvent::WorkflowDegraded {
                    workflow,
                    level,
                    cap,
                    ..
                } => format!("degrade {workflow} -> {} (cap {cap})", level.label()),
                TraceEvent::WorkflowRestored { workflow, .. } => {
                    format!("degrade {workflow} restored")
                }
                TraceEvent::WorkerQuarantined {
                    worker,
                    score,
                    relapse,
                    ..
                } => format!(
                    "health  {worker} quarantined (score {score:.1}{})",
                    if *relapse { ", relapse" } else { "" }
                ),
                TraceEvent::WorkerReinstated { worker, .. } => {
                    format!("health  {worker} reinstated")
                }
                TraceEvent::ZombieFenced {
                    worker,
                    workflow,
                    invocation,
                    ..
                } => format!("fence   zombie {worker} ({workflow}/{invocation})"),
                _ => unreachable!("only node-scoped events lack an invocation"),
            };
            let _ = writeln!(out, "  {t:>9.2} ms  {line}");
        }
    }

    let mut current: Option<(WorkflowId, InvocationId)> = None;
    let mut start = SimTime::ZERO;
    let mut sorted: Vec<&TraceEvent> = events.iter().filter(|e| e.invocation().is_some()).collect();
    sorted.sort_by_key(|e| (e.invocation(), e.at()));
    for e in sorted {
        if current != e.invocation() {
            current = e.invocation();
            start = e.at();
            let (wf, inv) = e.invocation().expect("node-scoped events filtered out");
            let _ = writeln!(out, "{wf}/{inv}:");
        }
        let dt = (e.at() - start).as_millis_f64();
        let line = match e {
            TraceEvent::InvocationArrived { .. } => "arrived".to_string(),
            TraceEvent::FunctionTriggered {
                function, worker, ..
            } => format!("trigger {function} on {worker}"),
            TraceEvent::InstanceStarted {
                function,
                instance,
                cold,
                ..
            } => format!(
                "start   {function}#{instance} ({})",
                if *cold { "cold" } else { "warm" }
            ),
            TraceEvent::ExecStarted {
                function,
                instance,
                attempt,
                ..
            } => format!("exec    {function}#{instance} attempt {attempt}"),
            TraceEvent::ExecFinished {
                function,
                instance,
                attempt,
                failed,
                ..
            } => format!(
                "exec    {function}#{instance} attempt {attempt} {}",
                if *failed { "failed" } else { "ok" }
            ),
            TraceEvent::Transferred {
                function,
                bytes,
                remote,
                read,
                ..
            } => format!(
                "{} {function} {:.2} MB ({})",
                if *read { "read   " } else { "write  " },
                *bytes as f64 / 1048576.0,
                if *remote { "remote" } else { "local" }
            ),
            TraceEvent::NodeCompleted { function, .. } => format!("done    {function}"),
            TraceEvent::StateSyncSent {
                from,
                to,
                completed,
                ..
            } => format!("sync    {completed}: {from} -> {to}"),
            TraceEvent::StorageRetry {
                function,
                read,
                attempt,
                delay,
                ..
            } => format!(
                "retry   {function} {} attempt {attempt} (+{:.2} ms)",
                if *read { "read" } else { "write" },
                delay.as_millis_f64()
            ),
            TraceEvent::InvocationRestarted { epoch, .. } => {
                format!("restart epoch {epoch}")
            }
            TraceEvent::DeadLettered { .. } => "dead-lettered".to_string(),
            TraceEvent::InvocationCompleted { timed_out, .. } => {
                if *timed_out {
                    "completed (after timeout)".to_string()
                } else {
                    "completed".to_string()
                }
            }
            TraceEvent::InvocationShed { worker, .. } => {
                format!("shed    (queue full on {worker})")
            }
            TraceEvent::HedgeLaunched {
                function,
                instance,
                from_worker,
                to_worker,
                ..
            } => format!("hedge   {function}#{instance} {from_worker} -> {to_worker}"),
            TraceEvent::HedgeResolved {
                function,
                instance,
                winner_is_hedge,
                ..
            } => format!(
                "hedge   {function}#{instance} {} won",
                if *winner_is_hedge { "hedge" } else { "primary" }
            ),
            TraceEvent::WorkerCrashed { .. }
            | TraceEvent::WorkerRestarted { .. }
            | TraceEvent::LeaseExpired { .. }
            | TraceEvent::BreakerTransition { .. }
            | TraceEvent::EngineCrashed { .. }
            | TraceEvent::EngineRecovered { .. }
            | TraceEvent::PlacementRebalanced { .. }
            | TraceEvent::SloAlertFired { .. }
            | TraceEvent::SloAlertResolved { .. }
            | TraceEvent::WorkflowDegraded { .. }
            | TraceEvent::WorkflowRestored { .. }
            | TraceEvent::WorkerQuarantined { .. }
            | TraceEvent::WorkerReinstated { .. }
            | TraceEvent::ZombieFenced { .. } => {
                unreachable!("node-scoped events are rendered in the cluster section")
            }
        };
        let _ = writeln!(out, "  {dt:>9.2} ms  {line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(inv: u32, ms: u64) -> TraceEvent {
        TraceEvent::InvocationArrived {
            workflow: WorkflowId::new(0),
            invocation: InvocationId::new(inv),
            at: SimTime::ZERO + SimDuration::from_millis(ms),
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, usize::MAX);
        t.record(|| arrival(0, 0));
        assert!(t.take().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn bounded_tracer_counts_drops() {
        let mut t = Tracer::new(true, 2);
        for i in 0..5 {
            t.record(|| arrival(i, u64::from(i)));
        }
        assert_eq!(t.dropped(), 3);
        let kept = t.take();
        assert_eq!(kept.len(), 2);
        // Drop-newest: the retained prefix is the chronological head.
        assert_eq!(kept[0], arrival(0, 0));
        assert_eq!(kept[1], arrival(1, 1));
    }

    #[test]
    fn timeline_groups_by_invocation() {
        let text = render_timeline(&[arrival(1, 5), arrival(0, 0)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "wf0/inv0:");
        assert_eq!(lines[2], "wf0/inv1:");
    }

    #[test]
    fn timeline_puts_node_events_in_cluster_section() {
        let crash = TraceEvent::WorkerCrashed {
            worker: NodeId::new(3),
            at: SimTime::ZERO + SimDuration::from_millis(7),
        };
        let text = render_timeline(&[arrival(0, 0), crash]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "cluster:");
        assert!(lines[1].contains("crash"));
        assert_eq!(lines[2], "wf0/inv0:");
    }
}
