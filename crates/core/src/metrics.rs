//! Run metrics and reports — the quantities the paper's figures plot.

use std::collections::BTreeMap;

use faasflow_sim::stats::{Histogram, Summary};
use faasflow_sim::{NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::degrade::DegradeReport;
use crate::health::HealthReport;
use crate::slo::SloReport;

/// Per-workflow measurement accumulators (crate-internal mutable side).
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkflowMetrics {
    /// End-to-end invocation latency (ms), timeouts recorded at the cap.
    pub e2e: Histogram,
    /// Scheduling overhead (ms): e2e minus critical-path execution (§2.3).
    pub sched_overhead: Histogram,
    /// Per-invocation sum of data transfer latencies over all edges (ms) —
    /// Table 4's quantity.
    pub transfer_total: Histogram,
    /// Per-invocation bytes moved through any store (remote or local).
    pub bytes_moved: Histogram,
    pub completed: u64,
    pub timeouts: u64,
    pub sent: u64,
    pub dead_lettered: u64,
    pub shed: u64,
    pub remote_bytes: u64,
    pub local_bytes: u64,
    pub first_completion: Option<SimTime>,
    pub last_completion: Option<SimTime>,
}

impl WorkflowMetrics {
    pub(crate) fn snapshot(&mut self, name: &str) -> WorkflowReport {
        WorkflowReport {
            name: name.to_string(),
            sent: self.sent,
            completed: self.completed,
            timeouts: self.timeouts,
            dead_lettered: self.dead_lettered,
            shed: self.shed,
            e2e: self.e2e.summary(),
            sched_overhead: self.sched_overhead.summary(),
            transfer_total: self.transfer_total.summary(),
            bytes_moved: self.bytes_moved.summary(),
            remote_bytes: self.remote_bytes,
            local_bytes: self.local_bytes,
            throughput_per_min: self.throughput_per_min(),
        }
    }

    fn throughput_per_min(&self) -> f64 {
        match (self.first_completion, self.last_completion) {
            (Some(a), Some(b)) if b > a && self.completed > 1 => {
                (self.completed - 1) as f64 / (b - a).as_secs_f64() * 60.0
            }
            _ => 0.0,
        }
    }
}

/// Immutable per-workflow report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowReport {
    /// Workflow name.
    pub name: String,
    /// Invocations sent.
    pub sent: u64,
    /// Invocations completed (timeouts included once they finish).
    pub completed: u64,
    /// Invocations that exceeded the timeout.
    pub timeouts: u64,
    /// Invocations abandoned by fault recovery (crash-recovery budget or
    /// storage-retry budget exhausted) with explicit accounting.
    pub dead_lettered: u64,
    /// Invocations shed by admission control (overload protection; 0
    /// unless [`crate::OverloadConfig`] enables bounded queues).
    pub shed: u64,
    /// End-to-end latency (ms).
    pub e2e: Summary,
    /// Scheduling overhead (ms).
    pub sched_overhead: Summary,
    /// Per-invocation total data-movement latency (ms) — Table 4.
    pub transfer_total: Summary,
    /// Per-invocation bytes moved.
    pub bytes_moved: Summary,
    /// Total bytes shipped through the remote store.
    pub remote_bytes: u64,
    /// Total bytes passed through local memory (FaaStore hits).
    pub local_bytes: u64,
    /// Completions per minute over the measurement window.
    pub throughput_per_min: f64,
}

/// Cluster-wide report produced by `Cluster::report`.
///
/// `Serialize` is hand-written (the vendored derive has no
/// `skip_serializing_if`): the `placement` block is omitted when all-zero
/// so legacy-mode reports — and the committed goldens — stay bit-identical
/// to builds that predate the placement layer. Nothing reads a report
/// back, so it has no `Deserialize`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Per-workflow results keyed by workflow name.
    pub workflows: BTreeMap<String, WorkflowReport>,
    /// Simulated time at report generation (s).
    pub sim_time_secs: f64,
    /// Master engine CPU busy fraction (MasterSP's bottleneck; ~0 under
    /// WorkerSP).
    pub master_busy_fraction: f64,
    /// Task assignments sent by the master engine (MasterSP).
    pub master_tasks_assigned: u64,
    /// Execution states returned to the master engine (MasterSP).
    pub master_state_returns: u64,
    /// Cross-worker state-sync messages (WorkerSP).
    pub worker_syncs: u64,
    /// In-process local state updates (WorkerSP).
    pub worker_local_updates: u64,
    /// Cold starts across all workers.
    pub cold_starts: u64,
    /// Warm starts across all workers.
    pub warm_starts: u64,
    /// Bytes that transited the storage node NIC (both directions).
    pub storage_node_bytes: u64,
    /// Bytes served by worker-local memory instead of the network.
    pub faastore_local_bytes: u64,
    /// Per-worker engine-state footprint: live invocation structures.
    pub live_invocation_states: u64,
    /// Instance executions that failed and were retried (failure
    /// injection; 0 unless `exec_failure_rate > 0`).
    pub exec_retries: u64,
    /// Feedback-driven repartitions that failed and kept the old
    /// deployment (previously silently swallowed).
    pub repartition_failures: u64,
    /// Fault-injection and recovery accounting (all zero when the
    /// [`crate::FaultPlan`] is empty).
    pub faults: FaultReport,
    /// Overload-protection accounting (all zero when the
    /// [`crate::OverloadConfig`] is empty).
    pub overload: OverloadReport,
    /// Engine-crash recovery and journal accounting (all zero when the
    /// plan schedules no engine crashes and journaling is off).
    pub recovery: RecoveryReport,
    /// Load- and locality-aware placement accounting (all zero when
    /// [`crate::ClusterConfig::placement_config`] stays legacy; omitted
    /// from serialized reports in that case so legacy goldens stay
    /// bit-identical).
    pub placement: PlacementReport,
    /// SLO burn-rate monitoring accounting (all zero when
    /// [`crate::ClusterConfig::slo`] is unset; omitted from serialized
    /// reports in that case so pre-SLO goldens stay bit-identical).
    pub slo: SloReport,
    /// SLO-driven degradation accounting (all zero when
    /// [`crate::ClusterConfig::degrade`] is unset; omitted from serialized
    /// reports in that case so pre-degradation goldens stay bit-identical).
    pub degrade: DegradeReport,
    /// Gray-failure injection and health-detector accounting (all zero
    /// when no [`crate::GrayFault`] fires and
    /// [`crate::ClusterConfig::health`] is unset; omitted from serialized
    /// reports in that case so pre-gray-failure goldens stay
    /// bit-identical).
    pub health: HealthReport,
    /// Trace events rejected by the `TRACE_CAPACITY` cap (0 when tracing
    /// is off or the cap was never hit).
    pub trace_dropped: u64,
    /// Resource time-series sampled over the run (`None` unless
    /// [`crate::ClusterConfig::sample_every`] is set).
    pub resources: Option<crate::sample::ResourceSeriesReport>,
}

impl Serialize for RunReport {
    fn to_value(&self) -> serde::Value {
        let mut m: Vec<(String, serde::Value)> = Vec::new();
        macro_rules! put {
            ($field:ident) => {
                m.push((stringify!($field).to_string(), self.$field.to_value()))
            };
        }
        put!(workflows);
        put!(sim_time_secs);
        put!(master_busy_fraction);
        put!(master_tasks_assigned);
        put!(master_state_returns);
        put!(worker_syncs);
        put!(worker_local_updates);
        put!(cold_starts);
        put!(warm_starts);
        put!(storage_node_bytes);
        put!(faastore_local_bytes);
        put!(live_invocation_states);
        put!(exec_retries);
        put!(repartition_failures);
        put!(faults);
        put!(overload);
        put!(recovery);
        if !self.placement.is_zero() {
            put!(placement);
        }
        if !self.slo.is_zero() {
            put!(slo);
        }
        if !self.degrade.is_zero() {
            put!(degrade);
        }
        if !self.health.is_zero() {
            put!(health);
        }
        put!(trace_dropped);
        put!(resources);
        serde::Value::Map(m)
    }
}

/// What the fault-injection subsystem did during a run — every recovery
/// action is counted, distinguishing the recovery paths from one another.
///
/// `Serialize` is hand-written (and there is no `Deserialize`):
/// `dead_letter_quarantine_orphan` is omitted when zero so committed
/// goldens from before the quarantine path keep their exact `faults`
/// block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Worker-node crashes injected.
    pub worker_crashes: u64,
    /// Worker restarts completed.
    pub worker_restarts: u64,
    /// Leases that expired (crash detections by the heartbeat model).
    pub lease_expiries: u64,
    /// Recovery dispatches after a node crash: MasterSP re-dispatched
    /// orphan instances, WorkerSP restarted invocations on the surviving
    /// partition.
    pub crash_redispatches: u64,
    /// Bulk transfers killed by a crash or recovery action.
    pub flows_killed: u64,
    /// Remote-storage operations delayed by outage backoff.
    pub storage_backoff_waits: u64,
    /// Engine messages retransmitted over degraded links.
    pub message_retransmits: u64,
    /// Invocations dead-lettered (sum of the per-reason counters below).
    pub dead_letters: u64,
    /// Dead letters whose terminal cause was an exhausted retry/recovery
    /// budget (exec retries, storage retries, crash-recovery attempts).
    pub dead_letter_retries_exhausted: u64,
    /// Dead letters orphaned by an engine crash: no surviving journal
    /// record and no worker-reported progress to rebuild from.
    pub dead_letter_crash_orphan: u64,
    /// Dead letters caused by an unreadable journal at recovery (store
    /// blacked out through every replay attempt).
    pub dead_letter_journal_unrecoverable: u64,
    /// Dead letters purged while draining a quarantined worker whose
    /// invocations had no crash-recovery budget left.
    pub dead_letter_quarantine_orphan: u64,
}

impl Serialize for FaultReport {
    fn to_value(&self) -> serde::Value {
        let mut m: Vec<(String, serde::Value)> = Vec::new();
        macro_rules! put {
            ($field:ident) => {
                m.push((stringify!($field).to_string(), self.$field.to_value()))
            };
        }
        put!(worker_crashes);
        put!(worker_restarts);
        put!(lease_expiries);
        put!(crash_redispatches);
        put!(flows_killed);
        put!(storage_backoff_waits);
        put!(message_retransmits);
        put!(dead_letters);
        put!(dead_letter_retries_exhausted);
        put!(dead_letter_crash_orphan);
        put!(dead_letter_journal_unrecoverable);
        if self.dead_letter_quarantine_orphan != 0 {
            put!(dead_letter_quarantine_orphan);
        }
        serde::Value::Map(m)
    }
}

/// What the engine-crash recovery subsystem did during a run: crash and
/// restart counts, journal traffic, and the duplicate work that the
/// exactly-once guards suppressed across crash/replay/hedge interleavings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Engine crashes injected (central + per-worker).
    pub engine_crashes: u64,
    /// Central (MasterSP) engine crashes among them.
    pub master_engine_crashes: u64,
    /// Per-worker (WorkerSP) engine crashes among them.
    pub worker_engine_crashes: u64,
    /// Engine restarts that completed recovery.
    pub engine_recoveries: u64,
    /// Journal records appended (including ones later torn off by crash).
    pub journal_appends: u64,
    /// Journal appends lost: dropped at a blacked-out store or torn off by
    /// a crash before they were durable.
    pub journal_lost_appends: u64,
    /// Journal replay passes performed at engine restart.
    pub journal_replays: u64,
    /// Kept journal records read back across all replay passes.
    pub journal_replayed_records: u64,
    /// Replay attempts deferred because the journal store was blacked out.
    pub replay_backoffs: u64,
    /// Control messages lost at a dead engine or fenced as stale after a
    /// recovery rebuilt the engine's state.
    pub messages_lost: u64,
    /// Duplicate dispatches/exit-reports/syncs suppressed by the
    /// exactly-once guards during and after replay.
    pub duplicate_suppressions: u64,
    /// Total simulated seconds any engine spent down (summed over crashes).
    pub engine_downtime_secs: f64,
}

/// What the load- and locality-aware placement layer did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementReport {
    /// Partitions that ran against live residual capacities (includes
    /// rebalances; 0 in legacy mode, where bin-packing always sees fresh
    /// nominal capacity).
    pub load_aware_partitions: u64,
    /// Partitions that did not fit under residual capacity and fell back
    /// to nominal capacity (heavily loaded cluster).
    pub capacity_fallbacks: u64,
    /// Incremental rebalance sweeps triggered by placed-group skew.
    pub skew_rebalances: u64,
    /// Incremental rebalance sweeps triggered by a recovery signal (worker
    /// crash or restart) instead of a full re-partition of every workflow.
    pub recovery_rebalances: u64,
    /// Workflows re-placed by incremental rebalance sweeps (both kinds).
    pub rebalanced_workflows: u64,
}

impl PlacementReport {
    /// True when the placement layer never acted (legacy mode, or an
    /// enabled run that registered no workflow).
    pub fn is_zero(&self) -> bool {
        *self == PlacementReport::default()
    }
}

/// What the overload-protection subsystem did during a run. Terminal
/// outcomes obey the conservation invariant
/// `admitted == completed + dead_lettered + shed` once the cluster drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadReport {
    /// Invocations accepted into the system (every arrival; admission
    /// control sheds *after* acceptance, never silently at the door).
    pub admitted: u64,
    /// Invocations shed by admission control (sum of the per-policy
    /// counters below).
    pub shed: u64,
    /// Sheds that dropped the newly arriving instance's invocation.
    pub shed_newest: u64,
    /// Sheds that dropped the longest-queued invocation.
    pub shed_oldest: u64,
    /// Sheds that dropped the invocation with the least deadline slack.
    pub shed_deadline: u64,
    /// Breaker transitions into open.
    pub breaker_opens: u64,
    /// Breaker transitions into half-open.
    pub breaker_half_opens: u64,
    /// Breaker transitions back to closed.
    pub breaker_closes: u64,
    /// Remote-store calls refused while the breaker was open.
    pub breaker_fast_fails: u64,
    /// Open-window reads served from another worker's FaaStore copy
    /// instead of the remote store.
    pub breaker_local_serves: u64,
    /// Hedged executions dispatched.
    pub hedges_launched: u64,
    /// Hedges that finished before the primary (and took over).
    pub hedge_wins: u64,
    /// Hedges cancelled because the primary finished first (or the hedge
    /// itself failed).
    pub hedge_losses: u64,
    /// Dispatches deferred by pool backpressure (WorkerSP local defers).
    pub backpressure_deferrals: u64,
    /// Dispatches bounced back through the master engine by backpressure
    /// (MasterSP central re-queues).
    pub master_requeues: u64,
}

impl RunReport {
    /// The report of one workflow.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn workflow(&self, name: &str) -> &WorkflowReport {
        self.workflows
            .get(name)
            .unwrap_or_else(|| panic!("no workflow named `{name}` in this report"))
    }

    /// Effective storage-NIC utilisation in bytes/s over the run.
    pub fn storage_bandwidth_used(&self) -> f64 {
        if self.sim_time_secs > 0.0 {
            self.storage_node_bytes as f64 / self.sim_time_secs
        } else {
            0.0
        }
    }
}

/// Per-instance transfer bookkeeping passed to metrics on completion.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TransferLedger {
    /// Total transfer latency accumulated (all reads and writes).
    pub total_latency: SimDuration,
    /// Bytes moved via the remote store.
    pub remote_bytes: u64,
    /// Bytes moved via local memory.
    pub local_bytes: u64,
}

/// Time-averaged resource usage of one worker (§5.6–5.7's CPU/memory
/// series).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerUtilization {
    /// The worker node.
    pub worker: NodeId,
    /// Time-averaged busy cores.
    pub cpu_mean_cores: f64,
    /// Peak busy cores.
    pub cpu_peak_cores: f64,
    /// Time-averaged resident container memory, bytes.
    pub mem_mean_bytes: f64,
    /// Peak resident container memory, bytes.
    pub mem_peak_bytes: f64,
}

/// Wall-clock self-profile of the simulator event loop. Deliberately kept
/// *out* of [`RunReport`]: wall-clock timings vary run to run, and the
/// report must stay bit-identical for a given seed. Retrieved separately
/// via `Cluster::loop_profile`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoopProfile {
    /// Events dispatched by the loop since construction/reset.
    pub events_processed: u64,
    /// Wall-clock seconds spent inside `run_until`/`run_until_idle`.
    pub wall_secs: f64,
    /// Per-event-type handler timing. Empty unless the `loop-profile`
    /// cargo feature is enabled (the per-event clock reads are too
    /// expensive to leave on in benchmarks).
    pub per_event: Vec<EventTypeProfile>,
}

impl LoopProfile {
    /// Events dispatched per wall-clock second (0 when no time elapsed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events_processed as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Handler timing of one event type (`loop-profile` feature only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventTypeProfile {
    /// Event variant name.
    pub name: String,
    /// Times dispatched.
    pub count: u64,
    /// Total wall-clock seconds in the handler.
    pub total_secs: f64,
}

/// Scheduler-distribution entry for Figure 15-style reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributionRow {
    /// Worker node.
    pub worker: NodeId,
    /// Groups placed there.
    pub groups: usize,
    /// Function nodes placed there.
    pub functions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An all-zero placement block must not appear in serialized reports
    /// (legacy goldens predate the field); a nonzero one must.
    #[test]
    fn zero_placement_report_is_not_serialized() {
        let report = RunReport {
            workflows: BTreeMap::new(),
            sim_time_secs: 1.0,
            master_busy_fraction: 0.0,
            master_tasks_assigned: 0,
            master_state_returns: 0,
            worker_syncs: 0,
            worker_local_updates: 0,
            cold_starts: 0,
            warm_starts: 0,
            storage_node_bytes: 0,
            faastore_local_bytes: 0,
            live_invocation_states: 0,
            exec_retries: 0,
            repartition_failures: 0,
            faults: FaultReport::default(),
            overload: OverloadReport::default(),
            recovery: RecoveryReport::default(),
            placement: PlacementReport::default(),
            slo: SloReport::default(),
            degrade: DegradeReport::default(),
            health: HealthReport::default(),
            trace_dropped: 0,
            resources: None,
        };
        let legacy = serde_json::to_string(&report).unwrap();
        assert!(!legacy.contains("placement"), "{legacy}");
        assert!(!legacy.contains("degrade"), "{legacy}");

        let mut enabled = report.clone();
        enabled.placement.load_aware_partitions = 3;
        enabled.degrade.workflows_tracked = 1;
        let rendered = serde_json::to_string(&enabled).unwrap();
        assert!(rendered.contains("placement"), "{rendered}");
        assert!(rendered.contains("degrade"), "{rendered}");
    }

    #[test]
    fn throughput_uses_completion_window() {
        let mut m = WorkflowMetrics {
            completed: 3,
            first_completion: Some(SimTime::from_secs_f64(0.0)),
            last_completion: Some(SimTime::from_secs_f64(60.0)),
            ..WorkflowMetrics::default()
        };
        // 2 completions over 60s -> 2/min.
        let r = m.snapshot("x");
        assert!((r.throughput_per_min - 2.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_degenerate_cases_are_zero() {
        let mut m = WorkflowMetrics::default();
        assert_eq!(m.snapshot("x").throughput_per_min, 0.0);
        m.completed = 1;
        m.first_completion = Some(SimTime::from_secs_f64(1.0));
        m.last_completion = Some(SimTime::from_secs_f64(1.0));
        assert_eq!(m.snapshot("x").throughput_per_min, 0.0);
    }

    #[test]
    fn report_lookup_by_name() {
        let mut m = WorkflowMetrics::default();
        m.e2e.record(5.0);
        let snap = m.snapshot("wf");
        let mut workflows = BTreeMap::new();
        workflows.insert("wf".to_string(), snap);
        let report = RunReport {
            workflows,
            sim_time_secs: 10.0,
            master_busy_fraction: 0.0,
            master_tasks_assigned: 0,
            master_state_returns: 0,
            worker_syncs: 0,
            worker_local_updates: 0,
            cold_starts: 0,
            warm_starts: 0,
            storage_node_bytes: 500,
            faastore_local_bytes: 0,
            live_invocation_states: 0,
            exec_retries: 0,
            repartition_failures: 0,
            faults: FaultReport::default(),
            overload: OverloadReport::default(),
            recovery: RecoveryReport::default(),
            placement: PlacementReport::default(),
            slo: SloReport::default(),
            degrade: DegradeReport::default(),
            health: HealthReport::default(),
            trace_dropped: 0,
            resources: None,
        };
        assert_eq!(report.workflow("wf").e2e.count, 1);
        assert_eq!(report.storage_bandwidth_used(), 50.0);
    }

    #[test]
    #[should_panic(expected = "no workflow named")]
    fn unknown_workflow_panics() {
        let report = RunReport {
            workflows: BTreeMap::new(),
            sim_time_secs: 0.0,
            master_busy_fraction: 0.0,
            master_tasks_assigned: 0,
            master_state_returns: 0,
            worker_syncs: 0,
            worker_local_updates: 0,
            cold_starts: 0,
            warm_starts: 0,
            storage_node_bytes: 0,
            faastore_local_bytes: 0,
            live_invocation_states: 0,
            exec_retries: 0,
            repartition_failures: 0,
            faults: FaultReport::default(),
            overload: OverloadReport::default(),
            recovery: RecoveryReport::default(),
            placement: PlacementReport::default(),
            slo: SloReport::default(),
            degrade: DegradeReport::default(),
            health: HealthReport::default(),
            trace_dropped: 0,
            resources: None,
        };
        report.workflow("ghost");
    }
}
