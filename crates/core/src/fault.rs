//! Fault-domain injection plan.
//!
//! FaaSFlow's availability argument (§6 of the paper) is that worker-side
//! scheduling confines the blast radius of a failure to the partition that
//! experienced it, while a master-side engine turns every fault into a
//! central-plane event. This module gives the simulation a declarative,
//! fully deterministic way to exercise that argument: a [`FaultPlan`] is
//! pure configuration — every fault fires at a pre-declared simulated
//! instant and all recovery jitter comes from the cluster's seeded RNG — so
//! the same seed and plan always reproduce the same run, byte for byte.
//! The cluster-wide run-time fault state lives here too (`FaultWindows`);
//! each worker's own fault state is in its `Worker` record.
//!
//! Three fault classes are modelled:
//!
//! * [`NodeCrash`] — a worker node dies: its warm container pool, its
//!   engine state (WorkerSP) and its MemStore contents are lost; it may
//!   restart after a configurable delay. In-flight invocations are detected
//!   through a heartbeat/lease model and re-dispatched.
//! * [`StorageFault`] — the remote (couch-like) store suffers a blackout
//!   (requests fail and are retried with exponential backoff) or a brownout
//!   (request overheads are multiplied by a slowdown factor).
//! * [`NetFault`] — a worker's link degrades for a window: engine messages
//!   to/from it are lost with some probability (and retransmitted with
//!   backoff), latencies stretch, and bulk-transfer bandwidth shrinks.
//! * [`EngineCrash`] — a *scheduling engine* (the MasterSP central engine
//!   or one WorkerSP per-worker engine) dies and restarts after a delay.
//!   The node underneath keeps running — containers finish their work —
//!   but the engine's volatile trigger state and message queue are lost
//!   and must be rebuilt from its journal plus worker-reported progress.
//! * [`GrayFault`] — a worker degrades *without* dying: it heartbeats on
//!   time while executing slower, hanging mid-exec, failing more often,
//!   or sitting behind an asymmetric partition where control traffic
//!   passes but data-plane flows stall. The lease detector is
//!   structurally blind to this class; the online health detector
//!   ([`crate::HealthConfig`]) exists to catch it.

use faasflow_net::LinkFaultTable;
use faasflow_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

use crate::health::{HealthDetector, HealthReport};

/// One worker-node crash (and optional restart).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeCrash {
    /// Worker index (0-based; node `worker + 1` in cluster numbering).
    pub worker: u32,
    /// Simulated instant the node dies.
    pub at: SimDuration,
    /// Delay until the node comes back empty (cold pools, blank engine,
    /// empty MemStore). `None` means the node stays down forever.
    pub restart_after: Option<SimDuration>,
}

/// How a remote-storage window misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StorageFaultKind {
    /// Requests fail outright; clients back off and retry.
    Blackout,
    /// Requests succeed but request overheads are multiplied by `slowdown`.
    Brownout {
        /// Multiplier (> 1.0) applied to put/get overheads.
        slowdown: f64,
    },
}

/// One remote-storage outage or brownout window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageFault {
    /// Window start.
    pub at: SimDuration,
    /// Window length.
    pub duration: SimDuration,
    /// Blackout or brownout.
    pub kind: StorageFaultKind,
}

/// One per-worker network degradation window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetFault {
    /// Worker index whose link degrades.
    pub worker: u32,
    /// Window start.
    pub at: SimDuration,
    /// Window length.
    pub duration: SimDuration,
    /// Probability in `[0, 1)` that an engine message crossing this link is
    /// lost and must be retransmitted.
    pub loss: f64,
    /// Multiplier (>= 1.0) on message latency across this link.
    pub latency_factor: f64,
    /// Multiplier in `(0, 1]` on the worker's NIC bandwidth for the window.
    pub bandwidth_factor: f64,
}

/// Which scheduling engine an [`EngineCrash`] kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineTarget {
    /// The central engine on the storage/master node (MasterSP mode only).
    Master,
    /// The per-worker engine on worker index `0..workers` (WorkerSP only).
    Worker(u32),
}

/// One scheduling-engine crash (and restart).
///
/// Unlike [`NodeCrash`], the host node survives: running containers keep
/// executing and report completions that the dead engine can no longer
/// hear. On restart the engine replays its journal (if enabled), reconciles
/// with cluster-visible progress, and re-dispatches only work that never
/// durably completed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineCrash {
    /// Which engine dies.
    pub target: EngineTarget,
    /// Simulated instant the engine process dies.
    pub at: SimDuration,
    /// Delay until the supervisor restarts the engine and recovery begins.
    /// Zero means an immediate restart (state is still lost).
    pub restart_after: SimDuration,
}

/// Why an invocation was dead-lettered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeadLetterReason {
    /// A recovery/retry budget (exec retries, storage retries, crash
    /// recovery attempts) was exhausted.
    RetriesExhausted,
    /// An engine crash orphaned the invocation: no journal record survived
    /// and no worker-reported progress existed to rebuild it from.
    CrashOrphan,
    /// The engine's journal could not be read back during recovery (store
    /// blacked out through every replay attempt).
    JournalUnrecoverable,
    /// The invocation was purged while draining a quarantined worker and
    /// its crash-recovery budget was already spent.
    QuarantineOrphan,
}

/// How a [`GrayFault`] window misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GrayFaultKind {
    /// Every execution on the worker takes `factor` times as long. The
    /// worker keeps heartbeating, accepting and completing work — just
    /// slowly.
    ExecSlowdown {
        /// Multiplier (> 1.0) on sampled execution times.
        factor: f64,
    },
    /// The executor accepts instances but completes none of them until the
    /// window ends; completions that would have landed inside the window
    /// are deferred to its closing edge.
    StuckExecutor,
    /// Executions fail at an elevated rate for the window (the worker's
    /// effective failure rate becomes `max(base, failure_rate)`).
    FlakyExec {
        /// Probability in `(0, 1]` that an exec on this worker fails.
        failure_rate: f64,
    },
    /// Control traffic (heartbeats, dispatch, completion reports) passes
    /// but bulk data-plane flows crossing the link in one direction stall
    /// until the window heals — the classic gray partition the lease
    /// detector cannot see.
    AsymmetricPartition {
        /// `true` stalls flows *into* the worker (it cannot fetch inputs);
        /// `false` stalls flows *out of* it (peers cannot fetch its
        /// outputs).
        inbound: bool,
        /// When `true`, the master additionally suspects the worker — its
        /// lease is force-expired one detection delay into the window even
        /// though heartbeats still arrive. Re-dispatch then races the
        /// still-running zombie, whose late completions must be fenced
        /// (`zombie_fenced`).
        expire_lease: bool,
    },
}

/// One gray-failure window on a worker: the node stays "alive" by every
/// fail-stop signal while degrading in a way only differential health
/// statistics can catch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrayFault {
    /// Worker index whose behaviour degrades.
    pub worker: u32,
    /// Window start.
    pub at: SimDuration,
    /// Window length (must be positive).
    pub duration: SimDuration,
    /// What kind of gray failure this is.
    pub kind: GrayFaultKind,
}

/// Exponential backoff with full-range jitter, used for storage retries and
/// message retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: SimDuration,
    /// Ceiling on any single delay.
    pub cap: SimDuration,
    /// Geometric growth factor (>= 1.0).
    pub factor: f64,
    /// Jitter fraction in `[0, 1)`: each delay is scaled by a uniform
    /// factor in `[1 - jitter, 1 + jitter]` drawn from the seeded RNG.
    pub jitter: f64,
    /// Retries before the operation is abandoned.
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: SimDuration::from_millis(100),
            cap: SimDuration::from_secs(10),
            factor: 2.0,
            jitter: 0.1,
            max_attempts: 16,
        }
    }
}

impl BackoffPolicy {
    /// The jittered delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let exp = self.factor.powi(attempt.min(63) as i32);
        let raw = self.base.mul_f64(exp).min(self.cap);
        if self.jitter > 0.0 {
            raw.mul_f64(rng.range_f64(1.0 - self.jitter, 1.0 + self.jitter))
        } else {
            raw
        }
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.factor.is_finite() && self.factor >= 1.0) {
            return Err(format!("backoff factor must be >= 1, got {}", self.factor));
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(format!(
                "backoff jitter must be in [0,1), got {}",
                self.jitter
            ));
        }
        if self.max_attempts == 0 {
            return Err("backoff max_attempts must be at least 1".into());
        }
        if self.base.is_zero() {
            return Err("backoff base delay must be positive".into());
        }
        Ok(())
    }
}

/// Workers heartbeat the failure detector at this interval.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// Missed heartbeats before a worker's lease expires and recovery starts.
/// Detection delay = `HEARTBEAT_INTERVAL * LEASE_MISSES`.
const LEASE_MISSES: u64 = 3;

/// The declarative fault schedule of one cluster run.
///
/// The default plan is empty: no crashes, no outages, no degradation —
/// existing experiments are bit-for-bit unaffected.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Worker-node crashes.
    pub node_crashes: Vec<NodeCrash>,
    /// Remote-storage outage/brownout windows.
    pub storage_faults: Vec<StorageFault>,
    /// Per-worker link degradation windows.
    pub net_faults: Vec<NetFault>,
    /// Scheduling-engine crashes (central or per-worker).
    pub engine_crashes: Vec<EngineCrash>,
    /// Gray-failure windows: the worker stays "alive" while degrading.
    #[serde(default)]
    pub gray_faults: Vec<GrayFault>,
    /// Backoff for storage retries and message retransmissions.
    pub backoff: BackoffPolicy,
    /// When `true`, an instance that exhausts its transient-exec retry
    /// budget dead-letters the whole invocation (with accounting) instead
    /// of completing as if it had succeeded. Defaults to `false`, the
    /// legacy pass-through behaviour.
    pub dead_letter_on_exhaustion: bool,
    /// When `true`, each worker's heartbeat phase is offset by a
    /// deterministic per-worker fraction of the heartbeat interval (derived
    /// from the worker index, not RNG), so simultaneous crashes don't
    /// expire every lease at the same instant and synchronize a recovery
    /// storm. Defaults to `false`: every lease expires exactly
    /// [`FaultPlan::detection_delay`] after the crash, as before.
    #[serde(default)]
    pub stagger_heartbeats: bool,
}

impl FaultPlan {
    /// `true` when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.node_crashes.is_empty()
            && self.storage_faults.is_empty()
            && self.net_faults.is_empty()
            && self.engine_crashes.is_empty()
            && self.gray_faults.is_empty()
    }

    /// Time from a crash to its lease expiring (recovery kicking in).
    pub fn detection_delay(&self) -> SimDuration {
        HEARTBEAT_INTERVAL * LEASE_MISSES
    }

    /// Time from worker `worker`'s crash (or suspicion) to its lease
    /// expiring. Without heartbeat staggering this is exactly
    /// [`FaultPlan::detection_delay`]; with it, each worker adds a
    /// deterministic phase offset of `(worker mod 8) / 8` heartbeat
    /// intervals so simultaneous crashes expire at distinct instants.
    pub fn lease_delay(&self, worker: u32) -> SimDuration {
        let base = self.detection_delay();
        if self.stagger_heartbeats {
            base + HEARTBEAT_INTERVAL.mul_f64(f64::from(worker % 8) / 8.0)
        } else {
            base
        }
    }

    /// Validates the plan against a cluster with `workers` worker nodes.
    pub fn validate(&self, workers: u32) -> Result<(), String> {
        self.backoff.validate()?;
        for c in &self.node_crashes {
            if c.worker >= workers {
                return Err(format!(
                    "node crash targets worker {} but the cluster has {workers}",
                    c.worker
                ));
            }
        }
        // Two crash windows of the same worker must not overlap: a second
        // crash landing while the worker is already down (or exactly at its
        // restart instant) makes recovery order-dependent.
        for w in 0..workers {
            let mut windows: Vec<&NodeCrash> =
                self.node_crashes.iter().filter(|c| c.worker == w).collect();
            windows.sort_by_key(|c| c.at);
            for pair in windows.windows(2) {
                let end = pair[0].restart_after.map(|r| pair[0].at + r);
                let overlaps = match end {
                    // No restart: the worker is down forever, any later
                    // crash of it is unreachable.
                    None => true,
                    Some(end) => pair[1].at <= end,
                };
                if overlaps {
                    return Err(format!(
                        "overlapping crash windows for worker {w}: crash at {:?} \
                         lands before the crash at {:?} has restarted",
                        pair[1].at, pair[0].at
                    ));
                }
            }
        }
        for g in &self.gray_faults {
            if g.worker >= workers {
                return Err(format!(
                    "gray fault targets worker {} but the cluster has {workers}",
                    g.worker
                ));
            }
            if g.duration.is_zero() {
                return Err("gray fault windows must have positive duration".into());
            }
            match g.kind {
                GrayFaultKind::ExecSlowdown { factor } => {
                    if !(factor.is_finite() && factor > 1.0) {
                        return Err(format!(
                            "gray exec slowdown factor must be > 1, got {factor}"
                        ));
                    }
                }
                GrayFaultKind::FlakyExec { failure_rate } => {
                    if !(failure_rate.is_finite() && failure_rate > 0.0 && failure_rate <= 1.0) {
                        return Err(format!(
                            "gray flaky-exec failure_rate must be in (0,1], got {failure_rate}"
                        ));
                    }
                }
                GrayFaultKind::StuckExecutor | GrayFaultKind::AsymmetricPartition { .. } => {}
            }
        }
        // Two gray windows of one kind on one worker must not overlap: they
        // share the worker's effect state, so the first window's end would
        // lift the effect while the second is still open (and a window
        // opening exactly at the other's end is order-dependent).
        for (i, a) in self.gray_faults.iter().enumerate() {
            for b in &self.gray_faults[i + 1..] {
                let same_kind = std::mem::discriminant(&a.kind) == std::mem::discriminant(&b.kind);
                let (first, second) = if a.at <= b.at { (a, b) } else { (b, a) };
                if a.worker == b.worker && same_kind && second.at <= first.at + first.duration {
                    return Err(format!(
                        "overlapping gray windows of one kind for worker {}: the window at \
                         {:?} opens before the one at {:?} has closed",
                        a.worker, second.at, first.at
                    ));
                }
            }
        }
        for s in &self.storage_faults {
            if s.duration.is_zero() {
                return Err("storage fault windows must have positive duration".into());
            }
            if let StorageFaultKind::Brownout { slowdown } = s.kind {
                if !(slowdown.is_finite() && slowdown >= 1.0) {
                    return Err(format!("brownout slowdown must be >= 1, got {slowdown}"));
                }
            }
        }
        for e in &self.engine_crashes {
            if let EngineTarget::Worker(w) = e.target {
                if w >= workers {
                    return Err(format!(
                        "engine crash targets worker {w} but the cluster has {workers}"
                    ));
                }
            }
        }
        for n in &self.net_faults {
            if n.worker >= workers {
                return Err(format!(
                    "net fault targets worker {} but the cluster has {workers}",
                    n.worker
                ));
            }
            if n.duration.is_zero() {
                return Err("net fault windows must have positive duration".into());
            }
            if !(0.0..1.0).contains(&n.loss) {
                return Err(format!("net fault loss must be in [0,1), got {}", n.loss));
            }
            if !(n.latency_factor.is_finite() && n.latency_factor >= 1.0) {
                return Err(format!(
                    "net fault latency_factor must be >= 1, got {}",
                    n.latency_factor
                ));
            }
            if !(n.bandwidth_factor.is_finite()
                && n.bandwidth_factor > 0.0
                && n.bandwidth_factor <= 1.0)
            {
                return Err(format!(
                    "net fault bandwidth_factor must be in (0,1], got {}",
                    n.bandwidth_factor
                ));
            }
        }
        Ok(())
    }
}

/// `d` multiplied by `factor`, untouched at the nominal 1.0.
pub(crate) fn stretched(d: SimDuration, factor: f64) -> SimDuration {
    if factor != 1.0 {
        d.mul_f64(factor)
    } else {
        d
    }
}

/// The cluster-wide state of the open fault windows: the remote store's
/// blackout and brownout, each node's control-link quality, and the
/// data-plane payloads (`T`, a flow tag) stalled behind asymmetric
/// partitions, plus the counts of what gray failures did whether or not a
/// health detector watches. Per-worker gray state is in
/// [`crate::worker::Worker`].
#[derive(Debug)]
pub(crate) struct FaultWindows<T> {
    /// Remote store blackout in progress.
    pub(crate) storage_down: bool,
    /// Remote store overhead multiplier (1.0 nominally).
    pub(crate) storage_slowdown: f64,
    /// Per-node control-link quality.
    pub(crate) links: LinkFaultTable,
    /// Payloads stalled by a partition, with the partitioned worker, in
    /// stall order.
    stalled: Vec<(usize, T)>,
    stalled_flows: u64,
    pub(crate) zombie_fenced: u64,
    pub(crate) stuck_deferrals: u64,
}

impl<T> FaultWindows<T> {
    pub(crate) fn new(nodes: usize) -> Self {
        FaultWindows {
            storage_down: false,
            storage_slowdown: 1.0,
            links: LinkFaultTable::new(nodes),
            stalled: Vec::new(),
            stalled_flows: 0,
            zombie_fenced: 0,
            stuck_deferrals: 0,
        }
    }

    pub(crate) fn on_storage_fault(&mut self, kind: StorageFaultKind, open: bool) {
        match kind {
            StorageFaultKind::Blackout => self.storage_down = open,
            StorageFaultKind::Brownout { slowdown } => {
                self.storage_slowdown = if open { slowdown } else { 1.0 };
            }
        }
    }

    /// A store-side overhead stretched by an open brownout.
    pub(crate) fn storage_overhead(&self, overhead: SimDuration) -> SimDuration {
        stretched(overhead, self.storage_slowdown)
    }

    /// Holds a payload behind `worker`'s open partition until it lifts.
    pub(crate) fn stall(&mut self, worker: usize, tag: T) {
        self.stalled_flows += 1;
        self.stalled.push((worker, tag));
    }

    /// A partition window closes: hands back every stalled payload in
    /// stall order. The caller replays those behind the lifted window and
    /// returns the rest through [`Self::hold`], so a payload stalled again
    /// during the replay keeps its place in the order.
    pub(crate) fn lift_partition(&mut self) -> Vec<(usize, T)> {
        std::mem::take(&mut self.stalled)
    }

    pub(crate) fn hold(&mut self, worker: usize, tag: T) {
        self.stalled.push((worker, tag));
    }

    /// Drops the stalled payloads whose transfer was torn down.
    pub(crate) fn cancel_stalled(&mut self, doomed: impl Fn(&T) -> bool) {
        self.stalled.retain(|(_, tag)| !doomed(tag));
    }

    /// Drops the payloads stalled behind `worker`'s partition: the worker
    /// crashed, and the attempts they belong to died with it.
    pub(crate) fn drop_stalled_on(&mut self, worker: usize) {
        self.stalled.retain(|&(w, _)| w != worker);
    }

    /// The [`crate::RunReport::health`] section: the detector's state
    /// (when one watches) with the gray-failure counts. A quarantine
    /// orphan is a dead letter, counted with the others in `FaultReport`.
    pub(crate) fn health_report(
        &self,
        detector: Option<&HealthDetector>,
        quarantine_orphans: u64,
    ) -> HealthReport {
        HealthReport {
            zombie_fenced: self.zombie_fenced,
            stalled_flows: self.stalled_flows,
            stuck_deferrals: self.stuck_deferrals,
            quarantine_orphans,
            ..detector.map_or_else(HealthReport::default, HealthDetector::snapshot)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifting_a_partition_keeps_the_stall_order_and_counts_once() {
        let mut w: FaultWindows<&str> = FaultWindows::new(3);
        w.stall(1, "a");
        w.stall(2, "b");
        w.stall(1, "c");
        w.cancel_stalled(|t| *t == "c");
        let mut replayed = Vec::new();
        for (sw, tag) in w.lift_partition() {
            if sw == 1 {
                replayed.push(tag);
            } else {
                w.hold(sw, tag);
            }
        }
        assert_eq!(replayed, ["a"]);
        assert_eq!(w.lift_partition(), [(2, "b")]);
        w.zombie_fenced = 4;
        let health = w.health_report(None, 2);
        let counts = (health.stalled_flows, health.zombie_fenced);
        assert_eq!((counts, health.quarantine_orphans), ((3, 4), 2));
        assert!(health.workers.is_empty());
    }

    #[test]
    fn a_crash_drops_only_its_own_stalled_payloads() {
        let mut w: FaultWindows<&str> = FaultWindows::new(3);
        w.stall(1, "a");
        w.stall(2, "b");
        w.stall(1, "c");
        w.drop_stalled_on(1);
        assert_eq!(w.lift_partition(), [(2, "b")]);
        assert_eq!(w.health_report(None, 0).stalled_flows, 3);
    }

    #[test]
    fn storage_windows_stretch_overheads_only_while_open() {
        let mut w: FaultWindows<()> = FaultWindows::new(1);
        let brownout = StorageFaultKind::Brownout { slowdown: 3.0 };
        let overhead = SimDuration::from_millis(10);
        w.on_storage_fault(brownout, true);
        assert_eq!(w.storage_overhead(overhead), SimDuration::from_millis(30));
        w.on_storage_fault(brownout, false);
        assert_eq!(w.storage_overhead(overhead), overhead);
        w.on_storage_fault(StorageFaultKind::Blackout, true);
        assert!(w.storage_down);
    }

    #[test]
    fn default_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        plan.validate(7).expect("default plan valid");
        assert_eq!(plan.detection_delay(), SimDuration::from_millis(1500));
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        let mut plan = FaultPlan::default();
        plan.node_crashes.push(NodeCrash {
            worker: 9,
            at: SimDuration::from_secs(1),
            restart_after: None,
        });
        assert!(plan.validate(4).is_err());

        let mut plan = FaultPlan::default();
        plan.net_faults.push(NetFault {
            worker: 0,
            at: SimDuration::ZERO,
            duration: SimDuration::from_secs(1),
            loss: 1.5,
            latency_factor: 1.0,
            bandwidth_factor: 1.0,
        });
        assert!(plan.validate(4).is_err());

        let mut plan = FaultPlan::default();
        plan.storage_faults.push(StorageFault {
            at: SimDuration::ZERO,
            duration: SimDuration::from_secs(1),
            kind: StorageFaultKind::Brownout { slowdown: 0.5 },
        });
        assert!(plan.validate(4).is_err());

        let mut plan = FaultPlan::default();
        plan.engine_crashes.push(EngineCrash {
            target: EngineTarget::Worker(4),
            at: SimDuration::from_secs(1),
            restart_after: SimDuration::ZERO,
        });
        assert!(plan.validate(4).is_err());
        assert!(!plan.is_empty(), "engine crashes make the plan non-empty");
    }

    #[test]
    fn overlapping_crash_windows_are_rejected() {
        // Second crash lands while the first is still down.
        let mut plan = FaultPlan::default();
        plan.node_crashes.push(NodeCrash {
            worker: 1,
            at: SimDuration::from_secs(1),
            restart_after: Some(SimDuration::from_secs(2)),
        });
        plan.node_crashes.push(NodeCrash {
            worker: 1,
            at: SimDuration::from_secs(2),
            restart_after: None,
        });
        let err = plan.validate(4).unwrap_err();
        assert!(err.contains("overlapping crash windows"), "{err}");

        // A crash exactly at the restart instant is order-dependent too.
        plan.node_crashes[1].at = SimDuration::from_secs(3);
        let err = plan.validate(4).unwrap_err();
        assert!(err.contains("overlapping crash windows"), "{err}");

        // Any crash after a no-restart crash of the same worker overlaps.
        let mut plan = FaultPlan::default();
        plan.node_crashes.push(NodeCrash {
            worker: 0,
            at: SimDuration::from_secs(1),
            restart_after: None,
        });
        plan.node_crashes.push(NodeCrash {
            worker: 0,
            at: SimDuration::from_secs(30),
            restart_after: None,
        });
        assert!(plan.validate(4).is_err());

        // Disjoint windows and different workers are fine.
        let mut plan = FaultPlan::default();
        plan.node_crashes.push(NodeCrash {
            worker: 1,
            at: SimDuration::from_secs(1),
            restart_after: Some(SimDuration::from_secs(1)),
        });
        plan.node_crashes.push(NodeCrash {
            worker: 1,
            at: SimDuration::from_millis(2500),
            restart_after: None,
        });
        plan.node_crashes.push(NodeCrash {
            worker: 2,
            at: SimDuration::from_secs(1),
            restart_after: None,
        });
        plan.validate(4).expect("disjoint windows are valid");
    }

    #[test]
    fn overlapping_gray_windows_of_one_kind_are_rejected() {
        let window = |worker, at_ms, ms, kind| GrayFault {
            worker,
            at: SimDuration::from_millis(at_ms),
            duration: SimDuration::from_millis(ms),
            kind,
        };
        let slow = |factor| GrayFaultKind::ExecSlowdown { factor };
        let partition = |inbound| GrayFaultKind::AsymmetricPartition {
            inbound,
            expire_lease: false,
        };

        // The second slowdown opens while the first is still open, listed
        // in either order.
        let mut plan = FaultPlan {
            gray_faults: vec![
                window(1, 1000, 2000, slow(2.0)),
                window(1, 2000, 2000, slow(4.0)),
            ],
            ..FaultPlan::default()
        };
        let err = plan.validate(4).unwrap_err();
        assert!(err.contains("overlapping gray windows"), "{err}");
        plan.gray_faults.reverse();
        assert!(plan.validate(4).is_err());

        // Opening exactly at the other's end is order-dependent too.
        plan.gray_faults[0].at = SimDuration::from_millis(3000);
        assert!(plan.validate(4).is_err());

        // Both partition directions share one effect slot.
        plan.gray_faults = vec![
            window(0, 1000, 5000, partition(true)),
            window(0, 4000, 1000, partition(false)),
        ];
        assert!(plan.validate(4).is_err());

        // Other kinds, other workers and disjoint windows are fine.
        plan.gray_faults = vec![
            window(1, 1000, 2000, slow(2.0)),
            window(1, 1500, 2000, GrayFaultKind::StuckExecutor),
            window(2, 1500, 2000, slow(2.0)),
            window(1, 3001, 1000, slow(3.0)),
        ];
        plan.validate(4).expect("non-overlapping windows are valid");
    }

    #[test]
    fn gray_fault_windows_are_validated() {
        let gray = |kind| GrayFault {
            worker: 0,
            at: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(2),
            kind,
        };

        // Zero-length windows are rejected for every kind.
        let mut plan = FaultPlan::default();
        plan.gray_faults.push(GrayFault {
            duration: SimDuration::ZERO,
            ..gray(GrayFaultKind::StuckExecutor)
        });
        let err = plan.validate(4).unwrap_err();
        assert!(err.contains("positive duration"), "{err}");

        // Out-of-range target.
        let mut plan = FaultPlan::default();
        plan.gray_faults.push(GrayFault {
            worker: 4,
            ..gray(GrayFaultKind::StuckExecutor)
        });
        assert!(plan.validate(4).is_err());

        // Slowdown must actually slow down.
        let mut plan = FaultPlan::default();
        plan.gray_faults
            .push(gray(GrayFaultKind::ExecSlowdown { factor: 1.0 }));
        assert!(plan.validate(4).is_err());

        // Flaky rate must be a probability above zero.
        let mut plan = FaultPlan::default();
        plan.gray_faults
            .push(gray(GrayFaultKind::FlakyExec { failure_rate: 1.5 }));
        assert!(plan.validate(4).is_err());

        // A well-formed plan of each kind passes and is non-empty.
        let mut plan = FaultPlan::default();
        plan.gray_faults
            .push(gray(GrayFaultKind::ExecSlowdown { factor: 8.0 }));
        plan.gray_faults.push(gray(GrayFaultKind::StuckExecutor));
        plan.gray_faults
            .push(gray(GrayFaultKind::FlakyExec { failure_rate: 0.5 }));
        plan.gray_faults
            .push(gray(GrayFaultKind::AsymmetricPartition {
                inbound: true,
                expire_lease: true,
            }));
        plan.validate(4).expect("well-formed gray faults are valid");
        assert!(!plan.is_empty(), "gray faults make the plan non-empty");
    }

    #[test]
    fn staggered_lease_delay_offsets_by_worker_index() {
        let mut plan = FaultPlan::default();
        assert_eq!(plan.lease_delay(0), plan.detection_delay());
        assert_eq!(plan.lease_delay(5), plan.detection_delay());

        plan.stagger_heartbeats = true;
        assert_eq!(plan.lease_delay(0), plan.detection_delay());
        assert_eq!(
            plan.lease_delay(1),
            plan.detection_delay() + SimDuration::from_micros(62_500)
        );
        assert_ne!(plan.lease_delay(1), plan.lease_delay(2));
        // Offsets wrap every 8 workers but stay below one full interval,
        // so detection_delay semantics (lower bound) are preserved.
        assert_eq!(plan.lease_delay(3), plan.lease_delay(11));
        for w in 0..16 {
            assert!(plan.lease_delay(w) < plan.detection_delay() + HEARTBEAT_INTERVAL);
            assert!(plan.lease_delay(w) >= plan.detection_delay());
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut rng = SimRng::seed_from(7);
        let policy = BackoffPolicy {
            jitter: 0.0,
            ..BackoffPolicy::default()
        };
        assert_eq!(policy.delay(0, &mut rng), SimDuration::from_millis(100));
        assert_eq!(policy.delay(1, &mut rng), SimDuration::from_millis(200));
        assert_eq!(policy.delay(3, &mut rng), SimDuration::from_millis(800));
        assert_eq!(policy.delay(20, &mut rng), SimDuration::from_secs(10));
    }

    #[test]
    fn jittered_backoff_stays_in_band() {
        let mut rng = SimRng::seed_from(11);
        let policy = BackoffPolicy::default();
        for attempt in 0..8 {
            let d = policy.delay(attempt, &mut rng);
            let nominal = policy
                .base
                .mul_f64(policy.factor.powi(attempt as i32))
                .min(policy.cap);
            assert!(d >= nominal.mul_f64(0.89) && d <= nominal.mul_f64(1.11));
        }
    }
}
