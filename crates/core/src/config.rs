//! Cluster configuration.
//!
//! Defaults reproduce the paper's testbed (Table 3 plus §5.1): one
//! master/storage node and 7 workers, Docker-like containers, CouchDB-like
//! remote store, and a 50 MB/s storage-node NIC (the §5.4 default).

use faasflow_container::{ContainerConfig, NodeCaps};
use faasflow_scheduler::{PlacementConfig, PlacementStrategy};
use faasflow_sim::{NodeId, SimDuration};
use serde::{Deserialize, Serialize};

use crate::degrade::DegradeConfig;
use crate::fault::{EngineTarget, FaultPlan};
use crate::health::HealthConfig;
use crate::journal::JournalConfig;
use crate::overload::OverloadConfig;
use crate::slo::SloConfig;

/// How FaaStore takes memory back from containers (§4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReclamationMode {
    /// Docker-style: shrink each fresh container's cgroup memory limit to
    /// `peak-history + μ`, freeing node memory for the quota pool.
    #[default]
    CgroupLimit,
    /// MicroVM sandboxes: "dynamic memory hot-unplugs such as
    /// memory-balloon and virtio-mem are not recommended" — containers keep
    /// their provisioned size and the in-memory store is carved out of the
    /// pre-distributed pool instead. Same quota, higher resident memory.
    MicroVm,
}

/// Which schedule pattern the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleMode {
    /// The paper's contribution: per-worker engines, worker-side triggering.
    WorkerSp,
    /// The HyperFlow-serverless baseline: central engine, master-side
    /// triggering and task assignment.
    MasterSp,
}

/// How a registered workflow is driven.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClientConfig {
    /// One invocation in flight at a time; the next is sent when the
    /// previous completes (§2.3, §5.2–5.3, §5.5).
    ClosedLoop {
        /// Total invocations to send.
        invocations: u32,
    },
    /// Fixed-rate arrivals regardless of completions (§5.4); queueing and
    /// cold-start effects are included.
    OpenLoop {
        /// Invocations per minute.
        per_minute: f64,
        /// Total invocations to send.
        invocations: u32,
    },
    /// No automatic arrivals; drive with `Cluster::invoke_now` (tests).
    Manual,
}

/// Full cluster configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes (the paper uses 7).
    pub workers: u32,
    /// Schedule pattern.
    pub mode: ScheduleMode,
    /// Whether FaaStore local data passing is active (WorkerSP only; the
    /// MasterSP baseline always ships through the remote store).
    pub faastore: bool,
    /// Root seed; every run with the same seed is bit-identical.
    pub seed: u64,
    /// Per-worker hardware.
    pub node_caps: NodeCaps,
    /// Container lifecycle knobs.
    pub container: ContainerConfig,
    /// Storage/master node NIC bandwidth, bytes/s — the wondershaper knob
    /// of §5.4 (25/50/75/100 MB/s).
    pub storage_bandwidth: f64,
    /// Safety reserve μ of Eq. (1).
    pub mu: u64,
    /// Invocation timeout; late invocations are recorded at this latency
    /// (§5.4 marks them as 60 s).
    pub timeout: SimDuration,
    /// Re-run the graph partition after this many completed invocations
    /// per workflow (`None` disables count-based feedback iterations).
    pub repartition_every: Option<u32>,
    /// Re-partition when an invocation's end-to-end latency exceeds this
    /// target — §4.1.2's "partition iteration is activated when the
    /// workflow experiences significant performance degradation or QoS
    /// violation". Rate-limited to once per completed invocation.
    pub qos_target: Option<SimDuration>,
    /// Record a structured [`crate::trace::TraceEvent`] per lifecycle step
    /// (off by default: tracing a 1000-invocation run allocates MBs).
    pub trace: bool,
    /// Sample per-node resource gauges (container pool, memstore bytes,
    /// NIC rates, queue depths) every interval of deterministic sim time.
    /// `None` (the default) disables sampling entirely — runs are then
    /// bit-identical to pre-observability builds.
    pub sample_every: Option<SimDuration>,
    /// Probability that one executor instance's run fails and is retried
    /// (transient function errors — OOM-kills, runtime exceptions). Zero
    /// disables failure injection.
    pub exec_failure_rate: f64,
    /// Retries before a failing instance is allowed through regardless
    /// (at-least-once semantics with bounded retry, like production FaaS
    /// platforms).
    pub max_exec_retries: u32,
    /// How container memory is reclaimed for FaaStore.
    pub reclamation: ReclamationMode,
    /// Group placement policy of the partitioner's bin-packing step
    /// (worst-fit load balancing by default, matching Figure 15).
    pub placement: PlacementStrategy,
    /// Load- and locality-aware placement: live per-worker load feeds the
    /// partitioner (residual capacity, least-loaded/locality tie-breaks)
    /// and the incremental rebalancer re-places affected workflows on skew
    /// or recovery signals. Legacy (disabled) by default — runs are then
    /// bit-identical to pre-placement-layer builds.
    pub placement_config: PlacementConfig,
    /// Algorithm 1's `Cap[node]`: container capacity per worker offered to
    /// the partitioner — the artifact's `scale_limit`. Sized from the
    /// worker's *concurrency* (cores plus head-room), not its memory-max:
    /// packing a group beyond what a node can actually run concurrently
    /// just converts scheduling into queueing.
    pub partition_capacity: u32,
    /// Declarative fault schedule: node crashes, storage outages and link
    /// degradation windows, plus the recovery knobs (backoff,
    /// dead-lettering, heartbeat staggering). Empty by default.
    pub fault: FaultPlan,
    /// Overload protection: admission control, the remote-store circuit
    /// breaker, hedged exec retries and pool backpressure. All off by
    /// default: off, a mechanism draws no RNG and touches no shared state.
    pub overload: OverloadConfig,
    /// Engine write-ahead journaling for crash recovery. Off by default
    /// (runs are then bit-identical to pre-journal builds).
    pub journal: JournalConfig,
    /// Online SLO burn-rate monitoring: per-workflow latency objectives
    /// evaluated deterministically on completions, with multi-window
    /// burn-rate alerting. `None` (the default) evaluates nothing; the
    /// monitor never draws from the RNG.
    pub slo: Option<SloConfig>,
    /// Closed-loop SLO-driven degradation: burn-rate alerts move the
    /// offending workflow through Throttled → Shedding with half-open
    /// probing recovery, steering per-workflow admission, shed priority
    /// and hedging. Requires `slo`. `None` (the default) acts on nothing;
    /// the controller never draws from the RNG.
    pub degrade: Option<DegradeConfig>,
    /// Online gray-failure health detection: per-worker exec latency and
    /// failure statistics scored against the fleet median (MAD outlier
    /// test) drive a Probation → Quarantined → half-open Reinstating
    /// state machine. `None` (the default) watches nothing and draws no
    /// RNG — runs are then bit-identical to pre-detector builds.
    pub health: Option<HealthConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 7,
            mode: ScheduleMode::WorkerSp,
            faastore: true,
            seed: 0xFAA5_F10E,
            node_caps: NodeCaps::default(),
            container: ContainerConfig::default(),
            storage_bandwidth: 50e6, // 50 MB/s (§5.4 default)
            mu: 32 << 20,
            timeout: SimDuration::from_secs(60),
            repartition_every: None,
            qos_target: None,
            trace: false,
            sample_every: None,
            exec_failure_rate: 0.0,
            max_exec_retries: 3,
            reclamation: ReclamationMode::default(),
            placement: PlacementStrategy::WorstFit,
            placement_config: PlacementConfig::legacy(),
            partition_capacity: 12,
            fault: FaultPlan::default(),
            overload: OverloadConfig::default(),
            journal: JournalConfig::default(),
            slo: None,
            degrade: None,
            health: None,
        }
    }
}

impl ClusterConfig {
    /// The master/storage node id (always node 0: the artifact uses "1 node
    /// for remote storage and queries generating").
    pub const MASTER_NODE: NodeId = NodeId::new(0);

    /// Node id of worker `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= workers`.
    pub fn worker_node(&self, i: u32) -> NodeId {
        assert!(i < self.workers, "worker index {i} out of range");
        NodeId::new(i + 1)
    }

    /// Worker index of a node id, or `None` for the master node.
    pub fn worker_index(&self, node: NodeId) -> Option<usize> {
        let idx = node.index();
        (idx >= 1 && idx <= self.workers as usize).then(|| idx - 1)
    }

    /// Total node count (workers + master/storage).
    pub fn node_count(&self) -> usize {
        self.workers as usize + 1
    }

    /// Per-worker container capacity offered to Algorithm 1 (`Cap[node]`).
    pub fn worker_capacity(&self) -> u32 {
        self.partition_capacity
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("at least one worker is required".to_string());
        }
        if !(self.storage_bandwidth.is_finite() && self.storage_bandwidth > 0.0) {
            return Err("storage_bandwidth must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.exec_failure_rate) {
            return Err(format!(
                "exec_failure_rate must be in [0,1], got {}",
                self.exec_failure_rate
            ));
        }
        if self.partition_capacity == 0 {
            return Err("partition_capacity must be positive".to_string());
        }
        if self.placement_config.enabled {
            if self.placement_config.skew_threshold_pct < 100 {
                return Err(format!(
                    "placement skew_threshold_pct must be >= 100, got {}",
                    self.placement_config.skew_threshold_pct
                ));
            }
            if self.placement_config.rebalance_cooldown == 0 {
                return Err(
                    "placement rebalance_cooldown must be positive when enabled".to_string()
                );
            }
        }
        if self
            .sample_every
            .is_some_and(|every| every <= SimDuration::ZERO)
        {
            return Err("sample_every must be positive".to_string());
        }
        self.fault.validate(self.workers)?;
        for e in &self.fault.engine_crashes {
            match (e.target, self.mode) {
                (EngineTarget::Master, ScheduleMode::WorkerSp) => {
                    return Err(
                        "engine crash targets the central engine but WorkerSP has none".to_string(),
                    );
                }
                (EngineTarget::Worker(w), ScheduleMode::MasterSp) => {
                    return Err(format!(
                        "engine crash targets worker engine {w} but MasterSP has no worker engines"
                    ));
                }
                _ => {}
            }
        }
        self.overload.validate(self.timeout, self.qos_target)?;
        if let Some(slo) = &self.slo {
            slo.validate()?;
        }
        if let Some(degrade) = &self.degrade {
            degrade.validate()?;
            if self.slo.is_none() {
                return Err(
                    "degrade requires an SLO config: burn-rate alerts are its only input signal"
                        .to_string(),
                );
            }
        }
        if let Some(health) = &self.health {
            health.validate()?;
        }
        if self.mode == ScheduleMode::MasterSp && self.faastore {
            return Err(
                "FaaStore requires WorkerSP (the baseline always uses the remote store)"
                    .to_string(),
            );
        }
        self.container.validate()
    }
}

impl ClientConfig {
    /// Total invocations this client will send (`u32::MAX` for manual).
    pub fn total_invocations(&self) -> u32 {
        match self {
            ClientConfig::ClosedLoop { invocations } => *invocations,
            ClientConfig::OpenLoop { invocations, .. } => *invocations,
            ClientConfig::Manual => u32::MAX,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is out of range.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ClientConfig::ClosedLoop { invocations } => {
                if *invocations == 0 {
                    return Err("closed-loop client needs at least 1 invocation".into());
                }
            }
            ClientConfig::OpenLoop {
                per_minute,
                invocations,
            } => {
                if !(per_minute.is_finite() && *per_minute > 0.0) {
                    return Err("open-loop rate must be positive".into());
                }
                if *invocations == 0 {
                    return Err("open-loop client needs at least 1 invocation".into());
                }
            }
            ClientConfig::Manual => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_match_the_paper() {
        let c = ClusterConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.workers, 7);
        assert_eq!(c.storage_bandwidth, 50e6);
        assert_eq!(c.node_count(), 8);
        assert_eq!(c.worker_capacity(), 12);
    }

    #[test]
    fn node_id_mapping_round_trips() {
        let c = ClusterConfig::default();
        assert_eq!(c.worker_node(0), NodeId::new(1));
        assert_eq!(c.worker_index(NodeId::new(1)), Some(0));
        assert_eq!(c.worker_index(ClusterConfig::MASTER_NODE), None);
        assert_eq!(c.worker_index(NodeId::new(7)), Some(6));
        assert_eq!(c.worker_index(NodeId::new(8)), None);
    }

    #[test]
    fn inconsistent_slo_config_is_rejected() {
        use crate::slo::SloObjective;
        let mut c = ClusterConfig {
            slo: Some(SloConfig {
                objectives: vec![SloObjective {
                    workflow: "wf".to_string(),
                    ..SloObjective::default()
                }],
            }),
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_ok());
        c.slo = Some(SloConfig { objectives: vec![] });
        assert!(c.validate().is_err());
        c.slo = Some(SloConfig {
            objectives: vec![SloObjective {
                workflow: "wf".to_string(),
                error_budget: 0.0,
                ..SloObjective::default()
            }],
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn degrade_requires_slo_and_valid_knobs() {
        use crate::slo::SloObjective;
        // Degradation without an SLO monitor has no input signal.
        let mut c = ClusterConfig {
            degrade: Some(DegradeConfig::default()),
            ..ClusterConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("requires an SLO"));
        c.slo = Some(SloConfig {
            objectives: vec![SloObjective {
                workflow: "wf".to_string(),
                ..SloObjective::default()
            }],
        });
        assert!(c.validate().is_ok());
        // Out-of-range degradation knobs are rejected through the cluster
        // validator, not just DegradeConfig::validate.
        c.degrade = Some(DegradeConfig {
            tighten: 1.5,
            ..DegradeConfig::default()
        });
        assert!(c.validate().unwrap_err().contains("tighten"));
    }

    #[test]
    fn health_knobs_are_validated_through_the_cluster() {
        let mut c = ClusterConfig {
            health: Some(HealthConfig::default()),
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_ok());
        c.health = Some(HealthConfig {
            mad_threshold: -1.0,
            ..HealthConfig::default()
        });
        assert!(c.validate().unwrap_err().contains("mad_threshold"));
    }

    #[test]
    fn masterp_with_faastore_is_rejected() {
        let c = ClusterConfig {
            mode: ScheduleMode::MasterSp,
            faastore: true,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_admission_queue_capacity_is_rejected() {
        use crate::overload::{AdmissionConfig, OverloadConfig};
        let c = ClusterConfig {
            overload: OverloadConfig {
                admission: Some(AdmissionConfig {
                    queue_capacity: 0,
                    ..AdmissionConfig::default()
                }),
                ..OverloadConfig::default()
            },
            ..ClusterConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("queue_capacity"));
    }

    #[test]
    fn deadline_aware_shedding_needs_a_qos_target() {
        use crate::overload::{AdmissionConfig, OverloadConfig, ShedPolicy};
        let overload = OverloadConfig {
            admission: Some(AdmissionConfig {
                queue_capacity: 4,
                policy: ShedPolicy::DeadlineAware,
            }),
            ..OverloadConfig::default()
        };
        let c = ClusterConfig {
            overload,
            ..ClusterConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("qos_target"));
        let c = ClusterConfig {
            overload,
            qos_target: Some(SimDuration::from_secs(5)),
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn hedge_delay_must_be_below_the_timeout() {
        use crate::overload::{HedgeConfig, OverloadConfig};
        let c = ClusterConfig {
            overload: OverloadConfig {
                hedge: Some(HedgeConfig {
                    delay: SimDuration::from_secs(60),
                    ..HedgeConfig::default()
                }),
                ..OverloadConfig::default()
            },
            ..ClusterConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("timeout"));
        let c = ClusterConfig {
            overload: OverloadConfig {
                hedge: Some(HedgeConfig {
                    delay: SimDuration::ZERO,
                    ..HedgeConfig::default()
                }),
                ..OverloadConfig::default()
            },
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn engine_crash_targets_must_match_the_mode() {
        use crate::fault::{EngineCrash, EngineTarget};
        let mut fault = FaultPlan::default();
        fault.engine_crashes.push(EngineCrash {
            target: EngineTarget::Master,
            at: SimDuration::from_secs(1),
            restart_after: SimDuration::from_secs(1),
        });
        let c = ClusterConfig {
            fault: fault.clone(),
            ..ClusterConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("WorkerSP"));
        let c = ClusterConfig {
            mode: ScheduleMode::MasterSp,
            faastore: false,
            fault,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_ok());

        let mut fault = FaultPlan::default();
        fault.engine_crashes.push(EngineCrash {
            target: EngineTarget::Worker(0),
            at: SimDuration::from_secs(1),
            restart_after: SimDuration::ZERO,
        });
        let c = ClusterConfig {
            mode: ScheduleMode::MasterSp,
            faastore: false,
            fault,
            ..ClusterConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("MasterSP"));
    }

    #[test]
    fn zero_breaker_thresholds_are_rejected() {
        use crate::overload::{BreakerConfig, OverloadConfig};
        for bad in [
            BreakerConfig {
                failure_threshold: 0,
                ..BreakerConfig::default()
            },
            BreakerConfig {
                half_open_probes: 0,
                ..BreakerConfig::default()
            },
            BreakerConfig {
                open_duration: SimDuration::ZERO,
                ..BreakerConfig::default()
            },
            BreakerConfig {
                jitter: 1.5,
                ..BreakerConfig::default()
            },
        ] {
            let c = ClusterConfig {
                overload: OverloadConfig {
                    breaker: Some(bad),
                    ..OverloadConfig::default()
                },
                ..ClusterConfig::default()
            };
            assert!(c.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn zero_backpressure_knobs_are_rejected() {
        use crate::overload::{BackpressureConfig, OverloadConfig};
        for bad in [
            BackpressureConfig {
                queue_threshold: 0,
                ..BackpressureConfig::default()
            },
            BackpressureConfig {
                defer_delay: SimDuration::ZERO,
                ..BackpressureConfig::default()
            },
            BackpressureConfig {
                max_defers: 0,
                ..BackpressureConfig::default()
            },
        ] {
            let c = ClusterConfig {
                overload: OverloadConfig {
                    backpressure: Some(bad),
                    ..OverloadConfig::default()
                },
                ..ClusterConfig::default()
            };
            assert!(c.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn client_validation() {
        assert!(ClientConfig::ClosedLoop { invocations: 0 }
            .validate()
            .is_err());
        assert!(ClientConfig::OpenLoop {
            per_minute: 0.0,
            invocations: 5
        }
        .validate()
        .is_err());
        assert!(ClientConfig::Manual.validate().is_ok());
        assert_eq!(
            ClientConfig::ClosedLoop { invocations: 3 }.total_invocations(),
            3
        );
    }
}
