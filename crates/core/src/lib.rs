//! # faasflow-core
//!
//! The FaaSFlow cluster simulation: the public entry point of the
//! reproduction. It wires the substrates — DES kernel, max-min fair
//! network, container runtime, remote store, FaaStore — to the two
//! workflow engines and exposes the measurement interface the paper's
//! evaluation needs.
//!
//! Quick tour:
//!
//! * [`ClusterConfig`] — cluster topology and knobs (schedule mode,
//!   FaaStore on/off, storage-node bandwidth, container limits…).
//! * [`Cluster`] — build, [`Cluster::register`] workflows with a
//!   [`ClientConfig`] (closed- or open-loop), run, and collect a
//!   [`RunReport`].
//!
//! ```
//! use faasflow_core::{Cluster, ClusterConfig, ClientConfig, ScheduleMode};
//! use faasflow_wdl::{Workflow, Step, FunctionProfile};
//!
//! let config = ClusterConfig {
//!     mode: ScheduleMode::WorkerSp,
//!     faastore: true,
//!     ..ClusterConfig::default()
//! };
//! let mut cluster = Cluster::new(config)?;
//! let wf = Workflow::steps(
//!     "pipeline",
//!     Step::sequence(vec![
//!         Step::task("extract", FunctionProfile::with_millis(40, 4 << 20)),
//!         Step::task("load", FunctionProfile::with_millis(25, 0)),
//!     ]),
//! );
//! cluster.register(&wf, ClientConfig::ClosedLoop { invocations: 10 })?;
//! cluster.run_until_idle();
//! let report = cluster.report();
//! assert_eq!(report.workflow("pipeline").completed, 10);
//! # Ok::<(), faasflow_core::ClusterError>(())
//! ```

pub mod cluster;
pub mod config;
pub mod degrade;
mod engines;
pub mod error;
pub mod fault;
pub mod health;
mod hedge;
pub mod invocation;
pub mod journal;
pub mod metrics;
pub mod overload;
mod rebalance;
pub mod sample;
pub mod slo;
pub mod trace;
mod worker;

pub use cluster::Cluster;
pub use config::{ClientConfig, ClusterConfig, ReclamationMode, ScheduleMode};
pub use degrade::{DegradeConfig, DegradeLevel, DegradeReport, WorkflowDegradeSnapshot};
pub use error::ClusterError;
pub use fault::{
    BackoffPolicy, DeadLetterReason, EngineCrash, EngineTarget, FaultPlan, GrayFault,
    GrayFaultKind, NetFault, NodeCrash, StorageFault, StorageFaultKind,
};
pub use health::{HealthConfig, HealthLevel, HealthReport, WorkerHealthSnapshot};
pub use invocation::InstanceToken;
pub use journal::{Journal, JournalConfig, JournalEvent, JournalRecord, TerminalOutcome};
pub use metrics::{
    DistributionRow, EventTypeProfile, FaultReport, LoopProfile, OverloadReport, PlacementReport,
    RecoveryReport, RunReport, WorkerUtilization, WorkflowReport,
};
pub use overload::{
    AdaptiveHedge, AdmissionConfig, BackpressureConfig, BreakerConfig, BreakerState, HedgeConfig,
    OverloadConfig, P2Quantile, ShedPolicy,
};
pub use sample::{ClusterSample, NodeSample, NodeSeries, ResourceSeriesReport};
pub use slo::{SloConfig, SloObjective, SloObjectiveSnapshot, SloReport, WindowMode};
pub use trace::TraceEvent;
// Placement-layer types threaded through the cluster's public surface.
pub use faasflow_engine::EngineLoad;
pub use faasflow_scheduler::{PlacementConfig, WorkerLoad};
