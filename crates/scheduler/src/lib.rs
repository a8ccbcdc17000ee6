//! # faasflow-scheduler
//!
//! The Graph Scheduler of FaaSFlow (§4.1): workflow graph partitioning by
//! function grouping (Algorithm 1), bin-packed group placement, runtime
//! feedback metrics (`Scale(v)`, `Map(v)`, observed edge latencies). Each
//! partition is an [`Assignment`]; the cluster deploys it behind an `Arc`
//! (red-black deployment, §4.2.2).
//!
//! The partitioner is deliberately a faithful transcription of the paper's
//! Algorithm 1: greedy merging along the heaviest edges of the (re-computed)
//! critical path, subject to worker-capacity, in-memory-quota, and
//! contention constraints, with bin-packing for merged-group placement.
//!
//! ```
//! use faasflow_scheduler::{GraphScheduler, RuntimeMetrics, WorkerInfo, ContentionSet};
//! use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};
//! use faasflow_sim::{NodeId, SimRng};
//!
//! let wf = Workflow::steps(
//!     "pair",
//!     Step::sequence(vec![
//!         Step::task("a", FunctionProfile::with_millis(10, 8 << 20)),
//!         Step::task("b", FunctionProfile::with_millis(10, 0)),
//!     ]),
//! );
//! let dag = DagParser::default().parse(&wf).unwrap();
//! let workers = vec![WorkerInfo::new(NodeId::new(1), 128), WorkerInfo::new(NodeId::new(2), 128)];
//! let metrics = RuntimeMetrics::initial(&dag);
//! let mut rng = SimRng::seed_from(7);
//! let assignment = GraphScheduler::default()
//!     .partition(&dag, &workers, &metrics, &ContentionSet::default(), u64::MAX, &mut rng)
//!     .unwrap();
//! // The heavy a->b edge gets localized into one group on one worker.
//! assert_eq!(assignment.node_of[0], assignment.node_of[1]);
//! ```

pub mod error;
pub mod feedback;
pub mod partition;

pub use error::ScheduleError;
pub use feedback::{FeedbackCollector, RuntimeMetrics, WorkerLoad};
pub use partition::{
    Assignment, ContentionSet, GraphScheduler, Group, PartitionConfig, PlacementConfig,
    PlacementStrategy, WorkerInfo,
};
