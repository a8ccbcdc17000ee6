//! # faasflow-store
//!
//! Storage substrates of the FaaSFlow reproduction, plus **FaaStore**, the
//! paper's adaptive hybrid storage library (§3.2, §4.3).
//!
//! * [`RemoteStore`] — the CouchDB stand-in on the storage node: a
//!   size-tracking object catalog with per-operation overheads. Actual
//!   byte movement is a network flow created by the cluster simulation.
//! * [`MemStore`] — the Redis stand-in on each worker: byte-budgeted,
//!   per-workflow quotas (FaaStore never takes memory beyond what it
//!   reclaimed from containers, §4.3.1).
//! * [`FaaStore`] — the placement policy: keep an output in local memory
//!   when its consumers are co-located, the partitioner marked the edge
//!   `MEM`, and the quota admits it; fall back to the remote store
//!   otherwise.
//! * [`quota`] — Equations (1) and (2): the adaptive in-memory storage
//!   quota reclaimed from over-provisioned containers.
//!
//! ```
//! use faasflow_store::quota::workflow_quota;
//! use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};
//!
//! let wf = Workflow::steps(
//!     "q",
//!     Step::task("a", FunctionProfile::with_millis(5, 0).peak_mem(64 << 20)),
//! );
//! let dag = DagParser::default().parse(&wf)?;
//! // O(a) = 256MB - 64MB - 32MB slack = 160MB, Map(a) = 1.
//! assert_eq!(workflow_quota(&dag, 32 << 20), 160 << 20);
//! # Ok::<(), faasflow_wdl::WdlError>(())
//! ```

pub mod breaker;
pub mod faastore;
pub mod keys;
pub mod memstore;
pub mod quota;
pub mod remote;

pub use breaker::{
    BreakerConfig, BreakerDecision, BreakerState, BreakerTransition, BreakerTransitions,
    CircuitBreaker,
};
pub use faastore::{FaaStore, Placement, StorageType};
pub use keys::DataKey;
pub use memstore::MemStore;
pub use remote::RemoteStore;
