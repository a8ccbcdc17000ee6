//! # faasflow-container
//!
//! The container runtime substrate of the FaaSFlow reproduction.
//!
//! The paper's testbed runs functions in Docker containers with the limits
//! of Table 3: 1 core / 256 MB per container, a 600 s keep-alive lifetime,
//! and at most 10 containers per function per node, on 8-core / 32 GB
//! workers. Those knobs drive several headline effects — warm reuse versus
//! cold start (§2.3's measurement methodology), auto-scaling
//! (`Scale(v)`, §4.1.2), and the memory over-provisioning FaaStore
//! reclaims (§4.3).
//!
//! [`ContainerManager`] models one worker node's runtime as a sans-IO state
//! machine: callers pass the current [`faasflow_sim::SimTime`] in and get admission
//! decisions out; no clocks or threads inside. Requests that cannot run
//! immediately are queued exactly like the paper's "worker engine pushes
//! the task to a queue for containers to capture" (§4.2.2).
//!
//! ```
//! use faasflow_container::{ContainerConfig, ContainerManager, NodeCaps, StartKind};
//! use faasflow_sim::{SimRng, SimTime, WorkflowId, FunctionId};
//!
//! let mut mgr: ContainerManager<u32> = ContainerManager::new(
//!     NodeCaps::default(),
//!     ContainerConfig::default(),
//! );
//! let mut rng = SimRng::seed_from(1);
//! let key = (WorkflowId::new(0), FunctionId::new(0));
//! let adm = mgr
//!     .request(key, 1, SimTime::ZERO, &mut rng)
//!     .expect("an empty node admits immediately");
//! assert_eq!(adm.start, StartKind::Cold); // first ever invocation
//! ```

pub mod config;
pub mod manager;

pub use config::{ContainerConfig, NodeCaps};
pub use manager::{Admission, ContainerManager, ContainerStats, PoolKey, StartKind, CONTAINER_MEM};
