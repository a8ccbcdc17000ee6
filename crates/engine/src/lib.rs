//! # faasflow-engine
//!
//! The two workflow schedule patterns of the paper, as sans-IO state
//! machines:
//!
//! * [`WorkerEngine`] — the **worker-side schedule pattern (WorkerSP)**,
//!   FaaSFlow's contribution (§3.1, §4.2). One engine runs on every worker
//!   node, holds the `Workflow{State, FunctionInfo}` structures for its
//!   sub-graph, triggers local functions when
//!   `PredecessorsDone == PredecessorsCount`, and exchanges *only
//!   execution states* with other workers (TCP cross-node, in-process RPC
//!   locally). No task assignment ever crosses the network.
//!
//! * [`MasterEngine`] — the **master-side schedule pattern (MasterSP)**,
//!   the HyperFlow-serverless baseline (§2.2–2.3). A central engine keeps
//!   all state, assigns every triggered task to a worker, and receives
//!   every execution state back. Each function invocation therefore pays
//!   stages 1 and 3 of §2.3 on the network and queues on the master's CPU.
//!
//! Both engines emit [`worker::WorkerAction`]s / [`master::MasterAction`]s
//! instead of doing IO; the cluster simulation in `faasflow-core` turns
//! actions into timed events. This keeps the protocol logic synchronous,
//! deterministic, and unit-testable without a simulator.

pub mod master;
pub mod trigger;
pub mod worker;

pub use master::{MasterAction, MasterEngine};
pub use trigger::{TriggerTracker, WorkflowCtx};
pub use worker::{EngineLoad, WorkerAction, WorkerEngine};
