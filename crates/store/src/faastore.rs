//! FaaStore — the adaptive hybrid storage library (§3.2).
//!
//! > Through *FaaStore*, each worker node can independently localize and
//! > manage the workflow data movement [...] *FaaStore* will inspect
//! > whether successors of this function locate on the same node, and
//! > accordingly select the appropriate data storage.
//!
//! One [`FaaStore`] instance runs on each worker. When a function's output
//! is ready the engine asks for a placement decision; the answer is local
//! memory exactly when
//!
//! 1. FaaStore is enabled (the FaaSFlow-FaaStore configurations of §5),
//! 2. the partitioner marked the producer `StorageType::Mem` (Algorithm 1
//!    lines 13–17),
//! 3. every consumer is co-located with the producer, and
//! 4. the workflow's reclaimed-memory quota admits the object.
//!
//! Everything else falls back to the remote store, matching the paper's
//! default path.

use faasflow_sim::{InvocationId, NodeId, WorkflowId};
use serde::{Deserialize, Serialize};

use crate::keys::DataKey;
use crate::memstore::MemStore;

/// The per-function storage class chosen by the partitioner — Algorithm 1's
/// `f.StorageType`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StorageType {
    /// Output goes to the remote database (the initial state, line 2).
    #[default]
    Db,
    /// Output may reside in local memory (set when the edge was localised
    /// within the quota, line 17).
    Mem,
}

/// Where an output object was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Cached in this worker's memory; consumers read at memory speed.
    LocalMem,
    /// Shipped to the remote store over the network.
    Remote,
}

/// The adaptive storage library instance of one worker node.
///
/// ```
/// use faasflow_store::{FaaStore, StorageType, Placement, DataKey};
/// use faasflow_sim::{NodeId, WorkflowId, InvocationId, FunctionId};
///
/// let mut fs = FaaStore::new(true);
/// let wf = WorkflowId::new(0);
/// fs.memstore_mut().set_budget(wf, 1 << 20);
/// let key = DataKey::new(wf, InvocationId::new(0), FunctionId::new(0));
/// let here = NodeId::new(1);
/// let p = fs.decide_put(key, 1000, StorageType::Mem, here, &[here, here]);
/// assert_eq!(p, Placement::LocalMem);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaaStore {
    enabled: bool,
    memstore: MemStore,
}

impl FaaStore {
    /// Creates the library; `enabled == false` reproduces plain FaaSFlow
    /// (every transfer through the remote store).
    pub fn new(enabled: bool) -> Self {
        FaaStore {
            enabled,
            ..FaaStore::default()
        }
    }

    /// The underlying budgeted store.
    pub fn memstore(&self) -> &MemStore {
        &self.memstore
    }

    /// Mutable access to the underlying store (budget management).
    pub fn memstore_mut(&mut self) -> &mut MemStore {
        &mut self.memstore
    }

    /// Chooses and performs the placement of a produced object.
    ///
    /// `consumer_nodes` are the scheduled locations of every consumer of
    /// this output; an empty slice means the output is the workflow result
    /// and must reach the remote store regardless.
    pub fn decide_put(
        &mut self,
        key: DataKey,
        bytes: u64,
        storage_type: StorageType,
        producer_node: NodeId,
        consumer_nodes: &[NodeId],
    ) -> Placement {
        let co_located =
            !consumer_nodes.is_empty() && consumer_nodes.iter().all(|&n| n == producer_node);
        if self.enabled
            && storage_type == StorageType::Mem
            && co_located
            && self.memstore.try_put(key, bytes)
        {
            Placement::LocalMem
        } else {
            Placement::Remote
        }
    }

    /// Attempts a local read; `Some(bytes)` is a quota-memory hit.
    pub fn read_local(&self, key: DataKey) -> Option<u64> {
        self.memstore.get(key)
    }

    /// Releases everything an invocation cached (end-of-invocation state
    /// recycling, §4.2.1). Returns bytes released.
    pub fn release_invocation(&mut self, wf: WorkflowId, invocation: InvocationId) -> u64 {
        self.memstore.release_invocation(wf, invocation)
    }

    /// Simulates the worker crashing: all locally cached objects are lost
    /// (budgets and history survive). Returns bytes lost.
    pub fn crash(&mut self) -> u64 {
        self.memstore.wipe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_sim::FunctionId;

    fn key(f: u32) -> DataKey {
        DataKey::new(WorkflowId::new(0), InvocationId::new(0), FunctionId::new(f))
    }

    fn budgeted(enabled: bool) -> FaaStore {
        let mut fs = FaaStore::new(enabled);
        fs.memstore_mut().set_budget(WorkflowId::new(0), 1 << 20);
        fs
    }

    const HERE: NodeId = NodeId::new(3);
    const THERE: NodeId = NodeId::new(4);

    #[test]
    fn colocated_mem_edge_goes_local() {
        let mut fs = budgeted(true);
        let p = fs.decide_put(key(0), 100, StorageType::Mem, HERE, &[HERE]);
        assert_eq!(p, Placement::LocalMem);
        assert_eq!(fs.read_local(key(0)), Some(100));
    }

    #[test]
    fn remote_consumer_forces_db() {
        let mut fs = budgeted(true);
        let p = fs.decide_put(key(0), 100, StorageType::Mem, HERE, &[HERE, THERE]);
        assert_eq!(p, Placement::Remote);
    }

    #[test]
    fn db_storage_type_forces_db_even_when_colocated() {
        let mut fs = budgeted(true);
        let p = fs.decide_put(key(0), 100, StorageType::Db, HERE, &[HERE]);
        assert_eq!(p, Placement::Remote);
    }

    #[test]
    fn workflow_result_goes_remote() {
        let mut fs = budgeted(true);
        let p = fs.decide_put(key(0), 100, StorageType::Mem, HERE, &[]);
        assert_eq!(p, Placement::Remote);
    }

    #[test]
    fn disabled_library_is_pure_remote() {
        let mut fs = budgeted(false);
        let p = fs.decide_put(key(0), 100, StorageType::Mem, HERE, &[HERE]);
        assert_eq!(p, Placement::Remote);
    }

    #[test]
    fn quota_exhaustion_falls_back_to_remote() {
        let mut fs = FaaStore::new(true);
        fs.memstore_mut().set_budget(WorkflowId::new(0), 150);
        assert_eq!(
            fs.decide_put(key(0), 100, StorageType::Mem, HERE, &[HERE]),
            Placement::LocalMem
        );
        assert_eq!(
            fs.decide_put(key(1), 100, StorageType::Mem, HERE, &[HERE]),
            Placement::Remote,
            "second object exceeds the reclaimed quota"
        );
    }

    #[test]
    fn release_invocation_frees_quota() {
        let mut fs = FaaStore::new(true);
        fs.memstore_mut().set_budget(WorkflowId::new(0), 100);
        fs.decide_put(key(0), 100, StorageType::Mem, HERE, &[HERE]);
        assert_eq!(
            fs.release_invocation(WorkflowId::new(0), InvocationId::new(0)),
            100
        );
        assert_eq!(
            fs.decide_put(key(1), 100, StorageType::Mem, HERE, &[HERE]),
            Placement::LocalMem
        );
    }

    #[test]
    fn miss_reads_nothing_locally() {
        let fs = budgeted(true);
        assert_eq!(fs.read_local(key(9)), None);
    }
}
