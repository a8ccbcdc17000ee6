//! The per-worker in-memory store (Redis stand-in) with per-workflow
//! budgets.
//!
//! FaaStore "sets a well-organized quota for data movement by memory
//! reclamation from the containers" (§4.3.1): the memory backing this store
//! is not extra host memory but the over-provisioned slack reclaimed from
//! the workflow's own containers. Consequently every byte cached here is
//! accounted against its workflow's budget, and exceeding the budget is
//! impossible by construction — the condition the paper needs to avoid
//! memory swap and OOM.

use faasflow_sim::stats::{Counter, Gauge};
use faasflow_sim::{FastMap, FunctionId, InvocationId, WorkflowId};

use crate::keys::DataKey;

/// A byte-budgeted in-memory object store for one worker node.
///
/// ```
/// use faasflow_store::{MemStore, DataKey};
/// use faasflow_sim::{WorkflowId, InvocationId, FunctionId};
///
/// let mut store = MemStore::new();
/// let wf = WorkflowId::new(0);
/// store.set_budget(wf, 1000);
/// let key = DataKey::new(wf, InvocationId::new(0), FunctionId::new(1));
/// assert!(store.try_put(key, 800));
/// let too_big = DataKey::new(wf, InvocationId::new(0), FunctionId::new(2));
/// assert!(!store.try_put(too_big, 300), "would exceed the workflow quota");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    budgets: FastMap<WorkflowId, u64>,
    used: FastMap<WorkflowId, Gauge>,
    objects: FastMap<DataKey, u64>,
    /// Producers of each invocation's cached objects, so releasing an
    /// invocation touches only its own keys.
    by_invocation: FastMap<(WorkflowId, InvocationId), Vec<FunctionId>>,
    bytes_stored: Counter,
}

impl MemStore {
    /// Creates an empty store with no budgets.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Sets the workflow's byte budget on this node (the per-node share of
    /// Eq. (2)'s `Quota[G]`, established at each partition iteration).
    ///
    /// Lowering the budget below current usage is allowed: resident objects
    /// stay, but new puts are rejected until usage drains.
    pub fn set_budget(&mut self, wf: WorkflowId, bytes: u64) {
        self.budgets.insert(wf, bytes);
    }

    /// The workflow's budget (zero when unset).
    pub fn budget(&self, wf: WorkflowId) -> u64 {
        self.budgets.get(&wf).copied().unwrap_or(0)
    }

    /// Bytes currently cached for a workflow.
    pub fn used(&self, wf: WorkflowId) -> u64 {
        self.used.get(&wf).map(|g| g.get()).unwrap_or(0)
    }

    /// Bytes currently cached across every workflow.
    pub fn used_total(&self) -> u64 {
        self.used.values().map(|g| g.get()).sum()
    }

    /// Budgets summed across every workflow.
    pub fn budget_total(&self) -> u64 {
        self.budgets.values().sum()
    }

    /// Peak bytes ever cached for a workflow.
    pub fn peak_used(&self, wf: WorkflowId) -> u64 {
        self.used.get(&wf).map(|g| g.peak()).unwrap_or(0)
    }

    /// Tries to cache an object within its workflow's budget. Returns
    /// `false` (and rejects) when the budget would be exceeded or the key
    /// already exists.
    pub fn try_put(&mut self, key: DataKey, bytes: u64) -> bool {
        if self.objects.contains_key(&key) {
            return false;
        }
        let budget = self.budget(key.workflow);
        let used = self.used(key.workflow);
        if used + bytes > budget {
            return false;
        }
        self.objects.insert(key, bytes);
        self.by_invocation
            .entry((key.workflow, key.invocation))
            .or_default()
            .push(key.producer);
        self.used.entry(key.workflow).or_default().add(bytes);
        self.bytes_stored.add(bytes);
        true
    }

    /// Size of a cached object, or `None` on miss.
    pub fn get(&self, key: DataKey) -> Option<u64> {
        self.objects.get(&key).copied()
    }

    /// True when the object is cached.
    pub fn contains(&self, key: DataKey) -> bool {
        self.objects.contains_key(&key)
    }

    /// Removes one object, returning its size.
    pub fn delete(&mut self, key: DataKey) -> Option<u64> {
        let bytes = self.evict(key)?;
        let scope = (key.workflow, key.invocation);
        let producers = self
            .by_invocation
            .get_mut(&scope)
            .expect("stored object is indexed");
        let at = producers
            .iter()
            .position(|&p| p == key.producer)
            .expect("stored object is indexed");
        producers.swap_remove(at);
        if producers.is_empty() {
            self.by_invocation.remove(&scope);
        }
        Some(bytes)
    }

    /// Removes one object and returns its size, crediting the bytes back
    /// to its workflow's usage; leaves the index alone.
    fn evict(&mut self, key: DataKey) -> Option<u64> {
        let bytes = self.objects.remove(&key)?;
        self.used
            .get_mut(&key.workflow)
            .expect("usage tracked for stored object")
            .sub(bytes);
        Some(bytes)
    }

    /// Drops every object of one invocation — "the per-worker engine should
    /// release the *State* object at the end of each invocation" (§4.2.1),
    /// and the cached data goes with it. Returns bytes released.
    pub fn release_invocation(&mut self, wf: WorkflowId, invocation: InvocationId) -> u64 {
        let Some(producers) = self.by_invocation.remove(&(wf, invocation)) else {
            return 0;
        };
        producers
            .into_iter()
            .map(|p| {
                self.evict(DataKey::new(wf, invocation, p))
                    .expect("indexed object is stored")
            })
            .sum()
    }

    /// Drops every cached object (a node crash: in-memory state is gone).
    /// Budgets and cumulative counters survive; the usage gauges drop to
    /// zero. Returns bytes lost.
    pub fn wipe(&mut self) -> u64 {
        let lost: u64 = self.objects.values().sum();
        self.objects.clear();
        self.by_invocation.clear();
        for gauge in self.used.values_mut() {
            gauge.set(0);
        }
        lost
    }

    /// Objects currently cached.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Total bytes ever stored.
    pub fn total_bytes_stored(&self) -> u64 {
        self.bytes_stored.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(wf: u32, inv: u32, f: u32) -> DataKey {
        DataKey::new(
            WorkflowId::new(wf),
            InvocationId::new(inv),
            FunctionId::new(f),
        )
    }

    #[test]
    fn wipe_loses_objects_but_keeps_budgets() {
        let mut s = MemStore::new();
        s.set_budget(WorkflowId::new(0), 100);
        assert!(s.try_put(key(0, 0, 0), 70));
        assert_eq!(s.wipe(), 70);
        assert_eq!(s.object_count(), 0);
        assert_eq!(s.used(WorkflowId::new(0)), 0);
        assert_eq!(s.budget(WorkflowId::new(0)), 100);
        assert!(s.try_put(key(0, 0, 1), 100), "budget fully available again");
    }

    #[test]
    fn budget_enforced_per_workflow() {
        let mut s = MemStore::new();
        s.set_budget(WorkflowId::new(0), 100);
        s.set_budget(WorkflowId::new(1), 50);
        assert!(s.try_put(key(0, 0, 0), 80));
        assert!(!s.try_put(key(0, 0, 1), 30), "wf0 over budget");
        assert!(s.try_put(key(1, 0, 0), 50), "wf1 has its own budget");
        assert_eq!((s.used_total(), s.budget_total()), (130, 150));
    }

    #[test]
    fn unbudgeted_workflow_rejects_everything() {
        let mut s = MemStore::new();
        assert!(!s.try_put(key(9, 0, 0), 1));
    }

    #[test]
    fn delete_returns_budget() {
        let mut s = MemStore::new();
        s.set_budget(WorkflowId::new(0), 100);
        assert!(s.try_put(key(0, 0, 0), 100));
        assert_eq!(s.delete(key(0, 0, 0)), Some(100));
        assert!(s.try_put(key(0, 0, 1), 100), "budget available again");
        assert_eq!(s.peak_used(WorkflowId::new(0)), 100);
    }

    #[test]
    fn duplicate_put_is_rejected_without_double_accounting() {
        let mut s = MemStore::new();
        s.set_budget(WorkflowId::new(0), 100);
        assert!(s.try_put(key(0, 0, 0), 40));
        assert!(!s.try_put(key(0, 0, 0), 40));
        assert_eq!(s.used(WorkflowId::new(0)), 40);
    }

    #[test]
    fn release_invocation_is_scoped() {
        let mut s = MemStore::new();
        s.set_budget(WorkflowId::new(0), 1000);
        s.try_put(key(0, 0, 0), 10);
        s.try_put(key(0, 0, 1), 20);
        s.try_put(key(0, 1, 0), 40);
        assert_eq!(
            s.release_invocation(WorkflowId::new(0), InvocationId::new(0)),
            30
        );
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.used(WorkflowId::new(0)), 40);
    }

    #[test]
    fn get_finds_only_cached_objects() {
        let mut s = MemStore::new();
        s.set_budget(WorkflowId::new(0), 100);
        s.try_put(key(0, 0, 0), 10);
        assert!(s.contains(key(0, 0, 0)));
        assert_eq!(s.get(key(0, 0, 0)), Some(10));
        assert_eq!(s.get(key(0, 0, 9)), None);
    }

    #[test]
    fn budget_shrink_below_usage_blocks_new_puts() {
        let mut s = MemStore::new();
        s.set_budget(WorkflowId::new(0), 100);
        s.try_put(key(0, 0, 0), 80);
        s.set_budget(WorkflowId::new(0), 50);
        assert!(!s.try_put(key(0, 0, 1), 1));
        assert_eq!(s.used(WorkflowId::new(0)), 80, "resident objects stay");
    }
}
