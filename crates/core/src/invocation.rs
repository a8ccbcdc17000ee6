//! Per-invocation runtime bookkeeping on the cluster side.

use std::sync::Arc;

use faasflow_scheduler::{Assignment, Version};
use faasflow_sim::{ContainerId, EventId, FastMap, FunctionId, InvocationId, SimTime, WorkflowId};
use faasflow_store::Placement;
use faasflow_wdl::WorkflowDag;

use crate::metrics::TransferLedger;

/// Identifies one executor instance of a function node within an
/// invocation — the unit the container runtime admits and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceToken {
    /// The workflow.
    pub workflow: WorkflowId,
    /// The invocation.
    pub invocation: InvocationId,
    /// The function node.
    pub function: FunctionId,
    /// Instance index in `0..parallelism`.
    pub instance: u32,
    /// Recovery epoch of the invocation when the instance was spawned.
    /// Crash recovery restarts an invocation under a bumped epoch, so
    /// events carrying pre-crash tokens miss every lookup keyed by token
    /// and are discarded as stale.
    pub epoch: u32,
}

/// Lifecycle state of one admitted instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstanceState {
    /// The container executing this instance.
    pub container: ContainerId,
    /// Worker index hosting it.
    pub worker: usize,
    /// Worker index whose engine triggered the instance and tracks its
    /// node's state. Equal to `worker` unless a hedge win transplanted
    /// execution elsewhere — the completion must still report back here.
    pub home: usize,
    /// Input transfers still in flight.
    pub pending_inputs: u32,
    /// Execution attempts that failed and were retried.
    pub retries: u32,
    /// Cluster-wide admission sequence number. A crashed worker can
    /// restart and re-admit the *same* token on the same worker before a
    /// stale `ExecDone` from the pre-crash admission drains; the sequence
    /// number fences those events where token+worker matching cannot.
    pub seq: u64,
    /// The compute phase finished (output writes may still be in flight).
    /// A hedge arriving after this point has lost the race.
    pub exec_done: bool,
    /// When the current compute attempt started (adaptive-hedge latency
    /// sample; meaningless until the first `ExecStarted`).
    pub exec_started: SimTime,
}

/// A value per DAG node, indexed by [`FunctionId::index`]: the dense
/// stand-in for a `FunctionId`-keyed map over one invocation's DAG.
#[derive(Debug, Clone)]
pub(crate) struct NodeMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> NodeMap<T> {
    /// An empty map over a DAG of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        NodeMap {
            slots: std::iter::repeat_with(|| None).take(nodes).collect(),
        }
    }

    pub(crate) fn get(&self, node: FunctionId) -> Option<&T> {
        self.slots[node.index()].as_ref()
    }

    pub(crate) fn get_mut(&mut self, node: FunctionId) -> Option<&mut T> {
        self.slots[node.index()].as_mut()
    }

    /// Sets `node`'s value, returning the previous one.
    pub(crate) fn insert(&mut self, node: FunctionId, value: T) -> Option<T> {
        self.slots[node.index()].replace(value)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    pub(crate) fn clear(&mut self) {
        self.slots.iter_mut().for_each(|slot| *slot = None);
    }

    /// The present entries in ascending node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (FunctionId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (FunctionId::from(i), v)))
    }
}

/// A set of DAG nodes, one flag per node.
#[derive(Debug, Clone)]
pub(crate) struct NodeSet {
    members: NodeMap<()>,
}

impl NodeSet {
    /// An empty set over a DAG of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        NodeSet {
            members: NodeMap::new(nodes),
        }
    }

    /// Adds `node`; `false` when it was already present.
    pub(crate) fn insert(&mut self, node: FunctionId) -> bool {
        self.members.insert(node, ()).is_none()
    }

    pub(crate) fn contains(&self, node: FunctionId) -> bool {
        self.members.get(node).is_some()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.members.clear();
    }

    /// The members in ascending node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = FunctionId> + '_ {
        self.members.iter().map(|(node, ())| node)
    }
}

/// A set of worker indices, one bit per worker, grown on insert.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerSet {
    words: Vec<u64>,
}

impl WorkerSet {
    pub(crate) fn insert(&mut self, worker: usize) {
        let word = worker / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (worker % 64);
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            // Each step clears the lowest set bit.
            std::iter::successors(Some(word), |&w| Some(w & w.wrapping_sub(1)))
                .take_while(|&w| w != 0)
                .map(move |w| i * 64 + w.trailing_zeros() as usize)
        })
    }
}

/// Cluster-side state of one in-flight invocation.
#[derive(Debug)]
pub(crate) struct InvState {
    /// Partition version the invocation is pinned to (red-black).
    pub version: Version,
    /// Pinned DAG snapshot.
    pub dag: Arc<WorkflowDag>,
    /// Pinned placement.
    pub assignment: Arc<Assignment>,
    /// Arrival instant (latency measurement start).
    pub started: SimTime,
    /// Exit nodes still to complete.
    pub exits_remaining: usize,
    /// The scheduled timeout event.
    pub timeout_event: Option<EventId>,
    /// Whether the timeout fired before completion (latency already
    /// recorded at the cap).
    pub timed_out: bool,
    /// Nodes whose every instance finished (core-side mirror of the
    /// engines' state, used to know which producers actually ran).
    pub completed_nodes: NodeSet,
    /// Remaining instance completions per spawned node.
    pub instances_remaining: NodeMap<u32>,
    /// Live instance lifecycle states.
    pub instances: FastMap<InstanceToken, InstanceState>,
    /// Output placement decided per producer node.
    pub placements: NodeMap<Placement>,
    /// Transfer accounting.
    pub ledger: TransferLedger,
    /// Function nodes whose dispatch was already accepted (engine-crash
    /// replay can re-issue `AssignTask`/`TriggerFunction`; the second copy
    /// is a duplicate-suppression, not a second spawn).
    pub dispatched: NodeSet,
    /// Exit nodes whose completion report was already accepted (replay can
    /// re-emit `ExitComplete`; exactly-once terminal accounting depends on
    /// dropping the duplicates).
    pub reported_exits: NodeSet,
    /// Current recovery epoch; bumped each time crash recovery restarts
    /// the invocation (stale-event fencing).
    pub epoch: u32,
    /// Crash recoveries performed for this invocation (dead-letter once it
    /// exceeds the plan's `max_recovery_attempts`).
    pub recovery_attempts: u32,
    /// Admitted as a degradation recovery probe: its terminal outcome
    /// feeds the controller's restore/relapse decision.
    pub degrade_probe: bool,
    /// Workers whose engine or FaaStore may hold state for the
    /// invocation: the ones release has to visit.
    pub holders: WorkerSet,
    /// Workers whose container admission queue took an instance of the
    /// invocation, in any epoch: the ones an abandonment purges.
    pub queued_on: WorkerSet,
}

impl InvState {
    pub(crate) fn new(
        version: Version,
        dag: Arc<WorkflowDag>,
        assignment: Arc<Assignment>,
        started: SimTime,
    ) -> Self {
        let exits_remaining = dag.exit_nodes().len();
        let nodes = dag.node_count();
        InvState {
            version,
            dag,
            assignment,
            started,
            exits_remaining,
            timeout_event: None,
            timed_out: false,
            completed_nodes: NodeSet::new(nodes),
            instances_remaining: NodeMap::new(nodes),
            instances: FastMap::default(),
            placements: NodeMap::new(nodes),
            ledger: TransferLedger::default(),
            dispatched: NodeSet::new(nodes),
            reported_exits: NodeSet::new(nodes),
            epoch: 0,
            recovery_attempts: 0,
            degrade_probe: false,
            holders: WorkerSet::default(),
            queued_on: WorkerSet::default(),
        }
    }

    /// Splits `total` bytes across `parallelism` instances; instance 0
    /// takes the remainder so shares sum exactly to `total`.
    pub(crate) fn share(total: u64, parallelism: u32, instance: u32) -> u64 {
        let k = u64::from(parallelism.max(1));
        let base = total / k;
        if instance == 0 {
            total - base * (k - 1)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_total() {
        for total in [0u64, 1, 7, 100, 1 << 20] {
            for k in [1u32, 2, 3, 7] {
                let sum: u64 = (0..k).map(|i| InvState::share(total, k, i)).sum();
                assert_eq!(sum, total, "total={total} k={k}");
            }
        }
    }

    #[test]
    fn worker_set_iterates_in_ascending_order() {
        let mut set = WorkerSet::default();
        assert_eq!(set.iter().count(), 0);
        for w in [130, 3, 64, 3, 0, 63] {
            set.insert(w);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 130]);
    }

    #[test]
    fn instance_zero_takes_remainder() {
        assert_eq!(InvState::share(10, 3, 0), 4);
        assert_eq!(InvState::share(10, 3, 1), 3);
        assert_eq!(InvState::share(10, 3, 2), 3);
    }
}
