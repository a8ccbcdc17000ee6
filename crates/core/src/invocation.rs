//! Per-invocation runtime bookkeeping on the cluster side.

use std::sync::Arc;

use faasflow_scheduler::{Assignment, WorkerLoad};
use faasflow_sim::{
    ContainerId, EventId, FastMap, FunctionId, InvocationId, NodeId, SimTime, WorkflowId,
};
use faasflow_store::Placement;
use faasflow_wdl::WorkflowDag;

use crate::metrics::TransferLedger;
use crate::worker::Worker;

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

/// One DAG node's progress in the current attempt of an invocation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeProgress {
    /// Instances still to finish; `None` until the node is dispatched.
    pub remaining: Option<u32>,
    /// Every instance finished (a virtual node: its `VirtualDone` landed):
    /// the cluster-side mirror of the engines' state, which tells which
    /// producers actually ran.
    pub done: bool,
    /// The node's exit report was accepted (replay can re-emit
    /// `ExitComplete`; exactly-once terminal accounting drops the copies).
    pub exit_reported: bool,
    /// Where the node's output went, decided once per node.
    pub placement: Option<Placement>,
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
    /// Pinned DAG snapshot.
    pub dag: Arc<WorkflowDag>,
    /// Pinned placement (red-black: the deployment current at arrival,
    /// or at the last crash restart).
    pub assignment: Arc<Assignment>,
    /// Arrival instant (latency measurement start).
    pub started: SimTime,
    /// The scheduled timeout event.
    pub timeout_event: Option<EventId>,
    /// Whether the timeout fired before completion (latency already
    /// recorded at the cap).
    pub timed_out: bool,
    /// The current attempt's progress per DAG node, indexed by
    /// [`FunctionId::index`].
    pub nodes: Vec<NodeProgress>,
    /// Live instance lifecycle states.
    pub instances: FastMap<InstanceToken, InstanceState>,
    /// Transfer accounting.
    pub ledger: TransferLedger,
    /// Current recovery epoch; bumped each time crash recovery restarts
    /// the invocation (stale-event fencing).
    pub epoch: u32,
    /// Crash recoveries performed for this invocation (dead-letter once it
    /// exceeds the cluster's `MAX_RECOVERIES`).
    pub recovery_attempts: u32,
    /// Admitted as a degradation recovery probe: its terminal outcome
    /// feeds the controller's restore/relapse decision.
    pub degrade_probe: bool,
    /// Workers whose engine or FaaStore may hold state for the
    /// invocation: the ones release has to visit.
    pub holders: WorkerSet,
    /// Admissions requested but not yet `InstanceReady`, by token, with
    /// the worker each was requested on: the ones a worker crash orphans
    /// and the queues a teardown purges. A token is never pending and in
    /// `instances` at once.
    pub pending: FastMap<InstanceToken, usize>,
}

impl InvState {
    pub(crate) fn new(
        dag: Arc<WorkflowDag>,
        assignment: Arc<Assignment>,
        started: SimTime,
    ) -> Self {
        InvState {
            nodes: vec![NodeProgress::default(); dag.node_count()],
            dag,
            assignment,
            started,
            timeout_event: None,
            timed_out: false,
            instances: FastMap::default(),
            ledger: TransferLedger::default(),
            epoch: 0,
            recovery_attempts: 0,
            degrade_probe: false,
            holders: WorkerSet::default(),
            pending: FastMap::default(),
        }
    }

    /// The bytes `token`'s instance moves of `producer`'s output: its
    /// input share, or its output share when `producer` is its own node.
    pub(crate) fn share_of(&self, token: InstanceToken, producer: FunctionId) -> u64 {
        let node = self.dag.node(token.function);
        let total = if producer == token.function {
            node.kind.profile().map_or(0, |p| p.output_bytes)
        } else {
            let mut inputs = self.dag.data_inputs(token.function);
            inputs
                .find(|d| d.producer == producer)
                .map_or(0, |d| d.bytes)
        };
        Self::share(total, node.parallelism.max(1), token.instance)
    }

    /// Starts the next attempt under a bumped epoch: every trace of the
    /// current one (instances and node progress) goes, and what it held is
    /// handed back for release.
    pub(crate) fn restart(&mut self) -> Attempt {
        self.epoch += 1;
        self.nodes.fill(NodeProgress::default());
        self.take_attempt()
    }

    pub(crate) fn node(&self, node: FunctionId) -> &NodeProgress {
        &self.nodes[node.index()]
    }

    /// Accepts `node`'s dispatch in this attempt and returns its instance
    /// count; `None` when it was already dispatched (engine-crash replay
    /// can re-issue `AssignTask`/`TriggerFunction`: the copy is a
    /// duplicate, not a second spawn).
    pub(crate) fn dispatch(&mut self, node: FunctionId) -> Option<u32> {
        let parallelism = self.dag.node(node).parallelism.max(1);
        let progress = &mut self.nodes[node.index()];
        if progress.remaining.is_some() {
            return None;
        }
        progress.remaining = Some(parallelism);
        Some(parallelism)
    }

    /// Marks `node` done; `false` when it already was.
    pub(crate) fn mark_done(&mut self, node: FunctionId) -> bool {
        !std::mem::replace(&mut self.nodes[node.index()].done, true)
    }

    /// Accepts `node`'s exit report; `false` when it already was.
    pub(crate) fn report_exit(&mut self, node: FunctionId) -> bool {
        !std::mem::replace(&mut self.nodes[node.index()].exit_reported, true)
    }

    /// Every exit node (one without successors) reported its completion.
    pub(crate) fn exits_reported(&self) -> bool {
        let mut nodes = self.nodes.iter().enumerate();
        nodes.all(|(i, p)| p.exit_reported || !self.dag.successors(i.into()).is_empty())
    }

    /// `token`'s instance finished: drops it and counts its node down;
    /// `true` when that was the node's last instance.
    pub(crate) fn finish(&mut self, token: InstanceToken) -> (InstanceState, bool) {
        let inst = self
            .instances
            .remove(&token)
            .expect("instance finishes once");
        let progress = &mut self.nodes[token.function.index()];
        let remaining = progress.remaining.as_mut().expect("spawned node tracked");
        *remaining -= 1;
        let node_done = *remaining == 0;
        if node_done {
            progress.done = true;
        }
        (inst, node_done)
    }

    /// Takes what the current attempt holds outside the invocation.
    pub(crate) fn take_attempt(&mut self) -> Attempt {
        let mut stale: Vec<_> = self.instances.drain().collect();
        stale.sort_unstable_by_key(|&(t, _)| t);
        let mut queued_on = WorkerSet::default();
        for (_, w) in self.pending.drain() {
            queued_on.insert(w);
        }
        Attempt {
            stale,
            queued_on,
            holders: std::mem::take(&mut self.holders),
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

/// What a torn-down attempt of an invocation holds outside it.
#[derive(Debug)]
pub(crate) struct Attempt {
    /// Its admitted instances, in token order.
    pub stale: Vec<(InstanceToken, InstanceState)>,
    /// Workers whose admission queue may still hold one of its tokens.
    pub queued_on: WorkerSet,
    /// Workers whose engine or FaaStore may hold its state.
    pub holders: WorkerSet,
}

/// An invocation's key in the live table.
pub(crate) type InvKey = (WorkflowId, InvocationId);

impl InstanceToken {
    pub(crate) fn key(&self) -> InvKey {
        (self.workflow, self.invocation)
    }
}

/// The live invocation table and the decisions that read only it: the
/// stale-event fences, the pending admissions, the crash and evacuation
/// sweeps and the recovery budget. Sweeps return their results sorted,
/// so the caller applies the effects in a deterministic order.
#[derive(Debug, Default)]
pub(crate) struct Invocations {
    live: FastMap<InvKey, InvState>,
    next_invocation: u32,
    /// The next admission's sequence number (see [`InstanceState::seq`]).
    next_seq: u64,
    /// Invocations that completed or were abandoned.
    terminated: u64,
}

impl Invocations {
    pub(crate) fn next_id(&mut self) -> InvocationId {
        self.next_invocation += 1;
        InvocationId::new(self.next_invocation - 1)
    }

    pub(crate) fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    pub(crate) fn insert(&mut self, key: InvKey, state: InvState) {
        self.live.insert(key, state);
    }

    /// Takes an invocation that ended out of the table, with its pending
    /// admissions, and counts it terminated.
    pub(crate) fn end(&mut self, key: InvKey) -> Option<InvState> {
        let state = self.live.remove(&key)?;
        self.terminated += 1;
        Some(state)
    }

    pub(crate) fn get(&self, key: InvKey) -> Option<&InvState> {
        self.live.get(&key)
    }

    pub(crate) fn get_mut(&mut self, key: InvKey) -> Option<&mut InvState> {
        self.live.get_mut(&key)
    }

    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    pub(crate) fn any_of(&self, wf: WorkflowId) -> bool {
        self.live.keys().any(|&(w, _)| w == wf)
    }

    /// The live keys in ascending order.
    pub(crate) fn keys(&self) -> Vec<InvKey> {
        let mut keys: Vec<InvKey> = self.live.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    pub(crate) fn debug_check_conservation(&self, admitted: u64) {
        let accounted = self.terminated + self.live.len() as u64;
        debug_assert_eq!(
            admitted, accounted,
            "every admitted invocation is live or terminated"
        );
    }

    pub(crate) fn alive(&self, key: InvKey) -> bool {
        self.live.contains_key(&key)
    }

    /// The invocation's recovery epoch (0 once it ended: messages stamped
    /// with it are dropped at the receiver either way).
    pub(crate) fn epoch_of(&self, key: InvKey) -> u32 {
        self.live.get(&key).map_or(0, |s| s.epoch)
    }

    /// Alive *and* still in the given recovery epoch: the fence that makes
    /// every pre-crash in-flight message harmless after a restart.
    pub(crate) fn epoch_alive(&self, key: InvKey, epoch: u32) -> bool {
        self.live.get(&key).is_some_and(|s| s.epoch == epoch)
    }

    pub(crate) fn instance(&self, token: InstanceToken) -> Option<&InstanceState> {
        self.live.get(&token.key())?.instances.get(&token)
    }

    pub(crate) fn instance_mut(&mut self, token: InstanceToken) -> Option<&mut InstanceState> {
        self.live.get_mut(&token.key())?.instances.get_mut(&token)
    }

    pub(crate) fn instance_on(&self, worker: usize, token: InstanceToken) -> bool {
        self.instance(token).is_some_and(|i| i.worker == worker)
    }

    /// The `ExecDone` fence: `token`'s instance is still admission `seq`
    /// on `worker` (a crash orphans instances, a restart re-admits the
    /// same token under a fresh sequence number, an evacuation moves it).
    pub(crate) fn executing(
        &self,
        worker: usize,
        token: InstanceToken,
        seq: u64,
    ) -> Option<&InstanceState> {
        self.instance(token)
            .filter(|i| i.worker == worker && i.seq == seq)
    }

    /// Records an admission of `token` requested on `worker`; `false` when
    /// its invocation ended or moved on to a later epoch.
    pub(crate) fn request(&mut self, worker: usize, token: InstanceToken) -> bool {
        let live = self.live.get_mut(&token.key());
        let Some(state) = live.filter(|s| s.epoch == token.epoch) else {
            return false;
        };
        debug_assert!(!state.instances.contains_key(&token), "pending and running");
        state.pending.insert(token, worker);
        true
    }

    /// The `InstanceReady` fence: drops `token`'s pending record if it
    /// names `worker`; `true` if it did and the token's epoch is current.
    pub(crate) fn ready(&mut self, worker: usize, token: InstanceToken) -> bool {
        let Some(state) = self.live.get_mut(&token.key()) else {
            return false;
        };
        let here = state.pending.get(&token) == Some(&worker);
        here && state.pending.remove(&token).is_some() && state.epoch == token.epoch
    }

    /// Admits `token`'s instance, whose pending record is already gone.
    pub(crate) fn admit(&mut self, token: InstanceToken, inst: InstanceState) {
        let state = self
            .live
            .get_mut(&token.key())
            .expect("admitting a live invocation");
        debug_assert!(!state.pending.contains_key(&token), "pending and running");
        state.instances.insert(token, inst);
    }

    /// The worker `token`'s pending admission was requested on.
    pub(crate) fn pending_on(&self, token: InstanceToken) -> Option<usize> {
        self.live.get(&token.key())?.pending.get(&token).copied()
    }

    /// Adds to each worker's `running` count its admitted instances and
    /// the pending admissions that have left its container queue (its
    /// `queued` count holds the others).
    pub(crate) fn count_busy(&self, loads: &mut [WorkerLoad], workers: &[Worker]) {
        for state in self.live.values() {
            let running = state.instances.values().map(|i| i.worker);
            for w in running.chain(state.pending.values().copied()) {
                loads[w].running += 1;
            }
        }
        for (w, worker) in workers.iter().enumerate() {
            let queued = worker
                .pool
                .queued_tokens()
                .filter(|&&t| self.pending_on(t) == Some(w));
            loads[w].running -= queued.count() as u32;
        }
    }

    /// Worker `w` crashed: removes and returns, sorted, every token it was
    /// running, booting or queueing.
    pub(crate) fn crash_sweep(&mut self, w: usize) -> Vec<InstanceToken> {
        let mut orphaned = Vec::new();
        for s in self.live.values_mut() {
            orphaned.extend(s.pending.extract_if(|_, &mut pw| pw == w).map(|(t, _)| t));
            orphaned.extend(s.instances.extract_if(|_, i| i.worker == w).map(|(t, _)| t));
        }
        orphaned.sort_unstable();
        orphaned
    }

    /// The tokens admitted on worker `w`, sorted: an evacuation's subjects.
    pub(crate) fn running_on(&self, w: usize) -> Vec<InstanceToken> {
        let instances = self.live.values().flat_map(|s| s.instances.iter());
        let mut tokens: Vec<_> = instances
            .filter(|(_, i)| i.worker == w)
            .map(|(&t, _)| t)
            .collect();
        tokens.sort_unstable();
        tokens
    }

    /// Whether an orphaned `token` still has to run: its epoch is current,
    /// its node incomplete and nothing admitted it since.
    pub(crate) fn orphan_due(&self, token: InstanceToken) -> bool {
        self.live.get(&token.key()).is_some_and(|s| {
            s.epoch == token.epoch
                && !s.node(token.function).done
                && !s.instances.contains_key(&token)
        })
    }

    /// Takes `token`'s instance off its worker for re-dispatch, if its
    /// epoch is current and its node incomplete.
    pub(crate) fn evacuate(&mut self, token: InstanceToken) -> Option<InstanceState> {
        let s = self.live.get_mut(&token.key())?;
        if s.epoch != token.epoch || s.node(token.function).done {
            return None;
        }
        s.instances.remove(&token)
    }

    /// The live invocations `pick` selects, in key order; `pick` is told
    /// whether the invocation has an incomplete node placed on `node`.
    pub(crate) fn pinned_to(
        &self,
        node: NodeId,
        pick: impl Fn(&InvState, bool) -> bool,
    ) -> Vec<InvKey> {
        let pinned = |s: &InvState| {
            let on_node = |n: FunctionId| s.assignment.worker_of(n) == node;
            s.dag
                .nodes()
                .iter()
                .any(|n| !s.node(n.id).done && on_node(n.id))
        };
        let picked = self.live.iter().filter(|(_, s)| pick(s, pinned(s)));
        let mut keys: Vec<InvKey> = picked.map(|(&key, _)| key).collect();
        keys.sort_unstable();
        keys
    }

    /// Spends one crash recovery of `key`'s budget: `Some(true)` once it
    /// exceeds `max` attempts, `None` when the invocation is not live.
    pub(crate) fn charge_recovery(&mut self, key: InvKey, max: u32) -> Option<bool> {
        let state = self.live.get_mut(&key)?;
        state.recovery_attempts += 1;
        Some(state.recovery_attempts > max)
    }

    /// Charges the budget of every invocation owning one of `tokens`, once
    /// each, and returns the exhausted ones in key order.
    pub(crate) fn charge_owners(&mut self, tokens: &[InstanceToken], max: u32) -> Vec<InvKey> {
        let mut keys: Vec<InvKey> = tokens.iter().map(InstanceToken::key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|&key| self.charge_recovery(key, max) == Some(true));
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_sim::GroupId;
    use faasflow_wdl::{DagParser, DagSpec, FunctionProfile, Step, Workflow};

    /// A fresh invocation of the chain `a -> b`, `b` a foreach of 3, with
    /// `a` placed on node 1 and everything else on node 2.
    fn chain() -> InvState {
        fresh(Workflow::steps(
            "chain",
            Step::sequence(vec![
                Step::task("a", FunctionProfile::with_millis(1, 1 << 10)),
                Step::foreach("b", FunctionProfile::with_millis(1, 0), 3),
            ]),
        ))
    }

    /// A fresh invocation of `a -> b` and `a -> c`: two exit nodes.
    fn fork() -> InvState {
        let profile = FunctionProfile::with_millis(1, 0);
        let mut spec = DagSpec::new();
        spec.task("a", profile)
            .task("b", profile)
            .task("c", profile)
            .edge("a", "b")
            .edge("a", "c");
        fresh(Workflow::dag("fork", spec))
    }

    /// A fresh invocation of `wf`, its first node placed on node 1 and
    /// everything else on node 2.
    fn fresh(wf: Workflow) -> InvState {
        let dag = Arc::new(DagParser::default().parse(&wf).expect("valid workflow"));
        let n = dag.node_count();
        let assignment = Arc::new(Assignment {
            groups: Vec::new(),
            node_of: (0..n).map(|i| NodeId::new(1 + u32::from(i > 0))).collect(),
            group_of: vec![GroupId::new(0); n],
            storage_local: vec![false; n],
            mem_consume: 0,
            quota: 0,
        });
        InvState::new(dag, assignment, SimTime::ZERO)
    }

    fn id(s: &InvState, name: &str) -> FunctionId {
        s.dag
            .nodes()
            .iter()
            .find(|n| n.name == name)
            .expect("named")
            .id
    }

    fn token(inv: u32, function: u32, instance: u32) -> InstanceToken {
        InstanceToken {
            workflow: WorkflowId::new(0),
            invocation: InvocationId::new(inv),
            function: FunctionId::new(function),
            instance,
            epoch: 0,
        }
    }

    fn key(inv: u32) -> InvKey {
        (WorkflowId::new(0), InvocationId::new(inv))
    }

    /// A table with invocations `0..n` live.
    fn table(n: u32) -> Invocations {
        let mut invs = Invocations::default();
        for _ in 0..n {
            let inv = invs.next_id();
            invs.insert((WorkflowId::new(0), inv), chain());
        }
        invs
    }

    /// Requests `t` on `worker` and admits it there once ready.
    fn run(invs: &mut Invocations, worker: usize, t: InstanceToken) -> u64 {
        assert!(invs.request(worker, t));
        assert!(invs.ready(worker, t));
        let seq = invs.next_seq();
        let inst = InstanceState {
            container: ContainerId::new(0),
            worker,
            home: worker,
            pending_inputs: 0,
            retries: 0,
            seq,
            exec_done: false,
            exec_started: SimTime::ZERO,
        };
        invs.admit(t, inst);
        seq
    }

    fn busy(invs: &Invocations) -> Vec<u32> {
        let mut loads = vec![WorkerLoad::default(); 3];
        invs.count_busy(&mut loads, &[]);
        loads.iter().map(|l| l.running).collect()
    }

    #[test]
    fn fences_drop_a_stale_epoch_a_superseded_seq_and_the_wrong_worker() {
        let mut invs = table(1);
        let t = token(0, 1, 0);
        let seq = run(&mut invs, 2, t);
        assert!(invs.epoch_alive(key(0), 0) && !invs.epoch_alive(key(0), 1));
        assert!(invs.executing(2, t, seq).is_some());
        assert!(invs.executing(2, t, seq + 1).is_none(), "superseded seq");
        assert!(invs.executing(1, t, seq).is_none(), "wrong worker");
        assert!(invs.instance_on(2, t) && !invs.instance_on(1, t));
        // A restart bumps the epoch: the old token's events miss.
        let attempt = invs.get_mut(key(0)).expect("live").restart();
        assert_eq!(attempt.stale.len(), 1);
        assert!(!invs.epoch_alive(key(0), 0) && invs.epoch_alive(key(0), 1));
        assert!(invs.executing(2, t, seq).is_none());
        assert!(!invs.request(2, t), "a stale epoch records nothing");
        // An ended invocation reads as epoch 0 and fences everything.
        assert!(invs.end(key(0)).is_some());
        assert!(!invs.alive(key(0)) && !invs.epoch_alive(key(0), 1));
        assert_eq!(invs.epoch_of(key(0)), 0);
    }

    #[test]
    fn a_node_is_dispatched_once_per_epoch() {
        let mut s = chain();
        let (a, b) = (id(&s, "a"), id(&s, "b"));
        assert_eq!(s.dispatch(b), Some(3), "one instance per foreach branch");
        assert_eq!(s.dispatch(b), None, "a second dispatch is a duplicate");
        assert_eq!((s.node(a).remaining, s.node(b).remaining), (None, Some(3)));
        s.restart();
        assert_eq!(s.dispatch(b), Some(3), "a new epoch dispatches afresh");
        assert_eq!(s.dispatch(a), Some(1));
    }

    #[test]
    fn the_invocation_completes_at_its_last_distinct_exit_report() {
        let mut s = fork();
        let (b, c) = (id(&s, "b"), id(&s, "c"));
        assert!(!s.exits_reported());
        assert!(s.report_exit(b));
        assert!(!s.exits_reported(), "one exit of two");
        assert!(!s.report_exit(b), "a repeated report is a duplicate");
        assert!(!s.exits_reported(), "and counts for nothing");
        assert!(s.report_exit(c));
        assert!(s.exits_reported());
    }

    #[test]
    fn restart_clears_every_nodes_record_and_bumps_the_epoch() {
        let mut s = fork();
        s.nodes.fill(NodeProgress {
            remaining: Some(1),
            done: true,
            exit_reported: true,
            placement: Some(Placement::Remote),
        });
        s.restart();
        assert_eq!(s.epoch, 1);
        for p in &s.nodes {
            let fields = (p.remaining, p.done, p.exit_reported, p.placement);
            assert_eq!(fields, (None, false, false, None));
        }
        assert!(!s.exits_reported());
    }

    #[test]
    fn a_pending_record_lives_from_request_to_ready() {
        let mut invs = table(2);
        let t = token(0, 1, 0);
        assert!(invs.request(0, t));
        assert_eq!(busy(&invs), [1, 0, 0]);
        // A stale ready on another worker leaves the record alone.
        assert!(!invs.ready(1, t));
        assert_eq!(busy(&invs), [1, 0, 0]);
        assert!(invs.ready(0, t));
        assert_eq!(busy(&invs), [0, 0, 0]);
        assert!(!invs.ready(0, t), "a record is taken once");
        // A restart drops the pending records and names their workers.
        assert!(invs.request(2, t));
        let attempt = invs.get_mut(key(0)).expect("live").restart();
        assert_eq!(attempt.queued_on.iter().collect::<Vec<_>>(), [2]);
        assert_eq!(busy(&invs), [0, 0, 0]);
        // So does the end of the invocation.
        assert!(invs.request(1, token(1, 1, 2)));
        let ended = invs.end(key(1)).expect("live");
        assert_eq!(ended.pending.len(), 1);
        assert_eq!(busy(&invs), [0, 0, 0]);
        assert!(!invs.ready(1, token(1, 1, 2)));
    }

    #[test]
    fn the_crash_sweep_takes_the_workers_pending_and_running_tokens_sorted() {
        let mut invs = table(2);
        let (queued, running) = (token(1, 1, 2), token(0, 1, 1));
        let (elsewhere, survivor) = (token(1, 1, 0), token(0, 1, 0));
        run(&mut invs, 1, running);
        assert!(invs.request(1, queued));
        assert!(invs.request(2, elsewhere));
        run(&mut invs, 2, survivor);
        assert_eq!(invs.crash_sweep(1), [running, queued]);
        assert_eq!(busy(&invs), [0, 0, 2]);
        assert!(invs.instance(running).is_none());
        assert!(!invs.ready(1, queued));
        assert_eq!(invs.crash_sweep(1), []);
        assert_eq!(invs.running_on(2), [survivor]);
    }

    #[test]
    fn the_budget_dead_letters_exactly_once_past_its_max() {
        let mut invs = table(2);
        let tokens = [token(0, 1, 0), token(0, 1, 1), token(1, 0, 0)];
        // Each charge counts once per invocation, however many tokens.
        assert_eq!(invs.charge_owners(&tokens, 2), []);
        assert_eq!(invs.charge_owners(&tokens, 2), []);
        assert_eq!(invs.charge_owners(&tokens, 2), [key(0), key(1)]);
        // The caller dead-letters the exhausted: they charge no more.
        invs.end(key(0));
        invs.end(key(1));
        assert_eq!(invs.charge_owners(&tokens, 2), []);
        // The restart check spends the same budget.
        let mut invs = table(1);
        assert_eq!(invs.charge_owners(&tokens[..1], 1), []);
        assert_eq!(invs.charge_recovery(key(0), 1), Some(true));
        assert_eq!(invs.charge_recovery(key(1), 1), None);
    }

    #[test]
    fn end_counts_the_invocation_terminated_once() {
        let mut invs = table(3);
        assert!(invs.end(key(1)).is_some());
        assert!(invs.end(key(1)).is_none());
        assert_eq!((invs.terminated, invs.len()), (1, 2));
        invs.debug_check_conservation(3);
        assert!(invs.any_of(WorkflowId::new(0)) && !invs.any_of(WorkflowId::new(1)));
        assert_eq!(invs.keys(), [key(0), key(2)]);
    }

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
