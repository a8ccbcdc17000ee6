//! The per-worker workflow engine — WorkerSP (§3.1, §4.2).
//!
//! Each worker node runs one [`WorkerEngine`]. It maintains the
//! `Workflow{State, FunctionInfo}` structures for the sub-graphs assigned
//! to it, triggers *local* functions, and when a completed function has
//! cross-worker successors it "passes the executed state to the remote
//! worker engine through TCP connections" — one state-sync message per
//! remote worker, never a task assignment.
//!
//! The engine is a pure state machine: it consumes completion/sync events
//! and emits [`WorkerAction`]s for the cluster simulation to time.
//!
//! `begin` and `sync` carry the invocation's pinned [`WorkflowCtx`], and
//! the engine routes the invocation by the first one it is given for as
//! long as it holds the invocation's state (red-black deployment, §4.2.2):
//! a later call carrying a newer assignment changes nothing. Replay
//! re-pins to the context it is handed, the workflow's current deployment.

use faasflow_sim::stats::Counter;
use faasflow_sim::{FastMap, FunctionId, InvocationId, NodeId, WorkflowId};

use crate::trigger::{TriggerTracker, WorkflowCtx};

/// What the worker engine asks the runtime to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerAction {
    /// Run a local function node (spawn its `parallelism` instances). For
    /// virtual nodes the runtime completes them immediately.
    TriggerFunction {
        /// The workflow.
        workflow: WorkflowId,
        /// The invocation.
        invocation: InvocationId,
        /// The node to run (guaranteed local to this worker).
        function: FunctionId,
    },
    /// Send an execution-state update to a remote worker engine over TCP.
    SyncState {
        /// Destination worker.
        to: NodeId,
        /// The workflow.
        workflow: WorkflowId,
        /// The invocation.
        invocation: InvocationId,
        /// The function whose completion is being propagated.
        completed: FunctionId,
    },
    /// A DAG exit node completed on this worker — report towards the
    /// client (the invocation is complete when every exit node reported).
    ExitComplete {
        /// The workflow.
        workflow: WorkflowId,
        /// The invocation.
        invocation: InvocationId,
        /// The completed exit node.
        function: FunctionId,
    },
}

/// Counters for §5.2's message accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerEngineStats {
    /// Cross-worker state-sync messages sent.
    pub syncs_sent: Counter,
    /// State updates applied via local (in-process) RPC.
    pub local_updates: Counter,
    /// Local function triggers performed.
    pub triggers: Counter,
}

/// A worker engine's load, reported up to the cluster's placement layer
/// and the observability exporters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineLoad {
    /// Live per-invocation trigger trackers held by the engine.
    pub live_invocations: usize,
    /// Function groups of the current deployments placed on this node
    /// (0 under MasterSP, where worker engines schedule nothing).
    pub local_groups: usize,
}

/// One in-flight invocation: its trigger tracker plus the workflow context
/// pinned when the invocation first touched this engine. Routing a live
/// invocation through a *newer* assignment would strand it — the
/// data-placement decisions and the other engines' sync targets all
/// follow the pinned one (red-black deployment).
#[derive(Debug)]
struct LiveInvocation {
    tracker: TriggerTracker,
    ctx: WorkflowCtx,
}

impl LiveInvocation {
    fn new(invocation: InvocationId, ctx: WorkflowCtx) -> Self {
        LiveInvocation {
            tracker: ctx.tracker(invocation),
            ctx,
        }
    }
}

/// The decentralized engine of one worker node.
#[derive(Debug)]
pub struct WorkerEngine {
    node: NodeId,
    invocations: FastMap<(WorkflowId, InvocationId), LiveInvocation>,
    stats: WorkerEngineStats,
}

impl WorkerEngine {
    /// Creates the engine for `node`.
    pub fn new(node: NodeId) -> Self {
        WorkerEngine {
            node,
            invocations: FastMap::default(),
            stats: WorkerEngineStats::default(),
        }
    }

    /// The hosting worker node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Message counters.
    pub fn stats(&self) -> &WorkerEngineStats {
        &self.stats
    }

    /// Live per-invocation state structures (for §5.7's memory accounting).
    pub fn live_invocations(&self) -> usize {
        self.invocations.len()
    }

    /// The engine process dies and comes back: every invocation's trigger
    /// state is lost. The message counters count over the whole run.
    pub fn crash(&mut self) {
        self.invocations.clear();
    }

    /// Starts an invocation on this worker: triggers every *local* entry
    /// node of the workflow DAG. `ctx` is the invocation's pinned
    /// deployment; see [`WorkerEngine::on_state_sync`] for when it is read.
    pub fn begin_invocation(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
    ) -> Vec<WorkerAction> {
        self.live(ctx, workflow, invocation);
        self.trigger_local_entries(workflow, invocation)
    }

    /// The invocation's live state, pinned to `ctx` when this is the first
    /// the engine hears of it.
    fn live(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
    ) -> &mut LiveInvocation {
        self.invocations
            .entry((workflow, invocation))
            .or_insert_with(|| LiveInvocation::new(invocation, ctx.clone()))
    }

    /// Triggers the invocation's entry nodes placed on this worker that
    /// are not triggered yet.
    fn trigger_local_entries(
        &mut self,
        workflow: WorkflowId,
        invocation: InvocationId,
    ) -> Vec<WorkerAction> {
        let live = self
            .invocations
            .get_mut(&(workflow, invocation))
            .expect("invocation alive at entry");
        let mut actions = Vec::new();
        for entry in live.ctx.dag.entry_nodes() {
            if live.ctx.assignment.worker_of(entry) == self.node
                && live.tracker.force_trigger(entry)
            {
                self.stats.triggers.inc();
                actions.push(WorkerAction::TriggerFunction {
                    workflow,
                    invocation,
                    function: entry,
                });
            }
        }
        actions
    }

    /// Handles completion of a single executor instance of a local node.
    /// When the last instance finishes, the node completes and its state
    /// propagates (locally and/or via sync messages).
    ///
    /// An unknown invocation is ignored (returns no actions): after a
    /// crash-and-restart this engine comes back blank, and a completion
    /// message for a pre-crash invocation may still be in flight — the
    /// cluster's recovery layer owns that invocation now.
    pub fn on_instance_complete(
        &mut self,
        workflow: WorkflowId,
        invocation: InvocationId,
        function: FunctionId,
    ) -> Vec<WorkerAction> {
        let Some(live) = self.invocations.get_mut(&(workflow, invocation)) else {
            return Vec::new();
        };
        if live.tracker.instance_done(function) {
            self.propagate_completion(workflow, invocation, function, false)
        } else {
            Vec::new()
        }
    }

    /// Handles a state-sync message from a remote engine: `completed` (a
    /// function hosted elsewhere) finished; update local successors.
    ///
    /// `ctx` is the invocation's pinned deployment. The engine pins it
    /// only when the invocation is new here (a sync can arrive before the
    /// `begin`, or at a worker hosting no entry node); otherwise it keeps
    /// routing by the context it pinned first.
    ///
    /// A duplicate sync about a node whose completion this engine already
    /// processed is ignored — crash recovery re-sends syncs whose durable
    /// record was lost, and counting a predecessor twice would trigger
    /// successors prematurely.
    pub fn on_state_sync(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
        completed: FunctionId,
    ) -> Vec<WorkerAction> {
        let node = self.node;
        let live = self.live(ctx, workflow, invocation);
        if !live.tracker.mark_propagated(completed) {
            return Vec::new();
        }
        let mut actions = Vec::new();
        for s in live.tracker.successors_to_notify(completed) {
            // Another worker owns a successor placed elsewhere.
            if live.ctx.assignment.worker_of(s) == node && live.tracker.predecessor_done(s) {
                actions.push(WorkerAction::TriggerFunction {
                    workflow,
                    invocation,
                    function: s,
                });
            }
        }
        self.stats.triggers.add(actions.len() as u64);
        actions
    }

    /// Releases the invocation's `State` structure (§4.2.1: "the per-worker
    /// engine should release the *State* object at the end of each
    /// invocation").
    pub fn release_invocation(&mut self, workflow: WorkflowId, invocation: InvocationId) {
        self.invocations.remove(&(workflow, invocation));
    }

    /// Whether this engine has recorded `function` as fully completed for
    /// the invocation (all instances done). Used by the journal layer to
    /// decide when a `NodeDone` record should be appended.
    pub fn node_done(
        &self,
        workflow: WorkflowId,
        invocation: InvocationId,
        function: FunctionId,
    ) -> bool {
        self.invocations
            .get(&(workflow, invocation))
            .is_some_and(|li| li.tracker.is_done(function))
    }

    /// Crash recovery: rebuilds this invocation's tracker over `ctx` from
    /// durable history and returns the actions needed to resume it.
    ///
    /// * `completed` — nodes known (cluster-wide) to have fully completed.
    /// * `already_propagated` — the subset whose downstream effects this
    ///   engine durably recorded (journaled `NodeDone`); their syncs and
    ///   exit reports are *not* re-emitted. Unrecorded completions re-emit
    ///   and rely on receiver-side dedup.
    /// * `inflight` — `(node, completions)` seeds for nodes still running,
    ///   covering completions reported while the engine was down.
    ///
    /// Emitted `TriggerFunction` actions may duplicate pre-crash
    /// dispatches; the runtime's dispatch dedup drops those.
    ///
    /// Replay re-pins the invocation to `ctx` whatever it was pinned to
    /// before: the runtime passes the workflow's current deployment, which
    /// the recovery layer redeployed before replaying.
    pub fn replay_invocation(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
        completed: &[FunctionId],
        already_propagated: &[FunctionId],
        inflight: &[(FunctionId, u32)],
    ) -> Vec<WorkerAction> {
        let mut tracker = ctx.tracker(invocation);
        // Mark every known completion up front so the cascade below can
        // neither re-trigger nor re-complete them.
        for &f in completed {
            tracker.force_done(f);
        }
        let key = (workflow, invocation);
        let live = LiveInvocation {
            tracker,
            ctx: ctx.clone(),
        };
        self.invocations.insert(key, live);
        // Local entry nodes that never completed need (re)triggering.
        let mut actions = self.trigger_local_entries(workflow, invocation);
        // Re-run each completed node's downstream effects through the
        // fresh tracker: local predecessor counts always (they are this
        // tracker's private state), external effects (syncs, exit reports)
        // only when no durable record says they already went out.
        for &f in completed {
            let live = self.invocations.get_mut(&key).expect("tracker inserted");
            live.tracker.mark_propagated(f);
            let home = live.ctx.assignment.worker_of(f) == self.node;
            let suppress_external = !home || already_propagated.contains(&f);
            actions.extend(self.propagate_completion(workflow, invocation, f, suppress_external));
        }
        // Seed in-flight instance counts: completions that were reported
        // while the engine was down will never be re-sent.
        let live = self.invocations.get_mut(&key).expect("tracker inserted");
        for &(f, done) in inflight {
            live.tracker.set_instances_done(f, done);
        }
        actions
    }

    /// Node completion: notify local successors inline (in-process RPC) and
    /// remote workers by one sync message each. `suppress_external` keeps
    /// the exit report and the syncs back (replay of a completion whose
    /// effects already went out, or that another worker owns).
    fn propagate_completion(
        &mut self,
        workflow: WorkflowId,
        invocation: InvocationId,
        function: FunctionId,
        suppress_external: bool,
    ) -> Vec<WorkerAction> {
        let live = self
            .invocations
            .get_mut(&(workflow, invocation))
            .expect("completion for unknown invocation");
        let ctx = &live.ctx;
        let mut actions = Vec::new();
        if !suppress_external && ctx.dag.successors(function).is_empty() {
            actions.push(WorkerAction::ExitComplete {
                workflow,
                invocation,
                function,
            });
        }
        let mut remote_workers: Vec<NodeId> = Vec::new();
        for s in live.tracker.successors_to_notify(function) {
            let w = ctx.assignment.worker_of(s);
            if w == self.node {
                // Local successor: an inner-RPC state update, possibly
                // triggering. Virtual nodes among the triggered set are
                // the runtime's concern (it completes them instantly).
                self.stats.local_updates.inc();
                if live.tracker.predecessor_done(s) {
                    self.stats.triggers.inc();
                    actions.push(WorkerAction::TriggerFunction {
                        workflow,
                        invocation,
                        function: s,
                    });
                }
            } else if !suppress_external && !remote_workers.contains(&w) {
                remote_workers.push(w);
            }
        }
        // One TCP state sync per remote worker hosting successors.
        for w in remote_workers {
            self.stats.syncs_sent.inc();
            actions.push(WorkerAction::SyncState {
                to: w,
                workflow,
                invocation,
                completed: function,
            });
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_scheduler::{ContentionSet, GraphScheduler, RuntimeMetrics, WorkerInfo};
    use faasflow_sim::SimRng;
    use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};
    use std::sync::Arc;

    /// Builds a 3-function chain partitioned across two workers:
    /// a, b on worker 1 and c on worker 2 (forced by zero quota + capacity).
    fn setup() -> (WorkflowCtx, WorkerEngine, WorkerEngine) {
        let wf = Workflow::steps(
            "chain",
            Step::sequence(vec![
                Step::task("a", FunctionProfile::with_millis(1, 10 << 20)),
                Step::task("b", FunctionProfile::with_millis(1, 10 << 20)),
                Step::task("c", FunctionProfile::with_millis(1, 0)),
            ]),
        );
        let dag = Arc::new(DagParser::default().parse(&wf).unwrap());
        // Hand-built placement: {a, b} on worker 1, {c} on worker 2, so the
        // b -> c edge is the one cross-worker hop.
        let (w_ab, w_c) = (NodeId::new(1), NodeId::new(2));
        use faasflow_scheduler::{Assignment, Group};
        use faasflow_sim::GroupId;
        let assignment = Arc::new(Assignment {
            groups: vec![
                Group {
                    id: GroupId::new(0),
                    members: vec![FunctionId::new(0), FunctionId::new(1)],
                    worker: w_ab,
                    capacity_needed: 2,
                },
                Group {
                    id: GroupId::new(1),
                    members: vec![FunctionId::new(2)],
                    worker: w_c,
                    capacity_needed: 1,
                },
            ],
            node_of: vec![w_ab, w_ab, w_c],
            group_of: vec![GroupId::new(0), GroupId::new(0), GroupId::new(1)],
            storage_local: vec![true, false, false],
            mem_consume: 10 << 20,
            quota: 10 << 20,
        });
        (
            WorkflowCtx::new(dag, assignment, 7),
            WorkerEngine::new(w_ab),
            WorkerEngine::new(w_c),
        )
    }

    const WF: WorkflowId = WorkflowId::new(0);
    const INV: InvocationId = InvocationId::new(0);

    #[test]
    fn begin_triggers_only_local_entries() {
        let (ctx, mut e1, mut e2) = setup();
        let a1 = e1.begin_invocation(&ctx, WF, INV);
        assert_eq!(
            a1,
            vec![WorkerAction::TriggerFunction {
                workflow: WF,
                invocation: INV,
                function: FunctionId::new(0)
            }]
        );
        let a2 = e2.begin_invocation(&ctx, WF, INV);
        assert!(a2.is_empty(), "entry node is not on worker 2");
    }

    #[test]
    fn local_successor_triggers_without_network() {
        let (ctx, mut e1, _e2) = setup();
        e1.begin_invocation(&ctx, WF, INV);
        let actions = e1.on_instance_complete(WF, INV, FunctionId::new(0));
        assert_eq!(
            actions,
            vec![WorkerAction::TriggerFunction {
                workflow: WF,
                invocation: INV,
                function: FunctionId::new(1)
            }]
        );
        assert_eq!(e1.stats().local_updates.get(), 1);
        assert_eq!(e1.stats().syncs_sent.get(), 0);
    }

    #[test]
    fn cross_worker_successor_produces_one_sync() {
        let (ctx, mut e1, mut e2) = setup();
        e1.begin_invocation(&ctx, WF, INV);
        e1.on_instance_complete(WF, INV, FunctionId::new(0));
        let actions = e1.on_instance_complete(WF, INV, FunctionId::new(1));
        let w_c = ctx.assignment.worker_of(FunctionId::new(2));
        assert_eq!(
            actions,
            vec![WorkerAction::SyncState {
                to: w_c,
                workflow: WF,
                invocation: INV,
                completed: FunctionId::new(1)
            }]
        );
        assert_eq!(e1.stats().syncs_sent.get(), 1);
        // Worker 2 receives the sync and triggers c.
        let actions = e2.on_state_sync(&ctx, WF, INV, FunctionId::new(1));
        assert_eq!(
            actions,
            vec![WorkerAction::TriggerFunction {
                workflow: WF,
                invocation: INV,
                function: FunctionId::new(2)
            }]
        );
    }

    /// A crash drops the trigger state but not the run's message counts.
    #[test]
    fn crash_keeps_the_message_counters() {
        let (ctx, mut e1, _e2) = setup();
        e1.begin_invocation(&ctx, WF, INV);
        e1.on_instance_complete(WF, INV, FunctionId::new(0));
        e1.on_instance_complete(WF, INV, FunctionId::new(1));
        e1.crash();
        assert_eq!(e1.live_invocations(), 0);
        assert_eq!(e1.stats().local_updates.get(), 1);
        assert_eq!(e1.stats().syncs_sent.get(), 1);
        assert!(e1.stats().triggers.get() > 0);
    }

    #[test]
    fn exit_completion_is_reported() {
        let (ctx, mut e1, mut e2) = setup();
        e1.begin_invocation(&ctx, WF, INV);
        e1.on_instance_complete(WF, INV, FunctionId::new(0));
        e1.on_instance_complete(WF, INV, FunctionId::new(1));
        e2.on_state_sync(&ctx, WF, INV, FunctionId::new(1));
        let actions = e2.on_instance_complete(WF, INV, FunctionId::new(2));
        assert_eq!(
            actions,
            vec![WorkerAction::ExitComplete {
                workflow: WF,
                invocation: INV,
                function: FunctionId::new(2)
            }]
        );
    }

    #[test]
    fn release_frees_state() {
        let (ctx, mut e1, _e2) = setup();
        e1.begin_invocation(&ctx, WF, INV);
        assert_eq!(e1.live_invocations(), 1);
        e1.release_invocation(WF, INV);
        assert_eq!(e1.live_invocations(), 0);
    }

    #[test]
    fn foreach_node_completes_after_all_instances() {
        let wf = Workflow::steps(
            "fe",
            Step::foreach("work", FunctionProfile::with_millis(1, 0), 3),
        );
        let dag = Arc::new(DagParser::default().parse(&wf).unwrap());
        let metrics = RuntimeMetrics::initial(&dag);
        let workers = vec![WorkerInfo::new(NodeId::new(1), 64)];
        let mut rng = SimRng::seed_from(1);
        let asg = Arc::new(
            GraphScheduler::default()
                .partition(
                    &dag,
                    &workers,
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .unwrap(),
        );
        let ctx = WorkflowCtx::new(dag.clone(), asg, 7);
        let mut eng = WorkerEngine::new(NodeId::new(1));
        let first = eng.begin_invocation(&ctx, WF, INV);
        // Entry is the virtual start; runtime completes it instantly:
        let vs = match &first[0] {
            WorkerAction::TriggerFunction { function, .. } => *function,
            other => panic!("unexpected action {other:?}"),
        };
        // The runtime would call instance-complete for the virtual node.
        let actions = eng.on_instance_complete(WF, INV, vs);
        let work = match &actions[0] {
            WorkerAction::TriggerFunction { function, .. } => *function,
            other => panic!("unexpected action {other:?}"),
        };
        assert_eq!(dag.node(work).parallelism, 3);
        assert!(eng.on_instance_complete(WF, INV, work).is_empty());
        assert!(eng.on_instance_complete(WF, INV, work).is_empty());
        let done = eng.on_instance_complete(WF, INV, work);
        assert!(!done.is_empty(), "third instance completes the node");
    }

    /// Replay re-runs each completed node through the live propagation
    /// path: local successor counts always, a sync or exit report only for
    /// a node this worker hosts whose effects no durable record covers.
    #[test]
    fn replay_resends_only_unrecorded_effects() {
        let (a, b, c) = (FunctionId::new(0), FunctionId::new(1), FunctionId::new(2));
        let (ctx, mut e1, mut e2) = setup();
        let sync_b = WorkerAction::SyncState {
            to: ctx.assignment.worker_of(c),
            workflow: WF,
            invocation: INV,
            completed: b,
        };
        assert_eq!(
            e1.replay_invocation(&ctx, WF, INV, &[a, b], &[], &[]),
            [sync_b]
        );
        let trigger_c = WorkerAction::TriggerFunction {
            workflow: WF,
            invocation: INV,
            function: c,
        };
        // Worker 2 hosts neither a nor b: it only re-counts c's predecessor.
        assert_eq!(
            e2.replay_invocation(&ctx, WF, INV, &[a, b], &[], &[]),
            [trigger_c]
        );
        assert_eq!(e2.stats().syncs_sent.get(), 0);

        let (ctx, mut e1, _e2) = setup();
        assert!(e1
            .replay_invocation(&ctx, WF, INV, &[a, b], &[b], &[])
            .is_empty());
        assert_eq!(e1.stats().local_updates.get(), 1, "a -> b still counted");
        // A replayed tracker resumes like a live one.
        let (ctx, mut e1, _e2) = setup();
        let trigger_b = WorkerAction::TriggerFunction {
            workflow: WF,
            invocation: INV,
            function: b,
        };
        assert_eq!(
            e1.replay_invocation(&ctx, WF, INV, &[a], &[], &[]),
            [trigger_b]
        );
        assert_eq!(e1.on_instance_complete(WF, INV, b).len(), 1, "b's sync");
    }
}
