//! The central workflow engine — MasterSP / HyperFlow-serverless (§2.2).
//!
//! "Master node collects the execution states of functions from the worker
//! nodes and determines whether functions in the workflow meet their
//! trigger conditions. Once predecessors of function f are all completed,
//! task T_f will be triggered and assigned to a worker node for invocation,
//! and returned with the execution state."
//!
//! Every triggered task costs a master→worker assignment message and a
//! worker→master state return (stages 1 and 3 of §2.3); the cluster
//! simulation charges both plus the master's per-message CPU occupancy,
//! which is where MasterSP's scheduling overhead comes from.
//!
//! Placement uses the same [`Assignment`](faasflow_scheduler::Assignment)
//! as FaaSFlow ("we also modify the routing policy in HyperFlow-serverless
//! to the same way as in FaaSFlow, which satisfies the control variate
//! method", §5.1). Every call that can assign a task takes the workflow's
//! current deployment, so a task is always assigned by the newest
//! partition.

use faasflow_sim::stats::Counter;
use faasflow_sim::{FastMap, FunctionId, InvocationId, NodeId, WorkflowId};

use crate::trigger::{TriggerTracker, WorkflowCtx};

/// What the master engine asks the runtime to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterAction {
    /// Assign a function task to a worker (a TCP message master→worker).
    /// Virtual nodes are not shipped: the master completes them inline.
    AssignTask {
        /// Destination worker.
        worker: NodeId,
        /// The workflow.
        workflow: WorkflowId,
        /// The invocation.
        invocation: InvocationId,
        /// The function to run.
        function: FunctionId,
    },
    /// A DAG exit node completed — report towards the client.
    ExitComplete {
        /// The workflow.
        workflow: WorkflowId,
        /// The invocation.
        invocation: InvocationId,
        /// The completed exit node.
        function: FunctionId,
    },
}

/// Counters for §2.3 / §5.2's message accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct MasterEngineStats {
    /// Task assignments sent to workers.
    pub tasks_assigned: Counter,
    /// Execution states received back.
    pub state_returns: Counter,
}

/// The central engine of the MasterSP baseline.
#[derive(Debug, Default)]
pub struct MasterEngine {
    invocations: FastMap<(WorkflowId, InvocationId), TriggerTracker>,
    stats: MasterEngineStats,
}

impl MasterEngine {
    /// Creates an empty central engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Message counters.
    pub fn stats(&self) -> &MasterEngineStats {
        &self.stats
    }

    /// Live invocation state structures.
    pub fn live_invocations(&self) -> usize {
        self.invocations.len()
    }

    /// The engine process dies and comes back: every invocation's trigger
    /// state is lost. The message counters count over the whole run.
    pub fn crash(&mut self) {
        self.invocations.clear();
    }

    /// Starts an invocation of the workflow deployed as `ctx`: triggers
    /// the DAG's entry nodes.
    pub fn begin_invocation(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
    ) -> Vec<MasterAction> {
        self.invocations
            .entry((workflow, invocation))
            .or_insert_with(|| ctx.tracker(invocation));
        self.trigger_entries(ctx, workflow, invocation)
    }

    /// Triggers the DAG's entry nodes that are not triggered yet and
    /// dispatches them (virtual entries cascade inline).
    fn trigger_entries(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
    ) -> Vec<MasterAction> {
        let tracker = self
            .invocations
            .get_mut(&(workflow, invocation))
            .expect("tracker alive at entry");
        let entries = tracker.dag().entry_nodes();
        let triggered = entries
            .into_iter()
            .filter(|&entry| tracker.force_trigger(entry))
            .collect();
        self.dispatch(ctx, workflow, invocation, triggered)
    }

    /// Handles an execution-state return from a worker: one executor
    /// instance of `function` completed there. Successors it triggers are
    /// assigned by `ctx`, the workflow's current deployment.
    ///
    /// An unknown invocation is ignored (returns no actions): after an
    /// engine crash this engine comes back blank, and a state return for a
    /// pre-crash invocation may still be in flight — the recovery layer
    /// owns reconciling it.
    pub fn on_state_return(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
        function: FunctionId,
    ) -> Vec<MasterAction> {
        self.stats.state_returns.inc();
        let Some(tracker) = self.invocations.get_mut(&(workflow, invocation)) else {
            return Vec::new();
        };
        if !tracker.instance_done(function) {
            return Vec::new();
        }
        self.propagate(ctx, workflow, invocation, vec![function], &[])
    }

    /// Drops the invocation's state.
    pub fn release_invocation(&mut self, workflow: WorkflowId, invocation: InvocationId) {
        self.invocations.remove(&(workflow, invocation));
    }

    /// Whether this engine has recorded `function` as fully completed for
    /// the invocation (all state returns in).
    pub fn node_done(
        &self,
        workflow: WorkflowId,
        invocation: InvocationId,
        function: FunctionId,
    ) -> bool {
        self.invocations
            .get(&(workflow, invocation))
            .is_some_and(|t| t.is_done(function))
    }

    /// Crash recovery: rebuilds this invocation's tracker over `ctx`, the
    /// workflow's current deployment, from durable history and returns the
    /// actions needed to resume it.
    ///
    /// * `completed` — function nodes known to have fully completed
    ///   (virtual nodes are re-derived inline, as in normal operation).
    /// * `already_propagated` — completions whose downstream effects were
    ///   durably journaled; their exit reports are not re-emitted.
    /// * `inflight` — `(node, completions)` seeds for nodes still running,
    ///   covering state returns lost while the engine was down.
    ///
    /// Emitted `AssignTask`/`ExitComplete` actions may duplicate pre-crash
    /// ones; the runtime's dispatch and exit-report dedup drop those.
    pub fn replay_invocation(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
        completed: &[FunctionId],
        already_propagated: &[FunctionId],
        inflight: &[(FunctionId, u32)],
    ) -> Vec<MasterAction> {
        let mut tracker = ctx.tracker(invocation);
        // Mark every known completion up front so the cascades below can
        // neither re-trigger nor re-complete them.
        for &f in completed {
            tracker.force_done(f);
        }
        self.invocations.insert((workflow, invocation), tracker);
        // Entry nodes that never completed re-trigger; then each completed
        // node's downstream effects re-run through the fresh tracker.
        let mut actions = self.trigger_entries(ctx, workflow, invocation);
        actions.extend(self.propagate(
            ctx,
            workflow,
            invocation,
            completed.to_vec(),
            already_propagated,
        ));
        // Seed in-flight instance counts: state returns that were lost at
        // the dead engine will never be re-sent.
        let tracker = self
            .invocations
            .get_mut(&(workflow, invocation))
            .expect("tracker alive after replay");
        for &(f, done) in inflight {
            tracker.set_instances_done(f, done);
        }
        actions
    }

    /// Processes node completions, popped from `worklist`: exit reporting
    /// and successor triggering. Virtual nodes complete inline on the
    /// master (they carry no work), which matches the central engine
    /// owning all bookkeeping. Exits in `already_propagated` were reported
    /// before a crash and are not reported again.
    fn propagate(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
        mut worklist: Vec<FunctionId>,
        already_propagated: &[FunctionId],
    ) -> Vec<MasterAction> {
        let tracker = self
            .invocations
            .get_mut(&(workflow, invocation))
            .expect("tracker alive during propagation");
        let dag = tracker.dag().clone();
        let mut actions = Vec::new();
        let mut triggered = Vec::new();
        while let Some(f) = worklist.pop() {
            if !already_propagated.contains(&f) && dag.successors(f).is_empty() {
                actions.push(MasterAction::ExitComplete {
                    workflow,
                    invocation,
                    function: f,
                });
            }
            for s in tracker.successors_to_notify(f) {
                if tracker.predecessor_done(s) {
                    if dag.node(s).kind.is_function() {
                        triggered.push(s);
                    } else if tracker.instance_done(s) {
                        // Virtual node: completes instantly in the master.
                        worklist.push(s);
                    }
                }
            }
        }
        actions.extend(self.dispatch(ctx, workflow, invocation, triggered));
        actions
    }

    /// Emits task assignments for triggered *function* nodes; virtual
    /// entry nodes cascade inline.
    fn dispatch(
        &mut self,
        ctx: &WorkflowCtx,
        workflow: WorkflowId,
        invocation: InvocationId,
        triggered: Vec<FunctionId>,
    ) -> Vec<MasterAction> {
        let mut actions = Vec::new();
        for f in triggered {
            if ctx.dag.node(f).kind.is_function() {
                self.stats.tasks_assigned.inc();
                actions.push(MasterAction::AssignTask {
                    worker: ctx.assignment.worker_of(f),
                    workflow,
                    invocation,
                    function: f,
                });
            } else {
                // A virtual entry node: complete inline and cascade.
                let tracker = self
                    .invocations
                    .get_mut(&(workflow, invocation))
                    .expect("tracker alive in dispatch");
                if tracker.instance_done(f) {
                    actions.extend(self.propagate(ctx, workflow, invocation, vec![f], &[]));
                }
            }
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

    const WF: WorkflowId = WorkflowId::new(0);
    const INV: InvocationId = InvocationId::new(0);

    fn build(step: Step, workers: u32) -> (WorkflowCtx, MasterEngine) {
        let wf = Workflow::steps("m", step);
        let dag = Arc::new(DagParser::default().parse(&wf).unwrap());
        let metrics = RuntimeMetrics::initial(&dag);
        let ws: Vec<WorkerInfo> = (0..workers)
            .map(|i| WorkerInfo::new(NodeId::new(i + 1), 64))
            .collect();
        let mut rng = SimRng::seed_from(3);
        let asg = Arc::new(
            GraphScheduler::default()
                .partition(
                    &dag,
                    &ws,
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .unwrap(),
        );
        (WorkflowCtx::new(dag, asg, 11), MasterEngine::new())
    }

    fn p(out: u64) -> FunctionProfile {
        FunctionProfile::with_millis(1, out)
    }

    #[test]
    fn chain_assigns_one_task_at_a_time() {
        let (ctx, mut eng) = build(
            Step::sequence(vec![
                Step::task("a", p(10)),
                Step::task("b", p(10)),
                Step::task("c", p(0)),
            ]),
            2,
        );
        let first = eng.begin_invocation(&ctx, WF, INV);
        assert_eq!(first.len(), 1);
        let MasterAction::AssignTask { function: a, .. } = first[0] else {
            panic!("expected an assignment");
        };
        assert_eq!(a, FunctionId::new(0));
        let second = eng.on_state_return(&ctx, WF, INV, a);
        assert_eq!(second.len(), 1);
        assert_eq!(eng.stats().tasks_assigned.get(), 2);
        assert_eq!(eng.stats().state_returns.get(), 1);
    }

    #[test]
    fn parallel_assigns_both_branches_at_once() {
        let (ctx, mut eng) = build(
            Step::sequence(vec![
                Step::task("a", p(10)),
                Step::parallel(vec![Step::task("x", p(1)), Step::task("y", p(1))]),
            ]),
            2,
        );
        let first = eng.begin_invocation(&ctx, WF, INV);
        let MasterAction::AssignTask { function: a, .. } = first[0] else {
            panic!("expected an assignment");
        };
        // a completes; the parallel virtual start cascades inline and both
        // branches are assigned together.
        let actions = eng.on_state_return(&ctx, WF, INV, a);
        let assigned: Vec<FunctionId> = actions
            .iter()
            .filter_map(|act| match act {
                MasterAction::AssignTask { function, .. } => Some(*function),
                _ => None,
            })
            .collect();
        assert_eq!(assigned.len(), 2);
        for f in &assigned {
            assert!(ctx.dag.node(*f).kind.is_function());
        }
    }

    #[test]
    fn exit_complete_fires_at_the_sink() {
        let (ctx, mut eng) = build(
            Step::sequence(vec![Step::task("a", p(10)), Step::task("b", p(0))]),
            1,
        );
        let first = eng.begin_invocation(&ctx, WF, INV);
        let MasterAction::AssignTask { function: a, .. } = first[0] else {
            panic!("expected an assignment");
        };
        let second = eng.on_state_return(&ctx, WF, INV, a);
        let MasterAction::AssignTask { function: b, .. } = second[0] else {
            panic!("expected an assignment");
        };
        let last = eng.on_state_return(&ctx, WF, INV, b);
        assert!(matches!(last[0], MasterAction::ExitComplete { function, .. } if function == b));
    }

    #[test]
    fn foreach_waits_for_all_state_returns() {
        let (ctx, mut eng) = build(Step::foreach("fe", p(0), 3), 2);
        let fe = ctx.dag.nodes().iter().find(|n| n.name == "fe").unwrap().id;
        let first = eng.begin_invocation(&ctx, WF, INV);
        // Entry is the virtual bracket, which cascades inline to assign fe.
        let assigned: Vec<FunctionId> = first
            .iter()
            .filter_map(|a| match a {
                MasterAction::AssignTask { function, .. } => Some(*function),
                _ => None,
            })
            .collect();
        assert_eq!(assigned, vec![fe]);
        assert!(eng.on_state_return(&ctx, WF, INV, fe).is_empty());
        assert!(eng.on_state_return(&ctx, WF, INV, fe).is_empty());
        let done = eng.on_state_return(&ctx, WF, INV, fe);
        assert!(
            done.iter()
                .any(|a| matches!(a, MasterAction::ExitComplete { .. })),
            "third return completes the foreach and the workflow"
        );
    }

    /// A crash drops the trigger state but not the run's message counts.
    #[test]
    fn crash_keeps_the_message_counters() {
        let (ctx, mut eng) = build(Step::task("a", p(0)), 1);
        eng.begin_invocation(&ctx, WF, INV);
        eng.on_state_return(&ctx, WF, INV, FunctionId::new(0));
        eng.crash();
        assert_eq!(eng.live_invocations(), 0);
        assert_eq!(eng.stats().tasks_assigned.get(), 1);
        assert_eq!(eng.stats().state_returns.get(), 1);
    }

    #[test]
    fn release_frees_state() {
        let (ctx, mut eng) = build(Step::task("a", p(0)), 1);
        eng.begin_invocation(&ctx, WF, INV);
        assert_eq!(eng.live_invocations(), 1);
        eng.release_invocation(WF, INV);
        assert_eq!(eng.live_invocations(), 0);
    }

    /// Replay re-runs the completed prefix through the live propagation
    /// path; an exit the journal recorded as reported is not re-emitted.
    #[test]
    fn replay_resumes_and_skips_recorded_exits() {
        let chain = || Step::sequence(vec![Step::task("a", p(10)), Step::task("b", p(0))]);
        let (a, b) = (FunctionId::new(0), FunctionId::new(1));
        let (ctx, mut eng) = build(chain(), 1);
        let resumed = eng.replay_invocation(&ctx, WF, INV, &[a], &[], &[]);
        assert!(
            matches!(resumed[..], [MasterAction::AssignTask { function, .. }] if function == b)
        );
        let exit = MasterAction::ExitComplete {
            workflow: WF,
            invocation: INV,
            function: b,
        };
        assert_eq!(
            eng.on_state_return(&ctx, WF, INV, b),
            std::slice::from_ref(&exit)
        );

        let (ctx, mut eng) = build(chain(), 1);
        assert_eq!(
            eng.replay_invocation(&ctx, WF, INV, &[a, b], &[], &[]),
            [exit]
        );
        let (ctx, mut eng) = build(chain(), 1);
        assert!(eng
            .replay_invocation(&ctx, WF, INV, &[a, b], &[b], &[])
            .is_empty());
        assert_eq!(eng.stats().tasks_assigned.get(), 0);
    }
}
