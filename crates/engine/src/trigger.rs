//! Shared trigger-state tracking — the paper's `State` structure (§3.1).
//!
//! "*State* preserves the execution state of functions and their
//! predecessors for invocation synchronization and local triggering. [...]
//! If the *PredecessorsDone* count of a function reaches its target
//! *PredecessorsCount*, the local engine will trigger and invoke it."
//!
//! Both engines use one [`TriggerTracker`] per invocation. Switch arms are
//! chosen by a deterministic hash of `(seed, invocation, switch node)`, so
//! every engine in the cluster independently picks the same arm without
//! coordination.
//!
//! A [`WorkflowCtx`] is what a workflow is deployed as. The runtime hands
//! each engine call the context it routes by: MasterSP routes by the
//! current deployment; a worker engine pins the context of the first call
//! that reaches it for an invocation.

use std::sync::Arc;

use faasflow_scheduler::Assignment;
use faasflow_sim::{FunctionId, InvocationId};
use faasflow_wdl::{NodeKind, WorkflowDag};

/// A workflow as it is deployed: the DAG, its placement and the
/// switch-arm seed. Cloning it clones two `Arc`s, so pinning an
/// invocation to a deployment never copies the partition; an old
/// deployment is freed when its last clone drops.
#[derive(Debug, Clone)]
pub struct WorkflowCtx {
    /// The workflow DAG.
    pub dag: Arc<WorkflowDag>,
    /// The placement of its nodes.
    pub assignment: Arc<Assignment>,
    /// The switch-arm seed, identical on every engine of the cluster.
    pub seed: u64,
}

impl WorkflowCtx {
    /// Bundles a deployment.
    pub fn new(dag: Arc<WorkflowDag>, assignment: Arc<Assignment>, seed: u64) -> Self {
        WorkflowCtx {
            dag,
            assignment,
            seed,
        }
    }

    /// A fresh trigger tracker for one invocation of this workflow.
    pub(crate) fn tracker(&self, invocation: InvocationId) -> TriggerTracker {
        TriggerTracker::new(self.dag.clone(), invocation, self.seed)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    predecessors_done: u32,
    triggered: bool,
    done: bool,
    instances_done: u32,
    /// This engine already processed the node's completion (propagated it
    /// to successors / sent syncs). Receiver-side dedup: a duplicate sync
    /// about an already-propagated node must not count a predecessor twice.
    propagated: bool,
}

/// Per-invocation trigger state over one workflow DAG: one [`NodeState`]
/// per DAG node, indexed by [`FunctionId::index`].
#[derive(Debug, Clone)]
pub struct TriggerTracker {
    dag: Arc<WorkflowDag>,
    invocation: InvocationId,
    seed: u64,
    states: Vec<NodeState>,
}

impl TriggerTracker {
    /// Creates the tracker for one invocation. `seed` feeds the switch-arm
    /// hash and must be identical on every engine of the cluster.
    pub fn new(dag: Arc<WorkflowDag>, invocation: InvocationId, seed: u64) -> Self {
        TriggerTracker {
            states: vec![NodeState::default(); dag.node_count()],
            dag,
            invocation,
            seed,
        }
    }

    /// The DAG this tracker runs over.
    pub fn dag(&self) -> &Arc<WorkflowDag> {
        &self.dag
    }

    /// The deterministically chosen arm of a switch virtual-start node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a switch start.
    pub fn chosen_arm(&self, node: FunctionId) -> u32 {
        let arms = match self.dag.node(node).kind {
            NodeKind::VirtualStart {
                switch_arms: Some(arms),
            } => arms,
            _ => panic!("chosen_arm on a non-switch node {node}"),
        };
        // SplitMix64 finalizer over (seed, invocation, node).
        let mut z = self
            .seed
            .wrapping_add(u64::from(self.invocation.index() as u32) << 32)
            .wrapping_add(node.index() as u64)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % u64::from(arms)) as u32
    }

    /// Marks a node as triggered without predecessor accounting (entry
    /// nodes). Returns `false` when it was already triggered.
    pub fn force_trigger(&mut self, node: FunctionId) -> bool {
        let st = &mut self.states[node.index()];
        if st.triggered {
            false
        } else {
            st.triggered = true;
            true
        }
    }

    /// Records that one predecessor of `node` completed. Returns `true`
    /// when this update triggers `node` (reaches `PredecessorsCount`, or
    /// the first completion for an any-join node).
    pub fn predecessor_done(&mut self, node: FunctionId) -> bool {
        let required = self.dag.required_predecessors(node);
        let st = &mut self.states[node.index()];
        st.predecessors_done += 1;
        if !st.triggered && st.predecessors_done >= required {
            st.triggered = true;
            true
        } else {
            false
        }
    }

    /// Records completion of one executor instance of `node`. Returns
    /// `true` when the whole node just completed (all `parallelism`
    /// instances done).
    ///
    /// # Panics
    ///
    /// Panics if the node was never triggered, completed twice, or received
    /// more instance completions than its parallelism.
    pub fn instance_done(&mut self, node: FunctionId) -> bool {
        let parallelism = self.dag.node(node).parallelism;
        let st = &mut self.states[node.index()];
        assert!(st.triggered, "instance completion for untriggered {node}");
        assert!(!st.done, "instance completion after node {node} completed");
        st.instances_done += 1;
        assert!(
            st.instances_done <= parallelism,
            "more instance completions than parallelism for {node}"
        );
        if st.instances_done == parallelism {
            st.done = true;
            true
        } else {
            false
        }
    }

    /// Replay: marks `node` fully completed without the incremental
    /// instance accounting — triggered, done, every instance counted.
    /// Idempotent; used when rebuilding a tracker from durable history.
    pub fn force_done(&mut self, node: FunctionId) {
        let parallelism = self.dag.node(node).parallelism;
        let st = &mut self.states[node.index()];
        st.triggered = true;
        st.done = true;
        st.instances_done = parallelism;
    }

    /// Replay: seeds the instance-completion count of an in-flight `node`
    /// with completions the engine would otherwise never hear about again
    /// (they were reported while the engine was down). Also marks the node
    /// triggered.
    ///
    /// # Panics
    ///
    /// Panics if `done` exceeds the node's parallelism.
    pub fn set_instances_done(&mut self, node: FunctionId, done: u32) {
        let parallelism = self.dag.node(node).parallelism;
        assert!(
            done <= parallelism,
            "seeding {done} instance completions on {node} with parallelism {parallelism}"
        );
        let st = &mut self.states[node.index()];
        st.triggered = true;
        st.instances_done = done;
    }

    /// Marks `node`'s completion as processed by this engine (successor
    /// propagation done). Returns `false` when it already was — the
    /// duplicate-sync suppression signal.
    pub fn mark_propagated(&mut self, node: FunctionId) -> bool {
        let st = &mut self.states[node.index()];
        if st.propagated {
            false
        } else {
            st.propagated = true;
            true
        }
    }

    /// True once every instance of `node` completed.
    pub fn is_done(&self, node: FunctionId) -> bool {
        self.states[node.index()].done
    }

    /// The successors that must learn about `node`'s completion, with
    /// switch-arm edges of non-chosen arms filtered out.
    pub fn successors_to_notify(&self, node: FunctionId) -> Vec<FunctionId> {
        let is_switch = matches!(
            self.dag.node(node).kind,
            NodeKind::VirtualStart {
                switch_arms: Some(_)
            }
        );
        let arm = is_switch.then(|| self.chosen_arm(node));
        self.dag
            .successors(node)
            .iter()
            .filter(|&&(eid, _)| match (arm, self.dag.edge(eid).switch_arm) {
                (Some(chosen), Some(a)) => a == chosen,
                _ => true,
            })
            .map(|&(_, s)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_wdl::{DagParser, FunctionProfile, Step, SwitchCase, Workflow};

    fn parse(step: Step) -> Arc<WorkflowDag> {
        Arc::new(
            DagParser::default()
                .parse(&Workflow::steps("t", step))
                .expect("valid workflow"),
        )
    }

    fn p() -> FunctionProfile {
        FunctionProfile::with_millis(1, 10)
    }

    #[test]
    fn all_join_waits_for_every_predecessor() {
        // a -> {b, c} -> d: d needs both.
        let dag = parse(Step::sequence(vec![
            Step::task("a", p()),
            Step::parallel(vec![Step::task("b", p()), Step::task("c", p())]),
            Step::task("d", p()),
        ]));
        let ve = dag
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, NodeKind::VirtualEnd))
            .unwrap()
            .id;
        let mut tr = TriggerTracker::new(dag, InvocationId::new(0), 1);
        assert!(!tr.predecessor_done(ve), "first branch does not trigger");
        assert!(tr.predecessor_done(ve), "second branch triggers");
        assert!(!tr.predecessor_done(ve), "extra updates never re-trigger");
    }

    #[test]
    fn instance_counting_completes_foreach() {
        let dag = parse(Step::foreach("fe", p(), 3));
        let fe = dag.nodes().iter().find(|n| n.name == "fe").unwrap().id;
        let mut tr = TriggerTracker::new(dag, InvocationId::new(0), 1);
        tr.force_trigger(fe);
        assert!(!tr.instance_done(fe));
        assert!(!tr.instance_done(fe));
        assert!(tr.instance_done(fe), "third instance completes the node");
        assert!(tr.is_done(fe));
    }

    #[test]
    #[should_panic(expected = "untriggered")]
    fn instance_before_trigger_panics() {
        let dag = parse(Step::task("a", p()));
        let a = dag.nodes()[0].id;
        let mut tr = TriggerTracker::new(dag, InvocationId::new(0), 1);
        tr.instance_done(a);
    }

    #[test]
    fn force_done_is_idempotent_and_counts_all_instances() {
        let dag = parse(Step::foreach("fe", p(), 3));
        let fe = dag.nodes().iter().find(|n| n.name == "fe").unwrap().id;
        let mut tr = TriggerTracker::new(dag, InvocationId::new(0), 1);
        tr.force_done(fe);
        tr.force_done(fe);
        assert!(tr.is_done(fe));
        assert!(
            !tr.force_trigger(fe),
            "force_done also marks the node triggered"
        );
    }

    #[test]
    fn seeded_instances_resume_counting() {
        let dag = parse(Step::foreach("fe", p(), 3));
        let fe = dag.nodes().iter().find(|n| n.name == "fe").unwrap().id;
        let mut tr = TriggerTracker::new(dag, InvocationId::new(0), 1);
        tr.set_instances_done(fe, 2);
        assert!(!tr.is_done(fe));
        assert!(
            tr.instance_done(fe),
            "one live completion finishes the node"
        );
    }

    #[test]
    fn propagation_marks_deduplicate() {
        let dag = parse(Step::task("a", p()));
        let a = dag.nodes()[0].id;
        let mut tr = TriggerTracker::new(dag, InvocationId::new(0), 1);
        assert!(tr.mark_propagated(a));
        assert!(
            !tr.mark_propagated(a),
            "second sync about `a` is a duplicate"
        );
    }

    #[test]
    fn switch_arm_is_deterministic_and_filters_successors() {
        let dag = parse(Step::switch(vec![
            SwitchCase::new("0", Step::task("x", p())),
            SwitchCase::new("1", Step::task("y", p())),
        ]));
        let vs = dag
            .nodes()
            .iter()
            .find(|n| {
                matches!(
                    n.kind,
                    NodeKind::VirtualStart {
                        switch_arms: Some(_)
                    }
                )
            })
            .unwrap()
            .id;
        let a = TriggerTracker::new(dag.clone(), InvocationId::new(7), 99);
        let b = TriggerTracker::new(dag.clone(), InvocationId::new(7), 99);
        assert_eq!(a.chosen_arm(vs), b.chosen_arm(vs), "same inputs, same arm");
        let notified = a.successors_to_notify(vs);
        assert_eq!(notified.len(), 1, "only the chosen arm is notified");
        // Different invocations eventually pick different arms.
        let arms: faasflow_sim::FastSet<u32> = (0..64)
            .map(|i| TriggerTracker::new(dag.clone(), InvocationId::new(i), 99).chosen_arm(vs))
            .collect();
        assert_eq!(arms.len(), 2, "both arms exercised across invocations");
    }

    #[test]
    fn force_trigger_is_idempotent() {
        let dag = parse(Step::task("a", p()));
        let a = dag.nodes()[0].id;
        let mut tr = TriggerTracker::new(dag, InvocationId::new(0), 1);
        assert!(tr.force_trigger(a));
        assert!(!tr.force_trigger(a));
    }

    #[test]
    fn non_switch_successors_all_notified() {
        let dag = parse(Step::sequence(vec![
            Step::task("a", p()),
            Step::parallel(vec![Step::task("b", p()), Step::task("c", p())]),
        ]));
        let vs = dag
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, NodeKind::VirtualStart { switch_arms: None }))
            .unwrap()
            .id;
        let tr = TriggerTracker::new(dag, InvocationId::new(0), 1);
        assert_eq!(tr.successors_to_notify(vs).len(), 2);
    }
}
