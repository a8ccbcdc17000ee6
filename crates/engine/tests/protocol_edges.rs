//! Edge cases of the engine protocols that the unit tests don't reach:
//! out-of-order state syncs, the handoff between two deployments of a
//! workflow (partition iterations), any-join deduplication, and
//! multi-invocation isolation.

use std::sync::Arc;

use faasflow_engine::{MasterAction, MasterEngine, WorkerAction, WorkerEngine, WorkflowCtx};
use faasflow_scheduler::{Assignment, Group};
use faasflow_sim::{FunctionId, GroupId, InvocationId, NodeId, WorkflowId};
use faasflow_wdl::{DagParser, FunctionProfile, Step, SwitchCase, Workflow, WorkflowDag};

const WF: WorkflowId = WorkflowId::new(0);

fn p() -> FunctionProfile {
    FunctionProfile::with_millis(1, 1000)
}

fn node(dag: &WorkflowDag, name: &str) -> FunctionId {
    dag.nodes().iter().find(|x| x.name == name).unwrap().id
}

/// A deployment of `dag` with every node on worker 1 except `moved`, each
/// on the worker it names; one group per worker.
fn placed(dag: &Arc<WorkflowDag>, moved: &[(FunctionId, u32)]) -> WorkflowCtx {
    let mut node_of = vec![NodeId::new(1); dag.node_count()];
    for &(f, w) in moved {
        node_of[f.index()] = NodeId::new(w);
    }
    let mut workers = node_of.clone();
    workers.sort_unstable();
    workers.dedup();
    let group_of: Vec<GroupId> = node_of
        .iter()
        .map(|w| GroupId::new(workers.binary_search(w).unwrap() as u32))
        .collect();
    let groups = workers
        .iter()
        .enumerate()
        .map(|(g, &worker)| {
            let members: Vec<FunctionId> = (0..dag.node_count())
                .map(FunctionId::from)
                .filter(|f| node_of[f.index()] == worker)
                .collect();
            Group {
                id: GroupId::new(g as u32),
                capacity_needed: members.len() as u32,
                members,
                worker,
            }
        })
        .collect();
    let assignment = Assignment {
        groups,
        node_of,
        group_of,
        storage_local: vec![false; dag.node_count()],
        mem_consume: 0,
        quota: 0,
    };
    WorkflowCtx::new(dag.clone(), Arc::new(assignment), 3)
}

/// A fan-in: {a, b} -> c, parsed as `vs -> {a, b} -> ve -> c`, in two
/// deployments: `split` puts `b` on worker 2 and the rest on worker 1;
/// `joined` also moves the join `ve` and `c` to worker 2.
fn fan_in() -> (WorkflowCtx, WorkflowCtx) {
    let wf = Workflow::steps(
        "fan",
        Step::sequence(vec![
            Step::parallel(vec![Step::task("a", p()), Step::task("b", p())]),
            Step::task("c", p()),
        ]),
    );
    let dag = Arc::new(DagParser::default().parse(&wf).unwrap());
    let (b, ve, c) = (node(&dag, "b"), join(&dag), node(&dag, "c"));
    let split = placed(&dag, &[(b, 2)]);
    (split, placed(&dag, &[(b, 2), (ve, 2), (c, 2)]))
}

/// The fan-in's join `ve`, the one predecessor of `c`.
fn join(dag: &WorkflowDag) -> FunctionId {
    dag.predecessors(node(dag, "c"))[0].1
}

/// Walks an action list, completing any local virtual/function trigger
/// inline, and returns every TriggerFunction target seen.
fn drain_local(
    engine: &mut WorkerEngine,
    inv: InvocationId,
    mut actions: Vec<WorkerAction>,
) -> (Vec<FunctionId>, Vec<WorkerAction>) {
    let mut triggered = Vec::new();
    let mut external = Vec::new();
    while let Some(action) = actions.pop() {
        match action {
            WorkerAction::TriggerFunction { function, .. } => {
                triggered.push(function);
                actions.extend(engine.on_instance_complete(WF, inv, function));
            }
            other => external.push(other),
        }
    }
    (triggered, external)
}

#[test]
fn sync_arriving_before_begin_still_works() {
    // Worker 2 learns about a remote completion before it ever saw the
    // invocation begin — §3.1's decentralized engines must cope, because
    // message timing across workers is unordered.
    let (ctx, _) = fan_in();
    let (mut e1, mut e2) = (
        WorkerEngine::new(NodeId::new(1)),
        WorkerEngine::new(NodeId::new(2)),
    );
    let inv = InvocationId::new(9);
    // Worker 1 runs the virtual start and `a`; worker 2 has NOT begun.
    let begin = e1.begin_invocation(&ctx, WF, inv);
    let (_, external) = drain_local(&mut e1, inv, begin);
    // The virtual start's completion must have produced a sync to w2.
    let sync = external
        .iter()
        .find_map(|a| match a {
            WorkerAction::SyncState { to, completed, .. } if to.index() == 2 => Some(*completed),
            _ => None,
        })
        .expect("cross-worker successor b needs a sync");
    // Deliver it to worker 2 *before* any begin call.
    let actions = e2.on_state_sync(&ctx, WF, inv, sync);
    let (triggered, _) = drain_local(&mut e2, inv, actions);
    assert_eq!(
        triggered,
        vec![node(&ctx.dag, "b")],
        "b triggers from the sync alone"
    );
}

fn trigger(inv: InvocationId, function: FunctionId) -> WorkerAction {
    WorkerAction::TriggerFunction {
        workflow: WF,
        invocation: inv,
        function,
    }
}

#[test]
fn begin_pins_the_context_a_later_sync_cannot_move() {
    // A repartition lands mid-flight: the sync about `b` carries `joined`,
    // which puts the join on worker 2. Worker 1 began under `split`, so it
    // still hosts the join and triggers it.
    let (split, joined) = fan_in();
    let (b, ve, c) = (
        node(&split.dag, "b"),
        join(&split.dag),
        node(&split.dag, "c"),
    );
    let mut e1 = WorkerEngine::new(NodeId::new(1));
    let inv = InvocationId::new(0);
    let begin = e1.begin_invocation(&split, WF, inv);
    drain_local(&mut e1, inv, begin);
    let actions = e1.on_state_sync(&joined, WF, inv, b);
    assert_eq!(actions, [trigger(inv, ve)]);
    let (triggered, external) = drain_local(&mut e1, inv, actions);
    assert_eq!(triggered, [ve, c], "c stays on worker 1 too");
    assert!(matches!(external[..], [WorkerAction::ExitComplete { function, .. }] if function == c));
}

#[test]
fn an_early_sync_pins_the_context_a_later_sync_cannot_move() {
    // Worker 2 first hears of the invocation through the sync about the
    // virtual start, under `joined`: it hosts b and the join. The sync
    // about `a` carries `split`, which puts the join on worker 1; the
    // engine still counts it as local and triggers it.
    let (split, joined) = fan_in();
    let (a, ve) = (node(&split.dag, "a"), join(&split.dag));
    let vs = split.dag.entry_nodes()[0];
    let mut e2 = WorkerEngine::new(NodeId::new(2));
    let inv = InvocationId::new(0);
    let actions = e2.on_state_sync(&joined, WF, inv, vs);
    let (triggered, external) = drain_local(&mut e2, inv, actions);
    assert_eq!(triggered, [node(&split.dag, "b")]);
    assert!(external.is_empty(), "b -> ve is local under the pin");
    assert_eq!(e2.on_state_sync(&split, WF, inv, a), [trigger(inv, ve)]);
}

#[test]
fn master_assigns_by_the_deployment_each_state_return_carries() {
    // MasterSP routes by the current deployment: the state return that
    // completes the join carries `joined`, so c goes to worker 2 although
    // the invocation began under `split`.
    let (split, joined) = fan_in();
    let (a, b, c) = (
        node(&split.dag, "a"),
        node(&split.dag, "b"),
        node(&split.dag, "c"),
    );
    let mut master = MasterEngine::new();
    let inv = InvocationId::new(0);
    let assign = |worker: u32, function| MasterAction::AssignTask {
        worker: NodeId::new(worker),
        workflow: WF,
        invocation: inv,
        function,
    };
    let begin = master.begin_invocation(&split, WF, inv);
    assert_eq!(begin, [assign(1, a), assign(2, b)]);
    assert!(master.on_state_return(&split, WF, inv, a).is_empty());
    assert_eq!(master.on_state_return(&joined, WF, inv, b), [assign(2, c)]);
}

#[test]
fn any_join_triggers_once_for_multiple_arms() {
    // A switch where both arms' workers race their completions at the
    // virtual end: the end node must trigger exactly once.
    let wf = Workflow::steps(
        "sw",
        Step::sequence(vec![
            Step::switch(vec![
                SwitchCase::new("x", Step::task("x", p())),
                SwitchCase::new("y", Step::task("y", p())),
            ]),
            Step::task("after", p()),
        ]),
    );
    let dag = Arc::new(DagParser::default().parse(&wf).unwrap());
    let ctx = placed(&dag, &[]);
    let mut engine = WorkerEngine::new(NodeId::new(1));
    for inv_idx in 0..16 {
        let inv = InvocationId::new(inv_idx);
        let begin = engine.begin_invocation(&ctx, WF, inv);
        let (triggered, external) = drain_local(&mut engine, inv, begin);
        // Exactly one arm + brackets + after; never both arms.
        let x = dag.nodes().iter().find(|n| n.name == "x").unwrap().id;
        let y = dag.nodes().iter().find(|n| n.name == "y").unwrap().id;
        let ran_x = triggered.contains(&x);
        let ran_y = triggered.contains(&y);
        assert!(ran_x ^ ran_y, "exactly one switch arm per invocation");
        let after = dag.nodes().iter().find(|n| n.name == "after").unwrap().id;
        assert_eq!(
            triggered.iter().filter(|&&f| f == after).count(),
            1,
            "the any-join must fire exactly once"
        );
        assert!(
            external
                .iter()
                .all(|a| matches!(a, WorkerAction::ExitComplete { .. })),
            "single-worker run emits no syncs"
        );
        engine.release_invocation(WF, inv);
    }
    assert_eq!(engine.live_invocations(), 0);
}

#[test]
fn concurrent_invocations_do_not_interfere() {
    let (ctx, _) = fan_in();
    let mut e1 = WorkerEngine::new(NodeId::new(1));
    // Interleave two invocations through worker 1 only.
    let i0 = InvocationId::new(0);
    let i1 = InvocationId::new(1);
    let b0 = e1.begin_invocation(&ctx, WF, i0);
    let b1 = e1.begin_invocation(&ctx, WF, i1);
    let (t0, _) = drain_local(&mut e1, i0, b0);
    let (t1, _) = drain_local(&mut e1, i1, b1);
    assert_eq!(t0, t1, "identical workflows take identical local paths");
    assert_eq!(e1.live_invocations(), 2);
    e1.release_invocation(WF, i0);
    assert_eq!(e1.live_invocations(), 1);
}
