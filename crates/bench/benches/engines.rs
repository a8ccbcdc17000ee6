//! Microbenchmarks of the engine hot paths: the per-trigger cost of
//! WorkerSP's local state updates versus MasterSP's central dispatch.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use faasflow_core::{Journal, JournalConfig, JournalEvent, JournalRecord, TerminalOutcome};
use faasflow_engine::{MasterAction, MasterEngine, WorkerAction, WorkerEngine, WorkflowCtx};
use faasflow_scheduler::{ContentionSet, GraphScheduler, RuntimeMetrics, WorkerInfo};
use faasflow_sim::{FunctionId, InvocationId, NodeId, SimDuration, SimRng, SimTime, WorkflowId};
use faasflow_wdl::{DagParser, Workflow};
use faasflow_workloads::{scientific, Benchmark};

/// Parses `workflow` and partitions it over `workers` workers of
/// `capacity` containers each (nodes `1..=workers`).
fn setup(workflow: &Workflow, workers: u32, capacity: u32) -> WorkflowCtx {
    let dag = Arc::new(DagParser::default().parse(workflow).expect("parses"));
    let workers: Vec<WorkerInfo> = (0..workers)
        .map(|i| WorkerInfo::new(NodeId::new(i + 1), capacity))
        .collect();
    let metrics = RuntimeMetrics::initial(&dag);
    let mut rng = SimRng::seed_from(5);
    let assignment = Arc::new(
        GraphScheduler::default()
            .partition(
                &dag,
                &workers,
                &metrics,
                &ContentionSet::default(),
                u64::MAX,
                &mut rng,
            )
            .expect("partition succeeds"),
    );
    WorkflowCtx::new(dag, assignment, 9)
}

/// One engine per worker node `1..=workers`.
fn worker_engines(workers: u32) -> Vec<WorkerEngine> {
    (0..workers)
        .map(|i| WorkerEngine::new(NodeId::new(i + 1)))
        .collect()
}

/// Runs one invocation through the worker engines the way the cluster
/// does: begin on the workers hosting entry nodes, complete every
/// instance as it triggers, deliver every sync, then release the
/// invocation on every engine. Every `begin` and `sync` carries the
/// invocation's pinned `ctx`. Returns the exit nodes reported.
fn run_workersp_invocation(
    engines: &mut [WorkerEngine],
    ctx: &WorkflowCtx,
    wf: WorkflowId,
    inv: InvocationId,
) -> usize {
    let (dag, assignment) = (&ctx.dag, &ctx.assignment);
    let mut entry_workers: Vec<usize> = dag
        .entry_nodes()
        .iter()
        .map(|&f| assignment.worker_of(f).index() - 1)
        .collect();
    entry_workers.sort_unstable();
    entry_workers.dedup();
    let mut pending: Vec<WorkerAction> = Vec::new();
    for w in entry_workers {
        pending.extend(engines[w].begin_invocation(ctx, wf, inv));
    }
    let mut completed = 0usize;
    while let Some(action) = pending.pop() {
        match action {
            WorkerAction::TriggerFunction {
                workflow,
                invocation,
                function,
            } => {
                let worker = assignment.worker_of(function).index() - 1;
                let par = dag.node(function).parallelism.max(1);
                for _ in 0..par {
                    pending.extend(
                        engines[worker].on_instance_complete(workflow, invocation, function),
                    );
                }
            }
            WorkerAction::SyncState {
                to,
                workflow,
                invocation,
                completed: f,
            } => {
                let engine = &mut engines[to.index() - 1];
                pending.extend(engine.on_state_sync(ctx, workflow, invocation, f));
            }
            WorkerAction::ExitComplete { .. } => completed += 1,
        }
    }
    for e in engines.iter_mut() {
        e.release_invocation(wf, inv);
    }
    completed
}

/// Drives one full Cycles invocation through 7 freshly built worker
/// engines, completing instances as they trigger.
fn bench_workersp_invocation(c: &mut Criterion) {
    let ctx = setup(&Benchmark::Cycles.workflow(), 7, 12);
    c.bench_function("workersp/full_cycles_invocation", |b| {
        let wf = WorkflowId::new(0);
        let mut next_inv = 0u32;
        b.iter(|| {
            let inv = InvocationId::new(next_inv);
            next_inv += 1;
            let mut engines = worker_engines(7);
            run_workersp_invocation(&mut engines, &ctx, wf, inv)
        });
    });
}

/// One invocation cycle of a 50-node Genome DAG over a fleet of 8, then
/// 128, workers whose engines persist across invocations, as in the
/// cluster: begin, syncs, instance completions, and the release on every
/// engine. Each worker holds 2 containers, or as few more as the DAG
/// needs to fit the fleet (7 on 8 workers). The two rows side by side
/// show how the per-invocation engine cost grows with the fleet.
fn bench_workersp_genome_fleet(c: &mut Criterion) {
    for workers in [8, 128] {
        let capacity = 50u32.div_ceil(workers).max(2);
        let ctx = setup(&scientific::genome(50), workers, capacity);
        let wf = WorkflowId::new(0);
        let mut engines = worker_engines(workers);
        let name = format!("workersp/genome50_{workers}w_invocation");
        c.bench_function(&name, |b| {
            let mut next_inv = 0u32;
            b.iter(|| {
                let inv = InvocationId::new(next_inv);
                next_inv += 1;
                run_workersp_invocation(&mut engines, &ctx, wf, inv)
            });
        });
    }
}

/// The same invocation through the central MasterSP engine.
fn bench_mastersp_invocation(c: &mut Criterion) {
    let ctx = setup(&Benchmark::Cycles.workflow(), 7, 12);
    c.bench_function("mastersp/full_cycles_invocation", |b| {
        let wf = WorkflowId::new(0);
        let mut next_inv = 0u32;
        b.iter(|| {
            let inv = InvocationId::new(next_inv);
            next_inv += 1;
            let mut engine = MasterEngine::new();
            let mut pending = engine.begin_invocation(&ctx, wf, inv);
            let mut completed = 0usize;
            while let Some(action) = pending.pop() {
                match action {
                    MasterAction::AssignTask {
                        workflow,
                        invocation,
                        function,
                        ..
                    } => {
                        let par = ctx.dag.node(function).parallelism.max(1);
                        for _ in 0..par {
                            let actions =
                                engine.on_state_return(&ctx, workflow, invocation, function);
                            pending.extend(actions);
                        }
                    }
                    MasterAction::ExitComplete { .. } => completed += 1,
                }
            }
            engine.release_invocation(wf, inv);
            completed
        });
    });
}

/// Nodes each journaled invocation completes.
const JOURNALED_NODES: u32 = 8;

/// A journal after `ended` invocations came and went, holding `live`
/// invocations that each completed [`JOURNALED_NODES`] nodes. Appends
/// are 1 ms apart, so each record is durable before the next one.
fn journal_with_history(ended: u32, live: u32) -> Journal {
    let mut journal = Journal::new(JournalConfig {
        enabled: true,
        ..JournalConfig::default()
    });
    let wf = WorkflowId::new(0);
    let mut now = SimTime::ZERO;
    let mut append = |journal: &mut Journal, inv: u32, event| {
        now += SimDuration::from_millis(1);
        let invocation = InvocationId::new(inv);
        let record = JournalRecord {
            workflow: wf,
            invocation,
            event,
        };
        journal.append(now, 1.0, record);
    };
    for inv in 0..ended + live {
        append(&mut journal, inv, JournalEvent::Admitted);
        for f in (0..JOURNALED_NODES).map(FunctionId::new) {
            append(&mut journal, inv, JournalEvent::Dispatched(f));
            append(&mut journal, inv, JournalEvent::NodeDone(f));
        }
        if inv < ended {
            let done = JournalEvent::Terminal(TerminalOutcome::Completed);
            append(&mut journal, inv, done);
            journal.release_invocation(wf, InvocationId::new(inv));
        }
    }
    journal
}

/// The journal lookups of an engine revival's reconcile sweep (ROADMAP
/// item 12): one `recorded` per live invocation, then a check of each
/// completed node, after 20,000 ended invocations. Both rows make 65,536
/// invocation lookups per iteration (repeated sweeps over 256 live
/// invocations, or 16 over 4,096), so their ratio is the ratio of the
/// per-invocation cost.
fn bench_journal_reconcile(c: &mut Criterion) {
    const LOOKUPS: u32 = 65_536;
    const ENDED: u32 = 20_000;
    let wf = WorkflowId::new(0);
    let mut group = c.benchmark_group("journal");
    for live in [256u32, 4_096] {
        let journal = journal_with_history(ENDED, live);
        group.bench_function(&format!("reconcile_{live}_live"), |b| {
            b.iter(|| {
                let mut propagated = 0usize;
                for _ in 0..LOOKUPS / live {
                    for inv in ENDED..ENDED + live {
                        let Some(done) = journal.recorded(wf, InvocationId::new(inv)) else {
                            continue;
                        };
                        propagated += (0..JOURNALED_NODES)
                            .filter(|&f| done.contains(&FunctionId::new(f)))
                            .count();
                    }
                }
                propagated
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_workersp_invocation,
    bench_workersp_genome_fleet,
    bench_mastersp_invocation,
    bench_journal_reconcile
);
criterion_main!(benches);
