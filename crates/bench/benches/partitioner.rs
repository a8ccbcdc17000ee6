//! Microbenchmark of Algorithm 1 — the criterion counterpart of Figure 16:
//! partitioning cost versus workflow size on the Genome generator, and the
//! cost of the two placement algorithms on loaded workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faasflow_scheduler::{
    ContentionSet, GraphScheduler, PartitionConfig, PlacementConfig, RuntimeMetrics, WorkerInfo,
    WorkerLoad,
};
use faasflow_sim::{NodeId, SimRng};
use faasflow_wdl::{DagParser, WorkflowDag};
use faasflow_workloads::scientific;

/// Times one partition of `dag` onto `workers` per iteration.
fn time_partition(
    b: &mut criterion::Bencher,
    scheduler: &GraphScheduler,
    dag: &WorkflowDag,
    workers: &[WorkerInfo],
) {
    let metrics = RuntimeMetrics::initial(dag);
    let contention = ContentionSet::default();
    let mut rng = SimRng::seed_from(7);
    b.iter(|| {
        let a = scheduler.partition(dag, workers, &metrics, &contention, u64::MAX, &mut rng);
        a.expect("partition succeeds").groups.len()
    });
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_genome");
    let parser = DagParser::default();
    let scheduler = GraphScheduler::default();
    let workers: Vec<WorkerInfo> = (0..7)
        .map(|i| WorkerInfo::new(NodeId::new(i + 1), 40))
        .collect();
    for &nodes in &[10usize, 25, 50, 100, 200] {
        let dag = parser
            .parse(&scientific::genome(nodes))
            .expect("genome parses");
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            time_partition(b, &scheduler, &dag, &workers);
        });
    }
    group.finish();
}

/// Genome-50 onto seven unevenly loaded workers: the legacy index
/// tie-break against the load-aware scoring (residual capacity, p99 and
/// memory tie-breaks, locality affinity). The gap is the load-aware
/// placement's extra cost per partition.
fn bench_placement_cost(c: &mut Criterion) {
    let dag = DagParser::default()
        .parse(&scientific::genome(50))
        .expect("genome parses");
    let workers: Vec<WorkerInfo> = (0..7u32)
        .map(|i| {
            WorkerInfo::new(NodeId::new(i + 1), 40).with_load(WorkerLoad {
                queued: i,
                running: (i * 3) % 5,
                mem_used_bytes: u64::from(i) << 20,
                recent_p99_ms: 100 + 40 * i,
            })
        })
        .collect();
    for (label, placement_config) in [
        ("legacy", PlacementConfig::legacy()),
        ("load_aware", PlacementConfig::default()),
    ] {
        let scheduler = GraphScheduler::new(PartitionConfig {
            placement_config,
            ..PartitionConfig::default()
        });
        c.bench_function(&format!("placement_cost/genome50_loaded/{label}"), |b| {
            time_partition(b, &scheduler, &dag, &workers);
        });
    }
}

fn bench_critical_path(c: &mut Criterion) {
    let parser = DagParser::default();
    let dag = parser
        .parse(&scientific::genome(200))
        .expect("genome parses");
    c.bench_function("critical_path_200_nodes", |b| {
        b.iter(|| dag.critical_path().0.len());
    });
}

criterion_group!(
    benches,
    bench_partition,
    bench_placement_cost,
    bench_critical_path
);
criterion_main!(benches);
