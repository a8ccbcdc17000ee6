//! Host cost of the obs post-processing on a traced run: critical-path
//! extraction and the Chrome trace export, over one span forest built
//! before timing starts from a traced closed-loop run of all 8
//! benchmarks (30 invocations each, default cluster).

use criterion::{criterion_group, criterion_main, Criterion};
use faasflow_core::{ClientConfig, Cluster, ClusterConfig};
use faasflow_obs::{build_forest, chrome_trace, extract, SpanForest};
use faasflow_workloads::Benchmark;

fn paper7_forest() -> SpanForest {
    let mut cluster = Cluster::new(ClusterConfig {
        trace: true,
        ..ClusterConfig::default()
    })
    .expect("valid config");
    for b in Benchmark::ALL {
        cluster
            .register(&b.workflow(), ClientConfig::ClosedLoop { invocations: 30 })
            .expect("registers");
    }
    cluster.run_until_idle();
    let forest = build_forest(&cluster.take_trace());
    assert_eq!(forest.trees.len(), 240, "one tree per invocation");
    forest
}

fn bench_obs(c: &mut Criterion) {
    let forest = paper7_forest();
    let mut group = c.benchmark_group("obs");
    group.bench_function("extract_paper7_240inv", |b| {
        b.iter(|| extract(&forest).len());
    });
    group.bench_function("chrome_trace_paper7_240inv", |b| {
        b.iter(|| chrome_trace(&forest, None).len());
    });
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
