//! Microbenchmarks of the max-min fair flow network: the progressive
//! filling recompute runs on every flow arrival/departure, so it dominates
//! data-heavy experiments (Cycles moves >1 GB per invocation).

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use faasflow_net::{FlowNet, NicSpec};
use faasflow_sim::{NodeId, SimRng, SimTime};

fn storage_cluster() -> Vec<NicSpec> {
    // 1 storage node at 50 MB/s + 7 workers at 10 Gbit/s (the paper's
    // topology).
    let mut nics = vec![NicSpec::symmetric(50e6)];
    nics.extend(std::iter::repeat_n(NicSpec::symmetric(1.25e9), 7));
    nics
}

/// Timed iterations per row: the default 7 leave medians that move by
/// 2–3x between runs on a shared VM.
const SAMPLES: usize = 60;

fn bench_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("flownet_recompute");
    group.sample_size(SAMPLES);
    for &flows in &[8usize, 64, 256] {
        group.bench_with_input(
            BenchmarkId::new("arrival_departure", flows),
            &flows,
            |b, &flows| {
                let mut rng = SimRng::seed_from(3);
                let endpoints: Vec<(NodeId, NodeId)> = (0..flows)
                    .map(|_| {
                        let w = NodeId::from(1 + rng.next_below(7) as usize);
                        (NodeId::new(0), w)
                    })
                    .collect();
                b.iter(|| {
                    let mut net: FlowNet<usize> = FlowNet::new(storage_cluster());
                    // `flows` arrivals at one instant: rates recompute
                    // lazily, so the batch costs one fill at the first
                    // rate read...
                    let ids: Vec<_> = endpoints
                        .iter()
                        .enumerate()
                        .map(|(i, &(src, dst))| net.start_flow(src, dst, 1 << 20, i, SimTime::ZERO))
                        .collect();
                    // ...then `flows` departures.
                    for id in ids {
                        net.cancel_flow(id, SimTime::ZERO);
                    }
                    net.active_flows()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("arrival_departure_observed", flows),
            &flows,
            |b, &flows| {
                let mut rng = SimRng::seed_from(3);
                let endpoints: Vec<(NodeId, NodeId)> = (0..flows)
                    .map(|_| {
                        let w = NodeId::from(1 + rng.next_below(7) as usize);
                        (NodeId::new(0), w)
                    })
                    .collect();
                b.iter(|| {
                    let mut net: FlowNet<usize> = FlowNet::new(storage_cluster());
                    // Reading the completion horizon after every mutation
                    // forces a fill per arrival/departure — the worst case
                    // the incremental recompute has to win.
                    let ids: Vec<_> = endpoints
                        .iter()
                        .enumerate()
                        .map(|(i, &(src, dst))| {
                            let id = net.start_flow(src, dst, 1 << 20, i, SimTime::ZERO);
                            let _ = net.next_completion();
                            id
                        })
                        .collect();
                    for id in ids {
                        net.cancel_flow(id, SimTime::ZERO);
                        let _ = net.next_completion();
                    }
                    net.active_flows()
                });
            },
        );
    }
    group.finish();
}

fn bench_flownet(c: &mut Criterion) {
    let mut group = c.benchmark_group("flownet");
    group.sample_size(SAMPLES);
    bench_drain(&mut group);
    bench_storage_churn(&mut group, "storage_churn/64", 32);
    // About 64 flows on at most 14 paths, as `storage-msp32` runs them.
    bench_storage_churn(&mut group, "storage_churn_7w/64", 7);
    group.finish();
}

fn bench_drain(group: &mut BenchmarkGroup<'_>) {
    group.bench_function("drain_64_flows_to_completion", |b| {
        b.iter(|| {
            let mut net: FlowNet<usize> = FlowNet::new(storage_cluster());
            for i in 0..64 {
                let w = NodeId::from(1 + (i % 7));
                net.start_flow(NodeId::new(0), w, 4 << 20, i, SimTime::ZERO);
            }
            let mut delivered = 0u64;
            while let Some(t) = net.next_completion() {
                for (_, f) in net.take_completed(t) {
                    delivered += f.bytes;
                }
            }
            delivered
        });
    });
}

fn bench_storage_churn(group: &mut BenchmarkGroup<'_>, name: &str, workers: u64) {
    // The storage-bound MasterSP shape: `workers` workers at 10 Gbit/s
    // behind one 200 MB/s storage node that carries about 64 concurrent
    // reads and writes, each on one of the `2 * workers` storage paths.
    // Each step retires the next completion and starts a replacement for
    // every finished flow, so it costs one completion scan and one refill
    // of the storage component at steady state. An iteration runs 1000
    // steps.
    const FLOWS: usize = 64;
    const STEPS: usize = 1000;
    let mut nics = vec![NicSpec::symmetric(200e6)];
    nics.extend(std::iter::repeat_n(
        NicSpec::symmetric(1.25e9),
        workers as usize,
    ));
    let mut net: FlowNet<usize> = FlowNet::new(nics);
    let mut rng = SimRng::seed_from(11);
    let start = |net: &mut FlowNet<usize>, rng: &mut SimRng, now: SimTime| {
        let storage = NodeId::new(0);
        let worker = NodeId::from(1 + rng.next_below(workers) as usize);
        let (src, dst) = if rng.chance(0.5) {
            (storage, worker)
        } else {
            (worker, storage)
        };
        let bytes = (64 << 10) + rng.next_below(4 << 20);
        net.start_flow(src, dst, bytes, 0, now);
    };
    for _ in 0..FLOWS {
        start(&mut net, &mut rng, SimTime::ZERO);
    }
    let mut done = Vec::new();
    group.bench_function(name, |b| {
        b.iter(|| {
            let mut retired = 0;
            for _ in 0..STEPS {
                let at = net.next_completion().expect("flows are active");
                done.clear();
                net.take_completed_into(at, &mut done);
                for _ in 0..done.len() {
                    start(&mut net, &mut rng, at);
                }
                retired += done.len();
            }
            retired
        });
    });
}

criterion_group!(benches, bench_recompute, bench_flownet);
criterion_main!(benches);
