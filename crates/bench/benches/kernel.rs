//! Microbenchmarks of the DES kernel: event queue and RNG throughput, and
//! the container manager's acquire/release bookkeeping that runs on every
//! function instance. These bound how fast every simulated experiment can
//! run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faasflow_container::{ContainerConfig, ContainerManager, NodeCaps, CONTAINER_MEM};
use faasflow_sim::{EventQueue, FunctionId, SimDuration, SimRng, SimTime, WorkflowId};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            let mut rng = SimRng::seed_from(1);
            let times: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000_000)).collect();
            b.iter(|| {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime::from_nanos(t), i);
                }
                let mut acc = 0usize;
                while let Some((_, v)) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
                acc
            });
        });
        group.bench_with_input(BenchmarkId::new("cancel_heavy", n), &n, |b, &n| {
            // The flow timer pattern: schedule, cancel, reschedule.
            b.iter(|| {
                let mut q = EventQueue::new();
                let mut last = None;
                for i in 0..n {
                    if let Some(id) = last.take() {
                        q.cancel(id);
                    }
                    last = Some(q.schedule(SimTime::from_nanos(i as u64 + 1), i));
                }
                let mut count = 0;
                while q.pop().is_some() {
                    count += 1;
                }
                count
            });
        });
        group.bench_with_input(BenchmarkId::new("reschedule_heavy", n), &n, |b, &n| {
            // The same timer churn, re-armed in place.
            b.iter(|| {
                let mut q = EventQueue::new();
                let id = q.schedule(SimTime::from_nanos(1), 0);
                for i in 1..n {
                    q.reschedule(id, SimTime::from_nanos(i as u64 + 1));
                }
                let mut count = 0;
                while q.pop().is_some() {
                    count += 1;
                }
                count
            });
        });
    }
    group.finish();
}

/// 10 000 rounds of one warm acquire and one release against a node holding
/// `idle` idle containers, each followed by the keep-alive timer's
/// `next_expiry` read, as the cluster does after every pool change. The
/// per-operation cost should not grow with the idle count.
fn bench_container(c: &mut Criterion) {
    let mut group = c.benchmark_group("container");
    for &idle in &[16u32, 256] {
        group.bench_function(&format!("release_acquire/{idle}_idle"), |b| {
            let caps = NodeCaps {
                cores: idle + 1,
                mem: u64::from(idle + 1) * CONTAINER_MEM,
            };
            let mut m: ContainerManager<u32> =
                ContainerManager::new(caps, ContainerConfig::default());
            let mut rng = SimRng::seed_from(1);
            let key = |f: u32| (WorkflowId::new(0), FunctionId::new(f));
            let mut now = SimTime::ZERO;
            let started: Vec<_> = (0..idle)
                .map(|f| {
                    m.request(key(f), f, now, &mut rng)
                        .expect("room for every pool")
                })
                .collect();
            for adm in started {
                m.release(adm.container, now, &mut rng);
            }
            let mut f = 0;
            b.iter(|| {
                let mut last = None;
                for _ in 0..10_000 {
                    now += SimDuration::from_micros(1);
                    let adm = m.request(key(f), f, now, &mut rng).expect("warm");
                    std::hint::black_box(m.next_expiry());
                    m.release(adm.container, now, &mut rng);
                    f = (f + 1) % idle;
                    last = m.next_expiry();
                }
                last
            });
        });
    }
    group.finish();
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/next_u64_x1000", |b| {
        let mut rng = SimRng::seed_from(42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            acc
        });
    });
    c.bench_function("rng/exp_f64_x1000", |b| {
        let mut rng = SimRng::seed_from(42);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.exp_f64(10.0);
            }
            acc
        });
    });
}

criterion_group!(benches, bench_event_queue, bench_container, bench_rng);
criterion_main!(benches);
