//! Metamorphic integration tests: relations between runs that must hold
//! regardless of calibration constants.

use std::collections::{BTreeMap, BTreeSet};

use faasflow::core::{ClientConfig, Cluster, ClusterConfig, RunReport, ScheduleMode, TraceEvent};
use faasflow::obs::{build_forest, extract, CritPhase};
use faasflow::workloads::{deterministic_exec, without_data, Benchmark};

fn run(config: ClusterConfig, b: Benchmark, invocations: u32) -> RunReport {
    let mut cluster = Cluster::new(config).expect("valid config");
    let id = cluster
        .register(&b.workflow(), ClientConfig::ClosedLoop { invocations: 2 })
        .expect("registers");
    cluster.run_until_idle();
    cluster.reset_metrics();
    cluster.extend_client(id, invocations);
    cluster.run_until_idle();
    cluster.report()
}

fn faasflow(faastore: bool) -> ClusterConfig {
    ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore,
        ..ClusterConfig::default()
    }
}

fn hyperflow() -> ClusterConfig {
    ClusterConfig {
        mode: ScheduleMode::MasterSp,
        faastore: false,
        ..ClusterConfig::default()
    }
}

#[test]
fn more_bandwidth_never_hurts_transfers() {
    for b in [Benchmark::VideoFfmpeg, Benchmark::WordCount] {
        let mut prev = f64::INFINITY;
        for bw in [25e6, 50e6, 100e6] {
            let config = ClusterConfig {
                storage_bandwidth: bw,
                ..hyperflow()
            };
            let t = run(config, b, 10)
                .workflow(b.short_name())
                .transfer_total
                .mean;
            assert!(
                t <= prev * 1.02,
                "{b}: transfer latency rose from {prev:.1} to {t:.1} ms with more bandwidth"
            );
            prev = t;
        }
    }
}

#[test]
fn faastore_reduces_remote_traffic_without_hurting_latency() {
    for b in [
        Benchmark::Cycles,
        Benchmark::VideoFfmpeg,
        Benchmark::WordCount,
    ] {
        let off = run(faasflow(false), b, 10);
        let on = run(faasflow(true), b, 10);
        let w_off = off.workflow(b.short_name());
        let w_on = on.workflow(b.short_name());
        assert!(
            w_on.remote_bytes < w_off.remote_bytes,
            "{b}: FaaStore must cut remote traffic ({} vs {})",
            w_on.remote_bytes,
            w_off.remote_bytes
        );
        assert!(w_on.local_bytes > 0, "{b}: FaaStore must serve local bytes");
        assert!(
            w_on.e2e.mean <= w_off.e2e.mean * 1.05,
            "{b}: FaaStore must not slow the workflow ({} vs {})",
            w_on.e2e.mean,
            w_off.e2e.mean
        );
        assert!(
            on.storage_node_bytes < off.storage_node_bytes,
            "{b}: storage NIC traffic must drop"
        );
    }
}

#[test]
fn workersp_eliminates_master_messaging() {
    let b = Benchmark::Epigenomics;
    let master = run(hyperflow(), b, 5);
    let worker = run(faasflow(true), b, 5);
    assert!(master.master_tasks_assigned > 0);
    assert!(master.master_state_returns > 0);
    assert_eq!(master.worker_syncs, 0, "no worker syncs under MasterSP");
    assert_eq!(
        worker.master_tasks_assigned, 0,
        "no assignments under WorkerSP"
    );
    assert_eq!(worker.master_state_returns, 0);
    assert!(
        worker.worker_syncs > 0,
        "a spread workflow must sync states across workers"
    );
    assert!(
        worker.master_busy_fraction < master.master_busy_fraction,
        "the master CPU must be relieved"
    );
}

#[test]
fn workersp_cuts_scheduling_overhead_on_data_free_workflows() {
    for b in [Benchmark::Cycles, Benchmark::WordCount] {
        let wf = without_data(&b.workflow());
        let measure = |config: ClusterConfig| {
            let mut cluster = Cluster::new(config).expect("valid config");
            let id = cluster
                .register(&wf, ClientConfig::ClosedLoop { invocations: 3 })
                .expect("registers");
            cluster.run_until_idle();
            cluster.reset_metrics();
            cluster.extend_client(id, 30);
            cluster.run_until_idle();
            cluster.report().workflow(&wf.name).sched_overhead.mean
        };
        let master = measure(hyperflow());
        let worker = measure(faasflow(true));
        assert!(
            worker < master * 0.75,
            "{b}: WorkerSP overhead {worker:.1} ms not clearly below MasterSP {master:.1} ms"
        );
    }
}

#[test]
fn colocation_never_beats_solo() {
    // Run Vid solo, then Vid together with Cyc; co-run latency >= solo.
    let solo = run(faasflow(true), Benchmark::VideoFfmpeg, 8)
        .workflow("Vid")
        .e2e
        .mean;
    let mut cluster = Cluster::new(faasflow(true)).expect("valid config");
    let vid = cluster
        .register(
            &Benchmark::VideoFfmpeg.workflow(),
            ClientConfig::ClosedLoop { invocations: 2 },
        )
        .expect("registers");
    let cyc = cluster
        .register(
            &Benchmark::Cycles.workflow(),
            ClientConfig::ClosedLoop { invocations: 2 },
        )
        .expect("registers");
    cluster.run_until_idle();
    cluster.reset_metrics();
    cluster.extend_client(vid, 8);
    cluster.extend_client(cyc, 8);
    cluster.run_until_idle();
    let co = cluster.report().workflow("Vid").e2e.mean;
    assert!(
        co >= solo * 0.98,
        "co-running with Cycles cannot speed Vid up (solo {solo:.1}, co {co:.1})"
    );
}

#[test]
fn data_free_workflows_move_no_bytes() {
    for b in Benchmark::ALL {
        let wf = without_data(&b.workflow());
        let mut cluster = Cluster::new(faasflow(true)).expect("valid config");
        cluster
            .register(&wf, ClientConfig::ClosedLoop { invocations: 3 })
            .expect("registers");
        cluster.run_until_idle();
        let report = cluster.report();
        let w = report.workflow(&wf.name);
        assert_eq!(w.remote_bytes + w.local_bytes, 0, "{b} moved bytes");
        assert_eq!(w.bytes_moved.mean, 0.0);
    }
}

#[test]
fn timeout_bound_is_respected_in_reports() {
    // Even a pathological run never reports e2e above the 60 s cap + the
    // tail of late completions being excluded.
    let config = ClusterConfig {
        storage_bandwidth: 5e6,
        ..hyperflow()
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    cluster
        .register(
            &Benchmark::Cycles.workflow(),
            ClientConfig::OpenLoop {
                per_minute: 6.0,
                invocations: 5,
            },
        )
        .expect("registers");
    cluster.run_until_idle();
    let w = cluster.report().workflow("Cyc").clone();
    assert!(w.e2e.max <= 60_000.0 + 1.0, "timeouts cap the histogram");
}

#[test]
fn both_schedule_patterns_complete_the_same_invocations() {
    // Without faults the schedule pattern decides when an invocation
    // finishes, never whether: the k-th invocation of every workflow
    // completes under both, exactly once (a late one past the timeout
    // still completes). Invocation ids are global and follow arrival
    // order, which differs between the modes, so an invocation is named
    // by its workflow and its rank among that workflow's arrivals.
    for seed in [1, 7919] {
        let completed = |config: ClusterConfig| {
            let mut cluster = Cluster::new(ClusterConfig {
                seed,
                trace: true,
                ..config
            })
            .expect("valid config");
            for b in Benchmark::ALL {
                cluster
                    .register(&b.workflow(), ClientConfig::ClosedLoop { invocations: 4 })
                    .expect("registers");
            }
            cluster.run_until_idle();
            let mut rank = BTreeMap::new();
            let mut arrivals: BTreeMap<_, usize> = BTreeMap::new();
            let mut done = BTreeSet::new();
            for event in cluster.trace() {
                match *event {
                    TraceEvent::InvocationArrived {
                        workflow,
                        invocation,
                        ..
                    } => {
                        let k = arrivals.entry(workflow).or_default();
                        rank.insert(invocation, (workflow, *k));
                        *k += 1;
                    }
                    TraceEvent::InvocationCompleted { invocation, .. } => {
                        assert!(done.insert(rank[&invocation]), "completed twice");
                    }
                    _ => {}
                }
            }
            done
        };
        let master = completed(hyperflow());
        let worker = completed(faasflow(true));
        assert_eq!(master.len(), 4 * Benchmark::ALL.len(), "seed {seed}");
        assert_eq!(
            master, worker,
            "seed {seed}: the modes completed different invocations"
        );
    }
}

#[test]
fn observed_dominates_exec_only_dominates_the_static_critical_path() {
    // Per invocation: the observed critical path (its makespan) is at
    // least its exec phases alone, and with deterministic exec times those
    // are at least the DAG's static `critical_path_exec()`.
    for seed in [1, 7919] {
        for config in [hyperflow(), faasflow(true)] {
            let mode = config.mode;
            let mut cluster = Cluster::new(ClusterConfig {
                seed,
                trace: true,
                ..config
            })
            .expect("valid config");
            for b in Benchmark::REAL_WORLD {
                cluster
                    .register(
                        &deterministic_exec(&b.workflow()),
                        ClientConfig::ClosedLoop { invocations: 5 },
                    )
                    .expect("registers");
            }
            cluster.run_until_idle();
            let paths = extract(&build_forest(cluster.trace()));
            assert_eq!(paths.len(), 5 * Benchmark::REAL_WORLD.len());
            for path in &paths {
                let observed = path.total();
                let exec_only = path.phase_total(CritPhase::Exec);
                let static_exec = cluster.critical_exec(path.workflow).expect("registered");
                let at = format!("seed {seed} {mode:?} {}/{}", path.workflow, path.invocation);
                assert!(observed >= exec_only, "{at}: {observed:?} < {exec_only:?}");
                assert!(
                    exec_only >= static_exec,
                    "{at}: {exec_only:?} < {static_exec:?}"
                );
            }
        }
    }
}
