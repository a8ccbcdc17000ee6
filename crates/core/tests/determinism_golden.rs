//! Golden-report determinism regression: fixed configurations and
//! workloads must keep producing *bit-identical* `RunReport`s across
//! refactors of the hot paths (event queue, flow rates, scheduling
//! loops). The committed JSON under `tests/golden/` was generated from
//! the pre-optimisation kernel; any divergence means the `(time, seq)`
//! ordering contract or the max-min allocation changed behaviour, not
//! just speed.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p faasflow-core --test determinism_golden
//! ```

use faasflow_core::{
    ClientConfig, Cluster, ClusterConfig, FaultPlan, GrayFault, GrayFaultKind, NetFault, NodeCrash,
    PlacementConfig, RunReport, ScheduleMode, StorageFault, StorageFaultKind,
};
use faasflow_sim::SimDuration;
use faasflow_wdl::{FunctionProfile, Step, Workflow};
use faasflow_workloads::Benchmark;

/// Map/reduce stand-in: fan-out wide enough to cross partitions so both
/// local (FaaStore) and remote-store paths carry data.
fn word_count() -> Workflow {
    Workflow::steps(
        "WordCount",
        Step::sequence(vec![
            Step::task("split", FunctionProfile::with_millis(100, 8 << 20)),
            Step::foreach("count", FunctionProfile::with_millis(150, 4 << 20), 8),
            Step::foreach("shuffle", FunctionProfile::with_millis(120, 2 << 20), 8),
            Step::task("merge", FunctionProfile::with_millis(80, 0)),
        ]),
    )
}

/// Long sequential chain with heavy payloads (Genome-style pipeline).
fn genome() -> Workflow {
    Workflow::steps(
        "Genome",
        Step::sequence(vec![
            Step::task("individuals", FunctionProfile::with_millis(200, 24 << 20)),
            Step::foreach("sifting", FunctionProfile::with_millis(260, 12 << 20), 4),
            Step::task("mutual", FunctionProfile::with_millis(150, 6 << 20)),
            Step::task("visualize", FunctionProfile::with_millis(90, 0)),
        ]),
    )
}

/// Scenario 1: WorkerSP + FaaStore, two co-located closed-loop workflows.
fn worker_sp_report() -> RunReport {
    let config = ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers: 4,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    cluster
        .register(&word_count(), ClientConfig::ClosedLoop { invocations: 12 })
        .expect("registers");
    cluster
        .register(&genome(), ClientConfig::ClosedLoop { invocations: 8 })
        .expect("registers");
    cluster.run_until_idle();
    cluster.report()
}

/// Scenario 2: MasterSP under a chaos plan — a crash+restart, a storage
/// blackout and link degradation all overlap the run, exercising the
/// recovery sweeps (doomed/orphans/impacted paths) end to end.
fn master_sp_faults_report() -> RunReport {
    let fault = FaultPlan {
        node_crashes: vec![NodeCrash {
            worker: 1,
            at: SimDuration::from_secs(2),
            restart_after: Some(SimDuration::from_secs(3)),
        }],
        storage_faults: vec![StorageFault {
            at: SimDuration::from_secs(6),
            duration: SimDuration::from_secs(2),
            kind: StorageFaultKind::Blackout,
        }],
        net_faults: vec![NetFault {
            worker: 2,
            at: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(5),
            loss: 0.3,
            latency_factor: 2.0,
            bandwidth_factor: 0.5,
        }],
        ..FaultPlan::default()
    };
    let config = ClusterConfig {
        mode: ScheduleMode::MasterSp,
        faastore: false,
        workers: 4,
        fault,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    cluster
        .register(&word_count(), ClientConfig::ClosedLoop { invocations: 24 })
        .expect("registers");
    cluster.run_until_idle();
    cluster.report()
}

/// Scenario 2b: MasterSP false suspicion with data in flight. Worker 0's
/// outbound links stall behind an asymmetric partition and the master
/// force-expires its lease while the node keeps running. Legacy placement
/// puts both data-heavy workflows on worker 0, so when the lease expires
/// some evacuated instances are still reading their 48 MB inputs (the
/// evacuation's flow sweep cancels those transfers) and others are
/// executing (the zombie's late completions are fenced).
fn master_sp_evacuation_report() -> RunReport {
    let fault = FaultPlan {
        gray_faults: vec![GrayFault {
            worker: 0,
            at: SimDuration::from_millis(2900),
            duration: SimDuration::from_secs(6),
            kind: GrayFaultKind::AsymmetricPartition {
                inbound: false,
                expire_lease: true,
            },
        }],
        ..FaultPlan::default()
    };
    let config = ClusterConfig {
        mode: ScheduleMode::MasterSp,
        faastore: false,
        workers: 4,
        fault,
        placement_config: PlacementConfig::legacy(),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    for i in 0..2 {
        let heavy = Workflow::steps(
            format!("Heavy{i}"),
            Step::sequence(vec![
                Step::task("ingest", FunctionProfile::with_millis(150, 48 << 20)),
                Step::foreach("crunch", FunctionProfile::with_millis(400, 48 << 20), 6),
                Step::task("merge", FunctionProfile::with_millis(80, 0)),
            ]),
        );
        cluster
            .register(&heavy, ClientConfig::ClosedLoop { invocations: 8 })
            .expect("registers");
    }
    cluster.run_until_idle();
    cluster.report()
}

/// Scenario 3: WorkerSP open-loop after warm-up — exercises the timer
/// churn (arrival scheduling, flow completion timers) that the
/// incremental rate recompute coalesces.
fn open_loop_report() -> RunReport {
    let config = ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers: 8,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    let id = cluster
        .register(&word_count(), ClientConfig::ClosedLoop { invocations: 4 })
        .expect("registers");
    cluster.run_until_idle();
    cluster.reset_metrics();
    cluster.switch_to_open_loop(id, 90.0, 20);
    cluster.run_until_idle();
    cluster.report()
}

/// Scenario 4: WorkerSP partition iterations (§4.1.2) over fan-out
/// workflows. Every third completion repartitions from the collected
/// feedback, so the observed p99 read latencies become edge weights that
/// steer Algorithm 1's grouping: Genome's merged panel and sifted calls,
/// and Epigenomics' split chunks, each leave their producer on several
/// out-edges. Recording p50 instead, or one out-edge per read, moves this
/// report.
fn feedback_iteration_report() -> RunReport {
    let config = ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        repartition_every: Some(3),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    for bench in [Benchmark::Genome, Benchmark::Epigenomics] {
        cluster
            .register(
                &bench.workflow(),
                ClientConfig::ClosedLoop { invocations: 12 },
            )
            .expect("registers");
    }
    cluster.run_until_idle();
    cluster.report()
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn check(name: &str, report: &RunReport) {
    let rendered = serde_json::to_string_pretty(report).expect("report serializes");
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir golden");
        std::fs::write(&path, rendered + "\n").expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with GOLDEN_REGEN=1", name));
    let rendered = rendered + "\n";
    if rendered == golden {
        return;
    }
    // Name the first differing line instead of dumping both reports.
    let (mut got, mut want) = (rendered.lines(), golden.lines());
    let mut line = 1;
    loop {
        match (got.next(), want.next()) {
            (Some(g), Some(w)) if g == w => line += 1,
            (g, w) => panic!(
                "{name}: RunReport diverged from the committed golden at line {line} — \
                 the change altered simulation behaviour, not just speed\n  \
                 golden:   {}\n  rendered: {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>"),
            ),
        }
    }
}

#[test]
fn golden_worker_sp_colocated() {
    check("worker_sp_colocated", &worker_sp_report());
}

#[test]
fn golden_master_sp_faults() {
    check("master_sp_faults", &master_sp_faults_report());
}

#[test]
fn golden_master_sp_evacuation() {
    let report = master_sp_evacuation_report();
    check("master_sp_evacuation", &report);
    assert_eq!(report.faults.lease_expiries, 1);
    assert!(
        report.faults.flows_killed > 0,
        "the evacuation must cancel transfers in flight ({:?})",
        report.faults
    );
    assert!(
        report.health.zombie_fenced > 0,
        "the zombie's late completions must be fenced ({:?})",
        report.health
    );
    for (name, wf) in &report.workflows {
        assert_eq!(
            wf.sent,
            wf.completed + wf.dead_lettered + wf.shed,
            "{name}: invocation leak"
        );
    }
    assert_eq!(report.live_invocation_states, 0, "leaked engine state");
}

#[test]
fn golden_open_loop() {
    check("open_loop", &open_loop_report());
}

#[test]
fn golden_feedback_iteration() {
    check("feedback_iteration", &feedback_iteration_report());
}

/// Same seed twice in-process must also be bit-identical (guards against
/// accidental HashMap-iteration-order dependence independent of goldens).
#[test]
fn same_seed_repeat_is_bit_identical() {
    let a = serde_json::to_string(&worker_sp_report()).expect("serializes");
    let b = serde_json::to_string(&worker_sp_report()).expect("serializes");
    assert_eq!(a, b);
}
