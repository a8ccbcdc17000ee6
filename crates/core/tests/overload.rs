//! Boundary tests for the overload-protection subsystem: admission
//! control / shedding, the remote-store circuit breaker, hedged exec
//! retries and pool-to-scheduler backpressure. Each test pins one corner
//! of the feature matrix (zero retry budget + hedging, breaker during a
//! storage blackout, per-policy shed attribution, WorkerSP-vs-MasterSP
//! backpressure asymmetry) and always re-checks the conservation
//! invariant `sent == completed + dead_lettered + shed`.

use faasflow_container::NodeCaps;
use faasflow_core::{
    AdmissionConfig, BackpressureConfig, BreakerConfig, ClientConfig, Cluster, ClusterConfig,
    FaultPlan, GrayFault, GrayFaultKind, HedgeConfig, OverloadConfig, RunReport, ScheduleMode,
    ShedPolicy, StorageFault, StorageFaultKind,
};
use faasflow_sim::SimDuration;
use faasflow_wdl::{FunctionProfile, Step, Workflow};

/// Every invocation that entered the system must leave through exactly
/// one terminal door once the cluster drains.
fn assert_conserved(report: &RunReport) {
    let mut sent_total = 0;
    for (name, wf) in &report.workflows {
        assert_eq!(
            wf.sent,
            wf.completed + wf.dead_lettered + wf.shed,
            "{name}: sent {} != completed {} + dead_lettered {} + shed {}",
            wf.sent,
            wf.completed,
            wf.dead_lettered,
            wf.shed
        );
        sent_total += wf.sent;
    }
    assert_eq!(report.overload.admitted, sent_total);
    assert_eq!(report.live_invocation_states, 0, "stuck invocation state");
}

/// Fan-out heavy enough to overfill a small worker's admission queue.
fn saturating_workflow(fan: u32) -> Workflow {
    Workflow::steps(
        "Saturate",
        Step::sequence(vec![
            Step::task("split", FunctionProfile::with_millis(40, 2 << 20)),
            Step::foreach("work", FunctionProfile::with_millis(120, 1 << 20), fan),
            Step::task("merge", FunctionProfile::with_millis(30, 0)),
        ]),
    )
}

fn run(config: ClusterConfig, wf: &Workflow, invocations: u32) -> RunReport {
    let mut cluster = Cluster::new(config).expect("valid config");
    cluster
        .register(wf, ClientConfig::ClosedLoop { invocations })
        .expect("registers");
    cluster.run_until_idle();
    cluster.report()
}

/// `max_exec_retries = 0` plus hedging: the hedge is the *only* second
/// chance an instance gets, and the run must still drain cleanly with
/// first-winner accounting (every launched hedge resolves as a win or a
/// loss, never both, never neither).
#[test]
fn zero_exec_retries_with_hedging_drains_cleanly() {
    let config = ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers: 4,
        max_exec_retries: 0,
        exec_failure_rate: 0.05,
        overload: OverloadConfig {
            hedge: Some(HedgeConfig {
                delay: SimDuration::from_millis(700),
                adaptive: None,
            }),
            ..OverloadConfig::default()
        },
        ..ClusterConfig::default()
    };
    let wf = Workflow::steps(
        "Straggler",
        Step::sequence(vec![
            Step::task("prep", FunctionProfile::with_millis(50, 4 << 20)),
            Step::foreach(
                "crunch",
                FunctionProfile::with_millis(1000, 1 << 20).exec_variation(0.5),
                6,
            ),
            Step::task("merge", FunctionProfile::with_millis(40, 0)),
        ]),
    );
    let report = run(config, &wf, 12);

    assert_conserved(&report);
    let o = &report.overload;
    assert!(o.hedges_launched > 0, "no hedges fired: {o:?}");
    assert_eq!(
        o.hedge_wins + o.hedge_losses,
        o.hedges_launched,
        "every hedge must resolve exactly once: {o:?}"
    );
    assert_eq!(report.workflow("Straggler").sent, 12);
    assert!(report.workflow("Straggler").completed > 0);
}

/// A hedge runs under the gray faults of the worker it lands on, like
/// any attempt there. Every primary runs on worker 0 of two, so every
/// hedge lands on worker 1; with each exec there failing (`FlakyExec` at
/// rate 1.0 for the whole run, no other failure injection), no hedge can
/// win and each one resolves as a loss. The same run without the window
/// shows the hedges would otherwise win some races.
#[test]
fn hedges_on_a_flaky_worker_never_win() {
    let config = |gray_faults: Vec<GrayFault>| ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers: 2,
        exec_failure_rate: 0.0,
        fault: FaultPlan {
            gray_faults,
            ..FaultPlan::default()
        },
        overload: OverloadConfig {
            hedge: Some(HedgeConfig {
                delay: SimDuration::from_millis(100),
                adaptive: None,
            }),
            ..OverloadConfig::default()
        },
        ..ClusterConfig::default()
    };
    let wf = Workflow::steps(
        "Straggler",
        Step::task(
            "crunch",
            FunctionProfile::with_millis(1000, 0).exec_variation(0.5),
        ),
    );
    let flaky = GrayFault {
        worker: 1,
        at: SimDuration::ZERO,
        duration: SimDuration::from_secs(3600),
        kind: GrayFaultKind::FlakyExec { failure_rate: 1.0 },
    };

    let report = run(config(vec![flaky]), &wf, 20);
    assert_conserved(&report);
    let o = &report.overload;
    assert!(o.hedges_launched > 0, "no hedges fired: {o:?}");
    assert_eq!(o.hedge_wins, 0, "a hedge won on the flaky worker: {o:?}");
    assert_eq!(o.hedge_losses, o.hedges_launched, "{o:?}");

    let control = run(config(Vec::new()), &wf, 20);
    assert!(
        control.overload.hedge_wins > 0,
        "without the window no hedge wins, so the check above is vacuous: {:?}",
        control.overload
    );
}

/// A storage blackout must trip the breaker (the PR1 backoff path and the
/// breaker see the same failures), and once the blackout lifts the
/// half-open probes must close it again so the tail of the run completes.
#[test]
fn breaker_trips_during_blackout_and_recovers() {
    let config = ClusterConfig {
        mode: ScheduleMode::MasterSp,
        faastore: false,
        workers: 4,
        fault: FaultPlan {
            storage_faults: vec![StorageFault {
                at: SimDuration::from_secs(2),
                duration: SimDuration::from_secs(3),
                kind: StorageFaultKind::Blackout,
            }],
            ..FaultPlan::default()
        },
        overload: OverloadConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
            }),
            ..OverloadConfig::default()
        },
        ..ClusterConfig::default()
    };
    let report = run(config, &saturating_workflow(8), 16);

    assert_conserved(&report);
    let o = &report.overload;
    assert!(
        o.breaker_opens >= 1,
        "blackout never tripped breaker: {o:?}"
    );
    assert!(
        o.breaker_fast_fails >= 1,
        "open window refused nothing: {o:?}"
    );
    assert!(
        o.breaker_closes >= 1,
        "breaker never recovered after the blackout: {o:?}"
    );
    assert!(report.workflow("Saturate").completed > 0);
}

/// Each shed policy attributes its drops to its own counter, and two
/// same-seed runs of an overloaded cluster stay bit-identical.
#[test]
fn shed_policies_are_deterministic_and_attributed() {
    for policy in [
        ShedPolicy::RejectNewest,
        ShedPolicy::RejectOldest,
        ShedPolicy::DeadlineAware,
    ] {
        let config = || ClusterConfig {
            mode: ScheduleMode::WorkerSp,
            faastore: true,
            workers: 2,
            node_caps: NodeCaps {
                cores: 2,
                ..NodeCaps::default()
            },
            qos_target: Some(SimDuration::from_secs(5)),
            overload: OverloadConfig {
                admission: Some(AdmissionConfig {
                    queue_capacity: 2,
                    policy,
                }),
                ..OverloadConfig::default()
            },
            ..ClusterConfig::default()
        };
        let a = run(config(), &saturating_workflow(10), 8);
        let b = run(config(), &saturating_workflow(10), 8);
        assert_eq!(
            serde_json::to_string(&a).expect("serializes"),
            serde_json::to_string(&b).expect("serializes"),
            "{policy:?}: same-seed shed runs diverged"
        );

        assert_conserved(&a);
        let o = &a.overload;
        assert!(o.shed > 0, "{policy:?}: queue never overflowed: {o:?}");
        let attributed = match policy {
            ShedPolicy::RejectNewest => o.shed_newest,
            ShedPolicy::RejectOldest => o.shed_oldest,
            ShedPolicy::DeadlineAware => o.shed_deadline,
        };
        assert_eq!(
            attributed, o.shed,
            "{policy:?}: sheds must land on that policy's counter: {o:?}"
        );
    }
}

/// Priority classes reorder `DeadlineAware` shedding: on overflow the scan
/// drops the lowest class first, so a premium workflow sharing the same
/// starved queues keeps completing while the best-effort one absorbs the
/// sheds.
#[test]
fn deadline_aware_shedding_drops_low_priority_first() {
    fn tiered(name: &str, class: u8) -> Workflow {
        Workflow::steps(
            name,
            Step::sequence(vec![
                Step::task(
                    "split",
                    FunctionProfile::with_millis(40, 2 << 20).priority(class),
                ),
                Step::foreach(
                    "work",
                    FunctionProfile::with_millis(120, 1 << 20).priority(class),
                    6,
                ),
                Step::task("merge", FunctionProfile::with_millis(30, 0).priority(class)),
            ]),
        )
    }
    let config = ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers: 2,
        node_caps: NodeCaps {
            cores: 2,
            ..NodeCaps::default()
        },
        qos_target: Some(SimDuration::from_secs(5)),
        overload: OverloadConfig {
            admission: Some(AdmissionConfig {
                queue_capacity: 4,
                policy: ShedPolicy::DeadlineAware,
            }),
            ..OverloadConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    cluster
        .register(
            &tiered("BestEffort", 0),
            ClientConfig::ClosedLoop { invocations: 6 },
        )
        .expect("registers");
    cluster
        .register(
            &tiered("Premium", 2),
            ClientConfig::ClosedLoop { invocations: 6 },
        )
        .expect("registers");
    cluster.run_until_idle();
    let report = cluster.report();

    assert_conserved(&report);
    let o = &report.overload;
    assert!(o.shed > 0, "queue never overflowed: {o:?}");
    assert_eq!(o.shed_deadline, o.shed);
    let low = report.workflow("BestEffort").shed;
    let high = report.workflow("Premium").shed;
    assert!(
        low > high,
        "class 0 must absorb the sheds: best-effort shed {low}, premium shed {high}"
    );
}

/// A saturated pool pushes back differently per mode: WorkerSP defers the
/// dispatch locally, MasterSP bounces it through the central engine. Both
/// must keep liveness (`max_defers` caps the wait) and conservation.
#[test]
fn backpressure_defers_locally_and_requeues_centrally() {
    for (mode, faastore) in [
        (ScheduleMode::WorkerSp, true),
        (ScheduleMode::MasterSp, false),
    ] {
        let config = ClusterConfig {
            mode,
            faastore,
            workers: 2,
            node_caps: NodeCaps {
                cores: 2,
                ..NodeCaps::default()
            },
            overload: OverloadConfig {
                backpressure: Some(BackpressureConfig {
                    queue_threshold: 1,
                    defer_delay: SimDuration::from_millis(10),
                    max_defers: 5,
                }),
                ..OverloadConfig::default()
            },
            ..ClusterConfig::default()
        };
        // Two co-located workflows keep invocations overlapping, so a node
        // dispatch can observe the other invocation's queue depth (a single
        // closed loop always dispatches into an empty queue).
        let mut cluster = Cluster::new(config).expect("valid config");
        for name in ["SatA", "SatB"] {
            let wf = Workflow::steps(
                name,
                Step::sequence(vec![
                    Step::task("split", FunctionProfile::with_millis(40, 2 << 20)),
                    Step::foreach("work", FunctionProfile::with_millis(120, 1 << 20), 10),
                    Step::task("merge", FunctionProfile::with_millis(30, 0)),
                ]),
            );
            cluster
                .register(&wf, ClientConfig::ClosedLoop { invocations: 8 })
                .expect("registers");
        }
        cluster.run_until_idle();
        let report = cluster.report();

        assert_conserved(&report);
        let o = &report.overload;
        match mode {
            ScheduleMode::WorkerSp => {
                assert!(
                    o.backpressure_deferrals > 0,
                    "WorkerSP never deferred: {o:?}"
                );
                assert_eq!(o.master_requeues, 0, "WorkerSP must not requeue: {o:?}");
            }
            ScheduleMode::MasterSp => {
                assert!(o.master_requeues > 0, "MasterSP never requeued: {o:?}");
            }
        }
        assert_eq!(report.workflow("SatA").completed, 8);
        assert_eq!(report.workflow("SatB").completed, 8);
    }
}

/// With every mechanism disabled (the default), the overload report stays
/// all-zero except the arrival count — the subsystem must be invisible.
#[test]
fn disabled_overload_config_reports_only_admissions() {
    let report = run(ClusterConfig::default(), &saturating_workflow(4), 5);
    let o = report.overload;
    assert_eq!(o.admitted, 5);
    assert_eq!(
        faasflow_core::OverloadReport {
            admitted: 5,
            ..faasflow_core::OverloadReport::default()
        },
        o
    );
    assert_conserved(&report);
}
