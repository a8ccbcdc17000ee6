//! Gray-failure detection end to end: the MAD health detector must
//! quarantine a worker that degrades while heartbeating normally, steer
//! new work away, reinstate it half-open once it heals — and never fire
//! on signals the fleet cannot distinguish (one worker total, everyone
//! equally slow). The asymmetric-partition tests exercise the false
//! suspicion path: a lease force-expired under a live worker races the
//! re-dispatch against the zombie, whose late completions must die on
//! the admission fences without breaking conservation.

use faasflow_core::{
    ClientConfig, Cluster, ClusterConfig, EngineCrash, EngineTarget, FaultPlan, GrayFault,
    GrayFaultKind, HealthConfig, JournalConfig, PlacementConfig, RunReport, ScheduleMode,
};
use faasflow_sim::SimDuration;
use faasflow_wdl::{FunctionProfile, Step, Workflow};

/// Fan-out pipeline wide enough to keep every worker sampling.
fn pipeline(name: &str) -> Workflow {
    Workflow::steps(
        name,
        Step::sequence(vec![
            Step::task("ingest", FunctionProfile::with_millis(80, 2 << 20)),
            Step::foreach("crunch", FunctionProfile::with_millis(250, 1 << 20), 6),
            Step::task("merge", FunctionProfile::with_millis(50, 0)),
        ]),
    )
}

fn gray(worker: u32, at_secs: u64, len_secs: u64, kind: GrayFaultKind) -> GrayFault {
    GrayFault {
        worker,
        at: SimDuration::from_secs(at_secs),
        duration: SimDuration::from_secs(len_secs),
        kind,
    }
}

fn base_config(workers: u32, plan: FaultPlan, health: Option<HealthConfig>) -> ClusterConfig {
    ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers,
        fault: plan,
        health,
        // Load-aware placement spreads the workflows below across the
        // fleet; legacy tie-breaking would pile everything onto worker 0
        // and leave the detector with a single scoreable worker.
        placement_config: PlacementConfig::default(),
        ..ClusterConfig::default()
    }
}

/// Registers four copies of the pipeline so every worker hosts work and
/// produces latency samples — differential detection needs a fleet.
fn run(config: ClusterConfig, invocations: u32) -> RunReport {
    let mut cluster = Cluster::new(config).expect("valid config");
    for i in 0..4 {
        cluster
            .register(
                &pipeline(&format!("wf{i}")),
                ClientConfig::ClosedLoop { invocations },
            )
            .expect("registers");
    }
    cluster.run_until_idle();
    cluster.report()
}

fn assert_conserved(report: &RunReport, label: &str) {
    for (name, wf) in &report.workflows {
        assert_eq!(
            wf.sent,
            wf.completed + wf.dead_lettered + wf.shed,
            "{label}/{name}: invocation leak"
        );
    }
    assert_eq!(
        report.live_invocation_states, 0,
        "{label}: leaked engine state"
    );
    let f = &report.faults;
    assert_eq!(
        f.dead_letter_retries_exhausted
            + f.dead_letter_crash_orphan
            + f.dead_letter_journal_unrecoverable
            + f.dead_letter_quarantine_orphan,
        f.dead_letters,
        "{label}: every dead letter carries exactly one reason"
    );
}

#[test]
fn slow_outlier_worker_is_quarantined() {
    let plan = FaultPlan {
        gray_faults: vec![gray(0, 2, 40, GrayFaultKind::ExecSlowdown { factor: 8.0 })],
        ..FaultPlan::default()
    };
    let report = run(base_config(4, plan, Some(HealthConfig::default())), 40);
    assert_conserved(&report, "slow outlier");
    assert!(
        report.health.quarantines >= 1,
        "an 8x-slow worker must be quarantined ({:?})",
        report.health
    );
    assert!(report.health.evaluations > 0);
    assert!(report.health.probations >= report.health.quarantines);
}

#[test]
fn fleet_of_one_never_quarantines() {
    // With a single worker there is no fleet median to diverge from —
    // quarantining it would halt the cluster for no alternative.
    let plan = FaultPlan {
        gray_faults: vec![gray(0, 1, 60, GrayFaultKind::ExecSlowdown { factor: 10.0 })],
        ..FaultPlan::default()
    };
    let report = run(base_config(1, plan, Some(HealthConfig::default())), 15);
    assert_conserved(&report, "fleet of one");
    assert_eq!(
        report.health.quarantines, 0,
        "a fleet of one has no outliers"
    );
    let completed: u64 = report.workflows.values().map(|w| w.completed).sum();
    assert_eq!(completed, 4 * 15);
}

#[test]
fn uniform_slowness_is_not_an_outlier() {
    // Every worker slows down by the same factor: the MAD floor keeps
    // the detector quiet — differential detection needs a differential.
    // The windows open at t=0, before any samples exist; staggered onsets
    // would transiently skew the fleet median while the ring buffers
    // flip, which is a detector limitation, not uniform slowness.
    let plan = FaultPlan {
        gray_faults: (0..4)
            .map(|w| gray(w, 0, 60, GrayFaultKind::ExecSlowdown { factor: 6.0 }))
            .collect(),
        ..FaultPlan::default()
    };
    let report = run(base_config(4, plan, Some(HealthConfig::default())), 30);
    assert_conserved(&report, "uniform slowness");
    assert_eq!(
        report.health.quarantines, 0,
        "uniform degradation must not single anyone out ({:?})",
        report.health
    );
}

#[test]
fn stuck_executor_is_flagged_by_its_peers() {
    // The stuck worker completes nothing, so it produces no samples of
    // its own — peers' evaluations must notice its stalled in-flight
    // work and quarantine it on the stuck-after clock.
    let plan = FaultPlan {
        gray_faults: vec![gray(0, 3, 30, GrayFaultKind::StuckExecutor)],
        ..FaultPlan::default()
    };
    let report = run(base_config(4, plan, Some(HealthConfig::default())), 40);
    assert_conserved(&report, "stuck executor");
    assert!(
        report.health.stuck_deferrals >= 1,
        "the stuck window must defer completions ({:?})",
        report.health
    );
    assert!(
        report.health.quarantines >= 1,
        "a stuck worker must be quarantined ({:?})",
        report.health
    );
}

#[test]
fn flaky_worker_is_quarantined_on_failure_rate() {
    let plan = FaultPlan {
        gray_faults: vec![gray(
            0,
            2,
            40,
            GrayFaultKind::FlakyExec { failure_rate: 0.9 },
        )],
        ..FaultPlan::default()
    };
    let report = run(base_config(4, plan, Some(HealthConfig::default())), 40);
    assert_conserved(&report, "flaky worker");
    assert!(
        report.exec_retries > 0,
        "a 90% failure window must trigger retries"
    );
    assert!(
        report.health.quarantines >= 1,
        "a flaky worker must be quarantined ({:?})",
        report.health
    );
}

#[test]
fn healed_worker_is_reinstated_half_open() {
    // The gray window ends early; after the cooldown the reopen probe
    // restores capacity half-open, and fresh deployments send probe work
    // whose clean completions reinstate the worker.
    let plan = FaultPlan {
        gray_faults: vec![gray(0, 2, 10, GrayFaultKind::ExecSlowdown { factor: 10.0 })],
        ..FaultPlan::default()
    };
    let mut cluster =
        Cluster::new(base_config(4, plan, Some(HealthConfig::default()))).expect("valid config");
    for i in 0..4 {
        cluster
            .register(
                &pipeline(&format!("wf{i}")),
                ClientConfig::ClosedLoop { invocations: 40 },
            )
            .expect("registers");
    }
    cluster.run_until_idle();
    // The first batch quarantined worker 0 and drained to the others;
    // by idle the window has healed and the cooldown reopened capacity.
    // New workflows deploy onto the now-emptiest worker 0: their clean
    // completions are the half-open probes.
    for i in 0..3 {
        cluster
            .register(
                &pipeline(&format!("probe{i}")),
                ClientConfig::ClosedLoop { invocations: 10 },
            )
            .expect("registers");
    }
    cluster.run_until_idle();
    let report = cluster.report();
    assert_conserved(&report, "reinstatement");
    assert!(
        report.health.quarantines >= 1,
        "the slow window must quarantine first ({:?})",
        report.health
    );
    assert!(
        report.health.reinstatements >= 1,
        "the healed worker must be reinstated ({:?})",
        report.health
    );
}

#[test]
fn asymmetric_partition_fences_zombies_and_conserves() {
    // Outbound data flows stall while heartbeats pass; the forced false
    // suspicion expires the lease under the live worker. Re-dispatch
    // races the zombie and its late completions must be fenced.
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let plan = FaultPlan {
            gray_faults: vec![gray(
                0,
                2,
                12,
                GrayFaultKind::AsymmetricPartition {
                    inbound: false,
                    expire_lease: true,
                },
            )],
            ..FaultPlan::default()
        };
        let config = ClusterConfig {
            mode,
            faastore: mode == ScheduleMode::WorkerSp,
            // Legacy placement pins every group to worker 0, guaranteeing
            // the suspect owns in-flight execs when its lease is expired.
            placement_config: PlacementConfig::legacy(),
            ..base_config(4, plan, Some(HealthConfig::default()))
        };
        let mut cluster = Cluster::new(config).expect("valid config");
        for i in 0..4 {
            let heavy = Workflow::steps(
                format!("heavy{i}"),
                Step::sequence(vec![
                    Step::task("ingest", FunctionProfile::with_millis(150, 4 << 20)),
                    Step::foreach("crunch", FunctionProfile::with_millis(1800, 4 << 20), 6),
                    Step::task("merge", FunctionProfile::with_millis(80, 0)),
                ]),
            );
            cluster
                .register(&heavy, ClientConfig::ClosedLoop { invocations: 25 })
                .expect("registers");
        }
        cluster.run_until_idle();
        let report = cluster.report();
        assert_conserved(&report, &format!("partition {mode:?}"));
        assert!(
            report.faults.lease_expiries >= 1,
            "{mode:?}: the forced suspicion must expire the lease"
        );
        if mode == ScheduleMode::WorkerSp {
            assert!(
                report.health.zombie_fenced >= 1,
                "{mode:?}: the partition restart must fence the zombie's \
                 late completions ({:?})",
                report.health
            );
        }
    }
}

#[test]
fn quarantine_coexists_with_engine_crash_recovery() {
    // A worker engine crashes and journals back while another worker is
    // quarantined for slowness: the two recovery machines must not tear
    // each other's state (conservation + no leaks is the whole test).
    let plan = FaultPlan {
        gray_faults: vec![gray(1, 2, 30, GrayFaultKind::ExecSlowdown { factor: 8.0 })],
        engine_crashes: vec![EngineCrash {
            target: EngineTarget::Worker(2),
            at: SimDuration::from_secs(4),
            restart_after: SimDuration::from_secs(6),
        }],
        ..FaultPlan::default()
    };
    let config = ClusterConfig {
        journal: JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        },
        ..base_config(4, plan, Some(HealthConfig::default()))
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    for i in 0..4 {
        cluster
            .register(
                &pipeline(&format!("wf{i}")),
                ClientConfig::ClosedLoop { invocations: 12 },
            )
            .expect("registers");
    }
    cluster.run_until_idle();
    let report = cluster.report();
    assert_conserved(&report, "quarantine + engine crash");
    assert_eq!(report.recovery.engine_crashes, 1);
    assert_eq!(report.recovery.engine_recoveries, 1);
}

#[test]
fn detector_off_report_omits_health_and_stays_deterministic() {
    // With no HealthConfig and no gray faults the report must not even
    // mention health (golden compatibility), and repeat runs must be
    // bit-identical.
    let render = || {
        let report = run(base_config(4, FaultPlan::default(), None), 15);
        assert!(report.health.is_zero());
        serde_json::to_string(&report).expect("serializes")
    };
    let a = render();
    assert!(
        !a.contains("\"health\""),
        "an all-zero health report must be omitted from the serialized form"
    );
    assert_eq!(a, render());
}

#[test]
fn gray_failures_are_deterministic() {
    let once = || {
        let plan = FaultPlan {
            gray_faults: vec![
                gray(0, 2, 20, GrayFaultKind::ExecSlowdown { factor: 6.0 }),
                gray(
                    1,
                    5,
                    10,
                    GrayFaultKind::AsymmetricPartition {
                        inbound: true,
                        expire_lease: true,
                    },
                ),
                gray(2, 8, 6, GrayFaultKind::FlakyExec { failure_rate: 0.6 }),
            ],
            ..FaultPlan::default()
        };
        run(base_config(4, plan, Some(HealthConfig::default())), 30)
    };
    assert_eq!(once(), once());
}

/// A worker crashes while a gray partition holds data-plane payloads
/// behind it. Under MasterSP its orphaned instances are re-admitted on the
/// survivor under the same token, so when the window lifts the dead
/// attempt's payloads must not reach the new admission: a stale read would
/// count one input twice (`pending_inputs` underflows), a stale write
/// would finish an instance whose exec is still running. Both show in the
/// trace, which records a payload's transfer against the instance's
/// current worker.
#[test]
fn crash_drops_payloads_stalled_behind_its_partition() {
    use faasflow_core::{NodeCrash, TraceEvent};
    use faasflow_sim::SimTime;
    use std::collections::HashMap;

    // Exec lengths put the first attempt's payload behind the window before
    // the crash at 6 s, and the re-admitted attempt still running when the
    // window lifts at 10 s (lease expiry at 7.5 s).
    let det = |ms: u64, bytes: u64| FunctionProfile::with_millis(ms, bytes).exec_variation(0.0);
    let wf = Workflow::steps(
        "stalled",
        Step::sequence(vec![
            Step::task("ingest", det(3000, 2 << 20)),
            Step::foreach("crunch", det(4000, 1 << 20), 2),
            Step::task("merge", det(50, 0)),
        ]),
    );
    for inbound in [true, false] {
        let plan = FaultPlan {
            gray_faults: vec![gray(
                0,
                0,
                10,
                GrayFaultKind::AsymmetricPartition {
                    inbound,
                    expire_lease: false,
                },
            )],
            node_crashes: vec![NodeCrash {
                worker: 0,
                at: SimDuration::from_secs(6),
                restart_after: None,
            }],
            ..FaultPlan::default()
        };
        let config = ClusterConfig {
            mode: ScheduleMode::MasterSp,
            faastore: false,
            workers: 2,
            fault: plan,
            trace: true,
            // Legacy placement pins the workflow to worker 0, the one the
            // partition and the crash hit.
            placement_config: PlacementConfig::legacy(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config).expect("valid config");
        cluster
            .register(&wf, ClientConfig::ClosedLoop { invocations: 1 })
            .expect("registers");
        cluster.run_until_idle();
        let label = if inbound {
            "stalled read"
        } else {
            "stalled write"
        };
        let report = cluster.report();
        assert_conserved(&report, label);
        assert_eq!(report.workflow("stalled").completed, 1, "{label}");
        assert!(report.health.stalled_flows >= 1, "{label}: nothing stalled");

        // Per instance: its latest admission and whether an exec runs.
        let mut instances: HashMap<_, (SimTime, bool)> = HashMap::new();
        for event in cluster.trace() {
            match *event {
                TraceEvent::InstanceStarted {
                    function,
                    instance,
                    at,
                    ..
                } => {
                    instances.insert((function, instance), (at, false));
                }
                TraceEvent::ExecStarted {
                    function, instance, ..
                } => {
                    instances.entry((function, instance)).or_default().1 = true;
                }
                TraceEvent::ExecFinished {
                    function, instance, ..
                } => {
                    instances.entry((function, instance)).or_default().1 = false;
                }
                TraceEvent::Transferred {
                    function,
                    instance,
                    read,
                    started,
                    at,
                    ..
                } => {
                    let (admitted, running) = instances[&(function, instance)];
                    assert!(
                        !read || started >= admitted,
                        "{label}: {function}#{instance} read at {at} started at {started}, \
                         before its admission at {admitted}"
                    );
                    assert!(
                        read || !running,
                        "{label}: {function}#{instance} finished its write at {at} \
                         while its exec is still running"
                    );
                }
                _ => {}
            }
        }
    }
}
