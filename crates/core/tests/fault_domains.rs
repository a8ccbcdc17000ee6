//! Fault-domain tests: injected node crashes, storage outages and link
//! degradation must never leave the cluster wedged or leak state — every
//! registered invocation either completes or is dead-lettered with
//! explicit accounting, deterministically, under both schedule patterns.

use faasflow_container::NodeCaps;
use faasflow_core::{
    BackoffPolicy, ClientConfig, Cluster, ClusterConfig, EngineCrash, EngineTarget, FaultPlan,
    JournalConfig, NetFault, NodeCrash, RunReport, ScheduleMode, StorageFault, StorageFaultKind,
    TraceEvent,
};
use faasflow_sim::{NodeId, SimDuration, SimTime};
use faasflow_wdl::{FunctionProfile, Step, Workflow};

/// A small map/reduce stand-in (split -> 6x count -> merge) that moves
/// enough data for storage faults to bite.
fn map_reduce() -> Workflow {
    Workflow::steps(
        "WC",
        Step::sequence(vec![
            Step::task("split", FunctionProfile::with_millis(100, 8 << 20)),
            Step::foreach("count", FunctionProfile::with_millis(150, 2 << 20), 6),
            Step::task("merge", FunctionProfile::with_millis(80, 0)),
        ]),
    )
}

/// A map/reduce too wide for one partition (two 8-wide stages exceed the
/// default partition capacity 12), so even WorkerSP must ship some edges
/// across workers through the remote store — storage faults bite both
/// modes.
fn wide_map_reduce() -> Workflow {
    Workflow::steps(
        "WC",
        Step::sequence(vec![
            Step::task("split", FunctionProfile::with_millis(100, 8 << 20)),
            Step::foreach("count", FunctionProfile::with_millis(150, 4 << 20), 8),
            Step::foreach("shuffle", FunctionProfile::with_millis(120, 2 << 20), 8),
            Step::task("merge", FunctionProfile::with_millis(80, 0)),
        ]),
    )
}

fn config(mode: ScheduleMode, fault: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        mode,
        faastore: mode == ScheduleMode::WorkerSp,
        workers: 4,
        fault,
        ..ClusterConfig::default()
    }
}

/// Runs `invocations` of the map/reduce workflow to completion and
/// returns the report.
fn run(config: ClusterConfig, invocations: u32) -> RunReport {
    run_wf(config, &map_reduce(), invocations)
}

fn run_wf(config: ClusterConfig, wf: &Workflow, invocations: u32) -> RunReport {
    let mut cluster = Cluster::new(config).expect("valid config");
    cluster
        .register(wf, ClientConfig::ClosedLoop { invocations })
        .expect("registers");
    cluster.run_until_idle();
    cluster.report()
}

/// No invocation may be lost: everything sent either completed or was
/// dead-lettered with accounting, and no engine state leaks.
fn assert_drained(report: &RunReport, mode: ScheduleMode) {
    let wf = report.workflow("WC");
    assert_eq!(
        wf.completed + wf.dead_lettered,
        wf.sent,
        "every invocation must complete or dead-letter under {mode:?}"
    );
    assert_eq!(
        wf.dead_lettered, report.faults.dead_letters,
        "dead-letter accounting must match under {mode:?}"
    );
    assert_eq!(
        report.live_invocation_states, 0,
        "no leaked engine state under {mode:?}"
    );
}

fn crash_plan(restart_after: Option<SimDuration>) -> FaultPlan {
    FaultPlan {
        node_crashes: vec![NodeCrash {
            worker: 0,
            at: SimDuration::from_secs(2),
            restart_after,
        }],
        ..FaultPlan::default()
    }
}

#[test]
fn worker_crash_and_restart_drains_cleanly() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let plan = crash_plan(Some(SimDuration::from_secs(3)));
        let report = run(config(mode, plan), 30);
        assert_drained(&report, mode);
        assert_eq!(report.faults.worker_crashes, 1, "under {mode:?}");
        assert_eq!(report.faults.worker_restarts, 1, "under {mode:?}");
        assert!(report.faults.lease_expiries >= 1, "under {mode:?}");
        assert!(
            report.faults.crash_redispatches > 0,
            "a mid-run crash must orphan work that gets re-dispatched under {mode:?}"
        );
    }
}

#[test]
fn permanent_crash_still_drains_on_survivors() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let report = run(config(mode, crash_plan(None)), 30);
        assert_drained(&report, mode);
        assert_eq!(report.faults.worker_crashes, 1, "under {mode:?}");
        assert_eq!(report.faults.worker_restarts, 0, "under {mode:?}");
        let wf = report.workflow("WC");
        assert!(
            wf.completed > 0,
            "survivors must keep completing work under {mode:?}"
        );
    }
}

#[test]
fn crashes_cost_latency_not_accounting() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let clean = run(config(mode, FaultPlan::default()), 30);
        let faulty = run(
            config(mode, crash_plan(Some(SimDuration::from_secs(3)))),
            30,
        );
        assert_drained(&faulty, mode);
        assert!(
            faulty.workflow("WC").e2e.max >= clean.workflow("WC").e2e.max,
            "recovered invocations must pay the outage in latency under {mode:?}"
        );
    }
}

fn blackout_plan(at_secs: u64, secs: u64) -> FaultPlan {
    FaultPlan {
        storage_faults: vec![StorageFault {
            at: SimDuration::from_secs(at_secs),
            duration: SimDuration::from_secs(secs),
            kind: StorageFaultKind::Blackout,
        }],
        ..FaultPlan::default()
    }
}

#[test]
fn storage_blackout_queues_with_backoff_and_drains() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let report = run_wf(config(mode, blackout_plan(1, 4)), &wide_map_reduce(), 20);
        assert_drained(&report, mode);
        assert!(
            report.faults.storage_backoff_waits > 0,
            "a blackout must force storage backoff under {mode:?}"
        );
    }
}

/// The paper's availability argument: WorkerSP with FaaStore passes most
/// intermediate data through worker-local memory, so a remote-storage
/// outage stalls far fewer operations than under the MasterSP baseline,
/// which ships every edge through the remote store.
#[test]
fn workersp_outsurvives_mastersp_in_storage_outage() {
    let worker = run(config(ScheduleMode::WorkerSp, blackout_plan(1, 6)), 20);
    let master = run(config(ScheduleMode::MasterSp, blackout_plan(1, 6)), 20);
    assert_drained(&worker, ScheduleMode::WorkerSp);
    assert_drained(&master, ScheduleMode::MasterSp);
    assert!(
        worker.faults.storage_backoff_waits < master.faults.storage_backoff_waits,
        "local data passing must reduce exposure to the outage ({} vs {})",
        worker.faults.storage_backoff_waits,
        master.faults.storage_backoff_waits
    );

    // Inflation relative to each mode's own fault-free baseline.
    let worker_clean = run(config(ScheduleMode::WorkerSp, FaultPlan::default()), 20);
    let master_clean = run(config(ScheduleMode::MasterSp, FaultPlan::default()), 20);
    let worker_inflation = worker.workflow("WC").e2e.mean / worker_clean.workflow("WC").e2e.mean;
    let master_inflation = master.workflow("WC").e2e.mean / master_clean.workflow("WC").e2e.mean;
    assert!(
        worker_inflation < master_inflation,
        "the outage must hurt WorkerSP less ({worker_inflation:.2}x vs {master_inflation:.2}x)"
    );
}

#[test]
fn storage_brownout_slows_but_everything_completes() {
    let plan = FaultPlan {
        storage_faults: vec![StorageFault {
            at: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(10),
            kind: StorageFaultKind::Brownout { slowdown: 8.0 },
        }],
        ..FaultPlan::default()
    };
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let clean = run_wf(config(mode, FaultPlan::default()), &wide_map_reduce(), 20);
        let browned = run_wf(config(mode, plan.clone()), &wide_map_reduce(), 20);
        assert_drained(&browned, mode);
        assert_eq!(browned.workflow("WC").completed, 20, "under {mode:?}");
        assert!(
            browned.workflow("WC").e2e.mean > clean.workflow("WC").e2e.mean,
            "a brownout must visibly raise latency under {mode:?}"
        );
    }
}

#[test]
fn degraded_link_retransmits_and_completes() {
    let plan = FaultPlan {
        net_faults: vec![NetFault {
            worker: 0,
            at: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(8),
            loss: 0.5,
            latency_factor: 4.0,
            bandwidth_factor: 0.25,
        }],
        ..FaultPlan::default()
    };
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let report = run(config(mode, plan.clone()), 20);
        assert_drained(&report, mode);
        assert_eq!(report.workflow("WC").completed, 20, "under {mode:?}");
        assert!(
            report.faults.message_retransmits > 0,
            "50% loss must force retransmissions under {mode:?}"
        );
    }
}

/// `bandwidth_factor` may be any value in (0, 1]. At 1e-15 worker 0's NIC
/// carries ~1e-6 B/s, so a megabyte read through it would finish only
/// after more nanoseconds than a `SimTime` holds. The flow waits out the
/// window like a starved one, and the run drains once the link recovers.
#[test]
fn vanishing_link_bandwidth_waits_out_the_window() {
    let plan = FaultPlan {
        net_faults: vec![NetFault {
            worker: 0,
            at: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(5),
            loss: 0.0,
            latency_factor: 1.0,
            bandwidth_factor: 1e-15,
        }],
        ..FaultPlan::default()
    };
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let clean = run_wf(config(mode, FaultPlan::default()), &wide_map_reduce(), 10);
        let report = run_wf(config(mode, plan.clone()), &wide_map_reduce(), 10);
        assert_drained(&report, mode);
        assert_eq!(report.workflow("WC").completed, 10, "under {mode:?}");
        assert!(
            report.workflow("WC").e2e.mean > clean.workflow("WC").e2e.mean,
            "the stalled link must visibly raise latency under {mode:?}"
        );
    }
}

/// Same seed + same fault plan => bit-identical reports, both modes. The
/// whole fault subsystem draws only from the cluster's seeded RNG.
#[test]
fn fault_runs_are_deterministic() {
    let chaos = FaultPlan {
        node_crashes: vec![NodeCrash {
            worker: 1,
            at: SimDuration::from_secs(2),
            restart_after: Some(SimDuration::from_secs(2)),
        }],
        storage_faults: vec![StorageFault {
            at: SimDuration::from_secs(3),
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
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let a = run(config(mode, chaos.clone()), 25);
        let b = run(config(mode, chaos.clone()), 25);
        assert_eq!(a, b, "fault runs must be reproducible under {mode:?}");
        assert_drained(&a, mode);
    }
}

/// An empty fault plan must not perturb the RNG stream: reports with and
/// without the fault subsystem compiled into the run match bit for bit
/// (the plan IS the default, so this guards the clean-path parity).
#[test]
fn empty_plan_leaves_runs_identical() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let a = run(config(mode, FaultPlan::default()), 15);
        let b = run(config(mode, FaultPlan::default()), 15);
        assert_eq!(a, b);
        assert_eq!(a.faults, Default::default(), "no faults => all-zero report");
        assert_eq!(a.workflow("WC").completed, 15);
    }
}

// ---------------------------------------------------------------------
// Retry-budget boundary conditions (satellite: max_exec_retries = 0 and
// exec_failure_rate = 1.0).
// ---------------------------------------------------------------------

#[test]
fn zero_retry_budget_passes_failures_through() {
    // Legacy semantics: with no dead-lettering, an instance that exhausts
    // its (empty) retry budget proceeds as if it had succeeded.
    let cfg = ClusterConfig {
        exec_failure_rate: 1.0,
        max_exec_retries: 0,
        ..ClusterConfig::default()
    };
    let report = run(cfg, 10);
    let wf = report.workflow("WC");
    assert_eq!(wf.completed, 10);
    assert_eq!(wf.dead_lettered, 0);
    assert_eq!(report.exec_retries, 0, "budget 0 => not a single retry");
    assert_eq!(report.live_invocation_states, 0);
}

#[test]
fn certain_failure_with_dead_lettering_abandons_everything() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let cfg = ClusterConfig {
            exec_failure_rate: 1.0,
            max_exec_retries: 2,
            fault: FaultPlan {
                dead_letter_on_exhaustion: true,
                ..FaultPlan::default()
            },
            ..config(mode, FaultPlan::default())
        };
        let report = run(cfg, 10);
        let wf = report.workflow("WC");
        assert_eq!(wf.completed, 0, "nothing can succeed under {mode:?}");
        assert_eq!(wf.dead_lettered, 10, "under {mode:?}");
        assert_eq!(report.faults.dead_letters, 10, "under {mode:?}");
        assert_eq!(report.live_invocation_states, 0, "under {mode:?}");
    }
}

#[test]
fn certain_failure_without_dead_lettering_still_terminates() {
    let cfg = ClusterConfig {
        exec_failure_rate: 1.0,
        max_exec_retries: 2,
        ..ClusterConfig::default()
    };
    let report = run(cfg, 10);
    let wf = report.workflow("WC");
    assert_eq!(wf.completed, 10);
    // Every instance burns its full budget: 8 instances per invocation
    // (split + 6x count + merge) x 2 retries x 10 invocations.
    assert_eq!(report.exec_retries, 8 * 2 * 10);
    assert_eq!(report.live_invocation_states, 0);
}

// ---------------------------------------------------------------------
// Timeout semantics (satellite): a timed-out invocation must not leak
// containers, store quota, or engine state once it drains.
// ---------------------------------------------------------------------

#[test]
fn timed_out_invocations_release_everything() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let cfg = ClusterConfig {
            timeout: SimDuration::from_millis(200),
            ..config(mode, FaultPlan::default())
        };
        let report = run(cfg, 10);
        let wf = report.workflow("WC");
        assert!(
            wf.timeouts > 0,
            "a 200ms cap must time the map/reduce out under {mode:?}"
        );
        // Late invocations are recorded at the cap but still run to
        // completion and release everything they held.
        assert_eq!(wf.completed, 10, "under {mode:?}");
        assert_eq!(report.live_invocation_states, 0, "under {mode:?}");
        assert!(
            wf.e2e.max <= 200.0 + 1e-9,
            "latency is capped at the timeout under {mode:?}"
        );
    }
}

#[test]
fn timeout_racing_inflight_retries_drains_cleanly() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let cfg = ClusterConfig {
            timeout: SimDuration::from_millis(300),
            exec_failure_rate: 0.6,
            max_exec_retries: 3,
            ..config(mode, FaultPlan::default())
        };
        let report = run(cfg, 15);
        let wf = report.workflow("WC");
        assert_eq!(wf.completed, 15, "under {mode:?}");
        assert!(wf.timeouts > 0, "under {mode:?}");
        assert!(report.exec_retries > 0, "under {mode:?}");
        assert_eq!(report.live_invocation_states, 0, "under {mode:?}");
    }
}

#[test]
fn timeout_racing_crash_recovery_drains_cleanly() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let cfg = ClusterConfig {
            timeout: SimDuration::from_secs(3),
            ..config(mode, crash_plan(Some(SimDuration::from_secs(2))))
        };
        let report = run(cfg, 20);
        assert_drained(&report, mode);
        let wf = report.workflow("WC");
        assert!(
            wf.timeouts > 0,
            "recovery stalls must push some invocations past 3s under {mode:?}"
        );
    }
}

/// WorkerSP on three 2-core workers: two 8-wide fan-outs of 5 s calls
/// land on workers 0 and 1, each running 2 instances and queueing 6.
/// Worker 1 dies at 2 s; its lease expires at 3.5 s and the invocation
/// restarts on the survivors. The restart must purge the old attempt's
/// admissions still queued on worker 0: left there, each would hold a
/// queue slot and later boot a container only to be released as stale.
/// The purge comes before the old attempt's containers are freed, or
/// each freed container would first admit one of those stale tokens. At
/// the restart instant the new attempt has dispatched nothing yet, so no
/// worker may queue anything and worker 0 may boot nothing.
#[test]
fn restart_purges_the_old_attempts_queued_admissions() {
    let slow = FunctionProfile::with_millis(5000, 1 << 20);
    let wf = Workflow::steps(
        "WC",
        Step::parallel(vec![
            Step::foreach("left", slow, 8),
            Step::foreach("right", slow, 8),
        ]),
    );
    let fault = FaultPlan {
        node_crashes: vec![NodeCrash {
            worker: 1,
            at: SimDuration::from_secs(2),
            restart_after: None,
        }],
        ..FaultPlan::default()
    };
    let restart_at = SimTime::ZERO + (SimDuration::from_secs(2) + FaultPlan::DETECTION_DELAY);
    let mut cluster = Cluster::new(ClusterConfig {
        workers: 3,
        node_caps: NodeCaps {
            cores: 2,
            ..NodeCaps::default()
        },
        // The sample at the restart instant is queued after the lease
        // expiry, so it reads the state the restart left.
        sample_every: Some(SimDuration::from_millis(500)),
        ..config(ScheduleMode::WorkerSp, fault)
    })
    .expect("valid config");
    cluster
        .register(&wf, ClientConfig::ClosedLoop { invocations: 1 })
        .expect("registers");
    cluster.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let queued = |c: &Cluster| -> Vec<u32> {
        let loads = c.worker_load_snapshot();
        loads.iter().map(|(_, load, _)| load.queued).collect()
    };
    assert_eq!(queued(&cluster), [6, 6, 0], "both fan-outs queue");
    cluster.run_until(restart_at);
    assert_eq!(
        queued(&cluster),
        [0, 0, 0],
        "the restart leaves stale admissions queued"
    );
    let series = cluster.report().resources.expect("sampling is on");
    let worker0 = series.nodes.iter().find(|s| s.node == NodeId::new(1));
    let last = worker0
        .and_then(|s| s.samples.last())
        .expect("worker 0 sampled");
    assert_eq!(last.at_secs, (restart_at - SimTime::ZERO).as_secs_f64());
    assert_eq!(last.busy, 0, "freed containers boot stale admissions");
    cluster.run_until_idle();
    let report = cluster.report();
    assert_eq!(report.workflow("WC").completed, 1);
    assert_eq!(report.faults.crash_redispatches, 1, "{:?}", report.faults);
}

// ---------------------------------------------------------------------
// Engine-slot paths the chaos sweep does not reach
// ---------------------------------------------------------------------

/// WorkerSP: worker 1's engine crashes at 1 s with a 10 s restart delay,
/// then the whole node crashes at 2 s and restarts at 3 s. The node
/// restart brings the engine back with it, so the engine is down for
/// exactly 2 s and the supervisor's restart at 11 s finds nothing to do.
/// The revival is traced as an `EngineRecovered` with nothing replayed,
/// so the critical-path downtime window closes at 3 s instead of staying
/// open until the end of the run.
#[test]
fn node_restart_revives_an_engine_that_was_already_down() {
    let fault = FaultPlan {
        node_crashes: vec![NodeCrash {
            worker: 1,
            at: SimDuration::from_secs(2),
            restart_after: Some(SimDuration::from_secs(1)),
        }],
        engine_crashes: vec![EngineCrash {
            target: EngineTarget::Worker(1),
            at: SimDuration::from_secs(1),
            restart_after: SimDuration::from_secs(10),
        }],
        ..FaultPlan::default()
    };
    let mut cluster = Cluster::new(ClusterConfig {
        journal: JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        },
        trace: true,
        ..config(ScheduleMode::WorkerSp, fault)
    })
    .expect("valid config");
    cluster
        .register(&map_reduce(), ClientConfig::ClosedLoop { invocations: 30 })
        .expect("registers");
    let end = cluster.run_until_idle();
    let trace = cluster.take_trace();
    let report = cluster.report();
    assert_drained(&report, ScheduleMode::WorkerSp);
    assert_eq!(report.faults.worker_crashes, 1);
    assert_eq!(report.faults.worker_restarts, 1);
    let r = &report.recovery;
    assert_eq!(r.engine_crashes, 1, "{r:?}");
    assert_eq!(r.worker_engine_crashes, 1, "{r:?}");
    // Revived once, by the node restart; the 11 s supervisor restart is
    // fenced, so no journal replay runs.
    assert_eq!(r.engine_recoveries, 1, "{r:?}");
    assert_eq!(r.journal_replays, 0, "{r:?}");
    assert_eq!(r.engine_downtime_secs, 2.0, "{r:?}");

    let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let recoveries: Vec<&TraceEvent> = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::EngineRecovered { .. }))
        .collect();
    assert_eq!(
        recoveries,
        [&TraceEvent::EngineRecovered {
            worker: Some(NodeId::new(2)), // worker 1
            replayed: 0,
            at: at(3),
        }]
    );
    assert!(end > at(3));
    assert_eq!(
        faasflow_obs::downtime_windows(&trace, end),
        [(at(1), at(3))]
    );
}

/// MasterSP with a one-attempt replay budget: the master engine crashes
/// at 1 s and restarts at 1.5 s into a storage blackout that lasts until
/// 4 s, so after one backoff it boots journal-blind. Open-loop arrivals
/// during the outage left no progress and no durable journal record, so
/// they dead-letter as journal-unrecoverable.
#[test]
fn journal_blind_boot_dead_letters_unwitnessed_arrivals() {
    let fault = FaultPlan {
        engine_crashes: vec![EngineCrash {
            target: EngineTarget::Master,
            at: SimDuration::from_secs(1),
            restart_after: SimDuration::from_millis(500),
        }],
        storage_faults: vec![StorageFault {
            at: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(3),
            kind: StorageFaultKind::Blackout,
        }],
        backoff: BackoffPolicy { max_attempts: 1 },
        ..FaultPlan::default()
    };
    let cfg = ClusterConfig {
        journal: JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        },
        ..config(ScheduleMode::MasterSp, fault)
    };
    let mut cluster = Cluster::new(cfg).expect("valid config");
    cluster
        .register(
            &map_reduce(),
            ClientConfig::OpenLoop {
                per_minute: 600.0,
                invocations: 30,
            },
        )
        .expect("registers");
    cluster.run_until_idle();
    let report = cluster.report();
    assert_drained(&report, ScheduleMode::MasterSp);
    let r = &report.recovery;
    assert_eq!(r.master_engine_crashes, 1, "{r:?}");
    assert_eq!(r.engine_recoveries, 1, "{r:?}");
    assert_eq!(r.replay_backoffs, 1, "{r:?}");
    assert_eq!(r.journal_replays, 0, "a blind boot replays nothing: {r:?}");
    assert!(
        report.faults.dead_letter_journal_unrecoverable > 0,
        "{:?}",
        report.faults
    );
}
