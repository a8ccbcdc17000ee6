//! Engine crash + journaled recovery: targeted failover scenarios.
//!
//! The chaos sweep fuzzes these paths; this suite pins the specific
//! shapes the recovery protocol promises to survive:
//!
//! * a crash mid-dispatch (work in flight, completions racing the outage),
//! * a second crash landing during the recovery window (era fencing),
//! * a crash whose journal store is blacked out at restart (replay
//!   backoff, then recovery or attributed dead-letter),
//! * `restart_after == 0` (instant restart — the degenerate outage).
//!
//! Every scenario must end with conservation
//! (`sent == completed + dead_lettered + shed`), no live invocation
//! state, and every dead letter carrying exactly one attributed reason —
//! the exactly-once contract under control-plane faults.

use faasflow_core::{
    ClientConfig, Cluster, ClusterConfig, EngineCrash, EngineTarget, FaultPlan, JournalConfig,
    RunReport, ScheduleMode, StorageFault, StorageFaultKind, TraceEvent,
};
use faasflow_sim::{SimDuration, SimTime};
use faasflow_wdl::{FunctionProfile, Step, Workflow};

fn workflow() -> Workflow {
    Workflow::steps(
        "Failover",
        Step::sequence(vec![
            Step::task("ingest", FunctionProfile::with_millis(60, 1 << 20)),
            Step::foreach("work", FunctionProfile::with_millis(80, 1 << 19), 4),
            Step::task("merge", FunctionProfile::with_millis(30, 0)),
        ]),
    )
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

struct Scenario {
    mode: ScheduleMode,
    crashes: Vec<EngineCrash>,
    storage_faults: Vec<StorageFault>,
    journal: bool,
    invocations: u32,
}

fn run(s: Scenario) -> (RunReport, Vec<TraceEvent>) {
    let mut cluster = Cluster::new(ClusterConfig {
        mode: s.mode,
        faastore: s.mode == ScheduleMode::WorkerSp,
        workers: 3,
        trace: true,
        fault: FaultPlan {
            engine_crashes: s.crashes,
            storage_faults: s.storage_faults,
            ..FaultPlan::default()
        },
        journal: JournalConfig {
            enabled: s.journal,
            ..JournalConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("valid config");
    cluster
        .register(
            &workflow(),
            ClientConfig::ClosedLoop {
                invocations: s.invocations,
            },
        )
        .expect("registers");
    let end = cluster.run_until_idle();
    assert!(end > SimTime::ZERO);
    let trace = cluster.take_trace();
    (cluster.report(), trace)
}

/// The exactly-once contract: every invocation leaves through one
/// terminal door, nothing stays live, and every dead letter has exactly
/// one attributed reason.
fn assert_exactly_once(report: &RunReport) {
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
    }
    assert_eq!(report.live_invocation_states, 0, "leaked invocation state");
    let f = &report.faults;
    assert_eq!(
        f.dead_letter_retries_exhausted
            + f.dead_letter_crash_orphan
            + f.dead_letter_journal_unrecoverable,
        f.dead_letters,
        "dead-letter reasons don't sum: {f:?}"
    );
    let r = &report.recovery;
    assert_eq!(
        r.engine_crashes,
        r.master_engine_crashes + r.worker_engine_crashes,
        "crash split doesn't sum: {r:?}"
    );
}

#[test]
fn master_crash_mid_dispatch_recovers_every_invocation() {
    let (report, trace) = run(Scenario {
        mode: ScheduleMode::MasterSp,
        crashes: vec![EngineCrash {
            target: EngineTarget::Master,
            at: ms(30), // first invocation's entry is executing
            restart_after: ms(500),
        }],
        storage_faults: vec![],
        journal: true,
        invocations: 6,
    });
    assert_exactly_once(&report);
    let r = &report.recovery;
    assert_eq!(r.engine_crashes, 1);
    assert_eq!(r.master_engine_crashes, 1);
    assert_eq!(r.engine_recoveries, 1);
    assert!(r.journal_appends > 0, "journal never written: {r:?}");
    assert!(r.journal_replays >= 1, "restart never replayed: {r:?}");
    assert!(
        r.engine_downtime_secs >= 0.5,
        "downtime below restart delay: {r:?}"
    );
    // Work raced the outage: something terminal still happened for all.
    let wf = report.workflow("Failover");
    assert_eq!(wf.completed + wf.dead_lettered, 6);
    // The outage is visible in the trace, bracketed crash -> recovery.
    let crashed = trace
        .iter()
        .position(|e| matches!(e, TraceEvent::EngineCrashed { worker: None, .. }));
    let recovered = trace
        .iter()
        .position(|e| matches!(e, TraceEvent::EngineRecovered { worker: None, .. }));
    assert!(crashed.is_some() && recovered > crashed);
}

#[test]
fn worker_crash_mid_dispatch_recovers_every_invocation() {
    let (report, trace) = run(Scenario {
        mode: ScheduleMode::WorkerSp,
        crashes: vec![EngineCrash {
            target: EngineTarget::Worker(0),
            at: ms(30),
            restart_after: ms(500),
        }],
        storage_faults: vec![],
        journal: true,
        invocations: 6,
    });
    assert_exactly_once(&report);
    let r = &report.recovery;
    assert_eq!(r.engine_crashes, 1);
    assert_eq!(r.worker_engine_crashes, 1);
    assert_eq!(r.engine_recoveries, 1);
    let wf = report.workflow("Failover");
    assert_eq!(wf.completed + wf.dead_lettered, 6);
    assert!(trace.iter().any(|e| matches!(
        e,
        TraceEvent::EngineRecovered {
            worker: Some(_),
            ..
        }
    )));
}

#[test]
fn second_crash_during_recovery_window_is_fenced() {
    // The second crash lands right after the first restart fires, while
    // redispatched work is back in flight; era fencing must keep the two
    // restart chains from interleaving.
    let (report, _) = run(Scenario {
        mode: ScheduleMode::MasterSp,
        crashes: vec![
            EngineCrash {
                target: EngineTarget::Master,
                at: ms(30),
                restart_after: ms(400),
            },
            EngineCrash {
                target: EngineTarget::Master,
                at: ms(450),
                restart_after: ms(300),
            },
        ],
        storage_faults: vec![],
        journal: true,
        invocations: 6,
    });
    assert_exactly_once(&report);
    let r = &report.recovery;
    assert_eq!(r.engine_crashes, 2, "both crashes must take effect: {r:?}");
    assert_eq!(r.engine_recoveries, 2, "both outages must end: {r:?}");
    let wf = report.workflow("Failover");
    assert_eq!(wf.completed + wf.dead_lettered, 6);
}

#[test]
fn crash_while_already_down_is_ignored() {
    // The second crash fires while the engine is still down; it must be
    // swallowed (an already-dead engine cannot die again) and must not
    // orphan the pending restart chain.
    let (report, _) = run(Scenario {
        mode: ScheduleMode::MasterSp,
        crashes: vec![
            EngineCrash {
                target: EngineTarget::Master,
                at: ms(30),
                restart_after: ms(600),
            },
            EngineCrash {
                target: EngineTarget::Master,
                at: ms(200), // inside the first outage
                restart_after: ms(100),
            },
        ],
        storage_faults: vec![],
        journal: true,
        invocations: 4,
    });
    assert_exactly_once(&report);
    let r = &report.recovery;
    assert_eq!(r.engine_crashes, 1, "down engine crashed again: {r:?}");
    assert_eq!(r.engine_recoveries, 1);
}

#[test]
fn journal_blackout_at_restart_backs_off_then_recovers() {
    // The store is black from before the crash until well past the
    // restart instant: replay cannot start, backs off, and succeeds once
    // the blackout lifts. No invocation may be lost to the gap.
    let (report, _) = run(Scenario {
        mode: ScheduleMode::MasterSp,
        crashes: vec![EngineCrash {
            target: EngineTarget::Master,
            at: ms(100),
            restart_after: ms(200), // restart at 300ms, mid-blackout
        }],
        storage_faults: vec![StorageFault {
            at: ms(50),
            duration: ms(1000), // lifts at 1050ms
            kind: StorageFaultKind::Blackout,
        }],
        journal: true,
        invocations: 4,
    });
    assert_exactly_once(&report);
    let r = &report.recovery;
    assert_eq!(r.engine_crashes, 1);
    assert_eq!(r.engine_recoveries, 1);
    assert!(
        r.replay_backoffs > 0,
        "replay should have hit the blackout: {r:?}"
    );
    let wf = report.workflow("Failover");
    assert_eq!(wf.completed + wf.dead_lettered, 4);
}

#[test]
fn zero_restart_delay_is_a_blip() {
    let (report, _) = run(Scenario {
        mode: ScheduleMode::MasterSp,
        crashes: vec![EngineCrash {
            target: EngineTarget::Master,
            at: ms(30),
            restart_after: SimDuration::ZERO,
        }],
        storage_faults: vec![],
        journal: true,
        invocations: 4,
    });
    assert_exactly_once(&report);
    let r = &report.recovery;
    assert_eq!(r.engine_crashes, 1);
    assert_eq!(r.engine_recoveries, 1);
    let wf = report.workflow("Failover");
    assert_eq!(wf.completed + wf.dead_lettered, 4);
}

#[test]
fn crash_without_journal_still_terminates_everything() {
    // Journaling off: an admitted-but-unstarted invocation caught in the
    // crash has no durable witness and must be dead-lettered as a crash
    // orphan — not leaked.
    let (report, _) = run(Scenario {
        mode: ScheduleMode::MasterSp,
        crashes: vec![EngineCrash {
            target: EngineTarget::Master,
            at: ms(30),
            restart_after: ms(500),
        }],
        storage_faults: vec![],
        journal: false,
        invocations: 6,
    });
    assert_exactly_once(&report);
    let r = &report.recovery;
    assert_eq!(r.engine_crashes, 1);
    assert_eq!(r.journal_appends, 0, "journal off must not write: {r:?}");
    assert_eq!(r.journal_replays, 0);
}

#[test]
fn worker_sp_crash_without_journal_still_terminates_everything() {
    let (report, _) = run(Scenario {
        mode: ScheduleMode::WorkerSp,
        crashes: vec![EngineCrash {
            target: EngineTarget::Worker(1),
            at: ms(100),
            restart_after: ms(400),
        }],
        storage_faults: vec![],
        journal: false,
        invocations: 6,
    });
    assert_exactly_once(&report);
    assert_eq!(report.recovery.journal_appends, 0);
}

#[test]
fn engine_crashes_off_is_bit_identical_to_baseline() {
    // The whole fault-tolerance layer must be invisible when unused:
    // a run with an empty engine-crash plan and the journal disabled is
    // byte-identical to one that never knew the feature existed.
    let baseline = || {
        let mut cluster = Cluster::new(ClusterConfig {
            mode: ScheduleMode::WorkerSp,
            faastore: true,
            workers: 3,
            ..ClusterConfig::default()
        })
        .expect("valid config");
        cluster
            .register(&workflow(), ClientConfig::ClosedLoop { invocations: 5 })
            .expect("registers");
        cluster.run_until_idle();
        serde_json::to_string(&cluster.report()).expect("serializes")
    };
    assert_eq!(baseline(), baseline());
}

#[test]
fn journal_flushes_in_order_when_a_brownout_ends() {
    // A record issued inside a 10× brownout flushes at `now + 20 ms`; one
    // issued just after the brownout ends would flush at `now + 2 ms`,
    // ahead of it. A sequential log cannot overtake itself, so the later
    // record waits for the earlier flush (debug builds used to panic on
    // the reordered append, release builds kept an unsorted log).
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let mut cluster = Cluster::new(ClusterConfig {
            mode,
            faastore: mode == ScheduleMode::WorkerSp,
            workers: 3,
            fault: FaultPlan {
                storage_faults: vec![StorageFault {
                    at: SimDuration::from_secs(1),
                    duration: SimDuration::from_secs(1),
                    kind: StorageFaultKind::Brownout { slowdown: 10.0 },
                }],
                ..FaultPlan::default()
            },
            journal: JournalConfig {
                enabled: true,
                ..JournalConfig::default()
            },
            ..ClusterConfig::default()
        })
        .expect("valid config");
        let client = ClientConfig::OpenLoop {
            per_minute: 6000.0,
            invocations: 400,
        };
        cluster.register(&workflow(), client).expect("registers");
        cluster.run_until_idle();
        let report = cluster.report();
        assert_exactly_once(&report);
        assert!(report.recovery.journal_appends > 0, "{mode:?}: journaled");
    }
}
