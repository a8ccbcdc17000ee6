//! Leak checks at idle: once `run_until_idle` returns, no invocation may
//! leave anything behind — no engine `State` structure, no object on the
//! storage node, no object in any worker's FaaStore.
//!
//! Each scenario drives a different way out of the system in both
//! schedule modes: normal completion, timeouts (the invocation outlives
//! its deadline and completes late), hedged executions, exhausted
//! retries (dead letters) and a worker crash with recovery. The
//! chaos-sweep oracle applies the same check to its 64 random configs.

use faasflow_core::{
    ClientConfig, Cluster, ClusterConfig, FaultPlan, HedgeConfig, NodeCrash, OverloadConfig,
    RunReport, ScheduleMode,
};
use faasflow_sim::SimDuration;
use faasflow_wdl::{FunctionProfile, Step, SwitchCase, Workflow};

fn pipeline() -> Workflow {
    Workflow::steps(
        "Pipeline",
        Step::sequence(vec![
            Step::task("ingest", FunctionProfile::with_millis(80, 2 << 20)),
            Step::foreach(
                "work",
                FunctionProfile::with_millis(150, 1 << 20).exec_variation(0.5),
                4,
            ),
            Step::parallel(vec![
                Step::task("left", FunctionProfile::with_millis(60, 512 << 10)),
                Step::task("right", FunctionProfile::with_millis(90, 512 << 10)),
            ]),
            Step::switch(vec![
                SwitchCase::new(
                    "0",
                    Step::task("x", FunctionProfile::with_millis(40, 1 << 10)),
                ),
                SwitchCase::new(
                    "1",
                    Step::task("y", FunctionProfile::with_millis(70, 1 << 10)),
                ),
            ]),
            Step::task("merge", FunctionProfile::with_millis(30, 0)),
        ]),
    )
}

fn modes() -> [(ScheduleMode, bool); 3] {
    [
        (ScheduleMode::WorkerSp, true),
        (ScheduleMode::WorkerSp, false),
        (ScheduleMode::MasterSp, false),
    ]
}

/// Runs `config` to idle on the pipeline and checks that nothing leaked.
fn run_and_check(label: &str, config: ClusterConfig, invocations: u32) -> (Cluster, RunReport) {
    let context = format!("{label} ({:?}, faastore={})", config.mode, config.faastore);
    let mut cluster = Cluster::new(config).expect("valid config");
    cluster
        .register(&pipeline(), ClientConfig::ClosedLoop { invocations })
        .expect("registers");
    cluster.run_until_idle();
    let report = cluster.report();
    assert_eq!(
        report.live_invocation_states, 0,
        "{context}: engine State structures outlive their invocations"
    );
    assert_eq!(
        cluster.remote_store().object_count(),
        0,
        "{context}: remote store holds {} bytes after idle",
        cluster.remote_store().resident_bytes()
    );
    for (w, fs) in cluster.faastores().enumerate() {
        assert_eq!(
            fs.memstore().object_count(),
            0,
            "{context}: worker {w}'s FaaStore holds objects after idle"
        );
    }
    let wf = &report.workflows["Pipeline"];
    assert_eq!(
        wf.sent,
        wf.completed + wf.dead_lettered + wf.shed,
        "{context}: invocations unaccounted for"
    );
    (cluster, report)
}

#[test]
fn completed_invocations_release_everything() {
    for (mode, faastore) in modes() {
        let config = ClusterConfig {
            mode,
            faastore,
            ..ClusterConfig::default()
        };
        let (cluster, _) = run_and_check("completion", config, 12);
        let stored: u64 = cluster
            .faastores()
            .map(|fs| fs.memstore().total_bytes_stored())
            .sum();
        assert_eq!(
            stored > 0,
            faastore,
            "the FaaStore scenario must actually cache objects locally"
        );
    }
}

#[test]
fn timed_out_invocations_release_everything() {
    for (mode, faastore) in modes() {
        let config = ClusterConfig {
            mode,
            faastore,
            timeout: SimDuration::from_millis(200),
            ..ClusterConfig::default()
        };
        let (_, report) = run_and_check("timeouts", config, 8);
        assert!(
            report.workflows["Pipeline"].timeouts > 0,
            "the timeout scenario must time invocations out"
        );
    }
}

#[test]
fn hedged_invocations_release_everything() {
    for (mode, faastore) in modes() {
        let config = ClusterConfig {
            mode,
            faastore,
            overload: OverloadConfig {
                hedge: Some(HedgeConfig {
                    delay: SimDuration::from_millis(20),
                    ..HedgeConfig::default()
                }),
                ..OverloadConfig::default()
            },
            ..ClusterConfig::default()
        };
        let (_, report) = run_and_check("hedges", config, 10);
        assert!(
            report.overload.hedges_launched > 0,
            "the hedge scenario must launch hedges"
        );
    }
}

#[test]
fn dead_lettered_invocations_release_everything() {
    for (mode, faastore) in modes() {
        let config = ClusterConfig {
            mode,
            faastore,
            exec_failure_rate: 0.3,
            max_exec_retries: 0,
            fault: FaultPlan {
                dead_letter_on_exhaustion: true,
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let (_, report) = run_and_check("dead letters", config, 10);
        assert!(
            report.faults.dead_letters > 0,
            "the failure scenario must dead-letter invocations"
        );
    }
}

#[test]
fn crash_recovery_releases_everything() {
    for (mode, faastore) in modes() {
        let config = ClusterConfig {
            mode,
            faastore,
            fault: FaultPlan {
                node_crashes: vec![NodeCrash {
                    worker: 0,
                    at: SimDuration::from_millis(700),
                    restart_after: Some(SimDuration::from_millis(1500)),
                }],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let (_, report) = run_and_check("worker crash", config, 10);
        assert!(
            report.faults.crash_redispatches > 0,
            "the crash scenario must recover in-flight work"
        );
    }
}
