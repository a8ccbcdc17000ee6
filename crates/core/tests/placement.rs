//! Integration tests for the load- and locality-aware placement layer:
//! determinism under live-load feedback, residual-capacity accounting with
//! nominal fallback, crash/restart-triggered incremental rebalancing (no
//! double placement, epoch fencing intact), skew-triggered rebalancing,
//! the engine load's group counts, and bit-identity of legacy mode with
//! the placement layer switched off.

use std::collections::HashMap;

use faasflow_container::NodeCaps;
use faasflow_core::{
    ClientConfig, Cluster, ClusterConfig, FaultPlan, NodeCrash, PlacementConfig, PlacementReport,
    RunReport, ScheduleMode, TraceEvent,
};
use faasflow_sim::{NodeId, SimDuration, WorkflowId};
use faasflow_wdl::{FunctionProfile, Step, Workflow};

/// A small pipeline that merges into one six-container group.
fn pipeline(name: &str) -> Workflow {
    Workflow::steps(
        name,
        Step::sequence(vec![
            Step::task("ingest", FunctionProfile::with_millis(30, 1 << 20)),
            Step::foreach("crunch", FunctionProfile::with_millis(90, 1 << 20), 4),
            Step::task("publish", FunctionProfile::with_millis(25, 0)),
        ]),
    )
}

fn aware_config(workers: u32) -> ClusterConfig {
    ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers,
        node_caps: NodeCaps {
            cores: 4,
            ..NodeCaps::default()
        },
        placement_config: PlacementConfig::default(),
        ..ClusterConfig::default()
    }
}

fn assert_conserved(report: &RunReport) {
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
    assert_eq!(report.live_invocation_states, 0, "stuck invocation state");
}

/// Live load feeds the partitioner, but the feedback loop must stay inside
/// the deterministic simulation: two same-seed runs under load-aware
/// placement produce byte-identical reports and identical placements.
#[test]
fn load_aware_runs_are_deterministic_for_a_seed() {
    let run = || {
        let mut cluster = Cluster::new(aware_config(3)).expect("valid config");
        let ids: Vec<_> = (0..4)
            .map(|i| {
                cluster
                    .register(
                        &pipeline(&format!("wf{i}")),
                        ClientConfig::OpenLoop {
                            per_minute: 90.0,
                            invocations: 10,
                        },
                    )
                    .expect("registers")
            })
            .collect();
        cluster.run_until_idle();
        let dist: Vec<_> = ids.iter().map(|&id| cluster.distribution(id)).collect();
        (cluster.report(), dist)
    };
    let (a, dist_a) = run();
    let (b, dist_b) = run();
    assert_eq!(
        serde_json::to_string(&a).expect("serializes"),
        serde_json::to_string(&b).expect("serializes"),
        "same-seed load-aware runs diverged"
    );
    assert_eq!(dist_a, dist_b, "same-seed placements diverged");
    assert_conserved(&a);
    assert!(a.placement.load_aware_partitions >= 4, "{:?}", a.placement);
}

/// When live instances eat the residual capacity below a workflow's
/// demand, the partitioner first fails with `InsufficientCapacity`, then
/// retries at nominal capacity: the deploy must succeed, the fallback must
/// be counted, and no invocation may leak.
#[test]
fn residual_capacity_fallback_still_deploys() {
    let config = ClusterConfig {
        // Capacity exactly one pipeline group; any live instance drops the
        // residual below the foreach node's demand of 4.
        partition_capacity: 6,
        repartition_every: Some(1),
        ..aware_config(2)
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    for i in 0..3 {
        cluster
            .register(
                &pipeline(&format!("wf{i}")),
                ClientConfig::OpenLoop {
                    per_minute: 120.0,
                    invocations: 8,
                },
            )
            .expect("registers");
    }
    cluster.run_until_idle();
    let report = cluster.report();
    assert_conserved(&report);
    let p = &report.placement;
    assert!(
        p.capacity_fallbacks > 0,
        "loaded repartitions never hit the nominal-capacity fallback: {p:?}"
    );
    // At least one fallback rescued its deploy (a repartition that fails
    // even at nominal keeps the previous version and is only counted).
    assert!(
        p.capacity_fallbacks > report.repartition_failures,
        "no fallback rescued a deploy: {} fallbacks, {} failures",
        p.capacity_fallbacks,
        report.repartition_failures
    );
    for wf in report.workflows.values() {
        assert_eq!(wf.completed, wf.sent, "fallback deploys must still run");
    }
}

/// A worker crash triggers an incremental rebalance of only the workflows
/// it hosted; its restart pulls work back from the most-crowded survivor.
/// Placement stays single-valued per function (no double placement) and
/// epoch fencing keeps moving strictly forward.
#[test]
fn crash_and_restart_rebalance_without_double_placement() {
    let config = ClusterConfig {
        trace: true,
        fault: FaultPlan {
            node_crashes: vec![NodeCrash {
                worker: 1,
                at: SimDuration::from_millis(1500),
                restart_after: Some(SimDuration::from_millis(2500)),
            }],
            ..FaultPlan::default()
        },
        ..aware_config(3)
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    let ids: Vec<_> = (0..6)
        .map(|i| {
            cluster
                .register(
                    &pipeline(&format!("wf{i}")),
                    ClientConfig::OpenLoop {
                        per_minute: 60.0,
                        invocations: 8,
                    },
                )
                .expect("registers")
        })
        .collect();
    cluster.run_until_idle();
    let trace = cluster.take_trace();
    let report = cluster.report();
    assert_conserved(&report);

    let p = &report.placement;
    assert!(
        p.recovery_rebalances >= 1,
        "crash/restart never triggered a recovery rebalance: {p:?}"
    );
    assert!(p.rebalanced_workflows >= 1, "{p:?}");
    assert!(
        trace
            .iter()
            .any(|ev| matches!(ev, TraceEvent::PlacementRebalanced { recovery: true, .. })),
        "no recovery rebalance event in the trace"
    );

    // No double placement: each pipeline's three function nodes are placed
    // exactly once across the cluster.
    for &id in &ids {
        let placed: usize = cluster.distribution(id).iter().map(|r| r.functions).sum();
        assert_eq!(placed, 3, "function placed zero or multiple times");
    }

    // Epoch fencing held: restarts only ever move an invocation's epoch
    // strictly forward.
    let mut epochs: HashMap<(usize, usize), u32> = HashMap::new();
    for ev in &trace {
        if let TraceEvent::InvocationRestarted {
            workflow,
            invocation,
            epoch,
            ..
        } = ev
        {
            let key = (workflow.index(), invocation.index());
            let floor = epochs.insert(key, *epoch).unwrap_or(0);
            assert!(*epoch > floor, "epoch went {floor} -> {epoch} for {key:?}");
        }
    }
}

/// Placed-group skew alone (no faults) triggers the incremental
/// rebalancer once the cooldown allows it.
#[test]
fn skew_triggers_incremental_rebalance() {
    let config = ClusterConfig {
        placement_config: PlacementConfig {
            skew_threshold_pct: 100,
            rebalance_cooldown: 1,
            ..PlacementConfig::default()
        },
        ..aware_config(3)
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    for i in 0..4 {
        cluster
            .register(
                &pipeline(&format!("wf{i}")),
                ClientConfig::ClosedLoop { invocations: 6 },
            )
            .expect("registers");
    }
    cluster.run_until_idle();
    let report = cluster.report();
    assert_conserved(&report);
    let p = &report.placement;
    assert!(
        p.skew_rebalances >= 1,
        "uneven group counts never fired the skew rebalancer: {p:?}"
    );
}

/// `worker_load_snapshot`'s `local_groups` per worker against the group
/// counts of every workflow's `distribution()` summed, which WorkerSP's
/// engines host; MasterSP's worker engines host none. Returns the total.
fn assert_local_groups(cluster: &Cluster, mode: ScheduleMode, ids: &[WorkflowId]) -> usize {
    let mut placed: HashMap<NodeId, usize> = HashMap::new();
    for &id in ids {
        for row in cluster.distribution(id) {
            *placed.entry(row.worker).or_default() += row.groups;
        }
    }
    let mut total = 0;
    for (node, _, engine) in cluster.worker_load_snapshot() {
        let expected = match mode {
            ScheduleMode::WorkerSp => placed.get(&node).copied().unwrap_or(0),
            ScheduleMode::MasterSp => 0,
        };
        assert_eq!(engine.local_groups, expected, "{mode:?} worker {node}");
        total += engine.local_groups;
    }
    total
}

/// The engine load's `local_groups` follows the current deployments, at
/// registration and after skew rebalances re-placed some of them.
#[test]
fn engine_local_groups_follow_the_current_deployments() {
    for mode in [ScheduleMode::WorkerSp, ScheduleMode::MasterSp] {
        let config = ClusterConfig {
            mode,
            faastore: mode == ScheduleMode::WorkerSp,
            placement_config: PlacementConfig {
                skew_threshold_pct: 100,
                rebalance_cooldown: 1,
                ..PlacementConfig::default()
            },
            ..aware_config(3)
        };
        let mut cluster = Cluster::new(config).expect("valid config");
        let ids: Vec<WorkflowId> = (0..4)
            .map(|i| {
                let wf = pipeline(&format!("wf{i}"));
                let client = ClientConfig::ClosedLoop { invocations: 6 };
                cluster.register(&wf, client).expect("registers")
            })
            .collect();
        let registered = assert_local_groups(&cluster, mode, &ids);
        assert_eq!(registered > 0, mode == ScheduleMode::WorkerSp, "{mode:?}");
        cluster.run_until_idle();
        let p = cluster.report().placement;
        assert!(p.skew_rebalances >= 1, "{mode:?}: no skew rebalance: {p:?}");
        assert_local_groups(&cluster, mode, &ids);
    }
}

/// With the placement layer off, runs are bit-identical to the
/// pre-placement-layer behavior: the report carries an all-zero placement
/// block that stays off the wire, and same-seed runs match byte for byte.
#[test]
fn legacy_mode_reports_are_placement_free_and_stable() {
    let run = || {
        let config = ClusterConfig {
            placement_config: PlacementConfig::legacy(),
            ..aware_config(3)
        };
        let mut cluster = Cluster::new(config).expect("valid config");
        for i in 0..3 {
            cluster
                .register(
                    &pipeline(&format!("wf{i}")),
                    ClientConfig::ClosedLoop { invocations: 4 },
                )
                .expect("registers");
        }
        cluster.run_until_idle();
        cluster.report()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.placement, PlacementReport::default(), "{:?}", a.placement);
    let json = serde_json::to_string_pretty(&a).expect("serializes");
    assert!(
        !json.contains("\"placement\""),
        "legacy reports must serialize exactly as pre-placement builds"
    );
    assert_eq!(
        json,
        serde_json::to_string_pretty(&b).expect("serializes"),
        "same-seed legacy runs diverged"
    );
    assert_conserved(&a);
}

/// Worker load counts each admission once: on one container slot, a
/// foreach of 4 runs one instance and queues three, so the snapshot the
/// placement layer and the per-worker gauges read shows 3 queued and 1
/// running, not the queued three a second time as running.
#[test]
fn worker_load_counts_a_queued_admission_once() {
    let slow = FunctionProfile::with_millis(5000, 0);
    let wf = Workflow::steps("fan", Step::foreach("fan", slow, 4));
    let mut cluster = Cluster::new(ClusterConfig {
        workers: 1,
        node_caps: NodeCaps {
            cores: 1,
            ..NodeCaps::default()
        },
        ..aware_config(1)
    })
    .expect("valid config");
    cluster
        .register(&wf, ClientConfig::ClosedLoop { invocations: 1 })
        .expect("registers");
    cluster.run_until(faasflow_sim::SimTime::ZERO + SimDuration::from_secs(1));
    let (_, load, _) = cluster.worker_load_snapshot()[0];
    assert_eq!((load.queued, load.running), (3, 1));
    assert_eq!(load.busy(), 4, "four admissions hold the worker");
    cluster.run_until_idle();
    assert_conserved(&cluster.report());
}
