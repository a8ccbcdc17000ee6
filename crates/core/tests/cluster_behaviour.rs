//! Behavioural tests of the cluster simulation itself.

use faasflow_core::{ClientConfig, Cluster, ClusterConfig, ReclamationMode, ScheduleMode};
use faasflow_wdl::{FunctionProfile, Step, Workflow};

fn two_stage(name: &str) -> Workflow {
    Workflow::steps(
        name,
        Step::sequence(vec![
            Step::task("a", FunctionProfile::with_millis(50, 8 << 20)),
            Step::foreach("b", FunctionProfile::with_millis(120, 8 << 20), 4),
            Step::task("c", FunctionProfile::with_millis(30, 0)),
        ]),
    )
}

#[test]
fn utilization_is_bounded_and_nonzero() {
    let mut cluster = Cluster::new(ClusterConfig::default()).expect("valid config");
    cluster
        .register(
            &two_stage("u"),
            ClientConfig::ClosedLoop { invocations: 10 },
        )
        .expect("registers");
    cluster.run_until_idle();
    let util = cluster.utilization();
    assert_eq!(util.len(), 7);
    let cores = f64::from(cluster.config().node_caps.cores);
    let mem = cluster.config().node_caps.mem as f64;
    assert!(
        util.iter().any(|u| u.cpu_peak_cores > 0.0),
        "some worker must have run containers"
    );
    for u in &util {
        assert!(u.cpu_peak_cores <= cores, "peak cores within capacity");
        assert!(u.cpu_mean_cores <= u.cpu_peak_cores + 1e-9);
        assert!(u.mem_peak_bytes <= mem, "peak memory within capacity");
        assert!(u.mem_mean_bytes <= u.mem_peak_bytes + 1e-9);
    }
}

#[test]
fn idle_cluster_has_zero_utilization() {
    let cluster = Cluster::new(ClusterConfig::default()).expect("valid config");
    for u in cluster.utilization() {
        assert_eq!(u.cpu_peak_cores, 0.0);
        assert_eq!(u.mem_peak_bytes, 0.0);
    }
}

#[test]
fn microvm_mode_keeps_more_memory_resident() {
    let run = |reclamation| {
        let config = ClusterConfig {
            reclamation,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config).expect("valid config");
        cluster
            .register(
                &two_stage("m"),
                ClientConfig::ClosedLoop { invocations: 10 },
            )
            .expect("registers");
        cluster.run_until_idle();
        let util = cluster.utilization();
        let mem: f64 = util.iter().map(|u| u.mem_peak_bytes).sum();
        let report = cluster.report();
        (mem, report.workflow("m").completed)
    };
    let (cgroup_mem, done_a) = run(ReclamationMode::CgroupLimit);
    let (microvm_mem, done_b) = run(ReclamationMode::MicroVm);
    assert_eq!(done_a, 10);
    assert_eq!(done_b, 10);
    assert!(
        microvm_mem > cgroup_mem,
        "MicroVM sandboxes cannot shrink: {microvm_mem} <= {cgroup_mem}"
    );
}

#[test]
fn reset_metrics_keeps_warm_containers() {
    let mut cluster = Cluster::new(ClusterConfig::default()).expect("valid config");
    let id = cluster
        .register(&two_stage("w"), ClientConfig::ClosedLoop { invocations: 5 })
        .expect("registers");
    cluster.run_until_idle();
    let cold_before = cluster.report().cold_starts;
    assert!(cold_before > 0);
    cluster.reset_metrics();
    cluster.extend_client(id, 10);
    cluster.run_until_idle();
    let report = cluster.report();
    assert_eq!(
        report.workflow("w").completed,
        10,
        "only measured runs counted"
    );
    assert_eq!(
        report.cold_starts, cold_before,
        "warm-up containers must be reused, not re-booted"
    );
}

#[test]
fn open_loop_switch_sends_requested_invocations() {
    let mut cluster = Cluster::new(ClusterConfig::default()).expect("valid config");
    let id = cluster
        .register(&two_stage("o"), ClientConfig::ClosedLoop { invocations: 2 })
        .expect("registers");
    cluster.run_until_idle();
    cluster.reset_metrics();
    cluster.switch_to_open_loop(id, 60.0, 12);
    cluster.run_until_idle();
    let w = cluster.report().workflow("o").clone();
    assert_eq!(w.sent, 12);
    assert_eq!(w.completed, 12);
}

#[test]
fn storage_traffic_flows_through_the_master_node() {
    let config = ClusterConfig {
        mode: ScheduleMode::MasterSp,
        faastore: false,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    cluster
        .register(&two_stage("s"), ClientConfig::ClosedLoop { invocations: 5 })
        .expect("registers");
    cluster.run_until_idle();
    let report = cluster.report();
    // Each invocation moves 8 MB a->b + 8 MB b->c, written + read: >=160MB.
    assert!(
        report.storage_node_bytes >= 5 * 2 * (16 << 20),
        "storage NIC must carry every transfer, saw {}",
        report.storage_node_bytes
    );
    assert!(report.storage_bandwidth_used() > 0.0);
}

#[test]
fn master_engine_is_busy_only_under_mastersp() {
    let run = |mode, faastore| {
        let config = ClusterConfig {
            mode,
            faastore,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config).expect("valid config");
        cluster
            .register(
                &two_stage("b"),
                ClientConfig::ClosedLoop { invocations: 10 },
            )
            .expect("registers");
        cluster.run_until_idle();
        cluster.report().master_busy_fraction
    };
    let master = run(ScheduleMode::MasterSp, false);
    let worker = run(ScheduleMode::WorkerSp, true);
    assert!(master > 0.0, "MasterSP must occupy the master CPU");
    assert_eq!(worker, 0.0, "WorkerSP never touches the master engine");
}

#[test]
fn a_failed_registration_spends_no_workflow_id() {
    let config = ClusterConfig {
        partition_capacity: 2,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config).expect("valid config");
    let wide = Workflow::steps(
        "wide",
        Step::foreach("fan", FunctionProfile::with_millis(10, 0), 64),
    );
    let closed = ClientConfig::ClosedLoop { invocations: 2 };
    assert!(
        cluster.register(&wide, closed).is_err(),
        "64-way node fits no worker"
    );
    let one = Workflow::steps("one", Step::task("t", FunctionProfile::with_millis(10, 0)));
    let wf = cluster.register(&one, closed).expect("registers");
    assert_eq!(cluster.workflow_id("one"), Some(wf));
    assert_eq!(cluster.workflow_name(wf), Some("one"));
    assert_eq!(cluster.workflow_id("wide"), None);
    cluster.run_until_idle();
    let report = cluster.report();
    assert_eq!(report.workflow("one").completed, 2);
    assert_eq!(report.workflows.len(), 1);
}
