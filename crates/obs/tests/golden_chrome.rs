//! Golden Chrome-trace exports: small deterministic runs must serialize
//! byte-identically run over run. `chrome_small.json` is a fault-free
//! pipeline; `chrome_faults.json` merges several faulted runs whose
//! combined trace reaches every event kind the exporter renders.
//! Regenerate with
//! `GOLDEN_REGEN=1 cargo test -p faasflow-obs --test golden_chrome`.

use std::collections::HashMap;

use faasflow_core::{
    AdmissionConfig, BreakerConfig, ClientConfig, Cluster, ClusterConfig, DegradeConfig,
    EngineCrash, EngineTarget, FaultPlan, GrayFault, GrayFaultKind, HealthConfig, HedgeConfig,
    JournalConfig, NodeCrash, OverloadConfig, PlacementConfig, ScheduleMode, ShedPolicy, SloConfig,
    SloObjective, StorageFault, StorageFaultKind, WindowMode,
};
use faasflow_obs::{build_forest, chrome_trace, parse_json, SpanForest};
use faasflow_sim::SimDuration;
use faasflow_wdl::{FunctionProfile, Step, Workflow};
use faasflow_workloads::Benchmark;
use serde::Value;

fn small_trace() -> String {
    let mut cluster = Cluster::new(ClusterConfig {
        trace: true,
        sample_every: Some(SimDuration::from_millis(50)),
        ..ClusterConfig::default()
    })
    .expect("valid config");
    let wf = Workflow::steps(
        "golden",
        Step::sequence(vec![
            Step::task("extract", FunctionProfile::with_millis(40, 4 << 20)),
            Step::foreach("map", FunctionProfile::with_millis(30, 2 << 20), 2),
            Step::task("load", FunctionProfile::with_millis(20, 0)),
        ]),
    );
    cluster
        .register(&wf, ClientConfig::ClosedLoop { invocations: 2 })
        .expect("registers");
    cluster.run_until_idle();
    let report = cluster.report();
    let forest = build_forest(&cluster.take_trace());
    forest.validate().expect("well-formed");
    chrome_trace(&forest, report.resources.as_ref())
}

fn pipeline(name: &str, exec_ms: u64, fan: u32) -> Workflow {
    Workflow::steps(
        name,
        Step::sequence(vec![
            Step::task("ingest", FunctionProfile::with_millis(80, 2 << 20)),
            Step::foreach(
                "crunch",
                FunctionProfile::with_millis(exec_ms, 1 << 20),
                fan,
            ),
            Step::task("merge", FunctionProfile::with_millis(50, 0)),
        ]),
    )
}

fn secs(v: u64) -> SimDuration {
    SimDuration::from_secs(v)
}

fn millis(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn finish(cluster: &mut Cluster) -> SpanForest {
    let forest = build_forest(&cluster.take_trace());
    forest.validate().expect("well-formed");
    forest
}

/// MasterSP with a journaled master-engine crash, a storage blackout
/// behind a circuit breaker, a worker crash with restart, and exec
/// failures that exhaust their retries into dead letters. Sampling is on,
/// so this run also supplies the counter tracks.
fn fault_run() -> (SpanForest, Option<faasflow_core::ResourceSeriesReport>) {
    let mut cluster = Cluster::new(ClusterConfig {
        mode: ScheduleMode::MasterSp,
        faastore: false,
        workers: 3,
        trace: true,
        sample_every: Some(millis(250)),
        exec_failure_rate: 0.15,
        max_exec_retries: 1,
        fault: FaultPlan {
            engine_crashes: vec![EngineCrash {
                target: EngineTarget::Master,
                at: millis(300),
                restart_after: millis(400),
            }],
            storage_faults: vec![StorageFault {
                at: millis(1500),
                duration: millis(1500),
                kind: StorageFaultKind::Blackout,
            }],
            node_crashes: vec![NodeCrash {
                worker: 1,
                at: millis(3500),
                restart_after: Some(secs(2)),
            }],
            dead_letter_on_exhaustion: true,
            ..FaultPlan::default()
        },
        journal: JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        },
        overload: OverloadConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                ..BreakerConfig::default()
            }),
            ..OverloadConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("valid config");
    cluster
        .register(
            &pipeline("faulty", 200, 3),
            ClientConfig::ClosedLoop { invocations: 8 },
        )
        .expect("registers");
    cluster.run_until_idle();
    let resources = cluster.report().resources;
    (finish(&mut cluster), resources)
}

/// WorkerSP under open-loop overload: a small admission queue sheds,
/// hedges race stragglers, and an SLO objective drives the degradation
/// controller through degrade and restore.
fn overload_run() -> SpanForest {
    let mut cluster = Cluster::new(ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers: 2,
        trace: true,
        qos_target: Some(secs(30)),
        overload: OverloadConfig {
            admission: Some(AdmissionConfig {
                queue_capacity: 4,
                policy: ShedPolicy::DeadlineAware,
            }),
            hedge: Some(HedgeConfig {
                delay: millis(900),
                adaptive: None,
            }),
            ..OverloadConfig::default()
        },
        slo: Some(SloConfig {
            objectives: vec![SloObjective {
                workflow: "hot".to_string(),
                target: secs(3),
                error_budget: 0.1,
                fast_window: 4,
                slow_window: 8,
                fast_burn: 1.0,
                slow_burn: 1.0,
                window: WindowMode::Count,
            }],
        }),
        degrade: Some(DegradeConfig {
            initial_cap: 4,
            min_cap: 1,
            tighten: 0.5,
            recover_step: 1,
            cooldown: secs(2),
            shed_admit_fraction: 0.2,
            probe_fraction: 0.5,
            probe_successes: 2,
            suspend_hedges: true,
            demote_shed_priority: true,
        }),
        ..ClusterConfig::default()
    })
    .expect("valid config");
    let hot = Workflow::steps(
        "hot",
        Step::sequence(vec![
            Step::task("ingest", FunctionProfile::with_millis(100, 2 << 20)),
            Step::foreach(
                "crunch",
                FunctionProfile::with_millis(800, 1 << 20).exec_variation(0.5),
                6,
            ),
            Step::task("merge", FunctionProfile::with_millis(50, 0)),
        ]),
    );
    cluster
        .register(
            &hot,
            ClientConfig::OpenLoop {
                per_minute: 60.0,
                invocations: 20,
            },
        )
        .expect("registers");
    cluster.run_until_idle();
    finish(&mut cluster)
}

/// One WordCount invocation on two WorkerSP workers: its partition spans
/// both, so completions send cross-worker state syncs.
fn sync_run() -> SpanForest {
    let mut cluster = Cluster::new(ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers: 2,
        trace: true,
        ..ClusterConfig::default()
    })
    .expect("valid config");
    cluster
        .register(
            &Benchmark::WordCount.workflow(),
            ClientConfig::ClosedLoop { invocations: 1 },
        )
        .expect("registers");
    cluster.run_until_idle();
    finish(&mut cluster)
}

/// WorkerSP with the health detector on, in three phases: a slow worker
/// is quarantined (while an asymmetric partition expires a live worker's
/// lease and its late completions are fenced), probe work sent while it
/// is still slow relapses it, and probe work sent after it heals
/// reinstates it.
fn health_run() -> SpanForest {
    let gray = |worker: u32, at: u64, len: u64, kind: GrayFaultKind| GrayFault {
        worker,
        at: secs(at),
        duration: secs(len),
        kind,
    };
    let mut cluster = Cluster::new(ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        workers: 4,
        trace: true,
        health: Some(HealthConfig {
            cooldown: secs(2),
            ..HealthConfig::default()
        }),
        placement_config: PlacementConfig::default(),
        fault: FaultPlan {
            gray_faults: vec![
                gray(0, 1, 12, GrayFaultKind::ExecSlowdown { factor: 8.0 }),
                gray(
                    1,
                    3,
                    6,
                    GrayFaultKind::AsymmetricPartition {
                        inbound: false,
                        expire_lease: true,
                    },
                ),
            ],
            ..FaultPlan::default()
        },
        ..ClusterConfig::default()
    })
    .expect("valid config");
    for (prefix, count, invocations) in [("wf", 4, 8), ("relapse", 2, 4), ("probe", 2, 4)] {
        for i in 0..count {
            cluster
                .register(
                    &pipeline(&format!("{prefix}{i}"), 250, 6),
                    ClientConfig::ClosedLoop { invocations },
                )
                .expect("registers");
        }
        cluster.run_until_idle();
    }
    finish(&mut cluster)
}

/// The four runs merged into one forest and rendered once.
fn faults_trace() -> String {
    let (mut forest, resources) = fault_run();
    for other in [overload_run(), health_run(), sync_run()] {
        forest.trees.extend(other.trees);
        forest.node_events.extend(other.node_events);
    }
    chrome_trace(&forest, resources.as_ref())
}

fn assert_matches_golden(file: &str, rendered: String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir golden");
        std::fs::write(&path, rendered + "\n").expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {file} ({e}); run with GOLDEN_REGEN=1"));
    let rendered = rendered + "\n";
    if rendered != golden {
        let at = rendered
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.len().min(golden.len()));
        panic!("Chrome trace export diverged from the committed golden {file} at byte {at}");
    }
}

#[test]
fn chrome_export_matches_the_committed_golden() {
    assert_matches_golden("chrome_small.json", small_trace());
}

#[test]
fn faulted_chrome_export_matches_the_committed_golden() {
    assert_matches_golden("chrome_faults.json", faults_trace());
}

/// The trace events of an export, parsed.
fn trace_events(text: &str) -> Vec<Vec<(String, Value)>> {
    let Value::Map(fields) = parse_json(text).expect("export parses as JSON") else {
        panic!("top level must be an object")
    };
    let events = fields
        .into_iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents present");
    let Value::Seq(events) = events else {
        panic!("traceEvents must be an array")
    };
    events
        .into_iter()
        .map(|ev| match ev {
            Value::Map(fields) => fields,
            _ => panic!("trace event must be an object"),
        })
        .collect()
}

fn field<'a>(event: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    event.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field<'a>(event: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    match field(event, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn num_field(event: &[(String, Value)], key: &str) -> f64 {
    match field(event, key) {
        Some(Value::UInt(u)) => *u as f64,
        Some(Value::Float(f)) => *f,
        other => panic!("{key} must be a number, got {other:?}"),
    }
}

/// Every event has a known phase; on each `(pid, tid)` thread the `B`/`E`
/// depth never goes negative and ends at zero, and each `E` is no earlier
/// than the `B` it closes.
fn assert_threads_wellformed(label: &str, text: &str) {
    let mut open: HashMap<(u64, u64), Vec<f64>> = HashMap::new();
    let mut begins = 0u32;
    for ev in trace_events(text) {
        let phase = str_field(&ev, "ph").expect("event has a phase");
        let thread = (num_field(&ev, "pid") as u64, num_field(&ev, "tid") as u64);
        match phase {
            "B" => {
                begins += 1;
                open.entry(thread).or_default().push(num_field(&ev, "ts"));
            }
            "E" => {
                let begin = open
                    .get_mut(&thread)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("{label}: E without an open B on {thread:?}"));
                let end = num_field(&ev, "ts");
                assert!(
                    end >= begin,
                    "{label}: E at {end} closes a B at {begin} on {thread:?}"
                );
            }
            "M" | "i" | "C" => {}
            other => panic!("{label}: unexpected phase {other}"),
        }
    }
    assert!(begins > 0, "{label}: no spans exported");
    for (thread, stack) in open {
        assert!(
            stack.is_empty(),
            "{label}: {} B events left open on {thread:?}",
            stack.len()
        );
    }
}

#[test]
fn every_thread_nests_in_both_goldens() {
    assert_threads_wellformed("small", &small_trace());
    assert_threads_wellformed("faults", &faults_trace());
}

#[test]
fn faulted_golden_reaches_every_event_kind() {
    let text = faults_trace();
    let names: Vec<String> = trace_events(&text)
        .iter()
        .filter_map(|ev| str_field(ev, "name").map(str::to_string))
        .collect();
    // Names rendered verbatim.
    for exact in [
        "worker crashed",
        "worker restarted",
        "lease expired",
        "engine down",
        "engine crashed",
        "breaker state",
        "worker quarantined",
        "worker quarantined (relapse)",
        "worker reinstated",
        "health state",
        "containers",
        "queued admissions",
        "memstore bytes",
        "nic bytes/s",
        "cluster load",
    ] {
        assert!(
            names.iter().any(|n| n == exact),
            "faults golden lost the {exact:?} event"
        );
    }
    // Names carrying ids or values: match the fixed part.
    for fragment in [
        "engine recovered (",
        "breaker Closed -> Open",
        "SLO alert fired: ",
        "SLO alert resolved: ",
        "slo burn rate ",
        "workflow degraded: ",
        "workflow restored: ",
        "degrade state ",
        "zombie fenced: ",
        "sync ",
        "storage retry ",
        " restart epoch ",
        " dead-lettered",
        " shed (queue full)",
        " -> ",
        "hedge won",
        "primary won",
    ] {
        assert!(
            names.iter().any(|n| n.contains(fragment)),
            "faults golden lost every event named like {fragment:?}"
        );
    }
    assert!(
        names
            .iter()
            .any(|n| n.starts_with("hedge ") && n.contains(": ")),
        "faults golden lost the hedge-launched annotation"
    );
    for arg in [
        "\"critical_path\":true",
        "\"cname\":\"terrible\"",
        "\"truncated\":true",
        "\"cold\":true",
        "\"failed\":true",
        "\"remote\":true",
        "\"read\":false",
    ] {
        assert!(text.contains(arg), "faults golden lost {arg}");
    }
}

/// A workflow named with every character class the escaper handles still
/// exports span names derived from ids alone: each is the tree prefix plus
/// the span's label, byte for byte. The escaper itself is checked against
/// `serde_json` in `chrome.rs`.
#[test]
fn names_with_json_metacharacters_round_trip() {
    let workflow_name = "q\"uote\\back\r\nnew\ttab\u{1}ctl\u{1f}unit é";
    let mut cluster = Cluster::new(ClusterConfig {
        trace: true,
        ..ClusterConfig::default()
    })
    .expect("valid config");
    cluster
        .register(
            &pipeline(workflow_name, 30, 2),
            ClientConfig::ClosedLoop { invocations: 1 },
        )
        .expect("registers");
    cluster.run_until_idle();
    let forest = finish(&mut cluster);
    let tree = &forest.trees[0];
    let expected: Vec<String> = (0..tree.spans.len())
        .map(|idx| {
            if tree.spans[idx].parent.is_none() {
                tree.label(idx).to_string()
            } else {
                format!("{}/{} {}", tree.workflow, tree.invocation, tree.label(idx))
            }
        })
        .collect();
    let text = chrome_trace(&forest, None);
    // Byte level: each name appears escaped exactly as the vendored
    // serde_json escapes it.
    for name in &expected {
        let escaped = serde_json::to_string(name).expect("strings serialize");
        assert!(
            text.contains(&format!("\"name\":{escaped},")),
            "{escaped} missing from the export"
        );
    }
    let events = trace_events(&text);
    let mut span_names: Vec<String> = events
        .iter()
        .filter(|ev| str_field(ev, "ph") == Some("B"))
        .map(|ev| str_field(ev, "name").expect("span name").to_string())
        .collect();
    let mut expected = expected;
    span_names.sort();
    expected.sort();
    assert_eq!(span_names, expected);
    for ev in events
        .iter()
        .filter(|ev| str_field(ev, "name") == Some("process_name"))
    {
        let Some(Value::Map(args)) = field(ev, "args") else {
            panic!("process_name carries args")
        };
        let pid = num_field(ev, "pid") as u64;
        let want = match pid {
            0 => "cluster".to_string(),
            1 => "node0 (master/storage)".to_string(),
            n => format!("node{} (worker)", n - 1),
        };
        assert_eq!(str_field(args, "name"), Some(want.as_str()));
    }
}
