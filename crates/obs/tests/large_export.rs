//! The Chrome export and the critical paths of two traced 240-invocation
//! runs, pinned by size and FNV-1a digest. The small goldens in
//! `golden_chrome.rs` hold a few dozen spans per process; here every
//! process holds thousands, so the lane sort meets ties on start, end and
//! label that only a large forest reaches. The first run is the forest
//! `crates/bench/benches/obs.rs` times; the second adds an engine outage,
//! so `EngineDown` segments and the outage's `B`/`E` edges are covered.

use faasflow_core::{
    ClientConfig, Cluster, ClusterConfig, EngineCrash, EngineTarget, FaultPlan, JournalConfig,
};
use faasflow_obs::{build_forest, chrome_trace, extract, CritPhase, SpanForest};
use faasflow_sim::SimDuration;
use faasflow_workloads::Benchmark;

/// FNV-1a over the bytes, as the benchmark's `report_fnv64` hashes.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A traced closed-loop run of all 8 benchmarks, 30 invocations each.
fn traced_paper7(config: ClusterConfig) -> SpanForest {
    let mut cluster = Cluster::new(ClusterConfig {
        trace: true,
        ..config
    })
    .expect("valid config");
    for b in Benchmark::ALL {
        cluster
            .register(&b.workflow(), ClientConfig::ClosedLoop { invocations: 30 })
            .expect("registers");
    }
    cluster.run_until_idle();
    let forest = build_forest(&cluster.take_trace());
    forest.validate().expect("well-formed");
    assert_eq!(forest.trees.len(), 240, "one tree per invocation");
    forest
}

/// What is pinned of a forest: the export's length and digest, the digest
/// of every critical path (one `{:?}` line each) and the time the paths
/// charge to [`CritPhase::EngineDown`].
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    export_len: usize,
    export_fnv: u64,
    paths_fnv: u64,
    engine_down_ns: u64,
}

fn pins(forest: &SpanForest) -> Pins {
    let export = chrome_trace(forest, None);
    let paths = extract(forest);
    let lines: String = paths.iter().map(|p| format!("{p:?}\n")).collect();
    Pins {
        export_len: export.len(),
        export_fnv: fnv64(export.as_bytes()),
        paths_fnv: fnv64(lines.as_bytes()),
        engine_down_ns: paths
            .iter()
            .map(|p| p.phase_total(CritPhase::EngineDown).as_nanos())
            .sum(),
    }
}

#[test]
fn paper7_export_and_critical_paths_are_pinned() {
    let forest = traced_paper7(ClusterConfig::default());
    assert_eq!(
        pins(&forest),
        Pins {
            export_len: 7_218_903,
            export_fnv: 0x8922edc30cc75ccd,
            paths_fnv: 0x6dfebddabf8366b7,
            engine_down_ns: 0,
        }
    );
}

/// Worker 1's engine is down from 2 s to 3.5 s, with the journal on, so
/// its invocations wait out the outage and recover by replay.
#[test]
fn paper7_with_an_engine_outage_is_pinned() {
    let forest = traced_paper7(ClusterConfig {
        fault: FaultPlan {
            engine_crashes: vec![EngineCrash {
                target: EngineTarget::Worker(1),
                at: SimDuration::from_secs(2),
                restart_after: SimDuration::from_millis(1500),
            }],
            ..FaultPlan::default()
        },
        journal: JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        },
        ..ClusterConfig::default()
    });
    assert_eq!(forest.node_events.len(), 2, "one crash, one recovery");
    assert_eq!(
        pins(&forest),
        Pins {
            export_len: 7_222_075,
            export_fnv: 0x22ab43eb07b3ac6b,
            paths_fnv: 0x122e442760976b78,
            engine_down_ns: 1_156_990_434,
        }
    );
}
