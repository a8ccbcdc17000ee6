//! One round: build a fresh cluster, warm it up, run the measured phase,
//! check the outputs, and keep what the metrics are computed from.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use faasflow_core::{ClientConfig, Cluster, LoopProfile, RunReport, TraceEvent};
use faasflow_obs::{
    aggregate, attribute, build_forest, chrome_trace, extract, prometheus_snapshot,
};
use faasflow_wdl::{DagParser, ParserConfig};

use crate::reference::reference_pass;
use crate::workload::{Load, Workload};

/// Simulated-time results of the measured phase. They depend only on the
/// seed and the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResults {
    /// Σ e2e.sum over tenants (ms).
    pub e2e_sum_ms: f64,
    /// Σ e2e.count over tenants.
    pub e2e_count: u64,
    /// Mean over tenants of each tenant's p99 (ms).
    pub tenant_p99_ms: f64,
    /// Smallest per-tenant e2e sample count (the p99's base).
    pub min_tenant_samples: u64,
    /// Σ over tenants of each tenant's completions per simulated minute.
    pub inv_per_min: f64,
}

/// Wall-clock timings of the obs pipeline on a traced round.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsTimes {
    pub trace_events: u64,
    pub forest_s: f64,
    pub validate_s: f64,
    pub critpath_s: f64,
    pub attribute_s: f64,
    pub chrome_s: f64,
    pub chrome_bytes: u64,
    /// Resident-set growth while the Chrome JSON is alive (MB).
    pub chrome_rss_mb: f64,
    pub prom_s: f64,
    /// The whole pipeline, trace drain included.
    pub total_s: f64,
}

/// What the per-layer metrics are computed from: timings of each public
/// layer call made here, the cluster's loop profile, and report counters,
/// all as measured-phase deltas unless named as set-up.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub parse_s: f64,
    pub register_s: f64,
    pub warmup_s: f64,
    pub report_s: f64,
    /// Partitioner runs and wall time over the whole round.
    pub partitions: u32,
    pub partition_s: f64,
    pub loop_s: f64,
    pub events: u64,
    /// Handler name → (events, seconds). Empty unless the cluster was
    /// built with `faasflow-core/loop-profile`.
    pub handlers: BTreeMap<String, (u64, f64)>,
    pub storage_bytes: u64,
    pub cold_starts: u64,
    pub warm_starts: u64,
    pub local_bytes: u64,
    pub remote_bytes: u64,
    pub worker_syncs: u64,
    pub master_busy_s: f64,
    pub sim_s: f64,
    pub obs: Option<ObsTimes>,
}

#[derive(Debug, Clone)]
pub struct Round {
    /// Generate, `Cluster::new`, register and warm up (s).
    pub setup_s: f64,
    /// Host time of the measured phase: run, report, obs pipeline (s).
    pub measured_s: f64,
    /// Mean of the reference-kernel passes just before and after the
    /// round (s).
    pub ref_s: f64,
    /// Measured invocations sent.
    pub sent: u64,
    /// Completions within the timeout.
    pub good: u64,
    pub sim: SimResults,
    /// FNV-64 of the serialized final `RunReport`.
    pub digest: u64,
    pub probe: Probe,
    /// Failed output checks; empty when the round is correct.
    pub problems: Vec<String>,
}

/// Runs one round of `workload`.
///
/// # Errors
///
/// Returns a message when the cluster rejects the config or a workflow.
pub fn run_round(workload: Workload, seed: u64, scale: f64) -> Result<Round, String> {
    let ref_before = reference_pass();
    let started = Instant::now();
    let config = workload.config(seed);
    let tenants = workload.tenants(seed, scale);
    // The wdl layer on its own, with the parser settings `register` uses;
    // excluded from set-up time because `register` parses again.
    let parser = DagParser::new(ParserConfig {
        reference_bandwidth: config.storage_bandwidth,
        ..ParserConfig::default()
    });
    let t = Instant::now();
    for tenant in &tenants {
        let dag = parser
            .parse(&tenant.workflow)
            .map_err(|e| format!("{}: {e}", tenant.workflow.name))?;
        black_box(dag);
    }
    let parse_s = t.elapsed().as_secs_f64();

    let mut cluster = Cluster::new(config).map_err(|e| format!("cluster config: {e}"))?;
    let t = Instant::now();
    let mut ids = Vec::with_capacity(tenants.len());
    for tenant in &tenants {
        let warm_up = ClientConfig::ClosedLoop { invocations: 1 };
        let id = cluster
            .register(&tenant.workflow, warm_up)
            .map_err(|e| format!("register {}: {e}", tenant.workflow.name))?;
        ids.push(id);
    }
    let register_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    cluster.run_until_idle();
    cluster.reset_metrics();
    // Only the measured invocations are traced.
    cluster.take_trace();
    let warmup_s = t.elapsed().as_secs_f64();
    let setup_s = started.elapsed().as_secs_f64() - parse_s;

    let before = cluster.report();
    let loop_before = cluster.loop_profile();
    let measured = Instant::now();
    for (tenant, &id) in tenants.iter().zip(&ids) {
        match tenant.load {
            Load::Open { per_minute } => {
                cluster.switch_to_open_loop(id, per_minute, tenant.invocations);
            }
            Load::Closed => cluster.extend_client(id, tenant.invocations),
        }
    }
    cluster.run_until_idle();
    let t = Instant::now();
    let after = cluster.report();
    let report_s = t.elapsed().as_secs_f64();
    let sent: u64 = after.workflows.values().map(|w| w.sent).sum();
    let mut problems = Vec::new();
    let obs = workload
        .traced()
        .then(|| observe(cluster.take_trace(), &after, sent, &mut problems));
    let measured_s = measured.elapsed().as_secs_f64();
    let loop_after = cluster.loop_profile();
    let (partition_s, partitions) = cluster.partition_wall_time();

    for tenant in &tenants {
        let name = &tenant.workflow.name;
        let Some(w) = after.workflows.get(name) else {
            problems.push(format!("{name}: missing from the report"));
            continue;
        };
        if w.sent != u64::from(tenant.invocations) {
            problems.push(format!(
                "{name}: sent {} of {} invocations",
                w.sent, tenant.invocations
            ));
        }
        if w.sent != w.completed + w.dead_lettered + w.shed {
            problems.push(format!(
                "{name}: sent {} != completed {} + dead-lettered {} + shed {}",
                w.sent, w.completed, w.dead_lettered, w.shed
            ));
        }
    }
    if after.live_invocation_states != 0 {
        problems.push(format!(
            "{} engine invocation states leaked",
            after.live_invocation_states
        ));
    }
    if after.trace_dropped != 0 {
        problems.push(format!("{} trace events dropped", after.trace_dropped));
    }

    let good: u64 = after
        .workflows
        .values()
        .map(|w| w.completed - w.timeouts)
        .sum();
    let tenants_e2e = || after.workflows.values().map(|w| w.e2e);
    let sim = SimResults {
        e2e_sum_ms: tenants_e2e().map(|e| e.sum).sum(),
        e2e_count: tenants_e2e().map(|e| e.count).sum(),
        tenant_p99_ms: tenants_e2e().map(|e| e.p99).sum::<f64>() / after.workflows.len() as f64,
        min_tenant_samples: tenants_e2e().map(|e| e.count).min().unwrap_or(0),
        inv_per_min: after.workflows.values().map(|w| w.throughput_per_min).sum(),
    };
    let serialized = serde_json::to_string(&after).map_err(|e| format!("report: {e}"))?;

    let probe = Probe {
        parse_s,
        register_s,
        warmup_s,
        report_s,
        partitions,
        partition_s,
        loop_s: loop_after.wall_secs - loop_before.wall_secs,
        events: loop_after.events_processed - loop_before.events_processed,
        handlers: handler_deltas(&loop_before, &loop_after),
        storage_bytes: after.storage_node_bytes - before.storage_node_bytes,
        cold_starts: after.cold_starts - before.cold_starts,
        warm_starts: after.warm_starts - before.warm_starts,
        local_bytes: after.workflows.values().map(|w| w.local_bytes).sum(),
        remote_bytes: after.workflows.values().map(|w| w.remote_bytes).sum(),
        worker_syncs: after.worker_syncs - before.worker_syncs,
        master_busy_s: after.master_busy_fraction * after.sim_time_secs
            - before.master_busy_fraction * before.sim_time_secs,
        sim_s: after.sim_time_secs - before.sim_time_secs,
        obs,
    };
    Ok(Round {
        setup_s,
        measured_s,
        ref_s: (ref_before + reference_pass()) / 2.0,
        sent,
        good,
        sim,
        digest: fnv64(serialized.as_bytes()),
        probe,
        problems,
    })
}

/// Measured-phase handler timing: `after − before` per event type.
fn handler_deltas(before: &LoopProfile, after: &LoopProfile) -> BTreeMap<String, (u64, f64)> {
    let mut deltas: BTreeMap<String, (u64, f64)> = after
        .per_event
        .iter()
        .map(|e| (e.name.clone(), (e.count, e.total_secs)))
        .collect();
    for e in &before.per_event {
        if let Some(d) = deltas.get_mut(&e.name) {
            d.0 -= e.count;
            d.1 -= e.total_secs;
        }
    }
    deltas.retain(|_, d| d.0 > 0);
    deltas
}

/// What `repro trace` and `repro critpath` users run on a trace: span
/// forest, validation, critical paths (each validated), aggregation,
/// attribution, and both exporters.
fn observe(
    events: Vec<TraceEvent>,
    report: &RunReport,
    invocations: u64,
    problems: &mut Vec<String>,
) -> ObsTimes {
    let started = Instant::now();
    let trace_events = events.len() as u64;
    let t = Instant::now();
    let forest = build_forest(&events);
    let forest_s = t.elapsed().as_secs_f64();
    drop(events);
    if forest.trees.len() as u64 != invocations {
        problems.push(format!(
            "span forest has {} trees for {invocations} invocations",
            forest.trees.len()
        ));
    }

    let t = Instant::now();
    let valid = forest.validate();
    let validate_s = t.elapsed().as_secs_f64();
    if let Err(e) = valid {
        problems.push(format!("span forest: {e}"));
    }

    let t = Instant::now();
    let paths = extract(&forest);
    let invalid_path = paths
        .iter()
        .zip(&forest.trees)
        .find_map(|(path, tree)| path.validate(tree).err());
    black_box(aggregate(&paths));
    let critpath_s = t.elapsed().as_secs_f64();
    if let Some(e) = invalid_path {
        problems.push(format!("critical path: {e}"));
    }
    if paths.len() != forest.trees.len() {
        problems.push(format!(
            "{} critical paths for {} span trees",
            paths.len(),
            forest.trees.len()
        ));
    }

    let t = Instant::now();
    black_box(attribute(&forest));
    let attribute_s = t.elapsed().as_secs_f64();

    let rss_before = vm_kb("VmRSS:").unwrap_or(0);
    let t = Instant::now();
    let chrome = chrome_trace(&forest, report.resources.as_ref());
    let chrome_s = t.elapsed().as_secs_f64();
    let rss_after = vm_kb("VmRSS:").unwrap_or(0);
    let chrome_bytes = chrome.len() as u64;
    drop(chrome);

    let t = Instant::now();
    black_box(prometheus_snapshot(report));
    let prom_s = t.elapsed().as_secs_f64();

    ObsTimes {
        trace_events,
        forest_s,
        validate_s,
        critpath_s,
        attribute_s,
        chrome_s,
        chrome_bytes,
        chrome_rss_mb: rss_after.saturating_sub(rss_before) as f64 / 1024.0,
        prom_s,
        total_s: started.elapsed().as_secs_f64(),
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`).
pub fn vm_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
