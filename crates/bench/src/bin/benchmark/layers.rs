//! Per-layer metrics of one round (`--trace 1`).
//!
//! Handler time comes from the cluster's per-event-type loop profile
//! (`faasflow-core/loop-profile`); every other timing is a public layer
//! call made by the benchmark itself. A handler's time includes the work
//! of every layer it calls into: `ExecDone` counts as container time even
//! though it starts the output write on the network.

use crate::round::Round;
use crate::Metric;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Net,
    Container,
    EngineWorker,
    EngineMaster,
    Core,
    /// Every handler not in the table: fault, hedge, health and sampling,
    /// which none of the workloads turns on, and any handler added or
    /// renamed since the table was written. A run in which one of them
    /// handles an event fails (`uncharged`).
    Other,
}

/// The layer an event handler is charged to.
fn layer_of(handler: &str) -> Layer {
    match handler {
        "FlowTick" | "StartRemoteRead" | "StartRemoteWrite" | "RetryRemoteRead"
        | "RetryRemoteWrite" => Layer::Net,
        "InstanceReady" | "ExecDone" | "ContainerExpiry" => Layer::Container,
        "DeliverAssign" | "MasterArrive" | "MasterDone" => Layer::EngineMaster,
        "DeliverBegin" | "DeliverSync" | "DeliverExitReport" | "WorkerInstanceDone"
        | "VirtualDone" => Layer::EngineWorker,
        "Arrival" | "Timeout" => Layer::Core,
        _ => Layer::Other,
    }
}

/// Handlers that ran in the measured phase of `round` but are charged to
/// no layer. Their time would otherwise drift unseen into
/// `core.other_share`.
pub fn uncharged(round: &Round) -> impl Iterator<Item = &str> {
    round
        .probe
        .handlers
        .keys()
        .map(String::as_str)
        .filter(|name| layer_of(name) == Layer::Other)
}

/// Per-layer metrics of one round, in a fixed order. The `*.share`
/// metrics split the measured host time (event loop plus obs pipeline)
/// and sum to 1.
pub fn layer_metrics(round: &Round) -> Vec<Metric> {
    let p = &round.probe;
    let obs = p.obs.unwrap_or_default();
    let wall = p.loop_s + obs.total_s;
    let inv = round.sent as f64;
    let handlers = |names: &[&str]| -> (u64, f64) {
        names
            .iter()
            .filter_map(|n| p.handlers.get(*n))
            .fold((0, 0.0), |(c, s), &(n, t)| (c + n, s + t))
    };
    let us_each = |(count, secs): (u64, f64)| {
        if count == 0 {
            0.0
        } else {
            secs * 1e6 / count as f64
        }
    };
    // Folds from +0.0: an empty f64 `sum()` is -0.0.
    let layer_secs = |layer: Layer| -> f64 {
        p.handlers
            .iter()
            .filter(|(name, _)| layer_of(name) == layer)
            .fold(0.0, |acc, (_, &(_, secs))| acc + secs)
    };
    let handler_secs = p.handlers.values().fold(0.0, |acc, &(_, secs)| acc + secs);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let flowtick = handlers(&["FlowTick"]);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("sim.events_per_inv", "count", p.events as f64 / inv),
        m("sim.events_per_s", "1/s", ratio(p.events as f64, p.loop_s)),
        m(
            "sim.dispatch_share",
            "frac",
            (p.loop_s - handler_secs) / wall,
        ),
        m("net.share", "frac", layer_secs(Layer::Net) / wall),
        m("net.flowtick_us", "us", us_each(flowtick)),
        m("net.flowtick_share", "frac", flowtick.1 / wall),
        m(
            "net.flow_start_us",
            "us",
            us_each(handlers(&["StartRemoteRead", "StartRemoteWrite"])),
        ),
        m(
            "net.storage_mb_per_inv",
            "MB",
            p.storage_bytes as f64 / 1e6 / inv,
        ),
        m(
            "container.share",
            "frac",
            layer_secs(Layer::Container) / wall,
        ),
        m(
            "container.cold_frac",
            "frac",
            ratio(p.cold_starts as f64, (p.cold_starts + p.warm_starts) as f64),
        ),
        m(
            "container.handler_us",
            "us",
            us_each(handlers(&["InstanceReady", "ExecDone", "ContainerExpiry"])),
        ),
        m(
            "store.local_frac",
            "frac",
            ratio(
                p.local_bytes as f64,
                (p.local_bytes + p.remote_bytes) as f64,
            ),
        ),
        m(
            "engine.worker_share",
            "frac",
            layer_secs(Layer::EngineWorker) / wall,
        ),
        m(
            "engine.master_share",
            "frac",
            layer_secs(Layer::EngineMaster) / wall,
        ),
        m(
            "engine.exit_report_us",
            "us",
            us_each(handlers(&["DeliverExitReport"])),
        ),
        m("engine.syncs_per_inv", "count", p.worker_syncs as f64 / inv),
        m(
            "engine.master_busy_frac",
            "frac",
            ratio(p.master_busy_s, p.sim_s),
        ),
        m("scheduler.partitions", "count", f64::from(p.partitions)),
        m("scheduler.partition_ms", "ms", p.partition_s * 1e3),
        m("wdl.parse_ms", "ms", p.parse_s * 1e3),
        m("core.share", "frac", layer_secs(Layer::Core) / wall),
        m("core.other_share", "frac", layer_secs(Layer::Other) / wall),
        m("core.register_ms", "ms", p.register_s * 1e3),
        m("core.warmup_ms", "ms", p.warmup_s * 1e3),
        m("core.report_ms", "ms", p.report_s * 1e3),
        m("obs.share", "frac", obs.total_s / wall),
        m(
            "obs.trace_events_per_inv",
            "count",
            obs.trace_events as f64 / inv,
        ),
        m("obs.forest_s", "s", obs.forest_s),
        m("obs.validate_s", "s", obs.validate_s),
        m("obs.critpath_s", "s", obs.critpath_s),
        m("obs.attribute_ms", "ms", obs.attribute_s * 1e3),
        m("obs.chrome_s", "s", obs.chrome_s),
        m("obs.chrome_mb", "MB", obs.chrome_bytes as f64 / 1e6),
        m("obs.chrome_rss_mb", "MB", obs.chrome_rss_mb),
        m("obs.prom_ms", "ms", obs.prom_s * 1e3),
    ]
}
