//! Chrome trace-event (Perfetto-loadable) exporter.
//!
//! Emits the JSON object format of the Trace Event specification:
//! `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Spans become `B`/`E`
//! duration pairs, annotations and node-scoped fault events become `i`
//! instants, and the sampled resource series become `C` counter tracks.
//! Load the file at `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Track model: process 0 is the cluster (invocation roots and
//! cluster-scoped annotations); process `n + 1` is node `n` of the
//! simulated cluster (node 0 = master/storage, others = workers). Within a
//! process, spans are packed onto threads by a greedy interval-lane
//! allocator so every `B`/`E` pair on one thread is properly nested —
//! overlapping spans (a parent and its children, or concurrent instances)
//! land on separate lanes.
//!
//! Timestamps are microseconds of simulated time, so the export is
//! bit-deterministic for a given seed and diffable as a golden file.

use std::cmp::Ordering;
use std::fmt::{self, Display, Write as _};

use faasflow_core::{ResourceSeriesReport, TraceEvent};
use faasflow_sim::{NodeId, SimTime};
use serde::{Deserialize, Error, Serialize, Value};

use crate::critpath::{critical_path, forest_downtime};
use crate::span::{AnnotationKind, Span, SpanForest, SpanKind, SpanTree};
use crate::text::push_uint;
use Arg::{Bool, Float, Micros, UInt};

/// A parsed JSON document. The vendored serde has no blanket
/// `Serialize for Value`, so this newtype prints a [`Value`] tree;
/// `Deserialize` makes it double as a grammar-level JSON validator via
/// [`parse_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct JsonDoc(pub Value);

impl Serialize for JsonDoc {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for JsonDoc {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(JsonDoc(value.clone()))
    }
}

/// Parses arbitrary JSON text into a [`Value`] tree (full grammar).
///
/// # Errors
///
/// Returns the parse error on malformed input.
pub fn parse_json(text: &str) -> Result<Value, serde_json::Error> {
    serde_json::from_str::<JsonDoc>(text).map(|doc| doc.0)
}

/// The first instant, in ns, that prints through the float path. Below
/// it the decimal of `ns / 1000` has at most 15 significant digits, which
/// an `f64` round-trips, so its shortest text is that decimal.
const MICROS_EXACT_BELOW_NS: u64 = 1_000_000_000_000_000;

/// Appends `at` in microseconds, the unit the trace viewer expects: the
/// text `{}` prints for `ns as f64 / 1000.0`, written as the fixed-point
/// decimal `ns / 1000`, then `ns % 1000` with its trailing zeros trimmed
/// (no `.` when it is zero).
fn push_micros(out: &mut String, at: SimTime) {
    let ns = at.as_nanos();
    if ns >= MICROS_EXACT_BELOW_NS {
        push_float(out, ns as f64 / 1000.0);
        return;
    }
    push_uint(out, ns / 1000);
    let frac = ns % 1000;
    if frac != 0 {
        let digits = [
            b'.',
            b'0' + (frac / 100) as u8,
            b'0' + (frac / 10 % 10) as u8,
            b'0' + (frac % 10) as u8,
        ];
        let len = 1 + digits
            .iter()
            .rposition(|&d| d != b'0')
            .expect("frac is not zero");
        out.push_str(std::str::from_utf8(&digits[..len]).expect("ASCII digits"));
    }
}

/// Appends `f` as `f64::to_string` prints it.
fn push_float(out: &mut String, f: f64) {
    assert!(f.is_finite(), "trace values are finite");
    write!(out, "{f}").expect("strings accept any text");
}

/// The process a node renders under (process 0 is the cluster).
fn node_pid(node: NodeId) -> u64 {
    node.index() as u64 + 1
}

/// The process a span renders under.
fn span_pid(span: &Span) -> u64 {
    span.node.map_or(0, node_pid)
}

/// A scalar field or `args` value.
#[derive(Clone, Copy)]
enum Arg {
    Bool(bool),
    UInt(u64),
    Float(f64),
    /// An instant, written in microseconds by [`push_micros`].
    Micros(SimTime),
}

/// Appends `s` to a JSON string body, escaping exactly the characters the
/// vendored `serde_json` string writer escapes, so the export stays
/// byte-identical to serializing the equivalent [`Value`] tree. Runs that
/// need no escape are copied in one step.
fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => write!(out, "\\u{b:04x}").expect("strings accept any text"),
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Whether a JSON string body must escape `b`.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Formats into a JSON string body through [`push_escaped`].
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

/// One trace-event object being appended; the closing brace is written
/// when it drops, so callers may chain `args` or extra fields first.
struct Event<'a>(&'a mut String);

impl Event<'_> {
    fn key(&mut self, key: &str) {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        // Keys are fixed ASCII identifiers: nothing to escape.
        self.0.push('"');
        self.0.push_str(key);
        self.0.push_str("\":");
    }

    /// A string field holding `value`, formatted and escaped.
    fn text(mut self, key: &str, value: impl Display) -> Self {
        self.key(key);
        self.0.push('"');
        write!(Escaped(self.0), "{value}").expect("strings accept any text");
        self.0.push('"');
        self
    }

    /// A string field holding a fixed ASCII identifier, pushed as is.
    fn tag(mut self, key: &str, value: &'static str) -> Self {
        debug_assert!(!value.bytes().any(needs_escape));
        self.key(key);
        self.0.push('"');
        self.0.push_str(value);
        self.0.push('"');
        self
    }

    /// The `name` of a span's `B` event: `prefix` (already JSON-safe),
    /// then the escaped label.
    fn span_name(mut self, prefix: &str, label: &str) -> Self {
        self.key("name");
        self.0.push('"');
        self.0.push_str(prefix);
        push_escaped(self.0, label);
        self.0.push('"');
        self
    }

    fn value(mut self, key: &str, value: Arg) -> Self {
        self.key(key);
        match value {
            Bool(b) => self.0.push_str(if b { "true" } else { "false" }),
            UInt(u) => push_uint(self.0, u),
            Float(f) => push_float(self.0, f),
            Micros(at) => push_micros(self.0, at),
        }
        self
    }

    fn thread(self, ts: Arg, pid: u64, tid: u64) -> Self {
        self.value("ts", ts)
            .value("pid", UInt(pid))
            .value("tid", UInt(tid))
    }

    /// Opens a nested object under `key`; it closes when dropped.
    fn object(&mut self, key: &str) -> Event<'_> {
        self.key(key);
        self.0.push('{');
        Event(self.0)
    }

    fn args<'k>(mut self, args: impl IntoIterator<Item = (&'k str, Arg)>) -> Self {
        let mut inner = self.object("args");
        for (key, value) in args {
            inner = inner.value(key, value);
        }
        drop(inner);
        self
    }
}

impl Drop for Event<'_> {
    fn drop(&mut self) {
        self.0.push('}');
    }
}

/// Appends trace events straight into one JSON text buffer.
struct TraceWriter(String);

impl TraceWriter {
    /// Reserves `bytes` rounded up to whole MiB, so exports of similar
    /// size ask the allocator for the same block and can reuse the one
    /// the previous export freed instead of touching fresh pages.
    fn with_capacity(bytes: usize) -> Self {
        let mut out = String::with_capacity(bytes.next_multiple_of(1 << 20));
        out.push_str("{\"traceEvents\":[");
        TraceWriter(out)
    }

    fn event(&mut self) -> Event<'_> {
        if !self.0.ends_with('[') {
            self.0.push(',');
        }
        self.0.push('{');
        Event(&mut self.0)
    }

    fn metadata(&mut self, pid: u64, name: impl Display) {
        self.event()
            .tag("name", "process_name")
            .tag("ph", "M")
            .value("pid", UInt(pid))
            .value("tid", UInt(0))
            .object("args")
            .text("name", name);
    }

    /// An engine outage's `B` or `E` edge.
    fn outage(&mut self, ph: &'static str, at: SimTime, pid: u64) {
        self.event()
            .tag("name", "engine down")
            .tag("cat", "fault")
            .tag("ph", ph)
            .thread(Micros(at), pid, 0);
    }

    /// The bare `E` closing a span's `B` on the same thread.
    fn end(&mut self, at: SimTime, pid: u64, tid: u64) {
        self.event().tag("ph", "E").thread(Micros(at), pid, tid);
    }

    /// An instant; `scope` is `p` (process) or `g` (global).
    fn instant(
        &mut self,
        name: impl Display,
        cat: &'static str,
        scope: &'static str,
        at: SimTime,
        pid: u64,
    ) -> Event<'_> {
        self.event()
            .text("name", name)
            .tag("cat", cat)
            .tag("ph", "i")
            .tag("s", scope)
            .thread(Micros(at), pid, 0)
    }

    fn counter<'k>(
        &mut self,
        name: impl Display,
        ts: Arg,
        pid: u64,
        args: impl IntoIterator<Item = (&'k str, Arg)>,
    ) {
        self.event()
            .text("name", name)
            .tag("ph", "C")
            .thread(ts, pid, 0)
            .args(args);
    }

    fn finish(mut self) -> String {
        self.0.push_str("],\"displayTimeUnit\":\"ms\"}");
        self.0
    }
}

/// An annotation's instant name.
struct AnnotationName<'a>(&'a SpanTree, &'a AnnotationKind);

impl Display for AnnotationName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inv = self.0.invocation;
        match *self.1 {
            AnnotationKind::StateSync {
                from,
                to,
                completed: done,
            } => {
                write!(f, "sync {done}: {from} -> {to}")
            }
            AnnotationKind::StorageRetry {
                function,
                read,
                attempt,
                ..
            } => {
                let dir = if read { "read" } else { "write" };
                write!(f, "storage retry {function} {dir} attempt {attempt}")
            }
            AnnotationKind::Restarted { epoch } => write!(f, "{inv} restart epoch {epoch}"),
            AnnotationKind::DeadLettered => write!(f, "{inv} dead-lettered"),
            AnnotationKind::Shed { .. } => write!(f, "{inv} shed (queue full)"),
            AnnotationKind::HedgeLaunched {
                function,
                instance,
                from,
                to,
            } => {
                write!(f, "hedge {function}#{instance}: {from} -> {to}")
            }
            AnnotationKind::HedgeResolved {
                function,
                instance,
                winner_is_hedge,
            } => {
                let winner = if winner_is_hedge { "hedge" } else { "primary" };
                write!(f, "hedge {function}#{instance} {winner} won")
            }
        }
    }
}

fn span_args(span: &Span, critical: bool) -> impl Iterator<Item = (&'static str, Arg)> {
    let kind = match span.kind {
        SpanKind::Invocation | SpanKind::Function => [None, None, None],
        SpanKind::Provision { cold } => [Some(("cold", Bool(cold))), None, None],
        SpanKind::Exec { attempt, failed } => [
            Some(("attempt", UInt(u64::from(attempt)))),
            Some(("failed", Bool(failed))),
            None,
        ],
        SpanKind::Transfer {
            read,
            remote,
            bytes,
        } => [
            Some(("read", Bool(read))),
            Some(("remote", Bool(remote))),
            Some(("bytes", UInt(bytes))),
        ],
    };
    kind.into_iter()
        .chain([
            span.truncated.then_some(("truncated", Bool(true))),
            critical.then_some(("critical_path", Bool(true))),
        ])
        .flatten()
}

/// The order lanes are allocated in: by start, longer spans first, then
/// by label, so a parent precedes the children it encloses. The label is
/// compared only when both instants tie.
fn lane_order(a: &Span, b: &Span) -> Ordering {
    a.start
        .cmp(&b.start)
        .then(b.end.cmp(&a.end))
        .then_with(|| a.label.cmp(&b.label))
}

/// A span in its process's bucket. Its start, the first key of
/// [`lane_order`], sits inline, so most sort comparisons touch no span.
struct Slot {
    start: SimTime,
    tree: u32,
    span: u32,
}

impl Slot {
    fn new(tree: usize, span: usize, at: &Span) -> Self {
        Slot {
            start: at.start,
            tree: u32::try_from(tree).expect("tree index fits u32"),
            span: u32::try_from(span).expect("span index fits u32"),
        }
    }
}

/// Greedy interval-lane allocation over spans fed in [`lane_order`]: each
/// span gets the lowest-numbered lane whose previous occupant has already
/// closed, so within one lane spans are sequential and `B`/`E` pairs
/// trivially nest.
#[derive(Default)]
struct Lanes {
    free_at: Vec<SimTime>,
}

impl Lanes {
    fn assign(&mut self, span: &Span) -> usize {
        let lane = match self.free_at.iter().position(|&free| free <= span.start) {
            Some(l) => l,
            None => {
                self.free_at.push(SimTime::ZERO);
                self.free_at.len() - 1
            }
        };
        self.free_at[lane] = span.end;
        lane
    }
}

/// Renders the forest (and, when sampling was on, the resource series) as
/// Chrome trace-event JSON.
pub fn chrome_trace(forest: &SpanForest, resources: Option<&ResourceSeriesReport>) -> String {
    // Spans on an invocation's observed critical path are highlighted
    // (distinct color name + a `critical_path` arg) so the bottleneck
    // chain is visually traceable through the lanes.
    let downtime = forest_downtime(forest);
    let critical: Vec<Vec<bool>> = forest
        .trees
        .iter()
        .map(|tree| {
            let mut flags = vec![false; tree.spans.len()];
            for idx in critical_path(tree, &downtime)
                .segments
                .iter()
                .filter_map(|s| s.span)
            {
                flags[idx] = true;
            }
            flags
        })
        .collect();

    // Bucket spans by process in one pass, in tree-then-span order. A
    // process is listed if it is the cluster, holds a span or has a
    // resource series.
    let mut by_pid: Vec<Vec<Slot>> = Vec::new();
    let mut listed: Vec<bool> = Vec::new();
    let resource_pids = resources
        .into_iter()
        .flat_map(|res| &res.nodes)
        .map(|series| (node_pid(series.node), None));
    let span_pids = forest.trees.iter().enumerate().flat_map(|(t, tree)| {
        (tree.spans.iter().enumerate())
            .map(move |(i, span)| (span_pid(span), Some(Slot::new(t, i, span))))
    });
    for (pid, span) in std::iter::once((0, None))
        .chain(resource_pids)
        .chain(span_pids)
    {
        let pid = pid as usize;
        if pid >= listed.len() {
            listed.resize(pid + 1, false);
            by_pid.resize_with(pid + 1, Vec::new);
        }
        listed[pid] = true;
        by_pid[pid].extend(span);
    }

    let annotations: usize = forest.trees.iter().map(|t| t.annotations.len()).sum();
    let samples: usize = resources.map_or(0, |res| {
        res.cluster.len() + res.nodes.iter().map(|n| n.samples.len()).sum::<usize>()
    });
    let mut w = TraceWriter::with_capacity(
        1024 + 256 * forest.span_count()
            + 160 * (annotations + forest.node_events.len())
            + 512 * samples,
    );

    // --- Track metadata -------------------------------------------------
    for (pid, _) in listed.iter().enumerate().filter(|(_, &on)| on) {
        match pid {
            0 => w.metadata(0, "cluster"),
            1 => w.metadata(1, "node0 (master/storage)"),
            n => w.metadata(n as u64, format_args!("node{} (worker)", n - 1)),
        }
    }

    // --- Spans as B/E pairs --------------------------------------------
    // Non-root span names carry their invocation, so concurrent
    // invocations stay apart; ids print nothing JSON escapes.
    let prefixes: Vec<String> = (forest.trees.iter())
        .map(|tree| format!("{}/{} ", tree.workflow, tree.invocation))
        .collect();
    for (pid, bucket) in by_pid.iter_mut().enumerate() {
        let pid = pid as u64;
        let span_at = |slot: &Slot| &forest.trees[slot.tree as usize].spans[slot.span as usize];
        // Tree-then-span order breaks the remaining ties, so the order is
        // total and the unstable sort is deterministic.
        bucket.sort_unstable_by(|a, b| {
            (a.start.cmp(&b.start))
                .then_with(|| lane_order(span_at(a), span_at(b)))
                .then((a.tree, a.span).cmp(&(b.tree, b.span)))
        });
        let mut lanes = Lanes::default();
        for slot in bucket.iter() {
            let (t, i) = (slot.tree as usize, slot.span as usize);
            let span = span_at(slot);
            let lane = lanes.assign(span) as u64;
            let prefix = if span.parent.is_some() {
                &prefixes[t]
            } else {
                ""
            };
            let begin = w
                .event()
                .span_name(prefix, &span.label)
                .tag("cat", category(span))
                .tag("ph", "B")
                .thread(Micros(span.start), pid, lane)
                .args(span_args(span, critical[t][i]));
            if critical[t][i] {
                // Legacy Chrome color name: renders the gating slices in a
                // uniform alarm red in both Perfetto and chrome://tracing.
                begin.tag("cname", "terrible");
            } else {
                drop(begin);
            }
            w.end(span.end, pid, lane);
        }
    }

    // --- Annotations and node-scoped fault events as instants ----------
    for tree in &forest.trees {
        for a in &tree.annotations {
            let pid = match a.kind {
                AnnotationKind::StateSync { from, .. } => node_pid(from),
                AnnotationKind::Shed { worker } => node_pid(worker),
                AnnotationKind::HedgeLaunched { to, .. } => node_pid(to),
                _ => 0,
            };
            w.instant(AnnotationName(tree, &a.kind), "annotation", "p", a.at, pid);
        }
    }
    for event in &forest.node_events {
        let at = event.at();
        match *event {
            // The storage-node breaker renders twice: an instant per
            // transition and a counter track of its state level (0 =
            // closed, 1 = open, 2 = half-open), both on the master/storage
            // process.
            TraceEvent::BreakerTransition { from, to, .. } => {
                let name = format_args!("breaker {from:?} -> {to:?}");
                w.instant(name, "overload", "p", at, 1);
                w.counter(
                    "breaker state",
                    Micros(at),
                    1,
                    [("level", UInt(to.as_level().into()))],
                );
            }
            // Engine outages render as a duration span on the owning
            // process (crash opens it, recovery closes it) plus an instant
            // per edge so the replay size is visible at the recovery point.
            TraceEvent::EngineCrashed { worker, .. } => {
                let pid = worker.map_or(1, node_pid);
                w.outage("B", at, pid);
                w.instant("engine crashed", "fault", "p", at, pid);
            }
            TraceEvent::EngineRecovered {
                worker, replayed, ..
            } => {
                let pid = worker.map_or(1, node_pid);
                let name = format_args!("engine recovered ({replayed} records replayed)");
                w.outage("E", at, pid);
                w.instant(name, "fault", "p", at, pid);
            }
            // SLO alert transitions render on the cluster process: an
            // instant per edge plus a burn-rate counter track that steps to
            // the firing burn rates and back to zero on resolve.
            TraceEvent::SloAlertFired {
                workflow: wf,
                fast_burn: fast,
                slow_burn: slow,
                ..
            } => {
                w.instant(format_args!("SLO alert fired: {wf}"), "slo", "g", at, 0)
                    .args([("fast_burn", Float(fast)), ("slow_burn", Float(slow))]);
                let burn = [("fast", Float(fast)), ("slow", Float(slow))];
                w.counter(format_args!("slo burn rate {wf}"), Micros(at), 0, burn);
            }
            TraceEvent::SloAlertResolved { workflow: wf, .. } => {
                w.instant(format_args!("SLO alert resolved: {wf}"), "slo", "g", at, 0);
                let burn = [("fast", Float(0.0)), ("slow", Float(0.0))];
                w.counter(format_args!("slo burn rate {wf}"), Micros(at), 0, burn);
            }
            // Degradation transitions render like the SLO alerts they
            // answer: an instant per transition plus a severity counter
            // track (0 normal, 1 recovering, 2 throttled, 3 shedding).
            TraceEvent::WorkflowDegraded {
                workflow: wf,
                level,
                cap,
                ..
            } => {
                let name = format_args!("workflow degraded: {wf} -> {}", level.label());
                w.instant(name, "degrade", "g", at, 0)
                    .args([("cap", UInt(cap.into()))]);
                let state = [("level", UInt(level.as_level().into()))];
                w.counter(format_args!("degrade state {wf}"), Micros(at), 0, state);
            }
            TraceEvent::WorkflowRestored { workflow: wf, .. } => {
                w.instant(
                    format_args!("workflow restored: {wf}"),
                    "degrade",
                    "g",
                    at,
                    0,
                );
                w.counter(
                    format_args!("degrade state {wf}"),
                    Micros(at),
                    0,
                    [("level", UInt(0))],
                );
            }
            // Health detector transitions: an instant on the worker's
            // process row plus a per-worker state counter track (0 healthy,
            // 3 quarantined — the half-open Reinstating phase has no trace
            // event of its own, so the counter steps straight back to 0 on
            // reinstatement).
            TraceEvent::WorkerQuarantined {
                worker,
                score,
                relapse,
                ..
            } => {
                let name = if relapse {
                    "worker quarantined (relapse)"
                } else {
                    "worker quarantined"
                };
                let pid = node_pid(worker);
                w.instant(name, "health", "p", at, pid)
                    .args([("score", Float(score))]);
                w.counter("health state", Micros(at), pid, [("level", UInt(3))]);
            }
            TraceEvent::WorkerReinstated { worker, .. } => {
                let pid = node_pid(worker);
                w.instant("worker reinstated", "health", "p", at, pid);
                w.counter("health state", Micros(at), pid, [("level", UInt(0))]);
            }
            TraceEvent::ZombieFenced {
                worker,
                workflow: wf,
                invocation: inv,
                ..
            } => {
                let name = format_args!("zombie fenced: {wf}/{inv}");
                w.instant(name, "health", "p", at, node_pid(worker));
            }
            TraceEvent::WorkerCrashed { worker, .. } => {
                w.instant("worker crashed", "fault", "p", at, node_pid(worker));
            }
            TraceEvent::WorkerRestarted { worker, .. } => {
                w.instant("worker restarted", "fault", "p", at, node_pid(worker));
            }
            TraceEvent::LeaseExpired { worker, .. } => {
                w.instant("lease expired", "fault", "p", at, node_pid(worker));
            }
            _ => {}
        }
    }

    // --- Resource series as counter tracks -----------------------------
    if let Some(res) = resources {
        for series in &res.nodes {
            let pid = node_pid(series.node);
            for s in &series.samples {
                let ts = Float(s.at_secs * 1e6);
                let idle = s.containers.saturating_sub(s.busy);
                w.counter(
                    "containers",
                    ts,
                    pid,
                    [("busy", UInt(s.busy)), ("warm idle", UInt(idle))],
                );
                w.counter(
                    "queued admissions",
                    ts,
                    pid,
                    [("queued", UInt(s.queued_admissions))],
                );
                let mem = [
                    ("used", s.memstore_used_bytes),
                    ("budget", s.memstore_budget_bytes),
                ];
                w.counter("memstore bytes", ts, pid, mem.map(|(k, v)| (k, UInt(v))));
                let nic = [
                    ("tx", s.nic_tx_bytes_per_sec),
                    ("rx", s.nic_rx_bytes_per_sec),
                ];
                w.counter("nic bytes/s", ts, pid, nic.map(|(k, v)| (k, Float(v))));
            }
        }
        for s in &res.cluster {
            let load = [
                ("pending events", s.pending_events),
                ("inflight invocations", s.inflight_invocations),
            ];
            w.counter(
                "cluster load",
                Float(s.at_secs * 1e6),
                0,
                load.map(|(k, v)| (k, UInt(v))),
            );
        }
    }
    w.finish()
}

fn category(span: &Span) -> &'static str {
    match span.kind {
        SpanKind::Invocation => "invocation",
        SpanKind::Function => "function",
        SpanKind::Provision { .. } => "provision",
        SpanKind::Exec { .. } => "exec",
        SpanKind::Transfer { .. } => "transfer",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::build_forest;
    use faasflow_sim::{ContainerId, FunctionId, InvocationId, NodeId, SimDuration, WorkflowId};
    use proptest::prelude::*;

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    fn tiny_forest() -> SpanForest {
        let wf = WorkflowId::new(0);
        let inv = InvocationId::new(0);
        let f = FunctionId::new(1);
        let n = NodeId::new(1);
        build_forest(&[
            TraceEvent::InvocationArrived {
                workflow: wf,
                invocation: inv,
                at: ms(0),
            },
            TraceEvent::FunctionTriggered {
                workflow: wf,
                invocation: inv,
                function: f,
                worker: n,
                at: ms(1),
            },
            TraceEvent::InstanceStarted {
                workflow: wf,
                invocation: inv,
                function: f,
                instance: 0,
                worker: n,
                container: ContainerId::new(0),
                cold: false,
                at: ms(2),
            },
            TraceEvent::ExecStarted {
                workflow: wf,
                invocation: inv,
                function: f,
                instance: 0,
                worker: n,
                attempt: 0,
                at: ms(2),
            },
            TraceEvent::ExecFinished {
                workflow: wf,
                invocation: inv,
                function: f,
                instance: 0,
                worker: n,
                attempt: 0,
                failed: false,
                at: ms(9),
            },
            TraceEvent::NodeCompleted {
                workflow: wf,
                invocation: inv,
                function: f,
                at: ms(9),
            },
            TraceEvent::InvocationCompleted {
                workflow: wf,
                invocation: inv,
                at: ms(9),
                timed_out: false,
            },
        ])
    }

    #[test]
    fn export_round_trips_through_the_json_parser() {
        let text = chrome_trace(&tiny_forest(), None);
        let value = parse_json(&text).expect("valid JSON");
        let Value::Map(fields) = value else {
            panic!("top level must be an object")
        };
        let (_, Value::Seq(trace_events)) = &fields[0] else {
            panic!("traceEvents must be an array")
        };
        assert!(!trace_events.is_empty());
    }

    #[test]
    fn begin_and_end_events_balance_per_thread() {
        let text = chrome_trace(&tiny_forest(), None);
        let begins = text.matches("\"ph\":\"B\"").count();
        let ends = text.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
        assert!(begins >= 4, "root, function, provision, exec spans");
    }

    #[test]
    fn lanes_never_overlap() {
        let forest = tiny_forest();
        let mut spans: Vec<&Span> = forest.trees[0].spans.iter().collect();
        spans.sort_by(|a, b| lane_order(a, b));
        let mut lanes = Lanes::default();
        let mut by_lane: std::collections::HashMap<usize, Vec<&Span>> = Default::default();
        for span in spans {
            by_lane.entry(lanes.assign(span)).or_default().push(span);
        }
        for spans in by_lane.values() {
            for pair in spans.windows(2) {
                assert!(pair[1].start >= pair[0].end, "lane occupants overlap");
            }
        }
    }

    fn micros_text(ns: u64) -> String {
        let mut out = String::new();
        push_micros(&mut out, SimTime::from_nanos(ns));
        out
    }

    #[test]
    fn micros_print_as_the_float_would() {
        let bound = MICROS_EXACT_BELOW_NS;
        for ns in [0, 1, 10, 100, 999, 1000, 1001, 1_500_000, bound - 1, bound] {
            assert_eq!(
                micros_text(ns),
                format!("{}", ns as f64 / 1000.0),
                "{ns} ns"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Every magnitude below the bound, from one digit to fifteen.
        #[test]
        fn fixed_point_micros_match_the_float_text(
            digits in 1u32..16,
            raw in any::<u64>(),
        ) {
            let ns = raw % 10u64.pow(digits);
            prop_assert_eq!(micros_text(ns), format!("{}", ns as f64 / 1000.0));
        }
    }

    #[test]
    fn parse_json_rejects_garbage() {
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }
}
