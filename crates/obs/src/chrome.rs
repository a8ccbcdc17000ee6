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
use std::io::Write as _;

use faasflow_core::{ResourceSeriesReport, TraceEvent};
use faasflow_sim::{NodeId, SimTime};
use serde::{Deserialize, Error, Serialize, Value};

use crate::critpath::{critical_path, forest_downtime};
use crate::span::{write_invocation, AnnotationKind, Span, SpanForest, SpanKind, SpanTree};
use crate::text::push_uint;
use Arg::{Float, Micros, UInt};

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
fn push_micros(out: &mut Vec<u8>, at: SimTime) {
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
        out.extend_from_slice(&digits[..len]);
    }
}

/// Appends `f` as `f64::to_string` prints it.
fn push_float(out: &mut Vec<u8>, f: f64) {
    assert!(f.is_finite(), "trace values are finite");
    write!(out, "{f}").expect("a Vec accepts any write");
}

fn push_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
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
    UInt(u64),
    Float(f64),
    /// An instant, written in microseconds by [`push_micros`].
    Micros(SimTime),
}

/// Appends `s` to a JSON string body, escaping exactly the characters the
/// vendored `serde_json` string writer escapes, so the export stays
/// byte-identical to serializing the equivalent [`Value`] tree. Runs that
/// need no escape are copied in one step.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    let mut rest = s.as_bytes();
    while let Some(i) = rest.iter().position(|&b| needs_escape(b)) {
        out.extend_from_slice(&rest[..i]);
        match rest[i] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b => write!(out, "\\u{b:04x}").expect("a Vec accepts any write"),
        }
        rest = &rest[i + 1..];
    }
    out.extend_from_slice(rest);
}

/// Whether a JSON string body must escape `b`.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Formats into a JSON string body through [`push_escaped`].
struct Escaped<'a>(&'a mut Vec<u8>);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

/// One trace-event object being appended; the closing brace is written
/// when it drops, so callers may chain `args` or extra fields first.
struct Event<'a>(&'a mut Vec<u8>);

impl Event<'_> {
    fn key(&mut self, key: &str) {
        if self.0.last() != Some(&b'{') {
            self.0.push(b',');
        }
        // Keys are fixed ASCII identifiers: nothing to escape.
        self.0.push(b'"');
        self.0.extend_from_slice(key.as_bytes());
        self.0.extend_from_slice(b"\":");
    }

    /// A string field holding `value`, formatted and escaped.
    fn text(mut self, key: &str, value: impl Display) -> Self {
        self.key(key);
        self.0.push(b'"');
        write!(Escaped(self.0), "{value}").expect("escaping accepts any text");
        self.0.push(b'"');
        self
    }

    /// A string field holding a fixed ASCII identifier, pushed as is.
    fn tag(mut self, key: &str, value: &'static str) -> Self {
        debug_assert!(!value.bytes().any(needs_escape));
        self.key(key);
        self.0.push(b'"');
        self.0.extend_from_slice(value.as_bytes());
        self.0.push(b'"');
        self
    }

    fn value(mut self, key: &str, value: Arg) -> Self {
        self.key(key);
        match value {
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
        self.0.push(b'{');
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
        self.0.push(b'}');
    }
}

/// Appends trace events straight into one JSON byte buffer.
struct TraceWriter(Vec<u8>);

impl TraceWriter {
    /// Reserves `bytes` rounded up to whole MiB, so exports of similar
    /// size ask the allocator for the same block and can reuse the one
    /// the previous export freed instead of touching fresh pages.
    fn with_capacity(bytes: usize) -> Self {
        let mut out = Vec::with_capacity(bytes.next_multiple_of(1 << 20));
        out.extend_from_slice(b"{\"traceEvents\":[");
        TraceWriter(out)
    }

    /// The comma before every event but the first.
    fn separate(&mut self) {
        if self.0.last() != Some(&b'[') {
            self.0.push(b',');
        }
    }

    fn event(&mut self) -> Event<'_> {
        self.separate();
        self.0.push(b'{');
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

    /// Span `idx` of `tree` as a `B` event and the bare `E` closing it,
    /// both on thread `lane` of the process whose `,"pid":N,"tid":` text
    /// is `thread`. The `B` event's name is the span's label, after
    /// `{workflow}/{invocation} ` unless it is the root, so concurrent
    /// invocations stay apart; ids print nothing JSON escapes. Spans on
    /// the critical path are highlighted (a `critical_path` arg and a
    /// distinct color name) so the bottleneck chain is visually traceable
    /// through the lanes.
    fn span(&mut self, tree: &SpanTree, idx: usize, thread: &[u8], lane: u64, critical: bool) {
        let span = &tree.spans[idx];
        self.separate();
        let out = &mut self.0;
        out.extend_from_slice(b"{\"name\":\"");
        if span.parent.is_some() {
            write_invocation(out, tree.workflow, tree.invocation);
            out.push(b' ');
        }
        tree.label(idx).write_to(out);
        out.extend_from_slice(b"\",\"cat\":\"");
        out.extend_from_slice(category(span).as_bytes());
        out.extend_from_slice(b"\",\"ph\":\"B\",\"ts\":");
        push_micros(out, span.start);
        out.extend_from_slice(thread);
        push_uint(out, lane);
        out.extend_from_slice(b",\"args\":{");
        match span.kind {
            SpanKind::Invocation | SpanKind::Function => {}
            SpanKind::Provision { cold } => {
                out.extend_from_slice(b"\"cold\":");
                push_bool(out, cold);
            }
            SpanKind::Exec { attempt, failed } => {
                out.extend_from_slice(b"\"attempt\":");
                push_uint(out, u64::from(attempt));
                out.extend_from_slice(b",\"failed\":");
                push_bool(out, failed);
            }
            SpanKind::Transfer {
                read,
                remote,
                bytes,
            } => {
                out.extend_from_slice(b"\"read\":");
                push_bool(out, read);
                out.extend_from_slice(b",\"remote\":");
                push_bool(out, remote);
                out.extend_from_slice(b",\"bytes\":");
                push_uint(out, bytes);
            }
        }
        let flags: [(bool, &[u8]); 2] = [
            (span.truncated, b"\"truncated\":true"),
            (critical, b"\"critical_path\":true"),
        ];
        for (_, flag) in flags.into_iter().filter(|&(on, _)| on) {
            if out.last() != Some(&b'{') {
                out.push(b',');
            }
            out.extend_from_slice(flag);
        }
        out.push(b'}');
        if critical {
            // Legacy Chrome color name: renders the gating slices in a
            // uniform alarm red in both Perfetto and chrome://tracing.
            out.extend_from_slice(b",\"cname\":\"terrible\"");
        }
        out.extend_from_slice(b"},{\"ph\":\"E\",\"ts\":");
        push_micros(out, span.end);
        out.extend_from_slice(thread);
        push_uint(out, lane);
        out.push(b'}');
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
        self.0.extend_from_slice(b"],\"displayTimeUnit\":\"ms\"}");
        String::from_utf8(self.0).expect("the writer appends whole strs")
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

/// A span in its process's bucket. Its start and end, the first keys of
/// [`Slot::lane_order`], sit inline, so most sort comparisons touch no
/// span.
struct Slot {
    start: SimTime,
    end: SimTime,
    tree: u32,
    span: u32,
}

impl Slot {
    fn new(tree: usize, span: usize, at: &Span) -> Self {
        Slot {
            start: at.start,
            end: at.end,
            tree: u32::try_from(tree).expect("tree index fits u32"),
            span: u32::try_from(span).expect("span index fits u32"),
        }
    }

    /// The order lanes are allocated in: by start, longer spans first,
    /// then by label bytes, so a parent precedes the children it encloses.
    /// The labels are written onto the stack only when both instants tie.
    /// Tree-then-span order breaks the remaining ties, so the order is
    /// total and an unstable sort is deterministic.
    fn lane_order(&self, other: &Slot, forest: &SpanForest) -> Ordering {
        let label = |slot: &Slot| forest.trees[slot.tree as usize].label(slot.span as usize);
        (self.start.cmp(&other.start))
            .then(other.end.cmp(&self.end))
            .then_with(|| {
                (label(self).to_stack().as_bytes()).cmp(label(other).to_stack().as_bytes())
            })
            .then((self.tree, self.span).cmp(&(other.tree, other.span)))
    }
}

/// Greedy interval-lane allocation over spans fed in [`Slot::lane_order`]:
/// each span gets the lowest-numbered lane whose previous occupant has
/// already closed, so within one lane spans are sequential and `B`/`E`
/// pairs trivially nest.
#[derive(Default)]
struct Lanes {
    free_at: Vec<SimTime>,
}

impl Lanes {
    fn assign(&mut self, slot: &Slot) -> usize {
        let lane = match self.free_at.iter().position(|&free| free <= slot.start) {
            Some(l) => l,
            None => {
                self.free_at.push(SimTime::ZERO);
                self.free_at.len() - 1
            }
        };
        self.free_at[lane] = slot.end;
        lane
    }
}

/// Renders the forest (and, when sampling was on, the resource series) as
/// Chrome trace-event JSON.
pub fn chrome_trace(forest: &SpanForest, resources: Option<&ResourceSeriesReport>) -> String {
    // The export buffer is allocated before any scratch below, so it can
    // take the block the previous export freed (DESIGN.md §8, "Memory").
    let annotations: usize = forest.trees.iter().map(|t| t.annotations.len()).sum();
    let samples: usize = resources.map_or(0, |res| {
        res.cluster.len() + res.nodes.iter().map(|n| n.samples.len()).sum::<usize>()
    });
    let mut w = TraceWriter::with_capacity(
        1024 + 256 * forest.span_count()
            + 160 * (annotations + forest.node_events.len())
            + 512 * samples,
    );

    // Spans on an invocation's observed critical path, flagged in one
    // vector: span `i` of tree `t` sits at `first[t] + i`.
    let downtime = forest_downtime(forest);
    let mut first = Vec::with_capacity(forest.trees.len());
    let mut critical = vec![false; forest.span_count()];
    let mut offset = 0;
    for tree in &forest.trees {
        first.push(offset);
        for idx in critical_path(tree, &downtime)
            .segments
            .iter()
            .filter_map(|s| s.span)
        {
            critical[offset + idx] = true;
        }
        offset += tree.spans.len();
    }

    // A process is listed if it is the cluster, holds a span or has a
    // resource series.
    let mut listed = vec![true];
    let resource_pids = resources
        .into_iter()
        .flat_map(|res| &res.nodes)
        .map(|series| node_pid(series.node));
    let span_pids = forest
        .trees
        .iter()
        .flat_map(|t| t.spans.iter().map(span_pid));
    for pid in resource_pids.chain(span_pids) {
        let pid = pid as usize;
        if pid >= listed.len() {
            listed.resize(pid + 1, false);
        }
        listed[pid] = true;
    }
    let pids = || (0..listed.len() as u64).filter(|&pid| listed[pid as usize]);

    // --- Track metadata -------------------------------------------------
    for pid in pids() {
        match pid {
            0 => w.metadata(0, "cluster"),
            1 => w.metadata(1, "node0 (master/storage)"),
            n => w.metadata(n, format_args!("node{} (worker)", n - 1)),
        }
    }

    // --- Spans as B/E pairs --------------------------------------------
    // One process at a time, through one reused bucket filled in
    // tree-then-span order.
    let mut bucket: Vec<Slot> = Vec::new();
    let mut thread = Vec::new();
    for pid in pids() {
        bucket.clear();
        for (t, tree) in forest.trees.iter().enumerate() {
            for (i, span) in tree.spans.iter().enumerate() {
                if span_pid(span) == pid {
                    bucket.push(Slot::new(t, i, span));
                }
            }
        }
        bucket.sort_unstable_by(|a, b| a.lane_order(b, forest));
        thread.clear();
        thread.extend_from_slice(b",\"pid\":");
        push_uint(&mut thread, pid);
        thread.extend_from_slice(b",\"tid\":");
        let mut lanes = Lanes::default();
        for slot in &bucket {
            let (t, i) = (slot.tree as usize, slot.span as usize);
            let lane = lanes.assign(slot) as u64;
            w.span(&forest.trees[t], i, &thread, lane, critical[first[t] + i]);
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
        let tree = &forest.trees[0];
        let mut order: Vec<Slot> = (tree.spans.iter().enumerate())
            .map(|(i, span)| Slot::new(0, i, span))
            .collect();
        order.sort_unstable_by(|a, b| a.lane_order(b, &forest));
        assert_eq!(order[0].span, 0, "the root opens first and encloses all");
        let mut lanes = Lanes::default();
        let mut by_lane: std::collections::HashMap<usize, Vec<&Slot>> = Default::default();
        for slot in &order {
            by_lane.entry(lanes.assign(slot)).or_default().push(slot);
        }
        for slots in by_lane.values() {
            for pair in slots.windows(2) {
                assert!(pair[1].start >= pair[0].end, "lane occupants overlap");
            }
        }
    }

    fn micros_text(ns: u64) -> String {
        let mut out = Vec::new();
        push_micros(&mut out, SimTime::from_nanos(ns));
        String::from_utf8(out).expect("ASCII digits")
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

    /// The escaper writes every character class exactly as the vendored
    /// `serde_json` string writer does.
    #[test]
    fn escaped_text_matches_the_json_writer() {
        let text = "q\"uote\\back\r\nnew\ttab\u{1}ctl\u{1f}unit \u{7f}del é";
        let mut out = b"\"".to_vec();
        push_escaped(&mut out, text);
        out.push(b'"');
        let json = serde_json::to_string(text).expect("strings serialize");
        assert_eq!(out, json.as_bytes());
    }

    #[test]
    fn parse_json_rejects_garbage() {
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }
}
