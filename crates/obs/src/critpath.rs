//! Observed critical-path extraction: which work actually gated completion.
//!
//! The attribution module ([`crate::attribution`]) answers "how much time
//! was spent in each phase, summed over everything that happened"; this
//! module answers the sharper question "which phase was the invocation
//! *waiting on* at each instant" — the critical path through the span
//! tree. Two transfers overlapping each other cost twice in attribution
//! but only once here, because only one instant of wall-clock passed.
//!
//! The extraction is a time partition of the root span's window. Every
//! instant is classified by the highest-priority work span covering it:
//!
//! 1. [`CritPhase::Exec`] — a successful executor attempt was running;
//! 2. [`CritPhase::Retry`] — only failed attempts were running (work that
//!    had to be redone);
//! 3. [`CritPhase::ColdStart`] — a container was cold-starting;
//! 4. [`CritPhase::TransferRemote`] / [`CritPhase::TransferLocal`] — data
//!    was moving through the remote store / worker-local memory;
//! 5. [`CritPhase::QueueWait`] — an instance was waiting for a warm
//!    container;
//! 6. instants covered by no work span are [`CritPhase::EngineDown`] when
//!    they fall inside an engine-outage window (derived from the
//!    `EngineCrashed`/`EngineRecovered` node events), else
//!    [`CritPhase::Control`] — engine processing, message latency,
//!    client gaps.
//!
//! Exec sitting at the top of the priority order gives the partition a
//! useful property: along any DAG path the successful attempts are
//! pairwise disjoint in time (dependencies order them), and every instant
//! one of them covers is classified Exec — so the chain's Exec total is at
//! least the realized execution sum of *every* DAG path, including the
//! static critical path. With deterministic execution times the observed
//! Exec total therefore bounds `dag.critical_path_exec()` from above,
//! which is exactly the comparison `repro critpath` prints.
//!
//! By construction the extracted segments are contiguous, causally
//! ordered, and sum to the root makespan *exactly* (nanosecond integers,
//! no float residue) — [`CriticalPath::validate`] checks all three and is
//! exercised on every chaos-sweep seed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use faasflow_core::TraceEvent;
use faasflow_sim::{InvocationId, SimDuration, SimTime, WorkflowId};
use serde::{Deserialize, Serialize};

use crate::span::{SpanForest, SpanKind, SpanTree};

/// What the invocation was waiting on during one critical-path segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CritPhase {
    /// A successful executor attempt.
    Exec,
    /// A failed executor attempt (redone work).
    Retry,
    /// Container cold start.
    ColdStart,
    /// Data through the remote store.
    TransferRemote,
    /// Data through worker-local memory (FaaStore).
    TransferLocal,
    /// Waiting for a warm container.
    QueueWait,
    /// No work span covered the instant and an engine was down.
    EngineDown,
    /// No work span covered the instant: engine processing, message
    /// latency, scheduling gaps.
    Control,
}

impl CritPhase {
    /// All phases, in priority order (highest first).
    pub const ALL: [CritPhase; 8] = [
        CritPhase::Exec,
        CritPhase::Retry,
        CritPhase::ColdStart,
        CritPhase::TransferRemote,
        CritPhase::TransferLocal,
        CritPhase::QueueWait,
        CritPhase::EngineDown,
        CritPhase::Control,
    ];

    /// Overlap-resolution priority: when several work spans cover the same
    /// instant, the highest-priority one claims it.
    fn priority(self) -> u8 {
        match self {
            CritPhase::Exec => 7,
            CritPhase::Retry => 6,
            CritPhase::ColdStart => 5,
            CritPhase::TransferRemote => 4,
            CritPhase::TransferLocal => 3,
            CritPhase::QueueWait => 2,
            CritPhase::EngineDown => 1,
            CritPhase::Control => 0,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            CritPhase::Exec => "exec",
            CritPhase::Retry => "retry",
            CritPhase::ColdStart => "cold",
            CritPhase::TransferRemote => "xfer-rem",
            CritPhase::TransferLocal => "xfer-loc",
            CritPhase::QueueWait => "queue",
            CritPhase::EngineDown => "down",
            CritPhase::Control => "control",
        }
    }
}

/// One maximal run of the critical path spent in a single phase on a
/// single span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CritSegment {
    /// What gated completion here.
    pub phase: CritPhase,
    /// Segment open instant.
    pub start: SimTime,
    /// Segment close instant (`> start`).
    pub end: SimTime,
    /// Index into the tree's span vector of the gating work span
    /// (`None` for [`CritPhase::EngineDown`]/[`CritPhase::Control`]).
    pub span: Option<usize>,
}

impl CritSegment {
    /// Segment extent.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The observed critical path of one invocation: a contiguous chain of
/// segments covering the root span's window exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Workflow.
    pub workflow: WorkflowId,
    /// Invocation.
    pub invocation: InvocationId,
    /// Segments in chronological order; empty only for a zero-length root.
    pub segments: Vec<CritSegment>,
}

impl CriticalPath {
    /// Total chain duration (equals the invocation makespan).
    pub fn total(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// Chain time spent in one phase.
    pub fn phase_total(&self, phase: CritPhase) -> SimDuration {
        self.segments
            .iter()
            .filter(|s| s.phase == phase)
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// Checks the chain against its source tree: segments are non-empty
    /// intervals, contiguous (each starts where the previous ended, the
    /// first at the root open, the last at the root close), causally
    /// ordered, each work segment lies inside the span it charges, and the
    /// total equals the root makespan exactly.
    pub fn validate(&self, tree: &SpanTree) -> Result<(), String> {
        let who = format!("{}/{}", self.workflow, self.invocation);
        let root = tree.root();
        if self.workflow != tree.workflow || self.invocation != tree.invocation {
            return Err(format!("{who}: chain does not belong to this tree"));
        }
        if root.duration() == SimDuration::ZERO {
            return if self.segments.is_empty() {
                Ok(())
            } else {
                Err(format!("{who}: zero-length root but non-empty chain"))
            };
        }
        if self.segments.is_empty() {
            return Err(format!("{who}: non-zero makespan but empty chain"));
        }
        let mut cursor = root.start;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.start != cursor {
                return Err(format!(
                    "{who}: segment {i} starts at {} but the chain is at {}",
                    seg.start, cursor
                ));
            }
            if seg.end <= seg.start {
                return Err(format!("{who}: segment {i} is empty or reversed"));
            }
            match seg.span {
                Some(idx) => {
                    let span = tree
                        .spans
                        .get(idx)
                        .ok_or_else(|| format!("{who}: segment {i} charges missing span {idx}"))?;
                    if seg.start < span.start || seg.end > span.end {
                        return Err(format!(
                            "{who}: segment {i} leaks outside span {idx} ({})",
                            span.label
                        ));
                    }
                }
                None => {
                    if !matches!(seg.phase, CritPhase::EngineDown | CritPhase::Control) {
                        return Err(format!(
                            "{who}: segment {i} has work phase {:?} but no span",
                            seg.phase
                        ));
                    }
                }
            }
            cursor = seg.end;
        }
        if cursor != root.end {
            return Err(format!(
                "{who}: chain ends at {} but the root closes at {}",
                cursor, root.end
            ));
        }
        // Contiguity from root.start to root.end implies the exact-sum
        // property, but state it directly — it is the headline invariant.
        if self.total() != root.duration() {
            return Err(format!(
                "{who}: chain duration {} != makespan {}",
                self.total(),
                root.duration()
            ));
        }
        Ok(())
    }
}

/// Maps a work span to the phase it would claim, `None` for spans that are
/// pure containers (root, per-function groupers).
fn work_phase(kind: SpanKind) -> Option<CritPhase> {
    match kind {
        SpanKind::Invocation | SpanKind::Function => None,
        SpanKind::Provision { cold } => Some(if cold {
            CritPhase::ColdStart
        } else {
            CritPhase::QueueWait
        }),
        SpanKind::Exec { failed, .. } => Some(if failed {
            CritPhase::Retry
        } else {
            CritPhase::Exec
        }),
        SpanKind::Transfer { remote, .. } => Some(if remote {
            CritPhase::TransferRemote
        } else {
            CritPhase::TransferLocal
        }),
    }
}

/// Extracts the observed critical path of one invocation. `downtime` is
/// the set of engine-outage windows (from [`downtime_windows`]); gaps in
/// work coverage that fall entirely inside one are charged to
/// [`CritPhase::EngineDown`] instead of [`CritPhase::Control`]. One sweep
/// over the span boundaries: O((n + b) log n) for `n` work spans and `b`
/// boundaries.
pub fn critical_path(tree: &SpanTree, downtime: &[(SimTime, SimTime)]) -> CriticalPath {
    let root = tree.root();
    let (rs, re) = (root.start, root.end);
    let mut path = CriticalPath {
        workflow: tree.workflow,
        invocation: tree.invocation,
        segments: Vec::new(),
    };
    if rs == re {
        return path;
    }

    // Work intervals clipped to the root window.
    struct Work {
        start: SimTime,
        end: SimTime,
        phase: CritPhase,
        span: usize,
    }
    let mut work: Vec<Work> = Vec::new();
    for (idx, span) in tree.spans.iter().enumerate() {
        let Some(phase) = work_phase(span.kind) else {
            continue;
        };
        let start = span.start.max(rs);
        let end = span.end.min(re);
        if start < end {
            work.push(Work {
                start,
                end,
                phase,
                span: idx,
            });
        }
    }

    // Elementary intervals: between two consecutive boundaries the set of
    // covering work spans (and downtime windows) is constant.
    let mut bounds: Vec<SimTime> = Vec::with_capacity(2 * work.len() + 2);
    bounds.push(rs);
    bounds.push(re);
    for w in &work {
        bounds.push(w.start);
        bounds.push(w.end);
    }
    for &(ds, de) in downtime {
        if ds > rs && ds < re {
            bounds.push(ds);
        }
        if de > rs && de < re {
            bounds.push(de);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();

    // Sweep the elementary intervals left to right. Every work span that
    // has opened sits in a max-heap on its claim key: highest priority
    // wins, ties go to the latest-starting span (the most recent
    // dependency), then the lowest index. The index makes each key unique,
    // so the top is exactly the one best span. A span that closed before
    // `b` can never cover a later interval either, so it is dropped only
    // when it surfaces at the top.
    work.sort_unstable_by_key(|w| w.start);
    let mut next = 0;
    let mut open: BinaryHeap<(u8, SimTime, Reverse<usize>, usize)> =
        BinaryHeap::with_capacity(work.len());
    for pair in bounds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        while let Some(w) = work.get(next).filter(|w| w.start <= a) {
            open.push((w.phase.priority(), w.start, Reverse(w.span), next));
            next += 1;
        }
        while open.peek().is_some_and(|&(.., i)| work[i].end < b) {
            open.pop();
        }
        let (phase, span) = match open.peek() {
            Some(&(.., i)) => (work[i].phase, Some(work[i].span)),
            None => {
                let down = downtime.iter().any(|&(ds, de)| ds <= a && de >= b);
                (
                    if down {
                        CritPhase::EngineDown
                    } else {
                        CritPhase::Control
                    },
                    None,
                )
            }
        };
        match path.segments.last_mut() {
            Some(last) if last.phase == phase && last.span == span && last.end == a => {
                last.end = b;
            }
            _ => path.segments.push(CritSegment {
                phase,
                start: a,
                end: b,
                span,
            }),
        }
    }
    path
}

/// Engine-outage windows derived from the forest's node-scoped events:
/// each `EngineCrashed` opens a window for its engine, the matching
/// `EngineRecovered` closes it, and a window still open at the end of the
/// stream extends to `horizon`.
pub fn downtime_windows(node_events: &[TraceEvent], horizon: SimTime) -> Vec<(SimTime, SimTime)> {
    let mut open: BTreeMap<Option<u32>, SimTime> = BTreeMap::new();
    let mut windows = Vec::new();
    for event in node_events {
        match event {
            TraceEvent::EngineCrashed { worker, at } => {
                open.entry(worker.map(|w| w.index() as u32)).or_insert(*at);
            }
            TraceEvent::EngineRecovered { worker, at, .. } => {
                if let Some(since) = open.remove(&worker.map(|w| w.index() as u32)) {
                    windows.push((since, *at));
                }
            }
            _ => {}
        }
    }
    for (_, since) in open {
        if horizon > since {
            windows.push((since, horizon));
        }
    }
    windows.sort_unstable();
    windows
}

/// The forest's engine-outage windows; one still open at the end of the
/// stream extends to the last root close.
pub(crate) fn forest_downtime(forest: &SpanForest) -> Vec<(SimTime, SimTime)> {
    let horizon = forest
        .trees
        .iter()
        .map(|t| t.root().end)
        .max()
        .unwrap_or(SimTime::ZERO);
    downtime_windows(&forest.node_events, horizon)
}

/// Extracts the critical path of every invocation in the forest, sharing
/// one cluster-wide set of engine-downtime windows.
pub fn extract(forest: &SpanForest) -> Vec<CriticalPath> {
    let downtime = forest_downtime(forest);
    forest
        .trees
        .iter()
        .map(|tree| critical_path(tree, &downtime))
        .collect()
}

/// Per-workflow critical-path phase totals, summed over invocations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CritPathBreakdown {
    /// Workflow.
    pub workflow: WorkflowId,
    /// Invocations folded in.
    pub invocations: u64,
    /// Total critical-path (= makespan) time, ms.
    pub total_ms: f64,
    /// Successful execution on the chain, ms.
    pub exec_ms: f64,
    /// Failed attempts on the chain, ms.
    pub retry_ms: f64,
    /// Cold starts on the chain, ms.
    pub cold_start_ms: f64,
    /// Remote-store transfers on the chain, ms.
    pub transfer_remote_ms: f64,
    /// Local-memory transfers on the chain, ms.
    pub transfer_local_ms: f64,
    /// Warm-container queueing on the chain, ms.
    pub queue_wait_ms: f64,
    /// Engine-outage gaps on the chain, ms.
    pub engine_down_ms: f64,
    /// Uncovered control gaps on the chain, ms.
    pub control_ms: f64,
}

impl CritPathBreakdown {
    fn new(workflow: WorkflowId) -> Self {
        CritPathBreakdown {
            workflow,
            invocations: 0,
            total_ms: 0.0,
            exec_ms: 0.0,
            retry_ms: 0.0,
            cold_start_ms: 0.0,
            transfer_remote_ms: 0.0,
            transfer_local_ms: 0.0,
            queue_wait_ms: 0.0,
            engine_down_ms: 0.0,
            control_ms: 0.0,
        }
    }

    /// Chain milliseconds in one phase.
    pub fn phase_ms(&self, phase: CritPhase) -> f64 {
        match phase {
            CritPhase::Exec => self.exec_ms,
            CritPhase::Retry => self.retry_ms,
            CritPhase::ColdStart => self.cold_start_ms,
            CritPhase::TransferRemote => self.transfer_remote_ms,
            CritPhase::TransferLocal => self.transfer_local_ms,
            CritPhase::QueueWait => self.queue_wait_ms,
            CritPhase::EngineDown => self.engine_down_ms,
            CritPhase::Control => self.control_ms,
        }
    }

    /// Fraction of the chain spent in one phase (0 when the chain is
    /// empty). Over all phases the shares sum to 1.
    pub fn share(&self, phase: CritPhase) -> f64 {
        if self.total_ms == 0.0 {
            0.0
        } else {
            self.phase_ms(phase) / self.total_ms
        }
    }

    /// Both transfer phases combined, ms.
    pub fn transfer_ms(&self) -> f64 {
        self.transfer_remote_ms + self.transfer_local_ms
    }
}

/// Folds extracted chains into one [`CritPathBreakdown`] per workflow,
/// ordered by workflow id.
pub fn aggregate(paths: &[CriticalPath]) -> Vec<CritPathBreakdown> {
    let mut by_wf: BTreeMap<WorkflowId, CritPathBreakdown> = BTreeMap::new();
    for path in paths {
        let row = by_wf
            .entry(path.workflow)
            .or_insert_with(|| CritPathBreakdown::new(path.workflow));
        row.invocations += 1;
        row.total_ms += path.total().as_millis_f64();
        row.exec_ms += path.phase_total(CritPhase::Exec).as_millis_f64();
        row.retry_ms += path.phase_total(CritPhase::Retry).as_millis_f64();
        row.cold_start_ms += path.phase_total(CritPhase::ColdStart).as_millis_f64();
        row.transfer_remote_ms += path.phase_total(CritPhase::TransferRemote).as_millis_f64();
        row.transfer_local_ms += path.phase_total(CritPhase::TransferLocal).as_millis_f64();
        row.queue_wait_ms += path.phase_total(CritPhase::QueueWait).as_millis_f64();
        row.engine_down_ms += path.phase_total(CritPhase::EngineDown).as_millis_f64();
        row.control_ms += path.phase_total(CritPhase::Control).as_millis_f64();
    }
    by_wf.into_values().collect()
}

/// Renders per-workflow critical-path shares as a MasterSP-vs-WorkerSP
/// table: mean chain length plus the share of each phase.
pub fn render_critpath_table(
    sections: &[(String, Vec<CritPathBreakdown>)],
    mut names: impl FnMut(WorkflowId) -> String,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>5} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "mode",
        "workflow",
        "inv",
        "cp-ms",
        "exec%",
        "retry%",
        "cold%",
        "xfer%",
        "queue%",
        "down%",
        "ctrl%"
    );
    let _ = writeln!(out, "{}", "-".repeat(85));
    for (label, rows) in sections {
        for row in rows {
            let n = row.invocations.max(1) as f64;
            let pct = |ms: f64| {
                if row.total_ms == 0.0 {
                    0.0
                } else {
                    100.0 * ms / row.total_ms
                }
            };
            let _ = writeln!(
                out,
                "{:<10} {:<10} {:>5} {:>9.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
                label,
                names(row.workflow),
                row.invocations,
                row.total_ms / n,
                pct(row.exec_ms),
                pct(row.retry_ms),
                pct(row.cold_start_ms),
                pct(row.transfer_ms()),
                pct(row.queue_wait_ms),
                pct(row.engine_down_ms),
                pct(row.control_ms),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{build_forest, Span};
    use faasflow_sim::NodeId;
    use proptest::prelude::*;

    /// The quadratic interval loop the sweep replaced, kept as its oracle:
    /// every elementary interval rescans every work span.
    fn critical_path_reference(tree: &SpanTree, downtime: &[(SimTime, SimTime)]) -> CriticalPath {
        let root = tree.root();
        let (rs, re) = (root.start, root.end);
        let mut path = CriticalPath {
            workflow: tree.workflow,
            invocation: tree.invocation,
            segments: Vec::new(),
        };
        if rs == re {
            return path;
        }

        // Work intervals clipped to the root window.
        struct Work {
            start: SimTime,
            end: SimTime,
            phase: CritPhase,
            span: usize,
        }
        let mut work: Vec<Work> = Vec::new();
        for (idx, span) in tree.spans.iter().enumerate() {
            let Some(phase) = work_phase(span.kind) else {
                continue;
            };
            let start = span.start.max(rs);
            let end = span.end.min(re);
            if start < end {
                work.push(Work {
                    start,
                    end,
                    phase,
                    span: idx,
                });
            }
        }

        // Elementary intervals: between two consecutive boundaries the set of
        // covering work spans (and downtime windows) is constant.
        let mut bounds: Vec<SimTime> = Vec::with_capacity(2 * work.len() + 2);
        bounds.push(rs);
        bounds.push(re);
        for w in &work {
            bounds.push(w.start);
            bounds.push(w.end);
        }
        for &(ds, de) in downtime {
            if ds > rs && ds < re {
                bounds.push(ds);
            }
            if de > rs && de < re {
                bounds.push(de);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();

        for pair in bounds.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            // Highest priority wins; ties go to the latest-starting span (the
            // most recent dependency), then the lowest index (deterministic).
            let best = work
                .iter()
                .filter(|w| w.start <= a && w.end >= b)
                .max_by(|x, y| {
                    (x.phase.priority(), x.start, std::cmp::Reverse(x.span)).cmp(&(
                        y.phase.priority(),
                        y.start,
                        std::cmp::Reverse(y.span),
                    ))
                });
            let (phase, span) = match best {
                Some(w) => (w.phase, Some(w.span)),
                None => {
                    let down = downtime.iter().any(|&(ds, de)| ds <= a && de >= b);
                    (
                        if down {
                            CritPhase::EngineDown
                        } else {
                            CritPhase::Control
                        },
                        None,
                    )
                }
            };
            match path.segments.last_mut() {
                Some(last) if last.phase == phase && last.span == span && last.end == a => {
                    last.end = b;
                }
                _ => path.segments.push(CritSegment {
                    phase,
                    start: a,
                    end: b,
                    span,
                }),
            }
        }
        path
    }

    /// Span kinds the generated trees draw from: the `Function` container
    /// and every work kind.
    fn kind_of(pick: u8) -> SpanKind {
        match pick {
            0 => SpanKind::Function,
            1 | 2 => SpanKind::Provision { cold: pick == 1 },
            3 | 4 => SpanKind::Exec {
                attempt: 0,
                failed: pick == 4,
            },
            _ => SpanKind::Transfer {
                read: true,
                remote: pick == 5,
                bytes: 1,
            },
        }
    }

    /// A root window and 1–60 spans (kind, two instants) on a 0–24 ms grid,
    /// so boundaries, priorities and starts tie often; spans may be empty
    /// or cross the root window. Plus 0–3 downtime windows.
    #[allow(clippy::type_complexity)]
    fn sweep_case() -> impl Strategy<Value = ((u64, u64), Vec<(u8, u64, u64)>, Vec<(u64, u64)>)> {
        (
            (0u64..10, 0u64..16),
            proptest::collection::vec((0u8..7, 0u64..25, 0u64..25), 1..61),
            proptest::collection::vec((0u64..25, 0u64..25), 0..4),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn sweep_matches_the_quadratic_reference(case in sweep_case()) {
            let ((root_start, root_len), spans, windows) = case;
            let mut all = vec![span(SpanKind::Invocation, root_start, root_start + root_len, None)];
            all.extend(spans.iter().map(|&(pick, a, b)| {
                span(kind_of(pick), a.min(b), a.max(b), Some(0))
            }));
            let t = tree(all);
            let downtime: Vec<(SimTime, SimTime)> = windows
                .iter()
                .map(|&(a, b)| (ms(a.min(b)), ms(a.max(b))))
                .collect();
            let swept = critical_path(&t, &downtime);
            prop_assert_eq!(&swept, &critical_path_reference(&t, &downtime));
            prop_assert!(swept.validate(&t).is_ok(), "{:?}", swept.validate(&t));
        }
    }

    /// The sweep against its reference on every tree of a traced
    /// closed-loop run of all 8 benchmarks, 30 invocations each on the
    /// default cluster: the shape of the `observe7-traced` workload.
    #[test]
    fn sweep_matches_the_reference_on_a_paper7_run() {
        use faasflow_core::{ClientConfig, Cluster, ClusterConfig};
        use faasflow_workloads::Benchmark;

        let mut cluster = Cluster::new(ClusterConfig {
            trace: true,
            ..ClusterConfig::default()
        })
        .unwrap();
        for b in Benchmark::ALL {
            cluster
                .register(&b.workflow(), ClientConfig::ClosedLoop { invocations: 30 })
                .unwrap();
        }
        cluster.run_until_idle();
        let forest = build_forest(&cluster.take_trace());
        assert_eq!(forest.trees.len(), 240);
        let downtime = forest_downtime(&forest);
        for (tree, path) in forest.trees.iter().zip(extract(&forest)) {
            assert_eq!(path, critical_path_reference(tree, &downtime));
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    fn span(kind: SpanKind, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            kind,
            label: format!("{kind:?}"),
            node: Some(NodeId::new(1)),
            function: None,
            instance: None,
            start: ms(start),
            end: ms(end),
            parent,
            truncated: false,
        }
    }

    fn tree(spans: Vec<Span>) -> SpanTree {
        SpanTree {
            workflow: WorkflowId::new(0),
            invocation: InvocationId::new(0),
            spans,
            annotations: Vec::new(),
            completed: true,
            timed_out: false,
            dead_lettered: false,
            shed: false,
        }
    }

    #[test]
    fn sequential_chain_partitions_exactly() {
        let t = tree(vec![
            span(SpanKind::Invocation, 0, 100, None),
            span(SpanKind::Provision { cold: true }, 0, 20, Some(0)),
            span(
                SpanKind::Exec {
                    attempt: 0,
                    failed: false,
                },
                20,
                90,
                Some(0),
            ),
        ]);
        let p = critical_path(&t, &[]);
        p.validate(&t).unwrap();
        assert_eq!(p.segments.len(), 3);
        assert_eq!(p.segments[0].phase, CritPhase::ColdStart);
        assert_eq!(p.segments[1].phase, CritPhase::Exec);
        assert_eq!(p.segments[2].phase, CritPhase::Control);
        assert_eq!(p.total(), SimDuration::from_millis(100));
        assert_eq!(p.phase_total(CritPhase::Exec), SimDuration::from_millis(70));
    }

    #[test]
    fn exec_outranks_overlapping_transfer() {
        let t = tree(vec![
            span(SpanKind::Invocation, 0, 60, None),
            span(
                SpanKind::Transfer {
                    read: true,
                    remote: true,
                    bytes: 1,
                },
                0,
                60,
                Some(0),
            ),
            span(
                SpanKind::Exec {
                    attempt: 0,
                    failed: false,
                },
                10,
                50,
                Some(0),
            ),
        ]);
        let p = critical_path(&t, &[]);
        p.validate(&t).unwrap();
        let phases: Vec<CritPhase> = p.segments.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            vec![
                CritPhase::TransferRemote,
                CritPhase::Exec,
                CritPhase::TransferRemote
            ]
        );
        assert_eq!(p.phase_total(CritPhase::Exec), SimDuration::from_millis(40));
    }

    #[test]
    fn equal_priority_ties_go_to_latest_start() {
        let t = tree(vec![
            span(SpanKind::Invocation, 0, 50, None),
            span(
                SpanKind::Exec {
                    attempt: 0,
                    failed: false,
                },
                0,
                50,
                Some(0),
            ),
            span(
                SpanKind::Exec {
                    attempt: 0,
                    failed: false,
                },
                20,
                40,
                Some(0),
            ),
        ]);
        let p = critical_path(&t, &[]);
        p.validate(&t).unwrap();
        // Latest-starting exec claims [20, 40): three segments, all Exec,
        // charged to span 1 / span 2 / span 1.
        assert_eq!(
            p.segments.iter().map(|s| s.span).collect::<Vec<_>>(),
            vec![Some(1), Some(2), Some(1)]
        );
        assert!(p.segments.iter().all(|s| s.phase == CritPhase::Exec));
    }

    #[test]
    fn uncovered_gap_inside_outage_is_engine_down() {
        let t = tree(vec![
            span(SpanKind::Invocation, 0, 100, None),
            span(
                SpanKind::Exec {
                    attempt: 0,
                    failed: false,
                },
                0,
                30,
                Some(0),
            ),
            span(
                SpanKind::Exec {
                    attempt: 0,
                    failed: false,
                },
                80,
                100,
                Some(0),
            ),
        ]);
        let p = critical_path(&t, &[(ms(40), ms(70))]);
        p.validate(&t).unwrap();
        let phases: Vec<CritPhase> = p.segments.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            vec![
                CritPhase::Exec,
                CritPhase::Control,
                CritPhase::EngineDown,
                CritPhase::Control,
                CritPhase::Exec
            ]
        );
        assert_eq!(
            p.phase_total(CritPhase::EngineDown),
            SimDuration::from_millis(30)
        );
    }

    #[test]
    fn zero_length_root_yields_empty_chain() {
        let t = tree(vec![span(SpanKind::Invocation, 5, 5, None)]);
        let p = critical_path(&t, &[]);
        assert!(p.segments.is_empty());
        p.validate(&t).unwrap();
    }

    #[test]
    fn unclosed_crash_extends_to_horizon() {
        let events = vec![TraceEvent::EngineCrashed {
            worker: None,
            at: ms(10),
        }];
        let windows = downtime_windows(&events, ms(50));
        assert_eq!(windows, vec![(ms(10), ms(50))]);
        // Crash and recovery pair up per engine.
        let events = vec![
            TraceEvent::EngineCrashed {
                worker: Some(NodeId::new(1)),
                at: ms(5),
            },
            TraceEvent::EngineCrashed {
                worker: None,
                at: ms(8),
            },
            TraceEvent::EngineRecovered {
                worker: Some(NodeId::new(1)),
                at: ms(20),
                replayed: 0,
            },
            TraceEvent::EngineRecovered {
                worker: None,
                at: ms(30),
                replayed: 2,
            },
        ];
        let windows = downtime_windows(&events, ms(50));
        assert_eq!(windows, vec![(ms(5), ms(20)), (ms(8), ms(30))]);
    }

    #[test]
    fn aggregate_shares_sum_to_one() {
        let t = tree(vec![
            span(SpanKind::Invocation, 0, 100, None),
            span(SpanKind::Provision { cold: false }, 0, 10, Some(0)),
            span(
                SpanKind::Exec {
                    attempt: 0,
                    failed: true,
                },
                10,
                30,
                Some(0),
            ),
            span(
                SpanKind::Exec {
                    attempt: 1,
                    failed: false,
                },
                30,
                90,
                Some(0),
            ),
            span(
                SpanKind::Transfer {
                    read: false,
                    remote: false,
                    bytes: 1,
                },
                90,
                95,
                Some(0),
            ),
        ]);
        let p = critical_path(&t, &[]);
        p.validate(&t).unwrap();
        let rows = aggregate(std::slice::from_ref(&p));
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.invocations, 1);
        let share_sum: f64 = CritPhase::ALL.iter().map(|&ph| row.share(ph)).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "{share_sum}");
        assert!(row.queue_wait_ms > 0.0);
        assert!(row.retry_ms > 0.0);
        assert!(row.control_ms > 0.0);
    }

    /// End-to-end: a real (deterministic) cluster run — every chain
    /// validates against its tree and the observed Exec total dominates
    /// the static `critical_path_exec()` bound.
    #[test]
    fn real_run_chains_validate_and_bound_static_exec() {
        use faasflow_core::{ClientConfig, Cluster, ClusterConfig};
        use faasflow_wdl::{FunctionProfile, Step, Workflow};

        let mut cluster = Cluster::new(ClusterConfig {
            trace: true,
            ..ClusterConfig::default()
        })
        .unwrap();
        // Zero execution variation: with deterministic exec times the
        // observed Exec total must dominate the static bound exactly.
        let det =
            |mean: u64, bytes: u64| FunctionProfile::with_millis(mean, bytes).exec_variation(0.0);
        let wf = Workflow::steps(
            "crit",
            Step::sequence(vec![
                Step::task("a", det(40, 2 << 20)),
                Step::parallel(vec![
                    Step::task("b", det(30, 1 << 20)),
                    Step::task("c", det(55, 1 << 20)),
                ]),
                Step::task("d", det(20, 0)),
            ]),
        );
        let id = cluster
            .register(&wf, ClientConfig::ClosedLoop { invocations: 4 })
            .unwrap();
        cluster.run_until_idle();
        let static_exec = cluster.critical_exec(id).unwrap();
        let forest = build_forest(cluster.trace());
        forest.validate().unwrap();
        let paths = extract(&forest);
        assert_eq!(paths.len(), 4);
        for (tree, path) in forest.trees.iter().zip(&paths) {
            path.validate(tree).unwrap();
            assert!(
                path.phase_total(CritPhase::Exec) >= static_exec,
                "observed exec {} < static bound {}",
                path.phase_total(CritPhase::Exec),
                static_exec
            );
        }
    }
}
