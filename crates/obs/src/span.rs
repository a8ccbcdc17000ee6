//! Causal span assembly: from the flat [`TraceEvent`] stream to one
//! well-formed span tree per invocation.
//!
//! The cluster records a chronological event vector; this module folds it
//! into the hierarchy an observability backend wants:
//!
//! ```text
//! Invocation (arrival -> completion)
//! ├── Function fn1 (trigger -> node complete)
//! │   ├── Provision fn1#0  (trigger -> container ready; cold or warm)
//! │   ├── Transfer  fn1#0  (flow admitted -> flow done, per input/output)
//! │   └── Exec      fn1#0  (attempt start -> attempt end, per retry)
//! └── Function fn2 ...
//! ```
//!
//! Fault paths are represented rather than dropped: a worker crash
//! force-closes the executor spans stranded on that node (marked
//! [`Span::truncated`]), an epoch bump closes everything below the root and
//! the re-execution opens fresh spans, and storage blackout retries,
//! state-sync messages, restarts and dead-letterings become
//! [`Annotation`]s on the tree.
//!
//! [`build_forest`] never panics on a truncated stream: the tracer drops
//! *newest* events when its capacity cap is hit, so the retained prefix is
//! causally closed, and anything still open when the stream ends is closed
//! at the last observed instant with `truncated` set.

use std::fmt;

use faasflow_core::TraceEvent;
use faasflow_sim::{FastMap, FunctionId, InvocationId, NodeId, SimDuration, SimTime, WorkflowId};
use serde::{Deserialize, Serialize};

use crate::text::{push_id, ByteSink};

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpanKind {
    /// Root: client arrival to completion (or dead-lettering).
    Invocation,
    /// One function node: trigger decision to node completion.
    Function,
    /// Container acquisition for one instance: trigger to ready.
    Provision {
        /// `true` if the container cold-started (else the window is pure
        /// queue wait for a warm container).
        cold: bool,
    },
    /// One executor attempt.
    Exec {
        /// Zero-based attempt number.
        attempt: u32,
        /// Whether the attempt failed (injected failure; retried or
        /// dead-lettered afterwards).
        failed: bool,
    },
    /// One data flow, admission to completion.
    Transfer {
        /// `true` for an input read, `false` for an output write.
        read: bool,
        /// Through the remote store (`false` = worker-local memory).
        remote: bool,
        /// Bytes moved.
        bytes: u64,
    },
}

/// One node of a span tree. `parent` indexes into the owning
/// [`SpanTree::spans`] vector and always points at an earlier entry. Its
/// human-readable name is derived from its ids by [`SpanTree::label`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What the span measures.
    pub kind: SpanKind,
    /// The node the work ran on (`None` for the cluster-scoped root).
    pub node: Option<NodeId>,
    /// The function node, where applicable.
    pub function: Option<FunctionId>,
    /// The instance index, where applicable.
    pub instance: Option<u32>,
    /// Open instant.
    pub start: SimTime,
    /// Close instant (`>= start`).
    pub end: SimTime,
    /// Parent span index (`None` only for the root). It is 32 bits wide
    /// because every span pays for it.
    pub parent: Option<u32>,
    /// The span did not close naturally: it was cut short by a crash, an
    /// epoch bump, or the end of the recorded stream.
    pub truncated: bool,
}

// A traced run holds one `Span` per trace event that opens work, so its
// size is paid ~150 times per invocation.
const _: () = assert!(std::mem::size_of::<Span>() <= 72);

impl Span {
    /// The span's extent.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A span's human-readable name (the Chrome-trace event name), derived
/// from the ids it holds rather than stored. It prints
/// `{workflow}/{invocation}` for the root, `{function}` for a function
/// span, and `{head}{function}#{instance}` for the rest, where the head
/// is `cold-start `, `queue-wait `, `exec `, `read ` or `write `.
#[derive(Debug, Clone, Copy)]
pub struct SpanLabel<'a> {
    workflow: WorkflowId,
    invocation: InvocationId,
    span: &'a Span,
}

impl SpanLabel<'_> {
    /// Writes the label without the formatting machinery: the Chrome
    /// export writes it straight into its buffer.
    pub(crate) fn write_to(&self, out: &mut impl ByteSink) {
        let head = match self.span.kind {
            SpanKind::Invocation => return write_invocation(out, self.workflow, self.invocation),
            SpanKind::Function => "",
            SpanKind::Provision { cold: true } => "cold-start ",
            SpanKind::Provision { cold: false } => "queue-wait ",
            SpanKind::Exec { .. } => "exec ",
            SpanKind::Transfer { read: true, .. } => "read ",
            SpanKind::Transfer { read: false, .. } => "write ",
        };
        out.push_bytes(head.as_bytes());
        if let Some(function) = self.span.function {
            push_id(out, FunctionId::PREFIX, function.index());
        }
        if let Some(instance) = self.span.instance {
            push_id(out, "#", instance as usize);
        }
    }

    /// The label written onto the stack, for callers that compare or pad
    /// it without allocating.
    pub(crate) fn to_stack(self) -> StackLabel {
        let mut buf = StackLabel {
            bytes: [0; 40],
            len: 0,
        };
        self.write_to(&mut buf);
        buf
    }
}

impl fmt::Display for SpanLabel<'_> {
    /// Honors width, fill and alignment, like `str`'s `Display`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.to_stack().as_str())
    }
}

/// A span label held on the stack. Every label fits: an id prints at most
/// ten digits, so the longest, `cold-start fn{u32}#{u32}`, takes 34 bytes.
pub(crate) struct StackLabel {
    bytes: [u8; 40],
    len: usize,
}

impl StackLabel {
    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("written from ASCII digits and whole strs")
    }

    /// The label's bytes, which order as its text does.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl ByteSink for StackLabel {
    fn push_bytes(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        let room = self.bytes.get_mut(self.len..end);
        room.expect("every label fits").copy_from_slice(bytes);
        self.len = end;
    }
}

/// Writes `{workflow}/{invocation}`: the root's label, and the prefix the
/// Chrome export puts before every other span's.
pub(crate) fn write_invocation(
    out: &mut impl ByteSink,
    workflow: WorkflowId,
    invocation: InvocationId,
) {
    push_id(out, WorkflowId::PREFIX, workflow.index());
    out.push_bytes(b"/");
    push_id(out, InvocationId::PREFIX, invocation.index());
}

/// A point event attached to a span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnnotationKind {
    /// WorkerSP cross-worker state sync.
    StateSync {
        /// Sender worker.
        from: NodeId,
        /// Receiver worker.
        to: NodeId,
        /// The completed function the sync reports.
        completed: FunctionId,
    },
    /// A storage access hit a blackout window and backed off.
    StorageRetry {
        /// The function whose transfer retried.
        function: FunctionId,
        /// `true` for an input read.
        read: bool,
        /// Zero-based retry attempt.
        attempt: u32,
        /// Backoff delay until the next attempt.
        delay: SimDuration,
    },
    /// Crash recovery bumped the epoch and restarted the invocation.
    Restarted {
        /// The new epoch.
        epoch: u32,
    },
    /// The recovery budget ran out; the invocation was abandoned.
    DeadLettered,
    /// Admission control dropped the invocation off an overflowing queue.
    Shed {
        /// The worker whose admission queue overflowed.
        worker: NodeId,
    },
    /// A straggling exec was speculatively re-dispatched.
    HedgeLaunched {
        /// The function being hedged.
        function: FunctionId,
        /// The instance index.
        instance: u32,
        /// The primary's worker.
        from: NodeId,
        /// The hedge's worker.
        to: NodeId,
    },
    /// A hedge race resolved.
    HedgeResolved {
        /// The function that was hedged.
        function: FunctionId,
        /// The instance index.
        instance: u32,
        /// `true` if the speculative copy finished first.
        winner_is_hedge: bool,
    },
}

/// [`AnnotationKind`] plus its instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Annotation {
    /// What happened.
    pub kind: AnnotationKind,
    /// When.
    pub at: SimTime,
}

/// The span tree of one invocation. `spans[0]` is always the
/// [`SpanKind::Invocation`] root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTree {
    /// Workflow.
    pub workflow: WorkflowId,
    /// Invocation.
    pub invocation: InvocationId,
    /// Spans in creation order; parents precede children.
    pub spans: Vec<Span>,
    /// Point events, chronological.
    pub annotations: Vec<Annotation>,
    /// The invocation completed (all exit nodes done).
    pub completed: bool,
    /// The 60 s timeout fired before completion.
    pub timed_out: bool,
    /// The invocation was dead-lettered.
    pub dead_lettered: bool,
    /// The invocation was load-shed by admission control.
    pub shed: bool,
}

impl SpanTree {
    /// The invocation root span.
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }

    /// End-to-end extent of the invocation.
    pub fn e2e(&self) -> SimDuration {
        self.root().duration()
    }

    /// The label of span `idx`, derived from its ids.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn label(&self, idx: usize) -> SpanLabel<'_> {
        self.label_of(&self.spans[idx])
    }

    fn label_of<'a>(&self, span: &'a Span) -> SpanLabel<'a> {
        SpanLabel {
            workflow: self.workflow,
            invocation: self.invocation,
            span,
        }
    }

    /// Checks structural well-formedness:
    ///
    /// 1. the root exists, is an [`SpanKind::Invocation`] and has no parent;
    /// 2. every other span has a parent at a smaller index (parents open
    ///    before children);
    /// 3. every span closes no earlier than it opens;
    /// 4. children open within their parent's window and, unless one side
    ///    was truncated, close within it too;
    /// 5. executor attempts of the same `(function, instance)` never
    ///    overlap;
    /// 6. input reads finish before the last executor attempt of their
    ///    instance starts, and output writes start no earlier than the
    ///    first attempt.
    pub fn validate(&self) -> Result<(), String> {
        let who = |i: usize| format!("{}/{} span {i}", self.workflow, self.invocation);
        let named = |i: usize| format!("{} ({})", who(i), self.label(i));
        let root = self.spans.first().ok_or("empty span tree")?;
        if root.kind != SpanKind::Invocation || root.parent.is_some() {
            return Err(format!("{}: root is not an invocation span", who(0)));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("{}: closes before it opens", named(i)));
            }
            if i == 0 {
                continue;
            }
            let p = s.parent.ok_or_else(|| format!("{}: no parent", named(i)))? as usize;
            if p >= i {
                return Err(format!("{}: parent {p} not earlier", named(i)));
            }
            let parent = &self.spans[p];
            if s.start < parent.start {
                return Err(format!("{}: opens before its parent", named(i)));
            }
            if s.start > parent.end && !parent.truncated {
                return Err(format!("{}: opens after its parent closed", named(i)));
            }
            if s.end > parent.end && !s.truncated && !parent.truncated {
                return Err(format!("{}: outlives its parent", named(i)));
            }
        }
        // Per-(function, instance) ordering.
        let mut execs: FastMap<(FunctionId, u32), Vec<&Span>> = FastMap::default();
        for s in &self.spans {
            if let (SpanKind::Exec { .. }, Some(f), Some(i)) = (s.kind, s.function, s.instance) {
                execs.entry((f, i)).or_default().push(s);
            }
        }
        for spans in execs.values_mut() {
            spans.sort_by_key(|s| s.start);
            for pair in spans.windows(2) {
                if pair[1].start < pair[0].end {
                    return Err(format!(
                        "{}/{}: overlapping exec attempts on {}",
                        self.workflow,
                        self.invocation,
                        self.label_of(pair[0])
                    ));
                }
            }
        }
        for s in &self.spans {
            let SpanKind::Transfer { read, .. } = s.kind else {
                continue;
            };
            let (Some(f), Some(i)) = (s.function, s.instance) else {
                continue;
            };
            let Some(attempts) = execs.get(&(f, i)) else {
                continue; // instance never executed (crash before exec)
            };
            let first = attempts.first().expect("non-empty").start;
            let last = attempts.last().expect("non-empty").start;
            if read && s.end > last {
                return Err(format!(
                    "{}/{}: read {} finished after the last exec attempt started",
                    self.workflow,
                    self.invocation,
                    self.label_of(s)
                ));
            }
            if !read && s.start < first {
                return Err(format!(
                    "{}/{}: write {} started before the first exec attempt",
                    self.workflow,
                    self.invocation,
                    self.label_of(s)
                ));
            }
        }
        Ok(())
    }
}

/// Every span tree of a run, plus the node-scoped fault events (crashes,
/// restarts, lease expiries) that belong to no single invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanForest {
    /// One tree per invocation, in order of first appearance.
    pub trees: Vec<SpanTree>,
    /// Node-scoped events, chronological.
    pub node_events: Vec<TraceEvent>,
}

impl SpanForest {
    /// Validates every tree; the first violation is returned.
    pub fn validate(&self) -> Result<(), String> {
        self.trees.iter().try_for_each(SpanTree::validate)
    }

    /// Total spans across all trees.
    pub fn span_count(&self) -> usize {
        self.trees.iter().map(|t| t.spans.len()).sum()
    }
}

/// A span index as [`Span::parent`] holds it.
fn parent_index(idx: usize) -> Option<u32> {
    Some(u32::try_from(idx).expect("span index fits u32"))
}

/// Per-invocation assembly state.
struct TreeBuilder {
    tree: SpanTree,
    /// Open function spans by function id.
    open_functions: FastMap<FunctionId, usize>,
    /// Open exec spans by (function, instance).
    open_execs: FastMap<(FunctionId, u32), usize>,
    root_open: bool,
    /// On `build_forest`'s list of trees a worker crash sweeps.
    listed: bool,
}

impl TreeBuilder {
    /// A builder whose tree has room for exactly `spans` spans, the root
    /// included.
    fn new(workflow: WorkflowId, invocation: InvocationId, at: SimTime, spans: usize) -> Self {
        let mut tree = SpanTree {
            workflow,
            invocation,
            spans: Vec::with_capacity(spans),
            annotations: Vec::new(),
            completed: false,
            timed_out: false,
            dead_lettered: false,
            shed: false,
        };
        tree.spans.push(Span {
            kind: SpanKind::Invocation,
            node: None,
            function: None,
            instance: None,
            start: at,
            end: at,
            parent: None,
            truncated: false,
        });
        TreeBuilder {
            tree,
            open_functions: FastMap::default(),
            open_execs: FastMap::default(),
            root_open: true,
            listed: false,
        }
    }

    fn close(&mut self, idx: usize, at: SimTime, truncated: bool) {
        let s = &mut self.tree.spans[idx];
        s.end = at.max(s.start);
        s.truncated = truncated;
    }

    /// Force-closes everything below the root (crash recovery epoch bump,
    /// dead-lettering, or end of stream).
    fn close_children(&mut self, at: SimTime) {
        let open: Vec<usize> = self
            .open_functions
            .drain()
            .map(|(_, i)| i)
            .chain(self.open_execs.drain().map(|(_, i)| i))
            .collect();
        for idx in open {
            self.close(idx, at, true);
        }
    }

    /// A worker crashed: truncate the spans stranded on it.
    fn close_node_spans(&mut self, worker: NodeId, at: SimTime) {
        let stranded = |spans: &[Span], idx: usize| spans[idx].node == Some(worker);
        let execs: Vec<usize> = self
            .open_execs
            .iter()
            .filter(|(_, &i)| stranded(&self.tree.spans, i))
            .map(|(_, &i)| i)
            .collect();
        self.open_execs
            .retain(|_, i| !stranded(&self.tree.spans, *i));
        for idx in execs {
            self.close(idx, at, true);
        }
    }

    /// The parent for per-function child spans: the open function span if
    /// there is one, else the root.
    fn function_parent(&self, function: FunctionId) -> usize {
        self.open_functions.get(&function).copied().unwrap_or(0)
    }

    fn push(&mut self, span: Span) -> usize {
        self.tree.spans.push(span);
        self.tree.spans.len() - 1
    }

    fn annotate(&mut self, kind: AnnotationKind, at: SimTime) {
        self.tree.annotations.push(Annotation { kind, at });
    }

    fn apply(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::InvocationArrived { at, .. } => {
                self.tree.spans[0].start = *at;
            }
            TraceEvent::FunctionTriggered {
                function,
                worker,
                at,
                ..
            } => {
                // A re-trigger (MasterSP crash re-dispatch) supersedes the
                // stranded span.
                if let Some(old) = self.open_functions.remove(function) {
                    self.close(old, *at, true);
                }
                let idx = self.push(Span {
                    kind: SpanKind::Function,
                    node: Some(*worker),
                    function: Some(*function),
                    instance: None,
                    start: *at,
                    end: *at,
                    parent: Some(0),
                    truncated: false,
                });
                self.open_functions.insert(*function, idx);
            }
            TraceEvent::InstanceStarted {
                function,
                instance,
                worker,
                cold,
                at,
                ..
            } => {
                let parent = self.function_parent(*function);
                let start = self.tree.spans[parent].start;
                self.push(Span {
                    kind: SpanKind::Provision { cold: *cold },
                    node: Some(*worker),
                    function: Some(*function),
                    instance: Some(*instance),
                    start,
                    end: (*at).max(start),
                    parent: parent_index(parent),
                    truncated: false,
                });
            }
            TraceEvent::ExecStarted {
                function,
                instance,
                worker,
                attempt,
                at,
                ..
            } => {
                let key = (*function, *instance);
                if let Some(old) = self.open_execs.remove(&key) {
                    self.close(old, *at, true);
                }
                let parent = self.function_parent(*function);
                let idx = self.push(Span {
                    kind: SpanKind::Exec {
                        attempt: *attempt,
                        failed: false,
                    },
                    node: Some(*worker),
                    function: Some(*function),
                    instance: Some(*instance),
                    start: *at,
                    end: *at,
                    parent: parent_index(parent),
                    truncated: false,
                });
                self.open_execs.insert(key, idx);
            }
            TraceEvent::ExecFinished {
                function,
                instance,
                failed,
                at,
                ..
            } => {
                if let Some(idx) = self.open_execs.remove(&(*function, *instance)) {
                    self.close(idx, *at, false);
                    if let SpanKind::Exec { failed: f, .. } = &mut self.tree.spans[idx].kind {
                        *f = *failed;
                    }
                }
            }
            TraceEvent::Transferred {
                function,
                instance,
                worker,
                bytes,
                remote,
                read,
                started,
                at,
                ..
            } => {
                let mut parent = self.function_parent(*function);
                // A flow admitted before a crash can outlive the function
                // span it logically belongs to; re-home it on the root so
                // containment holds.
                if *started < self.tree.spans[parent].start {
                    parent = 0;
                }
                self.push(Span {
                    kind: SpanKind::Transfer {
                        read: *read,
                        remote: *remote,
                        bytes: *bytes,
                    },
                    node: Some(*worker),
                    function: Some(*function),
                    instance: Some(*instance),
                    start: (*started).max(self.tree.spans[parent].start),
                    end: *at,
                    parent: parent_index(parent),
                    truncated: false,
                });
            }
            TraceEvent::NodeCompleted { function, at, .. } => {
                if let Some(idx) = self.open_functions.remove(function) {
                    self.close(idx, *at, false);
                }
            }
            TraceEvent::StateSyncSent {
                from,
                to,
                completed,
                at,
                ..
            } => {
                self.annotate(
                    AnnotationKind::StateSync {
                        from: *from,
                        to: *to,
                        completed: *completed,
                    },
                    *at,
                );
            }
            TraceEvent::StorageRetry {
                function,
                read,
                attempt,
                delay,
                at,
                ..
            } => {
                self.annotate(
                    AnnotationKind::StorageRetry {
                        function: *function,
                        read: *read,
                        attempt: *attempt,
                        delay: *delay,
                    },
                    *at,
                );
            }
            TraceEvent::InvocationRestarted { epoch, at, .. } => {
                self.annotate(AnnotationKind::Restarted { epoch: *epoch }, *at);
                self.close_children(*at);
            }
            TraceEvent::DeadLettered { at, .. } => {
                self.annotate(AnnotationKind::DeadLettered, *at);
                self.close_children(*at);
                self.close(0, *at, false);
                self.tree.dead_lettered = true;
                self.root_open = false;
            }
            TraceEvent::InvocationShed { worker, at, .. } => {
                self.annotate(AnnotationKind::Shed { worker: *worker }, *at);
                self.close_children(*at);
                self.close(0, *at, false);
                self.tree.shed = true;
                self.root_open = false;
            }
            TraceEvent::HedgeLaunched {
                function,
                instance,
                from_worker,
                to_worker,
                at,
                ..
            } => {
                self.annotate(
                    AnnotationKind::HedgeLaunched {
                        function: *function,
                        instance: *instance,
                        from: *from_worker,
                        to: *to_worker,
                    },
                    *at,
                );
            }
            TraceEvent::HedgeResolved {
                function,
                instance,
                winner_is_hedge,
                at,
                ..
            } => {
                self.annotate(
                    AnnotationKind::HedgeResolved {
                        function: *function,
                        instance: *instance,
                        winner_is_hedge: *winner_is_hedge,
                    },
                    *at,
                );
            }
            TraceEvent::InvocationCompleted { at, timed_out, .. } => {
                self.close_children(*at);
                self.close(0, *at, false);
                self.tree.completed = true;
                self.tree.timed_out = *timed_out;
                self.root_open = false;
            }
            TraceEvent::WorkerCrashed { .. }
            | TraceEvent::WorkerRestarted { .. }
            | TraceEvent::LeaseExpired { .. }
            | TraceEvent::BreakerTransition { .. }
            | TraceEvent::EngineCrashed { .. }
            | TraceEvent::EngineRecovered { .. }
            | TraceEvent::PlacementRebalanced { .. }
            | TraceEvent::SloAlertFired { .. }
            | TraceEvent::SloAlertResolved { .. }
            | TraceEvent::WorkflowDegraded { .. }
            | TraceEvent::WorkflowRestored { .. }
            | TraceEvent::WorkerQuarantined { .. }
            | TraceEvent::WorkerReinstated { .. }
            | TraceEvent::ZombieFenced { .. } => {
                unreachable!("node-scoped events are handled by the forest builder")
            }
        }
    }

    fn finish(&mut self, at: SimTime) {
        self.close_children(at);
        if self.root_open {
            self.close(0, at, true);
            self.root_open = false;
        }
    }
}

/// Whether [`TreeBuilder::apply`] pushes a span for `event`.
fn opens_span(event: &TraceEvent) -> bool {
    matches!(
        event,
        TraceEvent::FunctionTriggered { .. }
            | TraceEvent::InstanceStarted { .. }
            | TraceEvent::ExecStarted { .. }
            | TraceEvent::Transferred { .. }
    )
}

/// Assembles the forest. Events must be in recorded (chronological) order,
/// exactly as `Cluster::take_trace` returns them.
pub fn build_forest(events: &[TraceEvent]) -> SpanForest {
    // A counting pass sizes each tree exactly, so no span vector grows and
    // none keeps the spare slots that growth by doubling leaves.
    let mut sizes: FastMap<(WorkflowId, InvocationId), usize> = FastMap::default();
    for event in events {
        if let Some(key) = event.invocation() {
            *sizes.entry(key).or_insert(1) += usize::from(opens_span(event));
        }
    }
    let mut order: Vec<(WorkflowId, InvocationId)> = Vec::new();
    let mut builders: FastMap<(WorkflowId, InvocationId), TreeBuilder> = FastMap::default();
    // Trees that may hold an open exec span: every tree with one is listed.
    // A crash sweeps only these, and unlists those left with none, so its
    // cost follows the live trees, not the history.
    let mut sweep: Vec<(WorkflowId, InvocationId)> = Vec::new();
    let mut node_events = Vec::new();
    let mut last = SimTime::ZERO;
    for event in events {
        last = last.max(event.at());
        match event.invocation() {
            None => {
                if let TraceEvent::WorkerCrashed { worker, at } = event {
                    // Each builder changes only its own spans, so the order
                    // of the sweep does not matter.
                    sweep.retain(|key| {
                        let b = builders.get_mut(key).expect("listed builder exists");
                        b.close_node_spans(*worker, *at);
                        b.listed = !b.open_execs.is_empty();
                        b.listed
                    });
                }
                node_events.push(event.clone());
            }
            Some(key) => {
                let builder = builders.entry(key).or_insert_with(|| {
                    order.push(key);
                    TreeBuilder::new(key.0, key.1, event.at(), sizes[&key])
                });
                builder.apply(event);
                if !builder.listed && !builder.open_execs.is_empty() {
                    builder.listed = true;
                    sweep.push(key);
                }
            }
        }
    }
    let mut trees = Vec::with_capacity(order.len());
    for key in order {
        let mut builder = builders.remove(&key).expect("builder exists");
        builder.finish(last);
        trees.push(builder.tree);
    }
    SpanForest { trees, node_events }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    fn wf() -> WorkflowId {
        WorkflowId::new(0)
    }

    fn inv() -> InvocationId {
        InvocationId::new(0)
    }

    fn small_stream() -> Vec<TraceEvent> {
        let f = FunctionId::new(1);
        let n = NodeId::new(1);
        vec![
            TraceEvent::InvocationArrived {
                workflow: wf(),
                invocation: inv(),
                at: ms(0),
            },
            TraceEvent::FunctionTriggered {
                workflow: wf(),
                invocation: inv(),
                function: f,
                worker: n,
                at: ms(1),
            },
            TraceEvent::InstanceStarted {
                workflow: wf(),
                invocation: inv(),
                function: f,
                instance: 0,
                worker: n,
                container: faasflow_sim::ContainerId::new(0),
                cold: true,
                at: ms(5),
            },
            TraceEvent::ExecStarted {
                workflow: wf(),
                invocation: inv(),
                function: f,
                instance: 0,
                worker: n,
                attempt: 0,
                at: ms(5),
            },
            TraceEvent::ExecFinished {
                workflow: wf(),
                invocation: inv(),
                function: f,
                instance: 0,
                worker: n,
                attempt: 0,
                failed: false,
                at: ms(25),
            },
            TraceEvent::Transferred {
                workflow: wf(),
                invocation: inv(),
                function: f,
                instance: 0,
                worker: n,
                bytes: 1 << 20,
                remote: true,
                read: false,
                started: ms(25),
                at: ms(30),
            },
            TraceEvent::NodeCompleted {
                workflow: wf(),
                invocation: inv(),
                function: f,
                at: ms(30),
            },
            TraceEvent::InvocationCompleted {
                workflow: wf(),
                invocation: inv(),
                at: ms(30),
                timed_out: false,
            },
        ]
    }

    #[test]
    fn builds_a_valid_tree_from_a_clean_stream() {
        let forest = build_forest(&small_stream());
        assert_eq!(forest.trees.len(), 1);
        forest.validate().expect("well-formed");
        let tree = &forest.trees[0];
        assert!(tree.completed && !tree.timed_out && !tree.dead_lettered);
        assert_eq!(tree.e2e(), SimDuration::from_millis(30));
        // Root + function + provision + exec + transfer.
        assert_eq!(tree.spans.len(), 5);
        assert!(tree.spans.iter().all(|s| !s.truncated));
    }

    #[test]
    fn crash_truncates_stranded_exec_spans() {
        let mut events = small_stream();
        // Crash after exec starts; drop the natural ExecFinished and
        // everything after it.
        events.truncate(4);
        events.push(TraceEvent::WorkerCrashed {
            worker: NodeId::new(1),
            at: ms(10),
        });
        let forest = build_forest(&events);
        forest.validate().expect("well-formed despite the crash");
        let tree = &forest.trees[0];
        let exec = tree
            .spans
            .iter()
            .find(|s| matches!(s.kind, SpanKind::Exec { .. }))
            .expect("exec span");
        assert!(exec.truncated);
        assert_eq!(exec.end, ms(10));
        assert!(!tree.completed);
        assert_eq!(forest.node_events.len(), 1);
    }

    /// Crashes truncate exactly the open exec spans on the crashed worker,
    /// across trees that closed, stayed open, or opened an exec only after
    /// an earlier crash found none.
    #[test]
    fn crashes_truncate_only_open_execs_on_their_worker() {
        let f = FunctionId::new(1);
        let key = |i: u32| (wf(), InvocationId::new(i));
        let arrived = |i: u32| TraceEvent::InvocationArrived {
            workflow: wf(),
            invocation: InvocationId::new(i),
            at: ms(0),
        };
        let exec = |i: u32, instance: u32, worker: u32, at: u64| TraceEvent::ExecStarted {
            workflow: wf(),
            invocation: InvocationId::new(i),
            function: f,
            instance,
            worker: NodeId::new(worker),
            attempt: 0,
            at: ms(at),
        };
        let done = |i: u32, instance: u32, worker: u32, at: u64| TraceEvent::ExecFinished {
            workflow: wf(),
            invocation: InvocationId::new(i),
            function: f,
            instance,
            worker: NodeId::new(worker),
            attempt: 0,
            failed: false,
            at: ms(at),
        };
        let crash = |worker: u32, at: u64| TraceEvent::WorkerCrashed {
            worker: NodeId::new(worker),
            at: ms(at),
        };
        let events = vec![
            arrived(0),
            arrived(1),
            arrived(2),
            arrived(3),
            exec(0, 0, 1, 1),
            exec(3, 0, 1, 1),
            exec(1, 0, 1, 2),
            exec(2, 0, 2, 2),
            done(0, 0, 1, 3),
            done(3, 0, 1, 3),
            TraceEvent::InvocationCompleted {
                workflow: wf(),
                invocation: inv(),
                at: ms(4),
                timed_out: false,
            },
            crash(1, 10),
            done(2, 0, 2, 12),
            exec(3, 1, 1, 15),
            crash(1, 20),
            exec(2, 1, 2, 22),
            done(2, 1, 2, 30),
        ];
        let forest = build_forest(&events);
        forest.validate().expect("well-formed despite the crashes");
        let exec_end = |k: (WorkflowId, InvocationId), instance: u32| {
            let tree = forest
                .trees
                .iter()
                .find(|t| (t.workflow, t.invocation) == k)
                .expect("tree exists");
            let span = tree
                .spans
                .iter()
                .find(|s| matches!(s.kind, SpanKind::Exec { .. }) && s.instance == Some(instance))
                .expect("exec span");
            (span.end, span.truncated)
        };
        assert_eq!(
            exec_end(key(0), 0),
            (ms(3), false),
            "closed before the crash"
        );
        assert_eq!(
            exec_end(key(1), 0),
            (ms(10), true),
            "stranded by the first crash"
        );
        assert_eq!(
            exec_end(key(2), 0),
            (ms(12), false),
            "another worker's exec"
        );
        assert_eq!(exec_end(key(3), 0), (ms(3), false));
        assert_eq!(
            exec_end(key(3), 1),
            (ms(20), true),
            "stranded by the second crash"
        );
        assert_eq!(exec_end(key(2), 1), (ms(30), false));
    }

    #[test]
    fn restart_closes_children_and_annotates() {
        let mut events = small_stream();
        events.truncate(4);
        events.push(TraceEvent::InvocationRestarted {
            workflow: wf(),
            invocation: inv(),
            epoch: 1,
            at: ms(12),
        });
        events.push(TraceEvent::InvocationCompleted {
            workflow: wf(),
            invocation: inv(),
            at: ms(40),
            timed_out: false,
        });
        let forest = build_forest(&events);
        forest.validate().expect("well-formed");
        let tree = &forest.trees[0];
        assert!(matches!(
            tree.annotations[0].kind,
            AnnotationKind::Restarted { epoch: 1 }
        ));
        // Function and exec spans truncated at the epoch bump.
        assert!(tree
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .all(|s| s.end <= ms(12)));
        assert!(tree.completed);
    }

    #[test]
    fn stream_end_truncates_open_spans() {
        let mut events = small_stream();
        events.truncate(4); // exec still open, no further events
        let forest = build_forest(&events);
        forest.validate().expect("well-formed");
        let tree = &forest.trees[0];
        assert!(tree.spans[0].truncated);
        assert!(!tree.completed);
    }

    /// The derived label prints the text each span kind was once built
    /// with by `format!`, for ids of one to three digits and the widest.
    #[test]
    fn labels_print_as_formatted() {
        let kinds = [
            SpanKind::Function,
            SpanKind::Provision { cold: true },
            SpanKind::Provision { cold: false },
            SpanKind::Exec {
                attempt: 0,
                failed: false,
            },
            SpanKind::Transfer {
                read: true,
                remote: true,
                bytes: 1,
            },
            SpanKind::Transfer {
                read: false,
                remote: false,
                bytes: 1,
            },
        ];
        let check = |workflow: WorkflowId, invocation: InvocationId, f: FunctionId, n: u32| {
            let mut tree = TreeBuilder::new(workflow, invocation, ms(0), 1 + kinds.len()).tree;
            for kind in kinds {
                tree.spans.push(Span {
                    kind,
                    node: Some(NodeId::new(1)),
                    function: Some(f),
                    instance: (kind != SpanKind::Function).then_some(n),
                    start: ms(0),
                    end: ms(0),
                    parent: Some(0),
                    truncated: false,
                });
            }
            let expected = [
                format!("{workflow}/{invocation}"),
                format!("{f}"),
                format!("cold-start {f}#{n}"),
                format!("queue-wait {f}#{n}"),
                format!("exec {f}#{n}"),
                format!("read {f}#{n}"),
                format!("write {f}#{n}"),
            ];
            for (idx, want) in expected.iter().enumerate() {
                assert_eq!(&tree.label(idx).to_string(), want);
                assert_eq!(format!("{:>30}", tree.label(idx)), format!("{want:>30}"));
                let mut pushed = Vec::new();
                tree.label(idx).write_to(&mut pushed);
                assert_eq!(pushed, want.as_bytes());
            }
        };
        let ids = [7, 42, 517, u32::MAX];
        for w in ids {
            for i in ids {
                for f in ids {
                    for n in ids {
                        check(
                            WorkflowId::new(w),
                            InvocationId::new(i),
                            FunctionId::new(f),
                            n,
                        );
                    }
                }
            }
        }
    }

    /// The counting pass sizes every tree of a traced closed-loop run of
    /// all 8 benchmarks, 30 invocations each, exactly: no span vector
    /// holds a spare slot.
    #[test]
    fn trees_are_sized_exactly_on_a_paper7_run() {
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
        for tree in &forest.trees {
            assert_eq!(tree.spans.capacity(), tree.spans.len());
        }
    }

    #[test]
    fn validate_rejects_an_orphan_child() {
        let mut forest = build_forest(&small_stream());
        forest.trees[0].spans[2].parent = None;
        assert_eq!(
            forest.validate(),
            Err("wf0/inv0 span 2 (cold-start fn1#0): no parent".to_string())
        );
    }

    #[test]
    fn validate_rejects_inverted_spans() {
        let mut forest = build_forest(&small_stream());
        forest.trees[0].spans[3].end = ms(1);
        assert_eq!(
            forest.validate(),
            Err("wf0/inv0 span 3 (exec fn1#0): closes before it opens".to_string())
        );
    }
}
