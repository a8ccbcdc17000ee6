//! # faasflow-obs
//!
//! Observability for the FaaSFlow cluster simulation: turns the raw
//! [`TraceEvent`] stream and [`RunReport`] that `faasflow-core` produces
//! into artifacts an operator (or a paper reviewer) can actually look at.
//!
//! * [`span`] — assembles the flat event stream into one causal span tree
//!   per invocation ([`build_forest`]), with structural validation
//!   ([`SpanTree::validate`]): cold-start, queue-wait, executor-attempt
//!   and transfer child spans, fault truncation, retry/restart
//!   annotations.
//! * [`chrome`] — exports a forest (plus sampled resource series) as
//!   Chrome trace-event JSON, loadable in Perfetto ([`chrome_trace`]).
//! * [`prom`] — renders a run report as a Prometheus text-exposition
//!   snapshot ([`prometheus_snapshot`]).
//! * [`attribution`] — folds span trees into a per-workflow latency
//!   phase breakdown ([`attribute`]) that reconciles with the
//!   independently-measured report histograms, and prints it as a
//!   MasterSP-vs-WorkerSP table ([`render_attribution_table`]).
//! * [`critpath`] — extracts the *observed critical path* of each
//!   invocation ([`extract`]): the contiguous chain of span segments that
//!   actually gated completion, summing exactly to the makespan, with
//!   per-workflow phase shares ([`aggregate`]).
//! * [`whatif`] — Amdahl-style speedup bounds from the critical path
//!   ([`what_if`]): how much a free-transfer / warm-only / no-queueing
//!   cluster could shave off, per workflow.
//!
//! ```
//! use faasflow_core::{ClientConfig, Cluster, ClusterConfig};
//! use faasflow_obs::{attribute, build_forest, chrome_trace};
//! use faasflow_wdl::{FunctionProfile, Step, Workflow};
//!
//! let mut cluster = Cluster::new(ClusterConfig {
//!     trace: true,
//!     ..ClusterConfig::default()
//! })?;
//! let wf = Workflow::steps("demo", Step::task("f", FunctionProfile::with_millis(10, 0)));
//! cluster.register(&wf, ClientConfig::ClosedLoop { invocations: 2 })?;
//! cluster.run_until_idle();
//! let report = cluster.report();
//! let forest = build_forest(&cluster.take_trace());
//! forest.validate().expect("well-formed spans");
//! let json = chrome_trace(&forest, report.resources.as_ref());
//! assert!(json.contains("traceEvents"));
//! assert_eq!(attribute(&forest)[0].invocations, 2);
//! # Ok::<(), faasflow_core::ClusterError>(())
//! ```
//!
//! [`TraceEvent`]: faasflow_core::TraceEvent
//! [`RunReport`]: faasflow_core::RunReport

pub mod attribution;
pub mod chrome;
pub mod critpath;
pub mod prom;
pub mod span;
mod text;
pub mod whatif;

pub use attribution::{attribute, render_attribution_table, PhaseBreakdown};
pub use chrome::{chrome_trace, parse_json, JsonDoc};
pub use critpath::{
    aggregate, critical_path, downtime_windows, extract, render_critpath_table, CritPathBreakdown,
    CritPhase, CritSegment, CriticalPath,
};
pub use prom::{prometheus_snapshot, prometheus_worker_loads};
pub use span::{
    build_forest, Annotation, AnnotationKind, Span, SpanForest, SpanKind, SpanLabel, SpanTree,
};
pub use whatif::{
    render_whatif_table, what_if, what_if_all, WhatIfBound, WhatIfScenario, WorkflowWhatIf,
};
