//! Structured tracing: watch one invocation flow through WorkerSP — which
//! worker triggers what, where the data lands, and which state syncs cross
//! the network — then fold the same events into causal span trees, a
//! latency-attribution table, the observed critical path of each
//! invocation, and what-if speedup bounds.
//!
//! ```sh
//! cargo run --example trace_timeline
//! ```

use faasflow::core::trace::render_timeline;
use faasflow::core::{
    ClientConfig, Cluster, ClusterConfig, ClusterError, DegradeConfig, SloConfig, SloObjective,
};
use faasflow::obs::{
    aggregate, attribute, build_forest, extract, render_attribution_table, what_if, SpanKind,
};
use faasflow::workloads::Benchmark;

fn main() -> Result<(), ClusterError> {
    // An impossible 1 ms objective with single-completion windows makes
    // the burn-rate alert fire on the very first invocation, so the
    // timeline also shows the SLO alert edge and the degradation
    // controller throttling the workflow in response. Neither subsystem
    // draws randomness, so the rest of the timeline is unchanged.
    let config = ClusterConfig {
        trace: true,
        slo: Some(SloConfig {
            objectives: vec![SloObjective {
                workflow: "FP".to_string(),
                target: faasflow::sim::SimDuration::from_millis(1),
                error_budget: 0.5,
                fast_window: 1,
                slow_window: 1,
                fast_burn: 1.0,
                slow_burn: 1.0,
                ..SloObjective::default()
            }],
        }),
        degrade: Some(DegradeConfig::default()),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config)?;
    cluster.register(
        &Benchmark::FileProcessing.workflow(),
        ClientConfig::ClosedLoop { invocations: 2 },
    )?;
    cluster.run_until_idle();

    // `trace()` borrows the buffer without consuming it, so the cluster
    // stays usable for names and reports below.
    let events = cluster.trace();
    println!(
        "File Processing under WorkerSP + FaaStore ({} trace events):\n",
        events.len()
    );
    print!("{}", render_timeline(events));
    println!("\n(second invocation reuses warm containers — compare the start lines)");

    // The same stream, assembled into causal span trees.
    let forest = build_forest(events);
    forest.validate().expect("span forest well-formed");
    let tree = &forest.trees[0];
    println!(
        "\nspan tree of the first invocation ({} spans, e2e {:.1} ms):",
        tree.spans.len(),
        tree.e2e().as_millis_f64()
    );
    for (idx, span) in tree.spans.iter().enumerate() {
        let parent = |&i: &usize| tree.spans[i].parent.map(|p| p as usize);
        let depth = std::iter::successors(Some(idx), parent).count() - 1;
        let marker = match span.kind {
            SpanKind::Invocation => "inv ",
            SpanKind::Function => "fn  ",
            SpanKind::Provision { .. } => "prov",
            SpanKind::Exec { .. } => "exec",
            SpanKind::Transfer { .. } => "xfer",
        };
        println!(
            "  {:indent$}{marker} {:<24} {:>8.2} ms",
            "",
            tree.label(idx),
            span.duration().as_millis_f64(),
            indent = depth * 2
        );
    }

    // The observed critical path: the chain of segments that actually
    // gated completion. Its segments sum exactly to the e2e above.
    let paths = extract(&forest);
    let path = &paths[0];
    path.validate(tree).expect("chain sums to the makespan");
    println!(
        "\nobserved critical path of the first invocation ({:.1} ms total):",
        path.total().as_millis_f64()
    );
    for seg in &path.segments {
        let label = match seg.span {
            Some(idx) => tree.label(idx).to_string(),
            None => "-".to_string(),
        };
        println!(
            "  {:<9} {:<24} {:>8.2} ms",
            seg.phase.label(),
            label,
            seg.duration().as_millis_f64()
        );
    }

    // Where did the milliseconds go?
    let rows = attribute(&forest);
    println!("\nphase attribution (mean ms per invocation):");
    print!(
        "{}",
        render_attribution_table(&[("WorkerSP".to_string(), rows)], |wf| {
            cluster
                .workflow_name(wf)
                .expect("registered workflow")
                .to_string()
        })
    );

    // What could an optimization buy, at most?
    let breakdown = aggregate(&paths);
    let bounds = what_if(&breakdown[0]);
    let n = bounds.invocations.max(1) as f64;
    println!(
        "\nwhat-if bounds (mean over {} invocations, observed {:.1} ms):",
        bounds.invocations,
        bounds.observed_ms / n
    );
    for b in &bounds.bounds {
        println!(
            "  {:<9} -> at best {:>8.1} ms ({:.2}x speedup)",
            b.scenario.label(),
            b.bound_ms / n,
            b.speedup
        );
    }
    println!("(bounds are Amdahl limits: removing a phase can never beat exec-only)");
    Ok(())
}
