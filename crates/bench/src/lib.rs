//! # faasflow-bench
//!
//! The benchmark harness of the FaaSFlow reproduction. The `repro` binary
//! regenerates every table and figure of the paper's evaluation (§5); this
//! library holds the shared experiment plumbing:
//!
//! * [`run_one`] — build a cluster, register one workflow, warm it up,
//!   measure, and return the steady-state report.
//! * [`run_colocated_with_distribution`] — all eight benchmarks
//!   co-running in one cluster (§5.5), with their placement distribution.
//! * [`parallel_map`] — fan independent simulation cells (bandwidth ×
//!   rate grids) across OS threads; each cell is its own deterministic
//!   simulation, so parallelism cannot perturb results.
//! * formatting helpers for the paper-style tables the binary prints.

use faasflow_core::{ClientConfig, Cluster, ClusterConfig, RunReport, WorkflowReport};
use faasflow_wdl::Workflow;
use faasflow_workloads::Benchmark;

/// How one experiment cell drives its workflow.
#[derive(Debug, Clone, Copy)]
pub struct Drive {
    /// Warm-up invocations excluded from the statistics (closed loop).
    pub warmup: u32,
    /// Measured invocations.
    pub measure: u32,
    /// `Some(rate)` switches the measured phase to an open loop at
    /// `rate` invocations/minute (the §5.4 methodology); `None` stays
    /// closed-loop.
    pub open_loop_per_min: Option<f64>,
}

impl Drive {
    /// Closed-loop: `warmup` unmeasured + `measure` measured invocations.
    pub fn closed(warmup: u32, measure: u32) -> Self {
        Drive {
            warmup,
            measure,
            open_loop_per_min: None,
        }
    }

    /// Open-loop at `per_min` invocations/minute after a closed warm-up.
    pub fn open(warmup: u32, measure: u32, per_min: f64) -> Self {
        Drive {
            warmup,
            measure,
            open_loop_per_min: Some(per_min),
        }
    }
}

/// Runs one workflow through one cluster configuration and returns its
/// steady-state report (warm-up excluded) plus the whole-cluster report.
///
/// # Panics
///
/// Panics if the configuration or workflow is invalid — experiment cells
/// are fixed inputs, so failing loudly is correct.
pub fn run_one(
    config: ClusterConfig,
    workflow: &Workflow,
    drive: Drive,
) -> (WorkflowReport, RunReport) {
    let mut cluster = Cluster::new(config).expect("valid experiment configuration");
    let id = cluster
        .register(
            workflow,
            ClientConfig::ClosedLoop {
                invocations: drive.warmup.max(1),
            },
        )
        .expect("valid workflow");
    cluster.run_until_idle();
    cluster.reset_metrics();
    match drive.open_loop_per_min {
        None => cluster.extend_client(id, drive.measure),
        Some(per_min) => cluster.switch_to_open_loop(id, per_min, drive.measure),
    }
    cluster.run_until_idle();
    let report = cluster.report();
    let wf_report = report.workflow(&workflow.name).clone();
    (wf_report, report)
}

/// Runs all eight benchmarks co-located in one cluster (§5.5), each with
/// its own closed-loop client, and returns the full report with each
/// benchmark's placement distribution (Figure 15).
pub fn run_colocated_with_distribution(
    config: ClusterConfig,
    warmup: u32,
    measure: u32,
) -> (
    RunReport,
    Vec<(Benchmark, Vec<faasflow_core::DistributionRow>)>,
) {
    let mut cluster = Cluster::new(config).expect("valid experiment configuration");
    let mut ids = Vec::new();
    for b in Benchmark::ALL {
        let id = cluster
            .register(
                &b.workflow(),
                ClientConfig::ClosedLoop {
                    invocations: warmup.max(1),
                },
            )
            .expect("benchmarks are valid");
        ids.push((b, id));
    }
    cluster.run_until_idle();
    cluster.reset_metrics();
    for &(_, id) in &ids {
        cluster.extend_client(id, measure);
    }
    cluster.run_until_idle();
    let dist = ids
        .iter()
        .map(|&(b, id)| (b, cluster.distribution(id)))
        .collect();
    (cluster.report(), dist)
}

/// Maps `f` over `items` on up to `threads` OS threads, preserving order.
/// Each item is an independent simulation cell, so results are identical
/// to a sequential run regardless of thread count.
///
/// Work distribution is a lock-free atomic cursor: each worker
/// fetch-adds the next index to claim a cell, so there is no mutex to
/// contend on (or poison) between cells, and every result lands in its
/// input slot directly.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    assert!(threads > 0, "at least one thread required");
    let n = items.len();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // Each cell sits in its own slot; a worker claims the next index from
    // the cursor, then takes the cell. The per-slot lock is touched by
    // exactly one thread (the claimant), so it never contends — the only
    // shared write is the fetch-add.
    let input: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| std::sync::Mutex::new(Some(item)))
        .collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (input, cursor, f) = (&input, &cursor, &f);
        let handles: Vec<_> = (0..threads.min(n.max(1)))
            .map(|_| {
                scope.spawn(move || {
                    let mut results = Vec::new();
                    loop {
                        // Relaxed suffices: each index is claimed exactly
                        // once and the slot lock orders the item handoff.
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let item = input[idx]
                            .lock()
                            .expect("input slot poisoned")
                            .take()
                            .expect("each index claimed once");
                        results.push((idx, f(item)));
                    }
                    results
                })
            })
            .collect();
        for handle in handles {
            for (idx, r) in handle.join().expect("worker thread panicked") {
                slots[idx] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every cell computed"))
        .collect()
}

/// Formats a byte count as mebibytes with one decimal.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1048576.0)
}

/// Prints a separator line sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), 8, |x: i32| x * x);
        let expect: Vec<i32> = (0..100).map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_map_single_thread_matches() {
        let a = parallel_map(vec![1, 2, 3], 1, |x: i32| x + 1);
        let b = parallel_map(vec![1, 2, 3], 3, |x: i32| x + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_map_thread_count_is_unobservable() {
        // A cell whose value depends on its input alone; any cross-thread
        // interference or index mix-up changes the output.
        let cell = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let items: Vec<u64> = (0..257).collect();
        let one = parallel_map(items.clone(), 1, cell);
        let four = parallel_map(items.clone(), 4, cell);
        let eight = parallel_map(items, 8, cell);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn parallel_map_more_threads_than_items() {
        let out = parallel_map(vec![7, 11], 8, |x: i32| x * 2);
        assert_eq!(out, vec![14, 22]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(1048576), "1.0");
    }
}
