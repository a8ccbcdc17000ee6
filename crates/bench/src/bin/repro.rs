//! `repro` — regenerates every table and figure of the FaaSFlow paper's
//! evaluation (§5) on the simulated cluster.
//!
//! ```text
//! repro <experiment> [--quick] [--trace-out DIR]
//!
//! experiments:
//!   fig4        MasterSP scheduling overhead per benchmark        (§2.3)
//!   fig5        data movement: monolithic vs FaaS                 (§2.4)
//!   fig11       scheduling overhead: HyperFlow-serverless vs FaaSFlow (§5.2)
//!   table4      data-movement latencies and reduction             (§5.3)
//!   fig12       p99 vs rate for Gen & Vid at 25–100 MB/s          (§5.4)
//!   fig13       p99 at 50 MB/s, 6 inv/min, all benchmarks         (§5.4)
//!   fig14       co-location interference, solo vs co-run          (§5.5)
//!   fig15       grouping & scheduling distribution                (§5.5)
//!   fig16       graph-scheduler scalability, 10–200 nodes         (§5.6)
//!   components  engine overhead & cluster scaling                 (§5.7)
//!   ablations   design-choice ablations (DESIGN.md)
//!   chaos       fault-domain recovery, WorkerSP vs MasterSP       (§6)
//!   failover    engine crash + journaled recovery: MasterSP outage
//!               vs WorkerSP single-partition degradation
//!   overload    graceful degradation under an offered-load sweep:
//!               admission control, backpressure, hedged retries
//!   degrade     closed-loop SLO-driven degradation: burn-rate alerts
//!               throttle the offending workflow, sparing the innocent one
//!   placement   load- & locality-aware placement vs the legacy
//!               worker-0 tie-break: group skew, p99, remote bytes
//!   grayfail    gray failures: slow/stuck/flaky workers and an asymmetric
//!               link partition; MAD health detector off vs on, worker
//!               quarantine, false suspicion and zombie fencing
//!   trace       causal spans, resource series, phase attribution
//!               -> trace_*.json (Perfetto) + metrics_*.prom
//!   critpath    observed critical path per invocation: phase shares,
//!               what-if speedup bounds, MasterSP vs WorkerSP bottlenecks
//!   all         everything above in order (trace, critpath excluded)
//! ```
//!
//! `--trace-out DIR` redirects the `trace` artifacts (default: cwd).
//!
//! Absolute values are not expected to match the authors' hardware; the
//! *shape* — who wins, by what factor, where crossovers fall — is the
//! reproduction target. Paper values are printed alongside for comparison.

use std::time::Instant;

use faasflow_bench::{mb, parallel_map, rule, run_colocated_with_distribution, run_one, Drive};
use faasflow_core::{
    ClientConfig, Cluster, ClusterConfig, EngineCrash, EngineTarget, FaultPlan, JournalConfig,
    NetFault, NodeCrash, RunReport, ScheduleMode, StorageFault, StorageFaultKind,
};
use faasflow_scheduler::{
    ContentionSet, GraphScheduler, PlacementConfig, PlacementStrategy, RuntimeMetrics, WorkerInfo,
};
use faasflow_sim::SimDuration;
use faasflow_sim::{NodeId, SimRng};
use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};
use faasflow_workloads::{scientific, without_data, Benchmark};

/// (benchmark, MasterSP overhead ms) from Figure 4 — the paper reports the
/// averages 712 ms (scientific) and 181.3 ms (real-world).
const PAPER_FIG4_AVG: (f64, f64) = (712.0, 181.3);
/// Figure 11 FaaSFlow averages: 141.9 ms scientific, 51.4 ms real-world.
const PAPER_FIG11_AVG: (f64, f64) = (141.9, 51.4);
/// Table 4 rows: (HyperFlow-serverless s, FaaSFlow-FaaStore s, reduction %).
const PAPER_TABLE4: [(&str, f64, f64, &str); 8] = [
    ("Cyc", 204.2, 10.28, "95%"),
    ("Epi", 2.23, 0.69, "69%"),
    ("Gen", 29.26, 22.17, "24%"),
    ("Soy", 10.06, 9.53, "5.2%"),
    ("Vid", 4.02, 1.03, "74%"),
    ("IR", 0.20, 0.13, "35%"),
    ("FP", 1.29, 0.49, "62%"),
    ("WC", 1.46, 0.21, "70%"),
];

fn master_config() -> ClusterConfig {
    ClusterConfig {
        mode: ScheduleMode::MasterSp,
        faastore: false,
        ..ClusterConfig::default()
    }
}

fn faasflow_config() -> ClusterConfig {
    ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: true,
        ..ClusterConfig::default()
    }
}

/// WorkerSP without the hybrid store (plain FaaSFlow).
fn faasflow_nostore_config() -> ClusterConfig {
    ClusterConfig {
        mode: ScheduleMode::WorkerSp,
        faastore: false,
        ..ClusterConfig::default()
    }
}

struct Scale {
    /// Closed-loop measured invocations (paper: 1000).
    closed: u32,
    /// Open-loop measured invocations per cell (paper: 1000).
    open: u32,
    /// Co-location measured invocations per benchmark.
    colo: u32,
    /// Threads for independent cells.
    threads: usize,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Scale {
                closed: 40,
                open: 40,
                colo: 10,
                threads: 8,
            }
        } else {
            Scale {
                closed: 200,
                open: 150,
                colo: 25,
                threads: 8,
            }
        }
    }
}

/// Printed on a bad command line; the experiments are listed in the module docs.
const USAGE: &str = "usage: repro [EXPERIMENT] [--quick] [--trace-out DIR]";

/// The parsed command line; `experiment` is `all` when none is named.
#[derive(Debug, PartialEq)]
struct Args {
    experiment: String,
    quick: bool,
    trace_out: Option<String>,
}

/// Parses the arguments after the program name. An unknown `--flag`, a
/// `--trace-out` without a directory or a second experiment is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut quick = false;
    let mut trace_out = None;
    let mut experiment = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--quick" {
            quick = true;
        } else if let Some(dir) = arg.strip_prefix("--trace-out=") {
            trace_out = Some(dir.to_string());
        } else if arg == "--trace-out" {
            let dir = it.next().filter(|d| !d.starts_with("--"));
            trace_out = Some(dir.ok_or("`--trace-out` needs a directory")?.clone());
        } else if arg.starts_with("--") {
            return Err(format!("unknown option `{arg}`"));
        } else if experiment.replace(arg.clone()).is_some() {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    if trace_out.as_deref() == Some("") {
        return Err("`--trace-out` needs a directory".into());
    }
    Ok(Args {
        experiment: experiment.unwrap_or_else(|| "all".into()),
        quick,
        trace_out,
    })
}

/// Prints `msg` and the usage line to stderr and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|msg| usage_error(&msg));
    let scale = Scale::new(args.quick);
    let started = Instant::now();
    match args.experiment.as_str() {
        "fig4" => fig4(&scale),
        "fig5" => fig5(&scale),
        "fig11" => fig11(&scale),
        "table4" => table4(&scale),
        "fig12" => fig12(&scale),
        "fig13" => fig13(&scale),
        "fig14" => fig14(&scale),
        "fig15" => fig15(&scale),
        "fig16" => fig16(),
        "components" => components(&scale),
        "ablations" => ablations(&scale),
        "chaos" => chaos(&scale),
        "failover" => failover(&scale),
        "overload" => overload(&scale),
        "degrade" => degrade(&scale),
        "placement" => placement(&scale),
        "grayfail" => grayfail(&scale),
        "trace" => trace_scenario(&scale, args.trace_out.as_deref().unwrap_or(".")),
        "critpath" => critpath_scenario(&scale),
        "all" => {
            fig4(&scale);
            fig5(&scale);
            fig11(&scale);
            table4(&scale);
            fig12(&scale);
            fig13(&scale);
            fig14(&scale);
            fig15(&scale);
            fig16();
            components(&scale);
            ablations(&scale);
            chaos(&scale);
            failover(&scale);
            overload(&scale);
            degrade(&scale);
            placement(&scale);
            grayfail(&scale);
        }
        other => usage_error(&format!("unknown experiment `{other}`")),
    }
    eprintln!("[repro] done in {:.1}s", started.elapsed().as_secs_f64());
}

// ====================================================================
// Figure 4 — MasterSP scheduling overhead (§2.3)
// ====================================================================

fn fig4(scale: &Scale) {
    println!("\n=== Figure 4: scheduling overhead of HyperFlow-serverless (MasterSP) ===");
    println!("(input data packed in images: zero-byte edges; closed loop)");
    println!("{:<6} {:>16} {:>14}", "bench", "overhead (ms)", "e2e (ms)");
    rule(40);
    let rows = parallel_map(Benchmark::ALL.to_vec(), scale.threads, |b| {
        let wf = without_data(&b.workflow());
        let (r, _) = run_one(master_config(), &wf, Drive::closed(3, scale.closed));
        (b, r)
    });
    let mut sci = Vec::new();
    let mut real = Vec::new();
    for (b, r) in rows {
        println!(
            "{:<6} {:>16.1} {:>14.1}",
            b.short_name(),
            r.sched_overhead.mean,
            r.e2e.mean
        );
        if Benchmark::SCIENTIFIC.contains(&b) {
            sci.push(r.sched_overhead.mean);
        } else {
            real.push(r.sched_overhead.mean);
        }
    }
    rule(40);
    println!(
        "scientific avg: {:.1} ms (paper: {} ms)   real-world avg: {:.1} ms (paper: {} ms)",
        avg(&sci),
        PAPER_FIG4_AVG.0,
        avg(&real),
        PAPER_FIG4_AVG.1
    );
}

// ====================================================================
// Figure 5 — data movement, monolithic vs FaaS (§2.4)
// ====================================================================

fn fig5(scale: &Scale) {
    println!("\n=== Figure 5: data movement per invocation, monolithic vs FaaS ===");
    println!(
        "{:<6} {:>16} {:>14} {:>8} {:>16}",
        "bench", "monolithic (MB)", "FaaS (MB)", "ratio", "wire traffic(MB)"
    );
    rule(66);
    let measure = scale.closed.min(30);
    let rows = parallel_map(Benchmark::ALL.to_vec(), scale.threads, move |b| {
        let (r, _) = run_one(master_config(), &b.workflow(), Drive::closed(2, measure));
        (b, r)
    });
    let parser = DagParser::default();
    for (b, r) in rows {
        let mono = b.monolithic_bytes() as f64 / 1048576.0;
        // The paper counts the data functions must fetch (the data-shipping
        // volume); wire traffic additionally includes the store writes.
        let dag = parser.parse(&b.workflow()).expect("benchmark parses");
        let faas = dag.total_data_bytes() as f64 / 1048576.0;
        let wire = r.bytes_moved.mean / 1048576.0;
        println!(
            "{:<6} {:>16.2} {:>14.2} {:>7.1}x {:>16.2}",
            b.short_name(),
            mono,
            faas,
            faas / mono,
            wire
        );
    }
    rule(66);
    println!("paper anchors: Vid 4.23 -> 96.82 MB (22.9x), Cyc 23.95 -> 1182.3 MB (39.5x)");
}

// ====================================================================
// Figure 11 — scheduling overhead, both systems (§5.2)
// ====================================================================

fn fig11(scale: &Scale) {
    println!("\n=== Figure 11: scheduling overhead, HyperFlow-serverless vs FaaSFlow ===");
    println!(
        "{:<6} {:>14} {:>12} {:>11}",
        "bench", "MasterSP (ms)", "FaaSFlow", "reduction"
    );
    rule(48);
    let cells: Vec<(Benchmark, bool)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| [(b, false), (b, true)])
        .collect();
    let n = scale.closed;
    let rows = parallel_map(cells, scale.threads, move |(b, worker_sp)| {
        let wf = without_data(&b.workflow());
        let config = if worker_sp {
            faasflow_config()
        } else {
            master_config()
        };
        let (r, _) = run_one(config, &wf, Drive::closed(3, n));
        r.sched_overhead.mean
    });
    let mut sci = (Vec::new(), Vec::new());
    let mut real = (Vec::new(), Vec::new());
    for (i, &b) in Benchmark::ALL.iter().enumerate() {
        let master = rows[2 * i];
        let fflow = rows[2 * i + 1];
        println!(
            "{:<6} {:>14.1} {:>12.1} {:>10.1}%",
            b.short_name(),
            master,
            fflow,
            100.0 * (1.0 - fflow / master)
        );
        if Benchmark::SCIENTIFIC.contains(&b) {
            sci.0.push(master);
            sci.1.push(fflow);
        } else {
            real.0.push(master);
            real.1.push(fflow);
        }
    }
    rule(48);
    println!(
        "scientific: {:.1} -> {:.1} ms (paper: 712 -> {});  real-world: {:.1} -> {:.1} ms (paper: 181.3 -> {})",
        avg(&sci.0),
        avg(&sci.1),
        PAPER_FIG11_AVG.0,
        avg(&real.0),
        avg(&real.1),
        PAPER_FIG11_AVG.1
    );
    let overall_red = 100.0 * (1.0 - (avg(&sci.1) + avg(&real.1)) / (avg(&sci.0) + avg(&real.0)));
    println!("overall average reduction: {overall_red:.1}% (paper: 74.6%)");
}

// ====================================================================
// Table 4 — data-movement latencies (§5.3)
// ====================================================================

fn table4(scale: &Scale) {
    println!("\n=== Table 4: overall data-movement latency of all edges ===");
    println!(
        "{:<6} {:>13} {:>13} {:>9} | {:>9} {:>9} {:>7}",
        "bench", "HyperFlow(s)", "FaaSFlow(s)", "reduced", "paper-HF", "paper-FF", "paper-r"
    );
    rule(76);
    let measure = scale.closed.min(30);
    let cells: Vec<(Benchmark, bool)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| [(b, false), (b, true)])
        .collect();
    let rows = parallel_map(cells, scale.threads, move |(b, worker_sp)| {
        let config = if worker_sp {
            faasflow_config()
        } else {
            master_config()
        };
        let (r, _) = run_one(config, &b.workflow(), Drive::closed(2, measure));
        r.transfer_total.mean / 1000.0
    });
    for (i, &b) in Benchmark::ALL.iter().enumerate() {
        let hf = rows[2 * i];
        let ff = rows[2 * i + 1];
        let paper = PAPER_TABLE4[i];
        println!(
            "{:<6} {:>13.2} {:>13.2} {:>8.1}% | {:>9.2} {:>9.2} {:>7}",
            b.short_name(),
            hf,
            ff,
            100.0 * (1.0 - ff / hf),
            paper.1,
            paper.2,
            paper.3
        );
    }
}

// ====================================================================
// Figure 12 — p99 vs throughput under bandwidth sweeps (§5.4)
// ====================================================================

fn fig12(scale: &Scale) {
    println!("\n=== Figure 12: p99 latency under different rates and storage bandwidth ===");
    println!("(open loop; 60 s timeout recorded as 60000 ms; '-' = no completions)");
    let bandwidths = [25e6, 50e6, 75e6, 100e6];
    let rates = [2.0, 4.0, 6.0, 8.0, 10.0];
    for bench in [Benchmark::Genome, Benchmark::VideoFfmpeg] {
        for worker_sp in [false, true] {
            let system = if worker_sp {
                "FaaSFlow-FaaStore"
            } else {
                "HyperFlow-serverless"
            };
            println!("\n--- {} / {} ---", bench.short_name(), system);
            print!("{:<10}", "bw \\ rate");
            for r in rates {
                print!("{r:>9.0}/min");
            }
            println!();
            rule(10 + rates.len() * 12);
            let cells: Vec<(f64, f64)> = bandwidths
                .iter()
                .flat_map(|&bw| rates.iter().map(move |&r| (bw, r)))
                .collect();
            let n = scale.open;
            let rows = parallel_map(cells, scale.threads, move |(bw, rate)| {
                let mut config = if worker_sp {
                    faasflow_config()
                } else {
                    master_config()
                };
                config.storage_bandwidth = bw;
                let (r, _) = run_one(config, &bench.workflow(), Drive::open(2, n, rate));
                r.e2e.p99
            });
            for (bi, &bw) in bandwidths.iter().enumerate() {
                print!("{:<10}", format!("{:.0}MB/s", bw / 1e6));
                for ri in 0..rates.len() {
                    let p99 = rows[bi * rates.len() + ri];
                    if p99 > 0.0 {
                        print!("{:>11.0}ms", p99);
                    } else {
                        print!("{:>13}", "-");
                    }
                }
                println!();
            }
        }
    }
    println!("\npaper shape: HyperFlow-serverless p99 blows up at low bandwidth/high rate;");
    println!("FaaSFlow-FaaStore at 25-50 MB/s tracks HyperFlow-serverless at 75-100 MB/s");
    println!("(1.5x-4x bandwidth-utilisation multiplier).");
}

// ====================================================================
// Figure 13 — p99 at 50 MB/s, 6 invocations/minute (§5.4)
// ====================================================================

fn fig13(scale: &Scale) {
    println!("\n=== Figure 13: p99 e2e latency at 50 MB/s, 6 invocations/min ===");
    println!(
        "{:<6} {:>18} {:>20} {:>10}",
        "bench", "HyperFlow p99(ms)", "FaaSFlow-FaaStore", "timeouts"
    );
    rule(60);
    let cells: Vec<(Benchmark, bool)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| [(b, false), (b, true)])
        .collect();
    let n = scale.open;
    let rows = parallel_map(cells, scale.threads, move |(b, worker_sp)| {
        let config = if worker_sp {
            faasflow_config()
        } else {
            master_config()
        };
        let (r, _) = run_one(config, &b.workflow(), Drive::open(2, n, 6.0));
        (r.e2e.p99, r.timeouts)
    });
    for (i, &b) in Benchmark::ALL.iter().enumerate() {
        let (hf, hf_to) = rows[2 * i];
        let (ff, ff_to) = rows[2 * i + 1];
        println!(
            "{:<6} {:>18.0} {:>20.0} {:>6}/{:<4}",
            b.short_name(),
            hf,
            ff,
            hf_to,
            ff_to
        );
    }
    rule(60);
    println!("paper shape: Cyc/Gen hit the 60 s timeout under HyperFlow-serverless;");
    println!("FaaSFlow-FaaStore reduces p99 by 23.3% avg (75.2% for Cyc & Gen).");
}

// ====================================================================
// Figure 14 — co-location interference (§5.5)
// ====================================================================

fn fig14(scale: &Scale) {
    println!("\n=== Figure 14: co-location interference (solo vs 8 benchmarks co-running) ===");
    let solo_n = scale.colo;
    // Solo runs (both systems), in parallel.
    let cells: Vec<(Benchmark, bool)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| [(b, false), (b, true)])
        .collect();
    let solo = parallel_map(cells, scale.threads, move |(b, worker_sp)| {
        let config = if worker_sp {
            faasflow_config()
        } else {
            master_config()
        };
        let (r, _) = run_one(config, &b.workflow(), Drive::closed(2, solo_n));
        r.e2e.mean
    });
    // Co-located runs.
    let (hf_co, _) = run_colocated_with_distribution(master_config(), 2, scale.colo);
    let (ff_co, _) = run_colocated_with_distribution(faasflow_config(), 2, scale.colo);
    println!(
        "{:<6} {:>24} {:>28}",
        "bench", "HyperFlow solo->co (ms)", "FaaSFlow-FaaStore solo->co"
    );
    rule(64);
    for (i, &b) in Benchmark::ALL.iter().enumerate() {
        let hf_solo = solo[2 * i];
        let ff_solo = solo[2 * i + 1];
        let hf = hf_co.workflow(b.short_name()).e2e.mean;
        let ff = ff_co.workflow(b.short_name()).e2e.mean;
        println!(
            "{:<6} {:>9.0} -> {:>6.0} ({:>+5.1}%) {:>9.0} -> {:>6.0} ({:>+5.1}%)",
            b.short_name(),
            hf_solo,
            hf,
            100.0 * (hf / hf_solo - 1.0),
            ff_solo,
            ff,
            100.0 * (ff / ff_solo - 1.0),
        );
    }
    rule(64);
    println!("paper: Cyc/Gen/Vid/WC degrade 50.3/48.5/84.4/66.2% under HyperFlow-serverless;");
    println!("FaaSFlow-FaaStore alleviates the degradation.");
}

// ====================================================================
// Figure 15 — grouping & scheduling distribution (§5.5)
// ====================================================================

fn fig15(scale: &Scale) {
    println!("\n=== Figure 15: scheduling result and distribution (co-located run) ===");
    let (_, dist) = run_colocated_with_distribution(faasflow_config(), 2, scale.colo.min(5));
    println!(
        "{:<6} {:>8} {:>8}   placement (worker: functions)",
        "bench", "workers", "groups"
    );
    rule(70);
    for (b, rows) in dist {
        let total_groups: usize = rows.iter().map(|r| r.groups).sum();
        let spread: Vec<String> = rows
            .iter()
            .map(|r| format!("w{}:{}", r.worker.index(), r.functions))
            .collect();
        println!(
            "{:<6} {:>8} {:>8}   {}",
            b.short_name(),
            rows.len(),
            total_groups,
            spread.join(" ")
        );
    }
    rule(70);
    println!("paper shape: 50-node scientific workflows distribute across all 7 workers;");
    println!("~10-function applications group onto one worker.");
}

// ====================================================================
// Figure 16 — graph scheduler scalability (§5.6)
// ====================================================================

fn fig16() {
    println!("\n=== Figure 16: Graph Scheduler cost vs workflow size (Genome) ===");
    println!(
        "{:<8} {:>14} {:>16} {:>14}",
        "nodes", "time (ms)", "per-run memory", "groups"
    );
    rule(58);
    let parser = DagParser::default();
    let scheduler = GraphScheduler::default();
    // Capacity sized so even the 200-node instance is placeable.
    let workers: Vec<WorkerInfo> = (0..7)
        .map(|i| WorkerInfo::new(NodeId::new(i + 1), 40))
        .collect();
    for nodes in [10usize, 25, 50, 100, 200] {
        let wf = scientific::genome(nodes);
        let dag = parser.parse(&wf).expect("genome parses");
        let metrics = RuntimeMetrics::initial(&dag);
        let reps = 20;
        let mut rng = SimRng::seed_from(7);
        let start = Instant::now();
        let mut assignment = None;
        for _ in 0..reps {
            assignment = Some(
                scheduler
                    .partition(
                        &dag,
                        &workers,
                        &metrics,
                        &ContentionSet::default(),
                        u64::MAX,
                        &mut rng,
                    )
                    .expect("partition succeeds"),
            );
        }
        let ms = start.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        let a = assignment.expect("ran at least once");
        println!(
            "{:<8} {:>14.3} {:>13} KB {:>14}",
            nodes,
            ms,
            (a.approx_memory_bytes() + dag_footprint(&dag)) / 1024,
            a.groups.len()
        );
    }
    rule(58);
    println!("paper shape: time grows ~O(n^2) with node count; memory stays modest");
    println!("(the paper reports 24.43 MB including all component overhead).");
}

fn dag_footprint(dag: &faasflow_wdl::WorkflowDag) -> usize {
    dag.node_count() * std::mem::size_of::<faasflow_wdl::DagNode>()
        + std::mem::size_of_val(dag.edges())
        + std::mem::size_of_val(dag.data_edges())
}

// ====================================================================
// §5.7 — component overhead
// ====================================================================

fn components(scale: &Scale) {
    println!("\n=== Section 5.7: FaaSFlow component overhead ===");
    println!("cluster scaling: Word Count closed-loop on growing clusters");
    println!(
        "{:<9} {:>12} {:>16} {:>16} {:>14}",
        "workers", "e2e (ms)", "master busy %", "live states", "cold starts"
    );
    rule(72);
    let n = scale.closed.min(60);
    let rows = parallel_map(vec![1u32, 7, 25, 50, 100], scale.threads, move |workers| {
        let config = ClusterConfig {
            workers,
            ..faasflow_config()
        };
        let (r, full) = run_one(
            config,
            &Benchmark::WordCount.workflow(),
            Drive::closed(2, n),
        );
        (workers, r, full)
    });
    for (workers, r, full) in rows {
        println!(
            "{:<9} {:>12.1} {:>15.2}% {:>16} {:>14}",
            workers,
            r.e2e.mean,
            full.master_busy_fraction * 100.0,
            full.live_invocation_states,
            full.cold_starts
        );
    }
    rule(72);
    println!("paper: per-worker engine costs ~0.12 core / 47 MB; usage scales linearly");
    println!("with node count and per-invocation state is recycled (live states -> 0).");

    // Per-worker utilisation on the default 7-worker cluster, plus the
    // §4.3.2 MicroVM reclamation variant (no cgroup hot-unplug).
    println!("\nper-worker utilisation (Genome, closed loop) by reclamation mode:");
    println!(
        "{:<14} {:>14} {:>13} {:>14} {:>13}",
        "mode", "cpu mean", "cpu peak", "mem mean", "mem peak"
    );
    rule(72);
    for (label, mode) in [
        ("cgroup-limit", faasflow_core::ReclamationMode::CgroupLimit),
        ("microvm-pool", faasflow_core::ReclamationMode::MicroVm),
    ] {
        let config = ClusterConfig {
            reclamation: mode,
            ..faasflow_config()
        };
        let mut cluster = faasflow_core::Cluster::new(config).expect("valid configuration");
        cluster
            .register(
                &Benchmark::Genome.workflow(),
                faasflow_core::ClientConfig::ClosedLoop { invocations: 30 },
            )
            .expect("registers");
        cluster.run_until_idle();
        let util = cluster.utilization();
        let n = util.len() as f64;
        let cpu_mean: f64 = util.iter().map(|u| u.cpu_mean_cores).sum::<f64>() / n;
        let cpu_peak = util.iter().map(|u| u.cpu_peak_cores).fold(0.0, f64::max);
        let mem_mean: f64 = util.iter().map(|u| u.mem_mean_bytes).sum::<f64>() / n;
        let mem_peak = util.iter().map(|u| u.mem_peak_bytes).fold(0.0, f64::max);
        println!(
            "{:<14} {:>8.2} cores {:>7.0} cores {:>11.1} MB {:>10.1} MB",
            label,
            cpu_mean,
            cpu_peak,
            mem_mean / 1048576.0,
            mem_peak / 1048576.0
        );
    }
    println!("(MicroVM sandboxes keep provisioned memory resident: same quota, higher RSS)");
}

// ====================================================================
// Ablations (DESIGN.md)
// ====================================================================

fn ablations(scale: &Scale) {
    println!("\n=== Ablation A1: FaaStore on/off under WorkerSP (transfer latency, s) ===");
    let measure = scale.colo;
    let cells: Vec<(Benchmark, bool)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| [(b, false), (b, true)])
        .collect();
    let rows = parallel_map(cells, scale.threads, move |(b, store)| {
        let config = if store {
            faasflow_config()
        } else {
            faasflow_nostore_config()
        };
        let (r, _) = run_one(config, &b.workflow(), Drive::closed(2, measure));
        r.transfer_total.mean / 1000.0
    });
    println!(
        "{:<6} {:>16} {:>16} {:>10}",
        "bench", "WorkerSP-only", "with FaaStore", "saved"
    );
    rule(54);
    for (i, &b) in Benchmark::ALL.iter().enumerate() {
        let off = rows[2 * i];
        let on = rows[2 * i + 1];
        println!(
            "{:<6} {:>16.2} {:>16.2} {:>9.1}%",
            b.short_name(),
            off,
            on,
            100.0 * (1.0 - on / off)
        );
    }

    println!("\n=== Ablation A2: bin-packing strategy (co-located e2e, ms) ===");
    let mk = |placement| {
        let config = ClusterConfig {
            placement,
            ..faasflow_config()
        };
        run_colocated_with_distribution(config, 2, scale.colo.min(10)).0
    };
    let worst = mk(PlacementStrategy::WorstFit);
    let best = mk(PlacementStrategy::BestFit);
    println!("{:<6} {:>14} {:>14}", "bench", "worst-fit", "best-fit");
    rule(40);
    for b in Benchmark::ALL {
        println!(
            "{:<6} {:>14.0} {:>14.0}",
            b.short_name(),
            worst.workflow(b.short_name()).e2e.mean,
            best.workflow(b.short_name()).e2e.mean
        );
    }
    println!("(worst-fit spreads load; best-fit packs and concentrates contention)");

    println!("\n=== Ablation A3: reclamation reserve μ sweep (Vid locality) ===");
    println!(
        "{:<10} {:>14} {:>14}",
        "μ (MB)", "local bytes %", "transfer (s)"
    );
    rule(42);
    let rows = parallel_map(vec![0u64, 16, 32, 48, 64], scale.threads, move |mu_mb| {
        let config = ClusterConfig {
            mu: mu_mb << 20,
            ..faasflow_config()
        };
        let (r, _) = run_one(
            config,
            &Benchmark::VideoFfmpeg.workflow(),
            Drive::closed(2, measure),
        );
        let local = 100.0 * r.local_bytes as f64 / (r.local_bytes + r.remote_bytes).max(1) as f64;
        (mu_mb, local, r.transfer_total.mean / 1000.0)
    });
    for (mu_mb, local, transfer) in rows {
        println!("{:<10} {:>13.1}% {:>14.2}", mu_mb, local, transfer);
    }
    println!("(a larger safety reserve shrinks Eq. (1)'s quota: less locality, more traffic)");

    println!("\n=== Ablation A4: contention pairs cont(G) (§4.1.3) ===");
    // Declare FP's two CPU-heavy stages conflicting: the scheduler must
    // keep them apart, trading data locality for interference isolation.
    let wf = Benchmark::FileProcessing.workflow();
    let dag = DagParser::default().parse(&wf).expect("parses");
    let find = |name: &str| {
        dag.nodes()
            .iter()
            .find(|n| n.name == name)
            .expect("stage exists")
            .id
    };
    let mut contention = faasflow_scheduler::ContentionSet::new();
    contention.declare(find("convert_html"), find("detect_sentiment"));
    let run_with = |cont: faasflow_scheduler::ContentionSet| {
        let mut cluster =
            faasflow_core::Cluster::new(faasflow_config()).expect("valid configuration");
        let id = cluster
            .register_with_contention(
                &wf,
                faasflow_core::ClientConfig::ClosedLoop { invocations: 30 },
                cont,
            )
            .expect("registers");
        cluster.run_until_idle();
        let workers = cluster.distribution(id).len();
        let report = cluster.report();
        let w = report.workflow("FP");
        (
            workers,
            w.e2e.mean,
            100.0 * w.local_bytes as f64 / (w.local_bytes + w.remote_bytes).max(1) as f64,
        )
    };
    let (w0, e0, l0) = run_with(faasflow_scheduler::ContentionSet::new());
    let (w1, e1, l1) = run_with(contention);
    println!(
        "{:<22} {:>8} {:>10} {:>8}",
        "config", "workers", "e2e (ms)", "local%"
    );
    rule(52);
    println!(
        "{:<22} {:>8} {:>10.1} {:>7.1}%",
        "no contention", w0, e0, l0
    );
    println!(
        "{:<22} {:>8} {:>10.1} {:>7.1}%",
        "html <-> sentiment", w1, e1, l1
    );
    println!("(conflicting functions are never co-grouped; locality drops accordingly)");
}

// ====================================================================
// Chaos — fault-domain recovery (§6's availability argument)
// ====================================================================

/// The chaos schedule: a mid-run worker crash (with restart), a remote-
/// storage brownout window, and a degraded link — all deterministic.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        node_crashes: vec![NodeCrash {
            worker: 0,
            at: SimDuration::from_secs(3),
            restart_after: Some(SimDuration::from_secs(4)),
        }],
        storage_faults: vec![StorageFault {
            at: SimDuration::from_secs(5),
            duration: SimDuration::from_secs(6),
            kind: StorageFaultKind::Brownout { slowdown: 6.0 },
        }],
        net_faults: vec![NetFault {
            worker: 1,
            at: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(6),
            loss: 0.3,
            latency_factor: 2.0,
            bandwidth_factor: 0.5,
        }],
        ..FaultPlan::default()
    }
}

fn chaos(scale: &Scale) {
    println!("\n=== Chaos: fault-domain recovery, WorkerSP vs MasterSP ===");
    println!("(worker 0 crashes at t=3s, restarts at t=7s; storage brownout 6x");
    println!(" over t=5-11s; worker 1 link 30% loss over t=2-8s; Word Count)");
    let n = scale.closed.min(60);
    // Faults are anchored to simulated t=0, so each mode drives one fresh
    // cluster end to end — no warm-up phase shifting the schedule.
    let run = |config: ClusterConfig| {
        let mut cluster = Cluster::new(ClusterConfig {
            fault: chaos_plan(),
            ..config
        })
        .expect("valid experiment configuration");
        cluster
            .register(
                &Benchmark::WordCount.workflow(),
                ClientConfig::ClosedLoop { invocations: n },
            )
            .expect("registers");
        cluster.run_until_idle();
        cluster.report()
    };
    let master = run(master_config());
    let worker = run(faasflow_config());
    println!(
        "{:<26} {:>16} {:>16}",
        "metric", "HyperFlow(MSP)", "FaaSFlow(WSP)"
    );
    rule(60);
    let mrow = |label: &str, m: u64, w: u64| println!("{label:<26} {m:>16} {w:>16}");
    let m = master.workflow("WC");
    let w = worker.workflow("WC");
    mrow("invocations sent", m.sent, w.sent);
    mrow("completed", m.completed, w.completed);
    mrow("dead-lettered", m.dead_lettered, w.dead_lettered);
    mrow("timeouts", m.timeouts, w.timeouts);
    println!(
        "{:<26} {:>16.0} {:>16.0}",
        "e2e mean (ms)", m.e2e.mean, w.e2e.mean
    );
    println!(
        "{:<26} {:>16.0} {:>16.0}",
        "e2e p99 (ms)", m.e2e.p99, w.e2e.p99
    );
    let mf = master.faults;
    let wf = worker.faults;
    mrow("worker crashes", mf.worker_crashes, wf.worker_crashes);
    mrow("lease expiries", mf.lease_expiries, wf.lease_expiries);
    mrow(
        "crash re-dispatches",
        mf.crash_redispatches,
        wf.crash_redispatches,
    );
    mrow("flows killed", mf.flows_killed, wf.flows_killed);
    mrow(
        "storage backoff waits",
        mf.storage_backoff_waits,
        wf.storage_backoff_waits,
    );
    mrow(
        "message retransmits",
        mf.message_retransmits,
        wf.message_retransmits,
    );
    mrow(
        "live states (leak check)",
        master.live_invocation_states,
        worker.live_invocation_states,
    );
    rule(60);
    for (label, report) in [("MasterSP", &master), ("WorkerSP", &worker)] {
        assert_conserved(label, report);
    }
    println!("every invocation completed or dead-lettered; no state leaked.");
    println!("paper argument (§6): worker-side scheduling confines the blast radius —");
    println!("the central engine turns every fault into a control-plane event.");
}

// ====================================================================
// Failover — engine crash + journaled recovery
// ====================================================================

/// Crashes one scheduling engine mid-run in each mode and compares the
/// blast radius: under MasterSP the central engine *is* the control
/// plane, so its outage stalls every in-flight workflow until restart;
/// under WorkerSP only the partition scheduled by the crashed worker's
/// engine degrades while the other engines keep dispatching. Both modes
/// run with write-ahead journaling on, so the restarted engine replays
/// its log, reconciles with worker-reported progress under generation
/// fencing, and resumes — every invocation still reaches exactly one
/// terminal outcome.
fn failover(scale: &Scale) {
    use faasflow_sim::SimTime;

    // The four real-world benchmarks: light enough that the cluster is
    // unsaturated, so the snapshot isolates outage stall from queueing.
    const BENCHES: [Benchmark; 4] = [
        Benchmark::VideoFfmpeg,
        Benchmark::IllegalRecognizer,
        Benchmark::FileProcessing,
        Benchmark::WordCount,
    ];
    println!("\n=== Failover: engine crash + journaled recovery, WorkerSP vs MasterSP ===");
    println!("(scheduling engine crashes at t=5s, restarts at t=35s; journal on;");
    println!(" 4 workflows on 4 workers, open loop; completion snapshot at t=34s)");
    let n = scale.open.min(60);
    let rate = 12.0; // 0.2 inv/s per workflow keeps arrivals flowing through the outage.
    let horizon = SimTime::ZERO + SimDuration::from_secs(34);
    let run = |config: ClusterConfig, target: EngineTarget| {
        let mut cluster = Cluster::new(ClusterConfig {
            workers: 4,
            fault: FaultPlan {
                engine_crashes: vec![EngineCrash {
                    target,
                    at: SimDuration::from_secs(5),
                    restart_after: SimDuration::from_secs(30),
                }],
                ..FaultPlan::default()
            },
            journal: JournalConfig {
                enabled: true,
                ..JournalConfig::default()
            },
            ..config
        })
        .expect("valid experiment configuration");
        for b in BENCHES {
            cluster
                .register(
                    &b.workflow(),
                    ClientConfig::OpenLoop {
                        per_minute: rate,
                        invocations: n,
                    },
                )
                .expect("registers");
        }
        cluster.run_until(horizon);
        let snapshot = cluster.report();
        cluster.run_until_idle();
        (snapshot, cluster.report())
    };
    let (m_snap, master) = run(master_config(), EngineTarget::Master);
    let (w_snap, worker) = run(faasflow_config(), EngineTarget::Worker(1));
    println!(
        "{:<30} {:>16} {:>16}",
        "metric", "HyperFlow(MSP)", "FaaSFlow(WSP)"
    );
    rule(64);
    let mrow = |label: &str, m: u64, w: u64| println!("{label:<30} {m:>16} {w:>16}");
    let total = |report: &RunReport, pick: fn(&faasflow_core::WorkflowReport) -> u64| {
        report.workflows.values().map(pick).sum::<u64>()
    };
    let ms_completed = total(&m_snap, |wf| wf.completed);
    let ws_completed = total(&w_snap, |wf| wf.completed);
    mrow("completed by t=34s", ms_completed, ws_completed);
    mrow(
        "invocations sent",
        total(&master, |wf| wf.sent),
        total(&worker, |wf| wf.sent),
    );
    mrow(
        "completed (final)",
        total(&master, |wf| wf.completed),
        total(&worker, |wf| wf.completed),
    );
    mrow(
        "dead-lettered",
        total(&master, |wf| wf.dead_lettered),
        total(&worker, |wf| wf.dead_lettered),
    );
    let mr = &master.recovery;
    let wr = &worker.recovery;
    mrow("engine crashes", mr.engine_crashes, wr.engine_crashes);
    mrow(
        "engine recoveries",
        mr.engine_recoveries,
        wr.engine_recoveries,
    );
    mrow("journal appends", mr.journal_appends, wr.journal_appends);
    mrow(
        "journal records replayed",
        mr.journal_replayed_records,
        wr.journal_replayed_records,
    );
    mrow(
        "messages lost to outage",
        mr.messages_lost,
        wr.messages_lost,
    );
    mrow(
        "duplicates suppressed",
        mr.duplicate_suppressions,
        wr.duplicate_suppressions,
    );
    println!(
        "{:<30} {:>16.2} {:>16.2}",
        "engine downtime (s)", mr.engine_downtime_secs, wr.engine_downtime_secs
    );
    let mf = &master.faults;
    let wf = &worker.faults;
    mrow(
        "dead-letter: retries",
        mf.dead_letter_retries_exhausted,
        wf.dead_letter_retries_exhausted,
    );
    mrow(
        "dead-letter: crash orphan",
        mf.dead_letter_crash_orphan,
        wf.dead_letter_crash_orphan,
    );
    mrow(
        "dead-letter: journal lost",
        mf.dead_letter_journal_unrecoverable,
        wf.dead_letter_journal_unrecoverable,
    );
    rule(64);
    for (label, report) in [("MasterSP", &master), ("WorkerSP", &worker)] {
        assert_conserved(label, report);
        assert_eq!(
            report.recovery.engine_crashes, 1,
            "{label}: the injected crash fired"
        );
        assert_eq!(
            report.recovery.engine_recoveries, 1,
            "{label}: the engine restarted and recovered"
        );
    }
    assert!(
        ws_completed > ms_completed,
        "WorkerSP must complete strictly more than MasterSP by the snapshot \
         horizon (WSP {ws_completed} vs MSP {ms_completed}): a central-engine \
         outage stalls everything, a worker-engine outage degrades one partition"
    );
    println!("conservation held in both modes; outcomes recorded exactly once.");
    println!("a MasterSP engine outage freezes the whole cluster until restart;");
    println!("WorkerSP keeps the surviving partitions scheduling through it.");
}

// ====================================================================
// overload — graceful degradation under an offered-load sweep
// ====================================================================

/// Drives WordCount open-loop at rising offered loads with the full
/// overload-protection stack on — bounded admission queues with
/// deadline-aware shedding, pool-to-scheduler backpressure and hedged
/// execution — and tabulates how each schedule pattern degrades past
/// saturation. The claim under test: worker-side scheduling sheds less
/// and keeps its p99 bounded at the highest load, because pushback stays
/// local instead of funnelling through the central engine.
fn overload(scale: &Scale) {
    use faasflow_container::NodeCaps;
    use faasflow_core::{
        AdmissionConfig, BackpressureConfig, HedgeConfig, OverloadConfig, ShedPolicy,
    };

    const RATES: [f64; 4] = [6.0, 12.0, 24.0, 48.0];
    println!("\n=== Overload: graceful degradation, WorkerSP vs MasterSP ===");
    println!("(Video-FFmpeg, open loop; 4 workers x 4 cores; admission queue 16/node,");
    println!(" deadline-aware shedding, backpressure, 1540 ms exec hedges)");
    let n = scale.open;
    let protect = |base: ClusterConfig| ClusterConfig {
        workers: 4,
        node_caps: NodeCaps {
            cores: 4,
            ..NodeCaps::default()
        },
        qos_target: Some(SimDuration::from_secs(30)),
        overload: OverloadConfig {
            admission: Some(AdmissionConfig {
                queue_capacity: 16,
                policy: ShedPolicy::DeadlineAware,
            }),
            backpressure: Some(BackpressureConfig {
                queue_threshold: 10,
                defer_delay: SimDuration::from_millis(60),
                max_defers: 20,
            }),
            hedge: Some(HedgeConfig {
                delay: SimDuration::from_millis(1540),
                adaptive: None,
            }),
            ..OverloadConfig::default()
        },
        ..base
    };
    // Each (mode, rate) cell is an independent deterministic cluster.
    let cells: Vec<(usize, f64)> = (0..2)
        .flat_map(|mode| RATES.iter().map(move |&r| (mode, r)))
        .collect();
    let results = parallel_map(cells, scale.threads, |(mode, rate)| {
        let base = if mode == 0 {
            master_config()
        } else {
            faasflow_config()
        };
        run_one(
            protect(base),
            &Benchmark::VideoFfmpeg.workflow(),
            Drive::open(5, n, rate),
        )
    });
    let (master, worker) = results.split_at(RATES.len());

    let shed_pct = |wf: &faasflow_core::WorkflowReport| {
        if wf.sent == 0 {
            0.0
        } else {
            100.0 * wf.shed as f64 / wf.sent as f64
        }
    };
    println!(
        "{:<14} {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7}",
        "", "MSP p50", "MSP p99", "shed%", "WSP p50", "WSP p99", "shed%"
    );
    println!(
        "{:<14} {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7}",
        "rate (inv/min)", "(ms)", "(ms)", "", "(ms)", "(ms)", ""
    );
    rule(74);
    for (i, &rate) in RATES.iter().enumerate() {
        let (m, _) = &master[i];
        let (w, _) = &worker[i];
        println!(
            "{:<14.0} {:>9.0} {:>9.0} {:>7.1} | {:>9.0} {:>9.0} {:>7.1}",
            rate,
            m.e2e.median,
            m.e2e.p99,
            shed_pct(m),
            w.e2e.median,
            w.e2e.p99,
            shed_pct(w)
        );
    }
    rule(74);
    let lo = &RATES[0];
    let hi = &RATES[RATES.len() - 1];
    println!("overload actions at the lowest and highest load:");
    println!(
        "{:<24} {:>11} {:>11} | {:>11} {:>11}",
        "action",
        format!("MSP@{lo:.0}"),
        format!("WSP@{lo:.0}"),
        format!("MSP@{hi:.0}"),
        format!("WSP@{hi:.0}")
    );
    rule(74);
    let (_, m_lo) = &master[0];
    let (_, w_lo) = &worker[0];
    let (_, m_hi) = &master[RATES.len() - 1];
    let (_, w_hi) = &worker[RATES.len() - 1];
    let orow = |label: &str, pick: fn(&faasflow_core::OverloadReport) -> u64| {
        println!(
            "{label:<24} {:>11} {:>11} | {:>11} {:>11}",
            pick(&m_lo.overload),
            pick(&w_lo.overload),
            pick(&m_hi.overload),
            pick(&w_hi.overload)
        )
    };
    orow("invocations shed", |o| o.shed);
    orow("backpressure deferrals", |o| o.backpressure_deferrals);
    orow("master re-queues", |o| o.master_requeues);
    orow("hedges launched", |o| o.hedges_launched);
    orow("hedges resolved", |o| o.hedge_wins + o.hedge_losses);

    for (label, cells) in [("MasterSP", master), ("WorkerSP", worker)] {
        for (i, (_, report)) in cells.iter().enumerate() {
            assert_conserved(&format!("{label}@{} inv/min", RATES[i]), report);
            assert_eq!(
                report.overload.hedges_launched,
                report.overload.hedge_wins + report.overload.hedge_losses,
                "{label}@{} inv/min: unresolved hedges",
                RATES[i]
            );
        }
    }
    let (m_top, _) = &master[RATES.len() - 1];
    let (w_top, _) = &worker[RATES.len() - 1];
    assert!(
        shed_pct(w_top) <= shed_pct(m_top),
        "WorkerSP must shed no more than MasterSP at the highest load \
         (WSP {:.1}% vs MSP {:.1}%)",
        shed_pct(w_top),
        shed_pct(m_top)
    );
    assert!(
        w_top.e2e.p99 < 30_000.0,
        "WorkerSP p99 must stay inside the QoS target at the highest load \
         (got {:.0} ms)",
        w_top.e2e.p99
    );
    assert!(
        w_top.e2e.p99 < m_top.e2e.p99,
        "WorkerSP must hold the lower p99 tail at the highest load \
         (WSP {:.0} ms vs MSP {:.0} ms)",
        w_top.e2e.p99,
        m_top.e2e.p99
    );
    println!("degradation is graceful: the shed rate rises with offered load while");
    println!("p99 stays bounded; WorkerSP holds the lower tail past saturation because");
    println!("its pushback (deferrals) stays local instead of re-queueing centrally.");
}

// ====================================================================
// degrade — closed-loop SLO-driven degradation, offender vs innocent
// ====================================================================

/// Two workflows share one four-worker cluster. "Offender" is driven far
/// past its latency objective; "Innocent" trickles along well inside
/// capacity. Without the degradation controller the shared admission
/// queue sheds blindly, so the offender's overload bleeds into the
/// innocent tail. With it, the offender's burn-rate alert drives that
/// workflow Normal -> Throttled -> Shedding (per-workflow concurrency
/// cap, shed-priority demotion, hedge suspension), so the sheds
/// concentrate on the offender and the innocent p99 stays bounded.
fn degrade(scale: &Scale) {
    use faasflow_container::NodeCaps;
    use faasflow_core::{
        AdmissionConfig, DegradeConfig, HedgeConfig, OverloadConfig, ShedPolicy, SloConfig,
        SloObjective, WindowMode,
    };

    const OFFENDER_RATE: f64 = 150.0; // inv/min, far past capacity
    const INNOCENT_RATE: f64 = 20.0; // inv/min, comfortably inside it

    println!("\n=== Degrade: SLO burn-rate alerts steer per-workflow degradation ===");
    println!(
        "(Offender at {OFFENDER_RATE:.0} inv/min past its 8 s objective, Innocent at \
         {INNOCENT_RATE:.0} inv/min;"
    );
    println!(" 4 workers x 4 cores, shared deadline-aware admission; controller off vs on)");

    let offender = Workflow::steps(
        "Offender",
        Step::sequence(vec![
            Step::task("ingest", FunctionProfile::with_millis(120, 4 << 20)),
            Step::foreach("crunch", FunctionProfile::with_millis(900, 2 << 20), 8),
            Step::task("merge", FunctionProfile::with_millis(60, 0)),
        ]),
    );
    let innocent = Workflow::steps(
        "Innocent",
        Step::sequence(vec![
            Step::task("fetch", FunctionProfile::with_millis(60, 1 << 20)),
            Step::foreach("resize", FunctionProfile::with_millis(150, 1 << 20), 2),
            Step::task("publish", FunctionProfile::with_millis(30, 0)),
        ]),
    );
    // The objective names only the offender, so the controller tracks (and
    // degrades) only it; the innocent workflow is never throttled.
    let slo = SloConfig {
        objectives: vec![SloObjective {
            workflow: "Offender".to_string(),
            target: SimDuration::from_secs(8),
            error_budget: 0.1,
            fast_window: 8,
            slow_window: 16,
            fast_burn: 1.0,
            slow_burn: 1.0,
            window: WindowMode::Count,
        }],
    };
    let controller = DegradeConfig {
        initial_cap: 6,
        min_cap: 1,
        tighten: 0.5,
        recover_step: 1,
        cooldown: SimDuration::from_secs(3),
        shed_admit_fraction: 0.2,
        probe_fraction: 0.5,
        probe_successes: 4,
        suspend_hedges: true,
        demote_shed_priority: true,
    };

    let measure = scale.open;
    let cell = |degrade: Option<DegradeConfig>| {
        let config = ClusterConfig {
            mode: ScheduleMode::WorkerSp,
            faastore: true,
            workers: 4,
            node_caps: NodeCaps {
                cores: 4,
                ..NodeCaps::default()
            },
            qos_target: Some(SimDuration::from_secs(30)),
            overload: OverloadConfig {
                admission: Some(AdmissionConfig {
                    queue_capacity: 16,
                    policy: ShedPolicy::DeadlineAware,
                }),
                hedge: Some(HedgeConfig {
                    delay: SimDuration::from_millis(1540),
                    adaptive: None,
                }),
                ..OverloadConfig::default()
            },
            slo: Some(slo.clone()),
            degrade,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config).expect("valid config");
        let off_id = cluster
            .register(&offender, ClientConfig::ClosedLoop { invocations: 2 })
            .expect("registers");
        let inn_id = cluster
            .register(&innocent, ClientConfig::ClosedLoop { invocations: 2 })
            .expect("registers");
        cluster.run_until_idle();
        cluster.reset_metrics();
        cluster.switch_to_open_loop(off_id, OFFENDER_RATE, measure);
        cluster.switch_to_open_loop(inn_id, INNOCENT_RATE, (measure / 4).max(8));
        cluster.run_until_idle();
        cluster.report()
    };
    let results = parallel_map(vec![None, Some(controller)], scale.threads, cell);
    let (off_cell, on_cell) = (&results[0], &results[1]);

    let shed_pct = |wf: &faasflow_core::WorkflowReport| {
        if wf.sent == 0 {
            0.0
        } else {
            100.0 * wf.shed as f64 / wf.sent as f64
        }
    };
    println!(
        "{:<12} {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7}",
        "", "Off p50", "Off p99", "shed%", "Inn p50", "Inn p99", "shed%"
    );
    println!(
        "{:<12} {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7}",
        "controller", "(ms)", "(ms)", "", "(ms)", "(ms)", ""
    );
    rule(72);
    for (label, report) in [("off", off_cell), ("on", on_cell)] {
        let off_wf = report.workflow("Offender");
        let inn_wf = report.workflow("Innocent");
        println!(
            "{:<12} {:>9.0} {:>9.0} {:>7.1} | {:>9.0} {:>9.0} {:>7.1}",
            label,
            off_wf.e2e.median,
            off_wf.e2e.p99,
            shed_pct(off_wf),
            inn_wf.e2e.median,
            inn_wf.e2e.p99,
            shed_pct(inn_wf)
        );
    }
    rule(72);
    let d = &on_cell.degrade;
    let s = &on_cell.slo;
    println!(
        "alerts fired/resolved: {}/{}   controller: {} throttles, {} escalations, \
         {} tightenings",
        s.alerts_fired, s.alerts_resolved, d.throttles, d.escalations, d.tightenings
    );
    println!(
        "recovery: {} recoveries, {} probes ({} failed), {} restores, {} relapses",
        d.recoveries, d.probes, d.probe_failures, d.restores, d.relapses
    );
    println!(
        "actions while degraded: {} controller sheds, {} hedges suppressed, \
         {} demoted sheds",
        d.sheds, d.hedges_suppressed, d.demoted_sheds
    );

    for (label, report) in [("off", off_cell), ("on", on_cell)] {
        assert_conserved(&format!("controller {label}"), report);
        let shed_total: u64 = report.workflows.values().map(|wf| wf.shed).sum();
        assert_eq!(
            shed_total,
            report.overload.shed + report.degrade.sheds,
            "controller {label}: shed accounting split disagrees"
        );
    }
    assert!(
        s.alerts_fired > 0 && d.throttles > 0,
        "the offender must trip its burn-rate alert and be throttled \
         ({} alerts, {} throttles)",
        s.alerts_fired,
        d.throttles
    );
    assert!(
        d.sheds > 0,
        "the degraded offender must absorb controller sheds"
    );
    for snap in &d.workflows {
        assert_eq!(
            snap.workflow, "Offender",
            "only the offender may be tracked by the controller"
        );
    }
    let (off_on, inn_on) = (on_cell.workflow("Offender"), on_cell.workflow("Innocent"));
    let inn_off = off_cell.workflow("Innocent");
    assert!(
        shed_pct(off_on) > shed_pct(inn_on),
        "sheds must concentrate on the offender (offender {:.1}% vs innocent {:.1}%)",
        shed_pct(off_on),
        shed_pct(inn_on)
    );
    assert!(
        shed_pct(inn_on) < shed_pct(inn_off),
        "the controller must spare the innocent workflow's admissions \
         (on {:.1}% shed vs off {:.1}%)",
        shed_pct(inn_on),
        shed_pct(inn_off)
    );
    assert!(
        inn_on.completed > inn_off.completed,
        "innocent goodput must rise with the controller on \
         (on {} vs off {} completed)",
        inn_on.completed,
        inn_off.completed
    );
    assert!(
        inn_on.e2e.p99 < 30_000.0,
        "the innocent p99 must stay inside the QoS target \
         (got {:.0} ms)",
        inn_on.e2e.p99
    );
    println!(
        "isolation holds: sheds concentrate on the offender ({:.1}% vs {:.1}% innocent),",
        shed_pct(off_on),
        shed_pct(inn_on)
    );
    println!(
        "innocent sheds fall {:.1}% -> {:.1}% (goodput {} -> {} completions) and its",
        shed_pct(inn_off),
        shed_pct(inn_on),
        inn_off.completed,
        inn_on.completed
    );
    println!(
        "p99 stays inside the 30 s QoS target ({:.0} ms) while the offender is degraded",
        inn_on.e2e.p99
    );
}

// ====================================================================
// placement — load- & locality-aware placement vs the legacy tie-break
// ====================================================================

/// Many independent small pipelines co-run in one cluster. Legacy
/// bin-packing re-offers nominal capacity on every deploy and breaks
/// capacity ties toward worker 0, so every merged group lands there and
/// the cluster serializes on one node. The load-aware layer sees residual
/// capacity, spreads by least-loaded scoring, and rebalances on skew; the
/// table compares the per-worker group shares, the end-to-end tail, and
/// the bytes forced through the remote storage node.
fn placement(scale: &Scale) {
    use faasflow_container::NodeCaps;

    const WORKERS: usize = 4;
    const PIPELINES: usize = 8;
    const RATE_PER_MIN: f64 = 90.0;

    println!("\n=== Placement: load-aware vs legacy (worker-0 tie-break bias) ===");
    println!(
        "({PIPELINES} independent pipelines, open loop {RATE_PER_MIN:.0} inv/min each, \
         {WORKERS} workers)"
    );
    // Peak memory close to the provisioned size keeps each workflow's
    // FaaStore quota (Eq. 2) tight — roughly one invocation's edges — so
    // queueing-driven invocation overlap spills puts to remote storage.
    let tight = |exec_ms: u64, out: u64| {
        FunctionProfile::with_millis(exec_ms, out).peak_mem((256 - 32 - 1) << 20)
    };
    let pipeline = |i: usize| {
        Workflow::steps(
            format!("pipe{i}"),
            Step::sequence(vec![
                Step::task("ingest", tight(30, 1 << 20)),
                Step::foreach("crunch", tight(90, 1 << 20), 4),
                Step::task("publish", tight(25, 0)),
            ]),
        )
    };
    let measure = (scale.open / 4).max(8);
    let cell = |pcfg: PlacementConfig| {
        let config = ClusterConfig {
            mode: ScheduleMode::WorkerSp,
            faastore: true,
            workers: WORKERS as u32,
            node_caps: NodeCaps {
                cores: 4,
                ..NodeCaps::default()
            },
            placement_config: pcfg,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config).expect("valid config");
        let ids: Vec<_> = (0..PIPELINES)
            .map(|i| {
                cluster
                    .register(&pipeline(i), ClientConfig::ClosedLoop { invocations: 1 })
                    .expect("registers")
            })
            .collect();
        cluster.run_until_idle();
        cluster.reset_metrics();
        for &id in &ids {
            cluster.switch_to_open_loop(id, RATE_PER_MIN, measure);
        }
        cluster.run_until_idle();
        let mut groups = vec![0usize; WORKERS];
        for &id in &ids {
            for row in cluster.distribution(id) {
                groups[row.worker.index() - 1] += row.groups;
            }
        }
        (groups, cluster.report())
    };
    let results = parallel_map(
        vec![PlacementConfig::legacy(), PlacementConfig::default()],
        scale.threads,
        cell,
    );
    let ((legacy_groups, legacy), (aware_groups, aware)) = (results[0].clone(), results[1].clone());

    let share0 = |groups: &[usize]| {
        let total: usize = groups.iter().sum();
        100.0 * groups[0] as f64 / total.max(1) as f64
    };
    let mean_p99 = |r: &RunReport| {
        let p99s: Vec<f64> = r.workflows.values().map(|w| w.e2e.p99).collect();
        avg(&p99s)
    };
    let spread = |groups: &[usize]| {
        groups
            .iter()
            .enumerate()
            .map(|(w, g)| format!("w{w}:{g}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "{:<12} {:>22} {:>9} {:>12} {:>13}",
        "placement", "groups per worker", "w0 share", "mean p99", "remote bytes"
    );
    rule(74);
    for (label, groups, report) in [
        ("legacy", &legacy_groups, &legacy),
        ("load-aware", &aware_groups, &aware),
    ] {
        println!(
            "{:<12} {:>22} {:>8.0}% {:>9.0} ms {:>10} MB",
            label,
            spread(groups),
            share0(groups),
            mean_p99(report),
            mb(report.storage_node_bytes),
        );
    }
    rule(74);
    let p = &aware.placement;
    println!(
        "load-aware actions: {} partitions, {} capacity fallbacks, {} skew + {} recovery \
         rebalances ({} workflows moved)",
        p.load_aware_partitions,
        p.capacity_fallbacks,
        p.skew_rebalances,
        p.recovery_rebalances,
        p.rebalanced_workflows
    );

    for (label, report) in [("legacy", &legacy), ("load-aware", &aware)] {
        assert_conserved(label, report);
    }
    assert!(
        share0(&aware_groups) < share0(&legacy_groups),
        "load-aware placement must cut worker 0's group share \
         (aware {:.0}% vs legacy {:.0}%)",
        share0(&aware_groups),
        share0(&legacy_groups)
    );
    assert!(
        mean_p99(&aware) < mean_p99(&legacy),
        "load-aware placement must improve the tail \
         (aware {:.0} ms vs legacy {:.0} ms)",
        mean_p99(&aware),
        mean_p99(&legacy)
    );
    assert!(
        aware.storage_node_bytes < legacy.storage_node_bytes,
        "load-aware placement must push fewer bytes through the storage node \
         (aware {} vs legacy {})",
        aware.storage_node_bytes,
        legacy.storage_node_bytes
    );
    println!("spreading the pipelines off worker 0 shortens its admission queue, so");
    println!("puts stay within each workflow's FaaStore budget (fewer remote spills)");
    println!("and the end-to-end tail drops.");
}

// ====================================================================
// grayfail — gray-failure detection, quarantine, zombie fencing
// ====================================================================

/// Gray failures degrade a worker while every fail-stop signal stays
/// green: it heartbeats, accepts work, and renews its lease — it is just
/// slow, stuck, or flaky. Part one sweeps those kinds over one worker and
/// compares the tail with the differential health detector off vs on:
/// the detector scores each worker's exec latency/failure rate against
/// the fleet median (MAD outlier test), quarantines the sustained
/// outlier, drains it, and half-open reinstates it once the window
/// heals. Part two injects the inverse problem — an asymmetric link
/// partition whose control plane passes while one data direction stalls,
/// plus a forced false suspicion: the lease expires under a still-running
/// worker, re-dispatch races the zombie, and its late completions must
/// die on the admission fences (`zombie_fenced`).
fn grayfail(scale: &Scale) {
    use faasflow_container::NodeCaps;
    use faasflow_core::{GrayFault, GrayFaultKind, HealthConfig, RunReport};

    const WORKERS: u32 = 4;
    const PIPELINES: usize = 6;
    const RATE_PER_MIN: f64 = 30.0;

    println!("\n=== Grayfail: gray-failure detection & worker quarantine ===");
    println!(
        "({PIPELINES} pipelines open loop {RATE_PER_MIN:.0} inv/min each on {WORKERS} \
         workers x 2 cores;"
    );
    println!(" worker 1 degrades gray over t=6-36s while heartbeating normally;");
    println!(" MAD health detector off vs on, quarantine drains + reinstates)");

    let pipeline = |i: usize| {
        Workflow::steps(
            format!("pipe{i}"),
            Step::sequence(vec![
                Step::task("ingest", FunctionProfile::with_millis(60, 1 << 20)),
                Step::foreach("crunch", FunctionProfile::with_millis(300, 1 << 20), 4),
                Step::task("publish", FunctionProfile::with_millis(30, 0)),
            ]),
        )
    };
    let measure = (scale.open / 4).max(10);
    let window = (
        SimDuration::from_secs(6),
        SimDuration::from_secs(30), // heals mid-run so reinstatement is observable
    );
    let cell = |(kind, health): (GrayFaultKind, Option<HealthConfig>)| {
        let config = ClusterConfig {
            workers: WORKERS,
            node_caps: NodeCaps {
                cores: 2,
                ..NodeCaps::default()
            },
            // Load-aware placement spreads the pipelines, so the gray
            // worker owns a real share of the fleet before it degrades.
            placement_config: PlacementConfig::default(),
            fault: FaultPlan {
                gray_faults: vec![GrayFault {
                    worker: 1,
                    at: window.0,
                    duration: window.1,
                    kind,
                }],
                ..FaultPlan::default()
            },
            health,
            ..faasflow_config()
        };
        let mut cluster = Cluster::new(config).expect("valid config");
        for i in 0..PIPELINES {
            cluster
                .register(
                    &pipeline(i),
                    ClientConfig::OpenLoop {
                        per_minute: RATE_PER_MIN,
                        invocations: measure,
                    },
                )
                .expect("registers");
        }
        cluster.run_until_idle();
        cluster.report()
    };
    let kinds: [(&str, GrayFaultKind); 4] = [
        ("slowdown x4", GrayFaultKind::ExecSlowdown { factor: 4.0 }),
        ("slowdown x8", GrayFaultKind::ExecSlowdown { factor: 8.0 }),
        ("stuck executor", GrayFaultKind::StuckExecutor),
        (
            "flaky 75% fail",
            GrayFaultKind::FlakyExec { failure_rate: 0.75 },
        ),
    ];
    let mut cells = Vec::new();
    for &(_, kind) in &kinds {
        cells.push((kind, None));
        cells.push((kind, Some(HealthConfig::default())));
    }
    let results = parallel_map(cells, scale.threads, cell);

    let mean_p99 = |r: &RunReport| {
        let sum: f64 = r.workflows.values().map(|w| w.e2e.p99).sum();
        sum / r.workflows.len().max(1) as f64
    };
    println!(
        "{:<16} {:>11} {:>11} {:>6} {:>6} {:>7} {:>8}",
        "gray fault", "off p99", "on p99", "cut%", "quar", "reinst", "orphans"
    );
    println!(
        "{:<16} {:>11} {:>11} {:>6} {:>6} {:>7} {:>8}",
        "", "(ms)", "(ms)", "", "", "", ""
    );
    rule(72);
    for (i, (label, _)) in kinds.iter().enumerate() {
        let (off, on) = (&results[2 * i], &results[2 * i + 1]);
        let (off_p99, on_p99) = (mean_p99(off), mean_p99(on));
        let cut = 100.0 * (1.0 - on_p99 / off_p99.max(1e-9));
        println!(
            "{:<16} {:>11.0} {:>11.0} {:>6.0} {:>6} {:>7} {:>8}",
            label,
            off_p99,
            on_p99,
            cut,
            on.health.quarantines,
            on.health.reinstatements,
            on.health.quarantine_orphans,
        );
    }
    rule(72);

    for (i, (label, _)) in kinds.iter().enumerate() {
        for (tag, report) in [("off", &results[2 * i]), ("on", &results[2 * i + 1])] {
            assert_conserved(&format!("{label}/{tag}"), report);
        }
        let (off, on) = (&results[2 * i], &results[2 * i + 1]);
        assert_eq!(
            off.health.evaluations, 0,
            "{label}: detector off must never evaluate"
        );
        assert_eq!(
            off.health.quarantines, 0,
            "{label}: detector off must never quarantine"
        );
        assert!(
            on.health.quarantines >= 1,
            "{label}: the detector must quarantine the gray worker \
             ({} quarantines)",
            on.health.quarantines
        );
    }
    for idx in [1usize, 2] {
        let (label, _) = kinds[idx];
        let (off_p99, on_p99) = (mean_p99(&results[2 * idx]), mean_p99(&results[2 * idx + 1]));
        assert!(
            on_p99 < off_p99,
            "{label}: quarantining the gray worker must cut the tail \
             (on {on_p99:.0} ms vs off {off_p99:.0} ms)"
        );
    }
    {
        let (off_p99, on_p99) = (mean_p99(&results[2]), mean_p99(&results[3]));
        println!(
            "grayfail: detector on cuts p99 under sustained gray faults \
             (x8 slowdown {off_p99:.0} -> {on_p99:.0} ms)"
        );
    }

    // --- part two: asymmetric partition, false suspicion, fencing ---
    println!("\n--- asymmetric partition: control up, data-plane down one way ---");
    println!("(legacy placement pins the group to worker 0; its outbound flows stall");
    println!(" over t=3-15s while heartbeats keep passing, and the master is made to");
    println!(" suspect it: the lease force-expires, re-dispatch races the zombie)");
    let heavy = Workflow::steps(
        "Heavy",
        Step::sequence(vec![
            Step::task("ingest", FunctionProfile::with_millis(200, 4 << 20)),
            Step::foreach("crunch", FunctionProfile::with_millis(2000, 4 << 20), 6),
            Step::task("merge", FunctionProfile::with_millis(100, 0)),
        ]),
    );
    let n = scale.closed.min(40);
    let run = |config: ClusterConfig| {
        let mut cluster = Cluster::new(ClusterConfig {
            workers: WORKERS,
            fault: FaultPlan {
                gray_faults: vec![GrayFault {
                    worker: 0,
                    at: SimDuration::from_secs(3),
                    duration: SimDuration::from_secs(12),
                    kind: GrayFaultKind::AsymmetricPartition {
                        inbound: false,
                        expire_lease: true,
                    },
                }],
                ..FaultPlan::default()
            },
            health: Some(HealthConfig::default()),
            ..config
        })
        .expect("valid config");
        cluster
            .register(&heavy, ClientConfig::ClosedLoop { invocations: n })
            .expect("registers");
        cluster.run_until_idle();
        cluster.report()
    };
    let modes = parallel_map(vec![master_config(), faasflow_config()], scale.threads, run);
    let (master, worker) = (&modes[0], &modes[1]);
    println!(
        "{:<28} {:>16} {:>16}",
        "metric", "HyperFlow(MSP)", "FaaSFlow(WSP)"
    );
    rule(62);
    let mrow = |label: &str, m: u64, w: u64| println!("{label:<28} {m:>16} {w:>16}");
    let m = master.workflow("Heavy");
    let w = worker.workflow("Heavy");
    mrow("invocations sent", m.sent, w.sent);
    mrow("completed", m.completed, w.completed);
    mrow("dead-lettered", m.dead_lettered, w.dead_lettered);
    mrow(
        "lease expiries (suspicion)",
        master.faults.lease_expiries,
        worker.faults.lease_expiries,
    );
    mrow(
        "crash re-dispatches",
        master.faults.crash_redispatches,
        worker.faults.crash_redispatches,
    );
    mrow(
        "zombies fenced",
        master.health.zombie_fenced,
        worker.health.zombie_fenced,
    );
    mrow(
        "data flows stalled",
        master.health.stalled_flows,
        worker.health.stalled_flows,
    );
    mrow(
        "quarantine orphans",
        master.health.quarantine_orphans,
        worker.health.quarantine_orphans,
    );
    mrow(
        "live states (leak check)",
        master.live_invocation_states,
        worker.live_invocation_states,
    );
    rule(62);
    for (label, report) in [("MasterSP", master), ("WorkerSP", worker)] {
        assert_conserved(label, report);
        assert!(
            report.faults.lease_expiries >= 1,
            "{label}: the forced false suspicion must expire the lease"
        );
    }
    let fenced = master.health.zombie_fenced + worker.health.zombie_fenced;
    assert!(
        fenced >= 1,
        "the re-dispatch race must fence at least one zombie completion \
         (MSP {} + WSP {})",
        master.health.zombie_fenced,
        worker.health.zombie_fenced
    );
    println!("grayfail: zombies fenced after false suspicion: {fenced} late completions discarded");
    println!("grayfail: conservation held in every cell; no engine state leaked");
    println!("a lease only proves a worker answers — not that it makes progress; the");
    println!("detector catches what fail-stop misses, and admission fencing makes the");
    println!("false-suspicion race safe: the suspect's late completions cannot land.");
}

// ====================================================================
// trace — causal spans, resource series, exporters, attribution
// ====================================================================

/// Runs WordCount + Video under both schedule patterns with tracing and
/// resource sampling on, builds and validates the span forests, writes a
/// Perfetto-loadable Chrome trace and a Prometheus snapshot per mode, and
/// prints the phase-attribution table. The span-derived sums are asserted
/// to reconcile with the independently-accumulated report histograms.
fn trace_scenario(scale: &Scale, out_dir: &str) {
    use faasflow_obs::{
        attribute, build_forest, chrome_trace, parse_json, prometheus_snapshot,
        render_attribution_table, PhaseBreakdown,
    };

    println!("\n=== Trace: causal spans, resource series, exporters ===");
    let n = scale.closed.min(25);
    println!("(WordCount + Video, {n} closed-loop invocations each, 100 ms sampling)");
    std::fs::create_dir_all(out_dir).expect("trace output directory");
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
    let mut names: std::collections::HashMap<faasflow_sim::WorkflowId, String> = Default::default();
    let mut sections: Vec<(String, Vec<PhaseBreakdown>)> = Vec::new();
    for (label, base) in [
        ("MasterSP", master_config()),
        ("WorkerSP", faasflow_config()),
    ] {
        // Fresh cluster, no warm-up: the trace must cover exactly the
        // invocations the metrics cover, or reconciliation is meaningless.
        let mut cluster = Cluster::new(ClusterConfig {
            trace: true,
            sample_every: Some(SimDuration::from_millis(100)),
            ..base
        })
        .expect("valid experiment configuration");
        for bench in [Benchmark::WordCount, Benchmark::VideoFfmpeg] {
            cluster
                .register(
                    &bench.workflow(),
                    ClientConfig::ClosedLoop { invocations: n },
                )
                .expect("registers");
        }
        cluster.run_until_idle();
        let report = cluster.report();
        let profile = cluster.loop_profile();
        let events = cluster.take_trace();
        assert_eq!(report.trace_dropped, 0, "{label}: run fits the trace cap");
        let forest = build_forest(&events);
        forest.validate().expect("span forest well-formed");
        let rows = attribute(&forest);
        for row in &rows {
            let name = cluster
                .workflow_name(row.workflow)
                .expect("registered workflow")
                .to_string();
            let wf = report.workflow(&name);
            assert!(
                close(row.e2e_ms, wf.e2e.sum),
                "{label}/{name}: span e2e {} != report {}",
                row.e2e_ms,
                wf.e2e.sum
            );
            assert!(
                close(
                    row.transfer_local_ms + row.transfer_remote_ms,
                    wf.transfer_total.sum
                ),
                "{label}/{name}: span transfer {} != report {}",
                row.transfer_local_ms + row.transfer_remote_ms,
                wf.transfer_total.sum
            );
            names.insert(row.workflow, name);
        }
        let slug = label.to_lowercase();
        let chrome = chrome_trace(&forest, report.resources.as_ref());
        parse_json(&chrome).expect("chrome export parses as JSON");
        let json_path = format!("{out_dir}/trace_{slug}.json");
        std::fs::write(&json_path, &chrome).expect("trace JSON written");
        let prom_path = format!("{out_dir}/metrics_{slug}.prom");
        std::fs::write(&prom_path, prometheus_snapshot(&report)).expect("prom snapshot written");
        println!(
            "{label}: {} events -> {} spans over {} invocations; wrote {json_path} and {prom_path}",
            events.len(),
            forest.span_count(),
            forest.trees.len()
        );
        println!(
            "  event loop: {} events in {:.3} s wall ({:.0} events/s)",
            profile.events_processed,
            profile.wall_secs,
            profile.events_per_sec()
        );
        let mut per_event = profile.per_event.clone();
        per_event.sort_by(|a, b| b.total_secs.total_cmp(&a.total_secs));
        for row in per_event.iter().take(3) {
            println!(
                "    {:<24} {:>9} events {:>9.1} us total",
                row.name,
                row.count,
                row.total_secs * 1e6
            );
        }
        sections.push((label.to_string(), rows));
    }
    println!("\nphase attribution (mean ms per invocation):");
    print!(
        "{}",
        render_attribution_table(&sections, |wf| names[&wf].clone())
    );
    println!("span-derived e2e and transfer sums reconcile with the report histograms.");
    println!("open the trace_*.json files at ui.perfetto.dev to browse the spans.");
}

// ====================================================================
// critpath — observed critical path and what-if latency bounds
// ====================================================================

fn critpath_scenario(scale: &Scale) {
    use faasflow_obs::{
        aggregate, build_forest, extract, render_critpath_table, render_whatif_table, what_if_all,
        CritPhase, WorkflowWhatIf,
    };
    use faasflow_workloads::deterministic_exec;

    println!("\n=== Critical path: observed bottleneck chain & what-if bounds ===");
    let n = scale.closed.min(20);
    println!("(real-world benchmarks, deterministic exec, {n} closed-loop invocations each)");
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
    let mut names: std::collections::HashMap<faasflow_sim::WorkflowId, String> = Default::default();
    let mut statics: std::collections::HashMap<faasflow_sim::WorkflowId, f64> = Default::default();
    let mut cp_sections = Vec::new();
    let mut wi_sections: Vec<(String, Vec<WorkflowWhatIf>)> = Vec::new();
    for (label, base) in [
        ("MasterSP", master_config()),
        ("WorkerSP", faasflow_config()),
    ] {
        let mut cluster = Cluster::new(ClusterConfig {
            trace: true,
            ..base
        })
        .expect("valid experiment configuration");
        for bench in Benchmark::REAL_WORLD {
            // Zero exec variation so the observed exec-only floor provably
            // dominates the DAG's static critical_path_exec() bound.
            cluster
                .register(
                    &deterministic_exec(&bench.workflow()),
                    ClientConfig::ClosedLoop { invocations: n },
                )
                .expect("registers");
        }
        cluster.run_until_idle();
        let report = cluster.report();
        assert_eq!(report.trace_dropped, 0, "{label}: run fits the trace cap");
        // Non-consuming accessor: the cluster keeps its trace, so the
        // report and the forest describe the same run.
        let forest = build_forest(cluster.trace());
        forest.validate().expect("span forest well-formed");
        let paths = extract(&forest);
        for (path, tree) in paths.iter().zip(&forest.trees) {
            // The chain is contiguous, causally ordered, and sums exactly
            // to the invocation makespan.
            path.validate(tree)
                .unwrap_or_else(|e| panic!("{label}: invalid critical path: {e}"));
            let static_exec = cluster
                .critical_exec(path.workflow)
                .expect("registered workflow")
                .as_millis_f64();
            let exec = path.phase_total(CritPhase::Exec).as_millis_f64();
            assert!(
                exec >= static_exec - 1e-6,
                "{label}/{}: observed exec {exec} ms below static bound {static_exec} ms",
                path.workflow
            );
            statics.insert(path.workflow, static_exec);
            if let Some(name) = cluster.workflow_name(path.workflow) {
                names.insert(path.workflow, name.to_string());
            }
        }
        let rows = aggregate(&paths);
        for row in &rows {
            let share_sum: f64 = CritPhase::ALL.iter().map(|&p| row.share(p)).sum();
            assert!(
                row.total_ms == 0.0 || close(share_sum, 1.0),
                "{label}/{}: phase shares sum to {share_sum}, not 1",
                row.workflow
            );
        }
        let bounds = what_if_all(&rows);
        println!(
            "{label}: {} invocations validated; every chain sums to its makespan",
            paths.len()
        );
        cp_sections.push((label.to_string(), rows));
        wi_sections.push((label.to_string(), bounds));
    }
    println!("\ncritical-path phase shares (chain ms = makespan, % of chain):");
    print!(
        "{}",
        render_critpath_table(&cp_sections, |wf| names[&wf].clone())
    );
    println!("\nwhat-if upper bounds (mean ms per invocation, max speedup):");
    print!(
        "{}",
        render_whatif_table(
            &wi_sections,
            |wf| names[&wf].clone(),
            |wf| statics.get(&wf).copied(),
        )
    );
    println!("observed >= exec-only >= static critical_path_exec() on every invocation.");
    println!("the gap between columns is the most any one optimization can recover.");
}

/// The end-of-scenario conservation checks: every invocation of every
/// workflow reached exactly one terminal outcome, no engine state leaked,
/// and every dead letter carries exactly one attributed reason.
fn assert_conserved(label: &str, report: &RunReport) {
    for (name, wf) in &report.workflows {
        assert_eq!(
            wf.sent,
            wf.completed + wf.dead_lettered + wf.shed,
            "{label}/{name}: every invocation must reach exactly one terminal outcome"
        );
    }
    assert_eq!(
        report.live_invocation_states, 0,
        "{label}: leaked engine state"
    );
    let f = &report.faults;
    assert_eq!(
        f.dead_letter_retries_exhausted
            + f.dead_letter_crash_orphan
            + f.dead_letter_journal_unrecoverable
            + f.dead_letter_quarantine_orphan,
        f.dead_letters,
        "{label}: every dead letter carries exactly one attributed reason"
    );
}

fn avg(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_quick_both_trace_out_forms_and_no_experiment() {
        for (argv, experiment, quick, trace_out) in [
            (&[][..], "all", false, None),
            (&["--quick"], "all", true, None),
            (&["fig16", "--quick"], "fig16", true, None),
            (
                &["trace", "--trace-out", "out"],
                "trace",
                false,
                Some("out"),
            ),
            (&["--trace-out=out", "trace"], "trace", false, Some("out")),
        ] {
            let want = Args {
                experiment: experiment.into(),
                quick,
                trace_out: trace_out.map(Into::into),
            };
            assert_eq!(parse(argv), Ok(want), "{argv:?}");
        }
    }

    #[test]
    fn rejects_unknown_flags_a_missing_trace_out_dir_and_a_second_experiment() {
        let no_dir = "`--trace-out` needs a directory";
        for (argv, err) in [
            (&["fig16", "--quik"][..], "unknown option `--quik`"),
            (&["trace", "--trace-out"], no_dir),
            (&["trace", "--trace-out", "--quick"], no_dir),
            (&["trace", "--trace-out="], no_dir),
            (&["fig4", "fig5"], "unexpected argument `fig5`"),
        ] {
            assert_eq!(parse(argv), Err(err.to_string()), "{argv:?}");
        }
    }
}
