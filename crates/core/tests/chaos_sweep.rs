//! Randomized chaos-sweep oracle: every seed derives a random fault plan,
//! overload configuration and workload, runs the cluster to drain, and
//! checks the invariants that must hold no matter what was thrown at it:
//!
//! * **Conservation** — per workflow,
//!   `sent == completed + dead_lettered + shed`, and the overload
//!   report's `admitted` equals total sent. Nothing enters the system
//!   without leaving through exactly one terminal door.
//! * **No stuck invocations** — once the event queue drains,
//!   `live_invocation_states == 0`, and neither the remote store nor any
//!   worker's FaaStore holds an object.
//! * **Epoch monotonicity** — crash recovery bumps each invocation's
//!   epoch strictly upward (`InvocationRestarted` trace events).
//! * **Same-seed bit-identity** — re-running a sampled subset of seeds
//!   produces byte-identical `RunReport` JSON.
//! * **Cross-commit bit-identity** — every seed's `RunReport` JSON and
//!   its event trace (one `{:?}` line per `TraceEvent`) hash to the two
//!   FNV-64 digests committed in `tests/golden/chaos_digests.txt`.
//! * **Coverage** — the full sweep reaches every engine-slot and worker
//!   fault path at least once (see [`Coverage`]).
//!
//! A failing seed prints its standalone repro command:
//!
//! ```text
//! CHAOS_SEED=<seed> cargo test -p faasflow-core --test chaos_sweep
//! ```
//!
//! To re-record the digest table after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p faasflow-core --test chaos_sweep
//! ```

use std::collections::HashMap;

use faasflow_container::NodeCaps;
use faasflow_core::{
    AdaptiveHedge, AdmissionConfig, BackpressureConfig, BreakerConfig, ClientConfig, Cluster,
    ClusterConfig, DegradeConfig, EngineCrash, EngineTarget, FaultPlan, GrayFault, GrayFaultKind,
    HealthConfig, HedgeConfig, JournalConfig, NetFault, NodeCrash, OverloadConfig, PlacementConfig,
    RunReport, ScheduleMode, ShedPolicy, SloConfig, SloObjective, StorageFault, StorageFaultKind,
    TraceEvent, WindowMode,
};
use faasflow_sim::{SimDuration, SimRng};
use faasflow_wdl::{FunctionProfile, Step, Workflow};

/// Seeds swept by default (the CI job runs exactly this range).
const SEED_RANGE: std::ops::Range<u64> = 0..64;
/// Every eighth seed is re-run to check bit-identity.
const REPLAY_EVERY: u64 = 8;

/// FNV-1a over the bytes — the same hash the benchmark prints as
/// `report_fnv64`, kept here so the test does not depend on the bench
/// crate.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A seed's two fingerprints: its `RunReport` JSON and its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digests {
    report: u64,
    trace: u64,
}

fn digests(report: &RunReport, trace: &[TraceEvent]) -> Digests {
    let json = serde_json::to_string(report).expect("serializes");
    let lines: String = trace.iter().map(|ev| format!("{ev:?}\n")).collect();
    Digests {
        report: fnv64(json.as_bytes()),
        trace: fnv64(lines.as_bytes()),
    }
}

fn digests_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos_digests.txt")
}

/// The committed digest table: seed -> its report and trace digests.
fn committed_digests() -> HashMap<u64, Digests> {
    let path = digests_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); record it with GOLDEN_REGEN=1",
            path.display()
        )
    });
    let hex = |h: &str| u64::from_str_radix(h, 16).expect("digest is hex");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let [seed, report, trace] = fields[..] else {
                panic!("`<seed> <report digest> <trace digest>` line, got {l:?}");
            };
            let seed = seed.parse().expect("seed is an integer");
            let (report, trace) = (hex(report), hex(trace));
            (seed, Digests { report, trace })
        })
        .collect()
}

fn write_digests(digests: &[(u64, Digests)]) {
    let mut text = String::from(
        "# FNV-64 of each chaos-sweep seed's RunReport JSON, then of its trace\n\
         # (one `{:?}` line per TraceEvent).\n\
         # Regenerate: GOLDEN_REGEN=1 cargo test -p faasflow-core --test chaos_sweep\n",
    );
    for (seed, d) in digests {
        text.push_str(&format!("{seed} {:016x} {:016x}\n", d.report, d.trace));
    }
    std::fs::write(digests_path(), text).expect("write chaos digests");
}

/// The mismatch lines for one seed, one per digest that moved.
fn digest_mismatches(seed: u64, committed: Option<Digests>, got: Digests) -> Vec<String> {
    let show = |d: Option<u64>| d.map_or("none".to_string(), |d| format!("{d:016x}"));
    let columns = [
        ("RunReport", committed.map(|c| c.report), got.report),
        ("trace", committed.map(|c| c.trace), got.trace),
    ];
    columns
        .into_iter()
        .filter(|&(_, committed, got)| committed != Some(got))
        .map(|(what, committed, got)| {
            format!(
                "seed {seed}: {what} digest {got:016x} != committed {}; {}",
                show(committed),
                repro(seed)
            )
        })
        .collect()
}

/// Engine-slot and worker-fault paths the sweep must reach at least once,
/// so a refactor of them is pinned by the digests. Three paths are not
/// among them and are pinned in `fault_domains.rs` instead: the
/// journal-unreadable boot (the default backoff outlasts every blackout
/// the scenarios draw), a node crash while its worker engine is down (no
/// seed lands one inside the other) and a WorkerSP restart of an
/// invocation with admissions still queued.
#[derive(Debug, Default)]
struct Coverage {
    master_engine_crash: bool,
    worker_engine_crash: bool,
    exec_slowdown: bool,
    stuck_executor: bool,
    flaky_exec: bool,
    asymmetric_partition: bool,
    quarantine: bool,
}

impl Coverage {
    fn observe(&mut self, config: &ClusterConfig, report: &RunReport) {
        let r = &report.recovery;
        self.master_engine_crash |= r.master_engine_crashes > 0;
        self.worker_engine_crash |= r.worker_engine_crashes > 0;
        self.quarantine |= report.health.quarantines > 0;
        // A window opened if its start fell inside the run.
        for g in &config.fault.gray_faults {
            if g.at.as_secs_f64() >= report.sim_time_secs {
                continue;
            }
            match g.kind {
                GrayFaultKind::ExecSlowdown { .. } => self.exec_slowdown = true,
                GrayFaultKind::StuckExecutor => self.stuck_executor = true,
                GrayFaultKind::FlakyExec { .. } => self.flaky_exec = true,
                GrayFaultKind::AsymmetricPartition { .. } => self.asymmetric_partition = true,
            }
        }
    }

    fn assert_complete(&self) {
        let Coverage {
            master_engine_crash,
            worker_engine_crash,
            exec_slowdown,
            stuck_executor,
            flaky_exec,
            asymmetric_partition,
            quarantine,
        } = *self;
        assert!(
            master_engine_crash
                && worker_engine_crash
                && exec_slowdown
                && stuck_executor
                && flaky_exec
                && asymmetric_partition
                && quarantine,
            "the sweep no longer reaches every fault path ({self:?}); \
             pin the missing one in fault_domains.rs"
        );
    }
}

fn repro(seed: u64) -> String {
    format!("rerun just this seed with: CHAOS_SEED={seed} cargo test -p faasflow-core --test chaos_sweep")
}

/// Derives the whole scenario — topology, faults, overload knobs,
/// workload — from one seed. Only the *configuration* comes from this
/// RNG; the run itself uses the cluster's own seeded stream.
fn scenario(seed: u64) -> (ClusterConfig, Workflow, u32) {
    let mut rng = SimRng::seed_from(seed ^ 0x9e37_79b9_7f4a_7c15);
    let workers = 2 + rng.next_below(3) as u32; // 2..=4
    let mode = if rng.chance(0.5) {
        ScheduleMode::WorkerSp
    } else {
        ScheduleMode::MasterSp
    };
    let faastore = mode == ScheduleMode::WorkerSp && rng.chance(0.7);

    let mut fault = FaultPlan::default();
    if rng.chance(0.6) {
        fault.node_crashes.push(NodeCrash {
            worker: rng.next_below(u64::from(workers)) as u32,
            at: SimDuration::from_millis(500 + rng.next_below(3000)),
            restart_after: if rng.chance(0.8) {
                Some(SimDuration::from_millis(1000 + rng.next_below(3000)))
            } else {
                None
            },
        });
    }
    if rng.chance(0.5) {
        let kind = if rng.chance(0.5) {
            StorageFaultKind::Blackout
        } else {
            StorageFaultKind::Brownout {
                slowdown: rng.range_f64(2.0, 8.0),
            }
        };
        fault.storage_faults.push(StorageFault {
            at: SimDuration::from_millis(300 + rng.next_below(3000)),
            duration: SimDuration::from_millis(500 + rng.next_below(2500)),
            kind,
        });
    }
    if rng.chance(0.5) {
        fault.net_faults.push(NetFault {
            worker: rng.next_below(u64::from(workers)) as u32,
            at: SimDuration::from_millis(rng.next_below(2000)),
            duration: SimDuration::from_millis(500 + rng.next_below(4000)),
            loss: rng.range_f64(0.0, 0.4),
            latency_factor: rng.range_f64(1.0, 3.0),
            bandwidth_factor: rng.range_f64(0.3, 1.0),
        });
    }
    // Engine crashes target whichever engine the mode actually schedules
    // with; restart_after may be zero (instant restart).
    let journal_enabled = rng.chance(0.6);
    if rng.chance(0.5) {
        let crashes = 1 + rng.next_below(2); // 1..=2
        for _ in 0..crashes {
            let target = match mode {
                ScheduleMode::MasterSp => EngineTarget::Master,
                ScheduleMode::WorkerSp => {
                    EngineTarget::Worker(rng.next_below(u64::from(workers)) as u32)
                }
            };
            fault.engine_crashes.push(EngineCrash {
                target,
                at: SimDuration::from_millis(300 + rng.next_below(4000)),
                restart_after: SimDuration::from_millis(rng.next_below(3000)),
            });
        }
    }
    let journal = JournalConfig {
        enabled: journal_enabled,
        append_overhead: SimDuration::from_micros(500 + rng.next_below(4000)),
        replay_overhead: SimDuration::from_micros(50 + rng.next_below(500)),
    };

    let mut overload = OverloadConfig::default();
    if rng.chance(0.7) {
        let policy = match rng.next_below(3) {
            0 => ShedPolicy::RejectNewest,
            1 => ShedPolicy::RejectOldest,
            _ => ShedPolicy::DeadlineAware,
        };
        overload.admission = Some(AdmissionConfig {
            queue_capacity: 2 + rng.next_below(8) as usize,
            policy,
        });
    }
    if rng.chance(0.5) {
        overload.breaker = Some(BreakerConfig {
            failure_threshold: 1 + rng.next_below(4) as u32,
            ..BreakerConfig::default()
        });
    }
    if rng.chance(0.5) {
        overload.hedge = Some(HedgeConfig {
            delay: SimDuration::from_millis(100 + rng.next_below(600)),
            adaptive: if rng.chance(0.5) {
                Some(AdaptiveHedge {
                    quantile: rng.range_f64(0.5, 0.99),
                    warmup: 5 + rng.next_below(10) as u32,
                })
            } else {
                None
            },
        });
    }
    if rng.chance(0.5) {
        overload.backpressure = Some(BackpressureConfig {
            queue_threshold: 1 + rng.next_below(6) as usize,
            defer_delay: SimDuration::from_millis(10 + rng.next_below(40)),
            max_defers: 2 + rng.next_below(10) as u32,
        });
    }

    // Half the seeds run the load-aware placement layer with randomized
    // knobs (aggressive to lazy rebalancing); the rest stay legacy.
    let placement_config = if rng.chance(0.5) {
        PlacementConfig {
            enabled: true,
            locality_threshold_bytes: 1 << (12 + rng.next_below(10)), // 4 KiB..2 MiB
            skew_threshold_pct: 100 + rng.next_below(201) as u32,     // 100..=300
            rebalance_cooldown: 1 + rng.next_below(16) as u32,        // 1..=16
        }
    } else {
        PlacementConfig::legacy()
    };

    let mut config = ClusterConfig {
        mode,
        faastore,
        workers,
        seed,
        placement_config,
        node_caps: NodeCaps {
            cores: 2 + rng.next_below(3) as u32, // 2..=4 — small enough to queue
            ..NodeCaps::default()
        },
        // DeadlineAware shedding requires a deadline, and a generous one
        // keeps the scenario about overload, not QoS bookkeeping.
        qos_target: Some(SimDuration::from_secs(20)),
        exec_failure_rate: if rng.chance(0.4) {
            rng.range_f64(0.01, 0.1)
        } else {
            0.0
        },
        trace: true,
        fault,
        overload,
        journal,
        ..ClusterConfig::default()
    };

    let fan = 3 + rng.next_below(6) as u32; // 3..=8
    let exec = 60 + rng.next_below(200); // ms
    let bytes = 1u64 << (18 + rng.next_below(5)); // 256 KiB .. 4 MiB
    let wf = Workflow::steps(
        "Chaos",
        Step::sequence(vec![
            Step::task("ingest", FunctionProfile::with_millis(exec, bytes)),
            Step::foreach(
                "work",
                FunctionProfile::with_millis(exec + 60, bytes / 2).exec_variation(0.4),
                fan,
            ),
            Step::task("merge", FunctionProfile::with_millis(40, 0)),
        ]),
    );
    let invocations = 4 + rng.next_below(8) as u32; // 4..=11
                                                    // SLO monitoring on half the seeds. Drawn last so pre-existing seeds
                                                    // keep their exact scenarios. Tight targets make alerts actually fire
                                                    // under chaos; generous ones exercise the quiet path.
    if rng.chance(0.5) {
        let fast_burn = rng.range_f64(0.5, 4.0);
        config.slo = Some(SloConfig {
            objectives: vec![SloObjective {
                workflow: "Chaos".to_string(),
                target: SimDuration::from_millis(200 + rng.next_below(4000)),
                error_budget: rng.range_f64(0.01, 0.5),
                fast_window: 1 + rng.next_below(8) as u32,
                slow_window: 8 + rng.next_below(24) as u32,
                fast_burn,
                slow_burn: fast_burn * rng.range_f64(0.1, 1.0),
                // A third of the monitored seeds use time-based windows
                // (drawn after the count fields so earlier seeds keep
                // their exact scenarios; count fields are ignored then).
                window: if rng.chance(0.3) {
                    let fast = SimDuration::from_millis(300 + rng.next_below(3000));
                    WindowMode::Time {
                        fast,
                        slow: fast + SimDuration::from_millis(1000 + rng.next_below(10_000)),
                    }
                } else {
                    WindowMode::Count
                },
            }],
        });
    }
    // The degradation controller rides on SLO alerts (its only input), so
    // it is fuzzed on half the monitored seeds. Drawn last of all so every
    // pre-existing seed keeps its exact scenario.
    if config.slo.is_some() && rng.chance(0.5) {
        let initial_cap = 2 + rng.next_below(8) as u32; // 2..=9
        config.degrade = Some(DegradeConfig {
            initial_cap,
            min_cap: 1 + rng.next_below(u64::from(initial_cap)) as u32,
            tighten: rng.range_f64(0.2, 0.9),
            recover_step: 1 + rng.next_below(3) as u32,
            cooldown: SimDuration::from_millis(200 + rng.next_below(4000)),
            shed_admit_fraction: rng.range_f64(0.0, 1.0),
            probe_fraction: rng.range_f64(0.1, 1.0),
            probe_successes: 1 + rng.next_below(6) as u32,
            suspend_hedges: rng.chance(0.5),
            demote_shed_priority: rng.chance(0.5),
        });
    }
    // Gray failures on half the seeds, drawn after everything above so
    // every pre-existing seed keeps its exact scenario. Each degraded
    // worker gets exactly one window: `FaultPlan::validate` rejects
    // overlapping windows of one kind on a worker.
    if rng.chance(0.5) {
        let count = 1 + rng.next_below(u64::from(workers.min(3)));
        let mut degraded: Vec<u32> = Vec::new();
        for _ in 0..count {
            let w = rng.next_below(u64::from(workers)) as u32;
            if degraded.contains(&w) {
                continue;
            }
            degraded.push(w);
            let kind = match rng.next_below(4) {
                0 => GrayFaultKind::ExecSlowdown {
                    factor: rng.range_f64(2.0, 10.0),
                },
                1 => GrayFaultKind::StuckExecutor,
                2 => GrayFaultKind::FlakyExec {
                    failure_rate: rng.range_f64(0.2, 0.9),
                },
                _ => GrayFaultKind::AsymmetricPartition {
                    inbound: rng.chance(0.5),
                    expire_lease: rng.chance(0.5),
                },
            };
            config.fault.gray_faults.push(GrayFault {
                worker: w,
                at: SimDuration::from_millis(200 + rng.next_below(3000)),
                duration: SimDuration::from_millis(500 + rng.next_below(5000)),
                kind,
            });
        }
    }
    // The health detector runs on some seeds with and some without gray
    // faults (the quiet path must stay quiet), with thresholds fuzzed
    // from hair-trigger to lethargic. Drawn last of all.
    if rng.chance(0.4) {
        let window = 8 + rng.next_below(40) as usize;
        config.health = Some(HealthConfig {
            window,
            min_samples: 2 + rng.next_below(6) as usize, // <= 7 < window
            mad_threshold: rng.range_f64(1.5, 6.0),
            failure_threshold: rng.range_f64(0.1, 0.9),
            stuck_after: SimDuration::from_millis(500 + rng.next_below(8000)),
            probation_after: 1 + rng.next_below(4) as u32,
            quarantine_after: 1 + rng.next_below(4) as u32,
            cooldown: SimDuration::from_millis(500 + rng.next_below(8000)),
            reinstate_probes: 1 + rng.next_below(6) as u32,
            drain_on_quarantine: rng.chance(0.7),
        });
    }
    (config, wf, invocations)
}

fn run_seed(seed: u64) -> (RunReport, Vec<TraceEvent>) {
    let (config, wf, invocations) = scenario(seed);
    if std::env::var_os("CHAOS_VERBOSE").is_some() {
        eprintln!(
            "seed {seed}: mode={:?} faastore={} workers={} cores={} fault={:?} overload={:?} \
             journal={:?} placement={:?} slo={:?} exec_failure_rate={} invocations={invocations}",
            config.mode,
            config.faastore,
            config.workers,
            config.node_caps.cores,
            config.fault,
            config.overload,
            config.journal,
            config.placement_config,
            config.slo,
            config.exec_failure_rate
        );
    }
    let mut cluster = Cluster::new(config).unwrap_or_else(|e| {
        panic!(
            "seed {seed}: generated config failed validation ({e}); {}",
            repro(seed)
        )
    });
    cluster
        .register(&wf, ClientConfig::ClosedLoop { invocations })
        .unwrap_or_else(|e| panic!("seed {seed}: register failed ({e}); {}", repro(seed)));
    cluster.run_until_idle();
    // No leaks at idle: every exit path (completion, timeout, hedge,
    // crash recovery, dead letter, shed) releases its stored objects.
    assert_eq!(
        cluster.remote_store().object_count(),
        0,
        "seed {seed}: remote store holds objects after drain; {}",
        repro(seed)
    );
    for (w, fs) in cluster.faastores().enumerate() {
        assert_eq!(
            fs.memstore().object_count(),
            0,
            "seed {seed}: worker {w}'s FaaStore holds objects after drain; {}",
            repro(seed)
        );
    }
    let trace = cluster.take_trace();
    if std::env::var_os("CHAOS_TRACE").is_some() {
        for ev in &trace {
            eprintln!("seed {seed}: {ev:?}");
        }
    }
    (cluster.report(), trace)
}

fn check_invariants(seed: u64, report: &RunReport, trace: &[TraceEvent]) {
    let mut sent_total = 0;
    let mut shed_total = 0;
    for (name, wf) in &report.workflows {
        shed_total += wf.shed;
        assert_eq!(
            wf.sent,
            wf.completed + wf.dead_lettered + wf.shed,
            "seed {seed}: {name} leaks invocations \
             (sent {} != completed {} + dead_lettered {} + shed {}); {}",
            wf.sent,
            wf.completed,
            wf.dead_lettered,
            wf.shed,
            repro(seed)
        );
        sent_total += wf.sent;
    }
    assert_eq!(
        report.overload.admitted,
        sent_total,
        "seed {seed}: admitted != sent; {}",
        repro(seed)
    );
    assert_eq!(
        report.live_invocation_states,
        0,
        "seed {seed}: stuck invocation state after drain; {}",
        repro(seed)
    );
    let o = &report.overload;
    assert_eq!(
        o.shed,
        o.shed_newest + o.shed_oldest + o.shed_deadline,
        "seed {seed}: shed counters disagree ({o:?}); {}",
        repro(seed)
    );
    assert_eq!(
        o.hedges_launched,
        o.hedge_wins + o.hedge_losses,
        "seed {seed}: unresolved hedges ({o:?}); {}",
        repro(seed)
    );
    // Every dead letter carries exactly one attributed reason.
    let f = &report.faults;
    assert_eq!(
        f.dead_letter_retries_exhausted
            + f.dead_letter_crash_orphan
            + f.dead_letter_journal_unrecoverable
            + f.dead_letter_quarantine_orphan,
        f.dead_letters,
        "seed {seed}: dead-letter reasons don't sum ({f:?}); {}",
        repro(seed)
    );

    // Health-detector accounting. The config is re-derived from the seed
    // so the invariants can distinguish "off" from "quiet".
    let (config, _, _) = scenario(seed);
    let h = &report.health;
    if config.health.is_none() {
        assert_eq!(
            (h.evaluations, h.probations, h.quarantines, h.relapses),
            (0, 0, 0, 0),
            "seed {seed}: detector counters without a detector ({h:?}); {}",
            repro(seed)
        );
        assert_eq!(
            f.dead_letter_quarantine_orphan,
            0,
            "seed {seed}: quarantine orphans without a detector; {}",
            repro(seed)
        );
    }
    if config.fault.gray_faults.is_empty() {
        assert_eq!(
            (h.zombie_fenced, h.stalled_flows, h.stuck_deferrals),
            (0, 0, 0),
            "seed {seed}: gray-fault counters without gray faults ({h:?}); {}",
            repro(seed)
        );
    }
    assert_eq!(
        h.quarantine_orphans,
        f.dead_letter_quarantine_orphan,
        "seed {seed}: quarantine-orphan counters disagree ({h:?} vs {f:?}); {}",
        repro(seed)
    );
    assert!(
        h.probations >= h.quarantines,
        "seed {seed}: a quarantine without a probation ({h:?}); {}",
        repro(seed)
    );
    assert!(
        h.reinstatements <= h.quarantines + h.relapses,
        "seed {seed}: more reinstatements than quarantine episodes ({h:?}); {}",
        repro(seed)
    );
    if h.quarantines == 0 {
        assert_eq!(
            (h.relapses, h.reinstatements),
            (0, 0),
            "seed {seed}: relapse/reinstate without a first quarantine ({h:?}); {}",
            repro(seed)
        );
    }
    // Quarantine must never take the whole fleet: the detector requires
    // a healthy majority signal, so at least one worker stays placeable.
    let quarantined_now = h
        .workers
        .iter()
        .filter(|w| w.level == faasflow_core::HealthLevel::Quarantined)
        .count();
    assert!(
        h.workers.is_empty() || quarantined_now < h.workers.len(),
        "seed {seed}: the entire fleet ended quarantined ({h:?}); {}",
        repro(seed)
    );
    // Engine crash/recovery accounting is consistent: the target split
    // covers every crash, and no engine recovers more often than it
    // crashed (a permanently dead worker may never bring its engine back).
    let r = &report.recovery;
    assert_eq!(
        r.engine_crashes,
        r.master_engine_crashes + r.worker_engine_crashes,
        "seed {seed}: engine crash split doesn't sum ({r:?}); {}",
        repro(seed)
    );
    assert!(
        r.engine_recoveries <= r.engine_crashes,
        "seed {seed}: more recoveries than crashes ({r:?}); {}",
        repro(seed)
    );
    // Every counted engine crash and recovery is traced, so the
    // critical-path downtime windows close where the report says.
    if report.trace_dropped == 0 {
        let traced =
            |pred: fn(&TraceEvent) -> bool| trace.iter().filter(|e| pred(e)).count() as u64;
        let crashed = traced(|e| matches!(e, TraceEvent::EngineCrashed { .. }));
        let recovered = traced(|e| matches!(e, TraceEvent::EngineRecovered { .. }));
        assert_eq!(
            (crashed, recovered),
            (r.engine_crashes, r.engine_recoveries),
            "seed {seed}: traced engine crashes/recoveries disagree with the report ({r:?}); {}",
            repro(seed)
        );
    }

    // SLO accounting: alerts alternate fired -> resolved, and only
    // evaluated completions can consume budget.
    let s = &report.slo;
    assert!(
        s.alerts_resolved <= s.alerts_fired,
        "seed {seed}: more SLO alerts resolved than fired ({s:?}); {}",
        repro(seed)
    );
    assert!(
        s.violations <= s.evaluations,
        "seed {seed}: more SLO violations than evaluations ({s:?}); {}",
        repro(seed)
    );
    if s.objectives == 0 {
        assert!(
            s.is_zero(),
            "seed {seed}: SLO counters without objectives ({s:?}); {}",
            repro(seed)
        );
    }

    // Degradation accounting: controller sheds are disjoint from the
    // admission queue's (they never touch `overload.shed`), yet together
    // the two cover every per-workflow shed — no refusal is double- or
    // zero-counted. State-machine counters respect their causal order:
    // every throttle needs a fired alert, every recovery a resolved one,
    // every restore a recovery, every failed probe a launched probe.
    let d = &report.degrade;
    assert_eq!(
        shed_total,
        o.shed + d.sheds,
        "seed {seed}: workflow sheds {shed_total} != overload {} + degrade {} ({d:?}); {}",
        o.shed,
        d.sheds,
        repro(seed)
    );
    assert!(
        d.throttles <= s.alerts_fired,
        "seed {seed}: more throttles than alerts fired ({d:?} vs {s:?}); {}",
        repro(seed)
    );
    assert!(
        d.recoveries <= s.alerts_resolved,
        "seed {seed}: more recoveries than alerts resolved ({d:?} vs {s:?}); {}",
        repro(seed)
    );
    assert!(
        d.restores <= d.recoveries,
        "seed {seed}: more restores than recoveries ({d:?}); {}",
        repro(seed)
    );
    assert!(
        d.probe_failures <= d.probes,
        "seed {seed}: more probe failures than probes ({d:?}); {}",
        repro(seed)
    );
    assert_eq!(
        d.sheds,
        d.workflows.iter().map(|w| w.sheds).sum::<u64>(),
        "seed {seed}: per-workflow degrade sheds don't sum ({d:?}); {}",
        repro(seed)
    );
    if d.workflows_tracked == 0 {
        assert!(
            d.is_zero(),
            "seed {seed}: degrade counters without tracked workflows ({d:?}); {}",
            repro(seed)
        );
    }

    // Critical-path oracle: on every traced seed — crashes, hedges and
    // engine downtime included — each invocation's observed chain must be
    // contiguous, causally ordered, and sum exactly to its makespan.
    let forest = faasflow_obs::build_forest(trace);
    forest
        .validate()
        .unwrap_or_else(|e| panic!("seed {seed}: malformed span forest ({e}); {}", repro(seed)));
    let paths = faasflow_obs::extract(&forest);
    assert_eq!(
        paths.len(),
        forest.trees.len(),
        "seed {seed}: critical-path count != invocation count; {}",
        repro(seed)
    );
    for (path, tree) in paths.iter().zip(&forest.trees) {
        path.validate(tree).unwrap_or_else(|e| {
            panic!("seed {seed}: invalid critical path ({e}); {}", repro(seed))
        });
    }

    // Epoch fencing must only ever move forward, one invocation at a time.
    let mut epochs: HashMap<(usize, usize), u32> = HashMap::new();
    for ev in trace {
        if let TraceEvent::InvocationRestarted {
            workflow,
            invocation,
            epoch,
            ..
        } = ev
        {
            let key = (workflow.index(), invocation.index());
            let prev = epochs.insert(key, *epoch);
            let floor = prev.unwrap_or(0);
            assert!(
                *epoch > floor,
                "seed {seed}: invocation {key:?} epoch went {floor} -> {epoch}; {}",
                repro(seed)
            );
        }
    }
}

fn sweep(seeds: impl Iterator<Item = u64>) {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let committed = if regen {
        HashMap::new()
    } else {
        committed_digests()
    };
    let mut digests_seen = Vec::new();
    let mut mismatches = Vec::new();
    let mut coverage = Coverage::default();
    for seed in seeds {
        let (report, trace) = run_seed(seed);
        check_invariants(seed, &report, &trace);
        coverage.observe(&scenario(seed).0, &report);
        let d = digests(&report, &trace);
        digests_seen.push((seed, d));
        if !regen {
            mismatches.extend(digest_mismatches(seed, committed.get(&seed).copied(), d));
        }
        if seed % REPLAY_EVERY == 0 {
            let (replay, _) = run_seed(seed);
            assert_eq!(
                serde_json::to_string(&report).expect("serializes"),
                serde_json::to_string(&replay).expect("serializes"),
                "seed {seed}: same-seed runs diverged; {}",
                repro(seed)
            );
        }
    }
    if regen {
        write_digests(&digests_seen);
    }
    assert!(
        mismatches.is_empty(),
        "{} chaos digest(s) moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    coverage.assert_complete();
}

#[test]
fn chaos_sweep_holds_invariants() {
    match std::env::var("CHAOS_SEED") {
        Ok(v) => {
            let seed: u64 = v.parse().expect("CHAOS_SEED must be an integer");
            let (report, trace) = run_seed(seed);
            check_invariants(seed, &report, &trace);
            let (replay, _) = run_seed(seed);
            assert_eq!(
                serde_json::to_string(&report).expect("serializes"),
                serde_json::to_string(&replay).expect("serializes"),
                "seed {seed}: same-seed runs diverged; {}",
                repro(seed)
            );
            let committed = committed_digests().get(&seed).copied();
            let mismatches = digest_mismatches(seed, committed, digests(&report, &trace));
            assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
        }
        Err(_) => sweep(SEED_RANGE),
    }
}
