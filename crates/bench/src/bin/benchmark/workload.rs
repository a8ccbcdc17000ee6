//! The four workloads: the cluster each one builds and the tenants that
//! drive it. Everything here is generated from the seed; the simulator
//! receives only the resulting config and workflows.

use faasflow_core::{ClusterConfig, PlacementConfig, ScheduleMode};
use faasflow_wdl::Workflow;
use faasflow_workloads::Benchmark;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 128 workers, WorkerSP + FaaStore, load-aware placement, open loop.
    Fleet128Wsp,
    /// The paper testbed (`ClusterConfig::default()`), open loop.
    Paper7Mix,
    /// 32 workers, MasterSP without FaaStore, saturated storage NIC,
    /// closed loop.
    StorageMsp32,
    /// The paper testbed with tracing, closed loop, plus the obs pipeline.
    Observe7Traced,
}

/// How a tenant's client sends its measured invocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Poisson arrivals at a fixed rate, regardless of completions.
    Open { per_minute: f64 },
    /// The next invocation is sent when the previous one completes.
    Closed,
}

/// One separately registered workflow and its client.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub workflow: Workflow,
    pub load: Load,
    /// Measured invocations (after the one-invocation warm-up).
    pub invocations: u32,
}

/// Large DAGs (Genome, 50 nodes) mixed with small real-world apps.
const LARGE_DAG_MIX: [Benchmark; 3] = [
    Benchmark::WordCount,
    Benchmark::Genome,
    Benchmark::VideoFfmpeg,
];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fleet128Wsp,
        Workload::Paper7Mix,
        Workload::StorageMsp32,
        Workload::Observe7Traced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet128Wsp => "fleet128-wsp",
            Workload::Paper7Mix => "paper7-mix",
            Workload::StorageMsp32 => "storage-msp32",
            Workload::Observe7Traced => "observe7-traced",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the round drains the trace and runs the obs pipeline.
    pub fn traced(self) -> bool {
        self == Workload::Observe7Traced
    }

    pub fn config(self, seed: u64) -> ClusterConfig {
        let base = ClusterConfig {
            seed,
            ..ClusterConfig::default()
        };
        match self {
            // 6.25 MB/s of storage NIC per worker keeps the large fleet
            // below saturation: at the default 50 MB/s, 99% of this load
            // times out, which measures stuck flows, not the simulator.
            // The skew trigger sits at 400% because the default 200%
            // thrashes the rebalancer on about a third of seeds.
            Workload::Fleet128Wsp => ClusterConfig {
                workers: 128,
                placement_config: PlacementConfig {
                    skew_threshold_pct: 400,
                    ..PlacementConfig::default()
                },
                storage_bandwidth: 800e6,
                ..base
            },
            Workload::Paper7Mix => base,
            Workload::StorageMsp32 => ClusterConfig {
                workers: 32,
                mode: ScheduleMode::MasterSp,
                faastore: false,
                placement_config: PlacementConfig::default(),
                storage_bandwidth: 200e6,
                ..base
            },
            Workload::Observe7Traced => ClusterConfig {
                trace: true,
                ..base
            },
        }
    }

    /// Tenant count, the classes tenants cycle through, their load, and
    /// measured invocations per tenant at scale 1. Rounds last about half a
    /// second; storage-msp32 stops at 36 clients because at 48 a tenant's
    /// p99 nears the 60 s timeout.
    fn shape(self) -> (usize, &'static [Benchmark], Load, u32) {
        match self {
            Workload::Fleet128Wsp => (128, &LARGE_DAG_MIX, Load::Open { per_minute: 4.0 }, 25),
            Workload::Paper7Mix => (8, &Benchmark::ALL, Load::Open { per_minute: 2.0 }, 375),
            Workload::StorageMsp32 => (36, &LARGE_DAG_MIX, Load::Closed, 28),
            Workload::Observe7Traced => (8, &Benchmark::ALL, Load::Closed, 30),
        }
    }

    /// The tenants of one round. The seed rotates which class each tenant
    /// gets; `scale` multiplies the measured invocations per tenant.
    pub fn tenants(self, seed: u64, scale: f64) -> Vec<Tenant> {
        let (count, classes, load, per_tenant) = self.shape();
        let invocations = ((f64::from(per_tenant) * scale).round() as u32).max(1);
        let rotation = (seed % classes.len() as u64) as usize;
        (0..count)
            .map(|i| {
                let class = classes[(i + rotation) % classes.len()];
                let mut workflow = class.workflow();
                workflow.name = format!("t{i:03}-{}", class.short_name());
                Tenant {
                    workflow,
                    load,
                    invocations,
                }
            })
            .collect()
    }
}
