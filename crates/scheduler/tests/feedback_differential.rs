//! Differential property: the per-producer [`FeedbackCollector`] against
//! the per-edge collector it replaced, on the workload generators' DAGs.
//!
//! The reference copies every read of a producer onto each of its control
//! out-edges and keeps one histogram per edge. The collector keeps one
//! histogram per producer and writes its p99 to every out-edge. After each
//! partition iteration, every edge weight and every `Scale`/`Map` value must
//! be bit-identical.

use faasflow_scheduler::{FeedbackCollector, RuntimeMetrics};
use faasflow_sim::stats::Histogram;
use faasflow_sim::{FunctionId, SimDuration};
use faasflow_wdl::{DagParser, EdgeId, WorkflowDag};
use faasflow_workloads::generators::{chain_ensemble, cross_coupled, map_pipeline, StageProfile};
use faasflow_workloads::Benchmark;
use proptest::prelude::*;

/// The per-edge collector, kept only as the reference.
struct PerEdgeReference {
    scale_sum: Vec<f64>,
    scale_cnt: Vec<u64>,
    map_sum: Vec<f64>,
    map_cnt: Vec<u64>,
    edge_latency: Vec<Histogram>,
}

impl PerEdgeReference {
    fn new(dag: &WorkflowDag) -> Self {
        PerEdgeReference {
            scale_sum: vec![0.0; dag.node_count()],
            scale_cnt: vec![0; dag.node_count()],
            map_sum: vec![0.0; dag.node_count()],
            map_cnt: vec![0; dag.node_count()],
            edge_latency: vec![Histogram::new(); dag.edges().len()],
        }
    }

    fn observe_read(&mut self, dag: &WorkflowDag, producer: FunctionId, latency: SimDuration) {
        for &(edge, _) in dag.successors(producer) {
            self.edge_latency[edge.index()].record_duration(latency);
        }
    }

    fn finish(mut self, dag: &mut WorkflowDag, previous: &RuntimeMetrics) -> RuntimeMetrics {
        let mut scale = previous.scale.clone();
        let mut map = previous.map.clone();
        for i in 0..dag.node_count() {
            if self.scale_cnt[i] > 0 {
                scale[i] = self.scale_sum[i] / self.scale_cnt[i] as f64;
            }
            if self.map_cnt[i] > 0 {
                map[i] = self.map_sum[i] / self.map_cnt[i] as f64;
            }
        }
        for (idx, hist) in self.edge_latency.iter_mut().enumerate() {
            if let Some(p99_ms) = hist.p99() {
                dag.set_edge_weight(
                    EdgeId::from_index(idx),
                    SimDuration::from_millis_f64(p99_ms),
                );
            }
        }
        RuntimeMetrics { scale, map }
    }
}

/// One observation between iterations. A read names its producer, or
/// `None` for the case's hot producer, which gathers enough samples that
/// the p99 rank differs from its neighbours'.
#[derive(Debug, Clone, Copy)]
enum Op {
    Scale(usize, u32),
    Map(usize, u32),
    Read(Option<usize>, SimDuration),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..6, any::<u32>(), 0u64..4_000_000).prop_map(|(kind, node, v)| {
        let node = node as usize;
        match kind {
            0 => Op::Scale(node, (v % 17) as u32),
            1 => Op::Map(node, (v % 9) as u32),
            // Coarse latencies repeat, so ties in the p99 rank are common.
            2 => Op::Read(Some(node), SimDuration::from_millis(v % 40)),
            3 => Op::Read(Some(node), SimDuration::from_micros(v)),
            _ => Op::Read(None, SimDuration::from_micros(v)),
        }
    })
}

/// A benchmark workflow or a generated topology, by selector.
fn workflow_dag(shape: usize, a: usize, b: usize, c: usize) -> WorkflowDag {
    let stage = StageProfile::default();
    let wf = match shape {
        0..=7 => Benchmark::ALL[shape].workflow(),
        8 => chain_ensemble("ce", 1 + a % 6, 1 + b % 5, stage),
        9 => map_pipeline("mp", 1 + a % 6, 1 + b % 5, stage),
        _ => {
            let producers = 1 + a % 7;
            cross_coupled("cc", producers, 1 + b % 7, 1 + c % producers, stage)
        }
    };
    DagParser::default()
        .parse(&wf)
        .expect("generated workflows parse")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn per_producer_feedback_matches_per_edge_reference(
        shape in 0usize..11,
        params in (any::<usize>(), any::<usize>(), any::<usize>()),
        iterations in proptest::collection::vec(proptest::collection::vec(op_strategy(), 0..400), 1..4),
    ) {
        let (a, b, c) = params;
        let mut dag = workflow_dag(shape, a, b, c);
        let mut reference_dag = dag.clone();
        let n = dag.node_count();
        // The producer with the most out-edges, the fan-out the collector
        // folds into one sample per read.
        let hot = (0..n).max_by_key(|&i| dag.successors(FunctionId::from(i)).len()).unwrap_or(0);
        let mut prev = RuntimeMetrics::initial(&dag);
        let mut reference_prev = prev.clone();
        for ops in &iterations {
            let mut fc = FeedbackCollector::new(&dag);
            let mut reference = PerEdgeReference::new(&reference_dag);
            for &op in ops {
                match op {
                    Op::Scale(node, v) => {
                        fc.observe_scale(FunctionId::from(node % n), v);
                        reference.scale_sum[node % n] += f64::from(v);
                        reference.scale_cnt[node % n] += 1;
                    }
                    Op::Map(node, v) => {
                        fc.observe_map(FunctionId::from(node % n), v);
                        reference.map_sum[node % n] += f64::from(v);
                        reference.map_cnt[node % n] += 1;
                    }
                    Op::Read(node, latency) => {
                        let producer = FunctionId::from(node.map_or(hot, |i| i % n));
                        fc.observe_read(producer, latency);
                        reference.observe_read(&reference_dag, producer, latency);
                    }
                }
            }
            prev = fc.finish(&mut dag, &prev);
            reference_prev = reference.finish(&mut reference_dag, &reference_prev);
            for (got, want) in dag.edges().iter().zip(reference_dag.edges()) {
                prop_assert_eq!(got.weight, want.weight, "edge {} weight", got.id.index());
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&prev.scale), bits(&reference_prev.scale));
            prop_assert_eq!(bits(&prev.map), bits(&reference_prev.map));
            prop_assert_eq!(&prev, &reference_prev);
        }
    }
}
