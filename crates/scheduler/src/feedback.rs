//! Runtime feedback metrics for partition iterations (§4.1.2).
//!
//! "FaaSFlow introduces `Scale(v_i)` for each function node, which
//! represents the average number of scaled instances of a function node
//! during partition iteration. This metric is updated based on the runtime
//! feedback from the last iteration" — and likewise `Map(v_i)` for foreach
//! executor maps and the observed 99-percentile edge latencies that become
//! DAG edge weights.
//!
//! Edge weights: a control edge's observed weight is the p99 of every read
//! of its producer's output since the last iteration. Reads travel *data*
//! edges (producer → consumer), while weights sit on *control* edges, some
//! of which pass through virtual nodes; so every control out-edge of a
//! producer gets the same weight, and edges leaving a virtual node keep
//! theirs. The collector therefore keeps one sample per read, per producer.

use faasflow_sim::stats::Histogram;
use faasflow_sim::{FunctionId, SimDuration};
use faasflow_wdl::{EdgeId, WorkflowDag};
use serde::{Deserialize, Serialize};

/// Live load snapshot of one worker, fed back from the cluster into
/// placement decisions alongside the per-node [`RuntimeMetrics`].
///
/// Where `Scale(v)`/`Map(v)` describe one workflow's own history, this
/// describes the *cluster* the workflow is being placed into: instances
/// other workflows already queued or run on each worker, memory pressure,
/// and the worker's recently observed tail latency. The partitioner uses it
/// to score otherwise-equal placement candidates; the cluster additionally
/// subtracts [`WorkerLoad::busy`] from nominal capacity so bin-packing sees
/// residual — not nominal — room.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerLoad {
    /// Admissions waiting in the worker's queue for a container slot.
    pub queued: u32,
    /// Instances currently booting or running on the worker.
    pub running: u32,
    /// Bytes resident in the worker's in-memory store.
    pub mem_used_bytes: u64,
    /// Recently observed p99 end-to-end latency (milliseconds, rounded) of
    /// invocations whose placement touched this worker; 0 until enough
    /// samples exist.
    pub recent_p99_ms: u32,
}

impl WorkerLoad {
    /// Container-units of live work: queued plus running instances.
    pub fn busy(&self) -> u32 {
        self.queued.saturating_add(self.running)
    }
}

/// The per-node metrics one partition iteration runs under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeMetrics {
    /// `Scale(v)`: average concurrent instances per function node
    /// (0 for virtual nodes).
    pub scale: Vec<f64>,
    /// `Map(v)`: average executor map (1 except foreach).
    pub map: Vec<f64>,
}

impl RuntimeMetrics {
    /// The first-iteration defaults: `Scale = parallelism` for functions
    /// (a foreach node needs `fanout` concurrent containers even before any
    /// runtime history exists), `Map = parallelism` from the definition.
    pub fn initial(dag: &WorkflowDag) -> Self {
        let n = dag.node_count();
        let mut scale = vec![0.0; n];
        let mut map = vec![1.0; n];
        for node in dag.nodes() {
            if node.kind.is_function() {
                scale[node.id.index()] = f64::from(node.parallelism);
                map[node.id.index()] = f64::from(node.parallelism);
            }
        }
        RuntimeMetrics { scale, map }
    }
}

/// Accumulates runtime observations between partition iterations.
///
/// The engines feed it; [`FeedbackCollector::finish`] produces the next
/// iteration's [`RuntimeMetrics`] and writes observed p99 latencies back
/// into the DAG's edge weights.
#[derive(Debug, Clone)]
pub struct FeedbackCollector {
    node_count: usize,
    /// Sum and count of concurrent-instance samples per node.
    scale_sum: Vec<f64>,
    scale_cnt: Vec<u64>,
    /// Sum and count of executor-map samples per node.
    map_sum: Vec<f64>,
    map_cnt: Vec<u64>,
    /// Observed read latency of each node's output.
    read_latency: Vec<Histogram>,
}

impl FeedbackCollector {
    /// A collector sized for one DAG.
    pub fn new(dag: &WorkflowDag) -> Self {
        FeedbackCollector {
            node_count: dag.node_count(),
            scale_sum: vec![0.0; dag.node_count()],
            scale_cnt: vec![0; dag.node_count()],
            map_sum: vec![0.0; dag.node_count()],
            map_cnt: vec![0; dag.node_count()],
            read_latency: vec![Histogram::new(); dag.node_count()],
        }
    }

    /// Records the concurrent-instance count observed for a node.
    pub fn observe_scale(&mut self, node: FunctionId, instances: u32) {
        self.scale_sum[node.index()] += f64::from(instances);
        self.scale_cnt[node.index()] += 1;
    }

    /// Records the executor map observed for a node (foreach fan-out).
    pub fn observe_map(&mut self, node: FunctionId, executors: u32) {
        self.map_sum[node.index()] += f64::from(executors);
        self.map_cnt[node.index()] += 1;
    }

    /// Records the latency of one read of `producer`'s output.
    pub fn observe_read(&mut self, producer: FunctionId, latency: SimDuration) {
        self.read_latency[producer.index()].record_duration(latency);
    }

    /// Produces the next iteration's metrics and sets each control edge's
    /// weight to the p99 read latency of its producer (edges whose producer
    /// was never read keep their current weight). Falls back to the
    /// previous metrics where no sample exists.
    pub fn finish(mut self, dag: &mut WorkflowDag, previous: &RuntimeMetrics) -> RuntimeMetrics {
        assert_eq!(
            self.node_count,
            dag.node_count(),
            "collector built for a different DAG"
        );
        let mut scale = previous.scale.clone();
        let mut map = previous.map.clone();
        for i in 0..self.node_count {
            if self.scale_cnt[i] > 0 {
                scale[i] = self.scale_sum[i] / self.scale_cnt[i] as f64;
            }
            if self.map_cnt[i] > 0 {
                map[i] = self.map_sum[i] / self.map_cnt[i] as f64;
            }
        }
        let p99: Vec<Option<SimDuration>> = self
            .read_latency
            .iter_mut()
            .map(|hist| hist.p99().map(SimDuration::from_millis_f64))
            .collect();
        for idx in 0..dag.edges().len() {
            if let Some(weight) = p99[dag.edges()[idx].from.index()] {
                dag.set_edge_weight(EdgeId::from_index(idx), weight);
            }
        }
        RuntimeMetrics { scale, map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};

    fn dag() -> WorkflowDag {
        let wf = Workflow::steps(
            "fb",
            Step::sequence(vec![
                Step::task("a", FunctionProfile::with_millis(5, 1000)),
                Step::foreach("b", FunctionProfile::with_millis(5, 1000), 4),
                Step::task("c", FunctionProfile::with_millis(5, 0)),
            ]),
        );
        DagParser::default().parse(&wf).expect("valid workflow")
    }

    #[test]
    fn initial_metrics_reflect_definition() {
        let d = dag();
        let m = RuntimeMetrics::initial(&d);
        let b = d.nodes().iter().find(|n| n.name == "b").unwrap().id;
        assert_eq!(m.map[b.index()], 4.0);
        assert_eq!(m.scale[b.index()], 4.0, "foreach demands fanout containers");
        // Virtual nodes scale 0.
        let virt = d.nodes().iter().find(|n| !n.kind.is_function()).unwrap().id;
        assert_eq!(m.scale[virt.index()], 0.0);
    }

    #[test]
    fn scale_averages_observations() {
        let mut d = dag();
        let prev = RuntimeMetrics::initial(&d);
        let mut fc = FeedbackCollector::new(&d);
        let a = d.nodes().iter().find(|n| n.name == "a").unwrap().id;
        fc.observe_scale(a, 2);
        fc.observe_scale(a, 4);
        let next = fc.finish(&mut d, &prev);
        assert_eq!(next.scale[a.index()], 3.0);
        // Unobserved nodes keep their previous values.
        let c = d.nodes().iter().find(|n| n.name == "c").unwrap().id;
        assert_eq!(next.scale[c.index()], 1.0);
    }

    #[test]
    fn edge_p99_updates_dag_weights() {
        let mut d = dag();
        let prev = RuntimeMetrics::initial(&d);
        let eid = d.edges()[0].id;
        let producer = d.edge(eid).from;
        assert_eq!(d.successors(producer).len(), 1, "one out-edge");
        let before = d.edge(eid).weight;
        let mut fc = FeedbackCollector::new(&d);
        for ms in [10u64, 20, 30, 1000] {
            fc.observe_read(producer, SimDuration::from_millis(ms));
        }
        fc.finish(&mut d, &prev);
        let after = d.edge(eid).weight;
        assert_ne!(before, after);
        assert_eq!(
            after,
            SimDuration::from_secs(1),
            "p99 of 4 samples is the max"
        );
        // Other edges untouched.
        assert_eq!(d.edges()[1].weight, {
            let fresh = dag();
            fresh.edges()[1].weight
        });
    }

    #[test]
    fn map_feedback_for_foreach() {
        let mut d = dag();
        let prev = RuntimeMetrics::initial(&d);
        let b = d.nodes().iter().find(|n| n.name == "b").unwrap().id;
        let mut fc = FeedbackCollector::new(&d);
        fc.observe_map(b, 8);
        let next = fc.finish(&mut d, &prev);
        assert_eq!(next.map[b.index()], 8.0);
    }
}
