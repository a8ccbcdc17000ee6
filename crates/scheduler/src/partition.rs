//! Algorithm 1: functions grouping and scheduling.
//!
//! A faithful transcription of the paper's listing. Each function node
//! starts as its own group on a hash/random worker (line 1, the
//! "hash-based partition" of the first iteration, §4.1.2). The algorithm
//! then repeatedly:
//!
//! 1. computes the critical path of the DAG under *effective* weights
//!    (edges inside one group are local and cheap),
//! 2. walks its cross-group edges in descending weight order,
//! 3. merges the first pair of groups that passes every constraint:
//!    * the merged group's container demand `Σ ⌈Scale(v)⌉` must fit some
//!      worker (line 12),
//!    * localising the edge must not overrun the workflow's in-memory
//!      quota `Quota(G)` (lines 13–18) — on success the producer's
//!      `StorageType` flips to `MEM`,
//!    * no contention pair `cont(G)` may end up co-grouped (lines 19–20),
//! 4. bin-packs the merged group onto a worker (line 21),
//!
//! and stops when a full pass makes no merge (line 26).

use faasflow_sim::{FastSet, FunctionId, GroupId, NodeId, SimDuration, SimRng};
use faasflow_wdl::{EdgeId, WorkflowDag};
use serde::{Deserialize, Serialize};

use crate::error::ScheduleError;
use crate::feedback::{RuntimeMetrics, WorkerLoad};

/// How merged groups are placed onto workers (Algorithm 1 line 21).
///
/// Note on ties: in legacy mode (see [`PlacementConfig`]) both strategies
/// break capacity ties toward the lowest worker index, so on a fresh
/// cluster every small workflow's merged group lands on worker 0 and the
/// cluster serializes on that node. The load-aware mode replaces the index
/// tie-break with least-loaded/locality scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// Best fit: the worker with the *least* sufficient residual capacity.
    /// Packs tightly, concentrating groups on few nodes.
    BestFit,
    /// Worst fit: the worker with the *most* residual capacity. This is the
    /// load balancer of §4.1.3 ("function nodes with less data movement
    /// will be scheduled to balance the load and resource") and reproduces
    /// Figure 15's distribution: large multi-group workflows spread across
    /// all workers, small single-group applications stay on one.
    #[default]
    WorstFit,
}

/// Cluster-wide placement tuning: the load- and locality-aware layer on top
/// of Algorithm 1's bin-packing.
///
/// `Default` is the tested least-loaded configuration. The simulated
/// cluster opts *out* explicitly via [`PlacementConfig::legacy`], which
/// keeps the original behavior — random initial placement and the
/// worker-0-biased capacity tie-break — bit-identical so historical goldens
/// stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Master switch. When false, placement is byte-identical to the
    /// pre-placement-layer builds (same comparisons, same RNG draws).
    pub enabled: bool,
    /// Data-edge affinity below this many bytes is ignored when scoring a
    /// merged group's candidate workers; above it, co-locating the edge
    /// (a FaaStore local hit) outranks residual capacity.
    pub locality_threshold_bytes: u64,
    /// The cluster's incremental rebalancer fires when the most-loaded
    /// worker holds more than this percentage of the mean per-worker placed
    /// group count (e.g. 200 = twice the mean). Must be ≥ 100.
    pub skew_threshold_pct: u32,
    /// Minimum completed invocations between skew-triggered rebalance
    /// sweeps. Must be ≥ 1 when enabled.
    pub rebalance_cooldown: u32,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            enabled: true,
            locality_threshold_bytes: 64 << 10,
            skew_threshold_pct: 200,
            rebalance_cooldown: 16,
        }
    }
}

impl PlacementConfig {
    /// The pre-placement-layer behavior: random initial placement and the
    /// lowest-index capacity tie-break. Bit-identical to builds that
    /// predate the placement layer.
    pub fn legacy() -> Self {
        PlacementConfig {
            enabled: false,
            ..PlacementConfig::default()
        }
    }
}

/// Effective weight of an edge whose endpoints share a group (local
/// memory transfer — nearly free compared to the network).
const LOCAL_EDGE_WEIGHT: SimDuration = SimDuration::from_micros(200);

/// Partitioner tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Safety bound on merge iterations (the algorithm terminates after at
    /// most `n-1` merges anyway; this guards against regressions).
    pub max_merges: u32,
    /// Group placement policy.
    pub placement: PlacementStrategy,
    /// Load- and locality-aware placement tuning.
    #[serde(default)]
    pub placement_config: PlacementConfig,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            max_merges: 100_000,
            placement: PlacementStrategy::WorstFit,
            placement_config: PlacementConfig::default(),
        }
    }
}

/// One worker node and its container capacity — the paper's `Cap[node]`,
/// "a list of the capacity of containers left to be created on each node".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerInfo {
    /// The worker's node id in the cluster.
    pub node: NodeId,
    /// Containers this node can still host. The cluster passes *residual*
    /// capacity here when load-aware placement is enabled (nominal minus
    /// live instances), nominal capacity otherwise.
    pub capacity: u32,
    /// Live load snapshot used to score otherwise-equal candidates.
    #[serde(default)]
    pub load: WorkerLoad,
}

impl WorkerInfo {
    /// Creates an unloaded worker descriptor.
    pub fn new(node: NodeId, capacity: u32) -> Self {
        WorkerInfo {
            node,
            capacity,
            load: WorkerLoad::default(),
        }
    }

    /// Attaches a live load snapshot.
    pub fn with_load(mut self, load: WorkerLoad) -> Self {
        self.load = load;
        self
    }
}

/// Function pairs that must not share a group — the paper's
/// `cont(G) = {(f_i, f_j)}`, fed by orthogonal interference predictors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContentionSet {
    pairs: FastSet<(FunctionId, FunctionId)>,
}

impl ContentionSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ContentionSet::default()
    }

    /// Declares `a` and `b` conflicting (order-insensitive).
    pub fn declare(&mut self, a: FunctionId, b: FunctionId) {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.pairs.insert(pair);
    }

    /// True when `a` and `b` conflict.
    pub fn conflicts(&self, a: FunctionId, b: FunctionId) -> bool {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.pairs.contains(&pair)
    }

    /// Number of declared pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair is declared.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// One function group (sub-graph) assigned to a worker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    /// Stable group id.
    pub id: GroupId,
    /// Member DAG nodes (functions and virtual brackets), ascending.
    pub members: Vec<FunctionId>,
    /// The worker hosting the group.
    pub worker: NodeId,
    /// Container demand `Σ ⌈Scale(v)⌉` of the members.
    pub capacity_needed: u32,
}

/// The partitioner's output: groups, per-node placement, and per-function
/// storage classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// The function groups, in stable id order.
    pub groups: Vec<Group>,
    /// Worker of each DAG node, indexed by [`FunctionId::index`].
    pub node_of: Vec<NodeId>,
    /// Group of each DAG node.
    pub group_of: Vec<GroupId>,
    /// Algorithm 1's `f.StorageType == 'MEM'`: whether the node's output
    /// may reside in local memory.
    pub storage_local: Vec<bool>,
    /// Bytes of edge data localised in memory (`mem_consume`).
    pub mem_consume: u64,
    /// The quota the partition ran under.
    pub quota: u64,
}

impl Assignment {
    /// The worker hosting a DAG node.
    pub fn worker_of(&self, node: FunctionId) -> NodeId {
        self.node_of[node.index()]
    }

    /// True when at least one DAG node is routed to `worker` — i.e. the
    /// worker's engine plays a part in invocations pinned to this
    /// assignment (crash recovery skips uninvolved engines).
    pub fn involves(&self, worker: NodeId) -> bool {
        self.node_of.contains(&worker)
    }

    /// Per-worker group distribution (Figure 15): `(worker, group count,
    /// function count)` sorted by worker.
    pub fn distribution(&self, dag: &WorkflowDag) -> Vec<(NodeId, usize, usize)> {
        let mut per: std::collections::BTreeMap<NodeId, (usize, usize)> =
            std::collections::BTreeMap::new();
        for g in &self.groups {
            let funcs = g
                .members
                .iter()
                .filter(|&&m| dag.node(m).kind.is_function())
                .count();
            let entry = per.entry(g.worker).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += funcs;
        }
        per.into_iter().map(|(n, (g, f))| (n, g, f)).collect()
    }

    /// Rough resident size of this assignment (Figure 16's scheduler memory
    /// series): sums the owned buffers.
    pub fn approx_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.groups
            .iter()
            .map(|g| size_of::<Group>() + g.members.len() * size_of::<FunctionId>())
            .sum::<usize>()
            + self.node_of.len() * size_of::<NodeId>()
            + self.group_of.len() * size_of::<GroupId>()
            + self.storage_local.len()
    }
}

/// The Graph Scheduler's partitioner.
#[derive(Debug, Clone, Default)]
pub struct GraphScheduler {
    config: PartitionConfig,
}

impl GraphScheduler {
    /// A scheduler with explicit configuration.
    pub fn new(config: PartitionConfig) -> Self {
        GraphScheduler { config }
    }

    /// Runs Algorithm 1.
    ///
    /// `quota` is `Quota(G)` from Eq. (2) (pass `u64::MAX` to disable the
    /// memory constraint, `0` to forbid localisation entirely — the plain
    /// FaaSFlow-without-FaaStore configuration).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when no worker exists, the metrics don't
    /// match the DAG, or the initial singleton groups cannot be placed.
    pub fn partition(
        &self,
        dag: &WorkflowDag,
        workers: &[WorkerInfo],
        metrics: &RuntimeMetrics,
        contention: &ContentionSet,
        quota: u64,
        rng: &mut SimRng,
    ) -> Result<Assignment, ScheduleError> {
        if workers.is_empty() {
            return Err(ScheduleError::NoWorkers);
        }
        if metrics.scale.len() != dag.node_count() {
            return Err(ScheduleError::MetricsMismatch {
                expected: dag.node_count(),
                actual: metrics.scale.len(),
            });
        }

        // Load-aware mode rotates the deterministic tie-break order once
        // per partition (a single RNG draw), so equal-score ties land on
        // different workers across successive partitions instead of always
        // on index 0. Legacy mode draws nothing here, keeping the RNG
        // stream — and therefore every historical golden — bit-identical.
        let rot = if self.config.placement_config.enabled {
            (rng.next_u64() % workers.len() as u64) as usize
        } else {
            0
        };

        let n = dag.node_count();
        // Container demand of each node: ⌈Scale(v)⌉ (0 for virtual nodes).
        let demand: Vec<u32> = (0..n)
            .map(|i| {
                let node = dag.node(FunctionId::from(i));
                if node.kind.is_function() {
                    metrics.scale[i].ceil().max(1.0) as u32
                } else {
                    0
                }
            })
            .collect();

        // Line 1: singleton groups on random workers (hash partition).
        let mut cap: Vec<i64> = workers.iter().map(|w| i64::from(w.capacity)).collect();
        let mut group_of: Vec<usize> = (0..n).collect();
        // members[g] empty ⇒ group g was absorbed.
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut worker_of_group: Vec<usize> = Vec::with_capacity(n);
        for &node_demand in demand.iter().take(n) {
            let w = self
                .place_initial(workers, &cap, node_demand, rot, rng)
                .ok_or_else(|| ScheduleError::InsufficientCapacity {
                    required: node_demand,
                    largest_free: cap.iter().copied().max().unwrap_or(0).max(0) as u32,
                })?;
            cap[w] -= i64::from(node_demand);
            worker_of_group.push(w);
        }

        // Line 2.
        let mut storage_local = vec![false; n];
        let mut mem_consume: u64 = 0;

        let group_demand =
            |members: &[usize], demand: &[u32]| -> u32 { members.iter().map(|&m| demand[m]).sum() };

        // Lines 3–26.
        let mut merges = 0;
        loop {
            if merges >= self.config.max_merges {
                break;
            }
            // Line 4: critical path under effective weights.
            let (_, cpath_edges) = dag.critical_path_with(|e| {
                if group_of[e.from.index()] == group_of[e.to.index()] {
                    LOCAL_EDGE_WEIGHT.min(e.weight)
                } else {
                    e.weight
                }
            });
            // Line 5: descending weight.
            let mut edges: Vec<EdgeId> = cpath_edges;
            edges.sort_by_key(|&e| std::cmp::Reverse(dag.edge(e).weight));

            let mut merged = false;
            for eid in edges {
                let e = dag.edge(eid);
                let (fs, fe) = (e.from.index(), e.to.index());
                let (gs, ge) = (group_of[fs], group_of[fe]);
                if gs == ge {
                    continue; // line 9
                }
                // Lines 10–12: capacity feasibility. Free both groups'
                // demands, then check the best fit.
                let n_start = group_demand(&members[gs], &demand);
                let n_end = group_demand(&members[ge], &demand);
                let need = i64::from(n_start) + i64::from(n_end);
                let fits_somewhere = (0..workers.len()).any(|w| {
                    let mut free = cap[w];
                    if worker_of_group[gs] == w {
                        free += i64::from(n_start);
                    }
                    if worker_of_group[ge] == w {
                        free += i64::from(n_end);
                    }
                    free >= need
                });
                if !fits_somewhere {
                    continue;
                }
                // Lines 13–18: in-memory quota for localising this edge.
                // Virtual bracket nodes only *relay* a function's output;
                // the quota is charged once, on the real producer's edge,
                // or a single logical transfer routed through a bracket
                // would be double-billed.
                if dag.node(e.from).kind.is_function() && !storage_local[fs] {
                    if mem_consume.saturating_add(e.bytes) > quota {
                        continue;
                    }
                    mem_consume += e.bytes;
                    storage_local[fs] = true;
                }
                // Lines 19–20: contention pairs must not be co-grouped.
                let conflict = members[gs].iter().any(|&a| {
                    members[ge]
                        .iter()
                        .any(|&b| contention.conflicts(FunctionId::from(a), FunctionId::from(b)))
                });
                if conflict {
                    continue;
                }
                // Line 21: bin-pack the merged group onto a worker.
                cap[worker_of_group[gs]] += i64::from(n_start);
                cap[worker_of_group[ge]] += i64::from(n_end);
                let target = if self.config.placement_config.enabled {
                    self.place_merged(
                        dag,
                        workers,
                        &cap,
                        &group_of,
                        &worker_of_group,
                        gs,
                        ge,
                        need,
                        rot,
                    )
                } else {
                    let candidates = (0..workers.len()).filter(|&w| cap[w] >= need);
                    match self.config.placement {
                        PlacementStrategy::BestFit => candidates.min_by_key(|&w| (cap[w], w)),
                        PlacementStrategy::WorstFit => {
                            candidates.max_by_key(|&w| (cap[w], std::cmp::Reverse(w)))
                        }
                    }
                }
                .expect("fits_somewhere guaranteed a target");
                cap[target] -= need;
                // Lines 22–24: merge ge into gs.
                let moved = std::mem::take(&mut members[ge]);
                for &m in &moved {
                    group_of[m] = gs;
                }
                members[gs].extend(moved);
                worker_of_group[gs] = target;
                merges += 1;
                merged = true;
                break;
            }
            if !merged {
                break; // line 26
            }
        }

        // Assemble the output in stable order.
        let mut groups = Vec::new();
        let mut group_ids = vec![GroupId::new(0); n];
        let mut node_of = vec![NodeId::new(0); n];
        let mut next_gid = 0u32;
        for g in 0..n {
            if members[g].is_empty() {
                continue;
            }
            let gid = GroupId::new(next_gid);
            next_gid += 1;
            let mut ms: Vec<usize> = members[g].clone();
            ms.sort_unstable();
            let worker = workers[worker_of_group[g]].node;
            for &m in &ms {
                group_ids[m] = gid;
                node_of[m] = worker;
            }
            groups.push(Group {
                id: gid,
                members: ms.iter().map(|&m| FunctionId::from(m)).collect(),
                worker,
                capacity_needed: group_demand(&members[g], &demand),
            });
        }

        Ok(Assignment {
            groups,
            node_of,
            group_of: group_ids,
            storage_local,
            mem_consume,
            quota,
        })
    }

    /// Initial placement among workers that can host `demand` (Algorithm 1
    /// line 1). Legacy mode picks uniformly at random (the paper's hash
    /// partition); load-aware mode picks the least-loaded feasible worker
    /// deterministically: most residual capacity, then the calmest recent
    /// tail and memory pressure, then the rotated index.
    fn place_initial(
        &self,
        workers: &[WorkerInfo],
        cap: &[i64],
        demand: u32,
        rot: usize,
        rng: &mut SimRng,
    ) -> Option<usize> {
        if self.config.placement_config.enabled {
            let n = cap.len();
            (0..n)
                .filter(|&w| cap[w] >= i64::from(demand))
                .max_by_key(|&w| {
                    let l = workers[w].load;
                    (
                        cap[w],
                        std::cmp::Reverse(l.recent_p99_ms),
                        std::cmp::Reverse(l.mem_used_bytes),
                        std::cmp::Reverse((w + n - rot) % n),
                    )
                })
        } else {
            let feasible: Vec<usize> = (0..cap.len())
                .filter(|&w| cap[w] >= i64::from(demand))
                .collect();
            rng.pick(&feasible).copied()
        }
    }

    /// Load- and locality-aware variant of Algorithm 1's line 21: among the
    /// workers that can host the merged group `gs ∪ ge`, prefer (1) the
    /// worker already holding the heaviest data traffic with the merged
    /// members — placing the group there turns those edges into FaaStore
    /// local hits — then (2) the strategy's capacity preference and calmest
    /// live load, with the rotated index as the final deterministic
    /// tie-break. Affinity below `locality_threshold_bytes` is ignored so
    /// trivial edges cannot override load balancing.
    #[allow(clippy::too_many_arguments)]
    fn place_merged(
        &self,
        dag: &WorkflowDag,
        workers: &[WorkerInfo],
        cap: &[i64],
        group_of: &[usize],
        worker_of_group: &[usize],
        gs: usize,
        ge: usize,
        need: i64,
        rot: usize,
    ) -> Option<usize> {
        let n = workers.len();
        let mut affinity = vec![0u64; n];
        for d in dag.data_edges() {
            let p = d.producer.index();
            let c = d.consumer.index();
            let p_in = group_of[p] == gs || group_of[p] == ge;
            let c_in = group_of[c] == gs || group_of[c] == ge;
            if p_in != c_in {
                let outside = if p_in { c } else { p };
                affinity[worker_of_group[group_of[outside]]] += d.bytes;
            }
        }
        let threshold = self.config.placement_config.locality_threshold_bytes;
        let aff = |w: usize| {
            if affinity[w] >= threshold {
                affinity[w]
            } else {
                0
            }
        };
        let candidates = (0..n).filter(|&w| cap[w] >= need);
        match self.config.placement {
            PlacementStrategy::BestFit => candidates.max_by_key(|&w| {
                let l = workers[w].load;
                (
                    aff(w),
                    std::cmp::Reverse(cap[w]),
                    std::cmp::Reverse(l.recent_p99_ms),
                    std::cmp::Reverse(l.mem_used_bytes),
                    std::cmp::Reverse((w + n - rot) % n),
                )
            }),
            PlacementStrategy::WorstFit => candidates.max_by_key(|&w| {
                let l = workers[w].load;
                (
                    aff(w),
                    cap[w],
                    std::cmp::Reverse(l.recent_p99_ms),
                    std::cmp::Reverse(l.mem_used_bytes),
                    std::cmp::Reverse((w + n - rot) % n),
                )
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};

    fn parse(wf: &Workflow) -> WorkflowDag {
        DagParser::default().parse(wf).expect("valid workflow")
    }

    fn workers(n: u32, capacity: u32) -> Vec<WorkerInfo> {
        (0..n)
            .map(|i| WorkerInfo::new(NodeId::new(i + 1), capacity))
            .collect()
    }

    fn chain(names_out: &[(&str, u64)]) -> Workflow {
        Workflow::steps(
            "chain",
            Step::sequence(
                names_out
                    .iter()
                    .map(|(n, out)| Step::task(*n, FunctionProfile::with_millis(10, *out)))
                    .collect(),
            ),
        )
    }

    fn run(dag: &WorkflowDag, ws: &[WorkerInfo], cont: &ContentionSet, quota: u64) -> Assignment {
        let metrics = RuntimeMetrics::initial(dag);
        let mut rng = SimRng::seed_from(42);
        GraphScheduler::default()
            .partition(dag, ws, &metrics, cont, quota, &mut rng)
            .expect("partition succeeds")
    }

    #[test]
    fn heavy_chain_collapses_into_one_group() {
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let a = run(&dag, &workers(4, 64), &ContentionSet::default(), u64::MAX);
        assert_eq!(a.groups.len(), 1, "all three merge along heavy edges");
        let w = a.node_of[0];
        assert!(a.node_of.iter().all(|&n| n == w));
        // Both producers flipped to MEM.
        assert!(a.storage_local[0] && a.storage_local[1]);
        assert_eq!(a.mem_consume, 100 << 20);
    }

    #[test]
    fn zero_quota_blocks_localisation() {
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let a = run(&dag, &workers(4, 64), &ContentionSet::default(), 0);
        assert!(
            a.groups.len() > 1,
            "no merge is possible when nothing can be localised"
        );
        assert!(a.storage_local.iter().all(|&s| !s));
        assert_eq!(a.mem_consume, 0);
    }

    #[test]
    fn quota_limits_how_much_merges() {
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        // Quota admits exactly one 50MB edge.
        let a = run(&dag, &workers(4, 64), &ContentionSet::default(), 50 << 20);
        assert_eq!(a.mem_consume, 50 << 20);
        assert_eq!(
            a.storage_local.iter().filter(|&&s| s).count(),
            1,
            "only one producer localises"
        );
        assert_eq!(a.groups.len(), 2);
    }

    #[test]
    fn contention_pair_never_cogrouped() {
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let a_id = dag.nodes().iter().find(|n| n.name == "a").unwrap().id;
        let b_id = dag.nodes().iter().find(|n| n.name == "b").unwrap().id;
        let mut cont = ContentionSet::new();
        cont.declare(a_id, b_id);
        let a = run(&dag, &workers(4, 64), &cont, u64::MAX);
        assert_ne!(
            a.group_of[a_id.index()],
            a.group_of[b_id.index()],
            "conflicting functions stay apart"
        );
    }

    #[test]
    fn capacity_forces_spreading() {
        // Each function demands 1 container; workers hold only 1 each, so
        // no merge can ever fit 2.
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let a = run(&dag, &workers(3, 1), &ContentionSet::default(), u64::MAX);
        assert_eq!(a.groups.len(), 3);
    }

    #[test]
    fn no_workers_is_an_error() {
        let wf = chain(&[("a", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let mut rng = SimRng::seed_from(1);
        let res = GraphScheduler::default().partition(
            &dag,
            &[],
            &metrics,
            &ContentionSet::default(),
            u64::MAX,
            &mut rng,
        );
        assert_eq!(res.unwrap_err(), ScheduleError::NoWorkers);
    }

    #[test]
    fn insufficient_capacity_is_an_error() {
        let wf = chain(&[("a", 0), ("b", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let mut rng = SimRng::seed_from(1);
        let res = GraphScheduler::default().partition(
            &dag,
            &workers(1, 1), // only 1 container total, 2 needed
            &metrics,
            &ContentionSet::default(),
            u64::MAX,
            &mut rng,
        );
        assert!(matches!(
            res,
            Err(ScheduleError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn scale_feedback_raises_demand() {
        let wf = chain(&[("a", 1 << 20), ("b", 0)]);
        let dag = parse(&wf);
        let mut metrics = RuntimeMetrics::initial(&dag);
        metrics.scale[0] = 5.0; // a scaled to ~5 instances at runtime
        let mut rng = SimRng::seed_from(1);
        let a = GraphScheduler::default()
            .partition(
                &dag,
                &workers(2, 6),
                &metrics,
                &ContentionSet::default(),
                u64::MAX,
                &mut rng,
            )
            .expect("fits");
        let ga = &a.groups[a.group_of[0].index()];
        assert!(ga.capacity_needed >= 5);
    }

    #[test]
    fn every_node_lands_in_exactly_one_group() {
        let wf = Workflow::steps(
            "mix",
            Step::sequence(vec![
                Step::task("s", FunctionProfile::with_millis(5, 4 << 20)),
                Step::parallel(vec![
                    Step::task("p0", FunctionProfile::with_millis(5, 1 << 20)),
                    Step::task("p1", FunctionProfile::with_millis(5, 2 << 20)),
                ]),
                Step::foreach("fe", FunctionProfile::with_millis(5, 8 << 20), 4),
                Step::task("t", FunctionProfile::with_millis(5, 0)),
            ]),
        );
        let dag = parse(&wf);
        let a = run(&dag, &workers(3, 32), &ContentionSet::default(), u64::MAX);
        let mut seen = vec![0usize; dag.node_count()];
        for g in &a.groups {
            for m in &g.members {
                seen[m.index()] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "partition covers every node once"
        );
        // Consistency between group list and lookup vectors.
        for g in &a.groups {
            for m in &g.members {
                assert_eq!(a.group_of[m.index()], g.id);
                assert_eq!(a.node_of[m.index()], g.worker);
            }
        }
    }

    #[test]
    fn distribution_reports_all_groups() {
        let wf = chain(&[("a", 1), ("b", 1), ("c", 0)]);
        let dag = parse(&wf);
        let a = run(&dag, &workers(2, 64), &ContentionSet::default(), u64::MAX);
        let dist = a.distribution(&dag);
        let groups: usize = dist.iter().map(|&(_, g, _)| g).sum();
        assert_eq!(groups, a.groups.len());
        let funcs: usize = dist.iter().map(|&(_, _, f)| f).sum();
        assert_eq!(funcs, dag.function_count());
        assert!(a.approx_memory_bytes() > 0);
    }

    #[test]
    fn default_placement_config_is_least_loaded() {
        // Satellite: the new least-loaded tie-break is the *default* of
        // PlacementConfig; legacy() is the explicit opt-out.
        assert!(PlacementConfig::default().enabled);
        assert!(!PlacementConfig::legacy().enabled);
        assert!(PartitionConfig::default().placement_config.enabled);
    }

    fn legacy_scheduler() -> GraphScheduler {
        GraphScheduler::new(PartitionConfig {
            placement_config: PlacementConfig::legacy(),
            ..PartitionConfig::default()
        })
    }

    #[test]
    fn legacy_tiebreak_piles_merges_onto_worker_zero() {
        // Documents the worker-0 bias: on a fresh cluster all capacities
        // tie, both strategies break toward the lowest index, and every
        // small workflow's merged group lands on the first worker.
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        for seed in 0..8 {
            let mut rng = SimRng::seed_from(seed);
            let a = legacy_scheduler()
                .partition(
                    &dag,
                    &workers(4, 64),
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .expect("partition succeeds");
            assert_eq!(a.groups.len(), 1);
            assert!(
                a.node_of.iter().all(|&w| w == NodeId::new(1)),
                "legacy merge always targets the first worker"
            );
        }
    }

    #[test]
    fn load_aware_tiebreak_avoids_hot_worker() {
        // Equal residual capacity everywhere, but workers 0 and 2 carry a
        // hot recent tail: the merged group must land on the calm worker 1.
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let hot = WorkerLoad {
            recent_p99_ms: 900,
            ..WorkerLoad::default()
        };
        let ws = vec![
            WorkerInfo::new(NodeId::new(1), 64).with_load(hot),
            WorkerInfo::new(NodeId::new(2), 64),
            WorkerInfo::new(NodeId::new(3), 64).with_load(hot),
        ];
        let mut rng = SimRng::seed_from(42);
        let a = GraphScheduler::default()
            .partition(
                &dag,
                &ws,
                &metrics,
                &ContentionSet::default(),
                u64::MAX,
                &mut rng,
            )
            .expect("partition succeeds");
        assert_eq!(a.groups.len(), 1);
        assert!(a.node_of.iter().all(|&w| w == NodeId::new(2)));
    }

    #[test]
    fn load_aware_respects_residual_capacity() {
        // Worker 0 reports almost no residual room (the cluster already
        // subtracted its live load); the whole chain must go elsewhere.
        let wf = chain(&[("a", 50 << 20), ("b", 50 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let ws = vec![
            WorkerInfo::new(NodeId::new(1), 1).with_load(WorkerLoad {
                running: 11,
                ..WorkerLoad::default()
            }),
            WorkerInfo::new(NodeId::new(2), 64),
        ];
        let mut rng = SimRng::seed_from(42);
        let a = GraphScheduler::default()
            .partition(
                &dag,
                &ws,
                &metrics,
                &ContentionSet::default(),
                u64::MAX,
                &mut rng,
            )
            .expect("partition succeeds");
        assert_eq!(a.groups.len(), 1);
        assert!(a.node_of.iter().all(|&w| w == NodeId::new(2)));
    }

    #[test]
    fn locality_pulls_merge_toward_its_data() {
        // Only one merge is allowed. {a,b} merge along the 50MB edge; the
        // 10MB edge b→c should pull the merged group onto whichever worker
        // already hosts c, co-locating the heavy data edge.
        let wf = chain(&[("a", 50 << 20), ("b", 10 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let sched = GraphScheduler::new(PartitionConfig {
            max_merges: 1,
            ..PartitionConfig::default()
        });
        for seed in 0..8 {
            let mut rng = SimRng::seed_from(seed);
            let a = sched
                .partition(
                    &dag,
                    &workers(3, 64),
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .expect("partition succeeds");
            assert_eq!(a.groups.len(), 2, "exactly one merge happened");
            let ca = a.worker_of(dag.nodes().iter().find(|n| n.name == "a").unwrap().id);
            let cb = a.worker_of(dag.nodes().iter().find(|n| n.name == "b").unwrap().id);
            let cc = a.worker_of(dag.nodes().iter().find(|n| n.name == "c").unwrap().id);
            assert_eq!(ca, cb, "a and b merged");
            assert_eq!(ca, cc, "the merged group moved onto c's worker");
        }
    }

    #[test]
    fn load_aware_partition_is_deterministic_for_a_seed() {
        let wf = chain(&[("a", 9 << 20), ("b", 3 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let hot = WorkerLoad {
            queued: 3,
            running: 2,
            mem_used_bytes: 5 << 20,
            recent_p99_ms: 120,
        };
        let mk = || {
            let mut rng = SimRng::seed_from(123);
            GraphScheduler::default()
                .partition(
                    &dag,
                    &[
                        WorkerInfo::new(NodeId::new(1), 16).with_load(hot),
                        WorkerInfo::new(NodeId::new(2), 16),
                        WorkerInfo::new(NodeId::new(3), 9),
                    ],
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .expect("partition succeeds")
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn partition_is_deterministic_for_a_seed() {
        let wf = chain(&[("a", 9 << 20), ("b", 3 << 20), ("c", 0)]);
        let dag = parse(&wf);
        let metrics = RuntimeMetrics::initial(&dag);
        let mk = || {
            let mut rng = SimRng::seed_from(123);
            GraphScheduler::default()
                .partition(
                    &dag,
                    &workers(4, 16),
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .expect("partition succeeds")
        };
        assert_eq!(mk(), mk());
    }
}
