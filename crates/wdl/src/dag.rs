//! The parsed workflow DAG.
//!
//! A [`WorkflowDag`] carries two graphs over one node set:
//!
//! * **Control edges** — the user-defined execution order, including the
//!   virtual start/end nodes the parser inserts around parallel, switch and
//!   foreach steps. Triggering (`PredecessorsDone == PredecessorsCount`,
//!   §3.1) and graph partitioning (Algorithm 1) walk these.
//! * **Data edges** — producer function → consumer function pairs obtained
//!   by looking *through* the virtual nodes. The engines move bytes along
//!   these; virtual nodes never hold data.
//!
//! Edge weights start as an analytic estimate (bytes over a reference
//! bandwidth) and are replaced by observed 99-percentile transfer latencies
//! at runtime ("DAG Parser ... calculates the 99%-ile latency of data
//! transmission between adjacent nodes as edge weight", §4.1.1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use faasflow_sim::{FunctionId, SimDuration};
use serde::{Deserialize, Serialize};

use crate::error::WdlError;
use crate::profile::FunctionProfile;

/// Identifier of a control edge within one [`WorkflowDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// The raw index, usable for dense `Vec` indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from an index previously obtained via
    /// [`EdgeId::index`] (e.g. when iterating dense per-edge tables).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32"))
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "edge{}", self.0)
    }
}

/// What a DAG node is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A real function with a behavioural profile.
    Function(FunctionProfile),
    /// Virtual start bracket of a parallel/switch/foreach step. For a
    /// switch, `switch_arms` is the number of alternative arms; the engine
    /// selects one arm per invocation.
    VirtualStart {
        /// `Some(n)` when this bracket opens a switch with `n` arms.
        switch_arms: Option<u32>,
    },
    /// Virtual end bracket of a parallel/switch/foreach step.
    VirtualEnd,
}

impl NodeKind {
    /// True for real function nodes.
    pub fn is_function(&self) -> bool {
        matches!(self, NodeKind::Function(_))
    }

    /// The profile of a function node, if any.
    pub fn profile(&self) -> Option<&FunctionProfile> {
        match self {
            NodeKind::Function(p) => Some(p),
            _ => None,
        }
    }
}

/// How a node's predecessors gate its trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinKind {
    /// Every control predecessor must complete (the common case).
    All,
    /// One completing predecessor suffices (switch virtual ends: exactly one
    /// arm runs per invocation).
    Any,
}

/// One node of the workflow DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagNode {
    /// Dense node id (virtual nodes included).
    pub id: FunctionId,
    /// Name: the task name for functions, a generated bracket name for
    /// virtual nodes.
    pub name: String,
    /// Function or virtual bracket.
    pub kind: NodeKind,
    /// Trigger semantics.
    pub join: JoinKind,
    /// Parallel executor instances — the paper's `Map(v)`; 1 except for
    /// foreach nodes.
    pub parallelism: u32,
}

impl DagNode {
    /// Mean execution time used for critical-path estimates (zero for
    /// virtual nodes).
    pub fn exec_mean(&self) -> SimDuration {
        match &self.kind {
            NodeKind::Function(p) => p.exec_mean,
            _ => SimDuration::ZERO,
        }
    }
}

/// One control edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagEdge {
    /// Dense edge id.
    pub id: EdgeId,
    /// Producer side.
    pub from: FunctionId,
    /// Consumer side.
    pub to: FunctionId,
    /// Bytes crossing this edge per invocation (0 on purely structural
    /// virtual edges).
    pub bytes: u64,
    /// Current weight: estimated or observed 99-percentile transfer latency.
    pub weight: SimDuration,
    /// `Some(arm)` when this edge leaves a switch virtual start: it is only
    /// taken when the engine selects that arm.
    pub switch_arm: Option<u32>,
}

/// A direct producer→consumer data dependency between two *function* nodes
/// (virtual nodes looked through).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataEdge {
    /// Producing function node.
    pub producer: FunctionId,
    /// Consuming function node.
    pub consumer: FunctionId,
    /// Bytes the consumer reads from this producer per invocation.
    pub bytes: u64,
}

/// The parsed workflow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowDag {
    name: String,
    nodes: Vec<DagNode>,
    edges: Vec<DagEdge>,
    data_edges: Vec<DataEdge>,
    /// successors[v] = (edge, target) pairs, in insertion order.
    successors: Vec<Vec<(EdgeId, FunctionId)>>,
    /// predecessors[v] = (edge, source) pairs, in insertion order.
    predecessors: Vec<Vec<(EdgeId, FunctionId)>>,
    topo: Vec<FunctionId>,
}

impl WorkflowDag {
    /// Assembles a DAG from parts and the [`topo_sort`] order of its
    /// edges. Used by the parser; panics on structural inconsistencies
    /// because the parser validates first.
    ///
    /// # Panics
    ///
    /// Panics if edges reference out-of-range nodes or `topo` does not
    /// list every node.
    pub(crate) fn assemble(
        name: String,
        nodes: Vec<DagNode>,
        edges: Vec<DagEdge>,
        data_edges: Vec<DataEdge>,
        topo: Vec<FunctionId>,
    ) -> Self {
        let n = nodes.len();
        assert_eq!(topo.len(), n, "the topological order lists every node");
        let mut successors = vec![Vec::new(); n];
        let mut predecessors = vec![Vec::new(); n];
        for e in &edges {
            assert!(e.from.index() < n && e.to.index() < n, "edge out of range");
            successors[e.from.index()].push((e.id, e.to));
            predecessors[e.to.index()].push((e.id, e.from));
        }
        WorkflowDag {
            name,
            nodes,
            edges,
            data_edges,
            successors,
            predecessors,
            topo,
        }
    }

    /// The workflow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count, virtual nodes included.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of real function nodes.
    pub fn function_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_function()).count()
    }

    /// All nodes, indexed by [`FunctionId::index`].
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// One node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: FunctionId) -> &DagNode {
        &self.nodes[id.index()]
    }

    /// All control edges, indexed by [`EdgeId::index`].
    pub fn edges(&self) -> &[DagEdge] {
        &self.edges
    }

    /// One control edge.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &DagEdge {
        &self.edges[id.index()]
    }

    /// All data edges (producer/consumer function pairs).
    pub fn data_edges(&self) -> &[DataEdge] {
        &self.data_edges
    }

    /// Data edges consumed by `consumer`.
    pub fn data_inputs(&self, consumer: FunctionId) -> impl Iterator<Item = &DataEdge> {
        self.data_edges
            .iter()
            .filter(move |d| d.consumer == consumer)
    }

    /// Data edges produced by `producer`.
    pub fn data_outputs(&self, producer: FunctionId) -> impl Iterator<Item = &DataEdge> {
        self.data_edges
            .iter()
            .filter(move |d| d.producer == producer)
    }

    /// Control successors of `id` as `(edge, node)` pairs.
    pub fn successors(&self, id: FunctionId) -> &[(EdgeId, FunctionId)] {
        &self.successors[id.index()]
    }

    /// Control predecessors of `id` as `(edge, node)` pairs.
    pub fn predecessors(&self, id: FunctionId) -> &[(EdgeId, FunctionId)] {
        &self.predecessors[id.index()]
    }

    /// The paper's `PredecessorsCount` for a node: the number of completed
    /// predecessors required to trigger it (1 for [`JoinKind::Any`] nodes
    /// with at least one predecessor).
    pub fn required_predecessors(&self, id: FunctionId) -> u32 {
        let n = self.predecessors[id.index()].len() as u32;
        match self.node(id).join {
            JoinKind::All => n,
            JoinKind::Any => n.min(1),
        }
    }

    /// Nodes without control predecessors (triggered directly by the
    /// invocation request).
    pub fn entry_nodes(&self) -> Vec<FunctionId> {
        (0..self.nodes.len())
            .filter(|&i| self.predecessors[i].is_empty())
            .map(FunctionId::from)
            .collect()
    }

    /// Nodes without control successors (their completion ends the
    /// invocation).
    pub fn exit_nodes(&self) -> Vec<FunctionId> {
        (0..self.nodes.len())
            .filter(|&i| self.successors[i].is_empty())
            .map(FunctionId::from)
            .collect()
    }

    /// A topological order of all nodes (stable across runs).
    pub fn topo_order(&self) -> &[FunctionId] {
        &self.topo
    }

    /// Overwrites a control edge's weight with an observed latency —
    /// the runtime feedback loop of §4.1.2.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_edge_weight(&mut self, id: EdgeId, weight: SimDuration) {
        self.edges[id.index()].weight = weight;
    }

    /// The critical path under the stored edge weights: the longest chain
    /// of `node exec_mean + edge weight` from an entry to an exit node.
    ///
    /// Returns the path's nodes (in order) and the edges between them.
    pub fn critical_path(&self) -> (Vec<FunctionId>, Vec<EdgeId>) {
        self.critical_path_with(|e| e.weight)
    }

    /// The critical path under caller-supplied *effective* edge weights
    /// (Algorithm 1 re-evaluates the path as merges localise edges).
    pub fn critical_path_with(
        &self,
        mut edge_weight: impl FnMut(&DagEdge) -> SimDuration,
    ) -> (Vec<FunctionId>, Vec<EdgeId>) {
        let n = self.nodes.len();
        // dist[v] = cost of the heaviest path ending at v (inclusive).
        let mut dist = vec![SimDuration::ZERO; n];
        let mut via: Vec<Option<(FunctionId, EdgeId)>> = vec![None; n];
        for &v in &self.topo {
            let mut best = SimDuration::ZERO;
            let mut best_via = None;
            for &(eid, u) in &self.predecessors[v.index()] {
                let w = dist[u.index()] + edge_weight(&self.edges[eid.index()]);
                // Strictly-greater keeps the earliest (deterministic) arg.
                if best_via.is_none() || w > best {
                    best = w;
                    best_via = Some((u, eid));
                }
            }
            dist[v.index()] = best + self.nodes[v.index()].exec_mean();
            via[v.index()] = best_via;
        }
        // The sink of the critical path is the node with max dist.
        let mut end = FunctionId::new(0);
        for i in 0..n {
            if dist[i] > dist[end.index()] {
                end = FunctionId::from(i);
            }
        }
        let mut nodes = vec![end];
        let mut edges = Vec::new();
        let mut cur = end;
        while let Some((prev, eid)) = via[cur.index()] {
            nodes.push(prev);
            edges.push(eid);
            cur = prev;
        }
        nodes.reverse();
        edges.reverse();
        (nodes, edges)
    }

    /// Total execution time of the critical path's *function* nodes — what
    /// §2.3 deducts from end-to-end latency to compute scheduling overhead.
    pub fn critical_path_exec(&self) -> SimDuration {
        let (nodes, _) = self.critical_path();
        nodes
            .iter()
            .map(|&v| self.node(v).exec_mean())
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Sum of bytes over all *data* edges — the per-invocation data
    /// movement of Figure 5's FaaS bars.
    pub fn total_data_bytes(&self) -> u64 {
        self.data_edges.iter().map(|d| d.bytes).sum()
    }
}

/// Kahn's algorithm over `nodes` and `edges`, with the ready set ordered
/// by node id so the order is deterministic. On a cycle the error names a
/// task on it: every node Kahn leaves blocked has a blocked predecessor,
/// so walking first blocked predecessors from the lowest-id blocked node
/// must revisit a node, and the first node revisited lies on a cycle.
pub(crate) fn topo_sort(nodes: &[DagNode], edges: &[DagEdge]) -> Result<Vec<FunctionId>, WdlError> {
    let node_count = nodes.len();
    let mut indeg = vec![0usize; node_count];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); node_count];
    for e in edges {
        indeg[e.to.index()] += 1;
        succ[e.from.index()].push(e.to.index());
    }
    let mut ready: BinaryHeap<Reverse<usize>> = (0..node_count)
        .filter(|&i| indeg[i] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(node_count);
    while let Some(Reverse(v)) = ready.pop() {
        order.push(FunctionId::from(v));
        for &s in &succ[v] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(Reverse(s));
            }
        }
    }
    let Some(mut v) = indeg.iter().position(|&d| d > 0) else {
        return Ok(order);
    };
    let mut blocked_pred = vec![None; node_count];
    for e in edges.iter().filter(|e| indeg[e.from.index()] > 0) {
        blocked_pred[e.to.index()].get_or_insert(e.from.index());
    }
    let mut seen = vec![false; node_count];
    while !seen[v] {
        seen[v] = true;
        v = blocked_pred[v].expect("a blocked node has a blocked predecessor");
    }
    Err(WdlError::Cycle {
        witness: nodes[v].name.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-builds a diamond: a -> {b, c} -> d with given weights.
    fn diamond() -> WorkflowDag {
        let mk = |i: u32, name: &str, ms: u64| DagNode {
            id: FunctionId::new(i),
            name: name.to_string(),
            kind: NodeKind::Function(FunctionProfile::with_millis(ms, 1000)),
            join: JoinKind::All,
            parallelism: 1,
        };
        let nodes = vec![
            mk(0, "a", 10),
            mk(1, "b", 50),
            mk(2, "c", 20),
            mk(3, "d", 10),
        ];
        let edge = |i: u32, f: u32, t: u32, w_ms: u64| DagEdge {
            id: EdgeId(i),
            from: FunctionId::new(f),
            to: FunctionId::new(t),
            bytes: 1000,
            weight: SimDuration::from_millis(w_ms),
            switch_arm: None,
        };
        let edges = vec![
            edge(0, 0, 1, 1),
            edge(1, 0, 2, 1),
            edge(2, 1, 3, 1),
            edge(3, 2, 3, 1),
        ];
        let data_edges = edges
            .iter()
            .map(|e| DataEdge {
                producer: e.from,
                consumer: e.to,
                bytes: e.bytes,
            })
            .collect();
        let topo = topo_sort(&nodes, &edges).expect("a diamond is acyclic");
        WorkflowDag::assemble("diamond".into(), nodes, edges, data_edges, topo)
    }

    #[test]
    fn topo_order_respects_edges() {
        let dag = diamond();
        let topo = dag.topo_order();
        let pos: Vec<usize> = (0..4)
            .map(|i| {
                topo.iter()
                    .position(|&v| v.index() == i)
                    .expect("node present")
            })
            .collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn critical_path_takes_the_heavy_branch() {
        let dag = diamond();
        let (nodes, edges) = dag.critical_path();
        let names: Vec<&str> = nodes.iter().map(|&v| dag.node(v).name.as_str()).collect();
        assert_eq!(names, ["a", "b", "d"], "b (50ms) dominates c (20ms)");
        assert_eq!(edges.len(), 2);
        assert_eq!(
            dag.critical_path_exec(),
            SimDuration::from_millis(10 + 50 + 10)
        );
    }

    #[test]
    fn critical_path_reacts_to_weight_updates() {
        let mut dag = diamond();
        // Make the a->c edge dominate everything.
        let ac = dag
            .edges()
            .iter()
            .find(|e| e.from == FunctionId::new(0) && e.to == FunctionId::new(2))
            .expect("edge exists")
            .id;
        dag.set_edge_weight(ac, SimDuration::from_secs(10));
        let (nodes, _) = dag.critical_path();
        let names: Vec<&str> = nodes.iter().map(|&v| dag.node(v).name.as_str()).collect();
        assert_eq!(names, ["a", "c", "d"]);
    }

    #[test]
    fn effective_weights_can_localise_an_edge() {
        let dag = diamond();
        // Zero every edge weight: path now decided by exec times only.
        let (nodes, _) = dag.critical_path_with(|_| SimDuration::ZERO);
        let names: Vec<&str> = nodes.iter().map(|&v| dag.node(v).name.as_str()).collect();
        assert_eq!(names, ["a", "b", "d"]);
    }

    #[test]
    fn entry_exit_and_required_predecessors() {
        let dag = diamond();
        assert_eq!(dag.entry_nodes(), vec![FunctionId::new(0)]);
        assert_eq!(dag.exit_nodes(), vec![FunctionId::new(3)]);
        assert_eq!(dag.required_predecessors(FunctionId::new(3)), 2);
        assert_eq!(dag.required_predecessors(FunctionId::new(0)), 0);
    }

    #[test]
    fn total_data_bytes_sums_data_edges() {
        let dag = diamond();
        assert_eq!(dag.total_data_bytes(), 4000);
    }

    /// Nodes named `a`, `b`, ... in id order.
    fn named_nodes(count: u32) -> Vec<DagNode> {
        (0..count)
            .map(|i| DagNode {
                id: FunctionId::new(i),
                name: char::from(b'a' + i as u8).to_string(),
                kind: NodeKind::Function(FunctionProfile::with_millis(1, 0)),
                join: JoinKind::All,
                parallelism: 1,
            })
            .collect()
    }

    /// `topo_sort` of `nodes` named nodes and `(from, to)` control edges.
    fn sorted(nodes: u32, edges: &[(u32, u32)]) -> Result<Vec<u32>, WdlError> {
        let edges: Vec<DagEdge> = (edges.iter().enumerate())
            .map(|(i, &(from, to))| DagEdge {
                id: EdgeId(i as u32),
                from: FunctionId::new(from),
                to: FunctionId::new(to),
                bytes: 0,
                weight: SimDuration::ZERO,
                switch_arm: None,
            })
            .collect();
        topo_sort(&named_nodes(nodes), &edges)
            .map(|order| order.iter().map(|v| v.index() as u32).collect())
    }

    fn cycle(witness: &str) -> Result<Vec<u32>, WdlError> {
        Err(WdlError::Cycle {
            witness: witness.to_string(),
        })
    }

    #[test]
    fn topo_sort_names_a_task_on_the_cycle() {
        // a is a free source; b <-> c is the cycle and blocks d.
        assert_eq!(sorted(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]), cycle("b"));
        // Ready nodes leave in id order, whatever order the edges came in.
        assert_eq!(sorted(4, &[(2, 0), (3, 1), (1, 0)]), Ok(vec![2, 3, 1, 0]));
    }

    /// The lowest-id blocked node, `a`, is only downstream of the b <-> c
    /// cycle: the witness is found by walking back from it.
    #[test]
    fn topo_sort_does_not_name_a_node_downstream_of_the_cycle() {
        assert_eq!(sorted(3, &[(1, 2), (2, 1), (2, 0)]), cycle("c"));
        // The walk from `a` goes round a -> b -> c -> d -> a and back to `a`;
        // `e` is downstream.
        assert_eq!(
            sorted(5, &[(3, 0), (0, 1), (1, 2), (2, 3), (2, 4)]),
            cycle("a")
        );
    }
}
