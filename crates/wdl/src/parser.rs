//! The DAG parser (§4.1.1).
//!
//! "The DAG Parser is implemented in the Graph Scheduler to prevent violated
//! WDL definition and parse the hierarchy WDL into a DAG object."
//!
//! Lowering rules:
//!
//! * **Task** → one function node.
//! * **Sequence** → children lowered in order, exits of child *i* wired to
//!   entries of child *i+1*.
//! * **Parallel** → a virtual start and a virtual end node bracket the
//!   branches (atomic-partitioning brackets).
//! * **Switch** → lowered "following the same logic of a parallel step",
//!   except edges out of the virtual start are tagged with their arm index
//!   and the virtual end joins with [`JoinKind::Any`].
//! * **Foreach** → a *single* node with `parallelism = fanout`, bracketed by
//!   virtual nodes ("DAG Parser equally considers all parallel instances in
//!   the foreach step as one node").
//!
//! Edge byte counts follow the data plane: an edge out of a function carries
//! that function's output; an edge out of a virtual node carries the volume
//! the bracket relays. Initial edge weights are the analytic transfer
//! estimate `base + bytes / reference_bandwidth`; the runtime replaces them
//! with observed 99-percentile latencies (§4.1.2).

use std::collections::{HashMap, HashSet};

use faasflow_sim::{FunctionId, SimDuration};
use serde::{Deserialize, Serialize};

use crate::dag::{topo_sort, DagEdge, DagNode, DataEdge, EdgeId, JoinKind, NodeKind, WorkflowDag};
use crate::error::WdlError;
use crate::step::{DagSpec, Step, Workflow, WorkflowSpec};

/// Tunables of the parser.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParserConfig {
    /// Bandwidth assumed for the *initial* edge-weight estimate, bytes/s.
    /// 50 MB/s — the default storage-node bandwidth of §5.4.
    pub reference_bandwidth: f64,
    /// Fixed per-transfer latency added to the estimate.
    pub base_transfer_latency: SimDuration,
    /// Upper bound on foreach fan-outs (guards against absurd definitions).
    pub max_fanout: u32,
}

impl Default for ParserConfig {
    fn default() -> Self {
        ParserConfig {
            reference_bandwidth: 50e6,
            base_transfer_latency: SimDuration::from_millis(2),
            max_fanout: 1024,
        }
    }
}

/// Parses [`Workflow`] definitions into [`WorkflowDag`]s.
///
/// ```
/// use faasflow_wdl::{DagParser, Workflow, Step, FunctionProfile};
///
/// let wf = Workflow::steps(
///     "two-step",
///     Step::sequence(vec![
///         Step::task("a", FunctionProfile::with_millis(5, 100)),
///         Step::task("b", FunctionProfile::with_millis(5, 0)),
///     ]),
/// );
/// let dag = DagParser::default().parse(&wf)?;
/// assert_eq!(dag.node_count(), 2);
/// # Ok::<(), faasflow_wdl::WdlError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DagParser {
    config: ParserConfig,
}

impl DagParser {
    /// A parser with explicit configuration.
    pub fn new(config: ParserConfig) -> Self {
        DagParser { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ParserConfig {
        &self.config
    }

    /// Parses and validates a workflow definition.
    ///
    /// # Errors
    ///
    /// Returns a [`WdlError`] describing the first violated WDL rule:
    /// duplicate or unknown task names, empty steps, zero/oversized
    /// fan-outs, self-loops, duplicate edges, cycles, invalid profiles, or
    /// a workflow with no function at all.
    pub fn parse(&self, workflow: &Workflow) -> Result<WorkflowDag, WdlError> {
        match &workflow.spec {
            WorkflowSpec::Steps(root) => self.parse_steps(&workflow.name, root),
            WorkflowSpec::Dag(spec) => self.parse_dag(&workflow.name, spec),
        }
    }

    // ------------------------------------------------------------------
    // Hierarchical steps
    // ------------------------------------------------------------------

    fn parse_steps(&self, name: &str, root: &Step) -> Result<WorkflowDag, WdlError> {
        let mut b = Builder::new(self.config);
        b.validate_names(root)?;
        let (_, _) = b.lower(root)?;
        b.finish(name)
    }

    // ------------------------------------------------------------------
    // Raw DAG
    // ------------------------------------------------------------------

    fn parse_dag(&self, name: &str, spec: &DagSpec) -> Result<WorkflowDag, WdlError> {
        if spec.tasks.is_empty() {
            return Err(WdlError::NoFunctions);
        }
        let mut index: HashMap<&str, FunctionId> = HashMap::new();
        let mut nodes = Vec::with_capacity(spec.tasks.len());
        for (i, task) in spec.tasks.iter().enumerate() {
            if index.insert(&task.name, FunctionId::from(i)).is_some() {
                return Err(WdlError::DuplicateTaskName {
                    name: task.name.clone(),
                });
            }
            task.profile
                .validate()
                .map_err(|reason| WdlError::InvalidProfile {
                    name: task.name.clone(),
                    reason,
                })?;
            if task.parallelism == 0 {
                return Err(WdlError::ZeroFanout {
                    name: task.name.clone(),
                });
            }
            if task.parallelism > self.config.max_fanout {
                return Err(WdlError::FanoutTooLarge {
                    name: task.name.clone(),
                    fanout: task.parallelism,
                    max: self.config.max_fanout,
                });
            }
            nodes.push(DagNode {
                id: FunctionId::from(i),
                name: task.name.clone(),
                kind: NodeKind::Function(task.profile),
                join: JoinKind::All,
                parallelism: task.parallelism,
            });
        }

        let mut seen_edges: HashSet<(FunctionId, FunctionId)> = HashSet::new();
        let mut edges = Vec::with_capacity(spec.edges.len());
        let mut data_edges = Vec::with_capacity(spec.edges.len());
        for (from_name, to_name) in &spec.edges {
            let from = *index
                .get(from_name.as_str())
                .ok_or_else(|| WdlError::UnknownTask {
                    name: from_name.clone(),
                })?;
            let to = *index
                .get(to_name.as_str())
                .ok_or_else(|| WdlError::UnknownTask {
                    name: to_name.clone(),
                })?;
            if from == to {
                return Err(WdlError::SelfLoop {
                    name: from_name.clone(),
                });
            }
            if !seen_edges.insert((from, to)) {
                return Err(WdlError::DuplicateEdge {
                    from: from_name.clone(),
                    to: to_name.clone(),
                });
            }
            let bytes = spec.tasks[from.index()].profile.output_bytes;
            edges.push(DagEdge {
                id: EdgeId(edges.len() as u32),
                from,
                to,
                bytes,
                weight: estimate_weight(&self.config, bytes),
                switch_arm: None,
            });
            data_edges.push(DataEdge {
                producer: from,
                consumer: to,
                bytes,
            });
        }

        let topo = topo_sort(&nodes, &edges)?;
        Ok(WorkflowDag::assemble(
            name.to_string(),
            nodes,
            edges,
            data_edges,
            topo,
        ))
    }
}

fn estimate_weight(config: &ParserConfig, bytes: u64) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    config.base_transfer_latency
        + SimDuration::from_secs_f64(bytes as f64 / config.reference_bandwidth)
}

/// Incremental DAG construction state for the hierarchical lowering.
struct Builder {
    config: ParserConfig,
    nodes: Vec<DagNode>,
    edges: Vec<DagEdge>,
    virtual_counter: u32,
}

impl Builder {
    fn new(config: ParserConfig) -> Self {
        Builder {
            config,
            nodes: Vec::new(),
            edges: Vec::new(),
            virtual_counter: 0,
        }
    }

    fn validate_names(&self, root: &Step) -> Result<(), WdlError> {
        let mut seen = HashSet::new();
        let mut stack = vec![root];
        let mut any_fn = false;
        while let Some(step) = stack.pop() {
            match step {
                Step::Task { name, profile } => {
                    any_fn = true;
                    if !seen.insert(name.clone()) {
                        return Err(WdlError::DuplicateTaskName { name: name.clone() });
                    }
                    profile
                        .validate()
                        .map_err(|reason| WdlError::InvalidProfile {
                            name: name.clone(),
                            reason,
                        })?;
                }
                Step::Foreach {
                    name,
                    profile,
                    fanout,
                } => {
                    any_fn = true;
                    if !seen.insert(name.clone()) {
                        return Err(WdlError::DuplicateTaskName { name: name.clone() });
                    }
                    profile
                        .validate()
                        .map_err(|reason| WdlError::InvalidProfile {
                            name: name.clone(),
                            reason,
                        })?;
                    if *fanout == 0 {
                        return Err(WdlError::ZeroFanout { name: name.clone() });
                    }
                    if *fanout > self.config.max_fanout {
                        return Err(WdlError::FanoutTooLarge {
                            name: name.clone(),
                            fanout: *fanout,
                            max: self.config.max_fanout,
                        });
                    }
                }
                Step::Sequence { steps } => {
                    if steps.is_empty() {
                        return Err(WdlError::EmptyStep { kind: "sequence" });
                    }
                    stack.extend(steps.iter());
                }
                Step::Parallel { branches } => {
                    if branches.is_empty() {
                        return Err(WdlError::EmptyStep { kind: "parallel" });
                    }
                    stack.extend(branches.iter());
                }
                Step::Switch { cases } => {
                    if cases.is_empty() {
                        return Err(WdlError::EmptyStep { kind: "switch" });
                    }
                    stack.extend(cases.iter().map(|c| &c.step));
                }
            }
        }
        if any_fn {
            Ok(())
        } else {
            Err(WdlError::NoFunctions)
        }
    }

    fn add_node(&mut self, name: String, kind: NodeKind, join: JoinKind, par: u32) -> FunctionId {
        let id = FunctionId::from(self.nodes.len());
        self.nodes.push(DagNode {
            id,
            name,
            kind,
            join,
            parallelism: par,
        });
        id
    }

    fn add_edge(&mut self, from: FunctionId, to: FunctionId, arm: Option<u32>) {
        // Bytes are filled in by `finish` once relay volumes are known.
        self.edges.push(DagEdge {
            id: EdgeId(self.edges.len() as u32),
            from,
            to,
            bytes: 0,
            weight: SimDuration::ZERO,
            switch_arm: arm,
        });
    }

    fn fresh_virtual(&mut self, tag: &str) -> String {
        let name = format!("__{tag}_{}", self.virtual_counter);
        self.virtual_counter += 1;
        name
    }

    /// Lowers a step; returns its (entries, exits).
    fn lower(&mut self, step: &Step) -> Result<(Vec<FunctionId>, Vec<FunctionId>), WdlError> {
        match step {
            Step::Task { name, profile } => {
                let id =
                    self.add_node(name.clone(), NodeKind::Function(*profile), JoinKind::All, 1);
                Ok((vec![id], vec![id]))
            }
            Step::Foreach {
                name,
                profile,
                fanout,
            } => {
                // One node with `parallelism = fanout`, bracketed by virtual
                // start/end to keep the step atomic in partitioning.
                let vs_name = self.fresh_virtual("foreach_start");
                let vs = self.add_node(
                    vs_name,
                    NodeKind::VirtualStart { switch_arms: None },
                    JoinKind::All,
                    1,
                );
                let body = self.add_node(
                    name.clone(),
                    NodeKind::Function(*profile),
                    JoinKind::All,
                    *fanout,
                );
                let ve_name = self.fresh_virtual("foreach_end");
                let ve = self.add_node(ve_name, NodeKind::VirtualEnd, JoinKind::All, 1);
                self.add_edge(vs, body, None);
                self.add_edge(body, ve, None);
                Ok((vec![vs], vec![ve]))
            }
            Step::Sequence { steps } => {
                let mut entries = Vec::new();
                let mut prev_exits: Vec<FunctionId> = Vec::new();
                for (i, child) in steps.iter().enumerate() {
                    let (c_entries, c_exits) = self.lower(child)?;
                    if i == 0 {
                        entries = c_entries;
                    } else {
                        for &u in &prev_exits {
                            for &v in &c_entries {
                                self.add_edge(u, v, None);
                            }
                        }
                    }
                    prev_exits = c_exits;
                }
                Ok((entries, prev_exits))
            }
            Step::Parallel { branches } => {
                let vs_name = self.fresh_virtual("par_start");
                let vs = self.add_node(
                    vs_name,
                    NodeKind::VirtualStart { switch_arms: None },
                    JoinKind::All,
                    1,
                );
                let ve_name = self.fresh_virtual("par_end");
                let ve = self.add_node(ve_name, NodeKind::VirtualEnd, JoinKind::All, 1);
                for branch in branches {
                    let (entries, exits) = self.lower(branch)?;
                    for v in entries {
                        self.add_edge(vs, v, None);
                    }
                    for u in exits {
                        self.add_edge(u, ve, None);
                    }
                }
                Ok((vec![vs], vec![ve]))
            }
            Step::Switch { cases } => {
                let vs_name = self.fresh_virtual("switch_start");
                let vs = self.add_node(
                    vs_name,
                    NodeKind::VirtualStart {
                        switch_arms: Some(cases.len() as u32),
                    },
                    JoinKind::All,
                    1,
                );
                let ve_name = self.fresh_virtual("switch_end");
                // One arm completing suffices: Any join.
                let ve = self.add_node(ve_name, NodeKind::VirtualEnd, JoinKind::Any, 1);
                for (arm, case) in cases.iter().enumerate() {
                    let (entries, exits) = self.lower(&case.step)?;
                    for v in entries {
                        self.add_edge(vs, v, Some(arm as u32));
                    }
                    for u in exits {
                        self.add_edge(u, ve, None);
                    }
                }
                Ok((vec![vs], vec![ve]))
            }
        }
    }

    /// Fills in edge bytes/weights, derives data edges, and assembles.
    fn finish(mut self, name: &str) -> Result<WorkflowDag, WdlError> {
        // sources[v]: producers whose output arrives at v (through virtual
        // relays), as producer -> bytes. Computed in the parse's one
        // topological order, which `assemble` keeps; any topological order
        // gives the same fold, a union over predecessors.
        let topo = topo_sort(&self.nodes, &self.edges)?;
        let n = self.nodes.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            preds[e.to.index()].push(e.from.index());
        }

        // Producer sets flowing into each node, deduplicated per producer.
        let mut sources: Vec<HashMap<usize, u64>> = vec![HashMap::new(); n];
        for v in topo.iter().map(|v| v.index()) {
            let mut incoming: HashMap<usize, u64> = HashMap::new();
            for &u in &preds[v] {
                match &self.nodes[u].kind {
                    NodeKind::Function(p) => {
                        incoming.insert(u, p.output_bytes);
                    }
                    _ => {
                        for (&prod, &bytes) in &sources[u] {
                            incoming.insert(prod, bytes);
                        }
                    }
                }
            }
            sources[v] = incoming;
        }

        // Data edges: for each *function* node, one edge per source producer.
        let mut data_edges = Vec::new();
        for (v, node_sources) in sources.iter().enumerate() {
            if !self.nodes[v].kind.is_function() {
                continue;
            }
            let mut inputs: Vec<(usize, u64)> =
                node_sources.iter().map(|(&p, &b)| (p, b)).collect();
            inputs.sort_unstable();
            for (producer, bytes) in inputs {
                if bytes > 0 {
                    data_edges.push(DataEdge {
                        producer: FunctionId::from(producer),
                        consumer: FunctionId::from(v),
                        bytes,
                    });
                }
            }
        }

        // Edge bytes: a function's edge carries its output; a virtual node's
        // edge relays the volume arriving at the bracket.
        let config = self.config;
        for e in &mut self.edges {
            let from = e.from.index();
            e.bytes = match &self.nodes[from].kind {
                NodeKind::Function(p) => p.output_bytes,
                _ => sources[from].values().sum(),
            };
            e.weight = estimate_weight(&config, e.bytes);
        }

        Ok(WorkflowDag::assemble(
            name.to_string(),
            self.nodes,
            self.edges,
            data_edges,
            topo,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::FunctionProfile;
    use crate::step::SwitchCase;

    fn p(ms: u64, out: u64) -> FunctionProfile {
        FunctionProfile::with_millis(ms, out)
    }

    fn parse(wf: &Workflow) -> WorkflowDag {
        DagParser::default().parse(wf).expect("valid workflow")
    }

    #[test]
    fn task_sequence_lowers_to_a_chain() {
        let wf = Workflow::steps(
            "chain",
            Step::sequence(vec![
                Step::task("a", p(1, 100)),
                Step::task("b", p(1, 200)),
                Step::task("c", p(1, 0)),
            ]),
        );
        let dag = parse(&wf);
        assert_eq!(dag.node_count(), 3);
        assert_eq!(dag.edges().len(), 2);
        assert_eq!(dag.entry_nodes().len(), 1);
        assert_eq!(dag.exit_nodes().len(), 1);
        // Edge a->b carries a's output.
        let ab = &dag.edges()[0];
        assert_eq!(ab.bytes, 100);
        // Data edges mirror the chain.
        assert_eq!(dag.data_edges().len(), 2);
    }

    #[test]
    fn parallel_gets_virtual_brackets() {
        let wf = Workflow::steps(
            "par",
            Step::sequence(vec![
                Step::task("src", p(1, 1000)),
                Step::parallel(vec![Step::task("x", p(1, 10)), Step::task("y", p(1, 20))]),
                Step::task("sink", p(1, 0)),
            ]),
        );
        let dag = parse(&wf);
        // src, vs, x, y, ve, sink
        assert_eq!(dag.node_count(), 6);
        assert_eq!(dag.function_count(), 4);
        // x and y each read src's full output through the bracket.
        let x = dag.nodes().iter().find(|nd| nd.name == "x").unwrap().id;
        let inputs: Vec<_> = dag.data_inputs(x).collect();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].bytes, 1000);
        // sink reads both branch outputs.
        let sink = dag.nodes().iter().find(|nd| nd.name == "sink").unwrap().id;
        let sink_in: Vec<u64> = dag.data_inputs(sink).map(|d| d.bytes).collect();
        let mut sorted = sink_in.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 20]);
        // The bracket's outgoing edge to sink relays x+y volume.
        let ve = dag
            .nodes()
            .iter()
            .find(|nd| matches!(nd.kind, NodeKind::VirtualEnd))
            .unwrap()
            .id;
        let out = dag.successors(ve);
        assert_eq!(out.len(), 1);
        assert_eq!(dag.edge(out[0].0).bytes, 30);
    }

    #[test]
    fn foreach_is_one_node_with_parallelism() {
        let wf = Workflow::steps(
            "fe",
            Step::sequence(vec![
                Step::task("split", p(1, 600)),
                Step::foreach("work", p(1, 300), 6),
                Step::task("merge", p(1, 0)),
            ]),
        );
        let dag = parse(&wf);
        let work = dag.nodes().iter().find(|nd| nd.name == "work").unwrap();
        assert_eq!(work.parallelism, 6);
        assert_eq!(dag.function_count(), 3);
        // merge reads work's total output.
        let merge = dag.nodes().iter().find(|nd| nd.name == "merge").unwrap().id;
        let inputs: Vec<_> = dag.data_inputs(merge).collect();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].bytes, 300);
    }

    #[test]
    fn switch_marks_arms_and_any_join() {
        let wf = Workflow::steps(
            "sw",
            Step::switch(vec![
                SwitchCase::new("hot", Step::task("hot_path", p(1, 10))),
                SwitchCase::new("cold", Step::task("cold_path", p(1, 10))),
            ]),
        );
        let dag = parse(&wf);
        let vs = dag
            .nodes()
            .iter()
            .find(|nd| {
                matches!(
                    nd.kind,
                    NodeKind::VirtualStart {
                        switch_arms: Some(2)
                    }
                )
            })
            .expect("switch start present");
        let arms: Vec<Option<u32>> = dag
            .successors(vs.id)
            .iter()
            .map(|&(e, _)| dag.edge(e).switch_arm)
            .collect();
        assert!(arms.contains(&Some(0)) && arms.contains(&Some(1)));
        let ve = dag
            .nodes()
            .iter()
            .find(|nd| matches!(nd.kind, NodeKind::VirtualEnd))
            .unwrap();
        assert_eq!(ve.join, JoinKind::Any);
        assert_eq!(dag.required_predecessors(ve.id), 1);
    }

    #[test]
    fn raw_dag_round_trips_structure() {
        let mut spec = DagSpec::new();
        spec.task("a", p(1, 100))
            .task("b", p(1, 50))
            .task("c", p(1, 0))
            .edge("a", "b")
            .edge("a", "c")
            .edge("b", "c");
        let dag = parse(&Workflow::dag("raw", spec));
        assert_eq!(dag.node_count(), 3);
        assert_eq!(dag.edges().len(), 3);
        assert_eq!(dag.total_data_bytes(), 100 + 100 + 50);
    }

    #[test]
    fn rejects_duplicate_names() {
        let wf = Workflow::steps(
            "dup",
            Step::sequence(vec![Step::task("a", p(1, 0)), Step::task("a", p(1, 0))]),
        );
        assert!(matches!(
            DagParser::default().parse(&wf),
            Err(WdlError::DuplicateTaskName { .. })
        ));
    }

    #[test]
    fn rejects_cycles_in_raw_dags() {
        let mut spec = DagSpec::new();
        spec.task("a", p(1, 1))
            .task("b", p(1, 1))
            .task("c", p(1, 1))
            .edge("b", "c")
            .edge("c", "b")
            .edge("c", "a");
        let err = DagParser::default()
            .parse(&Workflow::dag("cyc", spec))
            .expect_err("b <-> c is a cycle");
        assert_eq!(
            err.to_string(),
            "workflow graph contains a cycle through `c`"
        );
    }

    #[test]
    fn rejects_self_loops_unknown_tasks_and_duplicate_edges() {
        let mut s1 = DagSpec::new();
        s1.task("a", p(1, 1)).edge("a", "a");
        assert!(matches!(
            DagParser::default().parse(&Workflow::dag("w", s1)),
            Err(WdlError::SelfLoop { .. })
        ));

        let mut s2 = DagSpec::new();
        s2.task("a", p(1, 1)).edge("a", "ghost");
        assert!(matches!(
            DagParser::default().parse(&Workflow::dag("w", s2)),
            Err(WdlError::UnknownTask { .. })
        ));

        let mut s3 = DagSpec::new();
        s3.task("a", p(1, 1))
            .task("b", p(1, 1))
            .edge("a", "b")
            .edge("a", "b");
        assert!(matches!(
            DagParser::default().parse(&Workflow::dag("w", s3)),
            Err(WdlError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn rejects_empty_steps_and_zero_fanout() {
        let empty_seq = Workflow::steps("e", Step::sequence(vec![]));
        assert!(matches!(
            DagParser::default().parse(&empty_seq),
            Err(WdlError::EmptyStep { kind: "sequence" })
        ));
        let zero = Workflow::steps("z", Step::foreach("f", p(1, 1), 0));
        assert!(matches!(
            DagParser::default().parse(&zero),
            Err(WdlError::ZeroFanout { .. })
        ));
        let big = Workflow::steps("b", Step::foreach("f", p(1, 1), 100_000));
        assert!(matches!(
            DagParser::default().parse(&big),
            Err(WdlError::FanoutTooLarge { .. })
        ));
    }

    #[test]
    fn weight_estimate_scales_with_bytes() {
        let cfg = ParserConfig::default();
        let small = estimate_weight(&cfg, 1_000);
        let large = estimate_weight(&cfg, 50_000_000);
        assert!(large > small);
        // 50 MB at 50 MB/s = 1 s (+ base).
        assert!((large.as_secs_f64() - 1.002).abs() < 1e-9);
        assert_eq!(estimate_weight(&cfg, 0), SimDuration::ZERO);
    }

    #[test]
    fn nested_structures_compose() {
        // parallel inside foreach-ish sequence inside switch arm
        let wf = Workflow::steps(
            "nest",
            Step::switch(vec![
                SwitchCase::new(
                    "arm0",
                    Step::sequence(vec![
                        Step::task("s0", p(1, 5)),
                        Step::parallel(vec![Step::task("p0", p(1, 5)), Step::task("p1", p(1, 5))]),
                    ]),
                ),
                SwitchCase::new("arm1", Step::foreach("fe", p(1, 5), 3)),
            ]),
        );
        let dag = parse(&wf);
        assert_eq!(dag.function_count(), 4);
        // Every virtual node must have at least one pred and succ except
        // the outer brackets.
        let topo_len = dag.topo_order().len();
        assert_eq!(topo_len, dag.node_count());
    }
}
