//! Workflow definitions: hierarchical logic steps and raw DAG specs.
//!
//! §4.1.1 of the paper: "FaaSFlow currently provides the following basic
//! logic steps to describe and define an application logic: Task, Sequence,
//! Parallel, Switch, Foreach." The Pegasus scientific workflows are not
//! hierarchical, so a raw [`DagSpec`] form is provided as well — the parser
//! accepts both.

use serde::{Deserialize, Serialize};

use crate::profile::FunctionProfile;

/// A complete workflow definition: a name plus its structure.
///
/// This is the in-memory form of the paper's `workflow.yaml`; it round-trips
/// through serde (the examples use JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    /// Unique workflow name.
    pub name: String,
    /// The structure: hierarchical steps or a raw DAG.
    pub spec: WorkflowSpec,
}

impl Workflow {
    /// A workflow defined by hierarchical logic steps.
    pub fn steps(name: impl Into<String>, root: Step) -> Self {
        Workflow {
            name: name.into(),
            spec: WorkflowSpec::Steps(root),
        }
    }

    /// A workflow defined as a raw DAG (Pegasus-style).
    pub fn dag(name: impl Into<String>, spec: DagSpec) -> Self {
        Workflow {
            name: name.into(),
            spec: WorkflowSpec::Dag(spec),
        }
    }
}

/// The two accepted structure forms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WorkflowSpec {
    /// Hierarchical logic steps (§4.1.1).
    Steps(Step),
    /// A raw DAG of tasks and edges.
    Dag(DagSpec),
}

/// One logic step of the WDL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Step {
    /// A single function invocation; becomes one DAG node.
    Task {
        /// Unique task name within the workflow.
        name: String,
        /// Behavioural profile of the function.
        profile: FunctionProfile,
    },
    /// Serial child steps; each starts when its predecessor finishes.
    Sequence {
        /// The children, executed in order.
        steps: Vec<Step>,
    },
    /// Child steps executed concurrently (attribute `branches` in the WDL).
    Parallel {
        /// The concurrent branches.
        branches: Vec<Step>,
    },
    /// Conditional execution: exactly one case runs per invocation; the
    /// parser lowers it like a parallel step (§4.1.1) but the virtual end
    /// node joins with *any* semantics.
    Switch {
        /// The alternative cases.
        cases: Vec<SwitchCase>,
    },
    /// Per-element parallel execution of one task. The parser "equally
    /// considers all parallel instances in the foreach step as one node":
    /// it becomes a single DAG node with `parallelism = fanout`.
    Foreach {
        /// Task name.
        name: String,
        /// Behavioural profile of each instance; `profile.output_bytes` is
        /// the *total* output across all instances.
        profile: FunctionProfile,
        /// Number of parallel instances (the executor map `Map(v)`).
        fanout: u32,
    },
}

impl Step {
    /// A task step.
    pub fn task(name: impl Into<String>, profile: FunctionProfile) -> Step {
        Step::Task {
            name: name.into(),
            profile,
        }
    }

    /// A sequence step.
    pub fn sequence(steps: Vec<Step>) -> Step {
        Step::Sequence { steps }
    }

    /// A parallel step.
    pub fn parallel(branches: Vec<Step>) -> Step {
        Step::Parallel { branches }
    }

    /// A switch step.
    pub fn switch(cases: Vec<SwitchCase>) -> Step {
        Step::Switch { cases }
    }

    /// A foreach step.
    pub fn foreach(name: impl Into<String>, profile: FunctionProfile, fanout: u32) -> Step {
        Step::Foreach {
            name: name.into(),
            profile,
            fanout,
        }
    }

    /// Number of task/foreach steps in this subtree (function count).
    pub fn function_count(&self) -> usize {
        match self {
            Step::Task { .. } | Step::Foreach { .. } => 1,
            Step::Sequence { steps } => steps.iter().map(Step::function_count).sum(),
            Step::Parallel { branches } => branches.iter().map(Step::function_count).sum(),
            Step::Switch { cases } => cases.iter().map(|c| c.step.function_count()).sum(),
        }
    }
}

/// One arm of a switch step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchCase {
    /// Human-readable condition label (the conditional expression in the
    /// WDL; the simulation selects arms deterministically by invocation
    /// hash, so the label is documentation).
    pub condition: String,
    /// The step executed when this case is selected.
    pub step: Step,
}

impl SwitchCase {
    /// Creates a case.
    pub fn new(condition: impl Into<String>, step: Step) -> Self {
        SwitchCase {
            condition: condition.into(),
            step,
        }
    }
}

/// A raw DAG definition: named tasks plus producer→consumer edges.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DagSpec {
    /// The tasks (DAG nodes).
    pub tasks: Vec<DagTask>,
    /// Edges as `(producer name, consumer name)` pairs.
    pub edges: Vec<(String, String)>,
}

impl DagSpec {
    /// Creates an empty spec.
    pub fn new() -> Self {
        DagSpec::default()
    }

    /// Adds a task; returns `&mut self` for chaining.
    pub fn task(&mut self, name: impl Into<String>, profile: FunctionProfile) -> &mut Self {
        self.tasks.push(DagTask {
            name: name.into(),
            profile,
            parallelism: 1,
        });
        self
    }

    /// Adds an edge; returns `&mut self` for chaining.
    pub fn edge(&mut self, from: impl Into<String>, to: impl Into<String>) -> &mut Self {
        self.edges.push((from.into(), to.into()));
        self
    }
}

/// One task of a raw DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagTask {
    /// Unique task name.
    pub name: String,
    /// Behavioural profile.
    pub profile: FunctionProfile,
    /// Parallel executor instances (1 for plain tasks).
    pub parallelism: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> FunctionProfile {
        FunctionProfile::with_millis(10, 1024)
    }

    #[test]
    fn function_count_walks_the_tree() {
        let step = Step::sequence(vec![
            Step::task("a", p()),
            Step::parallel(vec![
                Step::task("b", p()),
                Step::sequence(vec![Step::task("c", p()), Step::task("d", p())]),
            ]),
            Step::switch(vec![
                SwitchCase::new("x > 0", Step::task("e", p())),
                SwitchCase::new("else", Step::task("f", p())),
            ]),
            Step::foreach("g", p(), 8),
        ]);
        assert_eq!(step.function_count(), 7);
    }

    #[test]
    fn workflow_serde_round_trip() {
        let wf = Workflow::steps(
            "rt",
            Step::sequence(vec![Step::task("a", p()), Step::foreach("b", p(), 3)]),
        );
        let json = serde_json::to_string(&wf).expect("serializes");
        let back: Workflow = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(wf, back);
    }

    #[test]
    fn dag_spec_builder_chains() {
        let mut spec = DagSpec::new();
        spec.task("a", p()).task("b", p()).edge("a", "b");
        assert_eq!(spec.tasks.len(), 2);
        assert_eq!(spec.edges.len(), 1);
        let wf = Workflow::dag("raw", spec);
        let json = serde_json::to_string(&wf).expect("serializes");
        let back: Workflow = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(wf, back);
    }
}
