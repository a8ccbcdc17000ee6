//! The cluster simulation: the world that wires engines, containers,
//! stores, and the network into one deterministic discrete-event system.
//!
//! Topology (matching the artifact, §A.4): node 0 is the master/storage
//! node — it runs the Graph Scheduler, generates invocations, and hosts the
//! remote store (and, under MasterSP, the central workflow engine). Nodes
//! `1..=workers` are workers, each running a container manager, a FaaStore
//! instance, and (under WorkerSP) a per-worker workflow engine.
//!
//! Every latency of the real system maps to a simulated cost:
//!
//! | real mechanism | model |
//! |---|---|
//! | task assignment / state return / state sync (TCP) | [`faasflow_net::MessageModel`] latency |
//! | master engine trigger checks | single-server CPU queue, `MASTER_TASK_COST` per message |
//! | worker engine event handling | fixed `WORKER_ENGINE_COST` |
//! | container cold/warm start, keep-alive, caps | [`faasflow_container::ContainerManager`] |
//! | remote store reads/writes | per-op overhead + max-min fair flow through the storage NIC |
//! | FaaStore local passing | loopback flow (no NIC usage) |

use std::collections::BTreeMap;
use std::sync::Arc;

use faasflow_container::StartKind;
use faasflow_engine::{MasterAction, WorkerAction, WorkflowCtx};
use faasflow_net::MessageModel;
use faasflow_scheduler::{
    Assignment, ContentionSet, FeedbackCollector, GraphScheduler, PartitionConfig, RuntimeMetrics,
    ScheduleError, WorkerInfo, WorkerLoad,
};
use faasflow_sim::{
    ContainerId, EventId, EventQueue, FastMap, FunctionId, InvocationId, NodeId, SimDuration,
    SimRng, SimTime, WorkflowId,
};
use faasflow_store::{quota, DataKey, FaaStore, Placement, RemoteStore, StorageType};
use faasflow_wdl::{DagParser, NodeKind, ParserConfig, Workflow, WorkflowDag};

use crate::config::{ClientConfig, ClusterConfig, ReclamationMode, ScheduleMode};
use crate::degrade::AdmitDecision;
use crate::engines::Engines;
use crate::error::ClusterError;
use crate::fault::{DeadLetterReason, EngineTarget, FaultWindows};
use crate::health::HealthDetector;
use crate::hedge::{Booted, HedgeCopy, HedgeEvent, Hedging};
use crate::invocation::{Attempt, InstanceState, InstanceToken, InvState, Invocations, WorkerSet};
use crate::journal::{JournalEvent, TerminalOutcome};
use crate::metrics::{
    DistributionRow, FaultReport, LoopProfile, RunReport, WorkerUtilization, WorkflowMetrics,
};
use crate::overload::Admission;
use crate::rebalance::Rebalancer;
use crate::sample::{Sampler, SAMPLE_CAPACITY};
use crate::slo::SloControl;
use crate::trace::{TraceEvent, Tracer, TRACE_CAPACITY};
use crate::worker::Worker;

mod recovery;
mod transfers;

use transfers::{FlowTag, RemoteCall, Transfer, Transfers};

/// Master engine CPU occupancy per processed message (task trigger check /
/// assignment / state bookkeeping). The master is a single queueing
/// station, so under load this serializes — the §2.3 overhead.
const MASTER_TASK_COST: SimDuration = SimDuration::from_millis(18);
/// Worker engine processing cost per local trigger/state event.
const WORKER_ENGINE_COST: SimDuration = SimDuration::from_micros(3500);

/// How an invocation is being abandoned — decides the accounting in
/// `abandon_invocation`.
#[derive(Debug, Clone, Copy)]
enum AbandonKind {
    /// Fault-path dead letter, attributed to a reason.
    DeadLetter(DeadLetterReason),
    /// Queue-overflow load shed on a worker (overload accounting).
    Shed { worker: usize },
    /// Refused at the degradation gate before dispatch (degrade
    /// accounting; deliberately *not* fed back into the SLO monitor).
    DegradeShed { worker: usize },
}

/// Messages the master CPU processes one at a time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MasterInbox {
    Begin {
        wf: WorkflowId,
        inv: InvocationId,
    },
    StateReturn {
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
    },
    /// Backpressure bounced an assignment off a saturated worker; the
    /// master re-queues it centrally (costing central-plane CPU — the
    /// §2.3 asymmetry under overload).
    Requeue(Deferred),
}

/// A dispatch of `function` to `worker` that backpressure pushed back
/// after `attempt` earlier deferrals, fenced by the invocation's `epoch`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deferred {
    worker: usize,
    wf: WorkflowId,
    inv: InvocationId,
    function: FunctionId,
    epoch: u32,
    attempt: u32,
}

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A client sends an invocation of `wf`.
    Arrival { wf: WorkflowId },
    /// WorkerSP: the begin notification reaches a worker engine.
    DeliverBegin {
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        epoch: u32,
    },
    /// WorkerSP: a state-sync message reaches a worker engine.
    DeliverSync {
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        completed: FunctionId,
        epoch: u32,
    },
    /// MasterSP: a task assignment reaches a worker.
    DeliverAssign {
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
    },
    /// An exit-node completion report reaches the master/client.
    DeliverExitReport {
        wf: WorkflowId,
        inv: InvocationId,
        epoch: u32,
        function: FunctionId,
    },
    /// A message arrives in the master engine's inbox. `gen` fences
    /// pre-crash messages: a recovery bumps the engine generation, so
    /// anything stamped with an older one is dropped as stale.
    MasterArrive { msg: MasterInbox, gen: u64 },
    /// The master engine finishes processing its current message. Fenced by
    /// `gen` like `MasterArrive` (an engine crash aborts the in-service
    /// message).
    MasterDone { gen: u64 },
    /// WorkerSP: a virtual node completes on a worker.
    VirtualDone {
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
        epoch: u32,
    },
    /// A container finished booting/dispatching; the instance starts
    /// fetching inputs.
    InstanceReady {
        worker: usize,
        token: InstanceToken,
        container: ContainerId,
        cold: bool,
    },
    /// A remote-store call's transfer begins after the server-side
    /// overhead.
    StartRemote(Transfer),
    /// An instance's compute finished; write the output.
    ExecDone {
        worker: usize,
        token: InstanceToken,
        seq: u64,
    },
    /// WorkerSP: the worker engine processes an instance completion.
    /// `gen` fences completions sent before the engine's last recovery
    /// (replay already seeded them from cluster-side counts).
    WorkerInstanceDone {
        worker: usize,
        token: InstanceToken,
        gen: u64,
    },
    /// The earliest network flow completes.
    FlowTick,
    /// A worker's earliest container keep-alive expires.
    ContainerExpiry { worker: usize },
    /// An invocation exceeded the timeout.
    Timeout { wf: WorkflowId, inv: InvocationId },
    /// Fault plan: worker `node_crashes[idx]` dies.
    WorkerCrash { idx: usize },
    /// Fault plan: a crashed worker comes back (empty).
    WorkerRestart { worker: usize },
    /// The failure detector gives up on a worker's heartbeats and starts
    /// recovery of everything that was running there.
    LeaseExpired { worker: usize },
    /// Fault plan: `storage_faults[idx]` window opens (or closes).
    StorageFault { idx: usize, open: bool },
    /// Fault plan: `net_faults[idx]` window opens (or closes).
    NetFault { idx: usize, open: bool },
    /// A remote-store call backed off (storage blackout or open breaker);
    /// try again.
    RetryRemote { io: Transfer, attempt: u32 },
    /// An invocation hit unrecoverable-in-place state (e.g. a producer
    /// output vanished with a crashed node); restart it under a new epoch.
    RecoverInvocation {
        wf: WorkflowId,
        inv: InvocationId,
        epoch: u32,
    },
    /// Resource-sampling tick (self-rescheduling; only scheduled when
    /// `ClusterConfig::sample_every` is set). The handler reads gauges and
    /// draws no randomness, so it cannot perturb other events.
    Sample,
    /// A hedged-execution timer (see [`Hedging`]).
    Hedge(HedgeEvent),
    /// A backpressure-deferred dispatch retries (or proceeds).
    BackpressureRetry(Deferred),
    /// Fault plan: `engine_crashes[idx]` kills its scheduling engine.
    EngineCrash { idx: usize },
    /// The supervisor restarts a crashed engine: attempt to read the
    /// journal back, backing off while the store is blacked out. `era`
    /// fences chains orphaned by a second crash mid-recovery.
    EngineRestart {
        target: EngineTarget,
        attempt: u32,
        era: u32,
    },
    /// Journal replay finished; the engine reconciles with cluster-visible
    /// progress and resumes.
    EngineRecovered { target: EngineTarget, era: u32 },
    /// Fault plan: `gray_faults[idx]` window opens (or closes).
    GrayFault { idx: usize, open: bool },
    /// A quarantined worker's cooldown elapsed; the health detector
    /// half-opens it. `at` fences reopen events scheduled before a relapse
    /// re-quarantined the worker.
    HealthReopen { worker: usize, at: SimTime },
}

// Every queued timer carries an `Event`, so its size is paid on each
// heap entry; variants keep their payloads within this bound.
const _: () = assert!(std::mem::size_of::<Event>() <= 56);

#[cfg(feature = "loop-profile")]
impl Event {
    /// Variant name for the per-type loop profile.
    fn name(&self) -> &'static str {
        match self {
            Event::Arrival { .. } => "Arrival",
            Event::DeliverBegin { .. } => "DeliverBegin",
            Event::DeliverSync { .. } => "DeliverSync",
            Event::DeliverAssign { .. } => "DeliverAssign",
            Event::DeliverExitReport { .. } => "DeliverExitReport",
            Event::MasterArrive { .. } => "MasterArrive",
            Event::MasterDone { .. } => "MasterDone",
            Event::VirtualDone { .. } => "VirtualDone",
            Event::InstanceReady { .. } => "InstanceReady",
            Event::StartRemote(io) if io.read => "StartRemoteRead",
            Event::StartRemote(_) => "StartRemoteWrite",
            Event::ExecDone { .. } => "ExecDone",
            Event::WorkerInstanceDone { .. } => "WorkerInstanceDone",
            Event::FlowTick => "FlowTick",
            Event::ContainerExpiry { .. } => "ContainerExpiry",
            Event::Timeout { .. } => "Timeout",
            Event::WorkerCrash { .. } => "WorkerCrash",
            Event::WorkerRestart { .. } => "WorkerRestart",
            Event::LeaseExpired { .. } => "LeaseExpired",
            Event::StorageFault { open: true, .. } => "StorageFaultStart",
            Event::StorageFault { .. } => "StorageFaultEnd",
            Event::NetFault { open: true, .. } => "NetFaultStart",
            Event::NetFault { .. } => "NetFaultEnd",
            Event::RetryRemote { io, .. } if io.read => "RetryRemoteRead",
            Event::RetryRemote { .. } => "RetryRemoteWrite",
            Event::RecoverInvocation { .. } => "RecoverInvocation",
            Event::Sample => "Sample",
            Event::Hedge(HedgeEvent::Fire { .. }) => "HedgeFire",
            Event::Hedge(HedgeEvent::Ready { .. }) => "HedgeReady",
            Event::Hedge(HedgeEvent::ExecDone { .. }) => "HedgeExecDone",
            Event::BackpressureRetry(_) => "BackpressureRetry",
            Event::EngineCrash { .. } => "EngineCrash",
            Event::EngineRestart { .. } => "EngineRestart",
            Event::EngineRecovered { .. } => "EngineRecovered",
            Event::GrayFault { open: true, .. } => "GrayFaultStart",
            Event::GrayFault { .. } => "GrayFaultEnd",
            Event::HealthReopen { .. } => "HealthReopen",
        }
    }
}

/// Per-workflow cluster state, indexed by the dense workflow id.
struct WorkflowState {
    /// Interned name, shared with the cluster's by-name index.
    name: Arc<str>,
    metrics: WorkflowMetrics,
    /// The current deployment: the DAG, the newest assignment and the
    /// switch-arm seed. It is the only record of what the workflow is
    /// deployed as. New invocations pin its `Arc`s; a replaced assignment
    /// is freed when the last invocation pinned to it ends (red-black
    /// deployment, §4.2.2). Feedback edits the DAG's edge weights through
    /// `Arc::make_mut`, which clones only while a pinned copy is still
    /// shared; the engines read none of them.
    deployed: WorkflowCtx,
    client: ClientConfig,
    contention: ContentionSet,
    /// Runtime feedback for the next partition iteration; `None` when no
    /// iteration can run (neither `repartition_every` nor `qos_target`).
    feedback: Option<FeedbackCollector>,
    prev_metrics: RuntimeMetrics,
    quota: u64,
    critical_exec: SimDuration,
    sent: u32,
    completed_since_partition: u32,
}

impl WorkflowState {
    /// Pins a starting invocation attempt to the current deployment.
    fn pin(&self) -> (Arc<WorkflowDag>, Arc<Assignment>) {
        (self.deployed.dag.clone(), self.deployed.assignment.clone())
    }
}

/// Reusable buffers for the hot-path sweeps. Each user takes the buffer
/// with `mem::take`, fills it, and puts it back cleared, so the steady
/// state of the event loop performs no heap allocation. The data path
/// keeps its own (see [`Transfers`]).
#[derive(Debug, Default)]
struct ClusterScratch {
    /// Input transfers gathered when an instance becomes ready.
    inputs: Vec<(FunctionId, u64)>,
}

/// One compute-time draw for `function` (zero for non-function nodes,
/// which draw nothing).
fn sample_exec(dag: &WorkflowDag, function: FunctionId, rng: &mut SimRng) -> SimDuration {
    match &dag.node(function).kind {
        NodeKind::Function(profile) => profile.sample_exec(rng),
        _ => SimDuration::ZERO,
    }
}

/// The worker index of every group placed by a workflow's current
/// deployment (the rebalancer's group counts).
fn placed_groups<'a>(
    workflows: &'a [WorkflowState],
    config: &'a ClusterConfig,
) -> impl Iterator<Item = usize> + 'a {
    workflows
        .iter()
        .flat_map(|ws| ws.deployed.assignment.groups.iter())
        .filter_map(|g| config.worker_index(g.worker))
}

/// The FaaSFlow cluster simulation.
///
/// ```
/// use faasflow_core::{Cluster, ClusterConfig, ClientConfig};
/// use faasflow_wdl::{Workflow, Step, FunctionProfile};
///
/// let mut cluster = Cluster::new(ClusterConfig::default())?;
/// let wf = Workflow::steps(
///     "hello",
///     Step::task("hi", FunctionProfile::with_millis(10, 0)),
/// );
/// cluster.register(&wf, ClientConfig::ClosedLoop { invocations: 3 })?;
/// cluster.run_until_idle();
/// let report = cluster.report();
/// assert_eq!(report.workflow("hello").completed, 3);
/// # Ok::<(), faasflow_core::ClusterError>(())
/// ```
pub struct Cluster {
    config: ClusterConfig,
    queue: EventQueue<Event>,
    rng: SimRng,
    /// The data path: the flow network and its timer, the remote store,
    /// its breaker and fault window, and the stalled payloads.
    transfers: Transfers,
    /// The scheduling engines, the master's CPU queue and every engine's
    /// liveness, fences and journal.
    engines: Engines,
    /// The registered workflows, indexed by `WorkflowId` (ids are dense).
    workflows: Vec<WorkflowState>,
    /// Interned-name lookup; `&str` queries hit it without allocating.
    names: FastMap<Arc<str>, WorkflowId>,
    /// The live invocations, their pending admissions and the counters
    /// that number them.
    invocations: Invocations,
    scheduler: GraphScheduler,
    /// Wall-clock seconds spent inside `GraphScheduler::partition`.
    partition_wall_secs: f64,
    partition_runs: u32,
    /// Arrival events scheduled but not yet handled (keeps the run loop
    /// alive while clients still owe invocations).
    pending_arrivals: u32,
    /// Instance executions that failed and were retried.
    exec_retries: u64,
    /// Feedback repartitions/redeploys that failed and kept the previous
    /// deployment.
    repartition_failures: u64,
    /// Fault-injection and recovery accounting.
    faults: FaultReport,
    /// One record per worker: pool, FaaStore, gauges, recovery queues
    /// and fault state.
    workers: Vec<Worker>,
    /// Link fault windows and the gray-failure counters.
    windows: FaultWindows,
    /// The hedged-execution control loop.
    hedging: Hedging,
    /// Admission shedding, backpressure and the overload counters.
    admission: Admission,
    /// The placement layer's tail estimators and skew rebalancer.
    rebalancer: Rebalancer,
    /// The SLO monitor and the degradation controller it drives (`None`
    /// unless `config.slo` is set).
    slo: Option<SloControl>,
    /// Online gray-failure detector (`None` unless `config.health` is
    /// set). Pure observer of completion samples: it never draws from the
    /// RNG, so detector-off runs are bit-identical to pre-detector builds.
    health: Option<HealthDetector>,
    tracer: Tracer,
    /// Resource time-series sampler (`None` unless sampling is on).
    sampler: Option<Sampler>,
    /// Events dispatched by the run loops (wall-clock self-profile).
    loop_events: u64,
    /// Wall-clock seconds spent inside the run loops.
    loop_wall_secs: f64,
    /// Per-event-type handler timing (count, total seconds), keyed by
    /// variant name. Only maintained under the `loop-profile` feature.
    #[cfg(feature = "loop-profile")]
    loop_event_stats: BTreeMap<&'static str, (u64, f64)>,
    /// Reusable sweep buffers (see [`ClusterScratch`]).
    scratch: ClusterScratch,
}

impl Cluster {
    /// Builds the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn new(config: ClusterConfig) -> Result<Self, ClusterError> {
        config.validate().map_err(ClusterError::InvalidConfig)?;
        let mut rng = SimRng::seed_from(config.seed);
        let _ = rng.next_u64(); // decorrelate from the seed value itself
        let mut cluster = Cluster {
            queue: EventQueue::new(),
            rng,
            transfers: Transfers::new(&config),
            engines: Engines::new(&config),
            workflows: Vec::new(),
            names: FastMap::default(),
            invocations: Invocations::default(),
            scheduler: GraphScheduler::new(PartitionConfig {
                placement: config.placement,
                placement_config: config.placement_config,
                ..PartitionConfig::default()
            }),
            partition_wall_secs: 0.0,
            partition_runs: 0,
            pending_arrivals: 0,
            exec_retries: 0,
            repartition_failures: 0,
            faults: FaultReport::default(),
            workers: (0..config.workers).map(|_| Worker::new(&config)).collect(),
            windows: FaultWindows::new(config.node_count()),
            hedging: Hedging::new(config.overload.hedge),
            admission: Admission::new(&config.overload),
            rebalancer: Rebalancer::new(config.placement_config, config.workers),
            slo: config
                .slo
                .as_ref()
                .map(|slo| SloControl::new(slo, config.degrade)),
            health: config
                .health
                .map(|h| HealthDetector::new(h, config.workers)),
            tracer: Tracer::new(config.trace, TRACE_CAPACITY),
            sampler: config
                .sample_every
                .map(|every| Sampler::new(every, config.node_count(), SAMPLE_CAPACITY)),
            loop_events: 0,
            loop_wall_secs: 0.0,
            #[cfg(feature = "loop-profile")]
            loop_event_stats: BTreeMap::new(),
            scratch: ClusterScratch::default(),
            config,
        };
        cluster.schedule_fault_plan();
        if let Some(every) = cluster.config.sample_every {
            cluster.queue.schedule(SimTime::ZERO + every, Event::Sample);
        }
        Ok(cluster)
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Registers a workflow and its driving client.
    ///
    /// # Errors
    ///
    /// Propagates WDL validation and scheduling failures.
    pub fn register(
        &mut self,
        workflow: &Workflow,
        client: ClientConfig,
    ) -> Result<WorkflowId, ClusterError> {
        self.register_with_contention(workflow, client, ContentionSet::default())
    }

    /// Registers a workflow with declared contention pairs (`cont(G)`).
    ///
    /// # Errors
    ///
    /// Propagates WDL validation and scheduling failures.
    pub fn register_with_contention(
        &mut self,
        workflow: &Workflow,
        client: ClientConfig,
        contention: ContentionSet,
    ) -> Result<WorkflowId, ClusterError> {
        client.validate().map_err(ClusterError::InvalidClient)?;
        if self.names.contains_key(workflow.name.as_str()) {
            return Err(ClusterError::DuplicateWorkflow(workflow.name.clone()));
        }
        let parser = DagParser::new(ParserConfig {
            reference_bandwidth: self.config.storage_bandwidth,
            ..ParserConfig::default()
        });
        let dag = parser.parse(workflow)?;
        let q = quota::workflow_quota(&dag, self.config.mu);
        let prev_metrics = RuntimeMetrics::initial(&dag);
        // The arm seed is drawn before the first partition draws. A failed
        // partition registers nothing and spends no id.
        let seed = self.rng.next_u64();
        let assignment = self.partition(&dag, &prev_metrics, &contention, q)?;
        // Intern the name once; every later use (lookups, reports) shares
        // this allocation.
        let name: Arc<str> = Arc::from(workflow.name.as_str());
        let state = WorkflowState {
            name: name.clone(),
            metrics: WorkflowMetrics::default(),
            feedback: (self.config.repartition_every.is_some() || self.config.qos_target.is_some())
                .then(|| FeedbackCollector::new(&dag)),
            critical_exec: dag.critical_path_exec(),
            deployed: WorkflowCtx::new(Arc::new(dag), assignment, seed),
            client,
            contention,
            prev_metrics,
            quota: q,
            sent: 0,
            completed_since_partition: 0,
        };
        let wf = WorkflowId::new(self.workflows.len() as u32);
        self.workflows.push(state);
        self.budget_memstores(wf);
        if let Some(slo) = &mut self.slo {
            slo.register(workflow.name.as_str(), wf);
        }
        self.names.insert(name, wf);

        // Kick off the client.
        match client {
            ClientConfig::ClosedLoop { .. } => self.schedule_arrival(self.queue.now(), wf),
            ClientConfig::OpenLoop { per_minute, .. } => self.schedule_open_arrival(wf, per_minute),
            ClientConfig::Manual => {}
        }
        Ok(wf)
    }

    /// The id of a registered workflow.
    pub fn workflow_id(&self, name: &str) -> Option<WorkflowId> {
        self.names.get(name).copied()
    }

    /// The name of a registered workflow (inverse of [`Cluster::workflow_id`]).
    pub fn workflow_name(&self, wf: WorkflowId) -> Option<&str> {
        self.workflows.get(wf.index()).map(|ws| &*ws.name)
    }

    /// The current placement of a workflow (Figure 15).
    ///
    /// # Panics
    ///
    /// Panics if `wf` is unknown.
    pub fn distribution(&self, wf: WorkflowId) -> Vec<DistributionRow> {
        let deployed = &self.workflows[wf.index()].deployed;
        deployed
            .assignment
            .distribution(&deployed.dag)
            .into_iter()
            .map(|(worker, groups, functions)| DistributionRow {
                worker,
                groups,
                functions,
            })
            .collect()
    }

    /// Live per-worker load exactly as the placement layer sees it,
    /// alongside each worker engine's load: its live invocation states and,
    /// under WorkerSP, the groups of the current deployments placed on its
    /// worker — the surface behind the per-worker load gauges in
    /// `faasflow-obs`.
    pub fn worker_load_snapshot(&self) -> Vec<(NodeId, WorkerLoad, faasflow_engine::EngineLoad)> {
        let loads = self.worker_loads();
        let mut local_groups = vec![0; self.config.workers as usize];
        if self.config.mode == ScheduleMode::WorkerSp {
            for w in placed_groups(&self.workflows, &self.config) {
                local_groups[w] += 1;
            }
        }
        (0..self.config.workers as usize)
            .map(|w| {
                let engine = faasflow_engine::EngineLoad {
                    live_invocations: self.engines.workers[w].live_invocations(),
                    local_groups: local_groups[w],
                };
                (self.config.worker_node(w as u32), loads[w], engine)
            })
            .collect()
    }

    /// Replaces a workflow's client with an open loop at `per_minute`
    /// sending `invocations` further invocations. Call only when the
    /// previous client has drained (e.g. after a closed-loop warm-up and
    /// [`Cluster::run_until_idle`]) — the §5.4 methodology warms containers
    /// closed-loop, then measures open-loop.
    ///
    /// # Panics
    ///
    /// Panics if `wf` is unknown or `per_minute` is not positive.
    pub fn switch_to_open_loop(&mut self, wf: WorkflowId, per_minute: f64, invocations: u32) {
        assert!(
            per_minute.is_finite() && per_minute > 0.0,
            "open-loop rate must be positive"
        );
        let state = &mut self.workflows[wf.index()];
        state.client = ClientConfig::OpenLoop {
            per_minute,
            invocations: state.sent + invocations,
        };
        self.schedule_open_arrival(wf, per_minute);
    }

    /// Sends one invocation immediately (manual clients).
    ///
    /// # Panics
    ///
    /// Panics if `wf` is unknown.
    pub fn invoke_now(&mut self, wf: WorkflowId) {
        assert!(wf.index() < self.workflows.len(), "unknown workflow {wf}");
        self.schedule_arrival(self.queue.now(), wf);
    }

    /// Runs until no *work* remains: no live invocation and no pending
    /// client arrival. Maintenance timers (container keep-alive expiry)
    /// stay queued, so warm pools survive between measurement phases
    /// instead of the clock fast-forwarding 600 s to drain them.
    /// Returns the final simulated time.
    pub fn run_until_idle(&mut self) -> SimTime {
        let wall = std::time::Instant::now();
        while self.work_pending() {
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            self.dispatch(t, ev);
        }
        self.loop_wall_secs += wall.elapsed().as_secs_f64();
        self.queue.now()
    }

    /// True while an invocation is in flight or an arrival is scheduled.
    fn work_pending(&self) -> bool {
        self.pending_arrivals > 0 || !self.invocations.is_empty()
    }

    /// Schedules a client arrival, keeping the pending count in step.
    fn schedule_arrival(&mut self, at: SimTime, wf: WorkflowId) {
        self.pending_arrivals += 1;
        self.queue.schedule(at, Event::Arrival { wf });
    }

    /// Schedules the next open-loop arrival one exponential gap from now.
    fn schedule_open_arrival(&mut self, wf: WorkflowId, per_minute: f64) {
        let gap = self.rng.exp_f64(60.0 / per_minute);
        self.schedule_arrival(self.queue.now() + SimDuration::from_secs_f64(gap), wf);
    }

    /// Runs until the clock reaches `deadline` (events at the deadline are
    /// processed) or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        let wall = std::time::Instant::now();
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked event exists");
            self.dispatch(t, ev);
        }
        self.loop_wall_secs += wall.elapsed().as_secs_f64();
    }

    /// Dispatches one event through [`Self::handle`], maintaining the
    /// wall-clock self-profile of the loop.
    #[inline]
    fn dispatch(&mut self, t: SimTime, ev: Event) {
        self.loop_events += 1;
        #[cfg(feature = "loop-profile")]
        {
            let name = ev.name();
            let start = std::time::Instant::now();
            self.handle(t, ev);
            let entry = self.loop_event_stats.entry(name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += start.elapsed().as_secs_f64();
        }
        #[cfg(not(feature = "loop-profile"))]
        self.handle(t, ev);
        self.invocations
            .debug_check_conservation(self.admission.counts.admitted);
    }

    /// Wall-clock self-profile of the event loop: events dispatched,
    /// seconds inside the run loops (events/sec via
    /// [`LoopProfile::events_per_sec`]), and — with the `loop-profile`
    /// cargo feature — per-event-type handler timing. Deliberately *not*
    /// part of [`RunReport`]: wall-clock numbers differ run to run while
    /// the report must stay bit-identical for a given seed.
    pub fn loop_profile(&self) -> LoopProfile {
        LoopProfile {
            events_processed: self.loop_events,
            wall_secs: self.loop_wall_secs,
            #[cfg(feature = "loop-profile")]
            per_event: self
                .loop_event_stats
                .iter()
                .map(
                    |(&name, &(count, total_secs))| crate::metrics::EventTypeProfile {
                        name: name.to_string(),
                        count,
                        total_secs,
                    },
                )
                .collect(),
            #[cfg(not(feature = "loop-profile"))]
            per_event: Vec::new(),
        }
    }

    /// Wall-clock seconds spent in the graph partitioner (Figure 16) and
    /// the number of partition runs.
    pub fn partition_wall_time(&self) -> (f64, u32) {
        (self.partition_wall_secs, self.partition_runs)
    }

    /// Drains the recorded trace (empty unless `config.trace` is set).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }

    /// The recorded trace without draining it (empty unless `config.trace`
    /// is set) — lets callers both assemble a span forest and later export
    /// the raw stream without cloning.
    pub fn trace(&self) -> &[TraceEvent] {
        self.tracer.events()
    }

    /// The static critical-path execution time of a registered workflow's
    /// DAG — the `dag.critical_path_exec()` lower bound every observed
    /// critical path is measured against.
    pub fn critical_exec(&self, wf: WorkflowId) -> Option<SimDuration> {
        self.workflows.get(wf.index()).map(|ws| ws.critical_exec)
    }

    /// The storage node's object catalog (leak checks: every invocation
    /// releases its objects when it ends, however it ends).
    pub fn remote_store(&self) -> &RemoteStore {
        self.transfers.remote_store()
    }

    /// Each worker's FaaStore, indexed by worker.
    pub fn faastores(&self) -> impl ExactSizeIterator<Item = &FaaStore> {
        self.workers.iter().map(|w| &w.store)
    }

    /// Time-averaged and peak CPU/memory usage per worker, up to the
    /// current simulated instant (§5.6–5.7).
    pub fn utilization(&self) -> Vec<WorkerUtilization> {
        let now = self.queue.now();
        self.workers
            .iter()
            .enumerate()
            .map(|(w, worker)| WorkerUtilization {
                worker: self.config.worker_node(w as u32),
                cpu_mean_cores: worker.cpu.mean(now),
                cpu_peak_cores: worker.cpu.peak(),
                mem_mean_bytes: worker.mem.mean(now),
                mem_peak_bytes: worker.mem.peak(),
            })
            .collect()
    }

    /// Clears the per-workflow measurement histograms, keeping all cluster
    /// state (warm containers, deployments, in-flight work). Call after a
    /// warm-up phase so that one-time cold starts do not pollute the
    /// steady-state statistics — the paper's closed-loop methodology
    /// explicitly excludes cold-start effects from its latency numbers
    /// (§2.3).
    pub fn reset_metrics(&mut self) {
        for ws in &mut self.workflows {
            ws.metrics = WorkflowMetrics::default();
        }
    }

    /// Grants a workflow more client invocations (same client shape). Used
    /// by harnesses that warm up and then measure.
    ///
    /// # Panics
    ///
    /// Panics if `wf` is unknown.
    pub fn extend_client(&mut self, wf: WorkflowId, additional: u32) {
        let state = &mut self.workflows[wf.index()];
        // Whether the previous allotment already ran out — only then does
        // the arrival chain need re-arming (a live chain keeps itself
        // going; re-arming it would double the rate).
        let drained = state.sent >= state.client.total_invocations();
        match &mut state.client {
            ClientConfig::ClosedLoop { invocations }
            | ClientConfig::OpenLoop { invocations, .. } => {
                *invocations += additional;
            }
            ClientConfig::Manual => {}
        }
        if !drained {
            return;
        }
        match state.client {
            ClientConfig::ClosedLoop { .. } if !self.invocations.any_of(wf) => {
                self.schedule_arrival(self.queue.now(), wf);
            }
            ClientConfig::OpenLoop { per_minute, .. } => self.schedule_open_arrival(wf, per_minute),
            ClientConfig::ClosedLoop { .. } | ClientConfig::Manual => {}
        }
    }

    /// Produces the aggregated run report.
    pub fn report(&mut self) -> RunReport {
        let mut workflows = BTreeMap::new();
        // The only string allocations here are the ones owned by the
        // report itself.
        for ws in &mut self.workflows {
            workflows.insert(ws.name.to_string(), ws.metrics.snapshot(&ws.name));
        }
        let now = self.queue.now();
        let sim_secs = now.as_secs_f64();
        let (mut cold, mut warm) = (0u64, 0u64);
        for w in &self.workers {
            cold += w.pool.stats().cold_starts.get();
            warm += w.pool.stats().warm_starts.get();
        }
        let faastore_local_bytes = self
            .faastores()
            .map(|f| f.memstore().total_bytes_stored())
            .sum();
        let (slo, degrade) = self
            .slo
            .as_ref()
            .map(SloControl::report)
            .unwrap_or_default();
        let mut report = RunReport {
            workflows,
            sim_time_secs: sim_secs,
            cold_starts: cold,
            warm_starts: warm,
            faastore_local_bytes,
            exec_retries: self.exec_retries,
            repartition_failures: self.repartition_failures,
            faults: self.faults,
            overload: self.admission.report(&self.hedging),
            placement: self.rebalancer.report,
            slo,
            degrade,
            health: self.windows.health_report(
                self.health.as_ref(),
                self.faults.dead_letter_quarantine_orphan,
                self.transfers.stalled_flows(),
            ),
            trace_dropped: self.tracer.dropped(),
            resources: self.sampler.as_ref().map(Sampler::report),
            ..RunReport::default()
        };
        self.transfers.report_into(&mut report);
        self.engines.report_into(now, &mut report);
        report
    }

    // ==================================================================
    // Partitioning / deployment
    // ==================================================================

    /// Live per-worker load fed into load-aware placement: container queue
    /// depth, booting + running instances (each admission counted once),
    /// resident memstore bytes, and the recently observed end-to-end tail.
    fn worker_loads(&self) -> Vec<WorkerLoad> {
        let load = |(w, worker): (usize, &Worker)| WorkerLoad {
            queued: worker.pool.queue_len() as u32,
            mem_used_bytes: worker.store.memstore().used_total(),
            recent_p99_ms: self.rebalancer.recent_p99_ms(w),
            ..WorkerLoad::default()
        };
        let mut loads: Vec<_> = self.workers.iter().enumerate().map(load).collect();
        self.invocations.count_busy(&mut loads, &self.workers);
        loads
    }

    /// Whether the health detector holds worker `w` in quarantine; with no
    /// detector, no worker is.
    fn quarantined(&self, w: usize) -> bool {
        self.health
            .as_ref()
            .is_some_and(|h| h.quarantined(w as u32))
    }

    /// The partition target set: alive, non-quarantined workers, at
    /// residual capacity (nominal minus live instances) when the placement
    /// layer is enabled, at nominal capacity otherwise. Quarantine zeroes
    /// a worker's share without declaring it dead: its running work keeps
    /// completing, it just gets nothing new.
    fn placement_workers(&self, residual: bool, loads: &[WorkerLoad]) -> Vec<WorkerInfo> {
        (0..self.config.workers)
            .filter(|&i| self.workers[i as usize].alive && !self.quarantined(i as usize))
            .map(|i| {
                let mut info =
                    WorkerInfo::new(self.config.worker_node(i), self.config.worker_capacity());
                if let Some(load) = loads.get(i as usize) {
                    if residual {
                        info.capacity = info.capacity.saturating_sub(load.busy());
                    }
                    info = info.with_load(*load);
                }
                info
            })
            .collect()
    }

    /// Algorithm 1 for one workflow over the partition target set (see
    /// [`Cluster::placement_workers`]), again at nominal capacity when the
    /// rebalancer falls back. Only live workers take part: a crash shrinks
    /// the target set and recovery redeploys onto the survivors.
    fn partition(
        &mut self,
        dag: &WorkflowDag,
        metrics: &RuntimeMetrics,
        contention: &ContentionSet,
        quota: u64,
    ) -> Result<Arc<Assignment>, ClusterError> {
        let enabled = self.config.placement_config.enabled;
        let loads = if enabled {
            self.worker_loads()
        } else {
            Vec::new()
        };
        let workers = self.placement_workers(enabled, &loads);
        let scheduler = &self.scheduler;
        let partition = |workers: &[WorkerInfo], rng: &mut SimRng| {
            scheduler.partition(dag, workers, metrics, contention, quota, rng)
        };
        let start = std::time::Instant::now();
        let mut result = partition(&workers, &mut self.rng);
        if self.rebalancer.falls_back(&result) {
            let nominal = self.placement_workers(false, &loads);
            result = partition(&nominal, &mut self.rng);
        }
        let assignment = result?;
        self.partition_wall_secs += start.elapsed().as_secs_f64();
        self.partition_runs += 1;
        Ok(Arc::new(assignment))
    }

    /// Re-partitions a registered workflow and makes the result its
    /// current deployment. Invocations pinned to the previous assignment
    /// keep it alive until they end.
    fn partition_and_deploy(&mut self, wf: WorkflowId) -> Result<(), ClusterError> {
        // Copied out: `partition` borrows the whole cluster mutably.
        let ws = &self.workflows[wf.index()];
        let dag = ws.deployed.dag.clone();
        let (metrics, contention) = (ws.prev_metrics.clone(), ws.contention.clone());
        let assignment = self.partition(&dag, &metrics, &contention, ws.quota)?;
        self.workflows[wf.index()].deployed.assignment = assignment;
        self.budget_memstores(wf);
        Ok(())
    }

    /// Budgets every worker's memstore for the groups of workflow `wf`'s
    /// current deployment placed there.
    fn budget_memstores(&mut self, wf: WorkflowId) {
        let deployed = &self.workflows[wf.index()].deployed;
        for (i, worker) in self.workers.iter_mut().enumerate() {
            let node = self.config.worker_node(i as u32);
            let members = deployed
                .assignment
                .groups
                .iter()
                .filter(|g| g.worker == node)
                .flat_map(|g| g.members.iter().copied());
            let budget = quota::subset_quota(&deployed.dag, members, self.config.mu);
            worker.store.memstore_mut().set_budget(wf, budget);
        }
    }

    fn maybe_repartition(&mut self, wf: WorkflowId, qos_violated: bool) {
        let due_by_count = match self.config.repartition_every {
            Some(period) => self.workflows[wf.index()].completed_since_partition >= period,
            None => false,
        };
        // A QoS violation forces an iteration, but only if at least one
        // invocation completed since the last one (fresh feedback exists).
        let due_by_qos = qos_violated && self.workflows[wf.index()].completed_since_partition > 0;
        if !due_by_count && !due_by_qos {
            return;
        }
        let state = &mut self.workflows[wf.index()];
        state.completed_since_partition = 0;
        let collector = state
            .feedback
            .replace(FeedbackCollector::new(&state.deployed.dag));
        let collector = collector.expect("an iteration trigger keeps a collector");
        let dag = Arc::make_mut(&mut state.deployed.dag);
        state.prev_metrics = collector.finish(dag, &state.prev_metrics);
        if let Err(e) = self.partition_and_deploy(wf) {
            // A repartition that no longer fits keeps the previous assignment —
            // counted, not silently swallowed. Capacity misses are a
            // legitimate runtime condition (scale feedback can raise a
            // node's demand past what the cluster holds); anything else
            // (stale metrics, no workers) is a bug.
            self.repartition_failures += 1;
            debug_assert!(
                matches!(
                    e,
                    ClusterError::Schedule(ScheduleError::InsufficientCapacity { .. })
                ),
                "repartition failed: {e}"
            );
        }
    }

    // ==================================================================
    // Event dispatch
    // ==================================================================

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Arrival { wf } => self.on_arrival(now, wf),
            Event::DeliverBegin {
                worker,
                wf,
                inv,
                epoch,
            } => {
                if self.engine_accepts(worker, wf, inv, epoch) {
                    let ctx = self.engine_pin(worker, wf, inv);
                    let actions = self.engines.workers[worker].begin_invocation(&ctx, wf, inv);
                    self.apply_worker_actions(now, worker, actions);
                }
            }
            Event::DeliverSync {
                worker,
                wf,
                inv,
                completed,
                epoch,
            } => {
                if self.engine_accepts(worker, wf, inv, epoch) {
                    let ctx = self.engine_pin(worker, wf, inv);
                    let engine = &mut self.engines.workers[worker];
                    let actions = engine.on_state_sync(&ctx, wf, inv, completed);
                    self.apply_worker_actions(now, worker, actions);
                }
            }
            Event::DeliverAssign {
                worker,
                wf,
                inv,
                function,
            } => {
                if !self.invocations.alive((wf, inv)) {
                    // Dropped: the invocation finished or was dead-lettered.
                } else if self.workers[worker].alive {
                    self.spawn_instances(now, worker, wf, inv, function);
                } else {
                    let spawn = Self::spawn_instances;
                    self.reassign_from_dead(now, worker, wf, inv, function, spawn);
                }
            }
            Event::DeliverExitReport {
                wf,
                inv,
                epoch,
                function,
            } => {
                if self.invocations.epoch_alive((wf, inv), epoch) {
                    self.on_exit_report(now, wf, inv, function);
                }
            }
            Event::MasterArrive { msg, gen } => {
                if self.engines.master_arrive(msg, gen) {
                    self.try_start_master(now);
                }
            }
            Event::MasterDone { gen } => self.on_master_done(now, gen),
            Event::VirtualDone {
                worker,
                wf,
                inv,
                function,
                epoch,
            } => {
                if self.engine_accepts(worker, wf, inv, epoch) {
                    if let Some(state) = self.invocations.get_mut((wf, inv)) {
                        if !state.mark_done(function) {
                            // Replay already re-derived this virtual node's
                            // completion; the pre-crash event is a duplicate.
                            self.engines.recovery.duplicate_suppressions += 1;
                            return;
                        }
                    }
                    self.worker_node_complete(now, worker, wf, inv, function);
                }
            }
            Event::InstanceReady {
                worker,
                token,
                container,
                cold,
            } => self.on_instance_ready(now, worker, token, container, cold),
            Event::StartRemote(io) => {
                if self.invocations.instance_on(io.worker as usize, io.token) {
                    self.transfers.start_remote(now, io, &mut self.queue);
                }
            }
            Event::ExecDone { worker, token, seq } => self.on_exec_done(now, worker, token, seq),
            Event::WorkerInstanceDone { worker, token, gen } => {
                // An engine down, or a message that predates its last
                // recovery, loses the completion: it was already reflected
                // in the cluster-side instance counts the replay seeded from.
                if self
                    .engines
                    .deliver(EngineTarget::Worker(worker as u32), gen)
                    && self.workers[worker].alive
                    && self.invocations.epoch_alive(token.key(), token.epoch)
                {
                    let (wf, inv, function) = (token.workflow, token.invocation, token.function);
                    self.worker_node_complete(now, worker, wf, inv, function);
                }
            }
            Event::FlowTick => {
                let mut done = self.transfers.completed(now);
                for (_, flow) in done.drain(..) {
                    self.on_flow_done(now, flow.tag);
                }
                self.transfers.end_tick(now, done, &mut self.queue);
            }
            Event::ContainerExpiry { worker } => {
                self.workers[worker].expiry_timer = None;
                let admissions = self.workers[worker].pool.evict_expired(now, &mut self.rng);
                self.schedule_admissions(worker, admissions);
                self.pool_changed(now, worker);
            }
            Event::Timeout { wf, inv } => self.on_timeout(now, wf, inv),
            Event::WorkerCrash { idx } => self.on_worker_crash(now, idx),
            Event::WorkerRestart { worker } => self.on_worker_restart(now, worker),
            Event::LeaseExpired { worker } => self.on_lease_expired(now, worker),
            Event::StorageFault { idx, open } => {
                let kind = self.config.fault.storage_faults[idx].kind;
                self.transfers.storage.on_fault(kind, open);
            }
            Event::NetFault { idx, open } => self.on_net_fault(now, idx, open),
            Event::RetryRemote { io, attempt } => self.remote_io(now, io, attempt),
            Event::RecoverInvocation { wf, inv, epoch } => {
                if self.invocations.epoch_alive((wf, inv), epoch) {
                    match self.config.mode {
                        ScheduleMode::WorkerSp => self.restart_invocation(
                            now,
                            wf,
                            inv,
                            DeadLetterReason::RetriesExhausted,
                        ),
                        // The master-side baseline has no partition to fall
                        // back on once in-place recovery fails.
                        ScheduleMode::MasterSp => {
                            self.dead_letter_invocation(now, wf, inv, DeadLetterReason::CrashOrphan)
                        }
                    }
                }
            }
            Event::Sample => {
                // Self-rescheduling; the chain does not keep
                // `run_until_idle` alive because sampling is not "work"
                // (`work_pending`).
                if let Some(sampler) = self.sampler.as_mut() {
                    let (pending, inflight) = (self.queue.len(), self.invocations.len());
                    let flows = self.transfers.flows();
                    sampler.take(now, flows, &self.workers, pending, inflight);
                    self.queue.schedule(now + sampler.every, Event::Sample);
                }
            }
            Event::Hedge(HedgeEvent::Fire { worker, token, seq }) => {
                self.on_hedge_fire(now, worker, token, seq)
            }
            Event::Hedge(HedgeEvent::Ready { token, seq }) => self.on_hedge_ready(now, token, seq),
            Event::Hedge(HedgeEvent::ExecDone { token, seq }) => {
                self.on_hedge_exec_done(now, token, seq)
            }
            Event::BackpressureRetry(d) => self.on_backpressure_retry(now, d),
            Event::EngineCrash { idx } => self.on_engine_crash(now, idx),
            Event::EngineRestart {
                target,
                attempt,
                era,
            } => self.on_engine_restart(now, target, attempt, era),
            Event::EngineRecovered { target, era } => self.on_engine_recovered(now, target, era),
            Event::GrayFault { idx, open } => self.on_gray_fault(now, idx, open),
            Event::HealthReopen { worker, at } => self.on_health_reopen(worker, at),
        }
    }

    /// Whether `worker`'s engine processes a message for `(wf, inv)` at
    /// `epoch`: a down engine loses it (counted), a dead worker or a stale
    /// epoch drops it. The message carries no engine generation, so
    /// whichever incarnation is up takes it.
    fn engine_accepts(
        &mut self,
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        epoch: u32,
    ) -> bool {
        let target = EngineTarget::Worker(worker as u32);
        self.engines.deliver(target, self.engines.gen(target))
            && self.workers[worker].alive
            && self.invocations.epoch_alive((wf, inv), epoch)
    }

    // ==================================================================
    // Client & invocation lifecycle
    // ==================================================================

    fn on_arrival(&mut self, now: SimTime, wf: WorkflowId) {
        self.pending_arrivals = self
            .pending_arrivals
            .checked_sub(1)
            .expect("arrival bookkeeping out of step");
        let state = &mut self.workflows[wf.index()];
        if state.sent >= state.client.total_invocations() {
            return;
        }
        state.sent += 1;
        // Open-loop: schedule the next arrival independently of completion.
        if let ClientConfig::OpenLoop {
            per_minute,
            invocations,
        } = state.client
        {
            if state.sent < invocations {
                self.schedule_open_arrival(wf, per_minute);
            }
        }
        let state = &mut self.workflows[wf.index()];
        let inv = self.invocations.next_id();
        self.tracer.record(|| TraceEvent::InvocationArrived {
            workflow: wf,
            invocation: inv,
            at: now,
        });
        let (dag, assignment) = state.pin();
        let mut inv_state = InvState::new(dag, assignment, now);
        let timeout_at = now + self.config.timeout;
        inv_state.timeout_event = Some(self.queue.schedule(timeout_at, Event::Timeout { wf, inv }));
        state.metrics.sent += 1;
        self.admission.counts.admitted += 1;

        // Degradation gate: a Throttled/Shedding workflow may have this
        // arrival refused before any dispatch work happens. The arrival is
        // still accepted into the system (`sent`/`admitted` tick, the
        // conservation invariants hold) and then shed with explicit
        // accounting. Admissions during recovery may be marked as probes.
        let decision = self
            .slo
            .as_mut()
            .map_or(AdmitDecision::ADMIT, |slo| slo.admit(wf));
        inv_state.degrade_probe = decision.probe;
        self.invocations.insert((wf, inv), inv_state);
        let master_sp = self.config.mode == ScheduleMode::MasterSp;
        if master_sp {
            // Write-ahead: the admission is durable before the engine sees
            // it, so an engine crash before the Begin drains still leaves a
            // recoverable journal record (and a gate shed below replays as
            // the pair Admitted → Terminal(Shed)).
            let (master, event) = (EngineTarget::Master, JournalEvent::Admitted);
            let storage = self.transfers.storage;
            self.engines.append(now, master, (wf, inv), event, storage);
        }
        if !decision.admitted {
            // Attributed to the first entry node's worker, where dispatch
            // would have begun (worker 0 for degenerate placements).
            let worker = self.entry_workers(wf, inv).first().copied().unwrap_or(0);
            self.abandon_invocation(now, wf, inv, AbandonKind::DegradeShed { worker });
        } else if master_sp {
            let gen = self.engines.gen(EngineTarget::Master);
            let msg = MasterInbox::Begin { wf, inv };
            self.queue.schedule(now, Event::MasterArrive { msg, gen });
        } else {
            self.begin_invocation_dispatch(now, wf, inv);
        }
    }

    /// The workers hosting an invocation's entry nodes under its pinned
    /// placement, ascending.
    fn entry_workers(&self, wf: WorkflowId, inv: InvocationId) -> Vec<usize> {
        let state = self.invocations.get((wf, inv)).expect("live invocation");
        let mut workers: Vec<usize> = state
            .dag
            .entry_nodes()
            .iter()
            .filter_map(|&e| self.config.worker_index(state.assignment.worker_of(e)))
            .collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }

    /// WorkerSP: the invocation's pinned deployment, handed to `worker`'s
    /// engine with a `begin` or `sync` it accepted; the worker becomes a
    /// holder of the invocation's state. The engine routes by the first
    /// context it gets, so an incremental rebalance landing between an
    /// invocation's arrival and a delayed sync cannot make the receiving
    /// engine route the live invocation by the *new* assignment —
    /// stranding successors and breaking the data-placement contract (a
    /// `LocalMem` put whose consumer moved elsewhere).
    fn engine_pin(&mut self, worker: usize, wf: WorkflowId, inv: InvocationId) -> WorkflowCtx {
        let state = self.invocations.get_mut((wf, inv));
        let state = state.expect("an accepted invocation is live");
        state.holders.insert(worker);
        let seed = self.workflows[wf.index()].deployed.seed;
        WorkflowCtx::new(state.dag.clone(), state.assignment.clone(), seed)
    }

    /// WorkerSP: notify each worker hosting an entry node of the
    /// invocation's pinned assignment. Used on arrival and again after a
    /// crash-recovery restart (under the bumped epoch).
    fn begin_invocation_dispatch(&mut self, now: SimTime, wf: WorkflowId, inv: InvocationId) {
        let epoch = self.invocations.epoch_of((wf, inv));
        for worker in self.entry_workers(wf, inv) {
            let (target, event) = (EngineTarget::Worker(worker as u32), JournalEvent::Admitted);
            let storage = self.transfers.storage;
            self.engines.append(now, target, (wf, inv), event, storage);
            let node = self.config.worker_node(worker as u32);
            let delay = self.control_delay(256, ClusterConfig::MASTER_NODE, node);
            self.queue.schedule(
                now + delay,
                Event::DeliverBegin {
                    worker,
                    wf,
                    inv,
                    epoch,
                },
            );
        }
    }

    /// Latency of one control-plane message, including link-fault effects:
    /// a degraded endpoint stretches the latency and may lose the message,
    /// which costs a backoff plus a retransmission per loss. On clean links
    /// this is exactly one `MessageModel` draw — bit-identical to the
    /// pre-fault behaviour.
    fn control_delay(&mut self, bytes: u64, src: NodeId, dst: NodeId) -> SimDuration {
        let delay = MessageModel::LAN_TCP.latency(bytes, &mut self.rng);
        let quality = self.windows.links.path(src, dst);
        if quality.is_clean() {
            return delay;
        }
        let mut total = delay.mul_f64(quality.latency_factor);
        let mut attempt = 0u32;
        while quality.loss > 0.0
            && attempt < self.config.fault.backoff.max_attempts
            && self.rng.chance(quality.loss)
        {
            self.faults.message_retransmits += 1;
            total += self.config.fault.backoff.delay(attempt, &mut self.rng);
            let resend = MessageModel::LAN_TCP.latency(bytes, &mut self.rng);
            total += resend.mul_f64(quality.latency_factor);
            attempt += 1;
        }
        total
    }

    fn on_timeout(&mut self, _now: SimTime, wf: WorkflowId, inv: InvocationId) {
        let Some(state) = self.invocations.get_mut((wf, inv)) else {
            return;
        };
        state.timed_out = true;
        state.timeout_event = None;
        let ws = &mut self.workflows[wf.index()];
        let (critical, metrics) = (ws.critical_exec, &mut ws.metrics);
        metrics.timeouts += 1;
        let cap_ms = self.config.timeout.as_millis_f64();
        metrics.e2e.record(cap_ms);
        metrics
            .sched_overhead
            .record((self.config.timeout.saturating_sub(critical)).as_millis_f64());
    }

    fn on_exit_report(
        &mut self,
        now: SimTime,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
    ) {
        let Some(state) = self.invocations.get_mut((wf, inv)) else {
            return;
        };
        if !state.report_exit(function) {
            // Engine-crash replay re-emitted this exit's completion; the
            // invocation completes once, at its last distinct exit.
            self.engines.recovery.duplicate_suppressions += 1;
            return;
        }
        if state.exits_reported() {
            self.complete_invocation(now, wf, inv);
        }
    }

    fn complete_invocation(&mut self, now: SimTime, wf: WorkflowId, inv: InvocationId) {
        let state = self
            .end_invocation(now, wf, inv, TerminalOutcome::Completed)
            .expect("completing a live invocation");
        self.tracer.record(|| TraceEvent::InvocationCompleted {
            workflow: wf,
            invocation: inv,
            at: now,
            timed_out: state.timed_out,
        });
        if let Some(slo) = &mut self.slo {
            slo.on_terminal(
                now,
                wf,
                now - state.started,
                state.timed_out,
                state.degrade_probe,
                &mut self.tracer,
            );
        }

        // Metrics (skip latency if the timeout already recorded it).
        let ws = &mut self.workflows[wf.index()];
        let metrics = &mut ws.metrics;
        metrics.completed += 1;
        let mut qos_violated = false;
        {
            let e2e = now - state.started;
            if let Some(target) = self.config.qos_target {
                qos_violated = state.timed_out || e2e > target;
            }
            if !state.timed_out {
                metrics.e2e.record(e2e.as_millis_f64());
                metrics
                    .sched_overhead
                    .record(e2e.saturating_sub(ws.critical_exec).as_millis_f64());
            }
        }
        let touched = state.assignment.node_of.iter();
        let touched = touched.filter_map(|&n| self.config.worker_index(n));
        self.rebalancer.observe(now - state.started, touched);
        metrics
            .transfer_total
            .record(state.ledger.total_latency.as_millis_f64());
        metrics
            .bytes_moved
            .record((state.ledger.remote_bytes + state.ledger.local_bytes) as f64);
        metrics.remote_bytes += state.ledger.remote_bytes;
        metrics.local_bytes += state.ledger.local_bytes;
        metrics.first_completion.get_or_insert(now);
        metrics.last_completion = Some(now);

        // Feedback: observed container scale and executor maps.
        if let Some(feedback) = &mut ws.feedback {
            for node in state.dag.nodes() {
                if !node.kind.is_function() {
                    continue;
                }
                let worker = state.assignment.worker_of(node.id);
                if let Some(wi) = self.config.worker_index(worker) {
                    let pool = self.workers[wi].pool.pool_size((wf, node.id)).max(1);
                    feedback.observe_scale(node.id, pool);
                    feedback.observe_map(node.id, node.parallelism);
                }
            }
        }
        ws.completed_since_partition += 1;
        self.release_invocation_state(wf, inv, &state.holders);
        self.retire_invocation(now, wf);
        self.maybe_repartition(wf, qos_violated);
        self.maybe_rebalance_on_skew();
    }

    /// Takes an invocation that ended out of the live set, cancels its
    /// timeout and journals its outcome. Terminal outcomes are journaled
    /// gateway-side in both modes: each invocation gets exactly one.
    fn end_invocation(
        &mut self,
        now: SimTime,
        wf: WorkflowId,
        inv: InvocationId,
        outcome: TerminalOutcome,
    ) -> Option<InvState> {
        let mut state = self.invocations.end((wf, inv))?;
        if let Some(ev) = state.timeout_event.take() {
            self.queue.cancel(ev);
        }
        let storage = self.transfers.storage;
        self.engines.journal_end(now, (wf, inv), outcome, storage);
        Some(state)
    }

    /// After an invocation ended, a closed-loop client sends its next one.
    fn retire_invocation(&mut self, now: SimTime, wf: WorkflowId) {
        let ws = &self.workflows[wf.index()];
        if matches!(ws.client, ClientConfig::ClosedLoop { .. })
            && ws.sent < ws.client.total_invocations()
        {
            self.schedule_arrival(now, wf);
        }
    }

    /// Drops an invocation's engine trigger state and every object it
    /// stored, in the FaaStores and the remote store.
    fn release_invocation_state(&mut self, wf: WorkflowId, inv: InvocationId, holders: &WorkerSet) {
        self.engines.release(wf, inv, holders);
        for w in holders.iter() {
            let _ = self.workers[w].store.release_invocation(wf, inv);
        }
        self.transfers.release_invocation(inv);
    }

    // ==================================================================
    // Incremental rebalancing (placement layer)
    // ==================================================================

    /// The incremental rebalancer's skew trigger (run on every
    /// completion): re-places just the workflows with a group on the hot
    /// worker the [`Rebalancer`] picks.
    fn maybe_rebalance_on_skew(&mut self) {
        let alive = |w: usize| self.workers[w].alive;
        let placed = placed_groups(&self.workflows, &self.config);
        let Some(hot) = self.rebalancer.skewed_worker(placed, alive) else {
            return;
        };
        let node = self.config.worker_node(hot as u32);
        self.rebalance_off(self.queue.now(), node, false);
    }

    /// Re-places only the workflows whose current deployment has a group on
    /// `node`, via the ordinary epoch-fenced red-black redeploy path, on a
    /// skew or a `recovery` signal.
    fn rebalance_off(&mut self, now: SimTime, node: NodeId, recovery: bool) {
        let moved = self.redeploy_where(|ws| ws.deployed.assignment.involves(node));
        let tracer = &mut self.tracer;
        self.rebalancer
            .note_rebalanced(node, moved, recovery, now, tracer);
    }

    /// Re-partitions and redeploys, in id order, every workflow `pick`
    /// selects. One the workers cannot fit keeps its previous deployment
    /// (counted in `repartition_failures`). Returns how many moved. A
    /// redeploy changes only its own workflow, so picking as the sweep
    /// goes selects what picking up front would.
    fn redeploy_where(&mut self, pick: impl Fn(&WorkflowState) -> bool) -> u64 {
        let mut moved = 0u64;
        for i in 0..self.workflows.len() {
            if !pick(&self.workflows[i]) {
                continue;
            }
            match self.partition_and_deploy(WorkflowId::new(i as u32)) {
                Ok(()) => moved += 1,
                Err(_) => self.repartition_failures += 1,
            }
        }
        moved
    }

    // ==================================================================
    // Master engine (MasterSP)
    // ==================================================================

    fn try_start_master(&mut self, now: SimTime) {
        if let Some(gen) = self.engines.master_start() {
            let at = now + MASTER_TASK_COST;
            self.queue.schedule(at, Event::MasterDone { gen });
        }
    }

    fn on_master_done(&mut self, now: SimTime, gen: u64) {
        let Some(msg) = self.engines.master_finish(gen, MASTER_TASK_COST) else {
            return;
        };
        let actions = match msg {
            MasterInbox::Begin { wf, inv } if self.invocations.alive((wf, inv)) => {
                let current = &self.workflows[wf.index()].deployed;
                self.engines.master.begin_invocation(current, wf, inv)
            }
            MasterInbox::StateReturn { wf, inv, function } if self.invocations.alive((wf, inv)) => {
                let current = &self.workflows[wf.index()].deployed;
                let (key, storage) = ((wf, inv), self.transfers.storage);
                self.engines
                    .master_state_return(now, current, key, function, storage)
            }
            MasterInbox::Begin { .. } | MasterInbox::StateReturn { .. } => Vec::new(),
            MasterInbox::Requeue(d) => {
                // Central re-dispatch: the bounced assignment burned a
                // master CPU slot and now travels back to the worker.
                if self.invocations.epoch_alive((d.wf, d.inv), d.epoch) {
                    let node = self.config.worker_node(d.worker as u32);
                    let delay = self.control_delay(512, ClusterConfig::MASTER_NODE, node);
                    let at = now + delay + self.admission.defer_delay();
                    self.queue.schedule(at, Event::BackpressureRetry(d));
                }
                Vec::new()
            }
        };
        self.apply_master_actions(now, actions);
        self.try_start_master(now);
    }

    fn apply_master_actions(&mut self, now: SimTime, actions: Vec<MasterAction>) {
        for action in actions {
            match action {
                MasterAction::AssignTask {
                    worker,
                    workflow,
                    invocation,
                    function,
                } => {
                    let wi = self
                        .config
                        .worker_index(worker)
                        .expect("assignments target workers");
                    let (master, key) = (EngineTarget::Master, (workflow, invocation));
                    let event = JournalEvent::Dispatched(function);
                    self.engines
                        .append(now, master, key, event, self.transfers.storage);
                    let delay = self.control_delay(512, ClusterConfig::MASTER_NODE, worker);
                    self.queue.schedule(
                        now + delay,
                        Event::DeliverAssign {
                            worker: wi,
                            wf: workflow,
                            inv: invocation,
                            function,
                        },
                    );
                }
                MasterAction::ExitComplete {
                    workflow,
                    invocation,
                    function,
                } => {
                    // The master engine is co-located with the client.
                    self.on_exit_report(now, workflow, invocation, function);
                }
            }
        }
    }

    // ==================================================================
    // Worker engines (WorkerSP)
    // ==================================================================

    /// A node's completion reaches `worker`'s engine (a virtual node, or
    /// the last instance of a function), which acts on it.
    fn worker_node_complete(
        &mut self,
        now: SimTime,
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
    ) {
        let (key, storage) = ((wf, inv), self.transfers.storage);
        let actions = self
            .engines
            .worker_node_complete(now, worker, key, function, storage);
        self.apply_worker_actions(now, worker, actions);
    }

    fn apply_worker_actions(&mut self, now: SimTime, worker: usize, actions: Vec<WorkerAction>) {
        for action in actions {
            match action {
                WorkerAction::TriggerFunction {
                    workflow,
                    invocation,
                    function,
                } => {
                    let (is_virtual, epoch) = {
                        let Some(state) = self.invocations.get((workflow, invocation)) else {
                            continue;
                        };
                        (!state.dag.node(function).kind.is_function(), state.epoch)
                    };
                    if is_virtual {
                        self.queue.schedule(
                            now + WORKER_ENGINE_COST,
                            Event::VirtualDone {
                                worker,
                                wf: workflow,
                                inv: invocation,
                                function,
                                epoch,
                            },
                        );
                    } else {
                        let target = EngineTarget::Worker(worker as u32);
                        let (key, event) =
                            ((workflow, invocation), JournalEvent::Dispatched(function));
                        self.engines
                            .append(now, target, key, event, self.transfers.storage);
                        self.spawn_instances(now, worker, workflow, invocation, function);
                    }
                }
                WorkerAction::SyncState {
                    to,
                    workflow,
                    invocation,
                    completed,
                } => {
                    let target = EngineTarget::Worker(worker as u32);
                    let (key, event) =
                        ((workflow, invocation), JournalEvent::StateSynced(completed));
                    self.engines
                        .append(now, target, key, event, self.transfers.storage);
                    let from = self.config.worker_node(worker as u32);
                    self.tracer.record(|| TraceEvent::StateSyncSent {
                        from,
                        to,
                        workflow,
                        invocation,
                        completed,
                        at: now,
                    });
                    let wi = self.config.worker_index(to).expect("syncs target workers");
                    let epoch = self.invocations.epoch_of((workflow, invocation));
                    let delay = self.control_delay(256, from, to) + WORKER_ENGINE_COST;
                    self.queue.schedule(
                        now + delay,
                        Event::DeliverSync {
                            worker: wi,
                            wf: workflow,
                            inv: invocation,
                            completed,
                            epoch,
                        },
                    );
                }
                WorkerAction::ExitComplete {
                    workflow,
                    invocation,
                    function,
                } => {
                    let epoch = self.invocations.epoch_of((workflow, invocation));
                    let src = self.config.worker_node(worker as u32);
                    let delay = self.control_delay(256, src, ClusterConfig::MASTER_NODE);
                    self.queue.schedule(
                        now + delay,
                        Event::DeliverExitReport {
                            wf: workflow,
                            inv: invocation,
                            epoch,
                            function,
                        },
                    );
                }
            }
        }
    }

    // ==================================================================
    // Instance lifecycle
    // ==================================================================

    /// Dispatches a function's instances on `worker`, deferring first when
    /// backpressure is on and the worker's admission queue is saturated.
    fn spawn_instances(
        &mut self,
        now: SimTime,
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
    ) {
        let (alive, queued) = (
            self.workers[worker].alive,
            self.workers[worker].pool.queue_len(),
        );
        if self.admission.defers(alive, queued, 0) {
            self.defer_dispatch(now, worker, wf, inv, function, 0);
        } else {
            self.spawn_instances_now(now, worker, wf, inv, function);
        }
    }

    /// Pushes a saturated dispatch back. WorkerSP absorbs the wait locally
    /// (a timer on the worker); MasterSP bounces the assignment through the
    /// central queue, re-spending master CPU — the central-bottleneck
    /// asymmetry the overload scenario measures.
    fn defer_dispatch(
        &mut self,
        now: SimTime,
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
        attempt: u32,
    ) {
        let Some(state) = self.invocations.get((wf, inv)) else {
            return;
        };
        let d = Deferred {
            worker,
            wf,
            inv,
            function,
            epoch: state.epoch,
            attempt,
        };
        match self.config.mode {
            ScheduleMode::WorkerSp => {
                self.admission.counts.backpressure_deferrals += 1;
                let at = now + self.admission.defer_delay();
                self.queue.schedule(at, Event::BackpressureRetry(d));
            }
            ScheduleMode::MasterSp => {
                self.admission.counts.master_requeues += 1;
                self.send_to_master(now, worker, MasterInbox::Requeue(d));
            }
        }
    }

    /// A deferred dispatch comes due: defer again while the queue is still
    /// saturated (up to `max_defers`), otherwise dispatch — re-routing or
    /// dead-lettering if the worker died in the meantime.
    fn on_backpressure_retry(&mut self, now: SimTime, d: Deferred) {
        let (worker, wf, inv, function) = (d.worker, d.wf, d.inv, d.function);
        if !self.invocations.epoch_alive((wf, inv), d.epoch) {
            return;
        }
        let next = d.attempt + 1;
        let (alive, queued) = (
            self.workers[worker].alive,
            self.workers[worker].pool.queue_len(),
        );
        if self.admission.defers(alive, queued, next) {
            self.defer_dispatch(now, worker, wf, inv, function, next);
            return;
        }
        if self.workers[worker].alive {
            self.spawn_instances_now(now, worker, wf, inv, function);
        } else if self.config.mode == ScheduleMode::MasterSp {
            let spawn = Self::spawn_instances_now;
            self.reassign_from_dead(now, worker, wf, inv, function, spawn);
        }
        // WorkerSP with a dead worker: partition recovery restarts the
        // invocation under a new epoch; this deferral is simply dropped.
    }

    fn spawn_instances_now(
        &mut self,
        now: SimTime,
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
    ) {
        let Some(state) = self.invocations.get_mut((wf, inv)) else {
            return;
        };
        let Some(parallelism) = state.dispatch(function) else {
            // Engine-crash replay re-issued a dispatch that already landed;
            // spawning twice would double-run (and double-count) the node.
            self.engines.recovery.duplicate_suppressions += 1;
            return;
        };
        let epoch = state.epoch;
        let worker_node = self.config.worker_node(worker as u32);
        self.tracer.record(|| TraceEvent::FunctionTriggered {
            workflow: wf,
            invocation: inv,
            function,
            worker: worker_node,
            at: now,
        });
        for instance in 0..parallelism {
            let token = InstanceToken {
                workflow: wf,
                invocation: inv,
                function,
                instance,
                epoch,
            };
            self.request_instance(now, worker, token);
        }
    }

    /// Asks `worker`'s container runtime to admit one instance, tracking
    /// the request so crash recovery can find admissions that never became
    /// `InstanceReady`.
    fn request_instance(&mut self, now: SimTime, worker: usize, token: InstanceToken) {
        debug_assert!(self.workers[worker].alive, "admitting on a dead worker");
        // An earlier instance of the same spawn loop may have overflowed
        // the admission queue and shed this very invocation.
        if !self.invocations.request(worker, token) {
            return;
        }
        let pool = &mut self.workers[worker].pool;
        if let Some(adm) = pool.request((token.workflow, token.function), token, now, &mut self.rng)
        {
            self.schedule_admissions(worker, vec![adm]);
        } else {
            if self.admission.overflowed(pool.queue_len()) {
                self.shed_overflow(now, worker, token);
            }
        }
        self.pool_changed(now, worker);
    }

    /// The admission queue on `worker` just overflowed its bound: drop
    /// the whole invocation of the victim [`Admission`] picks (the
    /// teardown purges its other queued entries, so one invocation is shed
    /// at most once).
    fn shed_overflow(&mut self, now: SimTime, worker: usize, newcomer: InstanceToken) {
        let rank = |t: InstanceToken| {
            let started = self.invocations.get(t.key())?.started;
            let demoted = self.slo.as_ref().is_some_and(|s| s.demotes(t.workflow));
            let node = self.workflows[t.workflow.index()]
                .deployed
                .dag
                .node(t.function);
            let priority = node.kind.profile().map_or(0, |p| p.priority);
            Some((demoted, priority, started + self.config.qos_target?))
        };
        let pool = &mut self.workers[worker].pool;
        let (victim, demoted) = self.admission.shed_victim(pool, newcomer, rank);
        if demoted {
            if let Some(slo) = &mut self.slo {
                slo.note_demoted_shed();
            }
        }
        let (wf, inv) = (victim.workflow, victim.invocation);
        self.abandon_invocation(now, wf, inv, AbandonKind::Shed { worker });
    }

    fn schedule_admissions(
        &mut self,
        worker: usize,
        admissions: Vec<faasflow_container::Admission<InstanceToken>>,
    ) {
        for adm in admissions {
            self.queue.schedule(
                adm.ready_at,
                Event::InstanceReady {
                    worker,
                    token: adm.token,
                    container: adm.container,
                    cold: adm.start == StartKind::Cold,
                },
            );
        }
    }

    fn on_instance_ready(
        &mut self,
        now: SimTime,
        worker: usize,
        token: InstanceToken,
        container: ContainerId,
        cold: bool,
    ) {
        // Freshness fence: the admission must belong to the current epoch,
        // on a live worker, with its container still admitted, and be the
        // admission crash recovery expects (a crash wipes the pool, so a
        // pre-crash container id can never be busy again — ids are not
        // reused — and the pending record names the worker the *current*
        // admission of this token lives on). The record goes either way.
        let expected = self.invocations.ready(worker, token);
        let fresh =
            self.workers[worker].alive && self.workers[worker].pool.is_busy(container) && expected;
        if !fresh {
            // A stale admission on a live worker still holds its container
            // (e.g. the invocation restarted or dead-lettered mid-boot).
            self.release_container_if_held(now, worker, container);
            return;
        }
        let state = self.invocations.get(token.key()).expect("fenced above");
        // FaaStore memory reclamation (§4.3.2): shrink a fresh container's
        // cgroup limit to peak-history + μ. MicroVM sandboxes cannot
        // hot-unplug memory, so they keep the provisioned size.
        if cold && self.config.faastore && self.config.reclamation == ReclamationMode::CgroupLimit {
            if let NodeKind::Function(profile) = &state.dag.node(token.function).kind {
                let target = profile.peak_mem_bytes + self.config.mu;
                if target < profile.provisioned_mem_bytes {
                    let _ = self.workers[worker]
                        .pool
                        .set_memory_limit(container, target);
                }
            }
        }
        // Gather inputs: one transfer per producer that actually ran.
        let mut inputs = std::mem::take(&mut self.scratch.inputs);
        let parallelism = state.dag.node(token.function).parallelism.max(1);
        inputs.extend(
            state
                .dag
                .data_inputs(token.function)
                .filter(|d| state.node(d.producer).done)
                .map(|d| {
                    (
                        d.producer,
                        InvState::share(d.bytes, parallelism, token.instance),
                    )
                })
                .filter(|&(_, share)| share > 0),
        );
        let seq = self.invocations.next_seq();
        self.invocations.admit(
            token,
            InstanceState {
                container,
                worker,
                home: worker,
                pending_inputs: inputs.len() as u32,
                retries: 0,
                seq,
                exec_done: false,
                exec_started: now,
            },
        );
        let worker_node = self.config.worker_node(worker as u32);
        self.tracer.record(|| TraceEvent::InstanceStarted {
            workflow: token.workflow,
            invocation: token.invocation,
            function: token.function,
            instance: token.instance,
            worker: worker_node,
            container,
            cold,
            at: now,
        });
        if inputs.is_empty() {
            self.scratch.inputs = inputs;
            self.start_exec(now, worker, token);
            return;
        }

        let mut started_local = false;
        for &(producer, bytes) in &inputs {
            let io = Transfer {
                worker: worker as u32,
                token,
                producer,
                bytes,
                started: now,
                read: true,
            };
            let key = DataKey::new(token.workflow, token.invocation, producer);
            if self.workers[worker].store.read_local(key).is_some() {
                // Local memory read: loopback flow, no NIC consumption.
                self.transfers.start_local(io, now);
                started_local = true;
            } else {
                // Remote read: server-side overhead, then a flow from the
                // storage node (with blackout backoff when the store is
                // down).
                self.remote_io(now, io, 0);
            }
        }
        inputs.clear();
        self.scratch.inputs = inputs;
        if started_local {
            // One timer update covers every flow started above.
            self.transfers.rearm(now, &mut self.queue);
        }
    }

    fn start_exec(&mut self, now: SimTime, worker: usize, token: InstanceToken) {
        let Some(state) = self.invocations.get_mut(token.key()) else {
            return;
        };
        let Some(inst) = state.instances.get_mut(&token) else {
            return;
        };
        inst.exec_started = now;
        let seq = inst.seq;
        let attempt = inst.retries;
        let exec =
            self.workers[worker].stretch(sample_exec(&state.dag, token.function, &mut self.rng));
        if let Some(h) = self.health.as_mut() {
            h.note_start(worker as u32, now);
        }
        let worker_node = self.config.worker_node(worker as u32);
        self.tracer.record(|| TraceEvent::ExecStarted {
            workflow: token.workflow,
            invocation: token.invocation,
            function: token.function,
            instance: token.instance,
            worker: worker_node,
            attempt,
            at: now,
        });
        self.queue
            .schedule(now + exec, Event::ExecDone { worker, token, seq });
        // Hedged retry: if the attempt is still computing after the hedge
        // delay, re-dispatch it speculatively to another worker. Degraded
        // workflows get no hedges: speculative re-dispatch amplifies load
        // exactly when the offender must be contained.
        if let Some(delay) = self.hedging.arm_delay(token, attempt, self.config.workers) {
            if !self
                .slo
                .as_mut()
                .is_some_and(|s| s.suppress_hedge(token.workflow))
            {
                self.queue.schedule(
                    now + delay,
                    Event::Hedge(HedgeEvent::Fire { worker, token, seq }),
                );
            }
        }
    }

    /// A stuck executor accepts work but completes nothing: a completion
    /// `ev` on `worker` inside the window is re-fired at its closing edge
    /// (strictly before it, so the re-fired event at the edge proceeds
    /// whatever the tie order against the window's end). Returns whether
    /// the completion was deferred.
    fn defer_if_stuck(&mut self, now: SimTime, worker: usize, ev: Event) -> bool {
        match self.workers[worker].stuck_until {
            Some(end) if now < end => {
                self.windows.stuck_deferrals += 1;
                self.queue.schedule(end, ev);
                true
            }
            _ => false,
        }
    }

    /// The transient-failure draw for an exec attempt finishing on
    /// `worker`: one draw iff the worker's effective rate is non-zero, so
    /// a run without failure injection draws nothing here.
    fn exec_failed(&mut self, worker: usize) -> bool {
        let rate = self.workers[worker].failure_rate(self.config.exec_failure_rate);
        rate > 0.0 && self.rng.chance(rate)
    }

    fn on_exec_done(&mut self, now: SimTime, worker: usize, token: InstanceToken, seq: u64) {
        if self.defer_if_stuck(now, worker, Event::ExecDone { worker, token, seq }) {
            return;
        }
        // Stale-event fence (an evacuated instance's late completion on its
        // old home is a zombie's).
        let live = self.invocations.executing(worker, token, seq);
        let Some(&InstanceState {
            retries: attempt,
            exec_started,
            ..
        }) = live
        else {
            self.on_exec_fenced(now, worker, token);
            return;
        };
        // Failure injection: a transient execution error re-runs the
        // instance in place (the container is already warm) up to the
        // retry budget, after which at-least-once semantics let it pass —
        // unless the fault plan dead-letters exhausted instances.
        let failed = self.exec_failed(worker);
        let worker_node = self.config.worker_node(worker as u32);
        self.tracer.record(|| TraceEvent::ExecFinished {
            workflow: token.workflow,
            invocation: token.invocation,
            function: token.function,
            instance: token.instance,
            worker: worker_node,
            attempt,
            failed,
            at: now,
        });
        // Sample the completion into the health detector, but apply its
        // transitions only after the completion itself is fully processed:
        // a quarantine drain must never tear state out from under the
        // handler that triggered it. The quarantine itself is in force at
        // once: nothing below partitions, hedges or redispatches.
        let transitions = self
            .health
            .as_mut()
            .map(|h| h.note_complete(worker as u32, now - exec_started, failed, now));
        self.exec_outcome(now, worker, token, exec_started, failed);
        if let Some(ts) = transitions {
            self.apply_health_transitions(now, ts);
        }
    }

    /// The outcome half of `ExecDone` handling, after the fences and the
    /// failure draw: retry, dead-letter, or proceed to the output write.
    fn exec_outcome(
        &mut self,
        now: SimTime,
        worker: usize,
        token: InstanceToken,
        exec_started: SimTime,
        failed: bool,
    ) {
        if failed {
            let inst = self.invocations.instance_mut(token).expect("fenced above");
            if inst.retries < self.config.max_exec_retries {
                inst.retries += 1;
                self.exec_retries += 1;
                self.start_exec(now, worker, token);
                return;
            }
            if self.config.fault.dead_letter_on_exhaustion {
                self.dead_letter_invocation(
                    now,
                    token.workflow,
                    token.invocation,
                    DeadLetterReason::RetriesExhausted,
                );
                return;
            }
        }
        self.hedging.observe_exec(token, now - exec_started);
        self.exec_success(now, worker, token);
    }

    /// The compute phase of `token` succeeded on `worker`: resolve any
    /// outstanding hedge in the primary's favour and start the output
    /// write. Shared by the normal `ExecDone` path and hedge wins (where
    /// `worker` is the hedge's worker).
    fn exec_success(&mut self, now: SimTime, worker: usize, token: InstanceToken) {
        if let Some(inst) = self.invocations.instance_mut(token) {
            inst.exec_done = true;
        }
        self.cancel_hedge(now, token);
        let Some(state) = self.invocations.get_mut(token.key()) else {
            return;
        };
        let share = state.share_of(token, token.function);
        if share == 0 {
            self.finish_instance(now, worker, token);
            return;
        }
        // Placement decided once per node output (total bytes).
        let placement = match state.node(token.function).placement {
            Some(p) => p,
            None => {
                let storage_type = if state.assignment.storage_local[token.function.index()] {
                    StorageType::Mem
                } else {
                    StorageType::Db
                };
                let producer_node = state.assignment.worker_of(token.function);
                let consumers: Vec<NodeId> = state
                    .dag
                    .data_outputs(token.function)
                    .map(|d| state.assignment.worker_of(d.consumer))
                    .collect();
                let key = DataKey::new(token.workflow, token.invocation, token.function);
                let total_out = state.dag.node(token.function).kind.profile();
                let total_out = total_out.map_or(0, |p| p.output_bytes);
                state.holders.insert(worker);
                let p = self.workers[worker].store.decide_put(
                    key,
                    total_out,
                    storage_type,
                    producer_node,
                    &consumers,
                );
                if p == Placement::Remote {
                    self.transfers.put(key, total_out);
                }
                state.nodes[token.function.index()].placement = Some(p);
                p
            }
        };
        let io = Transfer {
            worker: worker as u32,
            token,
            producer: token.function,
            bytes: share,
            started: now,
            read: false,
        };
        match placement {
            Placement::LocalMem => {
                self.transfers.start_local(io, now);
                self.transfers.rearm(now, &mut self.queue);
            }
            Placement::Remote => self.remote_io(now, io, 0),
        }
    }

    // ==================================================================
    // Hedged retries (the decisions live in `Hedging`)
    // ==================================================================

    /// The hedge delay elapsed. If the primary attempt is still computing,
    /// speculatively admit a copy on the first other live worker with
    /// immediate capacity (ring order from the primary; no queueing — a
    /// hedge that would wait is pointless).
    fn on_hedge_fire(&mut self, now: SimTime, worker: usize, token: InstanceToken, seq: u64) {
        if self.hedging.active(token) {
            return;
        }
        let still_running = self
            .invocations
            .executing(worker, token, seq)
            .is_some_and(|i| !i.exec_done);
        if !still_running {
            return;
        }
        let n = self.config.workers as usize;
        let mut admitted = None;
        for cand in (worker + 1..n).chain(0..worker) {
            // Quarantined workers take no hedges: a speculative copy on a
            // gray worker is the straggler it was meant to beat.
            if !self.workers[cand].alive || self.quarantined(cand) {
                continue;
            }
            if let Some(adm) = self.workers[cand].pool.request_immediate(
                (token.workflow, token.function),
                token,
                now,
                &mut self.rng,
            ) {
                admitted = Some((cand, adm));
                break;
            }
        }
        let Some((target, adm)) = admitted else {
            return; // Nobody has spare capacity: the hedge silently lapses.
        };
        let hedge_seq = self.invocations.next_seq();
        let copy = HedgeCopy {
            worker: target,
            container: adm.container,
        };
        let nodes = (
            self.config.worker_node(worker as u32),
            self.config.worker_node(target as u32),
        );
        self.hedging
            .launch(now, token, hedge_seq, copy, nodes, &mut self.tracer);
        self.queue.schedule(
            adm.ready_at,
            Event::Hedge(HedgeEvent::Ready {
                token,
                seq: hedge_seq,
            }),
        );
        self.pool_changed(now, target);
    }

    /// A hedge container finished booting: sample its exec as any attempt
    /// on its worker would run, gray slowdown included (the hedge reads no
    /// inputs — it reuses the primary's already-fetched inputs, the
    /// straggler being the *compute*, not the data).
    fn on_hedge_ready(&mut self, now: SimTime, token: InstanceToken, seq: u64) {
        let copy = match self.hedging.boot(token, seq) {
            None => return,
            Some(Booted::Cancelled(copy)) => {
                self.release_container_if_held(now, copy.worker, copy.container);
                return;
            }
            Some(Booted::Run(copy)) => copy,
        };
        let Some(state) = self.invocations.get(token.key()) else {
            // Torn down mid-boot (teardown cancels hedges, but be safe).
            self.lose_hedge(now, token);
            return;
        };
        let exec = sample_exec(&state.dag, token.function, &mut self.rng);
        let exec = self.workers[copy.worker].stretch(exec);
        self.queue.schedule(
            now + exec,
            Event::Hedge(HedgeEvent::ExecDone { token, seq }),
        );
    }

    /// A hedge's compute finished: first-winner semantics. If the primary
    /// already finished, `cancel_hedge` removed this entry and the event is
    /// fenced off; otherwise the hedge takes over the instance and the
    /// primary's pending `ExecDone` dies on the sequence fence. A stuck
    /// window on the hedge's worker defers the completion like any other.
    fn on_hedge_exec_done(&mut self, now: SimTime, token: InstanceToken, seq: u64) {
        let Some(copy) = self.hedging.racing(token, seq) else {
            return;
        };
        let ev = Event::Hedge(HedgeEvent::ExecDone { token, seq });
        if self.defer_if_stuck(now, copy.worker, ev) {
            return;
        }
        let primary = self
            .invocations
            .instance(token)
            .filter(|i| !i.exec_done)
            .map(|i| (i.worker, i.container, i.retries));
        let Some((pw, pc, attempt)) = primary else {
            // The instance vanished under us; orphaned hedge, clean up.
            self.lose_hedge(now, token);
            return;
        };
        // Hedges are subject to the same transient-failure injection as any
        // attempt on their worker; a failed hedge simply loses (the primary
        // keeps running).
        if self.exec_failed(copy.worker) {
            self.lose_hedge(now, token);
            return;
        }
        // Close the primary's exec span before handing the instance over
        // (its own `ExecDone` is about to be fenced off).
        let pw_node = self.config.worker_node(pw as u32);
        self.tracer.record(|| TraceEvent::ExecFinished {
            workflow: token.workflow,
            invocation: token.invocation,
            function: token.function,
            instance: token.instance,
            worker: pw_node,
            attempt,
            failed: false,
            at: now,
        });
        self.hedging.settle(now, token, true, &mut self.tracer);
        // Release the losing primary's container and transplant the
        // instance onto the hedge; output writes flow from the hedge's node.
        self.release_container(now, pw, pc);
        {
            let inst = self.invocations.instance_mut(token).expect("checked above");
            inst.worker = copy.worker;
            inst.container = copy.container;
            inst.seq = seq;
        }
        self.exec_success(now, copy.worker, token);
    }

    /// Resolves an outstanding hedge in the primary's favour (or cleans it
    /// up on teardown), releasing a booted copy's container.
    fn cancel_hedge(&mut self, now: SimTime, token: InstanceToken) {
        if let Some(copy) = self.hedging.cancel(now, token, &mut self.tracer) {
            self.release_container_if_held(now, copy.worker, copy.container);
        }
    }

    /// Settles a racing hedge as lost and releases its container.
    fn lose_hedge(&mut self, now: SimTime, token: InstanceToken) {
        if let Some(copy) = self.hedging.settle(now, token, false, &mut self.tracer) {
            self.release_container_if_held(now, copy.worker, copy.container);
        }
    }

    /// Frees `container` on `worker` and lets the pool admit queued work.
    fn release_container(&mut self, now: SimTime, worker: usize, container: ContainerId) {
        let admissions = self.workers[worker]
            .pool
            .release(container, now, &mut self.rng);
        self.schedule_admissions(worker, admissions);
        self.pool_changed(now, worker);
    }

    /// [`Self::release_container`] if the worker is still alive and the
    /// container still admitted (a crash wipes the pool wholesale).
    fn release_container_if_held(&mut self, now: SimTime, worker: usize, container: ContainerId) {
        if self.workers[worker].alive && self.workers[worker].pool.is_busy(container) {
            self.release_container(now, worker, container);
        }
    }

    fn on_flow_done(&mut self, now: SimTime, tag: FlowTag) {
        let FlowTag {
            token,
            producer,
            started,
            remote,
            read,
        } = tag;
        let latency = now - started;
        let (share, worker, last_input) = {
            let Some(state) = self.invocations.get_mut(token.key()) else {
                return;
            };
            // Asymmetric partition: the network delivered the flow, but the
            // blocked direction drops the payload at the edge — it stalls
            // until the window lifts, while control traffic keeps flowing
            // (that asymmetry is what makes the failure gray). Remote reads
            // travel inbound to the instance's worker, remote writes
            // outbound from it; loopback flows never leave the node.
            let blocked =
                |i: &&InstanceState| remote && self.workers[i.worker].partition == Some(read);
            if let Some(inst) = state.instances.get(&token).filter(blocked) {
                self.transfers.stall(inst.worker, tag);
                return;
            }
            let share = state.share_of(token, producer);
            state.ledger.total_latency += latency;
            if remote {
                state.ledger.remote_bytes += share;
            } else {
                state.ledger.local_bytes += share;
            }
            let Some(inst) = state.instances.get_mut(&token) else {
                return;
            };
            if read {
                inst.pending_inputs -= 1;
            }
            (share, inst.worker, inst.pending_inputs == 0)
        };
        if read {
            if let Some(feedback) = &mut self.workflows[token.workflow.index()].feedback {
                feedback.observe_read(producer, latency);
            }
        }
        // One event per completed flow (the span model needs each
        // transfer's own `[started, now]` window).
        let worker_node = self.config.worker_node(worker as u32);
        self.tracer.record(|| TraceEvent::Transferred {
            workflow: token.workflow,
            invocation: token.invocation,
            function: token.function,
            instance: token.instance,
            worker: worker_node,
            bytes: share,
            remote,
            read,
            started,
            at: now,
        });
        if !read {
            self.finish_instance(now, worker, token);
        } else if last_input {
            self.start_exec(now, worker, token);
        }
    }

    fn finish_instance(&mut self, now: SimTime, worker: usize, token: InstanceToken) {
        // Release the container.
        let Some(state) = self.invocations.get_mut(token.key()) else {
            return;
        };
        let (
            InstanceState {
                container, home, ..
            },
            node_done,
        ) = state.finish(token);
        if node_done {
            self.tracer.record(|| TraceEvent::NodeCompleted {
                workflow: token.workflow,
                invocation: token.invocation,
                function: token.function,
                at: now,
            });
        }
        self.release_container(now, worker, container);

        match self.config.mode {
            ScheduleMode::WorkerSp => {
                // The engine tracking this node's state is the one that
                // triggered the instance (its `home`). Normally that is
                // `worker`, but a hedge win runs the instance elsewhere —
                // the completion must travel back to the home engine
                // (paying a LAN hop), or it would wait for the node forever.
                let mut delay = WORKER_ENGINE_COST;
                if home != worker {
                    let src = self.config.worker_node(worker as u32);
                    let dst = self.config.worker_node(home as u32);
                    delay += self.control_delay(512, src, dst);
                }
                self.queue.schedule(
                    now + delay,
                    Event::WorkerInstanceDone {
                        worker: home,
                        token,
                        gen: self.engines.gen(EngineTarget::Worker(home as u32)),
                    },
                );
            }
            ScheduleMode::MasterSp => {
                let msg = MasterInbox::StateReturn {
                    wf: token.workflow,
                    inv: token.invocation,
                    function: token.function,
                };
                self.send_to_master(now, worker, msg);
            }
        }
    }

    /// Sends `msg` from `worker` to the master engine's inbox, stamped with
    /// the engine's current generation.
    fn send_to_master(&mut self, now: SimTime, worker: usize, msg: MasterInbox) {
        let src = self.config.worker_node(worker as u32);
        let delay = self.control_delay(512, src, ClusterConfig::MASTER_NODE);
        let gen = self.engines.gen(EngineTarget::Master);
        self.queue
            .schedule(now + delay, Event::MasterArrive { msg, gen });
    }

    /// Tears down one attempt of an invocation that restarts or ends
    /// unfinished: cancels its flows, purges its admissions still queued
    /// on the workers its pending records named, frees the containers of
    /// its stale instances (on workers still alive) and drops their
    /// hedges, and releases its state on every holder. Queued admissions
    /// left behind would hold bounded-queue slots, later boot containers
    /// only to be released as stale, and let an overflow shed a dead
    /// invocation a second time; purged after the containers are freed,
    /// each freed container would first admit one of them.
    fn tear_down_attempt(
        &mut self,
        now: SimTime,
        (wf, inv): (WorkflowId, InvocationId),
        attempt: Attempt,
    ) {
        let ours = |t: &InstanceToken| t.key() == (wf, inv);
        let queue = &mut self.queue;
        self.transfers.cancel_flows(now, |t| ours(&t.token), queue);
        for w in attempt.queued_on.iter() {
            while self.workers[w].pool.remove_queued(ours).is_some() {}
        }
        for &(_, inst) in &attempt.stale {
            self.release_container_if_held(now, inst.worker, inst.container);
        }
        for &(t, _) in &attempt.stale {
            self.cancel_hedge(now, t);
        }
        self.release_invocation_state(wf, inv, &attempt.holders);
    }

    /// Abandons one invocation with explicit accounting: every resource it
    /// holds is torn down, the dead-letter counters tick, and a closed-loop
    /// client moves on to its next invocation.
    fn dead_letter_invocation(
        &mut self,
        now: SimTime,
        wf: WorkflowId,
        inv: InvocationId,
        reason: DeadLetterReason,
    ) {
        self.abandon_invocation(now, wf, inv, AbandonKind::DeadLetter(reason));
    }

    /// Common teardown for every abandonment path; `kind` decides the
    /// accounting (dead-letter vs overload shed vs degradation-gate shed).
    fn abandon_invocation(
        &mut self,
        now: SimTime,
        wf: WorkflowId,
        inv: InvocationId,
        kind: AbandonKind,
    ) {
        let outcome = match kind {
            AbandonKind::DeadLetter(_) => TerminalOutcome::DeadLettered,
            AbandonKind::Shed { .. } | AbandonKind::DegradeShed { .. } => TerminalOutcome::Shed,
        };
        let Some(mut state) = self.end_invocation(now, wf, inv, outcome) else {
            return;
        };
        match kind {
            AbandonKind::DeadLetter(reason) => {
                self.faults.dead_letters += 1;
                match reason {
                    DeadLetterReason::RetriesExhausted => {
                        self.faults.dead_letter_retries_exhausted += 1
                    }
                    DeadLetterReason::CrashOrphan => self.faults.dead_letter_crash_orphan += 1,
                    DeadLetterReason::JournalUnrecoverable => {
                        self.faults.dead_letter_journal_unrecoverable += 1
                    }
                    DeadLetterReason::QuarantineOrphan => {
                        self.faults.dead_letter_quarantine_orphan += 1
                    }
                }
                self.workflows[wf.index()].metrics.dead_lettered += 1;
                self.tracer.record(|| TraceEvent::DeadLettered {
                    workflow: wf,
                    invocation: inv,
                    at: now,
                });
            }
            AbandonKind::Shed { worker } | AbandonKind::DegradeShed { worker } => {
                if matches!(kind, AbandonKind::Shed { .. }) {
                    // Degradation-gate sheds are accounted in
                    // `DegradeReport::sheds`, not in the overload
                    // per-policy counters (which must keep summing to
                    // `overload.shed`).
                    self.admission.counts.shed += 1;
                }
                self.workflows[wf.index()].metrics.shed += 1;
                let node = self.config.worker_node(worker as u32);
                self.tracer.record(|| TraceEvent::InvocationShed {
                    workflow: wf,
                    invocation: inv,
                    worker: node,
                    at: now,
                });
            }
        }
        // Abandoned invocations never completed: they always consume SLO
        // error budget, whatever their elapsed time was. Degradation-gate
        // sheds are the one exception: the refusal is the protection
        // layer's own decision, not a capacity failure — feeding it back
        // into the monitor would keep the alert firing forever.
        if !matches!(kind, AbandonKind::DegradeShed { .. }) {
            if let Some(slo) = &mut self.slo {
                let e2e = now - state.started;
                slo.on_terminal(now, wf, e2e, true, state.degrade_probe, &mut self.tracer);
            }
        }
        let attempt = state.take_attempt();
        self.tear_down_attempt(now, (wf, inv), attempt);
        self.retire_invocation(now, wf);
    }

    /// Issues (or re-issues) an instance's remote-store call through the
    /// data path (see [`Transfers::remote_io`]) and acts on the outcome.
    fn remote_io(&mut self, now: SimTime, io: Transfer, attempt: u32) {
        if !self.invocations.instance_on(io.worker as usize, io.token) {
            return;
        }
        let (rng, tracer) = (&mut self.rng, &mut self.tracer);
        let call = self
            .transfers
            .remote_io(now, io, attempt, &self.workers, rng, tracer);
        let (wf, inv, epoch) = (io.token.workflow, io.token.invocation, io.token.epoch);
        match call {
            RemoteCall::Served(overhead) => {
                self.queue.schedule(now + overhead, Event::StartRemote(io));
            }
            RemoteCall::Retry(delay) => {
                let attempt = attempt + 1;
                self.queue
                    .schedule(now + delay, Event::RetryRemote { io, attempt });
            }
            RemoteCall::LocalServe => self.transfers.rearm(now, &mut self.queue),
            RemoteCall::MissingKey => {
                assert!(
                    !self.config.fault.is_empty(),
                    "producer output must be in the remote store"
                );
                let recover = Event::RecoverInvocation { wf, inv, epoch };
                self.queue.schedule(now, recover);
            }
            RemoteCall::Exhausted => {
                self.dead_letter_invocation(now, wf, inv, DeadLetterReason::RetriesExhausted)
            }
        }
    }

    // ==================================================================
    // Timers
    // ==================================================================

    /// After any change to `worker`'s pool: refreshes its gauges and
    /// re-arms the keep-alive expiry timer in place.
    fn pool_changed(&mut self, now: SimTime, worker: usize) {
        let w = &mut self.workers[worker];
        w.track(now);
        let at = w.pool.next_expiry().map(|t| t.max(now));
        w.expiry_timer = rearm(
            &mut self.queue,
            w.expiry_timer,
            at,
            Event::ContainerExpiry { worker },
        );
    }
}

/// Moves `timer` to `at`, arming it if it is not pending and cancelling it
/// when `at` is `None`; returns the timer's id. Pop order is exactly that
/// of cancelling the old timer and scheduling `event` afresh.
fn rearm(
    queue: &mut EventQueue<Event>,
    timer: Option<EventId>,
    at: Option<SimTime>,
    event: Event,
) -> Option<EventId> {
    match (timer, at) {
        (Some(ev), Some(at)) if queue.reschedule(ev, at) => Some(ev),
        (Some(ev), None) => {
            queue.cancel(ev);
            None
        }
        (_, at) => at.map(|at| queue.schedule(at, event)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{EngineCrash, FaultPlan};
    use crate::journal::JournalConfig;
    use faasflow_wdl::{FunctionProfile, Step};

    /// Every journal holds entries only for live invocations, checked
    /// after every 16th event of a journaled open-loop run whose engine
    /// crashes and recovers mid-run; once the run is idle, none holds any.
    #[test]
    fn journals_keep_only_live_invocations() {
        let workflow = Workflow::steps(
            "journaled",
            Step::sequence(vec![
                Step::task("ingest", FunctionProfile::with_millis(40, 1 << 20)),
                Step::foreach("work", FunctionProfile::with_millis(60, 1 << 19), 3),
                Step::task("merge", FunctionProfile::with_millis(20, 0)),
            ]),
        );
        for (mode, target) in [
            (ScheduleMode::MasterSp, EngineTarget::Master),
            (ScheduleMode::WorkerSp, EngineTarget::Worker(1)),
        ] {
            let mut cluster = Cluster::new(ClusterConfig {
                mode,
                faastore: mode == ScheduleMode::WorkerSp,
                workers: 3,
                fault: FaultPlan {
                    engine_crashes: vec![EngineCrash {
                        target,
                        at: SimDuration::from_secs(5),
                        restart_after: SimDuration::from_millis(400),
                    }],
                    ..FaultPlan::default()
                },
                journal: JournalConfig {
                    enabled: true,
                    ..JournalConfig::default()
                },
                ..ClusterConfig::default()
            })
            .expect("valid config");
            let client = ClientConfig::OpenLoop {
                per_minute: 6000.0,
                invocations: 1000,
            };
            cluster.register(&workflow, client).expect("registers");
            let (mut most, mut events) = (0, 0u64);
            while cluster.work_pending() {
                let Some((t, ev)) = cluster.queue.pop() else {
                    break;
                };
                cluster.dispatch(t, ev);
                events += 1;
                if events % 16 != 0 {
                    continue;
                }
                for journal in cluster.engines.journals() {
                    for key in journal.invocations() {
                        assert!(
                            cluster.invocations.get(key).is_some(),
                            "{mode:?}: the journal keeps ended invocation {key:?}"
                        );
                    }
                    most = most.max(journal.invocations().count());
                }
            }
            assert!(most > 0, "{mode:?}: the journals held live invocations");
            for journal in cluster.engines.journals() {
                assert_eq!(journal.invocations().count(), 0, "{mode:?}: idle");
            }
            let report = cluster.report();
            let recovery = report.recovery;
            assert_eq!(recovery.engine_recoveries, 1, "{mode:?}: {recovery:?}");
            let wf = &report.workflows["journaled"];
            assert_eq!(wf.sent, 1000);
            assert_eq!(wf.sent, wf.completed + wf.dead_lettered + wf.shed);
        }
    }

    /// Each mode's routing across a redeploy. The chain `a -> b` is
    /// deployed with `b` on worker 1 and, while `a` runs on worker 0,
    /// redeployed with `b` on worker 0. WorkerSP routes by the pin: the
    /// sync about `a` is the first worker 1's engine hears of the
    /// invocation, and handed the pin it still runs `b` there. MasterSP
    /// assigns by the current deployment, so `b` runs on worker 0.
    #[test]
    fn a_redeploy_mid_invocation_routes_by_each_modes_context() {
        use faasflow_scheduler::Group;
        use faasflow_sim::GroupId;
        let workflow = Workflow::steps(
            "pinned",
            Step::sequence(vec![
                Step::task("a", FunctionProfile::with_millis(100, 1 << 10)),
                Step::task("b", FunctionProfile::with_millis(10, 0)),
            ]),
        );
        let (a, b) = (FunctionId::new(0), FunctionId::new(1));
        for (mode, b_worker) in [(ScheduleMode::WorkerSp, 1), (ScheduleMode::MasterSp, 0)] {
            let mut cluster = Cluster::new(ClusterConfig {
                mode,
                faastore: mode == ScheduleMode::WorkerSp,
                workers: 2,
                trace: true,
                ..ClusterConfig::default()
            })
            .expect("valid config");
            let wf = cluster
                .register(&workflow, ClientConfig::Manual)
                .expect("registers");
            let node = [0, 1].map(|w| cluster.config.worker_node(w));
            let b_on = |w: usize| {
                let group = |id: u32, member, worker| Group {
                    id: GroupId::new(id),
                    members: vec![member],
                    worker,
                    capacity_needed: 1,
                };
                Arc::new(Assignment {
                    groups: vec![group(0, a, node[0]), group(1, b, node[w])],
                    node_of: vec![node[0], node[w]],
                    group_of: vec![GroupId::new(0), GroupId::new(1)],
                    storage_local: vec![false; 2],
                    mem_consume: 0,
                    quota: 0,
                })
            };
            let (split, joined) = (b_on(1), b_on(0));
            cluster.workflows[wf.index()].deployed.assignment = split;
            cluster.invoke_now(wf);
            cluster.run_until(SimTime::ZERO + SimDuration::from_millis(50));
            cluster.workflows[wf.index()].deployed.assignment = joined;
            cluster.run_until_idle();
            assert_eq!(cluster.report().workflows["pinned"].completed, 1);
            let ran_on = |f: FunctionId| {
                let started = cluster.trace().iter().filter_map(|ev| match ev {
                    TraceEvent::InstanceStarted {
                        function, worker, ..
                    } if *function == f => Some(*worker),
                    _ => None,
                });
                started.collect::<Vec<_>>()
            };
            assert_eq!(ran_on(a), [node[0]], "{mode:?}");
            assert_eq!(ran_on(b), [node[b_worker]], "{mode:?}");
        }
    }
}
