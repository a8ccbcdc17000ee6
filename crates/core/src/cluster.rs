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
//! | master engine trigger checks | single-server CPU queue, `master_task_cost` per message |
//! | worker engine event handling | fixed `worker_engine_cost` |
//! | container cold/warm start, keep-alive, caps | [`ContainerManager`] |
//! | remote store reads/writes | per-op overhead + max-min fair flow through the storage NIC |
//! | FaaStore local passing | loopback flow (no NIC usage) |

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use faasflow_container::{ContainerManager, StartKind};
use faasflow_engine::{MasterAction, MasterEngine, WorkerAction, WorkerEngine};
use faasflow_net::{Flow, FlowId, FlowNet, LinkQuality, NicSpec};
use faasflow_scheduler::{
    ContentionSet, DeploymentManager, FeedbackCollector, GraphScheduler, PartitionConfig,
    RuntimeMetrics, ScheduleError, WorkerInfo, WorkerLoad,
};
use faasflow_sim::{
    ContainerId, EventId, EventQueue, FastMap, FunctionId, InvocationId, NodeId, SimDuration,
    SimRng, SimTime, WorkflowId,
};
use faasflow_store::{
    quota, BreakerDecision, BreakerTransition, CircuitBreaker, DataKey, FaaStore, Placement,
    RemoteStore, StorageType,
};
use faasflow_wdl::{DagParser, NodeKind, ParserConfig, Workflow, WorkflowDag};

use crate::config::{ClientConfig, ClusterConfig, ReclamationMode, ScheduleMode};
use crate::degrade::AdmitDecision;
use crate::error::ClusterError;
use crate::fault::{DeadLetterReason, EngineTarget, FaultWindows, GrayFaultKind, WorkerFaults};
use crate::health::{HealthDetector, HealthTransition};
use crate::hedge::{Booted, HedgeCopy, HedgeEvent, Hedging};
use crate::invocation::{InstanceState, InstanceToken, InvState, WorkerSet};
use crate::journal::{Journal, JournalConfig, JournalRecord, TerminalOutcome};
use crate::metrics::{
    DistributionRow, FaultReport, LoopProfile, RecoveryReport, RunReport, WorkerUtilization,
    WorkflowMetrics,
};
use crate::overload::Admission;
use crate::rebalance::Rebalancer;
use crate::sample::Sampler;
use crate::slo::SloControl;
use crate::trace::{TraceEvent, Tracer};

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

/// Tag attached to every network flow: an instance attempt moving
/// `producer`'s output, either read into the instance or, with `read`
/// false, written out as the instance's own output share (then
/// `producer` is the instance's own function).
#[derive(Debug, Clone, Copy)]
struct FlowTag {
    token: InstanceToken,
    producer: FunctionId,
    started: SimTime,
    /// Through the storage node rather than between FaaStores.
    remote: bool,
    read: bool,
}

impl FlowTag {
    /// A transfer between an instance and its own worker's FaaStore.
    fn local(token: InstanceToken, producer: FunctionId, started: SimTime, read: bool) -> Self {
        FlowTag {
            token,
            producer,
            started,
            remote: false,
            read,
        }
    }
}

/// One instance's remote-store call: a read of `producer`'s output into
/// the instance, or a write of the instance's own output share (then
/// `producer` is the instance's own function).
#[derive(Debug, Clone, Copy)]
struct RemoteIo {
    /// The instance's worker (`u32` keeps `Event` within its size bound).
    worker: u32,
    token: InstanceToken,
    producer: FunctionId,
    bytes: u64,
    /// When the call was first issued (transfer-latency accounting).
    started: SimTime,
    read: bool,
}

impl RemoteIo {
    /// The tag of the call's transfer; `remote` is false for a read
    /// served from a worker's FaaStore copy instead of the store.
    fn tag(&self, remote: bool) -> FlowTag {
        FlowTag {
            token: self.token,
            producer: self.producer,
            started: self.started,
            remote,
            read: self.read,
        }
    }
}

/// Messages the master CPU processes one at a time.
#[derive(Debug, Clone, Copy)]
enum MasterInbox {
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
struct Deferred {
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
    StartRemote(RemoteIo),
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
    RetryRemote { io: RemoteIo, attempt: u32 },
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

/// Per-workflow cluster state. The workflow's name lives in the cluster's
/// interned name table, keyed by the dense workflow id.
struct WorkflowState {
    /// Mutable master copy of the DAG (edge weights evolve with feedback).
    dag: WorkflowDag,
    /// Snapshot deployed to engines for the current version.
    dag_arc: Arc<WorkflowDag>,
    deployment: DeploymentManager,
    client: ClientConfig,
    contention: ContentionSet,
    feedback: FeedbackCollector,
    prev_metrics: RuntimeMetrics,
    quota: u64,
    critical_exec: SimDuration,
    sent: u32,
    completed_since_partition: u32,
    arm_seed: u64,
}

/// Reusable buffers for the hot-path sweeps. Each user takes the buffer
/// with `mem::take`, fills it, and puts it back cleared, so the steady
/// state of the event loop performs no heap allocation. Distinct fields
/// exist for sweeps that nest (a crash sweep dead-letters invocations,
/// which tears down flows).
#[derive(Debug, Default)]
struct ClusterScratch {
    /// Completed flows drained out of the network on each `FlowTick`.
    flows_done: Vec<(FlowId, Flow<FlowTag>)>,
    /// Input transfers gathered when an instance becomes ready.
    inputs: Vec<(FunctionId, u64)>,
    /// Flow ids doomed by a crash or an invocation teardown.
    flow_ids: Vec<FlowId>,
    /// Instance tokens orphaned by a crash.
    tokens: Vec<InstanceToken>,
    /// Invocation keys swept during recovery.
    inv_keys: Vec<(WorkflowId, InvocationId)>,
    /// Workflow ids swept during a redeploy.
    wf_ids: Vec<WorkflowId>,
    /// Instances torn down when an invocation restarts or dead-letters.
    stale: Vec<(InstanceToken, InstanceState)>,
}

/// One scheduling engine's liveness, fencing and write-ahead journal.
/// The central MasterSP engine and every per-worker WorkerSP engine run
/// the same crash → restart → replay → reconcile cycle over one of these;
/// the engines' trigger state lives apart, in `MasterEngine` and
/// `WorkerEngine`. Slot 0 is the master's, slot `w + 1` worker `w`'s.
#[derive(Debug)]
struct EngineSlot {
    /// Between a crash and the end of recovery. Messages reaching a down
    /// engine are lost.
    down: bool,
    /// Generation: bumped at each completed recovery; messages stamped
    /// with an older one predate it and are fenced.
    gen: u64,
    /// Era: bumped at each crash; fences restart/recovery chains
    /// orphaned by a second crash mid-recovery.
    era: u32,
    /// Instant the engine went down (downtime accounting).
    down_since: SimTime,
    /// The engine's write-ahead journal. The master's also witnesses
    /// gateway-side admissions and terminal outcomes in both modes.
    journal: Journal,
    /// The journal could not be read back during the current recovery.
    journal_unreadable: bool,
}

impl EngineSlot {
    fn new(journal: JournalConfig) -> Self {
        EngineSlot {
            down: false,
            gen: 0,
            era: 0,
            down_since: SimTime::ZERO,
            journal: Journal::new(journal),
            journal_unreadable: false,
        }
    }

    /// Whether a recovery reads the journal back.
    fn readable(&self) -> bool {
        self.journal.enabled() && !self.journal_unreadable
    }
}

/// The slot index of an engine in `Cluster::engine_slots`.
fn slot_index(target: EngineTarget) -> usize {
    match target {
        EngineTarget::Master => 0,
        EngineTarget::Worker(w) => w as usize + 1,
    }
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
/// deployment (the rebalancer's group counts; map order is fine for
/// counting).
fn placed_groups<'a>(
    workflows: &'a FastMap<WorkflowId, WorkflowState>,
    config: &'a ClusterConfig,
) -> impl Iterator<Item = usize> + 'a {
    workflows
        .values()
        .filter_map(|ws| ws.deployment.current())
        .flat_map(|(_, asg)| asg.groups.iter())
        .filter_map(|g| config.worker_index(g.worker))
}

/// Traces a breaker transition, if the call made one.
fn trace_breaker(tracer: &mut Tracer, now: SimTime, transition: Option<BreakerTransition>) {
    if let Some((from, to)) = transition {
        tracer.record(|| TraceEvent::BreakerTransition { from, to, at: now });
    }
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
    net: FlowNet<FlowTag>,
    flow_timer: Option<EventId>,
    containers: Vec<ContainerManager<InstanceToken>>,
    expiry_timers: Vec<Option<EventId>>,
    faastores: Vec<FaaStore>,
    remote: RemoteStore,
    worker_engines: Vec<WorkerEngine>,
    master_engine: MasterEngine,
    master_inbox: VecDeque<MasterInbox>,
    master_current: Option<MasterInbox>,
    master_busy_time: SimDuration,
    workflows: FastMap<WorkflowId, WorkflowState>,
    /// Interned-name lookup; `&str` queries hit it without allocating.
    names: FastMap<Arc<str>, WorkflowId>,
    /// Interned names indexed by `WorkflowId` (ids are dense).
    name_table: Vec<Arc<str>>,
    invocations: FastMap<(WorkflowId, InvocationId), InvState>,
    metrics: FastMap<WorkflowId, WorkflowMetrics>,
    next_workflow: u32,
    next_invocation: u32,
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
    /// Per-worker liveness, quarantine and gray-failure state.
    workers: Vec<WorkerFaults>,
    /// Admissions requested but not yet `InstanceReady`, by token. Crash
    /// recovery uses this to find instances that were still booting or
    /// queued when their worker died.
    inflight_spawns: FastMap<InstanceToken, usize>,
    /// Instances lost to each worker's crash, awaiting lease expiry.
    orphans: Vec<Vec<InstanceToken>>,
    /// MasterSP task assignments that reached a dead-but-undetected worker;
    /// replayed on detection or restart, whichever comes first.
    spooled_assigns: Vec<Vec<(WorkflowId, InvocationId, FunctionId)>>,
    /// Storage and link fault windows, stalled partition payloads and the
    /// gray-failure counters.
    windows: FaultWindows<FlowTag>,
    /// Monotonic admission counter fencing stale `ExecDone` events.
    next_instance_seq: u64,
    /// Circuit breaker guarding the remote store (None when disabled).
    breaker: Option<CircuitBreaker>,
    /// The hedged-execution control loop.
    hedging: Hedging,
    /// Liveness, fencing and journal of every engine: the master's, then
    /// one per worker (see [`slot_index`]).
    engine_slots: Vec<EngineSlot>,
    /// Engine-crash/recovery accounting (journal sums are folded in at
    /// report time).
    recovery: RecoveryReport,
    /// Admission shedding, backpressure and the overload counters.
    admission: Admission,
    /// Invocations that completed or were abandoned; with the live ones
    /// they account for every admitted invocation.
    terminated: u64,
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
    /// Time-weighted busy cores per worker.
    cpu_util: Vec<faasflow_sim::stats::TimeWeighted>,
    /// Time-weighted resident container memory per worker.
    mem_util: Vec<faasflow_sim::stats::TimeWeighted>,
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
        let mut nics = Vec::with_capacity(config.node_count());
        nics.push(NicSpec::symmetric(config.storage_bandwidth)); // master/storage
        for _ in 0..config.workers {
            nics.push(NicSpec::symmetric(config.worker_bandwidth));
        }
        let containers = (0..config.workers)
            .map(|_| ContainerManager::new(config.node_caps, config.container))
            .collect();
        let faastores = (0..config.workers)
            .map(|_| FaaStore::new(config.faastore))
            .collect();
        let worker_engines = (0..config.workers)
            .map(|i| WorkerEngine::new(NodeId::new(i + 1)))
            .collect();
        let _ = rng.next_u64(); // decorrelate from the seed value itself
        let mut cluster = Cluster {
            queue: EventQueue::new(),
            rng,
            net: FlowNet::new(nics),
            flow_timer: None,
            containers,
            expiry_timers: vec![None; config.workers as usize],
            faastores,
            remote: RemoteStore::new(config.remote_store),
            worker_engines,
            master_engine: MasterEngine::new(),
            master_inbox: VecDeque::new(),
            master_current: None,
            master_busy_time: SimDuration::ZERO,
            workflows: FastMap::default(),
            names: FastMap::default(),
            name_table: Vec::new(),
            invocations: FastMap::default(),
            metrics: FastMap::default(),
            next_workflow: 0,
            next_invocation: 0,
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
            workers: vec![WorkerFaults::default(); config.workers as usize],
            inflight_spawns: FastMap::default(),
            orphans: vec![Vec::new(); config.workers as usize],
            spooled_assigns: vec![Vec::new(); config.workers as usize],
            windows: FaultWindows::new(config.node_count()),
            next_instance_seq: 0,
            breaker: config.overload.breaker.map(CircuitBreaker::new),
            hedging: Hedging::new(config.overload.hedge),
            engine_slots: (0..=config.workers)
                .map(|_| EngineSlot::new(config.journal))
                .collect(),
            recovery: RecoveryReport::default(),
            admission: Admission::new(&config.overload),
            terminated: 0,
            rebalancer: Rebalancer::new(config.placement_config, config.workers),
            slo: config
                .slo
                .as_ref()
                .map(|slo| SloControl::new(slo, config.degrade)),
            health: config
                .health
                .map(|h| HealthDetector::new(h, config.workers)),
            tracer: Tracer::new(config.trace, config.trace_capacity),
            sampler: config
                .sample_every
                .map(|every| Sampler::new(every, config.node_count(), config.sample_capacity)),
            loop_events: 0,
            loop_wall_secs: 0.0,
            #[cfg(feature = "loop-profile")]
            loop_event_stats: BTreeMap::new(),
            cpu_util: vec![faasflow_sim::stats::TimeWeighted::new(); config.workers as usize],
            mem_util: vec![faasflow_sim::stats::TimeWeighted::new(); config.workers as usize],
            scratch: ClusterScratch::default(),
            config,
        };
        cluster.schedule_fault_plan();
        if let Some(every) = cluster.config.sample_every {
            cluster.queue.schedule(SimTime::ZERO + every, Event::Sample);
        }
        Ok(cluster)
    }

    /// Turns the declarative [`crate::FaultPlan`] into scheduled events.
    /// All instants are absolute offsets from the start of the simulation.
    fn schedule_fault_plan(&mut self) {
        let (fault, queue, t0) = (&self.config.fault, &mut self.queue, SimTime::ZERO);
        for (idx, c) in fault.node_crashes.iter().enumerate() {
            queue.schedule(t0 + c.at, Event::WorkerCrash { idx });
        }
        for (idx, s) in fault.storage_faults.iter().enumerate() {
            queue.schedule(t0 + s.at, Event::StorageFault { idx, open: true });
            queue.schedule(
                t0 + s.at + s.duration,
                Event::StorageFault { idx, open: false },
            );
        }
        for (idx, n) in fault.net_faults.iter().enumerate() {
            queue.schedule(t0 + n.at, Event::NetFault { idx, open: true });
            queue.schedule(t0 + n.at + n.duration, Event::NetFault { idx, open: false });
        }
        for (idx, c) in fault.engine_crashes.iter().enumerate() {
            queue.schedule(t0 + c.at, Event::EngineCrash { idx });
        }
        for (idx, g) in fault.gray_faults.iter().enumerate() {
            queue.schedule(t0 + g.at, Event::GrayFault { idx, open: true });
            queue.schedule(
                t0 + g.at + g.duration,
                Event::GrayFault { idx, open: false },
            );
        }
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
        let wf = WorkflowId::new(self.next_workflow);
        self.next_workflow += 1;

        let q = quota::workflow_quota(&dag, self.config.mu);
        let prev_metrics = RuntimeMetrics::initial(&dag);
        // Intern the name once; every later use (lookups, reports) shares
        // this allocation.
        let name: Arc<str> = Arc::from(workflow.name.as_str());
        let mut state = WorkflowState {
            feedback: FeedbackCollector::new(&dag),
            critical_exec: dag.critical_path_exec(),
            dag_arc: Arc::new(dag.clone()),
            dag,
            deployment: DeploymentManager::new(),
            client,
            contention,
            prev_metrics,
            quota: q,
            sent: 0,
            completed_since_partition: 0,
            arm_seed: self.rng.next_u64(),
        };
        self.partition_and_deploy(wf, &mut state)?;
        self.workflows.insert(wf, state);
        if let Some(slo) = &mut self.slo {
            slo.register(workflow.name.as_str(), wf);
        }
        debug_assert_eq!(self.name_table.len(), wf.index());
        self.name_table.push(name.clone());
        self.names.insert(name, wf);
        self.metrics.insert(wf, WorkflowMetrics::default());

        // Kick off the client.
        match client {
            ClientConfig::ClosedLoop { .. } => {
                self.schedule_arrival(self.queue.now(), wf);
            }
            ClientConfig::OpenLoop { per_minute, .. } => {
                let gap = self.rng.exp_f64(60.0 / per_minute);
                let at = self.queue.now() + SimDuration::from_secs_f64(gap);
                self.schedule_arrival(at, wf);
            }
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
        self.name_table.get(wf.index()).map(|n| n.as_ref())
    }

    /// The current placement of a workflow (Figure 15).
    ///
    /// # Panics
    ///
    /// Panics if `wf` is unknown.
    pub fn distribution(&self, wf: WorkflowId) -> Vec<DistributionRow> {
        let ws = &self.workflows[&wf];
        let (_, assignment) = ws.deployment.current().expect("workflow deployed");
        assignment
            .distribution(&ws.dag)
            .into_iter()
            .map(|(worker, groups, functions)| DistributionRow {
                worker,
                groups,
                functions,
            })
            .collect()
    }

    /// Live per-worker load exactly as the placement layer sees it,
    /// alongside each worker engine's own load report — the surface behind
    /// the per-worker load gauges in `faasflow-obs`.
    pub fn worker_load_snapshot(&self) -> Vec<(NodeId, WorkerLoad, faasflow_engine::EngineLoad)> {
        let loads = self.worker_loads();
        (0..self.config.workers as usize)
            .map(|w| {
                (
                    self.config.worker_node(w as u32),
                    loads[w],
                    self.worker_engines[w].load(),
                )
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
        let state = self.workflows.get_mut(&wf).expect("unknown workflow");
        state.client = ClientConfig::OpenLoop {
            per_minute,
            invocations: state.sent + invocations,
        };
        let gap = self.rng.exp_f64(60.0 / per_minute);
        let at = self.queue.now() + SimDuration::from_secs_f64(gap);
        self.schedule_arrival(at, wf);
    }

    /// Sends one invocation immediately (manual clients).
    ///
    /// # Panics
    ///
    /// Panics if `wf` is unknown.
    pub fn invoke_now(&mut self, wf: WorkflowId) {
        assert!(self.workflows.contains_key(&wf), "unknown workflow {wf}");
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
        debug_assert_eq!(
            self.admission.counts.admitted,
            self.terminated + self.invocations.len() as u64,
            "every admitted invocation is live or terminated"
        );
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
        self.workflows.get(&wf).map(|ws| ws.critical_exec)
    }

    /// The storage node's object catalog (leak checks: every invocation
    /// releases its objects when it ends, however it ends).
    pub fn remote_store(&self) -> &RemoteStore {
        &self.remote
    }

    /// Each worker's FaaStore, indexed by worker.
    pub fn faastores(&self) -> &[FaaStore] {
        &self.faastores
    }

    /// Time-averaged and peak CPU/memory usage per worker, up to the
    /// current simulated instant (§5.6–5.7).
    pub fn utilization(&self) -> Vec<WorkerUtilization> {
        let now = self.queue.now();
        (0..self.config.workers as usize)
            .map(|w| WorkerUtilization {
                worker: self.config.worker_node(w as u32),
                cpu_mean_cores: self.cpu_util[w].mean(now),
                cpu_peak_cores: self.cpu_util[w].peak(),
                mem_mean_bytes: self.mem_util[w].mean(now),
                mem_peak_bytes: self.mem_util[w].peak(),
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
        for m in self.metrics.values_mut() {
            *m = WorkflowMetrics::default();
        }
    }

    /// Grants a workflow more client invocations (same client shape). Used
    /// by harnesses that warm up and then measure.
    ///
    /// # Panics
    ///
    /// Panics if `wf` is unknown.
    pub fn extend_client(&mut self, wf: WorkflowId, additional: u32) {
        let state = self.workflows.get_mut(&wf).expect("unknown workflow");
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
            ClientConfig::ClosedLoop { .. } => {
                let no_inflight = !self.invocations.keys().any(|&(w, _)| w == wf);
                if no_inflight {
                    self.schedule_arrival(self.queue.now(), wf);
                }
            }
            ClientConfig::OpenLoop { per_minute, .. } => {
                let gap = self.rng.exp_f64(60.0 / per_minute);
                let at = self.queue.now() + SimDuration::from_secs_f64(gap);
                self.schedule_arrival(at, wf);
            }
            ClientConfig::Manual => {}
        }
    }

    /// Produces the aggregated run report.
    pub fn report(&mut self) -> RunReport {
        let mut workflows = BTreeMap::new();
        // The name table is indexed by dense workflow id; the only string
        // allocations here are the ones owned by the report itself.
        for (idx, name) in self.name_table.iter().enumerate() {
            let wf = WorkflowId::new(idx as u32);
            let metrics = self.metrics.get_mut(&wf).expect("metrics exist");
            workflows.insert(name.to_string(), metrics.snapshot(name));
        }
        let now = self.queue.now();
        let sim_secs = now.as_secs_f64();
        let master_node = ClusterConfig::MASTER_NODE;
        let storage_node_bytes =
            self.net.bytes_delivered_to(master_node) + self.net.bytes_sent_from(master_node);
        let (mut syncs, mut local_updates) = (0u64, 0u64);
        for e in &self.worker_engines {
            syncs += e.stats().syncs_sent.get();
            local_updates += e.stats().local_updates.get();
        }
        let (mut cold, mut warm) = (0u64, 0u64);
        for c in &self.containers {
            cold += c.stats().cold_starts.get();
            warm += c.stats().warm_starts.get();
        }
        let faastore_local_bytes = self
            .faastores
            .iter()
            .map(|f| f.memstore().total_bytes_stored())
            .sum();
        let live_invocation_states = self
            .worker_engines
            .iter()
            .map(|e| e.live_invocations() as u64)
            .sum::<u64>()
            + self.master_engine.live_invocations() as u64;
        let (slo, degrade) = self
            .slo
            .as_ref()
            .map(SloControl::report)
            .unwrap_or_default();
        let mut recovery = self.recovery;
        for slot in &self.engine_slots {
            let j = &slot.journal;
            recovery.journal_appends += j.append_count();
            recovery.journal_lost_appends += j.lost_count();
            recovery.journal_replays += j.replay_count();
            recovery.journal_replayed_records += j.replayed_record_count();
            // Engines still down at snapshot time contribute partial
            // downtime.
            if slot.down {
                recovery.engine_downtime_secs += (now - slot.down_since).as_secs_f64();
            }
        }
        RunReport {
            workflows,
            sim_time_secs: sim_secs,
            master_busy_fraction: if sim_secs > 0.0 {
                self.master_busy_time.as_secs_f64() / sim_secs
            } else {
                0.0
            },
            master_tasks_assigned: self.master_engine.stats().tasks_assigned.get(),
            master_state_returns: self.master_engine.stats().state_returns.get(),
            worker_syncs: syncs,
            worker_local_updates: local_updates,
            cold_starts: cold,
            warm_starts: warm,
            storage_node_bytes,
            faastore_local_bytes,
            live_invocation_states,
            exec_retries: self.exec_retries,
            repartition_failures: self.repartition_failures,
            faults: self.faults,
            overload: self.admission.report(&self.hedging, self.breaker.as_ref()),
            placement: self.rebalancer.report,
            recovery,
            slo,
            degrade,
            health: self.windows.health_report(
                self.health.as_ref(),
                self.faults.dead_letter_quarantine_orphan,
            ),
            trace_dropped: self.tracer.dropped(),
            resources: self.sampler.as_ref().map(Sampler::report),
        }
    }

    // ==================================================================
    // Partitioning / deployment
    // ==================================================================

    /// Live per-worker load fed into load-aware placement: container queue
    /// depth, booting + running instances, resident memstore bytes, and the
    /// recently observed end-to-end tail.
    fn worker_loads(&self) -> Vec<WorkerLoad> {
        let n = self.config.workers as usize;
        let mut loads = vec![WorkerLoad::default(); n];
        for (w, load) in loads.iter_mut().enumerate() {
            load.queued = self.containers[w].queue_len() as u32;
            load.mem_used_bytes = self.faastores[w].memstore().used_total();
            load.recent_p99_ms = self.rebalancer.recent_p99_ms(w);
        }
        for state in self.invocations.values() {
            for inst in state.instances.values() {
                loads[inst.worker].running += 1;
            }
        }
        // Admissions still booting; skip tokens already counted above.
        for (t, &w) in &self.inflight_spawns {
            let counted = self
                .invocations
                .get(&(t.workflow, t.invocation))
                .is_some_and(|s| s.instances.contains_key(t));
            if !counted {
                loads[w].running += 1;
            }
        }
        loads
    }

    /// The partition target set: alive, non-quarantined workers, at
    /// residual capacity (nominal minus live instances) when the placement
    /// layer is enabled, at nominal capacity otherwise. Quarantine zeroes
    /// a worker's share without declaring it dead: its running work keeps
    /// completing, it just gets nothing new.
    fn placement_workers(&self, residual: bool, loads: &[WorkerLoad]) -> Vec<WorkerInfo> {
        (0..self.config.workers)
            .filter(|&i| {
                let f = self.workers[i as usize];
                f.alive && !f.quarantined
            })
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

    fn partition_and_deploy(
        &mut self,
        wf: WorkflowId,
        state: &mut WorkflowState,
    ) -> Result<(), ClusterError> {
        // Only live workers take part: a crash shrinks the partition target
        // set and recovery redeploys onto the survivors.
        let enabled = self.config.placement_config.enabled;
        let loads = if enabled {
            self.worker_loads()
        } else {
            Vec::new()
        };
        let workers = self.placement_workers(enabled, &loads);
        let scheduler = &self.scheduler;
        let (dag, metrics, contention) = (&state.dag, &state.prev_metrics, &state.contention);
        let partition = |workers: &[WorkerInfo], rng: &mut SimRng| {
            scheduler.partition(dag, workers, metrics, contention, state.quota, rng)
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

        let assignment = Arc::new(assignment);
        state.dag_arc = Arc::new(state.dag.clone());
        let (_version, _retired) = state.deployment.deploy(assignment.clone());

        // Install on the engines and budget the memstores.
        match self.config.mode {
            ScheduleMode::WorkerSp => {
                for e in &mut self.worker_engines {
                    e.install(
                        wf,
                        state.dag_arc.clone(),
                        assignment.clone(),
                        state.arm_seed,
                    );
                }
            }
            ScheduleMode::MasterSp => {
                self.master_engine.install(
                    wf,
                    state.dag_arc.clone(),
                    assignment.clone(),
                    state.arm_seed,
                );
            }
        }
        for i in 0..self.config.workers as usize {
            let node = self.config.worker_node(i as u32);
            let members = assignment
                .groups
                .iter()
                .filter(|g| g.worker == node)
                .flat_map(|g| g.members.iter().copied());
            let budget = quota::subset_quota(&state.dag, members, self.config.mu);
            self.faastores[i].memstore_mut().set_budget(wf, budget);
        }
        Ok(())
    }

    fn maybe_repartition(&mut self, wf: WorkflowId, qos_violated: bool) {
        let due_by_count = match self.config.repartition_every {
            Some(period) => self.workflows[&wf].completed_since_partition >= period,
            None => false,
        };
        // A QoS violation forces an iteration, but only if at least one
        // invocation completed since the last one (fresh feedback exists).
        let due_by_qos = qos_violated && self.workflows[&wf].completed_since_partition > 0;
        if !due_by_count && !due_by_qos {
            return;
        }
        let state = self.workflows.get_mut(&wf).expect("workflow exists");
        state.completed_since_partition = 0;
        let collector = std::mem::replace(&mut state.feedback, FeedbackCollector::new(&state.dag));
        let prev = state.prev_metrics.clone();
        state.prev_metrics = collector.finish(&mut state.dag, &prev);
        // Take the state out to satisfy the borrow checker, then reinsert.
        let mut state = self.workflows.remove(&wf).expect("workflow exists");
        let result = self.partition_and_deploy(wf, &mut state);
        self.workflows.insert(wf, state);
        if let Err(e) = result {
            // A repartition that no longer fits keeps the previous version —
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
                    self.pin_engine_invocation(worker, wf, inv);
                    let actions = self.worker_engines[worker].begin_invocation(wf, inv);
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
                    self.pin_engine_invocation(worker, wf, inv);
                    let actions = self.worker_engines[worker].on_state_sync(wf, inv, completed);
                    self.apply_worker_actions(now, worker, actions);
                }
            }
            Event::DeliverAssign {
                worker,
                wf,
                inv,
                function,
            } => {
                if !self.invocation_alive(wf, inv) {
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
                if self.epoch_alive(wf, inv, epoch) {
                    self.on_exit_report(now, wf, inv, function);
                }
            }
            Event::MasterArrive { msg, gen } => {
                if !self.engine_current(EngineTarget::Master, gen) {
                    self.recovery.messages_lost += 1;
                } else {
                    self.master_inbox.push_back(msg);
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
                    if let Some(state) = self.invocations.get_mut(&(wf, inv)) {
                        if !state.completed_nodes.insert(function) {
                            // Replay already re-derived this virtual node's
                            // completion; the pre-crash event is a duplicate.
                            self.recovery.duplicate_suppressions += 1;
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
                if self.instance_on(io.worker as usize, io.token) {
                    let node = self.config.worker_node(io.worker);
                    let (src, dst) = if io.read {
                        (ClusterConfig::MASTER_NODE, node)
                    } else {
                        (node, ClusterConfig::MASTER_NODE)
                    };
                    self.net.start_flow(src, dst, io.bytes, io.tag(true), now);
                    self.reschedule_flow_timer(now);
                }
            }
            Event::ExecDone { worker, token, seq } => self.on_exec_done(now, worker, token, seq),
            Event::WorkerInstanceDone { worker, token, gen } => {
                if !self.engine_current(EngineTarget::Worker(worker as u32), gen) {
                    // Engine down or message predates the last recovery; the
                    // completion was already reflected in the cluster-side
                    // instance counts the replay seeded from.
                    self.recovery.messages_lost += 1;
                } else if self.workers[worker].alive
                    && self.epoch_alive(token.workflow, token.invocation, token.epoch)
                {
                    let (wf, inv, function) = (token.workflow, token.invocation, token.function);
                    self.worker_node_complete(now, worker, wf, inv, function);
                }
            }
            Event::FlowTick => {
                self.flow_timer = None;
                let mut done = std::mem::take(&mut self.scratch.flows_done);
                self.net.take_completed_into(now, &mut done);
                for (_, flow) in done.drain(..) {
                    self.on_flow_done(now, flow.tag);
                }
                self.scratch.flows_done = done;
                self.reschedule_flow_timer(now);
            }
            Event::ContainerExpiry { worker } => {
                self.expiry_timers[worker] = None;
                let admissions = self.containers[worker].evict_expired(now, &mut self.rng);
                self.schedule_admissions(worker, admissions);
                self.track_utilization(now, worker);
                self.reschedule_expiry(now, worker);
            }
            Event::Timeout { wf, inv } => self.on_timeout(now, wf, inv),
            Event::WorkerCrash { idx } => self.on_worker_crash(now, idx),
            Event::WorkerRestart { worker } => self.on_worker_restart(now, worker),
            Event::LeaseExpired { worker } => self.on_lease_expired(now, worker),
            Event::StorageFault { idx, open } => {
                let kind = self.config.fault.storage_faults[idx].kind;
                self.windows.on_storage_fault(kind, open);
            }
            Event::NetFault { idx, open } => self.on_net_fault(now, idx, open),
            Event::RetryRemote { io, attempt } => self.remote_io(now, io, attempt),
            Event::RecoverInvocation { wf, inv, epoch } => {
                if self.epoch_alive(wf, inv, epoch) {
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
                    let (containers, faastores) = (&self.containers, &self.faastores);
                    sampler.take(now, &mut self.net, containers, faastores, pending, inflight);
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
            Event::HealthReopen { worker, at } => self.on_health_reopen(now, worker, at),
        }
    }

    fn invocation_alive(&self, wf: WorkflowId, inv: InvocationId) -> bool {
        self.invocations.contains_key(&(wf, inv))
    }

    /// The invocation's recovery epoch (0 once it ended: messages stamped
    /// with it are dropped at the receiver either way).
    fn epoch_of(&self, wf: WorkflowId, inv: InvocationId) -> u32 {
        self.invocations.get(&(wf, inv)).map_or(0, |s| s.epoch)
    }

    /// Alive *and* still in the given recovery epoch — the fence that makes
    /// every pre-crash in-flight message harmless after a restart.
    fn epoch_alive(&self, wf: WorkflowId, inv: InvocationId, epoch: u32) -> bool {
        self.invocations
            .get(&(wf, inv))
            .is_some_and(|s| s.epoch == epoch)
    }

    fn slot(&self, target: EngineTarget) -> &EngineSlot {
        &self.engine_slots[slot_index(target)]
    }

    fn slot_mut(&mut self, target: EngineTarget) -> &mut EngineSlot {
        &mut self.engine_slots[slot_index(target)]
    }

    fn worker_slot(&self, w: usize) -> &EngineSlot {
        self.slot(EngineTarget::Worker(w as u32))
    }

    /// Whether `worker`'s engine processes a message for `(wf, inv)` at
    /// `epoch`: a down engine loses it (counted), a dead worker or a stale
    /// epoch drops it.
    fn engine_accepts(
        &mut self,
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        epoch: u32,
    ) -> bool {
        if self.worker_slot(worker).down {
            self.recovery.messages_lost += 1;
            return false;
        }
        self.workers[worker].alive && self.epoch_alive(wf, inv, epoch)
    }

    /// The engine is up and `gen` stamps its current incarnation.
    fn engine_current(&self, target: EngineTarget, gen: u64) -> bool {
        let slot = self.slot(target);
        !slot.down && gen == slot.gen
    }

    /// `true` while `token`'s instance is currently admitted on `worker`.
    fn instance_on(&self, worker: usize, token: InstanceToken) -> bool {
        self.invocations
            .get(&(token.workflow, token.invocation))
            .and_then(|s| s.instances.get(&token))
            .is_some_and(|i| i.worker == worker)
    }

    // ==================================================================
    // Client & invocation lifecycle
    // ==================================================================

    fn on_arrival(&mut self, now: SimTime, wf: WorkflowId) {
        self.pending_arrivals = self
            .pending_arrivals
            .checked_sub(1)
            .expect("arrival bookkeeping out of step");
        let state = self.workflows.get_mut(&wf).expect("workflow exists");
        if state.sent >= state.client.total_invocations() {
            return;
        }
        state.sent += 1;
        // Open-loop: schedule the next arrival independently of completion.
        let next_open_rate = match state.client {
            ClientConfig::OpenLoop { per_minute, .. }
                if state.sent < state.client.total_invocations() =>
            {
                Some(per_minute)
            }
            _ => None,
        };
        if let Some(per_minute) = next_open_rate {
            let gap = self.rng.exp_f64(60.0 / per_minute);
            let at = now + SimDuration::from_secs_f64(gap);
            self.schedule_arrival(at, wf);
        }
        let state = self.workflows.get_mut(&wf).expect("workflow exists");
        let inv = InvocationId::new(self.next_invocation);
        self.next_invocation += 1;
        self.tracer.record(|| TraceEvent::InvocationArrived {
            workflow: wf,
            invocation: inv,
            at: now,
        });
        let version = state.deployment.invocation_started();
        let assignment = state
            .deployment
            .assignment_arc(version)
            .expect("current version has an assignment");
        let mut inv_state = InvState::new(version, state.dag_arc.clone(), assignment, now);
        let timeout_at = now + self.config.timeout;
        inv_state.timeout_event = Some(self.queue.schedule(timeout_at, Event::Timeout { wf, inv }));
        self.metrics.get_mut(&wf).expect("metrics exist").sent += 1;
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
            let record = JournalRecord::Admitted {
                workflow: wf,
                invocation: inv,
            };
            self.journal_append(now, EngineTarget::Master, record);
        }
        if !decision.admitted {
            // Attributed to the first entry node's worker, where dispatch
            // would have begun (worker 0 for degenerate placements).
            let worker = self.entry_workers(wf, inv).first().copied().unwrap_or(0);
            self.abandon_invocation(now, wf, inv, AbandonKind::DegradeShed { worker });
        } else if master_sp {
            let gen = self.slot(EngineTarget::Master).gen;
            let msg = MasterInbox::Begin { wf, inv };
            self.queue.schedule(now, Event::MasterArrive { msg, gen });
        } else {
            self.begin_invocation_dispatch(now, wf, inv);
        }
    }

    /// The workers hosting an invocation's entry nodes under its pinned
    /// placement, ascending.
    fn entry_workers(&self, wf: WorkflowId, inv: InvocationId) -> Vec<usize> {
        let state = &self.invocations[&(wf, inv)];
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

    /// WorkerSP: pins the invocation's engine-side context to its
    /// cluster-side pinned deployment before the first `begin`/`sync`
    /// event is processed there. Without this, an incremental rebalance
    /// landing between an invocation's arrival and a delayed sync would
    /// make the receiving engine route the live invocation by the *new*
    /// assignment — stranding successors and breaking the data-placement
    /// contract (a `LocalMem` put whose consumer moved elsewhere).
    fn pin_engine_invocation(&mut self, worker: usize, wf: WorkflowId, inv: InvocationId) {
        let Some(state) = self.invocations.get_mut(&(wf, inv)) else {
            return;
        };
        let Some(ws) = self.workflows.get(&wf) else {
            return;
        };
        state.holders.insert(worker);
        self.worker_engines[worker].ensure_invocation(
            wf,
            inv,
            state.dag.clone(),
            state.assignment.clone(),
            ws.arm_seed,
        );
    }

    /// WorkerSP: notify each worker hosting an entry node of the
    /// invocation's pinned assignment. Used on arrival and again after a
    /// crash-recovery restart (under the bumped epoch).
    fn begin_invocation_dispatch(&mut self, now: SimTime, wf: WorkflowId, inv: InvocationId) {
        let epoch = self.invocations[&(wf, inv)].epoch;
        for worker in self.entry_workers(wf, inv) {
            self.journal_append(
                now,
                EngineTarget::Worker(worker as u32),
                JournalRecord::Admitted {
                    workflow: wf,
                    invocation: inv,
                },
            );
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
        let delay = self.config.lan.latency(bytes, &mut self.rng);
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
            total += self.config.fault.backoff.delay(attempt, &mut self.rng)
                + self
                    .config
                    .lan
                    .latency(bytes, &mut self.rng)
                    .mul_f64(quality.latency_factor);
            attempt += 1;
        }
        total
    }

    fn on_timeout(&mut self, _now: SimTime, wf: WorkflowId, inv: InvocationId) {
        let Some(state) = self.invocations.get_mut(&(wf, inv)) else {
            return;
        };
        state.timed_out = true;
        state.timeout_event = None;
        let critical = self.workflows[&wf].critical_exec;
        let metrics = self.metrics.get_mut(&wf).expect("metrics exist");
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
        let Some(state) = self.invocations.get_mut(&(wf, inv)) else {
            return;
        };
        if !state.reported_exits.insert(function) {
            // Engine-crash replay re-emitted this exit's completion; the
            // invocation's exit count must only move once per exit node.
            self.recovery.duplicate_suppressions += 1;
            return;
        }
        state.exits_remaining = state.exits_remaining.saturating_sub(1);
        if state.exits_remaining == 0 {
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
        let ws = self.workflows.get_mut(&wf).expect("workflow exists");
        let metrics = self.metrics.get_mut(&wf).expect("metrics exist");
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
        for node in state.dag.nodes() {
            if !node.kind.is_function() {
                continue;
            }
            let worker = state.assignment.worker_of(node.id);
            if let Some(wi) = self.config.worker_index(worker) {
                let pool = self.containers[wi].pool_size((wf, node.id)).max(1);
                ws.feedback.observe_scale(node.id, pool);
                ws.feedback.observe_map(node.id, node.parallelism);
            }
        }
        ws.completed_since_partition += 1;
        self.retire_invocation(now, wf, inv, &state);
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
        let mut state = self.invocations.remove(&(wf, inv))?;
        self.terminated += 1;
        if let Some(ev) = state.timeout_event.take() {
            self.queue.cancel(ev);
        }
        let record = JournalRecord::Terminal {
            workflow: wf,
            invocation: inv,
            outcome,
        };
        self.journal_append(now, EngineTarget::Master, record);
        Some(state)
    }

    /// Releases an ended invocation's state everywhere it was kept
    /// (§4.2.1) and its pinned version; a closed-loop client then sends
    /// its next invocation.
    fn retire_invocation(
        &mut self,
        now: SimTime,
        wf: WorkflowId,
        inv: InvocationId,
        state: &InvState,
    ) {
        self.release_invocation_state(wf, inv, &state.holders);
        let ws = self.workflows.get_mut(&wf).expect("workflow exists");
        let _retired = ws.deployment.invocation_finished(state.version);
        if matches!(ws.client, ClientConfig::ClosedLoop { .. })
            && ws.sent < ws.client.total_invocations()
        {
            self.schedule_arrival(now, wf);
        }
    }

    /// Drops an invocation's engine trigger state and every object it
    /// stored, in the FaaStores and the remote store.
    fn release_invocation_state(&mut self, wf: WorkflowId, inv: InvocationId, holders: &WorkerSet) {
        if self.config.mode == ScheduleMode::MasterSp {
            self.master_engine.release_invocation(wf, inv);
        }
        for w in holders.iter() {
            self.worker_engines[w].release_invocation(wf, inv);
            let _ = self.faastores[w].release_invocation(wf, inv);
        }
        let _ = self.remote.release_invocation(inv);
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
        let moved = self.redeploy_where(|ws| {
            ws.deployment
                .current()
                .is_some_and(|(_, asg)| asg.involves(node))
        });
        let tracer = &mut self.tracer;
        self.rebalancer
            .note_rebalanced(node, moved, recovery, now, tracer);
    }

    /// Re-partitions and redeploys, in id order, every workflow `pick`
    /// selects. One the workers cannot fit keeps its previous deployment
    /// (counted in `repartition_failures`). Returns how many moved.
    fn redeploy_where(&mut self, pick: impl Fn(&WorkflowState) -> bool) -> u64 {
        let mut wfs = std::mem::take(&mut self.scratch.wf_ids);
        wfs.extend(
            self.workflows
                .iter()
                .filter(|(_, ws)| pick(ws))
                .map(|(&wf, _)| wf),
        );
        wfs.sort_unstable();
        let mut moved = 0u64;
        for &wf in &wfs {
            let mut state = self.workflows.remove(&wf).expect("workflow exists");
            let result = self.partition_and_deploy(wf, &mut state);
            self.workflows.insert(wf, state);
            match result {
                Ok(()) => moved += 1,
                Err(_) => self.repartition_failures += 1,
            }
        }
        wfs.clear();
        self.scratch.wf_ids = wfs;
        moved
    }

    // ==================================================================
    // Master engine (MasterSP)
    // ==================================================================

    fn try_start_master(&mut self, now: SimTime) {
        if self.master_current.is_some() {
            return;
        }
        let Some(msg) = self.master_inbox.pop_front() else {
            return;
        };
        self.master_current = Some(msg);
        self.queue.schedule(
            now + self.config.master_task_cost,
            Event::MasterDone {
                gen: self.slot(EngineTarget::Master).gen,
            },
        );
    }

    fn on_master_done(&mut self, now: SimTime, gen: u64) {
        if !self.engine_current(EngineTarget::Master, gen) {
            // The engine crashed while this task was processing; the work
            // (and the inbox slot it held) died with the volatile state.
            return;
        }
        self.master_busy_time += self.config.master_task_cost;
        let msg = self
            .master_current
            .take()
            .expect("a message was processing");
        let actions = match msg {
            MasterInbox::Begin { wf, inv } => {
                if self.invocation_alive(wf, inv) {
                    self.master_engine.begin_invocation(wf, inv)
                } else {
                    Vec::new()
                }
            }
            MasterInbox::StateReturn { wf, inv, function } => {
                if self.invocation_alive(wf, inv) {
                    let was_done = self.master_engine.node_done(wf, inv, function);
                    let actions = self.master_engine.on_state_return(wf, inv, function);
                    if !was_done && self.master_engine.node_done(wf, inv, function) {
                        self.journal_append(
                            now,
                            EngineTarget::Master,
                            JournalRecord::NodeDone {
                                workflow: wf,
                                invocation: inv,
                                function,
                            },
                        );
                    }
                    actions
                } else {
                    Vec::new()
                }
            }
            MasterInbox::Requeue(d) => {
                // Central re-dispatch: the bounced assignment burned a
                // master CPU slot and now travels back to the worker.
                if self.epoch_alive(d.wf, d.inv, d.epoch) {
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
                    self.journal_append(
                        now,
                        EngineTarget::Master,
                        JournalRecord::Dispatched {
                            workflow,
                            invocation,
                            function,
                        },
                    );
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
    /// the last instance of a function). The engine journals the node the
    /// moment it first sees it done, then acts on the completion.
    fn worker_node_complete(
        &mut self,
        now: SimTime,
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
    ) {
        let engine = &mut self.worker_engines[worker];
        let was_done = engine.node_done(wf, inv, function);
        let actions = engine.on_instance_complete(wf, inv, function);
        if !was_done && engine.node_done(wf, inv, function) {
            self.journal_append(
                now,
                EngineTarget::Worker(worker as u32),
                JournalRecord::NodeDone {
                    workflow: wf,
                    invocation: inv,
                    function,
                },
            );
        }
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
                        let Some(state) = self.invocations.get(&(workflow, invocation)) else {
                            continue;
                        };
                        (!state.dag.node(function).kind.is_function(), state.epoch)
                    };
                    if is_virtual {
                        self.queue.schedule(
                            now + self.config.worker_engine_cost,
                            Event::VirtualDone {
                                worker,
                                wf: workflow,
                                inv: invocation,
                                function,
                                epoch,
                            },
                        );
                    } else {
                        self.journal_append(
                            now,
                            EngineTarget::Worker(worker as u32),
                            JournalRecord::Dispatched {
                                workflow,
                                invocation,
                                function,
                            },
                        );
                        self.spawn_instances(now, worker, workflow, invocation, function);
                    }
                }
                WorkerAction::SyncState {
                    to,
                    workflow,
                    invocation,
                    completed,
                } => {
                    self.journal_append(
                        now,
                        EngineTarget::Worker(worker as u32),
                        JournalRecord::StateSynced {
                            workflow,
                            invocation,
                            function: completed,
                        },
                    );
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
                    let epoch = self.epoch_of(workflow, invocation);
                    let delay = self.control_delay(256, from, to) + self.config.worker_engine_cost;
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
                    let epoch = self.epoch_of(workflow, invocation);
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
            self.containers[worker].queue_len(),
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
        let Some(state) = self.invocations.get(&(wf, inv)) else {
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
        if !self.epoch_alive(wf, inv, d.epoch) {
            return;
        }
        let next = d.attempt + 1;
        let (alive, queued) = (
            self.workers[worker].alive,
            self.containers[worker].queue_len(),
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
        let Some(state) = self.invocations.get_mut(&(wf, inv)) else {
            return;
        };
        if !state.dispatched.insert(function) {
            // Engine-crash replay re-issued a dispatch that already landed;
            // spawning twice would double-run (and double-count) the node.
            self.recovery.duplicate_suppressions += 1;
            return;
        }
        let epoch = state.epoch;
        let parallelism = state.dag.node(function).parallelism.max(1);
        state.instances_remaining.insert(function, parallelism);
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
        let Some(state) = self
            .invocations
            .get_mut(&(token.workflow, token.invocation))
            .filter(|s| s.epoch == token.epoch)
        else {
            return;
        };
        self.inflight_spawns.insert(token, worker);
        let pool = &mut self.containers[worker];
        if let Some(adm) = pool.request((token.workflow, token.function), token, now, &mut self.rng)
        {
            self.schedule_admissions(worker, vec![adm]);
        } else {
            state.queued_on.insert(worker);
            if self.admission.overflowed(pool.queue_len()) {
                self.shed_overflow(now, worker, token);
            }
        }
        self.track_utilization(now, worker);
        self.reschedule_expiry(now, worker);
    }

    /// The admission queue on `worker` just overflowed its bound: drop
    /// the whole invocation of the victim [`Admission`] picks (the
    /// teardown purges its other queued entries, so one invocation is shed
    /// at most once).
    fn shed_overflow(&mut self, now: SimTime, worker: usize, newcomer: InstanceToken) {
        let rank = |t: InstanceToken| {
            let started = self.invocations.get(&(t.workflow, t.invocation))?.started;
            let demoted = self.slo.as_ref().is_some_and(|s| s.demotes(t.workflow));
            let node = self.workflows[&t.workflow].dag.node(t.function);
            let priority = node.kind.profile().map_or(0, |p| p.priority);
            Some((demoted, priority, started + self.config.qos_target?))
        };
        let pool = &mut self.containers[worker];
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
        // reused — and `inflight_spawns` names the worker the *current*
        // admission of this token lives on).
        let fresh = self.workers[worker].alive
            && self.containers[worker].is_busy(container)
            && self.inflight_spawns.get(&token) == Some(&worker)
            && self.epoch_alive(token.workflow, token.invocation, token.epoch);
        if !fresh {
            if self.inflight_spawns.get(&token) == Some(&worker) {
                self.inflight_spawns.remove(&token);
            }
            // A stale admission on a live worker still holds its container
            // (e.g. the invocation restarted or dead-lettered mid-boot).
            self.release_container_if_held(now, worker, container);
            return;
        }
        self.inflight_spawns.remove(&token);
        // FaaStore memory reclamation (§4.3.2): shrink a fresh container's
        // cgroup limit to peak-history + μ. MicroVM sandboxes cannot
        // hot-unplug memory, so they keep the provisioned size.
        if cold && self.config.faastore && self.config.reclamation == ReclamationMode::CgroupLimit {
            if let Some(state) = self.invocations.get(&(token.workflow, token.invocation)) {
                if let NodeKind::Function(profile) = &state.dag.node(token.function).kind {
                    let target = profile.peak_mem_bytes + self.config.mu;
                    if target < profile.provisioned_mem_bytes {
                        let _ = self.containers[worker].set_memory_limit(container, target);
                    }
                }
            }
        }
        let seq = self.next_instance_seq;
        self.next_instance_seq += 1;
        let state = self
            .invocations
            .get_mut(&(token.workflow, token.invocation))
            .expect("fenced above");
        state.instances.insert(
            token,
            InstanceState {
                container,
                worker,
                home: worker,
                pending_inputs: 0,
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
        let mut inputs = std::mem::take(&mut self.scratch.inputs);
        let state = self
            .invocations
            .get_mut(&(token.workflow, token.invocation))
            .expect("inserted above");

        // Gather inputs: one transfer per producer that actually ran.
        let parallelism = state.dag.node(token.function).parallelism.max(1);
        inputs.extend(
            state
                .dag
                .data_inputs(token.function)
                .filter(|d| state.completed_nodes.contains(d.producer))
                .map(|d| {
                    (
                        d.producer,
                        InvState::share(d.bytes, parallelism, token.instance),
                    )
                })
                .filter(|&(_, share)| share > 0),
        );

        if inputs.is_empty() {
            self.scratch.inputs = inputs;
            self.start_exec(now, worker, token);
            return;
        }
        state
            .instances
            .get_mut(&token)
            .expect("inserted above")
            .pending_inputs = inputs.len() as u32;

        let node = self.config.worker_node(worker as u32);
        let mut started_local = false;
        for &(producer, share) in &inputs {
            let key = DataKey::new(token.workflow, token.invocation, producer);
            if self.faastores[worker].read_local(key).is_some() {
                // Local memory read: loopback flow, no NIC consumption.
                let tag = FlowTag::local(token, producer, now, true);
                self.net.start_flow(node, node, share, tag, now);
                started_local = true;
            } else {
                // Remote read: server-side overhead, then a flow from the
                // storage node (with blackout backoff when the store is
                // down).
                let io = RemoteIo {
                    worker: worker as u32,
                    token,
                    producer,
                    bytes: share,
                    started: now,
                    read: true,
                };
                self.remote_io(now, io, 0);
            }
        }
        inputs.clear();
        self.scratch.inputs = inputs;
        if started_local {
            // One timer update covers every flow started above.
            self.reschedule_flow_timer(now);
        }
    }

    fn start_exec(&mut self, now: SimTime, worker: usize, token: InstanceToken) {
        let Some(state) = self
            .invocations
            .get_mut(&(token.workflow, token.invocation))
        else {
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
        // Stale-event fence: the instance must still be this admission on
        // this worker (a crash orphans instances; a restart re-admits the
        // same token under a fresh sequence number; an evacuation moves it
        // elsewhere — the old home's late completion is a zombie's).
        let live = self
            .invocations
            .get(&(token.workflow, token.invocation))
            .and_then(|s| s.instances.get(&token))
            .filter(|i| i.worker == worker && i.seq == seq);
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
        // handler that triggered it.
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
            let state = self
                .invocations
                .get_mut(&(token.workflow, token.invocation))
                .expect("fenced above");
            let inst = state.instances.get_mut(&token).expect("fenced above");
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
        if let Some(inst) = self
            .invocations
            .get_mut(&(token.workflow, token.invocation))
            .and_then(|s| s.instances.get_mut(&token))
        {
            inst.exec_done = true;
        }
        self.cancel_hedge(now, token);
        let Some(state) = self
            .invocations
            .get_mut(&(token.workflow, token.invocation))
        else {
            return;
        };
        let node = state.dag.node(token.function);
        let total_out = node.kind.profile().map(|p| p.output_bytes).unwrap_or(0);
        let parallelism = node.parallelism.max(1);
        let share = InvState::share(total_out, parallelism, token.instance);
        if share == 0 {
            self.finish_instance(now, worker, token);
            return;
        }
        // Placement decided once per node output (total bytes).
        let placement = match state.placements.get(token.function) {
            Some(&p) => p,
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
                state.holders.insert(worker);
                let p = self.faastores[worker].decide_put(
                    key,
                    total_out,
                    storage_type,
                    producer_node,
                    &consumers,
                );
                if p == Placement::Remote {
                    self.remote.put(key, total_out);
                }
                state.placements.insert(token.function, p);
                p
            }
        };
        let node_id = self.config.worker_node(worker as u32);
        match placement {
            Placement::LocalMem => {
                let tag = FlowTag::local(token, token.function, now, false);
                self.net.start_flow(node_id, node_id, share, tag, now);
                self.reschedule_flow_timer(now);
            }
            Placement::Remote => {
                let io = RemoteIo {
                    worker: worker as u32,
                    token,
                    producer: token.function,
                    bytes: share,
                    started: now,
                    read: false,
                };
                self.remote_io(now, io, 0);
            }
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
            .get(&(token.workflow, token.invocation))
            .and_then(|s| s.instances.get(&token))
            .is_some_and(|i| i.worker == worker && i.seq == seq && !i.exec_done);
        if !still_running {
            return;
        }
        let n = self.config.workers as usize;
        let mut admitted = None;
        for cand in (worker + 1..n).chain(0..worker) {
            // Quarantined workers take no hedges: a speculative copy on a
            // gray worker is the straggler it was meant to beat.
            if !self.workers[cand].alive || self.workers[cand].quarantined {
                continue;
            }
            if let Some(adm) = self.containers[cand].request_immediate(
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
        let hedge_seq = self.next_instance_seq;
        self.next_instance_seq += 1;
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
        self.track_utilization(now, target);
        self.reschedule_expiry(now, target);
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
        let Some(state) = self.invocations.get(&(token.workflow, token.invocation)) else {
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
            .get(&(token.workflow, token.invocation))
            .and_then(|s| s.instances.get(&token))
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
            let inst = self
                .invocations
                .get_mut(&(token.workflow, token.invocation))
                .and_then(|s| s.instances.get_mut(&token))
                .expect("checked above");
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
        let admissions = self.containers[worker].release(container, now, &mut self.rng);
        self.schedule_admissions(worker, admissions);
        self.track_utilization(now, worker);
        self.reschedule_expiry(now, worker);
    }

    /// [`Self::release_container`] if the worker is still alive and the
    /// container still admitted (a crash wipes the pool wholesale).
    fn release_container_if_held(&mut self, now: SimTime, worker: usize, container: ContainerId) {
        if self.workers[worker].alive && self.containers[worker].is_busy(container) {
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
            let Some(state) = self
                .invocations
                .get_mut(&(token.workflow, token.invocation))
            else {
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
                self.windows.stall(inst.worker, tag);
                return;
            }
            let parallelism = state.dag.node(token.function).parallelism.max(1);
            let total = if read {
                let mut inputs = state.dag.data_inputs(token.function);
                inputs.find(|d| d.producer == producer).map(|d| d.bytes)
            } else {
                state
                    .dag
                    .node(token.function)
                    .kind
                    .profile()
                    .map(|p| p.output_bytes)
            };
            let share = InvState::share(total.unwrap_or(0), parallelism, token.instance);
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
            self.record_edge_feedback(token.workflow, producer, latency);
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

    fn record_edge_feedback(&mut self, wf: WorkflowId, producer: FunctionId, latency: SimDuration) {
        let Some(ws) = self.workflows.get_mut(&wf) else {
            return;
        };
        // Split borrow: read the DAG while mutating the collector.
        let (dag, feedback) = (&ws.dag, &mut ws.feedback);
        for &(edge, _) in dag.successors(producer) {
            feedback.observe_edge(edge, latency);
        }
    }

    fn finish_instance(&mut self, now: SimTime, worker: usize, token: InstanceToken) {
        // Release the container.
        let (container, home) = {
            let Some(state) = self
                .invocations
                .get_mut(&(token.workflow, token.invocation))
            else {
                return;
            };
            let inst = state
                .instances
                .remove(&token)
                .expect("instance finishes once");
            // Track node completion on the core side.
            let remaining = state
                .instances_remaining
                .get_mut(token.function)
                .expect("spawned node tracked");
            *remaining -= 1;
            let node_done = *remaining == 0;
            if node_done {
                state.completed_nodes.insert(token.function);
            }
            if node_done {
                self.tracer.record(|| TraceEvent::NodeCompleted {
                    workflow: token.workflow,
                    invocation: token.invocation,
                    function: token.function,
                    at: now,
                });
            }
            (inst.container, inst.home)
        };
        self.release_container(now, worker, container);

        match self.config.mode {
            ScheduleMode::WorkerSp => {
                // The engine tracking this node's state is the one that
                // triggered the instance (its `home`). Normally that is
                // `worker`, but a hedge win runs the instance elsewhere —
                // the completion must travel back to the home engine
                // (paying a LAN hop), or it would wait for the node forever.
                let mut delay = self.config.worker_engine_cost;
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
                        gen: self.worker_slot(home).gen,
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
        let gen = self.slot(EngineTarget::Master).gen;
        self.queue
            .schedule(now + delay, Event::MasterArrive { msg, gen });
    }

    // ==================================================================
    // Fault injection & recovery
    // ==================================================================

    /// A worker node dies: its bulk transfers are torn down, its warm pool,
    /// queued admissions and MemStore contents vanish, and (under WorkerSP)
    /// its engine process dies with it. Nothing is *recovered* here —
    /// detection waits for the lease to expire, like a real failure
    /// detector.
    fn on_worker_crash(&mut self, now: SimTime, idx: usize) {
        let crash = self.config.fault.node_crashes[idx];
        let w = crash.worker as usize;
        if !self.workers[w].alive {
            return; // overlapping crash windows collapse into one
        }
        self.faults.worker_crashes += 1;
        self.workers[w].alive = false;
        let node = self.config.worker_node(w as u32);
        self.tracer.record(|| TraceEvent::WorkerCrashed {
            worker: node,
            at: now,
        });
        // Kill every bulk transfer touching the node, and the payloads held
        // behind its partition: MasterSP re-admits the orphans below under
        // the same token, which a late payload would otherwise reach.
        self.kill_flows(now, |f| f.src == node || f.dst == node);
        self.windows.drop_stalled_on(w);
        // Warm pool, queued admissions and resource gauges vanish.
        let _ = self.containers[w].crash();
        if let Some(ev) = self.expiry_timers[w].take() {
            self.queue.cancel(ev);
        }
        self.track_utilization(now, w);
        // In-memory store contents are gone with the node.
        let _ = self.faastores[w].crash();
        // WorkerSP: the engine process dies too. Node-crash recovery is the
        // partition-level path (lease expiry → redeploy → epoch-bump
        // restarts), not journal replay — but in-flight journal appends
        // from the dying engine are torn, and if an injected engine crash
        // already had the engine down, its pending restart chain is now
        // moot: bump the era to fence it (the node restart, if any, brings
        // the engine back).
        if self.config.mode == ScheduleMode::WorkerSp {
            let target = EngineTarget::Worker(w as u32);
            self.reinstall_engine(target);
            let slot = self.slot_mut(target);
            let _torn = slot.journal.crash(now);
            if slot.down {
                slot.era += 1;
            }
        }
        // Orphan every instance the node was running, booting, or queueing.
        let mut orphaned = std::mem::take(&mut self.scratch.tokens);
        orphaned.extend(
            self.inflight_spawns
                .iter()
                .filter(|&(_, &ow)| ow == w)
                .map(|(&t, _)| t),
        );
        self.inflight_spawns.retain(|_, &mut ow| ow != w);
        // Map-iteration order is arbitrary; the sort+dedup below restores
        // determinism before anything observable consumes the tokens.
        for state in self.invocations.values_mut() {
            state.instances.retain(|&t, i| {
                if i.worker == w {
                    orphaned.push(t);
                    false
                } else {
                    true
                }
            });
        }
        orphaned.sort_unstable();
        orphaned.dedup();
        // Hedges die with the node too: speculative copies running *on* the
        // dead worker vanish with its pool; hedges whose primary died are
        // dropped (the orphaned primary restarts or recovers on its own).
        self.hedging.on_worker_crash(now, w, &mut self.tracer);
        for &t in &orphaned {
            self.cancel_hedge(now, t);
        }
        self.orphans[w].append(&mut orphaned);
        self.scratch.tokens = orphaned;
        // A fail-stop crash supersedes any gray suspicion: the corpse is
        // not a zombie (its fenced events are ordinary crash cleanup), and
        // the differential detector hands the worker to the lease path.
        self.workers[w].zombie = false;
        self.workers[w].quarantined = false;
        if let Some(h) = self.health.as_mut() {
            h.on_worker_crash(w as u32);
        }
        // Heartbeats stop now; the lease expires after the detection delay
        // (plus this worker's deterministic phase offset when heartbeat
        // staggering is on).
        self.queue.schedule(
            now + self.config.fault.lease_delay(w as u32),
            Event::LeaseExpired { worker: w },
        );
        if let Some(after) = crash.restart_after {
            self.queue
                .schedule(now + after, Event::WorkerRestart { worker: w });
        }
    }

    /// A crashed worker comes back cold: empty pools, empty MemStore, blank
    /// engine. Under WorkerSP the survivors' partitions are recomputed to
    /// fold it back in.
    fn on_worker_restart(&mut self, now: SimTime, w: usize) {
        let faults = &mut self.workers[w];
        if faults.alive {
            return;
        }
        faults.alive = true;
        faults.detected_down = false;
        faults.up_since = now;
        self.faults.worker_restarts += 1;
        let node = self.config.worker_node(w as u32);
        self.tracer.record(|| TraceEvent::WorkerRestarted {
            worker: node,
            at: now,
        });
        if self.config.mode == ScheduleMode::WorkerSp {
            // Incremental fold-in: re-place only the workflows squeezed
            // onto the most-crowded survivor; load-aware scoring pulls them
            // toward the idle reborn worker.
            let alive = |w: usize| self.workers[w].alive;
            let placed = placed_groups(&self.workflows, &self.config);
            let hot = self.rebalancer.hot_worker(placed, alive);
            let hot = hot.map(|(hot, _, _)| self.config.worker_node(hot as u32));
            self.recovery_redeploy(now, hot);
            // The node restart brings the engine process back with it,
            // blank: partition recovery restarts what it held, so there is
            // nothing to replay. The crash already fenced any pending
            // restart chain.
            let target = EngineTarget::Worker(w as u32);
            if self.slot(target).down {
                self.revive_engine(now, target, 0);
                self.slot_mut(target).journal_unreadable = false;
            }
        }
        // MasterSP: assignments that arrived while the node was dead but
        // undetected replay locally on the reborn node.
        let spooled = std::mem::take(&mut self.spooled_assigns[w]);
        for (wf, inv, function) in spooled {
            if self.invocation_alive(wf, inv) {
                self.spawn_instances(now, w, wf, inv, function);
            }
        }
    }

    /// The failure detector declares the worker down and recovery begins.
    /// MasterSP re-dispatches the orphaned calls centrally; WorkerSP
    /// re-partitions onto the survivors and restarts impacted invocations
    /// there.
    fn on_lease_expired(&mut self, now: SimTime, w: usize) {
        self.faults.lease_expiries += 1;
        let node = self.config.worker_node(w as u32);
        self.tracer.record(|| TraceEvent::LeaseExpired {
            worker: node,
            at: now,
        });
        let faults = &mut self.workers[w];
        if !faults.alive {
            faults.detected_down = true;
        }
        // False suspicion: a force-expired lease on a live worker behind an
        // asymmetric partition. The master cannot tell a zombie from a
        // corpse, so it recovers as if the node died; the zombie's late
        // completions die on the fences.
        let suspected = faults.alive && faults.zombie;
        match self.config.mode {
            ScheduleMode::MasterSp => {
                if suspected {
                    self.evacuate_worker(now, w, DeadLetterReason::CrashOrphan);
                } else {
                    self.recover_master_orphans(now, w);
                }
            }
            ScheduleMode::WorkerSp => self.recover_worker_partition(now, w, suspected),
        }
    }

    /// MasterSP crash recovery: the central engine re-dispatches every
    /// instance the dead worker owed to a surviving worker, reading inputs
    /// back from the remote store (the baseline always writes through it).
    fn recover_master_orphans(&mut self, now: SimTime, w: usize) {
        let mut orphans = std::mem::take(&mut self.orphans[w]);
        orphans.sort_unstable();
        orphans.dedup();
        self.charge_recovery_attempts(now, &orphans, DeadLetterReason::RetriesExhausted);
        for &token in &orphans {
            let Some(state) = self.invocations.get(&(token.workflow, token.invocation)) else {
                continue;
            };
            if state.epoch != token.epoch
                || state.completed_nodes.contains(token.function)
                || state.instances.contains_key(&token)
            {
                continue;
            }
            let Some(target) = self.pick_worker(w, false) else {
                self.dead_letter_invocation(
                    now,
                    token.workflow,
                    token.invocation,
                    DeadLetterReason::CrashOrphan,
                );
                continue;
            };
            self.faults.crash_redispatches += 1;
            self.request_instance(now, target, token);
        }
        // Hand the (now empty) buffer's capacity back for the next crash.
        orphans.clear();
        self.orphans[w] = orphans;
        // Assignments that sailed into the void replay on survivors.
        let spooled = std::mem::take(&mut self.spooled_assigns[w]);
        for (wf, inv, function) in spooled {
            if self.invocation_alive(wf, inv) {
                self.reassign_from_dead(now, w, wf, inv, function, Self::spawn_instances);
            }
        }
    }

    /// MasterSP: an assignment for dead `worker`. Once the failure detector
    /// has declared the worker down, the master re-dispatches it through
    /// `spawn` to a survivor (dead-lettering it with none left); until then
    /// it sails into the void, spooled until the lease expires or the node
    /// restarts.
    fn reassign_from_dead(
        &mut self,
        now: SimTime,
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
        spawn: fn(&mut Self, SimTime, usize, WorkflowId, InvocationId, FunctionId),
    ) {
        if !self.workers[worker].detected_down {
            self.spooled_assigns[worker].push((wf, inv, function));
        } else if let Some(target) = self.pick_worker(worker, false) {
            self.faults.crash_redispatches += 1;
            spawn(self, now, target, wf, inv, function);
        } else {
            self.dead_letter_invocation(now, wf, inv, DeadLetterReason::CrashOrphan);
        }
    }

    /// Bumps the recovery budget of every invocation owning one of
    /// `tokens` (once per invocation); exhausted ones dead-letter with
    /// `exhausted`.
    fn charge_recovery_attempts(
        &mut self,
        now: SimTime,
        tokens: &[InstanceToken],
        exhausted: DeadLetterReason,
    ) {
        let mut invs = std::mem::take(&mut self.scratch.inv_keys);
        invs.extend(tokens.iter().map(|t| (t.workflow, t.invocation)));
        invs.sort_unstable();
        invs.dedup();
        for &(wf, inv) in &invs {
            let Some(state) = self.invocations.get_mut(&(wf, inv)) else {
                continue;
            };
            state.recovery_attempts += 1;
            if state.recovery_attempts > self.config.fault.max_recovery_attempts {
                self.dead_letter_invocation(now, wf, inv, exhausted);
            }
        }
        invs.clear();
        self.scratch.inv_keys = invs;
    }

    /// WorkerSP crash recovery: engines route by their installed
    /// assignment, so failover is a real redeploy — re-partition every
    /// workflow over the surviving workers, then restart each invocation
    /// that had incomplete work pinned to state the dead node lost.
    fn recover_worker_partition(&mut self, now: SimTime, w: usize, force: bool) {
        // Token-level orphans are superseded by invocation-level restarts.
        self.orphans[w].clear();
        let faults = self.workers[w];
        // A restarted worker kept nothing for invocations begun before it
        // came back; a still-dead worker kept nothing at all. A false
        // suspicion (`force`) distrusts the node wholesale even though it
        // is alive — everything pinned there restarts.
        let lost = |s: &InvState, pinned: bool| {
            pinned && (force || !faults.alive || s.started < faults.up_since)
        };
        self.restart_pinned_to(now, w, lost, DeadLetterReason::RetriesExhausted);
    }

    /// WorkerSP failover off worker `w`: re-places the workflows with a
    /// group there, then restarts, in key order, each invocation `pick`
    /// selects, told whether it has incomplete work pinned to `w`.
    fn restart_pinned_to(
        &mut self,
        now: SimTime,
        w: usize,
        pick: impl Fn(&InvState, bool) -> bool,
        exhausted: DeadLetterReason,
    ) {
        let node = self.config.worker_node(w as u32);
        let mut impacted = std::mem::take(&mut self.scratch.inv_keys);
        for (&key, state) in &self.invocations {
            let pinned = state.dag.nodes().iter().any(|n| {
                !state.completed_nodes.contains(n.id) && state.assignment.worker_of(n.id) == node
            });
            if pick(state, pinned) {
                impacted.push(key);
            }
        }
        impacted.sort_unstable();
        self.recovery_redeploy(now, Some(node));
        for &(wf, inv) in &impacted {
            self.restart_invocation(now, wf, inv, exhausted);
        }
        impacted.clear();
        self.scratch.inv_keys = impacted;
    }

    /// Re-places workflows after a recovery signal. With the placement
    /// layer on, the sweep is incremental: only workflows with a group on
    /// `node` need new placements, and everyone else keeps their (still
    /// valid) deployment; `None` moves nothing. Without it, every workflow
    /// re-partitions.
    fn recovery_redeploy(&mut self, now: SimTime, node: Option<NodeId>) {
        if !self.config.placement_config.enabled {
            self.redeploy_where(|_| true);
            return;
        }
        if let Some(node) = node {
            self.rebalance_off(now, node, true);
        }
    }

    // ==================================================================
    // Engine crash injection & journaled recovery
    // ==================================================================

    /// Write-ahead append to an engine's journal, exposed to the remote
    /// store's fault state: a blackout loses the append outright, a
    /// brownout stretches its time-to-durable.
    fn journal_append(&mut self, now: SimTime, target: EngineTarget, rec: JournalRecord) {
        let (storage_down, slowdown) = (self.windows.storage_down, self.windows.storage_slowdown);
        let journal = &mut self.slot_mut(target).journal;
        if !journal.enabled() {
            return;
        }
        if storage_down {
            journal.append_lost();
        } else {
            journal.append(now, slowdown, rec);
        }
    }

    /// Replaces an engine with a blank one and re-registers every
    /// workflow's current deployment on it. Workflow contexts are
    /// control-plane config (re-read at boot); only the per-invocation
    /// trigger trackers — and the master's inbox and in-service message —
    /// are volatile.
    fn reinstall_engine(&mut self, target: EngineTarget) {
        match target {
            EngineTarget::Master => {
                self.master_inbox.clear();
                self.master_current = None;
                self.master_engine = MasterEngine::new();
            }
            EngineTarget::Worker(w) => {
                let node = self.config.worker_node(w);
                self.worker_engines[w as usize] = WorkerEngine::new(node);
            }
        }
        let mut wfs: Vec<WorkflowId> = self.workflows.keys().copied().collect();
        wfs.sort_unstable();
        for wf in wfs {
            let ws = &self.workflows[&wf];
            let Some((version, _)) = ws.deployment.current() else {
                continue;
            };
            let assignment = ws
                .deployment
                .assignment_arc(version)
                .expect("current version has an assignment");
            let dag = ws.dag_arc.clone();
            let seed = ws.arm_seed;
            match target {
                EngineTarget::Master => self.master_engine.install(wf, dag, assignment, seed),
                EngineTarget::Worker(w) => {
                    self.worker_engines[w as usize].install(wf, dag, assignment, seed);
                }
            }
        }
    }

    /// The node hosting an engine is up (the master's always is).
    fn engine_host_alive(&self, target: EngineTarget) -> bool {
        match target {
            EngineTarget::Master => true,
            EngineTarget::Worker(w) => self.workers[w as usize].alive,
        }
    }

    /// The worker node an engine runs on, `None` for the master (trace
    /// events name engines this way).
    fn engine_node(&self, target: EngineTarget) -> Option<NodeId> {
        match target {
            EngineTarget::Master => None,
            EngineTarget::Worker(w) => Some(self.config.worker_node(w)),
        }
    }

    /// A restart/recovery chain of era `era` is still the live one: the
    /// engine is down, no later crash superseded the chain, and its node
    /// is up.
    fn recovery_chain_live(&self, target: EngineTarget, era: u32) -> bool {
        let slot = self.slot(target);
        slot.down && era == slot.era && self.engine_host_alive(target)
    }

    /// Fault plan: a scheduling engine process dies. Volatile state — the
    /// trigger trackers, and for the master its inbox and in-service task —
    /// vanishes; in-flight journal appends that never became durable are
    /// torn. The node itself stays up: executing containers keep running
    /// and their completions keep updating cluster-side ground truth (they
    /// just can't reach the dead engine).
    fn on_engine_crash(&mut self, now: SimTime, idx: usize) {
        let crash = self.config.fault.engine_crashes[idx];
        let target = crash.target;
        if self.slot(target).down || !self.engine_host_alive(target) {
            return; // overlapping outages collapse into one; a dead node's engine is gone
        }
        self.recovery.engine_crashes += 1;
        match target {
            EngineTarget::Master => self.recovery.master_engine_crashes += 1,
            EngineTarget::Worker(_) => self.recovery.worker_engine_crashes += 1,
        }
        let slot = self.slot_mut(target);
        slot.down = true;
        slot.down_since = now;
        slot.era += 1;
        let era = slot.era;
        self.reinstall_engine(target);
        let _torn = self.slot_mut(target).journal.crash(now);
        let worker = self.engine_node(target);
        self.tracer
            .record(|| TraceEvent::EngineCrashed { worker, at: now });
        self.queue.schedule(
            now + crash.restart_after,
            Event::EngineRestart {
                target,
                attempt: 0,
                era,
            },
        );
    }

    /// The crashed engine process comes back up and tries to read its
    /// journal. A blacked-out journal store pushes the replay into backoff
    /// (bounded by the plan's retry budget, after which the engine boots
    /// journal-blind); otherwise replay costs time proportional to the
    /// durable log. `era` fences chains orphaned by a second crash.
    fn on_engine_restart(&mut self, now: SimTime, target: EngineTarget, attempt: u32, era: u32) {
        if !self.recovery_chain_live(target, era) {
            return;
        }
        if self.slot(target).journal.enabled() && self.windows.storage_down {
            if attempt >= self.config.fault.backoff.max_attempts {
                self.slot_mut(target).journal_unreadable = true;
            } else {
                self.recovery.replay_backoffs += 1;
                let delay = self.config.fault.backoff.delay(attempt, &mut self.rng);
                self.queue.schedule(
                    now + delay,
                    Event::EngineRestart {
                        target,
                        attempt: attempt + 1,
                        era,
                    },
                );
                return;
            }
        }
        let slowdown = self.windows.storage_slowdown;
        let slot = self.slot_mut(target);
        let cost = if slot.readable() {
            slot.journal.begin_replay(slowdown)
        } else {
            SimDuration::ZERO
        };
        self.queue
            .schedule(now + cost, Event::EngineRecovered { target, era });
    }

    /// Replay finished: the engine rejoins under a bumped generation (so
    /// completion messages sent to the previous incarnation are fenced) and
    /// reconciles every live invocation.
    fn on_engine_recovered(&mut self, now: SimTime, target: EngineTarget, era: u32) {
        if !self.recovery_chain_live(target, era) {
            return;
        }
        let slot = self.slot(target);
        let replayed = if slot.readable() {
            slot.journal.durable_len() as u64
        } else {
            0
        };
        self.revive_engine(now, target, replayed);
        self.recover_engine(now, target);
        self.slot_mut(target).journal_unreadable = false;
    }

    /// A down engine comes back under a bumped generation, so messages
    /// sent to its previous incarnation are fenced. Its downtime is
    /// accounted and the recovery traced.
    fn revive_engine(&mut self, now: SimTime, target: EngineTarget, replayed: u64) {
        let slot = self.slot_mut(target);
        slot.down = false;
        slot.gen += 1;
        let down_since = slot.down_since;
        self.recovery.engine_recoveries += 1;
        self.recovery.engine_downtime_secs += (now - down_since).as_secs_f64();
        let worker = self.engine_node(target);
        self.tracer.record(|| TraceEvent::EngineRecovered {
            worker,
            replayed,
            at: now,
        });
    }

    /// Post-recovery reconciliation. For each live invocation the engine
    /// schedules: if neither cluster-visible progress nor a durable
    /// journal record witnesses it, its `Begin` died with the engine —
    /// dead-letter it (exactly one terminal outcome). Otherwise rebuild
    /// the trigger tracker from worker-reported ground truth
    /// (`completed_nodes` / `instances_remaining` already reflect every
    /// completion, including those whose report messages are still in
    /// flight and will be generation-fenced) and re-issue dispatches; the
    /// receiver-side `dispatched` / `reported_exits` sets suppress
    /// anything that already landed, so nothing runs or counts twice.
    ///
    /// The central engine schedules every invocation. A worker engine only
    /// considers invocations whose deployment routes work to its worker,
    /// and dead-letters only when its worker hosts an entry node — a
    /// begun-elsewhere invocation with its `Begin` still in flight to a
    /// healthy peer must not be killed by an uninvolved engine's sweep.
    fn recover_engine(&mut self, now: SimTime, target: EngineTarget) {
        let node = self.engine_node(target);
        let readable = self.slot(target).readable();
        // Only an enabled journal is ever marked unreadable.
        let unreadable = self.slot(target).journal_unreadable;
        let mut keys: Vec<(WorkflowId, InvocationId)> = self.invocations.keys().copied().collect();
        keys.sort_unstable();
        for (wf, inv) in keys {
            let Some(state) = self.invocations.get(&(wf, inv)) else {
                continue;
            };
            // Route by the *installed* deployment, not the invocation's
            // pinned assignment: the replaying engine was reinstalled with
            // the current version, and its replay actions follow it — a
            // sweep judging involvement by a stale pin would skip (or
            // kill) invocations the engine actually schedules.
            let routing = match node {
                None => None,
                Some(node) => match self
                    .workflows
                    .get(&wf)
                    .and_then(|ws| ws.deployment.current())
                {
                    Some((_, assignment)) if assignment.involves(node) => Some((node, assignment)),
                    _ => continue,
                },
            };
            let routed_here =
                |f: FunctionId| routing.is_none_or(|(node, a)| a.worker_of(f) == node);
            let progress = !state.instances.is_empty()
                || !state.completed_nodes.is_empty()
                || !state.instances_remaining.is_empty()
                || !state.dispatched.is_empty();
            let journal = &self.slot(target).journal;
            let mentioned = readable && journal.mentions(wf, inv);
            if !progress && !mentioned {
                if state.dag.entry_nodes().into_iter().any(routed_here) {
                    let reason = if unreadable {
                        DeadLetterReason::JournalUnrecoverable
                    } else {
                        DeadLetterReason::CrashOrphan
                    };
                    self.dead_letter_invocation(now, wf, inv, reason);
                }
                continue;
            }
            let completed: Vec<FunctionId> = state.completed_nodes.iter().collect();
            let mut inflight: Vec<(FunctionId, u32)> = Vec::new();
            for (f, &remaining) in state.instances_remaining.iter() {
                if remaining > 0 && !state.completed_nodes.contains(f) && routed_here(f) {
                    let parallelism = state.dag.node(f).parallelism.max(1);
                    inflight.push((f, parallelism - remaining));
                }
            }
            let already_propagated: Vec<FunctionId> = completed
                .iter()
                .copied()
                .filter(|&f| readable && journal.node_done_recorded(wf, inv, f))
                .collect();
            match target {
                EngineTarget::Master => {
                    let actions = self.master_engine.replay_invocation(
                        wf,
                        inv,
                        &completed,
                        &already_propagated,
                        &inflight,
                    );
                    self.apply_master_actions(now, actions);
                }
                EngineTarget::Worker(w) => {
                    if let Some(state) = self.invocations.get_mut(&(wf, inv)) {
                        state.holders.insert(w as usize);
                    }
                    let actions = self.worker_engines[w as usize].replay_invocation(
                        wf,
                        inv,
                        &completed,
                        &already_propagated,
                        &inflight,
                    );
                    self.apply_worker_actions(now, w as usize, actions);
                }
            }
        }
    }

    /// Frees the containers of instances torn out of an invocation (on
    /// workers still alive) and drops their hedges, then hands the sorted
    /// buffer back to the scratch pool.
    fn release_torn_instances(
        &mut self,
        now: SimTime,
        mut stale: Vec<(InstanceToken, InstanceState)>,
    ) {
        for &(_, inst) in &stale {
            self.release_container_if_held(now, inst.worker, inst.container);
        }
        for &(t, _) in &stale {
            self.cancel_hedge(now, t);
        }
        stale.clear();
        self.scratch.stale = stale;
    }

    /// Restarts one invocation from its entry nodes under a bumped epoch:
    /// all partial state (instances, flows, placements, store objects) is
    /// torn down and the invocation re-pins to the current deployment. The
    /// original arrival instant is kept, so the measured latency includes
    /// the outage — faults cost latency, not accounting. Past its recovery
    /// budget the invocation dead-letters as `exhausted` (a quarantine
    /// drain's casualties are quarantine orphans, not retry exhaustion).
    fn restart_invocation(
        &mut self,
        now: SimTime,
        wf: WorkflowId,
        inv: InvocationId,
        exhausted: DeadLetterReason,
    ) {
        let Some(state) = self.invocations.get_mut(&(wf, inv)) else {
            return;
        };
        state.recovery_attempts += 1;
        if state.recovery_attempts > self.config.fault.max_recovery_attempts {
            self.dead_letter_invocation(now, wf, inv, exhausted);
            return;
        }
        state.epoch += 1;
        let epoch = state.epoch;
        self.tracer.record(|| TraceEvent::InvocationRestarted {
            workflow: wf,
            invocation: inv,
            epoch,
            at: now,
        });
        self.cancel_flows(now, |t| (t.token.workflow, t.token.invocation) == (wf, inv));
        let mut stale = std::mem::take(&mut self.scratch.stale);
        let state = self.invocations.get_mut(&(wf, inv)).expect("checked above");
        stale.extend(state.instances.drain());
        stale.sort_unstable_by_key(|&(t, _)| t);
        state.instances_remaining.clear();
        state.completed_nodes.clear();
        state.placements.clear();
        state.dispatched.clear();
        state.reported_exits.clear();
        state.exits_remaining = state.dag.exit_nodes().len();
        let holders = std::mem::take(&mut state.holders);
        self.release_torn_instances(now, stale);
        self.inflight_spawns
            .retain(|t, _| !(t.workflow == wf && t.invocation == inv));
        self.release_invocation_state(wf, inv, &holders);
        // Re-pin to the current (post-recovery) deployment.
        let ws = self.workflows.get_mut(&wf).expect("workflow exists");
        let state = self.invocations.get_mut(&(wf, inv)).expect("checked above");
        let _ = ws.deployment.invocation_finished(state.version);
        let version = ws.deployment.invocation_started();
        let assignment = ws
            .deployment
            .assignment_arc(version)
            .expect("current version has an assignment");
        state.version = version;
        state.dag = ws.dag_arc.clone();
        state.assignment = assignment;
        // If the redeploy failed and the pinned partition still routes work
        // to a dead worker, the invocation cannot make progress.
        let routes_dead = state.dag.nodes().iter().any(|n| {
            self.config
                .worker_index(state.assignment.worker_of(n.id))
                .map(|wi| !self.workers[wi].alive)
                .unwrap_or(false)
        });
        if routes_dead {
            self.dead_letter_invocation(now, wf, inv, DeadLetterReason::CrashOrphan);
            return;
        }
        self.faults.crash_redispatches += 1;
        self.begin_invocation_dispatch(now, wf, inv);
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
                self.metrics
                    .get_mut(&wf)
                    .expect("metrics exist")
                    .dead_lettered += 1;
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
                self.metrics.get_mut(&wf).expect("metrics exist").shed += 1;
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
        self.cancel_flows(now, |t| (t.token.workflow, t.token.invocation) == (wf, inv));
        let mut stale = std::mem::take(&mut self.scratch.stale);
        stale.extend(state.instances.drain());
        stale.sort_unstable_by_key(|&(t, _)| t);
        self.release_torn_instances(now, stale);
        // Purge the invocation's queued admissions: leaving them would hold
        // bounded-queue slots for a dead invocation and let a later
        // overflow "shed" it a second time.
        for w in state.queued_on.iter() {
            while self.containers[w]
                .remove_queued(|t| t.workflow == wf && t.invocation == inv)
                .is_some()
            {}
        }
        self.inflight_spawns
            .retain(|t, _| !(t.workflow == wf && t.invocation == inv));
        self.retire_invocation(now, wf, inv, &state);
    }

    /// Cancels every bulk transfer whose tag `doomed` picks, including
    /// payloads stalled behind an asymmetric partition.
    fn cancel_flows(&mut self, now: SimTime, doomed: impl Fn(&FlowTag) -> bool) {
        self.windows.cancel_stalled(&doomed);
        self.kill_flows(now, |f| doomed(&f.tag));
    }

    /// Cancels every bulk transfer `doomed` picks, in flow-id order, and
    /// counts each as killed.
    fn kill_flows(&mut self, now: SimTime, doomed: impl Fn(&Flow<FlowTag>) -> bool) {
        let mut ids = std::mem::take(&mut self.scratch.flow_ids);
        ids.extend(self.net.iter().filter(|(_, f)| doomed(f)).map(|(id, _)| id));
        ids.sort_unstable();
        for &id in &ids {
            if self.net.cancel_flow(id, now).is_some() {
                self.faults.flows_killed += 1;
            }
        }
        ids.clear();
        self.scratch.flow_ids = ids;
        self.reschedule_flow_timer(now);
    }

    /// The first live worker after `avoid` in ring order (falling back to
    /// `avoid` itself if it restarted), preferring when `healthy` workers
    /// out of quarantine; `None` with no worker alive.
    fn pick_worker(&self, avoid: usize, healthy: bool) -> Option<usize> {
        let n = self.config.workers as usize;
        let ring = || (avoid + 1..n).chain(0..=avoid.min(n - 1));
        let alive = |w: &usize| self.workers[*w].alive;
        let preferred = |w: &usize| alive(w) && !(healthy && self.workers[*w].quarantined);
        ring().find(preferred).or_else(|| ring().find(alive))
    }

    fn on_net_fault(&mut self, now: SimTime, idx: usize, open: bool) {
        let fault = self.config.fault.net_faults[idx];
        let node = self.config.worker_node(fault.worker);
        if open {
            let quality = LinkQuality {
                loss: fault.loss,
                latency_factor: fault.latency_factor,
            };
            self.windows.links.set(node, quality);
        } else {
            self.windows.links.clear(node);
        }
        let factor = if open { fault.bandwidth_factor } else { 1.0 };
        let nic = NicSpec::symmetric(self.config.worker_bandwidth * factor);
        self.net.set_nic(node, nic, now);
        self.reschedule_flow_timer(now);
    }

    // ==================================================================
    // Gray failures & health detection
    // ==================================================================

    /// A gray-failure window opens or closes. Unlike a crash, the worker
    /// keeps its lease: it accepts work and answers heartbeats while
    /// quietly misbehaving — exactly the failure class a liveness-only
    /// detector cannot see. The effects are passive state consulted by the
    /// exec and flow paths, so a window over an idle worker changes
    /// nothing. When a partition lifts, the payloads stalled behind it
    /// finally deliver (heavily late — the latency cost of the outage, not
    /// an accounting reset).
    fn on_gray_fault(&mut self, now: SimTime, idx: usize, open: bool) {
        let g = self.config.fault.gray_faults[idx];
        let w = g.worker as usize;
        let faults = &mut self.workers[w];
        match g.kind {
            GrayFaultKind::ExecSlowdown { factor } => {
                faults.slowdown = if open { factor } else { 1.0 };
            }
            GrayFaultKind::StuckExecutor => {
                faults.stuck_until = open.then_some(SimTime::ZERO + g.at + g.duration);
            }
            GrayFaultKind::FlakyExec { failure_rate } => {
                faults.flaky = if open { failure_rate } else { 0.0 };
            }
            GrayFaultKind::AsymmetricPartition {
                inbound,
                expire_lease,
            } if open => {
                faults.partition = Some(inbound);
                // The false-suspicion path: the master stops hearing from
                // the worker and force-expires its lease even though the
                // node is alive and still executing. Re-dispatched work
                // races the zombie; its late completions must be fenced.
                if expire_lease && faults.alive {
                    faults.zombie = true;
                    self.queue.schedule(
                        now + self.config.fault.lease_delay(g.worker),
                        Event::LeaseExpired { worker: w },
                    );
                }
            }
            GrayFaultKind::AsymmetricPartition { .. } => {
                faults.partition = None;
                faults.zombie = false;
                for (sw, tag) in self.windows.lift_partition() {
                    if sw == w {
                        self.on_flow_done(now, tag);
                    } else {
                        self.windows.hold(sw, tag);
                    }
                }
            }
        }
    }

    /// An `ExecDone` died on the admission fences: the completing attempt
    /// was superseded (crash recovery, restart, hedge win, evacuation).
    /// Balance the detector's in-flight gauge, and when the worker is a
    /// suspected-dead-but-alive zombie, count the rejection — fencing the
    /// zombie's late completions is the partition-tolerance property the
    /// report certifies.
    fn on_exec_fenced(&mut self, now: SimTime, worker: usize, token: InstanceToken) {
        if let Some(h) = self.health.as_mut() {
            h.note_fenced(worker as u32);
        }
        if !self.workers[worker].zombie {
            return;
        }
        self.windows.zombie_fenced += 1;
        let node = self.config.worker_node(worker as u32);
        self.tracer.record(|| TraceEvent::ZombieFenced {
            worker: node,
            workflow: token.workflow,
            invocation: token.invocation,
            at: now,
        });
    }

    /// A quarantined worker's cooldown elapsed; the detector half-opens it
    /// (stale reopen events from before a relapse fence on `at`).
    fn on_health_reopen(&mut self, now: SimTime, w: usize, at: SimTime) {
        let Some(h) = self.health.as_mut() else {
            return;
        };
        if let Some(t) = h.on_reopen(w as u32, at) {
            self.apply_health_transitions(now, vec![t]);
        }
    }

    /// Turns detector transitions into cluster actions: quarantine pulls
    /// the worker out of the placement target set and hedge rings (and
    /// optionally drains it), reinstating restores its capacity for the
    /// half-open probes.
    fn apply_health_transitions(&mut self, now: SimTime, transitions: Vec<HealthTransition>) {
        for t in transitions {
            match t {
                HealthTransition::Quarantined {
                    worker,
                    score,
                    reopen_at,
                    relapse,
                } => {
                    let w = worker as usize;
                    self.workers[w].quarantined = true;
                    let node = self.config.worker_node(worker);
                    self.tracer.record(|| TraceEvent::WorkerQuarantined {
                        worker: node,
                        score,
                        relapse,
                        at: now,
                    });
                    self.queue.schedule(
                        reopen_at,
                        Event::HealthReopen {
                            worker: w,
                            at: reopen_at,
                        },
                    );
                    if self.config.health.is_some_and(|h| h.drain_on_quarantine) {
                        self.drain_quarantined_worker(now, w);
                    }
                }
                HealthTransition::Reinstating { worker } => {
                    self.workers[worker as usize].quarantined = false;
                }
                HealthTransition::Reinstated { worker } => {
                    let node = self.config.worker_node(worker);
                    self.tracer.record(|| TraceEvent::WorkerReinstated {
                        worker: node,
                        at: now,
                    });
                }
            }
        }
    }

    /// Steers work off a freshly quarantined worker without declaring it
    /// dead: placements recompute over the healthy set and the instances
    /// it was running re-run elsewhere, dead-lettering as quarantine
    /// orphans once an invocation's recovery budget is spent.
    fn drain_quarantined_worker(&mut self, now: SimTime, w: usize) {
        let reason = DeadLetterReason::QuarantineOrphan;
        match self.config.mode {
            ScheduleMode::MasterSp => self.evacuate_worker(now, w, reason),
            ScheduleMode::WorkerSp => {
                let on_w = |s: &InvState, pinned: bool| {
                    pinned || s.instances.values().any(|i| i.worker == w)
                };
                self.restart_pinned_to(now, w, on_w, reason);
            }
        }
    }

    /// Pulls every admitted instance off a live-but-distrusted worker
    /// (MasterSP false suspicion, or a quarantine drain): each one is
    /// re-dispatched to another live worker under a fresh admission and
    /// the suspect's containers free up normally — its own late
    /// completions die on the sequence fences. Invocations whose recovery
    /// budget is spent dead-letter with `reason`.
    fn evacuate_worker(&mut self, now: SimTime, w: usize, reason: DeadLetterReason) {
        let mut tokens = std::mem::take(&mut self.scratch.tokens);
        for state in self.invocations.values() {
            tokens.extend(
                state
                    .instances
                    .iter()
                    .filter(|(_, i)| i.worker == w)
                    .map(|(&t, _)| t),
            );
        }
        tokens.sort_unstable();
        tokens.dedup();
        self.charge_recovery_attempts(now, &tokens, reason);
        for &token in &tokens {
            // Transfers in flight for the attempt (including payloads
            // stalled behind the partition) belong to the superseded copy.
            self.cancel_hedge(now, token);
            self.cancel_flows(now, |t| t.token == token);
            let Some(state) = self
                .invocations
                .get_mut(&(token.workflow, token.invocation))
            else {
                continue;
            };
            if state.epoch != token.epoch || state.completed_nodes.contains(token.function) {
                continue;
            }
            let Some(inst) = state.instances.remove(&token) else {
                continue;
            };
            self.release_container(now, w, inst.container);
            let Some(target) = self.pick_worker(w, true) else {
                self.dead_letter_invocation(now, token.workflow, token.invocation, reason);
                continue;
            };
            self.faults.crash_redispatches += 1;
            self.request_instance(now, target, token);
        }
        tokens.clear();
        self.scratch.tokens = tokens;
    }

    /// Issues (or re-issues) a remote-store call. While the store is
    /// blacked out, or the breaker holds it off, the call backs off
    /// exponentially and retries. An open breaker first tries to serve a
    /// read from any live worker's FaaStore copy, shipping it worker to
    /// worker instead of through the storage node; writes have no such
    /// fallback (the placement decision already chose the remote store).
    /// A brownout stretches the server-side overhead, and a read whose key
    /// is gone (its producer's output died with a crashed node) escalates
    /// to invocation recovery.
    fn remote_io(&mut self, now: SimTime, io: RemoteIo, attempt: u32) {
        let worker = io.worker as usize;
        if !self.instance_on(worker, io.token) {
            return;
        }
        let token = io.token;
        let key = DataKey::new(token.workflow, token.invocation, io.producer);
        // Open: fail fast. Closed and half-open both proceed — probes are
        // how the breaker learns the store recovered.
        let mut fast_fail = false;
        if let Some(b) = &mut self.breaker {
            let (decision, transition) = b.admit(now);
            fast_fail = decision == BreakerDecision::FastFail;
            trace_breaker(&mut self.tracer, now, transition);
        }
        if fast_fail {
            let local = if io.read {
                self.find_local_copy(worker, key)
            } else {
                None
            };
            if let Some(src) = local {
                self.admission.counts.breaker_local_serves += 1;
                let src = self.config.worker_node(src as u32);
                let dst = self.config.worker_node(io.worker);
                self.net.start_flow(src, dst, io.bytes, io.tag(false), now);
                self.reschedule_flow_timer(now);
                return;
            }
            self.admission.counts.breaker_fast_fails += 1;
        }
        // The server-side overhead of a call the store serves; `None` while
        // it is unreachable.
        let served = if self.windows.storage_down || fast_fail {
            None
        } else if io.read {
            let Some((_, overhead)) = self.remote.read(key) else {
                if self.config.fault.is_empty() {
                    panic!("producer output must be in the remote store");
                }
                self.queue.schedule(
                    now,
                    Event::RecoverInvocation {
                        wf: token.workflow,
                        inv: token.invocation,
                        epoch: token.epoch,
                    },
                );
                return;
            };
            Some(overhead)
        } else {
            Some(self.config.remote_store.put_overhead)
        };
        let served = served.map(|o| self.windows.storage_overhead(o));
        // The breaker judges every call that reached the store: one hitting
        // the blackout fails, one served is judged on its overhead.
        if !fast_fail {
            if let Some(b) = &mut self.breaker {
                let latency = served.unwrap_or(SimDuration::ZERO);
                let transition = b.on_result(now, served.is_some(), latency, &mut self.rng);
                trace_breaker(&mut self.tracer, now, transition);
            }
        }
        let Some(overhead) = served else {
            if self.windows.storage_down {
                self.faults.storage_backoff_waits += 1;
            }
            if attempt >= self.config.fault.backoff.max_attempts {
                self.dead_letter_invocation(
                    now,
                    token.workflow,
                    token.invocation,
                    DeadLetterReason::RetriesExhausted,
                );
                return;
            }
            let delay = self.config.fault.backoff.delay(attempt, &mut self.rng);
            self.tracer.record(|| TraceEvent::StorageRetry {
                workflow: token.workflow,
                invocation: token.invocation,
                function: token.function,
                read: io.read,
                attempt,
                delay,
                at: now,
            });
            let attempt = attempt + 1;
            self.queue
                .schedule(now + delay, Event::RetryRemote { io, attempt });
            return;
        };
        self.queue.schedule(now + overhead, Event::StartRemote(io));
    }

    /// The first live worker (the reader first, then ring order) whose
    /// FaaStore holds a local copy of `key`.
    fn find_local_copy(&mut self, reader: usize, key: DataKey) -> Option<usize> {
        let n = self.config.workers as usize;
        std::iter::once(reader)
            .chain((reader + 1..n).chain(0..reader))
            .find(|&w| self.workers[w].alive && self.faastores[w].read_local(key).is_some())
    }

    // ==================================================================
    // Timers
    // ==================================================================

    fn reschedule_flow_timer(&mut self, now: SimTime) {
        if let Some(ev) = self.flow_timer.take() {
            self.queue.cancel(ev);
        }
        if let Some(t) = self.net.next_completion() {
            let at = t.max(now);
            self.flow_timer = Some(self.queue.schedule(at, Event::FlowTick));
        }
    }

    /// Refreshes the time-weighted CPU/memory trackers of one worker after
    /// any container-state change.
    fn track_utilization(&mut self, now: SimTime, worker: usize) {
        let stats = self.containers[worker].stats();
        self.cpu_util[worker].update(now, stats.cores_busy.get() as f64);
        self.mem_util[worker].update(now, stats.mem_resident.get() as f64);
    }

    fn reschedule_expiry(&mut self, now: SimTime, worker: usize) {
        if let Some(ev) = self.expiry_timers[worker].take() {
            self.queue.cancel(ev);
        }
        if let Some(t) = self.containers[worker].next_expiry() {
            let at = t.max(now);
            self.expiry_timers[worker] =
                Some(self.queue.schedule(at, Event::ContainerExpiry { worker }));
        }
    }
}
