//! One worker node's state, kept in one record.
//!
//! In FaaSFlow each worker node owns its container pool, its FaaStore and
//! (under WorkerSP) its engine (§3–§4). [`Worker`] holds everything the
//! cluster keeps per node outside the engines: the pool and its keep-alive
//! timer, the FaaStore, the CPU and memory gauges, the crash recovery
//! queues, and the node's fault state — fail-stop liveness as the node and
//! the failure detector see it, and the passive effects of its open
//! gray-failure windows (consulted by the exec and flow paths). Quarantine
//! is the health detector's decision and is kept only there.

use faasflow_container::ContainerManager;
use faasflow_sim::stats::TimeWeighted;
use faasflow_sim::{EventId, FunctionId, InvocationId, SimDuration, SimTime, WorkflowId};
use faasflow_store::FaaStore;

use crate::config::ClusterConfig;
use crate::fault::stretched;
use crate::invocation::InstanceToken;

/// A worker's container runtime, admitting instance tokens.
pub(crate) type ContainerPool = ContainerManager<InstanceToken>;

/// One worker node: its pool, store, gauges, recovery queues and faults.
#[derive(Debug)]
pub(crate) struct Worker {
    /// The node's container runtime.
    pub(crate) pool: ContainerPool,
    /// The pool's pending keep-alive expiry event.
    pub(crate) expiry_timer: Option<EventId>,
    /// The node's local data store.
    pub(crate) store: FaaStore,
    /// Time-weighted busy cores.
    pub(crate) cpu: TimeWeighted,
    /// Time-weighted resident container memory.
    pub(crate) mem: TimeWeighted,
    /// Instances lost to the node's crash, awaiting lease expiry.
    pub(crate) orphans: Vec<InstanceToken>,
    /// MasterSP task assignments that reached the dead-but-undetected
    /// node; replayed on detection or restart, whichever comes first.
    pub(crate) spool: Vec<(WorkflowId, InvocationId, FunctionId)>,
    /// False while crashed.
    pub(crate) alive: bool,
    /// The failure detector has declared the worker down (lags `alive`
    /// by the lease detection delay).
    pub(crate) detected_down: bool,
    /// Instant the worker last (re)started: invocations begun before it
    /// lost any engine/store state the worker held for them.
    pub(crate) up_since: SimTime,
    /// Exec slowdown multiplier (1.0 nominally).
    pub(crate) slowdown: f64,
    /// Stuck-executor window end: completions inside the window defer to
    /// its closing edge.
    pub(crate) stuck_until: Option<SimTime>,
    /// Injected exec failure rate (0.0 nominally).
    pub(crate) flaky: f64,
    /// Asymmetric data-plane partition: `Some(true)` drops flows toward
    /// the worker's node, `Some(false)` drops flows from it.
    pub(crate) partition: Option<bool>,
    /// The lease was force-expired while the worker was still alive: its
    /// late completions die on the admission fences and are counted as
    /// fenced zombies.
    pub(crate) zombie: bool,
}

impl Worker {
    /// A live, empty worker with the configured pool and store.
    pub(crate) fn new(config: &ClusterConfig) -> Self {
        Worker {
            pool: ContainerPool::new(config.node_caps, config.container),
            expiry_timer: None,
            store: FaaStore::new(config.faastore),
            cpu: TimeWeighted::new(),
            mem: TimeWeighted::new(),
            orphans: Vec::new(),
            spool: Vec::new(),
            alive: true,
            detected_down: false,
            up_since: SimTime::ZERO,
            slowdown: 1.0,
            stuck_until: None,
            flaky: 0.0,
            partition: None,
            zombie: false,
        }
    }

    /// Refreshes the CPU and memory gauges after a pool change.
    pub(crate) fn track(&mut self, now: SimTime) {
        let stats = self.pool.stats();
        self.cpu.update(now, stats.cores_busy.get() as f64);
        self.mem.update(now, stats.mem_resident.get() as f64);
    }

    /// The node dies: its warm pool, queued admissions and store contents
    /// vanish and the gauges drop to zero. A fail-stop crash supersedes
    /// any gray suspicion: the corpse is not a zombie (the health detector
    /// resets its own verdict in the same handler). The orphans and the
    /// spool stay for the lease path.
    /// Returns the expiry timer for the caller to cancel.
    pub(crate) fn crash(&mut self, now: SimTime) -> Option<EventId> {
        self.alive = false;
        self.zombie = false;
        let _ = self.pool.crash();
        let _ = self.store.crash();
        self.track(now);
        self.expiry_timer.take()
    }

    /// A sampled compute time under an open slowdown window. The stretch
    /// draws nothing, so the RNG sequence is the same with or without it.
    pub(crate) fn stretch(&self, exec: SimDuration) -> SimDuration {
        stretched(exec, self.slowdown)
    }

    /// The exec failure rate on this worker: `base`, raised by an open
    /// flaky window.
    pub(crate) fn failure_rate(&self, base: f64) -> f64 {
        if self.flaky > 0.0 {
            base.max(self.flaky)
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_sim::{EventQueue, SimRng};
    use faasflow_store::{DataKey, Placement, StorageType};

    fn token(instance: u32) -> InstanceToken {
        InstanceToken {
            workflow: WorkflowId::new(0),
            invocation: InvocationId::new(1),
            function: FunctionId::new(0),
            instance,
            epoch: 0,
        }
    }

    /// A worker with its pool full, one admission queued behind it and one
    /// object in its store.
    fn loaded(config: &ClusterConfig) -> Worker {
        let mut w = Worker::new(config);
        let mut rng = SimRng::seed_from(3);
        let key = (WorkflowId::new(0), FunctionId::new(0));
        let mut i = 0;
        while w.pool.queue_len() == 0 {
            let _ = w.pool.request(key, token(i), SimTime::ZERO, &mut rng);
            i += 1;
        }
        let wf = WorkflowId::new(0);
        w.store.memstore_mut().set_budget(wf, 1 << 20);
        let data = DataKey::new(wf, InvocationId::new(1), FunctionId::new(0));
        let node = config.worker_node(0);
        let put = w
            .store
            .decide_put(data, 1024, StorageType::Mem, node, &[node]);
        assert_eq!(put, Placement::LocalMem);
        w
    }

    #[test]
    fn a_crash_wipes_the_pool_and_the_store_and_returns_the_timer() {
        let config = ClusterConfig::default();
        let mut w = loaded(&config);
        let mut queue = EventQueue::new();
        let timer = queue.schedule(SimTime::ZERO, ());
        w.expiry_timer = Some(timer);
        w.orphans.push(token(0));
        w.zombie = true;
        w.track(SimTime::ZERO);
        let busy = w.pool.stats().cores_busy.get() as f64;
        assert!(busy > 0.0 && w.pool.queue_len() == 1);
        assert_eq!(w.store.memstore().object_count(), 1);
        let at = SimTime::ZERO + SimDuration::from_secs(1);
        assert_eq!(w.crash(at), Some(timer));
        assert!(!w.alive && !w.zombie);
        assert_eq!((w.pool.container_count(), w.pool.queue_len()), (0, 0));
        assert_eq!(w.store.memstore().object_count(), 0);
        assert_eq!(w.expiry_timer, None);
        assert_eq!(w.orphans, [token(0)], "orphans wait for the lease");
        // The gauges saw the busy cores until the crash and zero after.
        assert_eq!(w.cpu.peak(), busy);
        let later = at + SimDuration::from_secs(1);
        assert_eq!(w.cpu.mean(later), busy / 2.0);
    }

    #[test]
    fn gray_windows_stretch_execs_and_raise_the_failure_rate() {
        let mut w = Worker::new(&ClusterConfig::default());
        let exec = SimDuration::from_millis(10);
        assert_eq!(w.stretch(exec), exec);
        assert_eq!(w.failure_rate(0.01), 0.01);
        w.slowdown = 3.0;
        w.flaky = 0.5;
        assert_eq!(w.stretch(exec), SimDuration::from_millis(30));
        assert_eq!(w.failure_rate(0.01), 0.5);
        assert_eq!(w.failure_rate(0.9), 0.9);
    }
}
