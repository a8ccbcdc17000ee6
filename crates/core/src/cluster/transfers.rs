//! The data path (§4.3): FaaStore passes a co-located output through its
//! worker's memory and sends the rest through the remote store on the
//! storage node. [`Transfers`] owns both routes: the flow network and its
//! `FlowTick` timer, the remote store with its breaker and fault window,
//! the payloads stalled behind asymmetric partitions, and the counts of
//! what it did. `Cluster` keeps the invocation side of every transfer.

use faasflow_net::{Flow, FlowId, FlowNet, NicSpec};
use faasflow_sim::{
    EventId, EventQueue, FunctionId, InvocationId, NodeId, SimDuration, SimRng, SimTime,
};
use faasflow_store::{BreakerDecision, BreakerTransition, CircuitBreaker, DataKey, RemoteStore};

use super::{rearm, Event};
use crate::config::ClusterConfig;
use crate::fault::{BackoffPolicy, StorageWindow};
use crate::invocation::InstanceToken;
use crate::metrics::RunReport;
use crate::trace::{TraceEvent, Tracer};
use crate::worker::Worker;

/// Worker NIC bandwidth, bytes/s: 10 Gbit/s, unthrottled in the paper
/// (the bottleneck is the storage node).
const WORKER_BANDWIDTH: f64 = 1.25e9;

type Queue = EventQueue<Event>;

/// Tag attached to every network flow: an instance attempt moving
/// `producer`'s output, either read into the instance or, with `read`
/// false, written out as the instance's own output share (then
/// `producer` is the instance's own function).
#[derive(Debug, Clone, Copy)]
pub(super) struct FlowTag {
    pub(super) token: InstanceToken,
    pub(super) producer: FunctionId,
    pub(super) started: SimTime,
    /// Through the storage node rather than between FaaStores.
    pub(super) remote: bool,
    pub(super) read: bool,
}

/// One transfer of an instance attempt: a read of `producer`'s output
/// into the instance, or a write of the instance's own output share (then
/// `producer` is the instance's own function). It runs between the
/// instance and its worker's FaaStore ([`Transfers::start_local`]) or as
/// a remote-store call ([`Transfers::remote_io`]).
#[derive(Debug, Clone, Copy)]
pub(super) struct Transfer {
    /// The instance's worker (`u32` keeps `Event` within its size bound).
    pub(super) worker: u32,
    pub(super) token: InstanceToken,
    pub(super) producer: FunctionId,
    pub(super) bytes: u64,
    /// When the transfer was first issued (latency accounting; a retried
    /// remote call keeps it).
    pub(super) started: SimTime,
    pub(super) read: bool,
}

impl Transfer {
    /// The tag of its flow; `remote` is false for a flow between
    /// FaaStores (a local transfer, or a read an open breaker serves from
    /// a worker's copy).
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

/// What one remote-store call comes to, for `Cluster` to act on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum RemoteCall {
    /// Served: the transfer starts after this overhead (`StartRemote`).
    Served(SimDuration),
    /// Backed off: the call is issued again after this delay (`RetryRemote`).
    Retry(SimDuration),
    /// An open breaker served the read from a worker's FaaStore copy: its
    /// flow has started, the `FlowTick` timer is not yet re-armed.
    LocalServe,
    /// The read's key died with a crashed node (`RecoverInvocation`).
    MissingKey,
    /// The retry budget is spent: the invocation is dead-lettered.
    Exhausted,
}

/// Worker `w`'s node, numbered as [`ClusterConfig::worker_node`] does.
fn worker_node(w: u32) -> NodeId {
    NodeId::new(w + 1)
}

/// The first live worker (the reader first, then ring order) whose
/// FaaStore holds a local copy of `key`.
fn find_local_copy(workers: &[Worker], reader: usize, key: DataKey) -> Option<usize> {
    let mut ring = std::iter::once(reader).chain((reader + 1..workers.len()).chain(0..reader));
    ring.find(|&w| workers[w].alive && workers[w].store.read_local(key).is_some())
}

/// Traces a breaker transition, if the call made one.
fn trace_breaker(tracer: &mut Tracer, now: SimTime, transition: Option<BreakerTransition>) {
    if let Some((from, to)) = transition {
        tracer.record(|| TraceEvent::BreakerTransition { from, to, at: now });
    }
}

/// The data path's state (see the module docs).
#[derive(Debug)]
pub(super) struct Transfers {
    net: FlowNet<FlowTag>,
    /// The pending `FlowTick`, at the earliest flow completion.
    timer: Option<EventId>,
    remote: RemoteStore,
    breaker: Option<CircuitBreaker>,
    /// The remote store's blackout and brownout, read by value.
    pub(super) storage: StorageWindow,
    backoff: BackoffPolicy,
    /// Payloads stalled by a partition, with the partitioned worker, in
    /// stall order.
    stalled: Vec<(usize, FlowTag)>,
    /// Reused buffers: the flows a `FlowTick` completes, the flows a
    /// teardown dooms.
    done: Vec<(FlowId, Flow<FlowTag>)>,
    doomed: Vec<FlowId>,
    fast_fails: u64,
    local_serves: u64,
    backoff_waits: u64,
    flows_killed: u64,
    stalled_flows: u64,
}

impl Transfers {
    pub(super) fn new(config: &ClusterConfig) -> Self {
        let mut nics = vec![NicSpec::symmetric(WORKER_BANDWIDTH); config.node_count()];
        nics[0] = NicSpec::symmetric(config.storage_bandwidth); // master/storage
        Transfers {
            net: FlowNet::new(nics),
            timer: None,
            remote: RemoteStore::default(),
            breaker: config.overload.breaker.map(CircuitBreaker::new),
            storage: StorageWindow::CLEAR,
            backoff: config.fault.backoff,
            stalled: Vec::new(),
            done: Vec::new(),
            doomed: Vec::new(),
            fast_fails: 0,
            local_serves: 0,
            backoff_waits: 0,
            flows_killed: 0,
            stalled_flows: 0,
        }
    }

    pub(super) fn remote_store(&self) -> &RemoteStore {
        &self.remote
    }

    /// Payloads stalled behind partitions so far, each counted once.
    pub(super) fn stalled_flows(&self) -> u64 {
        self.stalled_flows
    }

    /// The live flows in id order, their rates settled.
    pub(super) fn flows(&mut self) -> impl Iterator<Item = &Flow<FlowTag>> {
        self.net.iter().map(|(_, flow)| flow)
    }

    /// Stores an instance's output in the remote store.
    pub(super) fn put(&mut self, key: DataKey, bytes: u64) {
        let _ = self.remote.put(key, bytes);
    }

    pub(super) fn release_invocation(&mut self, inv: InvocationId) {
        let _ = self.remote.release_invocation(inv);
    }

    /// Starts a transfer between an instance and its own worker's
    /// FaaStore: a loopback flow, no NIC consumed. The caller re-arms the
    /// timer once per batch.
    pub(super) fn start_local(&mut self, io: Transfer, now: SimTime) {
        let node = worker_node(io.worker);
        self.net
            .start_flow(node, node, io.bytes, io.tag(false), now);
    }

    /// A served call's transfer: from the storage node for a read, to it
    /// for a write.
    pub(super) fn start_remote(&mut self, now: SimTime, io: Transfer, queue: &mut Queue) {
        let (db, node) = (ClusterConfig::MASTER_NODE, worker_node(io.worker));
        let (src, dst) = if io.read { (db, node) } else { (node, db) };
        self.net.start_flow(src, dst, io.bytes, io.tag(true), now);
        self.rearm(now, queue);
    }

    /// Moves the `FlowTick` timer to the earliest flow completion.
    pub(super) fn rearm(&mut self, now: SimTime, queue: &mut Queue) {
        let at = self.net.next_completion().map(|t| t.max(now));
        self.timer = rearm(queue, self.timer, at, Event::FlowTick);
    }

    /// The `FlowTick` fired: the flows completed by `now`, in id order, in
    /// a buffer to hand back through [`Self::end_tick`].
    pub(super) fn completed(&mut self, now: SimTime) -> Vec<(FlowId, Flow<FlowTag>)> {
        self.timer = None;
        let mut done = std::mem::take(&mut self.done);
        self.net.take_completed_into(now, &mut done);
        done
    }

    /// Takes back [`Self::completed`]'s drained buffer; re-arms the timer.
    pub(super) fn end_tick(
        &mut self,
        now: SimTime,
        done: Vec<(FlowId, Flow<FlowTag>)>,
        queue: &mut Queue,
    ) {
        self.done = done;
        self.rearm(now, queue);
    }

    /// Scales `node`'s NIC to `factor` of a worker's bandwidth.
    pub(super) fn scale_nic(&mut self, node: NodeId, factor: f64, now: SimTime, queue: &mut Queue) {
        let nic = NicSpec::symmetric(WORKER_BANDWIDTH * factor);
        self.net.set_nic(node, nic, now);
        self.rearm(now, queue);
    }

    /// Cancels every bulk transfer `doomed` picks, in flow-id order, and
    /// counts each as killed. The timer is re-armed only when a flow went.
    pub(super) fn kill_flows(
        &mut self,
        now: SimTime,
        doomed: impl Fn(&Flow<FlowTag>) -> bool,
        queue: &mut Queue,
    ) {
        let mut ids = std::mem::take(&mut self.doomed);
        ids.extend(self.net.iter().filter(|(_, f)| doomed(f)).map(|(id, _)| id));
        for &id in &ids {
            let _ = self.net.cancel_flow(id, now);
        }
        self.flows_killed += ids.len() as u64;
        if !ids.is_empty() {
            self.rearm(now, queue);
        }
        ids.clear();
        self.doomed = ids;
    }

    /// Cancels every bulk transfer whose tag `doomed` picks, including
    /// payloads stalled behind an asymmetric partition.
    pub(super) fn cancel_flows(
        &mut self,
        now: SimTime,
        doomed: impl Fn(&FlowTag) -> bool,
        queue: &mut Queue,
    ) {
        self.stalled.retain(|(_, tag)| !doomed(tag));
        self.kill_flows(now, |f| doomed(&f.tag), queue);
    }

    /// Holds a payload behind `worker`'s open partition until it lifts.
    pub(super) fn stall(&mut self, worker: usize, tag: FlowTag) {
        self.stalled_flows += 1;
        self.hold(worker, tag);
    }

    /// A partition lifts: every stalled payload, in stall order. The caller
    /// replays those behind the lifted window and returns the rest through
    /// [`Self::hold`], so a payload stalled again during the replay keeps
    /// its place in the order.
    pub(super) fn lift_partition(&mut self) -> Vec<(usize, FlowTag)> {
        std::mem::take(&mut self.stalled)
    }

    pub(super) fn hold(&mut self, worker: usize, tag: FlowTag) {
        self.stalled.push((worker, tag));
    }

    /// Drops the payloads stalled behind a crashed worker's partition.
    pub(super) fn drop_stalled_on(&mut self, worker: usize) {
        self.stalled.retain(|&(w, _)| w != worker);
    }

    /// Issues (or re-issues, on attempt `attempt`) a remote-store call.
    /// While the store is blacked out, or the breaker holds it off, the
    /// call backs off exponentially, its delay drawn from `rng`. An open
    /// breaker first tries to serve a read from any live worker's FaaStore
    /// copy, worker to worker instead of through the storage node; writes
    /// have no such fallback (the placement decision chose the store). A
    /// brownout stretches the server-side overhead.
    pub(super) fn remote_io(
        &mut self,
        now: SimTime,
        io: Transfer,
        attempt: u32,
        workers: &[Worker],
        rng: &mut SimRng,
        tracer: &mut Tracer,
    ) -> RemoteCall {
        let token = io.token;
        let key = DataKey::new(token.workflow, token.invocation, io.producer);
        // Open: fail fast. Closed and half-open both proceed — probes are
        // how the breaker learns the store recovered.
        let mut fast_fail = false;
        if let Some(b) = &mut self.breaker {
            let (decision, transition) = b.admit(now);
            fast_fail = decision == BreakerDecision::FastFail;
            trace_breaker(tracer, now, transition);
        }
        if fast_fail && io.read {
            if let Some(src) = find_local_copy(workers, io.worker as usize, key) {
                self.local_serves += 1;
                let (src, dst) = (worker_node(src as u32), worker_node(io.worker));
                self.net.start_flow(src, dst, io.bytes, io.tag(false), now);
                return RemoteCall::LocalServe;
            }
        }
        self.fast_fails += u64::from(fast_fail);
        // The server-side overhead of a call the store serves; `None` while
        // it is unreachable.
        let served = if self.storage.down || fast_fail {
            None
        } else if io.read {
            let Some((_, overhead)) = self.remote.read(key) else {
                return RemoteCall::MissingKey;
            };
            Some(overhead)
        } else {
            Some(RemoteStore::PUT_OVERHEAD)
        };
        let served = served.map(|o| self.storage.overhead(o));
        // The breaker judges every call that reached the store: one hitting
        // the blackout fails, one served is judged on its overhead.
        if let Some(b) = self.breaker.as_mut().filter(|_| !fast_fail) {
            let latency = served.unwrap_or(SimDuration::ZERO);
            let transition = b.on_result(now, served.is_some(), latency, rng);
            trace_breaker(tracer, now, transition);
        }
        if let Some(overhead) = served {
            return RemoteCall::Served(overhead);
        }
        self.backoff_waits += u64::from(self.storage.down);
        if attempt >= self.backoff.max_attempts {
            return RemoteCall::Exhausted;
        }
        let delay = self.backoff.delay(attempt, rng);
        let (workflow, invocation, function) = (token.workflow, token.invocation, token.function);
        let read = io.read;
        tracer.record(|| TraceEvent::StorageRetry {
            workflow,
            invocation,
            function,
            read,
            attempt,
            delay,
            at: now,
        });
        RemoteCall::Retry(delay)
    }

    /// Fills the data path's fields of `report`.
    pub(super) fn report_into(&self, report: &mut RunReport) {
        let db = ClusterConfig::MASTER_NODE;
        report.storage_node_bytes = self.net.bytes_delivered_to(db) + self.net.bytes_sent_from(db);
        let o = &mut report.overload;
        let t = self
            .breaker
            .as_ref()
            .map(CircuitBreaker::transitions)
            .unwrap_or_default();
        (o.breaker_opens, o.breaker_half_opens, o.breaker_closes) =
            (t.opens, t.half_opens, t.closes);
        (o.breaker_fast_fails, o.breaker_local_serves) = (self.fast_fails, self.local_serves);
        report.faults.flows_killed = self.flows_killed;
        report.faults.storage_backoff_waits = self.backoff_waits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultWindows, StorageFaultKind};
    use faasflow_sim::WorkflowId;
    use faasflow_store::{BreakerConfig, BreakerState};

    const MAX_ATTEMPTS: u32 = 2;

    /// Three workers with FaaStores, a breaker that trips on one failure
    /// and a two-retry budget.
    fn config() -> ClusterConfig {
        let mut config = ClusterConfig {
            workers: 3,
            faastore: true,
            fault: FaultPlan {
                backoff: BackoffPolicy {
                    max_attempts: MAX_ATTEMPTS,
                },
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        config.overload.breaker = Some(BreakerConfig {
            failure_threshold: 1,
        });
        config
    }

    /// The data path over [`config`]'s workers, with the RNG and tracer
    /// it borrows per call.
    struct Path {
        transfers: Transfers,
        workers: Vec<Worker>,
        rng: SimRng,
        tracer: Tracer,
    }

    impl Path {
        fn new() -> Self {
            let config = config();
            Path {
                transfers: Transfers::new(&config),
                workers: (0..config.workers).map(|_| Worker::new(&config)).collect(),
                rng: SimRng::seed_from(7),
                tracer: Tracer::new(true, 64),
            }
        }

        fn call(&mut self, io: Transfer, attempt: u32) -> RemoteCall {
            let (rng, tracer) = (&mut self.rng, &mut self.tracer);
            let t = &mut self.transfers;
            t.remote_io(SimTime::ZERO, io, attempt, &self.workers, rng, tracer)
        }

        /// The live flows' `(src, dst, remote)`, in id order.
        fn flows(&mut self) -> Vec<(NodeId, NodeId, bool)> {
            let flows = self.transfers.flows();
            flows.map(|f| (f.src, f.dst, f.tag.remote)).collect()
        }

        fn report(&self) -> RunReport {
            let mut report = RunReport::default();
            self.transfers.report_into(&mut report);
            report
        }
    }

    fn token(invocation: u32) -> InstanceToken {
        InstanceToken {
            workflow: WorkflowId::new(0),
            invocation: InvocationId::new(invocation),
            function: FunctionId::new(1),
            instance: 0,
            epoch: 0,
        }
    }

    /// Worker `worker` reads function 0's output of invocation 0, or with
    /// `read` false writes function 1's.
    fn io(worker: u32, read: bool) -> Transfer {
        Transfer {
            worker,
            token: token(0),
            producer: FunctionId::new(if read { 0 } else { 1 }),
            bytes: 1 << 20,
            started: SimTime::ZERO,
            read,
        }
    }

    fn input_key() -> DataKey {
        DataKey::new(WorkflowId::new(0), InvocationId::new(0), FunctionId::new(0))
    }

    fn tag(invocation: u32) -> FlowTag {
        let io = Transfer {
            token: token(invocation),
            ..io(0, true)
        };
        io.tag(false)
    }

    fn invocations(stalled: &[(usize, FlowTag)]) -> Vec<(usize, u32)> {
        let inv = |&(w, t): &(usize, FlowTag)| (w, t.token.invocation.index() as u32);
        stalled.iter().map(inv).collect()
    }

    #[test]
    fn a_served_call_starts_after_the_stores_overhead_stretched_by_a_brownout() {
        let mut path = Path::new();
        path.transfers.put(input_key(), 1 << 20);
        let (_, get) = path
            .transfers
            .remote_store()
            .read(input_key())
            .expect("stored");
        assert_eq!(path.call(io(0, true), 0), RemoteCall::Served(get));
        let brownout = StorageFaultKind::Brownout { slowdown: 3.0 };
        path.transfers.storage.on_fault(brownout, true);
        assert_eq!(path.call(io(0, true), 0), RemoteCall::Served(get * 3));
        let put = RemoteStore::PUT_OVERHEAD * 3;
        assert_eq!(path.call(io(1, false), 0), RemoteCall::Served(put));
        path.transfers.storage.on_fault(brownout, false);
        assert_eq!(path.call(io(0, true), 0), RemoteCall::Served(get));
        // A served read flows from the storage node, a write to it.
        let mut queue = EventQueue::new();
        path.transfers
            .start_remote(SimTime::ZERO, io(0, true), &mut queue);
        path.transfers
            .start_remote(SimTime::ZERO, io(1, false), &mut queue);
        let (store, [w0, w1]) = (ClusterConfig::MASTER_NODE, [1, 2].map(NodeId::new));
        assert_eq!(path.flows(), [(store, w0, true), (w1, store, true)]);
        assert_eq!(queue.len(), 1, "one FlowTick");
        assert!(path.tracer.events().is_empty());
    }

    #[test]
    fn a_blacked_out_call_retries_after_a_traced_backoff() {
        let mut path = Path::new();
        path.transfers.put(input_key(), 1 << 20);
        path.transfers
            .storage
            .on_fault(StorageFaultKind::Blackout, true);
        let mut twin = SimRng::seed_from(7);
        let _trip = twin.next_u64(); // the breaker's open-window jitter
        let expected = path.transfers.backoff.delay(0, &mut twin);
        assert_eq!(path.call(io(0, true), 0), RemoteCall::Retry(expected));
        // The failure tripped the breaker, so the write fast-fails into
        // the same backoff without reaching the store.
        assert!(matches!(path.call(io(1, false), 1), RemoteCall::Retry(_)));
        let report = path.report();
        assert_eq!(report.faults.storage_backoff_waits, 2);
        assert_eq!(report.overload.breaker_fast_fails, 1);
        assert_eq!(report.overload.breaker_opens, 1);
        let events = path.tracer.events();
        let open = (BreakerState::Closed, BreakerState::Open);
        assert!(
            matches!(events[0], TraceEvent::BreakerTransition { from, to, .. } if (from, to) == open)
        );
        let retries: Vec<_> = events[1..]
            .iter()
            .map(|ev| match ev {
                TraceEvent::StorageRetry { read, attempt, .. } => (*read, *attempt),
                other => panic!("not a retry: {other:?}"),
            })
            .collect();
        assert_eq!(retries, [(true, 0), (false, 1)]);
    }

    #[test]
    fn the_last_attempt_exhausts_the_retry_budget() {
        let mut path = Path::new();
        path.transfers
            .storage
            .on_fault(StorageFaultKind::Blackout, true);
        let last = MAX_ATTEMPTS - 1;
        assert!(matches!(
            path.call(io(1, false), last),
            RemoteCall::Retry(_)
        ));
        assert_eq!(path.call(io(1, false), MAX_ATTEMPTS), RemoteCall::Exhausted);
        assert_eq!(path.report().faults.storage_backoff_waits, 2);
        let retries = path.tracer.events().iter();
        let retries = retries.filter(|ev| matches!(ev, TraceEvent::StorageRetry { .. }));
        assert_eq!(retries.count(), 1, "an exhausted call is not retried");
    }

    #[test]
    fn a_read_of_a_vanished_key_is_a_missing_key() {
        let mut path = Path::new();
        assert_eq!(path.call(io(0, true), 0), RemoteCall::MissingKey);
        // A write needs no stored key.
        let put = RemoteStore::PUT_OVERHEAD;
        assert_eq!(path.call(io(0, false), 0), RemoteCall::Served(put));
        assert_eq!(path.report().overload, Default::default());
    }

    #[test]
    fn an_open_breaker_serves_a_read_from_the_first_live_workers_copy() {
        let mut path = Path::new();
        // Worker 0 reads; ring order asks worker 1 (crashed, holding a
        // copy) and then worker 2.
        let wf = WorkflowId::new(0);
        for w in [1, 2] {
            let store = path.workers[w].store.memstore_mut();
            store.set_budget(wf, 1 << 30);
            assert!(store.try_put(input_key(), 1 << 20));
        }
        path.workers[1].alive = false;
        path.transfers
            .storage
            .on_fault(StorageFaultKind::Blackout, true);
        assert!(matches!(path.call(io(0, false), 0), RemoteCall::Retry(_)));
        path.transfers
            .storage
            .on_fault(StorageFaultKind::Blackout, false);
        assert_eq!(path.call(io(0, true), 0), RemoteCall::LocalServe);
        let [w0, w2] = [1, 3].map(NodeId::new);
        assert_eq!(path.flows(), [(w2, w0, false)]);
        let overload = path.report().overload;
        let counts = (overload.breaker_local_serves, overload.breaker_fast_fails);
        assert_eq!(counts, (1, 0));
    }

    #[test]
    fn kill_flows_counts_each_cancelled_flow_and_rearms_only_when_one_went() {
        let mut path = Path::new();
        let mut queue = EventQueue::new();
        let [w0, w1] = [1, 2].map(NodeId::new);
        let now = SimTime::ZERO;
        for worker in [0, 1, 1] {
            path.transfers.start_local(io(worker, true), now);
        }
        let t = &mut path.transfers;
        // Worker 2's node runs no flow.
        t.kill_flows(now, |f| f.src == NodeId::new(3), &mut queue);
        assert!(queue.is_empty(), "no flow went, so no FlowTick is armed");
        t.kill_flows(now, |f| f.src == w1, &mut queue);
        assert_eq!(path.report().faults.flows_killed, 2);
        assert_eq!(queue.len(), 1, "the FlowTick is armed");
        assert_eq!(path.flows(), [(w0, w0, false)]);
    }

    #[test]
    fn lifting_a_partition_keeps_the_stall_order_and_counts_once() {
        let mut path = Path::new();
        let t = &mut path.transfers;
        t.stall(1, tag(0));
        t.stall(2, tag(1));
        t.stall(1, tag(2));
        let mut queue = EventQueue::new();
        t.cancel_flows(SimTime::ZERO, |tag| tag.token == token(2), &mut queue);
        let mut replayed = Vec::new();
        for (sw, tag) in t.lift_partition() {
            if sw == 1 {
                replayed.push((sw, tag));
            } else {
                t.hold(sw, tag);
            }
        }
        assert_eq!(invocations(&replayed), [(1, 0)]);
        assert_eq!(invocations(&t.lift_partition()), [(2, 1)]);
        let mut windows = FaultWindows::new(3);
        windows.zombie_fenced = 4;
        let health = windows.health_report(None, 2, t.stalled_flows());
        let counts = (health.stalled_flows, health.zombie_fenced);
        assert_eq!((counts, health.quarantine_orphans), ((3, 4), 2));
        assert!(health.workers.is_empty());
    }

    #[test]
    fn a_crash_drops_only_its_own_stalled_payloads() {
        let mut path = Path::new();
        let t = &mut path.transfers;
        t.stall(1, tag(0));
        t.stall(2, tag(1));
        t.stall(1, tag(2));
        t.drop_stalled_on(1);
        assert_eq!(invocations(&t.lift_partition()), [(2, 1)]);
        assert_eq!(t.stalled_flows(), 3);
    }
}
