//! The per-node container manager.
//!
//! A sans-IO state machine for one worker node: warm pools per function,
//! cold starts, a FIFO run queue, keep-alive eviction, idle-LRU eviction
//! under memory pressure, and cgroup-style memory-limit updates for
//! FaaStore's reclamation (§4.3.2: "the container releases to-be-reclaimed
//! memory by setting an updated cgroup memory limit").
//!
//! The node's idle containers sit on one intrusive doubly linked list sorted
//! by `(expires_at, id)`, so the next keep-alive expiry, the memory-pressure
//! victim and the expired prefix are all read from its head.

use std::collections::VecDeque;

use faasflow_sim::stats::{Counter, Gauge};
use faasflow_sim::{ContainerId, FastMap, FunctionId, SimDuration, SimRng, SimTime, WorkflowId};

use crate::config::{ContainerConfig, NodeCaps};

/// Mean cold-start latency: create + boot of a Python runtime container, a
/// few hundred milliseconds on the paper's Docker 20.10 setup (the image
/// pull is warm).
pub(crate) const COLD_START_MEAN: SimDuration = SimDuration::from_millis(500);
/// Fixed cost of dispatching onto a warm container.
pub(crate) const WARM_START: SimDuration = SimDuration::from_millis(3);
/// Idle lifetime before a container is recycled (Table 3: "Lifetime: 600s").
pub(crate) const KEEP_ALIVE: SimDuration = SimDuration::from_secs(600);
/// Provisioned memory per container (Table 3: "1-core with 256MB").
pub const CONTAINER_MEM: u64 = 256 << 20;
/// Cores per running container (Table 3: "1-core with 256MB").
pub(crate) const CONTAINER_CORES: u32 = 1;

/// A warm pool is keyed by workflow and function: containers are never
/// shared across functions (each has its own image/state).
pub type PoolKey = (WorkflowId, FunctionId);

/// How an admitted request starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// A new container boots first.
    Cold,
    /// An idle warm container is reused.
    Warm,
}

/// The admission handed back when a request gets a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission<T> {
    /// The caller's request token.
    pub token: T,
    /// The container that will run the request.
    pub container: ContainerId,
    /// When the container is ready to execute (cold boot or warm dispatch
    /// complete).
    pub ready_at: SimTime,
    /// Cold or warm.
    pub start: StartKind,
}

/// The end of the idle list. Container ids count up from 0 and are never
/// reused, so no live container has this id.
const NIL: ContainerId = ContainerId::new(u32::MAX);

#[derive(Debug, Clone)]
struct Container {
    key: PoolKey,
    /// When an idle container is recycled; stale while busy.
    expires_at: SimTime,
    /// Current cgroup memory limit (shrinks under FaaStore reclamation).
    mem_limit: u64,
    /// Neighbours on the idle list ([`NIL`] at either end); stale while
    /// busy.
    prev: ContainerId,
    next: ContainerId,
    /// Warm and reusable, on the idle list; otherwise executing (or booting
    /// toward) a request.
    idle: bool,
}

// The links fit in what was padding: one container per map slot stays at
// 40 bytes.
const _: () = assert!(std::mem::size_of::<Container>() <= 40);

#[derive(Debug, Clone)]
struct Waiting<T> {
    key: PoolKey,
    token: T,
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContainerStats {
    /// Requests served by a warm container.
    pub warm_starts: Counter,
    /// Requests that booted a new container.
    pub cold_starts: Counter,
    /// Requests that had to queue at least once.
    pub queued: Counter,
    /// Containers recycled by keep-alive expiry.
    pub expired: Counter,
    /// Idle containers evicted early to relieve memory pressure.
    pub pressure_evictions: Counter,
    /// Busy cores right now.
    pub cores_busy: Gauge,
    /// Resident container memory right now.
    pub mem_resident: Gauge,
}

/// The container runtime of one worker node.
///
/// `T` is the caller's request token — typically "function instance *k* of
/// invocation *i*" — returned verbatim inside [`Admission`]s so the engine
/// can resume the right work.
#[derive(Debug)]
pub struct ContainerManager<T> {
    caps: NodeCaps,
    config: ContainerConfig,
    containers: FastMap<ContainerId, Container>,
    /// Idle container ids per pool, most-recently-used last (reuse prefers
    /// the MRU container, matching Docker-level warm pools).
    idle: FastMap<PoolKey, Vec<ContainerId>>,
    /// Ends of the node-wide idle list, sorted by `(expires_at, id)`; the
    /// head is the next to expire and the first pressure victim.
    idle_head: ContainerId,
    idle_tail: ContainerId,
    /// Containers (busy + idle) per pool, for the per-function limit.
    pool_sizes: FastMap<PoolKey, u32>,
    queue: VecDeque<Waiting<T>>,
    next_id: u32,
    cores_busy: u32,
    mem_resident: u64,
    stats: ContainerStats,
}

impl<T> ContainerManager<T> {
    /// Creates an empty node runtime.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ContainerConfig::validate`]).
    pub fn new(caps: NodeCaps, config: ContainerConfig) -> Self {
        config.validate().expect("invalid container configuration");
        ContainerManager {
            caps,
            config,
            containers: FastMap::default(),
            idle: FastMap::default(),
            idle_head: NIL,
            idle_tail: NIL,
            pool_sizes: FastMap::default(),
            queue: VecDeque::new(),
            next_id: 0,
            cores_busy: 0,
            mem_resident: 0,
            stats: ContainerStats::default(),
        }
    }

    /// The node capacity.
    pub fn caps(&self) -> NodeCaps {
        self.caps
    }

    /// Counters for the harness.
    pub fn stats(&self) -> &ContainerStats {
        &self.stats
    }

    /// Containers currently alive (busy + idle).
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Requests waiting for a container or core.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Live containers of one pool (the runtime `Scale(v)` feedback input).
    pub fn pool_size(&self, key: PoolKey) -> u32 {
        self.pool_sizes.get(&key).copied().unwrap_or(0)
    }

    /// `true` when `container` exists and is busy. Fault recovery uses
    /// this to distinguish stale admissions (for a container that died in
    /// a crash) from live ones before releasing.
    pub fn is_busy(&self, container: ContainerId) -> bool {
        self.containers.get(&container).is_some_and(|c| !c.idle)
    }

    /// Simulates the node crashing: every container (busy and idle) and
    /// every queued request is lost instantly and the resource gauges drop
    /// to zero. Cumulative counters survive (they describe history), and so
    /// does the container-id counter — ids are never reused, so events
    /// addressed to pre-crash containers stay distinguishable after a
    /// restart. Returns `(containers_lost, requests_lost)`.
    pub fn crash(&mut self) -> (usize, usize) {
        let lost = (self.containers.len(), self.queue.len());
        self.containers.clear();
        self.idle.clear();
        self.idle_head = NIL;
        self.idle_tail = NIL;
        self.pool_sizes.clear();
        self.queue.clear();
        self.cores_busy = 0;
        self.mem_resident = 0;
        self.stats.cores_busy.set(0);
        self.stats.mem_resident.set(0);
        lost
    }

    /// Requests a container for `key`. Returns the admission if the node
    /// can serve it now, otherwise queues the token (FIFO) and returns
    /// `None`; a later [`ContainerManager::release`] or eviction hands the
    /// token back inside an [`Admission`].
    pub fn request(
        &mut self,
        key: PoolKey,
        token: T,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<Admission<T>> {
        match self.try_admit(key, now, rng) {
            Some((container, ready_at, start)) => Some(Admission {
                token,
                container,
                ready_at,
                start,
            }),
            None => {
                self.stats.queued.inc();
                self.queue.push_back(Waiting { key, token });
                None
            }
        }
    }

    /// Requests a container without queueing: returns the admission if the
    /// node can serve it now, `None` otherwise (the token is **not**
    /// retained). Hedged dispatch uses this — a hedge is opportunistic and
    /// must never add queue pressure to its target node.
    pub fn request_immediate(
        &mut self,
        key: PoolKey,
        token: T,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<Admission<T>> {
        self.try_admit(key, now, rng)
            .map(|(container, ready_at, start)| Admission {
                token,
                container,
                ready_at,
                start,
            })
    }

    /// Removes and returns the longest-queued token (admission-control
    /// head drop). `None` when the queue is empty.
    pub fn shed_oldest(&mut self) -> Option<T> {
        self.queue.pop_front().map(|w| w.token)
    }

    /// The queued tokens, oldest first (deadline-aware shedding scans
    /// these to pick a victim).
    pub fn queued_tokens(&self) -> impl Iterator<Item = &T> {
        self.queue.iter().map(|w| &w.token)
    }

    /// Removes the first queued entry whose token satisfies `pred`.
    /// Returns the removed token, or `None` if nothing matched.
    pub fn remove_queued(&mut self, pred: impl Fn(&T) -> bool) -> Option<T> {
        let idx = self.queue.iter().position(|w| pred(&w.token))?;
        self.queue.remove(idx).map(|w| w.token)
    }

    /// Finishes a request: frees the container's core and returns it to the
    /// warm pool. Queued requests that can now run are admitted and
    /// returned, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `container` is unknown or idle — releasing twice is a
    /// caller bug.
    pub fn release(
        &mut self,
        container: ContainerId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Admission<T>> {
        let ctr = self
            .containers
            .get_mut(&container)
            .expect("released container must exist");
        assert!(!ctr.idle, "released container must be busy");
        self.cores_busy -= CONTAINER_CORES;
        self.stats.cores_busy.sub(u64::from(CONTAINER_CORES));
        ctr.idle = true;
        ctr.expires_at = now + KEEP_ALIVE;
        let key = ctr.key;
        self.idle.entry(key).or_default().push(container);
        self.link_idle(container);
        self.drain_queue(now, rng)
    }

    /// The earliest keep-alive expiry among idle containers, if any.
    pub fn next_expiry(&self) -> Option<SimTime> {
        (self.idle_head != NIL).then(|| self.containers[&self.idle_head].expires_at)
    }

    /// Recycles idle containers whose keep-alive expired by `now`, then
    /// admits any queued requests the freed memory allows.
    pub fn evict_expired(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<Admission<T>> {
        while self.next_expiry().is_some_and(|at| at <= now) {
            self.remove_idle(self.idle_head);
            self.stats.expired.inc();
        }
        self.drain_queue(now, rng)
    }

    /// Updates a container's cgroup memory limit (FaaStore reclamation).
    /// Shrinking frees node memory; growing requires head-room.
    ///
    /// # Errors
    ///
    /// Returns `Err` when growing past the node's free memory.
    ///
    /// # Panics
    ///
    /// Panics if `container` is unknown.
    pub fn set_memory_limit(
        &mut self,
        container: ContainerId,
        new_limit: u64,
    ) -> Result<(), String> {
        let ctr = self
            .containers
            .get_mut(&container)
            .expect("container must exist to re-limit");
        let old = ctr.mem_limit;
        if new_limit > old {
            let grow = new_limit - old;
            if self.mem_resident + grow > self.caps.mem {
                return Err(format!(
                    "cannot grow container by {grow} bytes: node memory exhausted"
                ));
            }
            ctr.mem_limit = new_limit;
            self.mem_resident += grow;
            self.stats.mem_resident.add(grow);
        } else {
            let shrink = old - new_limit;
            ctr.mem_limit = new_limit;
            self.mem_resident -= shrink;
            self.stats.mem_resident.sub(shrink);
        }
        Ok(())
    }

    // ------------------------------------------------------------------

    /// Puts the just-idled `id` on the idle list, walking back from the
    /// tail past every later `(expires_at, id)`. The cluster releases in
    /// clock order, so the walk passes only same-instant ties; the manager
    /// itself accepts releases in any order.
    fn link_idle(&mut self, id: ContainerId) {
        let key = (self.containers[&id].expires_at, id);
        let mut prev = self.idle_tail;
        while prev != NIL {
            let p = &self.containers[&prev];
            if (p.expires_at, prev) < key {
                break;
            }
            prev = p.prev;
        }
        let next = if prev == NIL {
            std::mem::replace(&mut self.idle_head, id)
        } else {
            let p = self
                .containers
                .get_mut(&prev)
                .expect("linked container exists");
            std::mem::replace(&mut p.next, id)
        };
        if next == NIL {
            self.idle_tail = id;
        } else {
            self.containers
                .get_mut(&next)
                .expect("linked container exists")
                .prev = id;
        }
        let ctr = self.containers.get_mut(&id).expect("idle container exists");
        ctr.prev = prev;
        ctr.next = next;
    }

    /// Takes a container with links `prev` and `next` off the idle list.
    fn unlink_idle(&mut self, prev: ContainerId, next: ContainerId) {
        if prev == NIL {
            self.idle_head = next;
        } else {
            self.containers
                .get_mut(&prev)
                .expect("linked container exists")
                .next = next;
        }
        if next == NIL {
            self.idle_tail = prev;
        } else {
            self.containers
                .get_mut(&next)
                .expect("linked container exists")
                .prev = prev;
        }
    }

    fn remove_idle(&mut self, id: ContainerId) {
        let ctr = self.containers.remove(&id).expect("idle container exists");
        debug_assert!(ctr.idle);
        self.unlink_idle(ctr.prev, ctr.next);
        self.mem_resident -= ctr.mem_limit;
        self.stats.mem_resident.sub(ctr.mem_limit);
        *self.pool_sizes.get_mut(&ctr.key).expect("pool exists") -= 1;
        if let Some(v) = self.idle.get_mut(&ctr.key) {
            v.retain(|&c| c != id);
        }
    }

    /// Tries to start a request right now: warm reuse, else cold start
    /// (evicting idle LRU containers under memory pressure), else `None`.
    fn try_admit(
        &mut self,
        key: PoolKey,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<(ContainerId, SimTime, StartKind)> {
        if self.cores_busy + CONTAINER_CORES > self.caps.cores {
            return None; // no core to run on
        }
        // Warm reuse: most-recently-used idle container of this pool.
        if let Some(id) = self.idle.get_mut(&key).and_then(Vec::pop) {
            let ctr = self.containers.get_mut(&id).expect("idle container exists");
            ctr.idle = false;
            let (prev, next) = (ctr.prev, ctr.next);
            self.unlink_idle(prev, next);
            self.cores_busy += CONTAINER_CORES;
            self.stats.cores_busy.add(u64::from(CONTAINER_CORES));
            self.stats.warm_starts.inc();
            return Some((id, now + WARM_START, StartKind::Warm));
        }
        // Cold start: respect the per-function container limit...
        if self.pool_size(key) >= self.config.per_function_limit {
            return None;
        }
        // ...and node memory, evicting idle LRU containers (the idle
        // list's head, the least `(expires_at, id)`) if needed.
        while self.mem_resident + CONTAINER_MEM > self.caps.mem {
            if self.idle_head == NIL {
                return None; // everything busy; wait
            }
            self.remove_idle(self.idle_head);
            self.stats.pressure_evictions.inc();
        }
        let id = ContainerId::new(self.next_id);
        self.next_id += 1;
        self.containers.insert(
            id,
            Container {
                key,
                expires_at: now,
                mem_limit: CONTAINER_MEM,
                prev: NIL,
                next: NIL,
                idle: false,
            },
        );
        *self.pool_sizes.entry(key).or_insert(0) += 1;
        self.mem_resident += CONTAINER_MEM;
        self.stats.mem_resident.add(CONTAINER_MEM);
        self.cores_busy += CONTAINER_CORES;
        self.stats.cores_busy.add(u64::from(CONTAINER_CORES));
        self.stats.cold_starts.inc();
        let jitter = self.config.cold_start_jitter;
        let boot = if jitter == 0.0 {
            COLD_START_MEAN
        } else {
            COLD_START_MEAN.mul_f64(rng.range_f64(1.0 - jitter, 1.0 + jitter))
        };
        Some((id, now + boot, StartKind::Cold))
    }

    /// Admits every queued request that can now run, preserving FIFO order
    /// among the rest.
    fn drain_queue(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<Admission<T>> {
        let mut admitted = Vec::new();
        let mut still_waiting = VecDeque::with_capacity(self.queue.len());
        while let Some(w) = self.queue.pop_front() {
            match self.try_admit(w.key, now, rng) {
                Some((container, ready_at, start)) => admitted.push(Admission {
                    token: w.token,
                    container,
                    ready_at,
                    start,
                }),
                None => still_waiting.push_back(w),
            }
        }
        self.queue = still_waiting;
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_sim::SimDuration;

    fn key(f: u32) -> PoolKey {
        (WorkflowId::new(0), FunctionId::new(f))
    }

    fn mgr(cores: u32, mem_containers: u64) -> ContainerManager<u32> {
        let cfg = ContainerConfig {
            cold_start_jitter: 0.0,
            ..ContainerConfig::default()
        };
        ContainerManager::new(
            NodeCaps {
                cores,
                mem: mem_containers * CONTAINER_MEM,
            },
            cfg,
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn first_request_cold_starts() {
        let mut m = mgr(8, 128);
        let mut rng = SimRng::seed_from(1);
        let adm = m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        assert_eq!(adm.start, StartKind::Cold);
        assert_eq!(adm.ready_at, t(0) + SimDuration::from_millis(500));
        assert_eq!(m.container_count(), 1);
    }

    #[test]
    fn request_immediate_never_queues() {
        let mut m = mgr(1, 128);
        let mut rng = SimRng::seed_from(1);
        m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        assert!(m.request_immediate(key(0), 2, t(0), &mut rng).is_none());
        assert_eq!(m.queue_len(), 0, "rejected token is not retained");
    }

    #[test]
    fn shed_oldest_pops_the_queue_head() {
        let mut m = mgr(1, 128);
        let mut rng = SimRng::seed_from(1);
        m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        assert!(m.request(key(0), 2, t(0), &mut rng).is_none());
        assert!(m.request(key(0), 3, t(0), &mut rng).is_none());
        assert_eq!(m.shed_oldest(), Some(2));
        assert_eq!(m.queue_len(), 1);
        let queued: Vec<u32> = m.queued_tokens().copied().collect();
        assert_eq!(queued, vec![3]);
    }

    #[test]
    fn remove_queued_picks_by_predicate() {
        let mut m = mgr(1, 128);
        let mut rng = SimRng::seed_from(1);
        m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        assert!(m.request(key(0), 2, t(0), &mut rng).is_none());
        assert!(m.request(key(0), 3, t(0), &mut rng).is_none());
        assert_eq!(m.remove_queued(|&tok| tok == 3), Some(3));
        assert_eq!(m.remove_queued(|&tok| tok == 3), None);
        assert_eq!(m.queue_len(), 1);
    }

    #[test]
    fn release_then_request_reuses_warm() {
        let mut m = mgr(8, 128);
        let mut rng = SimRng::seed_from(1);
        let adm = m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        assert!(m.release(adm.container, t(1), &mut rng).is_empty());
        let warm = m.request(key(0), 2, t(2), &mut rng).expect("admitted");
        assert_eq!(warm.start, StartKind::Warm);
        assert_eq!(warm.container, adm.container);
        assert_eq!(m.stats().warm_starts.get(), 1);
    }

    #[test]
    fn crash_loses_everything_but_history_and_ids() {
        let mut m = mgr(2, 128);
        let mut rng = SimRng::seed_from(1);
        let a = m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        let b = m.request(key(0), 2, t(0), &mut rng).expect("admitted");
        assert!(m.request(key(1), 3, t(0), &mut rng).is_none(), "queues");
        assert!(m.is_busy(a.container));

        let (containers, queued) = m.crash();
        assert_eq!((containers, queued), (2, 1));
        assert_eq!(m.container_count(), 0);
        assert_eq!(m.queue_len(), 0);
        assert!(!m.is_busy(a.container));
        assert_eq!(m.stats().cores_busy.get(), 0);
        assert_eq!(m.stats().mem_resident.get(), 0);
        assert_eq!(m.stats().cold_starts.get(), 2, "history survives");

        // Post-restart containers never reuse a pre-crash id.
        let c = m.request(key(0), 4, t(2), &mut rng).expect("admitted");
        assert_ne!(c.container, a.container);
        assert_ne!(c.container, b.container);
    }

    #[test]
    fn containers_are_not_shared_across_functions() {
        let mut m = mgr(8, 128);
        let mut rng = SimRng::seed_from(1);
        let adm = m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        m.release(adm.container, t(1), &mut rng);
        let other = m.request(key(1), 2, t(2), &mut rng).expect("admitted");
        assert_eq!(other.start, StartKind::Cold);
        assert_ne!(other.container, adm.container);
    }

    #[test]
    fn core_exhaustion_queues_fifo() {
        let mut m = mgr(2, 128);
        let mut rng = SimRng::seed_from(1);
        let a = m.request(key(0), 1, t(0), &mut rng).expect("core 1");
        let _b = m.request(key(0), 2, t(0), &mut rng).expect("core 2");
        assert!(m.request(key(0), 3, t(0), &mut rng).is_none());
        assert!(m.request(key(1), 4, t(0), &mut rng).is_none());
        assert_eq!(m.queue_len(), 2);
        // Releasing one core admits the oldest waiter first.
        let admitted = m.release(a.container, t(1), &mut rng);
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].token, 3);
        assert_eq!(admitted[0].start, StartKind::Warm, "reuses a's container");
        assert_eq!(m.queue_len(), 1);
    }

    #[test]
    fn per_function_limit_blocks_scaling() {
        let cfg = ContainerConfig {
            per_function_limit: 2,
            cold_start_jitter: 0.0,
        };
        let mut m: ContainerManager<u32> = ContainerManager::new(
            NodeCaps {
                cores: 8,
                mem: 32 << 30,
            },
            cfg,
        );
        let mut rng = SimRng::seed_from(1);
        assert!(m.request(key(0), 1, t(0), &mut rng).is_some());
        assert!(m.request(key(0), 2, t(0), &mut rng).is_some());
        assert!(
            m.request(key(0), 3, t(0), &mut rng).is_none(),
            "third container of the same function is over the limit"
        );
        // A different function still scales.
        assert!(m.request(key(1), 4, t(0), &mut rng).is_some());
    }

    #[test]
    fn keep_alive_expires_idle_containers() {
        let mut m = mgr(8, 128);
        let mut rng = SimRng::seed_from(1);
        let adm = m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        m.release(adm.container, t(1), &mut rng);
        assert_eq!(m.next_expiry(), Some(t(601)));
        assert!(m.evict_expired(t(600), &mut rng).is_empty());
        assert_eq!(m.container_count(), 1, "not yet expired");
        m.evict_expired(t(601), &mut rng);
        assert_eq!(m.container_count(), 0);
        assert_eq!(m.stats().expired.get(), 1);
    }

    #[test]
    fn memory_pressure_evicts_idle_lru() {
        // Room for exactly 2 containers.
        let mut m = mgr(8, 2);
        let mut rng = SimRng::seed_from(1);
        let a = m.request(key(0), 1, t(0), &mut rng).expect("a");
        m.release(a.container, t(1), &mut rng);
        let b = m.request(key(1), 2, t(2), &mut rng).expect("b");
        m.release(b.container, t(3), &mut rng);
        // A third function needs memory: the idle container with the
        // earliest expiry (a, idle since t=1) must be evicted.
        let c = m.request(key(2), 3, t(4), &mut rng).expect("c admitted");
        assert_eq!(c.start, StartKind::Cold);
        assert_eq!(m.stats().pressure_evictions.get(), 1);
        assert_eq!(m.pool_size(key(0)), 0, "a's pool was evicted");
        assert_eq!(m.pool_size(key(1)), 1, "b survives");
    }

    #[test]
    fn memory_limit_shrink_and_grow() {
        let mut m = mgr(8, 128);
        let mut rng = SimRng::seed_from(1);
        let adm = m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        let before = m.stats().mem_resident.get();
        m.set_memory_limit(adm.container, 128 << 20)
            .expect("shrink");
        assert_eq!(m.stats().mem_resident.get(), before - (128 << 20));
        m.set_memory_limit(adm.container, 256 << 20)
            .expect("grow back");
        assert_eq!(m.stats().mem_resident.get(), before);
    }

    #[test]
    fn grow_past_node_memory_fails() {
        let mut m = mgr(8, 1);
        let mut rng = SimRng::seed_from(1);
        let adm = m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        let res = m.set_memory_limit(adm.container, 1 << 40);
        assert!(res.is_err());
    }

    #[test]
    #[should_panic(expected = "must be busy")]
    fn double_release_panics() {
        let mut m = mgr(8, 128);
        let mut rng = SimRng::seed_from(1);
        let adm = m.request(key(0), 1, t(0), &mut rng).expect("admitted");
        m.release(adm.container, t(1), &mut rng);
        m.release(adm.container, t(2), &mut rng);
    }

    #[test]
    fn queue_skips_blocked_head_for_admissible_later_requests() {
        let cfg = ContainerConfig {
            per_function_limit: 1,
            cold_start_jitter: 0.0,
        };
        let mut m: ContainerManager<u32> = ContainerManager::new(
            NodeCaps {
                cores: 2,
                mem: 32 << 30,
            },
            cfg,
        );
        let mut rng = SimRng::seed_from(1);
        let a = m.request(key(0), 1, t(0), &mut rng).expect("a runs");
        let b = m.request(key(1), 2, t(0), &mut rng).expect("b runs");
        // fn0 again: blocked by per-function limit even after a core frees.
        assert!(m.request(key(0), 3, t(0), &mut rng).is_none());
        // fn2: only blocked by cores.
        assert!(m.request(key(2), 4, t(0), &mut rng).is_none());
        // Releasing b frees a core; head (fn0) is still limit-blocked but
        // fn2 must be admitted.
        let admitted = m.release(b.container, t(1), &mut rng);
        let tokens: Vec<u32> = admitted.iter().map(|a| a.token).collect();
        assert_eq!(tokens, vec![4]);
        // Releasing a lets the fn0 waiter reuse a's container.
        let admitted = m.release(a.container, t(2), &mut rng);
        let tokens: Vec<u32> = admitted.iter().map(|a| a.token).collect();
        assert_eq!(tokens, vec![3]);
    }
}
