//! Differential property: the manager's sorted idle list against the full
//! scans it replaced.
//!
//! The reference below is the container manager as it was before the idle
//! list: every idle container carries its `expires_at`, and the next expiry,
//! the memory-pressure victim (the least `(expires_at, id)`) and the expired
//! set are found by scanning every container. Random request, release,
//! eviction, crash and memory-limit sequences on small nodes drive both,
//! with times that are mostly monotone, often tied, and sometimes out of
//! order for releases. After every operation the two must
//! agree on the admissions, the next expiry, every pool's size, the queue
//! length and the stats.

use std::collections::{BTreeMap, VecDeque};

use faasflow_container::{
    Admission, ContainerConfig, ContainerManager, ContainerStats, NodeCaps, PoolKey, StartKind,
    CONTAINER_MEM,
};
use faasflow_sim::{ContainerId, FunctionId, SimDuration, SimRng, SimTime, WorkflowId};
use proptest::prelude::*;

/// The manager's timing constants (cold boot mean, warm dispatch, and
/// Table 3's 600 s keep-alive).
const COLD_START_MEAN: SimDuration = SimDuration::from_millis(500);
const WARM_START: SimDuration = SimDuration::from_millis(3);
const KEEP_ALIVE: SimDuration = SimDuration::from_secs(600);

struct RefCtr {
    key: PoolKey,
    /// `Some(expires_at)` while idle.
    idle_until: Option<SimTime>,
    mem_limit: u64,
}

/// The pre-list manager, scans and all.
struct Reference {
    caps: NodeCaps,
    config: ContainerConfig,
    containers: BTreeMap<ContainerId, RefCtr>,
    idle: BTreeMap<PoolKey, Vec<ContainerId>>,
    pool_sizes: BTreeMap<PoolKey, u32>,
    queue: VecDeque<(PoolKey, u32)>,
    next_id: u32,
    cores_busy: u32,
    mem_resident: u64,
    stats: ContainerStats,
}

impl Reference {
    fn new(caps: NodeCaps, config: ContainerConfig) -> Self {
        Reference {
            caps,
            config,
            containers: BTreeMap::new(),
            idle: BTreeMap::new(),
            pool_sizes: BTreeMap::new(),
            queue: VecDeque::new(),
            next_id: 0,
            cores_busy: 0,
            mem_resident: 0,
            stats: ContainerStats::default(),
        }
    }

    fn pool_size(&self, key: PoolKey) -> u32 {
        self.pool_sizes.get(&key).copied().unwrap_or(0)
    }

    fn next_expiry(&self) -> Option<SimTime> {
        self.containers.values().filter_map(|c| c.idle_until).min()
    }

    fn crash(&mut self) -> (usize, usize) {
        let lost = (self.containers.len(), self.queue.len());
        self.containers.clear();
        self.idle.clear();
        self.pool_sizes.clear();
        self.queue.clear();
        self.cores_busy = 0;
        self.mem_resident = 0;
        self.stats.cores_busy.set(0);
        self.stats.mem_resident.set(0);
        lost
    }

    fn request(
        &mut self,
        key: PoolKey,
        token: u32,
        immediate: bool,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<Admission<u32>> {
        match self.try_admit(key, now, rng) {
            Some((container, ready_at, start)) => Some(Admission {
                token,
                container,
                ready_at,
                start,
            }),
            None => {
                if !immediate {
                    self.stats.queued.inc();
                    self.queue.push_back((key, token));
                }
                None
            }
        }
    }

    fn release(
        &mut self,
        container: ContainerId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Admission<u32>> {
        let ctr = self.containers.get_mut(&container).expect("busy container");
        assert!(ctr.idle_until.is_none());
        self.cores_busy -= 1;
        self.stats.cores_busy.sub(1);
        ctr.idle_until = Some(now + KEEP_ALIVE);
        self.idle.entry(ctr.key).or_default().push(container);
        self.drain_queue(now, rng)
    }

    fn evict_expired(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<Admission<u32>> {
        let expired: Vec<ContainerId> = self
            .containers
            .iter()
            .filter(|(_, c)| c.idle_until.is_some_and(|at| at <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.remove_idle(id);
            self.stats.expired.inc();
        }
        self.drain_queue(now, rng)
    }

    fn set_memory_limit(&mut self, container: ContainerId, new_limit: u64) -> Result<(), ()> {
        let ctr = self.containers.get_mut(&container).expect("container");
        let old = ctr.mem_limit;
        if new_limit > old {
            let grow = new_limit - old;
            if self.mem_resident + grow > self.caps.mem {
                return Err(());
            }
            self.mem_resident += grow;
            self.stats.mem_resident.add(grow);
        } else {
            self.mem_resident -= old - new_limit;
            self.stats.mem_resident.sub(old - new_limit);
        }
        ctr.mem_limit = new_limit;
        Ok(())
    }

    fn remove_idle(&mut self, id: ContainerId) {
        let ctr = self.containers.remove(&id).expect("idle container");
        self.mem_resident -= ctr.mem_limit;
        self.stats.mem_resident.sub(ctr.mem_limit);
        *self.pool_sizes.get_mut(&ctr.key).expect("pool") -= 1;
        if let Some(v) = self.idle.get_mut(&ctr.key) {
            v.retain(|&c| c != id);
        }
    }

    fn try_admit(
        &mut self,
        key: PoolKey,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<(ContainerId, SimTime, StartKind)> {
        if self.cores_busy + 1 > self.caps.cores {
            return None;
        }
        if let Some(id) = self.idle.get_mut(&key).and_then(Vec::pop) {
            self.containers.get_mut(&id).expect("idle").idle_until = None;
            self.cores_busy += 1;
            self.stats.cores_busy.add(1);
            self.stats.warm_starts.inc();
            return Some((id, now + WARM_START, StartKind::Warm));
        }
        if self.pool_size(key) >= self.config.per_function_limit {
            return None;
        }
        while self.mem_resident + CONTAINER_MEM > self.caps.mem {
            let victim = self
                .containers
                .iter()
                .filter_map(|(&id, c)| c.idle_until.map(|at| (at, id)))
                .min();
            let (_, id) = victim?;
            self.remove_idle(id);
            self.stats.pressure_evictions.inc();
        }
        let id = ContainerId::new(self.next_id);
        self.next_id += 1;
        self.containers.insert(
            id,
            RefCtr {
                key,
                idle_until: None,
                mem_limit: CONTAINER_MEM,
            },
        );
        *self.pool_sizes.entry(key).or_insert(0) += 1;
        self.mem_resident += CONTAINER_MEM;
        self.stats.mem_resident.add(CONTAINER_MEM);
        self.cores_busy += 1;
        self.stats.cores_busy.add(1);
        self.stats.cold_starts.inc();
        let jitter = self.config.cold_start_jitter;
        let boot = if jitter == 0.0 {
            COLD_START_MEAN
        } else {
            COLD_START_MEAN.mul_f64(rng.range_f64(1.0 - jitter, 1.0 + jitter))
        };
        Some((id, now + boot, StartKind::Cold))
    }

    fn drain_queue(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<Admission<u32>> {
        let mut admitted = Vec::new();
        let mut still_waiting = VecDeque::new();
        while let Some((key, token)) = self.queue.pop_front() {
            match self.try_admit(key, now, rng) {
                Some((container, ready_at, start)) => admitted.push(Admission {
                    token,
                    container,
                    ready_at,
                    start,
                }),
                None => still_waiting.push_back((key, token)),
            }
        }
        self.queue = still_waiting;
        admitted
    }

    /// The `nth` live container (busy ones only with `busy`), by id.
    fn nth(&self, nth: usize, busy: bool) -> Option<ContainerId> {
        let ids: Vec<ContainerId> = self
            .containers
            .iter()
            .filter(|(_, c)| !busy || c.idle_until.is_none())
            .map(|(&id, _)| id)
            .collect();
        (!ids.is_empty()).then(|| ids[nth % ids.len()])
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Moves the clock forward by this many milliseconds.
    Advance(u64),
    Request {
        wf: u32,
        f: u32,
        immediate: bool,
    },
    /// Releases the `nth` busy container, `back` ms before the clock.
    Release {
        nth: usize,
        back: u64,
    },
    Evict,
    Crash,
    SetLimit {
        nth: usize,
        mb: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Ties dominate; some steps cross the keep-alive.
    let advance = Union::weighted(vec![
        (3, Just(0u64).boxed()),
        (3, (1u64..5_000).boxed()),
        (1, (590_000u64..610_000).boxed()),
    ]);
    // Most releases happen at the clock; some land earlier.
    let back = Union::weighted(vec![(5, Just(0u64).boxed()), (1, (1u64..700_000).boxed())]);
    Union::weighted(vec![
        (3, advance.prop_map(Op::Advance).boxed()),
        (
            6,
            (0u32..2, 0u32..3, any::<bool>())
                .prop_map(|(wf, f, immediate)| Op::Request { wf, f, immediate })
                .boxed(),
        ),
        (
            6,
            (any::<usize>(), back)
                .prop_map(|(nth, back)| Op::Release { nth, back })
                .boxed(),
        ),
        (2, Just(Op::Evict).boxed()),
        (1, Just(Op::Crash).boxed()),
        (
            1,
            (any::<usize>(), 64u64..512)
                .prop_map(|(nth, mb)| Op::SetLimit { nth, mb })
                .boxed(),
        ),
    ])
}

fn node_strategy() -> impl Strategy<Value = (u32, u64, u32, bool)> {
    // cores, memory in containers, per-function limit, jittered boots
    (1u32..7, 2u64..7, 1u32..4, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn idle_list_matches_full_scans(
        (cores, mem, limit, jittered) in node_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let caps = NodeCaps { cores, mem: mem * CONTAINER_MEM };
        let config = ContainerConfig {
            per_function_limit: limit,
            cold_start_jitter: if jittered { 0.2 } else { 0.0 },
        };
        let mut m: ContainerManager<u32> = ContainerManager::new(caps, config);
        let mut r = Reference::new(caps, config);
        let (mut rng, mut ref_rng) = (SimRng::seed_from(7), SimRng::seed_from(7));
        let mut now = SimTime::ZERO + KEEP_ALIVE;
        let mut token = 0u32;
        let keys: Vec<PoolKey> = (0..2)
            .flat_map(|wf| (0..3).map(move |f| (WorkflowId::new(wf), FunctionId::new(f))))
            .collect();

        for op in ops {
            match op {
                Op::Advance(ms) => now += SimDuration::from_millis(ms),
                Op::Request { wf, f, immediate } => {
                    token += 1;
                    let key = (WorkflowId::new(wf), FunctionId::new(f));
                    let got = if immediate {
                        m.request_immediate(key, token, now, &mut rng)
                    } else {
                        m.request(key, token, now, &mut rng)
                    };
                    let want = r.request(key, token, immediate, now, &mut ref_rng);
                    prop_assert_eq!(got, want, "admission of {:?}", key);
                }
                Op::Release { nth, back } => {
                    if let Some(id) = r.nth(nth, true) {
                        let at = SimTime::from_nanos(
                            now.as_nanos().saturating_sub(back * 1_000_000),
                        );
                        prop_assert!(m.is_busy(id));
                        let got = m.release(id, at, &mut rng);
                        prop_assert_eq!(got, r.release(id, at, &mut ref_rng));
                    }
                }
                Op::Evict => {
                    let got = m.evict_expired(now, &mut rng);
                    prop_assert_eq!(got, r.evict_expired(now, &mut ref_rng));
                }
                Op::Crash => prop_assert_eq!(m.crash(), r.crash()),
                Op::SetLimit { nth, mb } => {
                    if let Some(id) = r.nth(nth, false) {
                        let limit = mb << 20;
                        let got = m.set_memory_limit(id, limit).map_err(|_| ());
                        prop_assert_eq!(got, r.set_memory_limit(id, limit));
                    }
                }
            }
            prop_assert_eq!(m.next_expiry(), r.next_expiry());
            for &key in &keys {
                prop_assert_eq!(m.pool_size(key), r.pool_size(key), "pool {:?}", key);
            }
            prop_assert_eq!(m.stats(), &r.stats);
            prop_assert_eq!(m.container_count(), r.containers.len());
            prop_assert_eq!(m.queue_len(), r.queue.len());
        }
    }
}
