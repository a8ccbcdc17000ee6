//! Container-runtime scenarios combining multiple mechanisms: keep-alive
//! under load, memory pressure against multiple pools, and reclamation
//! interacting with eviction.

use faasflow_container::{ContainerConfig, ContainerManager, NodeCaps, StartKind, CONTAINER_MEM};
use faasflow_sim::{FunctionId, SimDuration, SimRng, SimTime, WorkflowId};

fn key(wf: u32, f: u32) -> (WorkflowId, FunctionId) {
    (WorkflowId::new(wf), FunctionId::new(f))
}

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

fn quiet_config() -> ContainerConfig {
    ContainerConfig {
        cold_start_jitter: 0.0,
        ..ContainerConfig::default()
    }
}

#[test]
fn steady_traffic_keeps_containers_warm_forever() {
    // Requests every 100 s against a 600 s keep-alive: the same container
    // serves every request and never expires.
    let mut m: ContainerManager<u32> = ContainerManager::new(NodeCaps::default(), quiet_config());
    let mut rng = SimRng::seed_from(1);
    let first = m.request(key(0, 0), 0, t(0), &mut rng).expect("admitted");
    m.release(first.container, t(1), &mut rng);
    for i in 1..20u32 {
        let now = t(100 * u64::from(i));
        // Fire any due expiry first, as the cluster's timer would.
        m.evict_expired(now, &mut rng);
        let adm = m.request(key(0, 0), i, now, &mut rng).expect("admitted");
        assert_eq!(adm.start, StartKind::Warm, "request {i} must reuse");
        assert_eq!(adm.container, first.container);
        m.release(adm.container, now + SimDuration::from_secs(1), &mut rng);
    }
    assert_eq!(m.stats().cold_starts.get(), 1);
    assert_eq!(m.stats().expired.get(), 0);
}

#[test]
fn idle_gap_past_keepalive_forces_a_fresh_boot() {
    let mut m: ContainerManager<u32> = ContainerManager::new(NodeCaps::default(), quiet_config());
    let mut rng = SimRng::seed_from(1);
    let a = m.request(key(0, 0), 0, t(0), &mut rng).expect("admitted");
    m.release(a.container, t(1), &mut rng);
    // 601 s later the expiry fires before the next request.
    m.evict_expired(t(700), &mut rng);
    let b = m.request(key(0, 0), 1, t(700), &mut rng).expect("admitted");
    assert_eq!(b.start, StartKind::Cold);
    assert_ne!(b.container, a.container);
}

#[test]
fn pressure_eviction_prefers_the_stalest_pool() {
    // Room for 3 containers; three pools made idle at different times.
    let cfg = quiet_config();
    let mut m: ContainerManager<u32> = ContainerManager::new(
        NodeCaps {
            cores: 8,
            mem: 3 * CONTAINER_MEM,
        },
        cfg,
    );
    let mut rng = SimRng::seed_from(1);
    let mut containers = Vec::new();
    for (i, idle_at) in [(0u32, 10u64), (1, 5), (2, 20)] {
        let adm = m.request(key(0, i), i, t(1), &mut rng).expect("admitted");
        m.release(adm.container, t(idle_at), &mut rng);
        containers.push(adm.container);
    }
    // A fourth pool needs memory: pool 1 (idle since t=5) is the LRU.
    m.request(key(0, 3), 9, t(30), &mut rng).expect("admitted");
    assert_eq!(m.pool_size(key(0, 1)), 0, "stalest pool evicted");
    assert_eq!(m.pool_size(key(0, 0)), 1);
    assert_eq!(m.pool_size(key(0, 2)), 1);
}

#[test]
fn reclaimed_memory_admits_more_containers() {
    // Node fits 2 provisioned containers; shrinking their limits to half
    // makes room for 2 more (the FaaStore §4.3.2 effect on density).
    let cfg = quiet_config();
    let mut m: ContainerManager<u32> = ContainerManager::new(
        NodeCaps {
            cores: 8,
            mem: 2 * CONTAINER_MEM,
        },
        cfg,
    );
    let mut rng = SimRng::seed_from(1);
    let a = m.request(key(0, 0), 1, t(0), &mut rng).expect("a");
    let b = m.request(key(0, 1), 2, t(0), &mut rng).expect("b");
    assert!(
        m.request(key(0, 2), 3, t(0), &mut rng).is_none(),
        "memory full at provisioned sizes"
    );
    m.set_memory_limit(a.container, CONTAINER_MEM / 2)
        .expect("shrink");
    m.set_memory_limit(b.container, CONTAINER_MEM / 2)
        .expect("shrink");
    // The queued request plus one more now fit.
    let admitted = m.release(a.container, t(1), &mut rng);
    assert_eq!(admitted.len(), 1, "queued request admitted after reclaim");
}

#[test]
fn stats_reconcile_across_a_busy_session() {
    let mut m: ContainerManager<u32> = ContainerManager::new(NodeCaps::default(), quiet_config());
    let mut rng = SimRng::seed_from(9);
    let mut live = Vec::new();
    let mut token = 0u32;
    for round in 0..50u64 {
        let now = t(round * 2);
        for f in 0..4u32 {
            token += 1;
            if let Some(adm) = m.request(key(0, f), token, now, &mut rng) {
                live.push(adm.container);
            }
        }
        // Release everything each round; releases can admit queued work,
        // which is released in a second wave.
        let first_wave = std::mem::take(&mut live);
        for c in first_wave {
            for adm in m.release(c, now + SimDuration::from_secs(1), &mut rng) {
                live.push(adm.container);
            }
        }
        while let Some(c) = live.pop() {
            for adm in m.release(c, now + SimDuration::from_millis(1500), &mut rng) {
                live.push(adm.container);
            }
        }
    }
    let stats = m.stats();
    assert_eq!(
        stats.cold_starts.get() + stats.warm_starts.get(),
        200,
        "every request eventually ran"
    );
    assert_eq!(stats.cores_busy.get(), 0, "all cores returned");
    assert_eq!(m.queue_len(), 0);
}
