//! Differential test: `FlowNet` against a naive reference model.
//!
//! The model keeps its flows in one id-ordered list, recomputes every rate
//! with a from-scratch global progressive filling after each mutation, and
//! integrates eagerly with the same `(remaining - rate*dt).max(0.0)` step.
//! Random sequences of starts (loopback and zero-byte included), cancels
//! (of live, completed and never-issued ids), NIC changes and completion
//! sweeps run against both. After every step the two must agree exactly:
//! rates and remaining bytes bit for bit, the completion horizon, the
//! completed id sequences and the per-node byte counters.
//!
//! Three case shapes: endpoints drawn uniformly over 1–6 nodes; hub
//! traffic, where most flows run between one hub and 2–8 spokes as remote
//! reads and writes do through the storage NIC; and crowded paths, where
//! nearly every flow runs on one or two `(src, dst)` paths. Hub traffic
//! puts many flows on each path, and its slow spokes make fills take
//! several rounds, so a path carrying several flows is fixed while its
//! other resource still has unfixed flows. Crowded paths draw sizes from a
//! small set, so flows on one path often hold equal remaining bytes, and
//! long steps often clamp several of them to exactly zero together.

use faasflow_net::{FlowId, FlowNet, NicSpec};
use faasflow_sim::{NodeId, SimDuration, SimTime};
use proptest::prelude::*;

/// Same threshold as the network: within a millionth of a byte is done.
const DONE_EPS: f64 = 1e-6;

/// Resource kinds in tie-break order: uplink, downlink, loopback.
const UP: usize = 0;
const DOWN: usize = 1;
const LOOP: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    Start {
        src: usize,
        dst: usize,
        bytes: u64,
        dt: u64,
    },
    CancelLive {
        pick: usize,
        dt: u64,
    },
    CancelCompleted {
        pick: usize,
        dt: u64,
    },
    CancelUnissued {
        pick: usize,
        dt: u64,
    },
    SetNic {
        node: usize,
        caps: [f64; 3],
        dt: u64,
    },
    TakeAtNextCompletion,
    TakeLater {
        dt: u64,
    },
}

#[derive(Debug, Clone)]
struct Case {
    nics: Vec<[f64; 3]>,
    ops: Vec<Op>,
}

/// Capacities drawn from a small set so that equal shares (and thus the
/// bottleneck tie-break) come up often, plus arbitrary values and zero.
fn capacity() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0usize..5).prop_map(|k| [10e6, 25e6, 50e6, 100e6, 1.25e9][k]),
        1e5..2e9,
        Just(0.0),
    ]
}

fn loopback_capacity() -> impl Strategy<Value = f64> {
    prop_oneof![Just(2e9), 1e6..4e9]
}

fn bytes() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        (0usize..4).prop_map(|k| [1u64, 1000, 1 << 20, 10_000_000][k]),
        1u64..50_000_000,
    ]
}

/// Time steps: often none, so several mutations share one instant.
fn dt() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..2_000_000_000, 1u64..1_000]
}

fn op(
    n: usize,
    endpoints: BoxedStrategy<(usize, usize)>,
    sizes: BoxedStrategy<u64>,
) -> impl Strategy<Value = Op> {
    Union::weighted(vec![
        (
            6,
            (endpoints, sizes, dt())
                .prop_map(|((src, dst), bytes, dt)| Op::Start {
                    src,
                    dst,
                    bytes,
                    dt,
                })
                .boxed(),
        ),
        (
            2,
            (0..n, bytes(), dt())
                .prop_map(|(node, bytes, dt)| Op::Start {
                    src: node,
                    dst: node,
                    bytes,
                    dt,
                })
                .boxed(),
        ),
        (
            3,
            (0usize..64, dt())
                .prop_map(|(pick, dt)| Op::CancelLive { pick, dt })
                .boxed(),
        ),
        (
            1,
            (0usize..64, dt())
                .prop_map(|(pick, dt)| Op::CancelCompleted { pick, dt })
                .boxed(),
        ),
        (
            1,
            (0usize..64, dt())
                .prop_map(|(pick, dt)| Op::CancelUnissued { pick, dt })
                .boxed(),
        ),
        (
            1,
            (0..n, capacity(), capacity(), loopback_capacity(), dt())
                .prop_map(|(node, up, down, lo, dt)| Op::SetNic {
                    node,
                    caps: [up, down, lo],
                    dt,
                })
                .boxed(),
        ),
        (3, Just(Op::TakeAtNextCompletion).boxed()),
        (2, dt().prop_map(|dt| Op::TakeLater { dt }).boxed()),
    ])
}

fn case() -> impl Strategy<Value = Case> {
    (1usize..7).prop_flat_map(|n| {
        let nic =
            (capacity(), capacity(), loopback_capacity()).prop_map(|(up, down, lo)| [up, down, lo]);
        let endpoints = (0..n, 0..n).boxed();
        (
            proptest::collection::vec(nic, n),
            proptest::collection::vec(op(n, endpoints, bytes().boxed()), 1..MAX_OPS),
        )
            .prop_map(|(nics, ops)| Case { nics, ops })
    })
}

/// Hub NIC capacities around the paper's 25–100 MB/s storage NIC.
fn hub_capacity() -> impl Strategy<Value = f64> {
    (0usize..4).prop_map(|k| [25e6, 50e6, 100e6, 200e6][k])
}

/// Spoke NIC capacities: some well below any hub share, so a spoke is the
/// first bottleneck and the hub's other flows stay unfixed for a later
/// round, some far above it.
fn spoke_capacity() -> impl Strategy<Value = f64> {
    (0usize..5).prop_map(|k| [2e6, 5e6, 10e6, 40e6, 1.25e9][k])
}

/// Node 0 is the hub and nodes `1..n` the spokes. Most flows run
/// hub→spoke or spoke→hub; a few run between spokes.
fn hub_case() -> impl Strategy<Value = Case> {
    (3usize..10).prop_flat_map(|n| {
        let hub = (hub_capacity(), hub_capacity(), loopback_capacity())
            .prop_map(|(up, down, lo)| [up, down, lo]);
        let spoke = (spoke_capacity(), spoke_capacity(), loopback_capacity())
            .prop_map(|(up, down, lo)| [up, down, lo]);
        let endpoints = Union::weighted(vec![
            (5, (Just(0usize), 1..n).boxed()),
            (4, (1..n, Just(0usize)).boxed()),
            (1, (1..n, 1..n).boxed()),
        ])
        .boxed();
        (
            hub,
            proptest::collection::vec(spoke, n - 1),
            proptest::collection::vec(op(n, endpoints, bytes().boxed()), 1..MAX_OPS),
        )
            .prop_map(|(hub, spokes, ops)| Case {
                nics: std::iter::once(hub).chain(spokes).collect(),
                ops,
            })
    })
}

/// Sizes from a small set, zero included, so that flows started together
/// on one path tie.
fn crowded_bytes() -> impl Strategy<Value = u64> {
    (0usize..4).prop_map(|k| [0u64, 1 << 20, 4 << 20, 10_000_000][k])
}

/// Two to four nodes; most flows run 0→1, the rest 1→0, and a few anywhere.
fn crowded_case() -> impl Strategy<Value = Case> {
    (2usize..5).prop_flat_map(|n| {
        let nic = (hub_capacity(), hub_capacity(), loopback_capacity())
            .prop_map(|(up, down, lo)| [up, down, lo]);
        let endpoints = Union::weighted(vec![
            (6, Just((0usize, 1usize)).boxed()),
            (3, Just((1usize, 0usize)).boxed()),
            (1, (0..n, 0..n).boxed()),
        ])
        .boxed();
        (
            proptest::collection::vec(nic, n),
            proptest::collection::vec(op(n, endpoints, crowded_bytes().boxed()), 1..MAX_OPS),
        )
            .prop_map(|(nics, ops)| Case { nics, ops })
    })
}

const MAX_OPS: usize = 80;

fn nic_spec(caps: [f64; 3]) -> NicSpec {
    NicSpec {
        uplink: caps[UP],
        downlink: caps[DOWN],
        loopback: caps[LOOP],
    }
}

/// Ids that `net` has not issued at any point of a case: a second network
/// issues more ids than a case can start, and the tail of them is used.
fn unissued_ids() -> Vec<FlowId> {
    let mut donor: FlowNet<()> = FlowNet::new(vec![NicSpec::symmetric(1.0)]);
    let node = NodeId::new(0);
    let ids: Vec<FlowId> = (0..2 * MAX_OPS)
        .map(|_| donor.start_flow(node, node, 1, (), SimTime::ZERO))
        .collect();
    ids[MAX_OPS..].to_vec()
}

#[derive(Debug)]
struct RefFlow {
    id: FlowId,
    tag: u64,
    src: usize,
    dst: usize,
    bytes: u64,
    remaining: f64,
    rate: f64,
}

impl RefFlow {
    /// `(kind, node)` resources the flow consumes.
    fn resources(&self) -> Vec<(usize, usize)> {
        if self.src == self.dst {
            vec![(LOOP, self.src)]
        } else {
            vec![(UP, self.src), (DOWN, self.dst)]
        }
    }
}

/// The naive model: id-ordered flows, eager global refill, eager integration.
struct Reference {
    caps: Vec<[f64; 3]>,
    flows: Vec<RefFlow>,
    updated: SimTime,
    delivered_to: Vec<u64>,
    sent_from: Vec<u64>,
}

impl Reference {
    fn new(caps: Vec<[f64; 3]>) -> Self {
        let n = caps.len();
        Reference {
            caps,
            flows: Vec::new(),
            updated: SimTime::ZERO,
            delivered_to: vec![0; n],
            sent_from: vec![0; n],
        }
    }

    fn advance(&mut self, now: SimTime) {
        if now > self.updated {
            let dt = (now - self.updated).as_secs_f64();
            for f in &mut self.flows {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.updated = now;
    }

    /// Global progressive filling from scratch. The bottleneck scan walks
    /// resources in `(kind, node)` order and keeps the first of any shares
    /// within 1e-12 of each other.
    fn refill(&mut self) {
        let n = self.caps.len();
        let mut cap = self.caps.clone();
        let mut unfixed = vec![[0u32; 3]; n];
        for f in &self.flows {
            for (kind, node) in f.resources() {
                unfixed[node][kind] += 1;
            }
        }
        let mut fixed = vec![false; self.flows.len()];
        while fixed.iter().any(|&x| !x) {
            let mut best: Option<(f64, (usize, usize))> = None;
            for kind in [UP, DOWN, LOOP] {
                for node in 0..n {
                    let count = unfixed[node][kind];
                    if count == 0 {
                        continue;
                    }
                    let share = cap[node][kind].max(0.0) / f64::from(count);
                    if best.is_none_or(|(s, _)| share < s - 1e-12) {
                        best = Some((share, (kind, node)));
                    }
                }
            }
            let (share, bottleneck) = best.expect("an unfixed flow keeps its resources counted");
            for (i, f) in self.flows.iter_mut().enumerate() {
                if fixed[i] || !f.resources().contains(&bottleneck) {
                    continue;
                }
                fixed[i] = true;
                f.rate = share.max(0.0);
                for (kind, node) in f.resources() {
                    cap[node][kind] -= share;
                    unfixed[node][kind] -= 1;
                }
            }
        }
    }

    fn start(&mut self, id: FlowId, tag: u64, src: usize, dst: usize, bytes: u64, now: SimTime) {
        self.advance(now);
        self.flows.push(RefFlow {
            id,
            tag,
            src,
            dst,
            bytes,
            remaining: bytes as f64,
            rate: 0.0,
        });
        self.refill();
    }

    fn cancel(&mut self, id: FlowId, now: SimTime) -> Option<u64> {
        self.advance(now);
        let pos = self.flows.iter().position(|f| f.id == id)?;
        let flow = self.flows.remove(pos);
        self.refill();
        Some(flow.tag)
    }

    fn set_nic(&mut self, node: usize, caps: [f64; 3], now: SimTime) {
        self.advance(now);
        self.caps[node] = caps;
        self.refill();
    }

    /// Per-flow horizons; one past the last representable instant is none.
    fn next_completion(&self) -> Option<SimTime> {
        self.flows
            .iter()
            .filter(|f| f.rate > 0.0 || f.remaining <= 0.0)
            .filter_map(|f| {
                if f.remaining <= 0.0 {
                    return Some(self.updated);
                }
                let nanos = (f.remaining / f.rate * 1e9).ceil();
                if nanos >= u64::MAX as f64 {
                    return None;
                }
                let at = self.updated.as_nanos().checked_add(nanos as u64 + 1)?;
                Some(SimTime::from_nanos(at))
            })
            .min()
    }

    fn take_completed(&mut self, now: SimTime) -> Vec<(FlowId, u64)> {
        self.advance(now);
        let mut done = Vec::new();
        let mut live = Vec::new();
        for f in self.flows.drain(..) {
            if f.remaining <= DONE_EPS {
                self.delivered_to[f.dst] += f.bytes;
                self.sent_from[f.src] += f.bytes;
                done.push((f.id, f.tag));
            } else {
                live.push(f);
            }
        }
        self.flows = live;
        if !done.is_empty() {
            self.refill();
        }
        done
    }
}

/// Every observable of `net` must equal the model's, bit for bit.
fn assert_same(
    net: &mut FlowNet<u64>,
    model: &Reference,
    step: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        net.active_flows(),
        model.flows.len(),
        "step {}: active flows",
        step
    );
    let observed: Vec<(FlowId, u64, u64, u64)> = net
        .iter()
        .map(|(id, f)| (id, f.tag, f.rate().to_bits(), f.remaining_bytes().to_bits()))
        .collect();
    let expected: Vec<(FlowId, u64, u64, u64)> = model
        .flows
        .iter()
        .map(|f| (f.id, f.tag, f.rate.to_bits(), f.remaining.to_bits()))
        .collect();
    prop_assert_eq!(
        observed,
        expected,
        "step {}: (id, tag, rate, remaining) bits",
        step
    );
    prop_assert_eq!(
        net.next_completion(),
        model.next_completion(),
        "step {}: next completion",
        step
    );
    for node in 0..model.caps.len() {
        let id = NodeId::from(node);
        prop_assert_eq!(
            net.bytes_delivered_to(id),
            model.delivered_to[node],
            "step {}: delivered to {}",
            step,
            node
        );
        prop_assert_eq!(
            net.bytes_sent_from(id),
            model.sent_from[node],
            "step {}: sent from {}",
            step,
            node
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn flownet_matches_naive_reference(case in case()) {
        run_case(&case)?;
    }

    #[test]
    fn flownet_matches_naive_reference_on_hub_traffic(case in hub_case()) {
        run_case(&case)?;
    }

    #[test]
    fn flownet_matches_naive_reference_on_crowded_paths(case in crowded_case()) {
        run_case(&case)?;
    }
}

/// Replays `case` against `FlowNet` and the model, comparing after every
/// step.
fn run_case(case: &Case) -> Result<(), TestCaseError> {
    let unissued = unissued_ids();
    let mut net: FlowNet<u64> = FlowNet::new(case.nics.iter().map(|&c| nic_spec(c)).collect());
    let mut model = Reference::new(case.nics.clone());
    let mut now = SimTime::ZERO;
    let mut issued: Vec<FlowId> = Vec::new();
    let mut completed: Vec<FlowId> = Vec::new();
    for (step, op) in case.ops.iter().enumerate() {
        match *op {
            Op::Start {
                src,
                dst,
                bytes,
                dt,
            } => {
                now += SimDuration::from_nanos(dt);
                let tag = issued.len() as u64;
                let id = net.start_flow(NodeId::from(src), NodeId::from(dst), bytes, tag, now);
                prop_assert!(!issued.contains(&id), "step {step}: id {id} issued twice");
                issued.push(id);
                model.start(id, tag, src, dst, bytes, now);
            }
            Op::CancelLive { pick, dt } => {
                now += SimDuration::from_nanos(dt);
                if model.flows.is_empty() {
                    continue;
                }
                let id = model.flows[pick % model.flows.len()].id;
                let expected = model.cancel(id, now);
                prop_assert!(expected.is_some());
                prop_assert_eq!(
                    net.cancel_flow(id, now),
                    expected,
                    "step {}: cancel live {}",
                    step,
                    id
                );
            }
            Op::CancelCompleted { pick, dt } => {
                now += SimDuration::from_nanos(dt);
                if completed.is_empty() {
                    continue;
                }
                let id = completed[pick % completed.len()];
                prop_assert_eq!(model.cancel(id, now), None);
                prop_assert_eq!(
                    net.cancel_flow(id, now),
                    None,
                    "step {}: cancel completed {}",
                    step,
                    id
                );
            }
            Op::CancelUnissued { pick, dt } => {
                now += SimDuration::from_nanos(dt);
                let id = unissued[pick % unissued.len()];
                prop_assert!(net.flow(id).is_none(), "step {step}: {id} was never issued");
                prop_assert_eq!(model.cancel(id, now), None);
                prop_assert_eq!(
                    net.cancel_flow(id, now),
                    None,
                    "step {}: cancel unissued {}",
                    step,
                    id
                );
            }
            Op::SetNic { node, caps, dt } => {
                now += SimDuration::from_nanos(dt);
                net.set_nic(NodeId::from(node), nic_spec(caps), now);
                model.set_nic(node, caps, now);
            }
            Op::TakeAtNextCompletion => {
                let Some(at) = model.next_completion() else {
                    continue;
                };
                now = at;
                let done: Vec<(FlowId, u64)> = net
                    .take_completed(now)
                    .into_iter()
                    .map(|(id, f)| (id, f.tag))
                    .collect();
                let expected = model.take_completed(now);
                prop_assert!(
                    !expected.is_empty(),
                    "step {step}: nothing completes at the horizon"
                );
                prop_assert_eq!(&done, &expected, "step {}: completed at the horizon", step);
                completed.extend(done.iter().map(|&(id, _)| id));
            }
            Op::TakeLater { dt } => {
                now += SimDuration::from_nanos(dt);
                let done: Vec<(FlowId, u64)> = net
                    .take_completed(now)
                    .into_iter()
                    .map(|(id, f)| (id, f.tag))
                    .collect();
                prop_assert_eq!(
                    &done,
                    &model.take_completed(now),
                    "step {}: completed later",
                    step
                );
                completed.extend(done.iter().map(|&(id, _)| id));
            }
        }
        for &id in &completed {
            prop_assert!(
                net.flow(id).is_none(),
                "step {step}: completed {id} still active"
            );
        }
        assert_same(&mut net, &model, step)?;
    }
    Ok(())
}
