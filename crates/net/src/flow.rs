//! Max-min fair flow network.
//!
//! Every bulk data transfer in the cluster (remote-store reads and writes,
//! §2.4's data-shipping pattern) is a [`Flow`] from a source node to a
//! destination node. A flow consumes the source's uplink and the
//! destination's downlink; rates are assigned by **progressive filling**,
//! which yields the unique max-min fair allocation — the classic fluid model
//! of TCP fair share over a shared bottleneck (here: the storage node NIC).
//!
//! ## Incremental recomputation
//!
//! Max-min allocation decomposes over connected components of the
//! flow↔resource bipartite graph: rates in one component are independent
//! of every other component. The network exploits that two ways:
//!
//! * **Lazily** — mutations (start/cancel/completion/NIC change) only mark
//!   the touched resources dirty; the actual fill runs at the next rate
//!   read. Starting k flows at one instant costs one recomputation, not k.
//! * **Locally** — the fill walks the component(s) reachable from the
//!   dirty resources and re-fills only those; flows in untouched
//!   components keep their rates, which are bitwise what a full fill
//!   would assign (debug builds assert exactly that against a reference
//!   full progressive filling after every fill).
//!
//! Resources are indexed densely (uplink `i`, downlink `n+i`, loopback
//! `2n+i`), and flows live in a dense vector in no particular order whose
//! positions the per-resource member lists hold, so the fill runs on flat
//! arrays: no hashing and no id lookups on the hot path. A removal
//! swap-removes the flow and repoints the moved flow's member entries. Id
//! order is restored only where it is observable: completed flows are
//! sorted by id, and [`FlowNet::iter`] walks a sorted position buffer.
//! Between recomputations rates are constant, so remaining bytes advance
//! linearly and the earliest completion time is exact.

use faasflow_sim::{NodeId, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of an active (or completed) flow within one [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(u64);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// NIC capacities of one node, in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NicSpec {
    /// Uplink (egress) capacity in bytes/s.
    pub uplink: f64,
    /// Downlink (ingress) capacity in bytes/s.
    pub downlink: f64,
    /// Loopback capacity for `src == dst` flows, in bytes/s. Loopback does
    /// not consume the NIC (default 2 GB/s, roughly memcpy-through-pagecache).
    pub loopback: f64,
}

impl NicSpec {
    /// A NIC with equal uplink and downlink capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is negative or non-finite.
    pub fn symmetric(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec >= 0.0,
            "NIC capacity must be finite and non-negative"
        );
        NicSpec {
            uplink: bytes_per_sec,
            downlink: bytes_per_sec,
            loopback: 2e9,
        }
    }
}

/// One bulk transfer in progress.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow<T> {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total size of the transfer in bytes.
    pub bytes: u64,
    /// Caller-supplied payload returned on completion.
    pub tag: T,
    remaining: f64,
    rate: f64,
    started: SimTime,
}

impl<T> Flow<T> {
    /// Bytes still to transfer at the last recomputation instant.
    pub fn remaining_bytes(&self) -> f64 {
        self.remaining
    }

    /// Current max-min fair rate in bytes/s.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Instant the flow was started.
    pub fn started(&self) -> SimTime {
        self.started
    }

    /// The one or two dense resource indices this flow consumes, given
    /// `n` nodes. Loopback flows consume a single resource.
    fn resources(&self, n: usize) -> impl Iterator<Item = usize> {
        let pair = if self.src == self.dst {
            [Some(2 * n + self.src.index()), None]
        } else {
            [Some(self.src.index()), Some(n + self.dst.index())]
        };
        pair.into_iter().flatten()
    }
}

/// Reusable buffers for component discovery and progressive filling.
/// Stamp arrays avoid clearing: an entry is "set" when it equals the
/// current fill's stamp.
#[derive(Debug, Default)]
struct FillScratch {
    /// Per-resource visited stamp (len `3n`).
    res_stamp: Vec<u64>,
    /// Per-flow-position visited stamp.
    flow_stamp: Vec<u64>,
    /// Per-flow-position fixed-rate stamp.
    fixed_stamp: Vec<u64>,
    /// Current fill generation.
    stamp: u64,
    /// Resources of the component(s) being refilled (doubles as BFS queue).
    comp_res: Vec<u32>,
    /// Flow positions of the component(s) being refilled.
    comp_flows: Vec<u32>,
    /// Residual capacity per resource (valid only for `comp_res` entries).
    remaining_cap: Vec<f64>,
    /// Unfixed-flow count per resource (valid only for `comp_res` entries).
    unfixed: Vec<u32>,
}

/// A max-min fair flow network over a fixed set of nodes.
///
/// `T` is the caller's per-flow payload (e.g. "this transfer is the output
/// of function 12 of invocation 7"), handed back when the flow completes.
#[derive(Debug)]
pub struct FlowNet<T> {
    nics: Vec<NicSpec>,
    /// Active flows, dense and in no particular order. Removal is a
    /// `swap_remove`; finding a flow by id is a linear scan (cancel and
    /// `flow` only, both off the hot path).
    flows: Vec<(u64, Flow<T>)>,
    /// Per-resource member flows as positions into `flows` (dense resource
    /// index, len `3n`).
    members: Vec<Vec<u32>>,
    next_id: u64,
    /// Instant up to which all `remaining` fields are accurate.
    updated: SimTime,
    /// Total bytes delivered, per destination node (utilisation accounting).
    delivered_to: Vec<u64>,
    /// Total bytes sent, per source node.
    sent_from: Vec<u64>,
    /// Dirty seed resources accumulated since the last fill (may repeat).
    dirty: Vec<u32>,
    /// True when every flow's `rate` reflects the current flow set.
    rates_current: bool,
    scratch: FillScratch,
    /// Positions of `flows` in ascending id order, rebuilt by `iter`.
    order: Vec<u32>,
}

impl<T> FlowNet<T> {
    /// Creates a network over `nics.len()` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nics` is empty or any capacity is invalid (see
    /// [`FlowNet::set_nic`]).
    pub fn new(nics: Vec<NicSpec>) -> Self {
        assert!(!nics.is_empty(), "a flow network needs at least one node");
        nics.iter().for_each(validate_nic);
        let n = nics.len();
        FlowNet {
            nics,
            flows: Vec::new(),
            members: vec![Vec::new(); 3 * n],
            next_id: 0,
            updated: SimTime::ZERO,
            delivered_to: vec![0; n],
            sent_from: vec![0; n],
            dirty: Vec::new(),
            rates_current: true,
            scratch: FillScratch::default(),
            order: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nics.len()
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes fully delivered to `node` since construction.
    pub fn bytes_delivered_to(&self, node: NodeId) -> u64 {
        self.delivered_to[node.index()]
    }

    /// Total bytes fully sent from `node` since construction.
    pub fn bytes_sent_from(&self, node: NodeId) -> u64 {
        self.sent_from[node.index()]
    }

    /// Re-throttles a node's NIC (the wondershaper experiments, §5.4).
    ///
    /// Active flows receive new fair rates before the next rate read.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, capacities are negative/non-finite,
    /// the loopback capacity is zero, or `now` precedes the latest update.
    pub fn set_nic(&mut self, node: NodeId, nic: NicSpec, now: SimTime) {
        validate_nic(&nic);
        self.advance(now);
        let n = self.nics.len();
        let i = node.index();
        self.nics[i] = nic;
        self.mark_dirty(i);
        self.mark_dirty(n + i);
        self.mark_dirty(2 * n + i);
    }

    /// Starts a transfer of `bytes` from `src` to `dst`.
    ///
    /// A zero-byte flow is legal and completes at `now`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `now` precedes the latest
    /// update instant.
    pub fn start_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: T,
        now: SimTime,
    ) -> FlowId {
        assert!(
            src.index() < self.nics.len() && dst.index() < self.nics.len(),
            "flow endpoints out of range"
        );
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
        let flow = Flow {
            src,
            dst,
            bytes,
            tag,
            remaining: bytes as f64,
            rate: 0.0,
            started: now,
        };
        let pos = self.flows.len() as u32;
        for r in flow.resources(self.nics.len()) {
            self.members[r].push(pos);
            self.mark_dirty(r);
        }
        self.flows.push((id, flow));
        FlowId(id)
    }

    /// Cancels an active flow, returning its tag, or `None` if it already
    /// completed (or was cancelled).
    pub fn cancel_flow(&mut self, id: FlowId, now: SimTime) -> Option<T> {
        self.advance(now);
        let pos = self.flows.iter().position(|e| e.0 == id.0)?;
        Some(self.remove_at(pos).1.tag)
    }

    /// The earliest instant at which some active flow completes, or `None`
    /// when no flow is active or every active flow is starved (zero rate).
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.ensure_rates();
        let mut soonest: Option<f64> = None;
        for (_, f) in &self.flows {
            if f.remaining <= 0.0 {
                return Some(self.updated);
            }
            if f.rate > 0.0 {
                let secs = f.remaining / f.rate;
                soonest = Some(soonest.map_or(secs, |s| s.min(secs)));
            }
        }
        // Round *up* with a 1 ns margin so that advancing to the returned
        // instant always pushes `remaining` to (or below) zero — rounding
        // to nearest would strand a fraction of a byte and loop the
        // completion timer at one timestamp forever. The conversion is
        // monotone, so converting the minimum quotient is exact.
        let nanos = (soonest? * 1e9).ceil() as u64 + 1;
        Some(self.updated + faasflow_sim::SimDuration::from_nanos(nanos))
    }

    /// Advances the fluid model to `now` and removes every flow that has
    /// completed by then, returning `(id, flow)` pairs sorted by flow id for
    /// determinism.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the latest update instant.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<(FlowId, Flow<T>)> {
        let mut out = Vec::new();
        self.take_completed_into(now, &mut out);
        out
    }

    /// Allocation-free variant of [`FlowNet::take_completed`]: appends the
    /// completed flows (sorted by id) to `out`, reusing its capacity.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the latest update instant.
    pub fn take_completed_into(&mut self, now: SimTime, out: &mut Vec<(FlowId, Flow<T>)>) {
        self.advance(now);
        // Epsilon: progressive filling works in f64 bytes; a flow within a
        // millionth of a byte of the end is done.
        const EPS: f64 = 1e-6;
        let first = out.len();
        let mut pos = 0;
        while pos < self.flows.len() {
            if self.flows[pos].1.remaining > EPS {
                pos += 1;
                continue;
            }
            // The swap moves an unvisited flow into `pos`: look again.
            let (id, flow) = self.remove_at(pos);
            self.delivered_to[flow.dst.index()] += flow.bytes;
            self.sent_from[flow.src.index()] += flow.bytes;
            out.push((FlowId(id), flow));
        }
        out[first..].sort_unstable_by_key(|e| e.0);
    }

    /// Read access to an active flow.
    pub fn flow(&mut self, id: FlowId) -> Option<&Flow<T>> {
        self.ensure_rates();
        self.flows.iter().find(|e| e.0 == id.0).map(|e| &e.1)
    }

    /// Iterates over active flows in ascending id order.
    pub fn iter(&mut self) -> impl Iterator<Item = (FlowId, &Flow<T>)> {
        self.ensure_rates();
        let flows = &self.flows;
        self.order.clear();
        self.order.extend(0..flows.len() as u32);
        self.order
            .sort_unstable_by_key(|&pos| flows[pos as usize].0);
        self.order.iter().map(move |&pos| {
            let (id, f) = &flows[pos as usize];
            (FlowId(*id), f)
        })
    }

    /// Detaches the flow at `pos`: drops it from its resources' member
    /// lists (marking them dirty), swap-removes it, and repoints the member
    /// entries of the flow that moved into `pos`.
    fn remove_at(&mut self, pos: usize) -> (u64, Flow<T>) {
        let n = self.nics.len();
        for r in self.flows[pos].1.resources(n) {
            repoint(&mut self.members[r], pos as u32, None);
            self.mark_dirty(r);
        }
        let removed = self.flows.swap_remove(pos);
        if let Some((_, moved)) = self.flows.get(pos) {
            let from = self.flows.len() as u32;
            for r in moved.resources(n) {
                repoint(&mut self.members[r], from, Some(pos as u32));
            }
        }
        removed
    }

    fn mark_dirty(&mut self, resource: usize) {
        self.rates_current = false;
        self.dirty.push(resource as u32);
    }

    /// Moves remaining-byte counters forward to `now` at current rates.
    fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.updated,
            "flow network time moved backwards: {now} < {}",
            self.updated
        );
        if now > self.updated {
            // Integration needs the rates that were in force since
            // `updated`; any mutations marked dirty earlier happened at
            // `updated` itself, so filling now is still correct.
            self.ensure_rates();
            let dt = (now - self.updated).as_secs_f64();
            for (_, flow) in &mut self.flows {
                flow.remaining = (flow.remaining - flow.rate * dt).max(0.0);
            }
        }
        self.updated = now;
    }

    /// Re-fills the component(s) reachable from the dirty resources.
    /// No-op when rates are already current.
    fn ensure_rates(&mut self) {
        if self.rates_current {
            return;
        }
        self.rates_current = true;
        let n3 = 3 * self.nics.len();
        let nf = self.flows.len();
        self.scratch.stamp += 1;
        let stamp = self.scratch.stamp;
        self.scratch.res_stamp.resize(n3, 0);
        self.scratch.remaining_cap.resize(n3, 0.0);
        self.scratch.unfixed.resize(n3, 0);
        if self.scratch.flow_stamp.len() < nf {
            self.scratch.flow_stamp.resize(nf, 0);
            self.scratch.fixed_stamp.resize(nf, 0);
        }
        self.scratch.comp_res.clear();
        self.scratch.comp_flows.clear();

        // Component discovery: BFS over the flow↔resource bipartite graph
        // from every dirty seed. `comp_res` doubles as the queue.
        for k in 0..self.dirty.len() {
            let r = self.dirty[k] as usize;
            if self.scratch.res_stamp[r] != stamp && !self.members[r].is_empty() {
                self.scratch.res_stamp[r] = stamp;
                self.scratch.comp_res.push(r as u32);
            }
        }
        self.dirty.clear();
        let mut head = 0;
        while head < self.scratch.comp_res.len() {
            let r = self.scratch.comp_res[head] as usize;
            head += 1;
            for k in 0..self.members[r].len() {
                let pos = self.members[r][k] as usize;
                if self.scratch.flow_stamp[pos] == stamp {
                    continue;
                }
                self.scratch.flow_stamp[pos] = stamp;
                self.scratch.comp_flows.push(pos as u32);
                for r in self.flows[pos].1.resources(self.nics.len()) {
                    if self.scratch.res_stamp[r] != stamp {
                        self.scratch.res_stamp[r] = stamp;
                        self.scratch.comp_res.push(r as u32);
                    }
                }
            }
        }

        // Deterministic bottleneck scan order: ascending dense index, which
        // equals the (kind, node) order the tie-break key requires.
        self.scratch.comp_res.sort_unstable();
        for k in 0..self.scratch.comp_res.len() {
            let r = self.scratch.comp_res[k] as usize;
            self.scratch.remaining_cap[r] = self.capacity(r);
            self.scratch.unfixed[r] = 0;
        }
        for k in 0..self.scratch.comp_flows.len() {
            let pos = self.scratch.comp_flows[k] as usize;
            for r in self.flows[pos].1.resources(self.nics.len()) {
                self.scratch.unfixed[r] += 1;
            }
        }

        // Progressive filling restricted to the component: repeatedly pick
        // the resource with the smallest fair share among those still
        // carrying unfixed flows, and fix its flows at that share. Rates in
        // a component are independent of all other components, so this is
        // bitwise the allocation a global fill would produce.
        let total = self.scratch.comp_flows.len();
        let mut fixed_n = 0;
        while fixed_n < total {
            let mut best: Option<(f64, usize)> = None;
            for k in 0..self.scratch.comp_res.len() {
                let r = self.scratch.comp_res[k] as usize;
                let count = self.scratch.unfixed[r];
                if count == 0 {
                    continue;
                }
                let share = self.scratch.remaining_cap[r].max(0.0) / f64::from(count);
                // Ascending scan: on an epsilon tie the earlier (smaller
                // key) resource wins, matching the reference tie-break.
                if best.is_none_or(|(s, _)| share < s - 1e-12) {
                    best = Some((share, r));
                }
            }
            let Some((share, bottleneck)) = best else {
                break; // every remaining flow is on empty resources
            };
            // Every flow fixed in this round subtracts the same `share`, so
            // the order of the member list cannot change any float.
            for k in 0..self.members[bottleneck].len() {
                let pos = self.members[bottleneck][k] as usize;
                if self.scratch.fixed_stamp[pos] == stamp {
                    continue;
                }
                self.scratch.fixed_stamp[pos] = stamp;
                fixed_n += 1;
                self.flows[pos].1.rate = share.max(0.0);
                for r in self.flows[pos].1.resources(self.nics.len()) {
                    self.scratch.remaining_cap[r] -= share;
                    self.scratch.unfixed[r] -= 1;
                }
            }
        }

        #[cfg(debug_assertions)]
        self.assert_matches_reference_fill();
    }

    /// Capacity of a dense resource index.
    fn capacity(&self, r: usize) -> f64 {
        let n = self.nics.len();
        if r < n {
            self.nics[r].uplink
        } else if r < 2 * n {
            self.nics[r - n].downlink
        } else {
            self.nics[r - 2 * n].loopback
        }
    }

    /// Debug cross-check: every flow's rate must be bitwise identical to
    /// what a full (global, from-scratch) progressive filling assigns.
    /// This is the invariant that makes incremental refills safe.
    #[cfg(debug_assertions)]
    fn assert_matches_reference_fill(&self) {
        let reference = self.reference_rates();
        for (pos, (id, flow)) in self.flows.iter().enumerate() {
            assert!(
                flow.rate.to_bits() == reference[pos].to_bits(),
                "incremental fill diverged from full fill for flow {id}: \
                 incremental {inc} vs reference {reference}",
                inc = flow.rate,
                reference = reference[pos],
            );
        }
    }

    /// Reference allocation: global progressive filling over all flows,
    /// computed from scratch. Debug-only; allocates freely.
    #[cfg(debug_assertions)]
    fn reference_rates(&self) -> Vec<f64> {
        let n = self.nics.len();
        let nf = self.flows.len();
        let mut cap = vec![0.0f64; 3 * n];
        let mut unfixed = vec![0u32; 3 * n];
        for r in self.flows.iter().flat_map(|(_, f)| f.resources(n)) {
            cap[r] = self.capacity(r);
            unfixed[r] += 1;
        }
        let mut rate = vec![0.0f64; nf];
        let mut fixed = vec![false; nf];
        let mut fixed_n = 0;
        while fixed_n < nf {
            let mut best: Option<(f64, usize)> = None;
            for (r, &count) in unfixed.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let share = cap[r].max(0.0) / f64::from(count);
                if best.is_none_or(|(s, _)| share < s - 1e-12) {
                    best = Some((share, r));
                }
            }
            let Some((share, bottleneck)) = best else {
                break;
            };
            for (pos, (_, f)) in self.flows.iter().enumerate() {
                if fixed[pos] || !f.resources(n).any(|r| r == bottleneck) {
                    continue;
                }
                fixed[pos] = true;
                fixed_n += 1;
                rate[pos] = share.max(0.0);
                for r in f.resources(n) {
                    cap[r] -= share;
                    unfixed[r] -= 1;
                }
            }
        }
        rate
    }
}

/// Replaces the entry `from` of a member list with `to`, or drops it.
fn repoint(members: &mut Vec<u32>, from: u32, to: Option<u32>) {
    let k = members
        .iter()
        .position(|&m| m == from)
        .expect("member lists track active flows");
    match to {
        Some(to) => members[k] = to,
        None => drop(members.swap_remove(k)),
    }
}

/// Panics unless every capacity is finite and non-negative and the
/// loopback capacity is positive.
fn validate_nic(nic: &NicSpec) {
    let caps = [nic.uplink, nic.downlink, nic.loopback];
    assert!(
        caps.iter().all(|c| c.is_finite() && *c >= 0.0) && nic.loopback > 0.0,
        "invalid NIC capacities"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_sim::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    /// Completion instants carry a deliberate +1–2 ns round-up margin.
    fn assert_near(actual: Option<SimTime>, expected: SimTime) {
        let actual = actual.expect("a completion is pending");
        let diff = actual.as_nanos().abs_diff(expected.as_nanos());
        assert!(
            diff <= 2,
            "completion {actual} not within 2ns of {expected}"
        );
    }

    fn two_node_net() -> FlowNet<u32> {
        FlowNet::new(vec![NicSpec::symmetric(100e6), NicSpec::symmetric(100e6)])
    }

    #[test]
    fn single_flow_runs_at_link_speed() {
        let mut net = two_node_net();
        net.start_flow(NodeId::new(0), NodeId::new(1), 100_000_000, 1, t(0.0));
        assert_near(net.next_completion(), t(1.0));
    }

    #[test]
    fn two_flows_share_a_downlink_fairly() {
        let mut net = two_node_net();
        net.start_flow(NodeId::new(0), NodeId::new(1), 50_000_000, 1, t(0.0));
        net.start_flow(NodeId::new(0), NodeId::new(1), 50_000_000, 2, t(0.0));
        // 50 MB each at 50 MB/s fair share -> both done at 1s.
        assert_near(net.next_completion(), t(1.0));
        let at = net.next_completion().unwrap();
        let done = net.take_completed(at);
        assert_eq!(done.len(), 2);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn departure_releases_bandwidth() {
        let mut net = two_node_net();
        net.start_flow(NodeId::new(0), NodeId::new(1), 50_000_000, 1, t(0.0));
        net.start_flow(NodeId::new(0), NodeId::new(1), 100_000_000, 2, t(0.0));
        // Share 50/50 until flow 1 finishes at t=1 (50MB at 50MB/s)...
        assert_near(net.next_completion(), t(1.0));
        let at = net.next_completion().unwrap();
        let done = net.take_completed(at);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.tag, 1);
        // ...then flow 2 has 50MB left at full 100MB/s -> t=1.5.
        assert_near(net.next_completion(), t(1.5));
    }

    #[test]
    fn distinct_bottlenecks_are_independent() {
        // Node 2 has a slow downlink; a flow to node 1 must be unaffected.
        let mut net: FlowNet<u32> = FlowNet::new(vec![
            NicSpec::symmetric(100e6),
            NicSpec::symmetric(100e6),
            NicSpec {
                uplink: 100e6,
                downlink: 10e6,
                loopback: 2e9,
            },
        ]);
        net.start_flow(NodeId::new(0), NodeId::new(1), 100_000_000, 1, t(0.0));
        net.start_flow(NodeId::new(0), NodeId::new(2), 10_000_000, 2, t(0.0));
        // Uplink of node 0 carries both: fair share would be 50/50, but the
        // node-2 flow is capped at 10 MB/s by its downlink, so the other
        // claims the residual 90 MB/s (max-min, not plain equal split).
        let f1_rate: Vec<f64> = net.iter().map(|(_, f)| f.rate()).collect();
        let mut rates = f1_rate.clone();
        rates.sort_by(f64::total_cmp);
        assert!((rates[0] - 10e6).abs() < 1.0, "slow flow pinned at 10MB/s");
        assert!((rates[1] - 90e6).abs() < 1.0, "fast flow gets residual");
    }

    #[test]
    fn storage_node_throttle_slows_everything() {
        let mut net = two_node_net();
        net.start_flow(NodeId::new(0), NodeId::new(1), 100_000_000, 1, t(0.0));
        // Re-throttle destination downlink to 25 MB/s at t=0.5 (50MB sent).
        net.set_nic(NodeId::new(1), NicSpec::symmetric(25e6), t(0.5));
        // Remaining 50MB at 25MB/s -> completes at 0.5 + 2.0 = 2.5s.
        assert_near(net.next_completion(), t(2.5));
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = two_node_net();
        let id = net.start_flow(NodeId::new(0), NodeId::new(1), 0, 7, t(0.0));
        assert_eq!(net.next_completion(), Some(t(0.0)));
        let done = net.take_completed(t(0.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id);
    }

    #[test]
    fn loopback_does_not_consume_nic() {
        let mut net = two_node_net();
        // A big loopback flow on node 0...
        net.start_flow(NodeId::new(0), NodeId::new(0), 1_000_000_000, 1, t(0.0));
        // ...must not slow a cross-node flow.
        net.start_flow(NodeId::new(0), NodeId::new(1), 100_000_000, 2, t(0.0));
        let rates: Vec<(u32, f64)> = net.iter().map(|(_, f)| (f.tag, f.rate())).collect();
        let cross = rates.iter().find(|(tag, _)| *tag == 2).unwrap().1;
        assert!((cross - 100e6).abs() < 1.0);
        let local = rates.iter().find(|(tag, _)| *tag == 1).unwrap().1;
        assert!((local - 2e9).abs() < 1.0);
    }

    #[test]
    fn cancel_returns_tag_and_frees_capacity() {
        let mut net = two_node_net();
        let a = net.start_flow(NodeId::new(0), NodeId::new(1), 100_000_000, 10, t(0.0));
        net.start_flow(NodeId::new(0), NodeId::new(1), 100_000_000, 20, t(0.0));
        assert_eq!(net.cancel_flow(a, t(0.1)), Some(10));
        assert_eq!(net.cancel_flow(a, t(0.1)), None);
        // Survivor now runs at full speed: 100MB total, 5MB done in the
        // shared phase (50MB/s * 0.1s), 95MB left at 100MB/s -> 0.1+0.95.
        let expected = t(0.1) + SimDuration::from_secs_f64(0.95);
        assert_near(net.next_completion(), expected);
    }

    #[test]
    fn delivered_bytes_accounting() {
        let mut net = two_node_net();
        net.start_flow(NodeId::new(0), NodeId::new(1), 1000, 1, t(0.0));
        let _ = net.take_completed(t(1.0));
        assert_eq!(net.bytes_delivered_to(NodeId::new(1)), 1000);
        assert_eq!(net.bytes_sent_from(NodeId::new(0)), 1000);
        assert_eq!(net.bytes_delivered_to(NodeId::new(0)), 0);
    }

    #[test]
    fn many_flows_rates_sum_within_capacity() {
        let mut net: FlowNet<usize> = FlowNet::new(vec![
            NicSpec::symmetric(50e6),
            NicSpec::symmetric(100e6),
            NicSpec::symmetric(30e6),
        ]);
        for i in 0..20 {
            let src = NodeId::new((i % 3) as u32);
            let dst = NodeId::new(((i + 1) % 3) as u32);
            net.start_flow(src, dst, 10_000_000, i, t(0.0));
        }
        // Invariant: per-resource sum of rates <= capacity (+eps).
        let mut up = [0.0f64; 3];
        let mut down = [0.0f64; 3];
        for (_, f) in net.iter() {
            up[f.src.index()] += f.rate();
            down[f.dst.index()] += f.rate();
        }
        let caps = [50e6, 100e6, 30e6];
        for i in 0..3 {
            assert!(up[i] <= caps[i] + 1e-3, "uplink {i} oversubscribed");
            assert!(down[i] <= caps[i] + 1e-3, "downlink {i} oversubscribed");
        }
    }

    #[test]
    fn batched_starts_match_sequential_reads() {
        // k starts at one instant cost one recompute; the resulting rates
        // must equal what per-start recomputation would have produced
        // (the debug cross-check verifies against the full fill too).
        let mut net = two_node_net();
        for i in 0..10 {
            net.start_flow(NodeId::new(0), NodeId::new(1), 10_000_000, i, t(0.0));
        }
        for (_, f) in net.iter() {
            assert!((f.rate() - 10e6).abs() < 1.0, "fair share of 10 flows");
        }
    }

    #[test]
    fn incremental_refill_tracks_disjoint_components() {
        // Two disjoint flow groups; mutating one must leave the other's
        // rates untouched (and the debug cross-check proves they stay
        // exactly the full-fill allocation).
        let mut net: FlowNet<u32> = FlowNet::new(vec![
            NicSpec::symmetric(100e6),
            NicSpec::symmetric(100e6),
            NicSpec::symmetric(40e6),
            NicSpec::symmetric(40e6),
        ]);
        net.start_flow(NodeId::new(0), NodeId::new(1), 50_000_000, 1, t(0.0));
        let b = net.start_flow(NodeId::new(2), NodeId::new(3), 50_000_000, 2, t(0.0));
        net.start_flow(NodeId::new(2), NodeId::new(3), 50_000_000, 3, t(0.0));
        let rates: Vec<(u32, f64)> = net.iter().map(|(_, f)| (f.tag, f.rate())).collect();
        assert!((rates[0].1 - 100e6).abs() < 1.0);
        assert!((rates[1].1 - 20e6).abs() < 1.0);
        // Cancel one 40e6-group flow: its sibling doubles, group 1 stays.
        net.cancel_flow(b, t(0.1));
        let rates: Vec<(u32, f64)> = net.iter().map(|(_, f)| (f.tag, f.rate())).collect();
        assert_eq!(rates.len(), 2);
        assert!((rates[0].1 - 100e6).abs() < 1.0);
        assert!((rates[1].1 - 40e6).abs() < 1.0);
    }

    /// Six equal flows from node 0 to node 1; cancelling ids 0 and 2
    /// swaps later flows into their positions, so the dense table is no
    /// longer in id order.
    fn scrambled_net() -> (FlowNet<u32>, Vec<FlowId>) {
        let mut net = two_node_net();
        let ids: Vec<FlowId> = (0..6)
            .map(|tag| net.start_flow(NodeId::new(0), NodeId::new(1), 10_000_000, tag, t(0.0)))
            .collect();
        assert_eq!(net.cancel_flow(ids[0], t(0.1)), Some(0));
        assert_eq!(net.cancel_flow(ids[2], t(0.1)), Some(2));
        assert_ne!(net.flows[0].0, ids[1].0, "positions are scrambled");
        (net, ids)
    }

    #[test]
    fn simultaneous_completions_come_out_in_id_order() {
        let (mut net, ids) = scrambled_net();
        let at = net.next_completion().unwrap();
        let done = net.take_completed(at);
        let got: Vec<(FlowId, u32)> = done.iter().map(|(id, f)| (*id, f.tag)).collect();
        let want = vec![(ids[1], 1), (ids[3], 3), (ids[4], 4), (ids[5], 5)];
        assert_eq!(got, want);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn iter_yields_ascending_ids_after_swaps() {
        let (mut net, ids) = scrambled_net();
        let late = net.start_flow(NodeId::new(1), NodeId::new(0), 1, 6, t(0.2));
        let got: Vec<(FlowId, u32)> = net.iter().map(|(id, f)| (id, f.tag)).collect();
        let want = vec![
            (ids[1], 1),
            (ids[3], 3),
            (ids[4], 4),
            (ids[5], 5),
            (late, 6),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn cancelling_a_completed_flow_changes_nothing() {
        let mut net = two_node_net();
        let short = net.start_flow(NodeId::new(0), NodeId::new(1), 1000, 1, t(0.0));
        net.start_flow(NodeId::new(0), NodeId::new(1), 50_000_000, 2, t(0.0));
        net.start_flow(NodeId::new(1), NodeId::new(0), 70_000_000, 3, t(0.0));
        net.start_flow(NodeId::new(1), NodeId::new(1), 90_000_000, 4, t(0.0));
        let at = net.next_completion().unwrap();
        assert_eq!(net.take_completed(at)[0].0, short);
        let rates = |net: &mut FlowNet<u32>| -> Vec<(FlowId, u64)> {
            net.iter().map(|(id, f)| (id, f.rate().to_bits())).collect()
        };
        let before = rates(&mut net);
        assert_eq!(net.cancel_flow(short, at), None);
        assert_eq!(rates(&mut net), before);
        assert_eq!(net.active_flows(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid NIC capacities")]
    fn new_rejects_a_nan_capacity() {
        let mut bad = NicSpec::symmetric(100e6);
        bad.uplink = f64::NAN;
        let _: FlowNet<u32> = FlowNet::new(vec![NicSpec::symmetric(100e6), bad]);
    }

    #[test]
    #[should_panic(expected = "time moved backwards")]
    fn time_travel_panics() {
        let mut net = two_node_net();
        net.start_flow(NodeId::new(0), NodeId::new(1), 10, 1, t(1.0));
        net.start_flow(NodeId::new(0), NodeId::new(1), 10, 2, t(0.5));
    }
}
