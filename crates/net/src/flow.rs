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
//! ## Paths
//!
//! Flows with the same `(src, dst)` consume the same resources, and
//! progressive filling fixes every unfixed member of a bottleneck at one
//! share, so they always get the same rate. The fill therefore works on
//! **paths**: one record per `(src, dst)` pair holding the number of active
//! flows on it and their common rate. Each flow stores its path id and
//! reads its rate through it. A path sits in a resource's member list while
//! it carries at least one flow, so the BFS and the fix loop visit paths,
//! not flows: on the storage NIC a few distinct paths carry dozens of flows.
//!
//! Resources are indexed densely (uplink `i`, downlink `n+i`, loopback
//! `2n+i`) and paths by a dense `(src, dst)` table, so the fill runs on flat
//! arrays: no hashing and no id lookups on the hot path. Flows live in a
//! dense vector in no particular order; nothing points into it, so removal
//! is a plain `swap_remove`. Id order is restored only where it is
//! observable: completed flows are sorted by id, and [`FlowNet::iter`] walks
//! a sorted position buffer. Between recomputations rates are constant, so
//! remaining bytes advance linearly and the earliest completion time is
//! exact.

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
    /// Copy of the path's rate, refreshed when the flow is handed out.
    rate: f64,
    started: SimTime,
    /// Index into [`FlowNet::paths`].
    path: u32,
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
}

/// The flows between one `(src, dst)` pair. They consume the same
/// resources, so the fill gives them all one rate.
#[derive(Debug)]
struct Path {
    src: NodeId,
    dst: NodeId,
    /// Active flows on the path.
    count: u32,
    /// Rate of each of those flows as of the last fill of the path's
    /// component.
    rate: f64,
}

/// The one or two dense resource indices a `src → dst` flow consumes, given
/// `n` nodes. Loopback flows consume a single resource.
fn resources(src: NodeId, dst: NodeId, n: usize) -> impl Iterator<Item = usize> {
    let pair = if src == dst {
        [Some(2 * n + src.index()), None]
    } else {
        [Some(src.index()), Some(n + dst.index())]
    };
    pair.into_iter().flatten()
}

/// Reusable buffers for component discovery and progressive filling.
/// Stamp arrays avoid clearing: an entry is "set" when it equals the
/// current fill's stamp.
#[derive(Debug, Default)]
struct FillScratch {
    /// Per-resource visited stamp (len `3n`).
    res_stamp: Vec<u64>,
    /// Per-path visited stamp.
    path_stamp: Vec<u64>,
    /// Per-path fixed-rate stamp.
    fixed_stamp: Vec<u64>,
    /// Current fill generation.
    stamp: u64,
    /// Resources of the component(s) being refilled (doubles as BFS queue).
    comp_res: Vec<u32>,
    /// Paths of the component(s) being refilled.
    comp_paths: Vec<u32>,
    /// Residual capacity per resource (valid only for `comp_res` entries
    /// that still carry unfixed flows).
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
    /// Every `(src, dst)` pair that has carried a flow, in order of first
    /// use. A record outlives its last flow and is reused by the next.
    paths: Vec<Path>,
    /// Path id of `(src, dst)` at `src * n + dst`, `u32::MAX` if unused.
    path_ids: Vec<u32>,
    /// Per-resource paths with at least one active flow (dense resource
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
    /// True when every path's `rate` reflects the current flow set.
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
            paths: Vec::new(),
            path_ids: vec![u32::MAX; n * n],
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
        let n = self.nics.len();
        assert!(
            src.index() < n && dst.index() < n,
            "flow endpoints out of range"
        );
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
        let path = self.path_id(src, dst);
        let record = &mut self.paths[path as usize];
        record.count += 1;
        let first = record.count == 1;
        for r in resources(src, dst, n) {
            if first {
                self.members[r].push(path);
            }
            self.mark_dirty(r);
        }
        self.flows.push((
            id,
            Flow {
                src,
                dst,
                bytes,
                tag,
                remaining: bytes as f64,
                rate: 0.0,
                started: now,
                path,
            },
        ));
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
    /// when no flow is active, every active flow is starved (zero rate), or
    /// the earliest completion lies beyond the last instant [`SimTime`] can
    /// represent (about 584 years) — a flow that slow is starved in all but
    /// name, and the next mutation brings a fresh horizon.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.ensure_rates();
        let mut soonest: Option<f64> = None;
        for (_, f) in &self.flows {
            if f.remaining <= 0.0 {
                return Some(self.updated);
            }
            let rate = self.paths[f.path as usize].rate;
            if rate > 0.0 {
                let secs = f.remaining / rate;
                soonest = Some(soonest.map_or(secs, |s| s.min(secs)));
            }
        }
        // Round *up* with a 1 ns margin so that advancing to the returned
        // instant always pushes `remaining` to (or below) zero — rounding
        // to nearest would strand a fraction of a byte and loop the
        // completion timer at one timestamp forever. The conversion is
        // monotone, so converting the minimum quotient is exact.
        let nanos = (soonest? * 1e9).ceil();
        if nanos >= u64::MAX as f64 {
            return None;
        }
        let at = self.updated.as_nanos().checked_add(nanos as u64 + 1)?;
        Some(SimTime::from_nanos(at))
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
        let (_, flow) = self.flows.iter_mut().find(|e| e.0 == id.0)?;
        flow.rate = self.paths[flow.path as usize].rate;
        Some(flow)
    }

    /// Iterates over active flows in ascending id order.
    pub fn iter(&mut self) -> impl Iterator<Item = (FlowId, &Flow<T>)> {
        self.ensure_rates();
        for (_, flow) in &mut self.flows {
            flow.rate = self.paths[flow.path as usize].rate;
        }
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

    /// The path id of `(src, dst)`, creating its record on first use.
    fn path_id(&mut self, src: NodeId, dst: NodeId) -> u32 {
        let slot = &mut self.path_ids[src.index() * self.nics.len() + dst.index()];
        if *slot == u32::MAX {
            *slot = self.paths.len() as u32;
            self.paths.push(Path {
                src,
                dst,
                count: 0,
                rate: 0.0,
            });
        }
        *slot
    }

    /// Detaches the flow at `pos`: swap-removes it, marks its resources
    /// dirty, and drops its path from their member lists if it was the
    /// path's last flow.
    fn remove_at(&mut self, pos: usize) -> (u64, Flow<T>) {
        let (id, mut flow) = self.flows.swap_remove(pos);
        let path = &mut self.paths[flow.path as usize];
        path.count -= 1;
        flow.rate = path.rate;
        let last = path.count == 0;
        for r in resources(flow.src, flow.dst, self.nics.len()) {
            if last {
                let members = &mut self.members[r];
                let k = members
                    .iter()
                    .position(|&p| p == flow.path)
                    .expect("member lists track every path with flows");
                members.swap_remove(k);
            }
            self.mark_dirty(r);
        }
        (id, flow)
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
                let rate = self.paths[flow.path as usize].rate;
                flow.remaining = (flow.remaining - rate * dt).max(0.0);
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
        let FlowNet {
            nics,
            paths,
            members,
            dirty,
            scratch: s,
            ..
        } = self;
        let n = nics.len();
        s.stamp += 1;
        let stamp = s.stamp;
        s.res_stamp.resize(3 * n, 0);
        s.remaining_cap.resize(3 * n, 0.0);
        s.unfixed.resize(3 * n, 0);
        s.path_stamp.resize(paths.len(), 0);
        s.fixed_stamp.resize(paths.len(), 0);
        s.comp_res.clear();
        s.comp_paths.clear();

        // Component discovery: BFS over the path↔resource bipartite graph
        // from every dirty seed. `comp_res` doubles as the queue.
        for &r in dirty.iter() {
            let r = r as usize;
            if s.res_stamp[r] != stamp && !members[r].is_empty() {
                s.res_stamp[r] = stamp;
                s.comp_res.push(r as u32);
            }
        }
        dirty.clear();
        let mut head = 0;
        while head < s.comp_res.len() {
            let r = s.comp_res[head] as usize;
            head += 1;
            for &p in &members[r] {
                if s.path_stamp[p as usize] == stamp {
                    continue;
                }
                s.path_stamp[p as usize] = stamp;
                s.comp_paths.push(p);
                let path = &paths[p as usize];
                for r in resources(path.src, path.dst, n) {
                    if s.res_stamp[r] != stamp {
                        s.res_stamp[r] = stamp;
                        s.comp_res.push(r as u32);
                    }
                }
            }
        }

        // Deterministic bottleneck scan order: ascending dense index, which
        // equals the (kind, node) order the tie-break key requires.
        s.comp_res.sort_unstable();
        for &r in &s.comp_res {
            s.remaining_cap[r as usize] = capacity(nics, r as usize);
            s.unfixed[r as usize] = 0;
        }
        for &p in &s.comp_paths {
            let path = &paths[p as usize];
            for r in resources(path.src, path.dst, n) {
                s.unfixed[r] += path.count;
            }
        }

        // Progressive filling restricted to the component: repeatedly pick
        // the resource with the smallest fair share among those still
        // carrying unfixed flows, and fix its paths at that share. Rates in
        // a component are independent of all other components, so this is
        // bitwise the allocation a global fill would produce.
        let mut unfixed_paths = s.comp_paths.len();
        while unfixed_paths > 0 {
            let mut best: Option<(f64, usize)> = None;
            for &r in &s.comp_res {
                let count = s.unfixed[r as usize];
                if count == 0 {
                    continue;
                }
                let share = s.remaining_cap[r as usize].max(0.0) / f64::from(count);
                // Ascending scan: on an epsilon tie the earlier (smaller
                // key) resource wins, matching the reference tie-break.
                if best.is_none_or(|(b, _)| share < b - 1e-12) {
                    best = Some((share, r as usize));
                }
            }
            let Some((share, bottleneck)) = best else {
                break; // every remaining flow is on empty resources
            };
            // Every flow fixed in this round subtracts the same `share`, so
            // neither the member-list order nor the grouping into paths can
            // change any float: a path subtracts it once per flow. A
            // resource left without unfixed flows is never read again in
            // this fill, so it skips the subtraction.
            for &p in &members[bottleneck] {
                if s.fixed_stamp[p as usize] == stamp {
                    continue;
                }
                s.fixed_stamp[p as usize] = stamp;
                unfixed_paths -= 1;
                let path = &mut paths[p as usize];
                path.rate = share.max(0.0);
                for r in resources(path.src, path.dst, n) {
                    s.unfixed[r] -= path.count;
                    if s.unfixed[r] > 0 {
                        for _ in 0..path.count {
                            s.remaining_cap[r] -= share;
                        }
                    }
                }
            }
        }

        #[cfg(debug_assertions)]
        {
            self.assert_paths_consistent();
            self.assert_matches_reference_fill();
        }
    }

    /// Debug cross-check of the path bookkeeping: every path's `count` is
    /// the number of active flows on it, and each resource's member list
    /// holds exactly the paths with flows that use that resource.
    #[cfg(debug_assertions)]
    fn assert_paths_consistent(&self) {
        let n = self.nics.len();
        let mut counts = vec![0u32; self.paths.len()];
        for (id, flow) in &self.flows {
            let path = &self.paths[flow.path as usize];
            assert!(
                (path.src, path.dst) == (flow.src, flow.dst),
                "flow {id} is on the wrong path"
            );
            counts[flow.path as usize] += 1;
        }
        let mut expected = vec![Vec::new(); 3 * n];
        for (p, path) in self.paths.iter().enumerate() {
            assert_eq!(
                path.count, counts[p],
                "path {}→{} count is not its active flows",
                path.src, path.dst
            );
            if path.count > 0 {
                for r in resources(path.src, path.dst, n) {
                    expected[r].push(p as u32);
                }
            }
        }
        for (r, expected) in expected.iter().enumerate() {
            let mut listed = self.members[r].clone();
            listed.sort_unstable();
            assert_eq!(&listed, expected, "member list of resource {r}");
        }
    }

    /// Debug cross-check: every flow's rate must be bitwise identical to
    /// what a full (global, from-scratch, per-flow) progressive filling
    /// assigns. This is the invariant that makes incremental per-path
    /// refills safe.
    #[cfg(debug_assertions)]
    fn assert_matches_reference_fill(&self) {
        let reference = self.reference_rates();
        for (pos, (id, flow)) in self.flows.iter().enumerate() {
            let rate = self.paths[flow.path as usize].rate;
            assert!(
                rate.to_bits() == reference[pos].to_bits(),
                "incremental fill diverged from full fill for flow {id}: \
                 incremental {rate} vs reference {reference}",
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
        for r in self
            .flows
            .iter()
            .flat_map(|(_, f)| resources(f.src, f.dst, n))
        {
            cap[r] = capacity(&self.nics, r);
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
                if fixed[pos] || !resources(f.src, f.dst, n).any(|r| r == bottleneck) {
                    continue;
                }
                fixed[pos] = true;
                fixed_n += 1;
                rate[pos] = share.max(0.0);
                for r in resources(f.src, f.dst, n) {
                    cap[r] -= share;
                    unfixed[r] -= 1;
                }
            }
        }
        rate
    }
}

/// Capacity of a dense resource index.
fn capacity(nics: &[NicSpec], r: usize) -> f64 {
    let n = nics.len();
    if r < n {
        nics[r].uplink
    } else if r < 2 * n {
        nics[r - n].downlink
    } else {
        nics[r - 2 * n].loopback
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
    fn a_horizon_past_the_last_instant_is_no_completion() {
        // 1 GB at 1e-3 B/s finishes in 1e12 s, far past the ~584 years of
        // nanoseconds a SimTime holds: reported like a starved flow.
        let mut net: FlowNet<u32> =
            FlowNet::new(vec![NicSpec::symmetric(1e-3), NicSpec::symmetric(100e6)]);
        net.start_flow(NodeId::new(0), NodeId::new(1), 1_000_000_000, 1, t(0.0));
        assert_eq!(net.next_completion(), None);
        // Restoring the NIC brings the horizon back: ~1e9 bytes at 100 MB/s.
        net.set_nic(NodeId::new(0), NicSpec::symmetric(100e6), t(1.0));
        assert_near(net.next_completion(), t(11.0));

        // A duration that fits but lands past the last instant: 1e10 s
        // after t = 1e10 s is 2e19 ns.
        let mut net: FlowNet<u32> =
            FlowNet::new(vec![NicSpec::symmetric(0.1), NicSpec::symmetric(100e6)]);
        net.start_flow(NodeId::new(0), NodeId::new(1), 1_000_000_000, 1, t(1e10));
        assert_eq!(net.next_completion(), None);
    }

    #[test]
    fn a_path_emptied_and_refilled_rejoins_its_resources() {
        let mut net = two_node_net();
        let a = net.start_flow(NodeId::new(0), NodeId::new(1), 100_000_000, 1, t(0.0));
        net.start_flow(NodeId::new(1), NodeId::new(0), 100_000_000, 2, t(0.0));
        assert_eq!(net.cancel_flow(a, t(0.1)), Some(1));
        assert_near(net.next_completion(), t(1.0));
        // The 0 -> 1 path is empty; two new flows on it split its uplink.
        net.start_flow(NodeId::new(0), NodeId::new(1), 50_000_000, 3, t(0.2));
        net.start_flow(NodeId::new(0), NodeId::new(1), 50_000_000, 4, t(0.2));
        let rates: Vec<(u32, f64)> = net.iter().map(|(_, f)| (f.tag, f.rate())).collect();
        assert_eq!(rates, vec![(2, 100e6), (3, 50e6), (4, 50e6)]);
        assert_eq!(net.paths.len(), 2, "the emptied path record is reused");
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
