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
//! **paths**: one record per `(src, dst)` pair holding its resources, its
//! active flows and their common rate. A path sits in a resource's member
//! list, and in the list of active paths, while it carries at least one
//! flow, so the BFS and the fix loop visit paths, not flows: on the storage
//! NIC a few distinct paths carry dozens of flows.
//!
//! Every flow on a path loses the same `rate·dt` on each advance, and both
//! the float subtraction and the clamp at zero are monotone, so the order
//! of a path's flows by remaining bytes never changes. Each path keeps its
//! flows in that order, descending, as a doubly linked list: its tail
//! finishes first. Finding the next completion takes one division per
//! active path, and a completion sweep pops finished flows off the tails.
//!
//! Resources are indexed densely (uplink `i`, downlink `n+i`, loopback
//! `2n+i`) and paths by a dense `(src, dst)` table, so the fill runs on flat
//! arrays: no hashing and no id lookups on the hot path. A flow lives in a
//! **slot** of three parallel dense arrays: remaining bytes, a small record
//! of id, path and list neighbours, and the payload. Advancing the clock is
//! one flat pass over the first two, and finding a flow by id scans the
//! second. Slots are in no particular order, and removal is a
//! `swap_remove` that repoints the moved slot's neighbours. Id order is
//! restored only where it is observable: completed flows are sorted by id,
//! and [`FlowNet::iter`] walks a sorted slot buffer. Between recomputations
//! rates are constant, so remaining bytes advance linearly and the earliest
//! completion time is exact.

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
    /// Copy of the slot's remaining bytes, refreshed when the flow is
    /// handed out.
    remaining: f64,
    /// Copy of the path's rate, refreshed when the flow is handed out.
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
}

/// An absent slot or path position: the end of a list, or a path that is
/// not in [`FlowNet::active`].
const NONE: u32 = u32::MAX;

/// A slot's flow id and its place in its path's list, which runs from the
/// most remaining bytes to the fewest.
#[derive(Debug, Clone, Copy)]
struct Link {
    id: u64,
    path: u32,
    /// Neighbour with at least as many bytes left, or [`NONE`].
    prev: u32,
    /// Neighbour with at most as many bytes left, or [`NONE`].
    next: u32,
}

/// The flows between one `(src, dst)` pair. They consume the same
/// resources, so the fill gives them all one rate.
#[derive(Debug)]
struct Path {
    /// Dense indices of the resources the path consumes: uplink and
    /// downlink, or the loopback alone (then `res[1]` is unused).
    res: [u32; 2],
    res_len: u8,
    /// Rate of each of the path's flows as of the last fill of its
    /// component.
    rate: f64,
    /// `rate * dt` of the step [`FlowNet::advance`] is integrating.
    step: f64,
    /// Active flows on the path.
    count: u32,
    /// Slot with the most bytes left, or [`NONE`].
    head: u32,
    /// Slot with the fewest bytes left, or [`NONE`]: it finishes first.
    tail: u32,
    /// Position in [`FlowNet::active`], or [`NONE`].
    active_pos: u32,
}

impl Path {
    fn new(src: NodeId, dst: NodeId, n: usize) -> Self {
        let (res, res_len) = if src == dst {
            ([(2 * n + src.index()) as u32, 0], 1)
        } else {
            ([src.index() as u32, (n + dst.index()) as u32], 2)
        };
        Path {
            res,
            res_len,
            rate: 0.0,
            step: 0.0,
            count: 0,
            head: NONE,
            tail: NONE,
            active_pos: NONE,
        }
    }

    fn resources(&self) -> &[u32] {
        &self.res[..usize::from(self.res_len)]
    }
}

/// One NIC direction: a node's uplink, downlink or loopback.
#[derive(Debug, Clone, Default)]
struct Resource {
    /// Capacity in bytes/s.
    cap: f64,
    /// Paths with at least one active flow that use the resource.
    members: Vec<u32>,
    /// Listed in [`FlowNet::dirty`].
    dirty: bool,
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
    /// Per dense resource index (len `3n`).
    resources: Vec<Resource>,
    /// Remaining bytes of the flow in each slot, as of `updated`.
    remaining: Vec<f64>,
    /// Id, path and list neighbours of the flow in each slot. Finding a
    /// flow by id is a linear scan (cancel and `flow` only, both off the
    /// hot path).
    links: Vec<Link>,
    /// The flow in each slot.
    payloads: Vec<Flow<T>>,
    /// Every `(src, dst)` pair that has carried a flow, in order of first
    /// use. A record outlives its last flow and is reused by the next.
    paths: Vec<Path>,
    /// Path id of `(src, dst)` at `src * n + dst`, `u32::MAX` if unused.
    path_ids: Vec<u32>,
    /// Paths with at least one active flow, in no particular order.
    active: Vec<u32>,
    next_id: u64,
    /// Instant up to which all `remaining` entries are accurate.
    updated: SimTime,
    /// Total bytes delivered, per destination node (utilisation accounting).
    delivered_to: Vec<u64>,
    /// Total bytes sent, per source node.
    sent_from: Vec<u64>,
    /// Resources touched since the last fill: the seeds of the next one.
    dirty: Vec<u32>,
    /// True when every path's `rate` reflects the current flow set.
    rates_current: bool,
    scratch: FillScratch,
    /// Slots in ascending id order (rebuilt by `iter`), or the slots a
    /// completion sweep takes.
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
            resources: (0..3 * n)
                .map(|r| Resource {
                    cap: capacity(&nics, r),
                    ..Resource::default()
                })
                .collect(),
            nics,
            remaining: Vec::new(),
            links: Vec::new(),
            payloads: Vec::new(),
            paths: Vec::new(),
            path_ids: vec![u32::MAX; n * n],
            active: Vec::new(),
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
        self.links.len()
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
        for r in [i, n + i, 2 * n + i] {
            self.resources[r].cap = capacity(&self.nics, r);
            self.mark_dirty(r);
        }
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
        let p = self.path_id(src, dst);
        self.reserve_slot();
        let slot = self.links.len() as u32;
        let remaining = bytes as f64;
        // Before every flow with as many bytes left or fewer: a new flow
        // usually has the most, so the walk is short.
        let (mut prev, mut next) = (NONE, self.paths[p as usize].head);
        while next != NONE && self.remaining[next as usize] > remaining {
            prev = next;
            next = self.links[next as usize].next;
        }
        let link = Link {
            id,
            path: p,
            prev,
            next,
        };
        self.splice(link, slot, slot);
        self.paths[p as usize].count += 1;
        self.remaining.push(remaining);
        self.links.push(link);
        self.payloads.push(Flow {
            src,
            dst,
            bytes,
            tag,
            remaining,
            rate: 0.0,
            started: now,
        });
        let path = &mut self.paths[p as usize];
        if path.active_pos == NONE {
            path.active_pos = self.active.len() as u32;
            self.active.push(p);
            for &r in path.resources() {
                self.resources[r as usize].members.push(p);
            }
        }
        let (res, len) = (path.res, usize::from(path.res_len));
        for &r in &res[..len] {
            self.mark_dirty(r as usize);
        }
        FlowId(id)
    }

    /// Cancels an active flow, returning its tag, or `None` if it already
    /// completed (or was cancelled).
    pub fn cancel_flow(&mut self, id: FlowId, now: SimTime) -> Option<T> {
        self.advance(now);
        let slot = self.links.iter().position(|l| l.id == id.0)? as u32;
        self.unlink(slot);
        Some(self.detach(slot).1.tag)
    }

    /// The earliest instant at which some active flow completes, or `None`
    /// when no flow is active, every active flow is starved (zero rate), or
    /// the earliest completion lies beyond the last instant [`SimTime`] can
    /// represent (about 584 years) — a flow that slow is starved in all but
    /// name, and the next mutation brings a fresh horizon.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.ensure_rates();
        let mut soonest: Option<f64> = None;
        for &p in &self.active {
            // A path's tail has the fewest bytes left, and all of its
            // flows share its rate: the tail finishes first.
            let path = &self.paths[p as usize];
            let remaining = self.remaining[path.tail as usize];
            if remaining <= 0.0 {
                return Some(self.updated);
            }
            if path.rate > 0.0 {
                let secs = remaining / path.rate;
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
        // The finished flows of a path are at its tail.
        let mut done = std::mem::take(&mut self.order);
        done.clear();
        for &p in &self.active {
            let mut slot = self.paths[p as usize].tail;
            while slot != NONE && self.remaining[slot as usize] <= EPS {
                done.push(slot);
                slot = self.links[slot as usize].prev;
            }
        }
        for &slot in &done {
            self.unlink(slot);
        }
        // Highest slot first: the slot a removal moves down is never one
        // still to be removed.
        done.sort_unstable_by(|a, b| b.cmp(a));
        let first = out.len();
        for &slot in &done {
            let (id, flow) = self.detach(slot);
            self.delivered_to[flow.dst.index()] += flow.bytes;
            self.sent_from[flow.src.index()] += flow.bytes;
            out.push((FlowId(id), flow));
        }
        self.order = done;
        out[first..].sort_unstable_by_key(|e| e.0);
    }

    /// Read access to an active flow.
    pub fn flow(&mut self, id: FlowId) -> Option<&Flow<T>> {
        self.ensure_rates();
        let slot = self.links.iter().position(|l| l.id == id.0)?;
        let flow = &mut self.payloads[slot];
        flow.remaining = self.remaining[slot];
        flow.rate = self.paths[self.links[slot].path as usize].rate;
        Some(flow)
    }

    /// Iterates over active flows in ascending id order.
    pub fn iter(&mut self) -> impl Iterator<Item = (FlowId, &Flow<T>)> {
        self.ensure_rates();
        for (slot, flow) in self.payloads.iter_mut().enumerate() {
            flow.remaining = self.remaining[slot];
            flow.rate = self.paths[self.links[slot].path as usize].rate;
        }
        let (links, payloads) = (&self.links, &self.payloads);
        self.order.clear();
        self.order.extend(0..links.len() as u32);
        self.order
            .sort_unstable_by_key(|&slot| links[slot as usize].id);
        self.order.iter().map(move |&slot| {
            let slot = slot as usize;
            (FlowId(links[slot].id), &payloads[slot])
        })
    }

    /// The path id of `(src, dst)`, creating its record on first use.
    fn path_id(&mut self, src: NodeId, dst: NodeId) -> u32 {
        let n = self.nics.len();
        let slot = &mut self.path_ids[src.index() * n + dst.index()];
        if *slot == u32::MAX {
            *slot = self.paths.len() as u32;
            self.paths.push(Path::new(src, dst, n));
        }
        *slot
    }

    /// Makes room for one more slot. The slot arrays grow together,
    /// doubling from 16 slots, so a new network pays one allocation per
    /// array for its first flows instead of a chain of small ones.
    fn reserve_slot(&mut self) {
        let len = self.links.len();
        if len == self.links.capacity() {
            let more = len.max(16);
            self.remaining.reserve_exact(more);
            self.links.reserve_exact(more);
            self.payloads.reserve_exact(more);
        }
    }

    /// Points the list entries around `at` — its `prev`'s `next` link (or
    /// its path's head) and its `next`'s `prev` link (or the tail) — at
    /// `after_prev` and `before_next`.
    fn splice(&mut self, at: Link, after_prev: u32, before_next: u32) {
        let path = &mut self.paths[at.path as usize];
        match at.prev {
            NONE => path.head = after_prev,
            prev => self.links[prev as usize].next = after_prev,
        }
        match at.next {
            NONE => path.tail = before_next,
            next => self.links[next as usize].prev = before_next,
        }
    }

    /// Takes `slot` out of its path's list.
    fn unlink(&mut self, slot: u32) {
        let link = self.links[slot as usize];
        self.splice(link, link.next, link.prev);
        self.paths[link.path as usize].count -= 1;
    }

    /// Frees `slot`, already unlinked: swap-removes it from the slot
    /// arrays, repoints the neighbours of the slot moved into its place,
    /// marks the flow's resources dirty, and retires the path if that was
    /// its last flow. Returns the flow with its remaining bytes and rate.
    fn detach(&mut self, slot: u32) -> (u64, Flow<T>) {
        let s = slot as usize;
        let remaining = self.remaining.swap_remove(s);
        let Link { id, path: p, .. } = self.links.swap_remove(s);
        let mut flow = self.payloads.swap_remove(s);
        if let Some(&moved) = self.links.get(s) {
            self.splice(moved, slot, slot);
        }
        let path = &mut self.paths[p as usize];
        flow.remaining = remaining;
        flow.rate = path.rate;
        let (res, len) = (path.res, usize::from(path.res_len));
        let retire = path.count == 0 && path.active_pos != NONE;
        if retire {
            let at = path.active_pos as usize;
            path.active_pos = NONE;
            self.active.swap_remove(at);
            if let Some(&q) = self.active.get(at) {
                self.paths[q as usize].active_pos = at as u32;
            }
        }
        for &r in &res[..len] {
            if retire {
                let members = &mut self.resources[r as usize].members;
                let k = members
                    .iter()
                    .position(|&q| q == p)
                    .expect("member lists track every path with flows");
                members.swap_remove(k);
            }
            self.mark_dirty(r as usize);
        }
        (id, flow)
    }

    fn mark_dirty(&mut self, resource: usize) {
        self.rates_current = false;
        let flag = &mut self.resources[resource].dirty;
        if !*flag {
            *flag = true;
            self.dirty.push(resource as u32);
        }
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
            for &p in &self.active {
                let path = &mut self.paths[p as usize];
                path.step = path.rate * dt;
            }
            // One flat pass: a loop nested per path costs more than the
            // gather on networks with few flows per path.
            let paths = &self.paths;
            for (remaining, link) in self.remaining.iter_mut().zip(&self.links) {
                *remaining = (*remaining - paths[link.path as usize].step).max(0.0);
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
            resources,
            paths,
            dirty,
            scratch: s,
            ..
        } = self;
        s.stamp += 1;
        let stamp = s.stamp;
        s.res_stamp.resize(resources.len(), 0);
        s.remaining_cap.resize(resources.len(), 0.0);
        s.unfixed.resize(resources.len(), 0);
        s.path_stamp.resize(paths.len(), 0);
        s.fixed_stamp.resize(paths.len(), 0);
        s.comp_res.clear();
        s.comp_paths.clear();

        // Component discovery: BFS over the path↔resource bipartite graph
        // from every dirty seed. `comp_res` doubles as the queue.
        for &r in dirty.iter() {
            let r = r as usize;
            resources[r].dirty = false;
            if s.res_stamp[r] != stamp && !resources[r].members.is_empty() {
                s.res_stamp[r] = stamp;
                s.comp_res.push(r as u32);
            }
        }
        dirty.clear();
        let mut head = 0;
        while head < s.comp_res.len() {
            let r = s.comp_res[head] as usize;
            head += 1;
            for &p in &resources[r].members {
                if s.path_stamp[p as usize] == stamp {
                    continue;
                }
                s.path_stamp[p as usize] = stamp;
                s.comp_paths.push(p);
                for &r in paths[p as usize].resources() {
                    if s.res_stamp[r as usize] != stamp {
                        s.res_stamp[r as usize] = stamp;
                        s.comp_res.push(r);
                    }
                }
            }
        }

        // Deterministic bottleneck scan order: ascending dense index, which
        // equals the (kind, node) order the tie-break key requires.
        s.comp_res.sort_unstable();
        for &r in &s.comp_res {
            s.remaining_cap[r as usize] = resources[r as usize].cap;
            s.unfixed[r as usize] = 0;
        }
        let mut unfixed_flows = 0;
        for &p in &s.comp_paths {
            let path = &paths[p as usize];
            unfixed_flows += path.count;
            for &r in path.resources() {
                s.unfixed[r as usize] += path.count;
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
            // When the bottleneck carries every unfixed flow, this round
            // fixes the rest and no residual is read again.
            let last_round = s.unfixed[bottleneck] == unfixed_flows;
            // Every flow fixed in this round subtracts the same `share`, so
            // neither the member-list order nor the grouping into paths can
            // change any float: a path subtracts it once per flow. A
            // resource left without unfixed flows is never read again in
            // this fill, so it skips the subtraction.
            for &p in &resources[bottleneck].members {
                if s.fixed_stamp[p as usize] == stamp {
                    continue;
                }
                s.fixed_stamp[p as usize] = stamp;
                unfixed_paths -= 1;
                let path = &mut paths[p as usize];
                path.rate = share.max(0.0);
                if last_round {
                    continue;
                }
                let count = path.count;
                unfixed_flows -= count;
                for &r in path.resources() {
                    let r = r as usize;
                    s.unfixed[r] -= count;
                    if s.unfixed[r] > 0 {
                        for _ in 0..count {
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

    /// Debug cross-check of the path bookkeeping: each path's list holds
    /// exactly the slots of its flows, by remaining bytes, descending, with
    /// consistent back links and `count`; the active list holds exactly the
    /// paths with flows; each resource's member list holds exactly the
    /// paths with flows that use that resource; and no resource is still
    /// marked dirty.
    #[cfg(debug_assertions)]
    fn assert_paths_consistent(&self) {
        let n = self.nics.len();
        let slots = self.links.len();
        assert_eq!(self.remaining.len(), slots, "remaining per slot");
        assert_eq!(self.payloads.len(), slots, "payload per slot");
        let mut listed = vec![0u32; slots];
        let mut expected = vec![Vec::new(); 3 * n];
        let mut active = 0;
        for (p, path) in self.paths.iter().enumerate() {
            let (mut prev, mut slot, mut count) = (NONE, path.head, 0);
            while slot != NONE {
                let link = self.links[slot as usize];
                let (id, flow) = (link.id, &self.payloads[slot as usize]);
                assert!(
                    link.path == p as u32
                        && self.path_ids[flow.src.index() * n + flow.dst.index()] == p as u32,
                    "flow {id} is on the wrong path"
                );
                assert_eq!(link.prev, prev, "back link of flow {id}");
                if prev != NONE {
                    assert!(
                        self.remaining[prev as usize] >= self.remaining[slot as usize],
                        "path {p} is not in descending remaining order at flow {id}"
                    );
                }
                listed[slot as usize] += 1;
                count += 1;
                (prev, slot) = (slot, link.next);
            }
            assert_eq!(path.tail, prev, "tail of path {p}");
            assert_eq!(path.count, count, "path {p} count is not its listed flows");
            assert_eq!(path.active_pos == NONE, count == 0, "path {p} activity");
            if count > 0 {
                assert_eq!(self.active[path.active_pos as usize], p as u32);
                active += 1;
                for &r in path.resources() {
                    expected[r as usize].push(p as u32);
                }
            }
        }
        assert!(
            listed.iter().all(|&k| k == 1),
            "every slot is on exactly one path"
        );
        assert_eq!(self.active.len(), active, "active paths");
        for (r, expected) in expected.iter().enumerate() {
            let mut listed = self.resources[r].members.clone();
            listed.sort_unstable();
            assert_eq!(&listed, expected, "member list of resource {r}");
            assert!(!self.resources[r].dirty, "resource {r} still marked dirty");
        }
    }

    /// Debug cross-check: every flow's rate must be bitwise identical to
    /// what a full (global, from-scratch, per-flow) progressive filling
    /// assigns. This is the invariant that makes incremental per-path
    /// refills safe.
    #[cfg(debug_assertions)]
    fn assert_matches_reference_fill(&self) {
        let reference = self.reference_rates();
        for (slot, link) in self.links.iter().enumerate() {
            let rate = self.paths[link.path as usize].rate;
            assert!(
                rate.to_bits() == reference[slot].to_bits(),
                "incremental fill diverged from full fill for flow {id}: \
                 incremental {rate} vs reference {reference}",
                id = link.id,
                reference = reference[slot],
            );
        }
    }

    /// Reference allocation: global progressive filling over all flows,
    /// computed from scratch from the NIC specs. Debug-only; allocates
    /// freely.
    #[cfg(debug_assertions)]
    fn reference_rates(&self) -> Vec<f64> {
        let n = self.nics.len();
        let nf = self.links.len();
        let resources = |f: &Flow<T>| -> Vec<usize> {
            if f.src == f.dst {
                vec![2 * n + f.src.index()]
            } else {
                vec![f.src.index(), n + f.dst.index()]
            }
        };
        let mut cap = vec![0.0f64; 3 * n];
        let mut unfixed = vec![0u32; 3 * n];
        for r in self.payloads.iter().flat_map(resources) {
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
            for (slot, f) in self.payloads.iter().enumerate() {
                if fixed[slot] || !resources(f).contains(&bottleneck) {
                    continue;
                }
                fixed[slot] = true;
                fixed_n += 1;
                rate[slot] = share.max(0.0);
                for r in resources(f) {
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

    /// Six equal flows from node 0 to node 1, with ids 0 and 2 cancelled
    /// out of the middle: removal moves later flows into the freed slots,
    /// so storage order is no longer id order.
    fn scrambled_net() -> (FlowNet<u32>, Vec<FlowId>) {
        let mut net = two_node_net();
        let ids: Vec<FlowId> = (0..6)
            .map(|tag| net.start_flow(NodeId::new(0), NodeId::new(1), 10_000_000, tag, t(0.0)))
            .collect();
        assert_eq!(net.cancel_flow(ids[0], t(0.1)), Some(0));
        assert_eq!(net.cancel_flow(ids[2], t(0.1)), Some(2));
        assert_eq!(net.active_flows(), 4);
        (net, ids)
    }

    /// Drains `net`, returning the tags of each sweep in order.
    fn drain_tags(net: &mut FlowNet<u32>) -> Vec<Vec<u32>> {
        let mut sweeps = Vec::new();
        while let Some(at) = net.next_completion() {
            sweeps.push(
                net.take_completed(at)
                    .into_iter()
                    .map(|(_, f)| f.tag)
                    .collect(),
            );
        }
        sweeps
    }

    #[test]
    fn staggered_flows_on_one_path_finish_in_remaining_order() {
        // One 100 MB/s path. 1 (30 MB) runs alone for 0.1 s, then beside
        // 2 (10 MB); at 0.2 s 3 (50 MB) and 4 (5 MB) join with 2 at 5 MB
        // left, so 2 and 4 tie. Start order is not completion order.
        let mut net = two_node_net();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        net.start_flow(a, b, 30_000_000, 1, t(0.0));
        net.start_flow(a, b, 10_000_000, 2, t(0.1));
        net.start_flow(a, b, 50_000_000, 3, t(0.2));
        net.start_flow(a, b, 5_000_000, 4, t(0.2));
        assert_near(net.next_completion(), t(0.4));
        assert_eq!(drain_tags(&mut net), vec![vec![2, 4], vec![1], vec![3]]);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn ties_and_zero_clamped_flows_leave_in_one_sweep_in_id_order() {
        let mut net = two_node_net();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for (tag, bytes) in [
            (0, 5_000_000),
            (1, 1_000_000),
            (2, 5_000_000),
            (3, 3_000_000),
        ] {
            net.start_flow(a, b, bytes, tag, t(0.0));
        }
        net.start_flow(b, a, 1_000_000, 4, t(0.05));
        // Re-setting a NIC to its own capacity only advances the clock:
        // at 10 s every flow has overshot its end and sits at exactly 0.
        net.set_nic(a, NicSpec::symmetric(100e6), t(10.0));
        assert_eq!(net.next_completion(), Some(t(10.0)));
        let done = net.take_completed(t(10.0));
        let tags: Vec<u32> = done.iter().map(|(_, f)| f.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        assert!(done.iter().all(|(_, f)| f.remaining_bytes() == 0.0));
        assert_eq!(net.next_completion(), None);
    }

    #[test]
    fn a_starved_path_sits_beside_a_live_one() {
        // Node 0's uplink is zero: its flow to node 1 is starved, while
        // node 2's flow to node 1 takes the whole downlink.
        let mut starved = NicSpec::symmetric(100e6);
        starved.uplink = 0.0;
        let mut net: FlowNet<u32> = FlowNet::new(vec![
            starved,
            NicSpec::symmetric(100e6),
            NicSpec::symmetric(100e6),
        ]);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        net.start_flow(a, b, 10_000_000, 1, t(0.0));
        net.start_flow(a, b, 20_000_000, 2, t(0.0));
        net.start_flow(c, b, 50_000_000, 3, t(0.0));
        assert_near(net.next_completion(), t(0.5));
        assert_eq!(drain_tags(&mut net), vec![vec![3]]);
        let left: Vec<(u32, f64, f64)> = net
            .iter()
            .map(|(_, f)| (f.tag, f.rate(), f.remaining_bytes()))
            .collect();
        assert_eq!(left, vec![(1, 0.0, 10e6), (2, 0.0, 20e6)]);
        // Restoring the uplink at 1 s lets both finish, shorter first.
        net.set_nic(a, NicSpec::symmetric(100e6), t(1.0));
        assert_near(net.next_completion(), t(1.2));
        assert_eq!(drain_tags(&mut net), vec![vec![1], vec![2]]);
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
