//! Deterministic resource time-series sampling.
//!
//! When [`crate::ClusterConfig::sample_every`] is set, the cluster
//! schedules a self-rescheduling `Sample` event on the simulation clock
//! and snapshots per-node gauges at each tick: container pool occupancy
//! (resident vs busy), queued admissions, FaaStore memstore usage vs its
//! reserved quota, and NIC throughput derived from the live [`FlowNet`]
//! rates — plus cluster-wide depths (pending simulator events, in-flight
//! invocations). Samples land in bounded ring buffers (oldest evicted and
//! counted once full) and are attached to [`crate::RunReport`] as a
//! [`ResourceSeriesReport`].
//!
//! Sampling reads state and draws no randomness, so enabling it cannot
//! perturb the schedule of other same-time events (the event queue breaks
//! ties by insertion order) — a sampled run and an unsampled run with the
//! same seed execute identically apart from the sampling itself.
//! `Sampler` owns the cadence, the rings and the report section;
//! `Cluster` keeps only the `Sample` event that drives it.

use faasflow_net::FlowNet;
use faasflow_sim::{NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::worker::Worker;

/// One per-node snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeSample {
    /// Sample instant, seconds of sim time.
    pub at_secs: f64,
    /// Containers resident on the node (warm idle + busy).
    pub containers: u64,
    /// Containers currently executing (busy cores; warm idle =
    /// `containers - busy`).
    pub busy: u64,
    /// Admission requests queued behind the container pool.
    pub queued_admissions: u64,
    /// FaaStore memstore bytes in use across all workflows.
    pub memstore_used_bytes: u64,
    /// FaaStore memstore reserved quota across all workflows.
    pub memstore_budget_bytes: u64,
    /// Instantaneous NIC transmit rate, bytes/s (loopback excluded).
    pub nic_tx_bytes_per_sec: f64,
    /// Instantaneous NIC receive rate, bytes/s (loopback excluded).
    pub nic_rx_bytes_per_sec: f64,
}

/// One cluster-wide snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSample {
    /// Sample instant, seconds of sim time.
    pub at_secs: f64,
    /// Events pending in the simulator queue.
    pub pending_events: u64,
    /// Invocations currently in flight.
    pub inflight_invocations: u64,
}

/// The sampled series of one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSeries {
    /// The node (0 = master/storage, 1.. = workers).
    pub node: NodeId,
    /// Samples in chronological order.
    pub samples: Vec<NodeSample>,
}

/// All sampled series of one run, attached to [`crate::RunReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceSeriesReport {
    /// The sampling cadence, seconds of sim time.
    pub sample_every_secs: f64,
    /// Samples evicted from full rings across all series.
    pub dropped_samples: u64,
    /// Per-node series, master first then workers in id order.
    pub nodes: Vec<NodeSeries>,
    /// Cluster-wide series.
    pub cluster: Vec<ClusterSample>,
}

/// Fixed-capacity ring that evicts the oldest entry (and counts it) when
/// full, so a sampler running for arbitrarily long sim time keeps the most
/// recent `cap` samples.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    cap: usize,
    start: usize,
    items: Vec<T>,
    evicted: u64,
}

impl<T: Clone> Ring<T> {
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Ring {
            cap,
            start: 0,
            items: Vec::new(),
            evicted: 0,
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            self.items[self.start] = item;
            self.start = (self.start + 1) % self.cap;
            self.evicted += 1;
        }
    }

    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained samples, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.items.len());
        out.extend_from_slice(&self.items[self.start..]);
        out.extend_from_slice(&self.items[..self.start]);
        out
    }
}

/// Ring-buffer capacity per sampled series of a cluster run; the oldest
/// samples are evicted (and counted) once full.
pub(crate) const SAMPLE_CAPACITY: usize = 4096;

/// The resource sampler: one bounded series per node (0 = master/storage)
/// plus the cluster-wide series.
#[derive(Debug)]
pub(crate) struct Sampler {
    /// Sampling cadence on the sim clock.
    pub(crate) every: SimDuration,
    node_rings: Vec<Ring<NodeSample>>,
    cluster_ring: Ring<ClusterSample>,
    /// Per-node flow rates (tx/rx bytes per second), reused each tick so
    /// sampling allocates nothing in steady state.
    tx: Vec<f64>,
    rx: Vec<f64>,
}

impl Sampler {
    pub(crate) fn new(every: SimDuration, nodes: usize, capacity: usize) -> Self {
        Sampler {
            every,
            node_rings: (0..nodes).map(|_| Ring::new(capacity)).collect(),
            cluster_ring: Ring::new(capacity),
            tx: vec![0.0; nodes],
            rx: vec![0.0; nodes],
        }
    }

    /// Reads every per-node gauge into the rings: worker `w`'s pool and
    /// memstore are node `w + 1`'s.
    pub(crate) fn take<T>(
        &mut self,
        now: SimTime,
        net: &mut FlowNet<T>,
        workers: &[Worker],
        pending_events: usize,
        inflight_invocations: usize,
    ) {
        let at_secs = now.as_secs_f64();
        // Instantaneous NIC rates from the live max-min fair shares, summed
        // flow by flow in id order (the float sum order is part of the
        // sampled output). Loopback flows (FaaStore local passing) consume
        // no NIC.
        self.tx.fill(0.0);
        self.rx.fill(0.0);
        for (_, flow) in net.iter() {
            if flow.src == flow.dst {
                continue;
            }
            let rate = flow.rate();
            self.tx[flow.src.index()] += rate;
            self.rx[flow.dst.index()] += rate;
        }
        for (node, ring) in self.node_rings.iter_mut().enumerate() {
            let mut sample = NodeSample {
                at_secs,
                nic_tx_bytes_per_sec: self.tx[node],
                nic_rx_bytes_per_sec: self.rx[node],
                ..NodeSample::default()
            };
            // The master/storage node runs no containers or memstore; its
            // interesting signal is the NIC (the §5.4 bottleneck).
            if let Some(w) = node.checked_sub(1) {
                let (pool, ms) = (&workers[w].pool, workers[w].store.memstore());
                sample.containers = pool.container_count() as u64;
                sample.busy = pool.stats().cores_busy.get();
                sample.queued_admissions = pool.queue_len() as u64;
                sample.memstore_used_bytes = ms.used_total();
                sample.memstore_budget_bytes = ms.budget_total();
            }
            ring.push(sample);
        }
        self.cluster_ring.push(ClusterSample {
            at_secs,
            pending_events: pending_events as u64,
            inflight_invocations: inflight_invocations as u64,
        });
    }

    /// The sampled series for [`crate::RunReport::resources`].
    pub(crate) fn report(&self) -> ResourceSeriesReport {
        let mut dropped = self.cluster_ring.evicted();
        let nodes = self
            .node_rings
            .iter()
            .enumerate()
            .map(|(i, ring)| {
                dropped += ring.evicted();
                NodeSeries {
                    node: NodeId::new(i as u32),
                    samples: ring.snapshot(),
                }
            })
            .collect();
        ResourceSeriesReport {
            sample_every_secs: self.every.as_secs_f64(),
            dropped_samples: dropped,
            nodes,
            cluster: self.cluster_ring.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use faasflow_net::NicSpec;
    use faasflow_sim::WorkflowId;

    #[test]
    fn sampler_reads_nic_rates_and_worker_gauges() {
        let nics = vec![NicSpec::symmetric(100.0); 3];
        let mut net: FlowNet<()> = FlowNet::new(nics);
        net.start_flow(NodeId::new(0), NodeId::new(2), 1 << 20, (), SimTime::ZERO);
        net.start_flow(NodeId::new(1), NodeId::new(1), 1 << 20, (), SimTime::ZERO);
        let config = ClusterConfig::default();
        let mut workers = [Worker::new(&config), Worker::new(&config)];
        let store = workers[1].store.memstore_mut();
        store.set_budget(WorkflowId::new(0), 7);
        store.set_budget(WorkflowId::new(1), 5);
        let mut sampler = Sampler::new(SimDuration::from_secs(1), 3, 4);
        sampler.take(SimTime::ZERO, &mut net, &workers, 9, 2);
        let report = sampler.report();
        let [master, w0, w1] = [0, 1, 2].map(|n| report.nodes[n].samples[0]);
        assert_eq!(
            (master.nic_tx_bytes_per_sec, master.memstore_budget_bytes),
            (100.0, 0)
        );
        // The loopback flow on worker 0 uses no NIC.
        assert_eq!(
            (w0.nic_tx_bytes_per_sec, w0.nic_rx_bytes_per_sec),
            (0.0, 0.0)
        );
        assert_eq!(
            (w1.nic_rx_bytes_per_sec, w1.memstore_budget_bytes),
            (100.0, 12)
        );
        let cluster = report.cluster[0];
        assert_eq!(
            (cluster.pending_events, cluster.inflight_invocations),
            (9, 2)
        );
    }

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let mut r = Ring::new(3);
        for i in 0..5u32 {
            r.push(i);
        }
        assert_eq!(r.snapshot(), vec![2, 3, 4]);
        assert_eq!(r.evicted(), 2);
    }

    #[test]
    fn ring_below_capacity_keeps_order() {
        let mut r = Ring::new(8);
        r.push("a");
        r.push("b");
        assert_eq!(r.snapshot(), vec!["a", "b"]);
        assert_eq!(r.evicted(), 0);
    }
}
