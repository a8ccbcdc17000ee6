//! Deterministic resource time-series sampling.
//!
//! When [`crate::ClusterConfig::sample_every`] is set, the cluster
//! schedules a self-rescheduling `Sample` event on the simulation clock
//! and snapshots per-node gauges at each tick: container pool occupancy
//! (resident vs busy), queued admissions, FaaStore memstore usage vs its
//! reserved quota, and NIC throughput derived from the live [`FlowNet`]
//! rates — plus cluster-wide depths (pending simulator events, in-flight
//! invocations). Each series is a bounded queue (oldest evicted and
//! counted once full), attached to [`crate::RunReport`] as a
//! [`ResourceSeriesReport`].
//!
//! Sampling reads state and draws no randomness, so enabling it cannot
//! perturb the schedule of other same-time events (the event queue breaks
//! ties by insertion order) — a sampled run and an unsampled run with the
//! same seed execute identically apart from the sampling itself.
//! `Sampler` owns the cadence, the series and the report section;
//! `Cluster` keeps only the `Sample` event that drives it.

use std::collections::VecDeque;

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
    /// Samples evicted from full series, across all series.
    pub dropped_samples: u64,
    /// Per-node series, master first then workers in id order.
    pub nodes: Vec<NodeSeries>,
    /// Cluster-wide series.
    pub cluster: Vec<ClusterSample>,
}

/// Capacity of each sampled series of a cluster run; the oldest samples
/// are evicted (and counted) once full.
pub(crate) const SAMPLE_CAPACITY: usize = 4096;

/// The resource sampler: one bounded series per node (0 = master/storage)
/// plus the cluster-wide series.
#[derive(Debug)]
pub(crate) struct Sampler {
    /// Sampling cadence on the sim clock.
    pub(crate) every: SimDuration,
    capacity: usize,
    nodes: Vec<VecDeque<NodeSample>>,
    cluster: VecDeque<ClusterSample>,
    /// Samples evicted from full series, across all series.
    dropped: u64,
    /// Per-node flow rates (tx/rx bytes per second), reused each tick so
    /// sampling allocates nothing in steady state.
    tx: Vec<f64>,
    rx: Vec<f64>,
}

impl Sampler {
    pub(crate) fn new(every: SimDuration, nodes: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "series capacity must be positive");
        Sampler {
            every,
            capacity,
            nodes: vec![VecDeque::new(); nodes],
            cluster: VecDeque::new(),
            dropped: 0,
            tx: vec![0.0; nodes],
            rx: vec![0.0; nodes],
        }
    }

    /// Reads every per-node gauge into the series: worker `w`'s pool and
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
        for node in 0..self.nodes.len() {
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
            push_bounded(
                &mut self.nodes[node],
                sample,
                self.capacity,
                &mut self.dropped,
            );
        }
        let sample = ClusterSample {
            at_secs,
            pending_events: pending_events as u64,
            inflight_invocations: inflight_invocations as u64,
        };
        push_bounded(&mut self.cluster, sample, self.capacity, &mut self.dropped);
    }

    /// The sampled series for [`crate::RunReport::resources`].
    pub(crate) fn report(&self) -> ResourceSeriesReport {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, series)| NodeSeries {
                node: NodeId::new(i as u32),
                samples: series.iter().copied().collect(),
            })
            .collect();
        ResourceSeriesReport {
            sample_every_secs: self.every.as_secs_f64(),
            dropped_samples: self.dropped,
            nodes,
            cluster: self.cluster.iter().copied().collect(),
        }
    }
}

/// Appends `item`, first evicting (and counting) the oldest sample when
/// `series` holds `capacity` already.
fn push_bounded<T>(series: &mut VecDeque<T>, item: T, capacity: usize, dropped: &mut u64) {
    if series.len() == capacity {
        series.pop_front();
        *dropped += 1;
    }
    series.push_back(item);
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
    fn sampler_keeps_the_newest_samples_and_counts_every_eviction() {
        let mut net: FlowNet<()> = FlowNet::new(vec![NicSpec::symmetric(100.0); 2]);
        let workers = [Worker::new(&ClusterConfig::default())];
        let mut sampler = Sampler::new(SimDuration::from_secs(1), 2, 3);
        for tick in 0..5u64 {
            let now = SimTime::ZERO + SimDuration::from_secs(tick);
            sampler.take(now, &mut net, &workers, tick as usize, 0);
        }
        let report = sampler.report();
        let at = |samples: &[NodeSample]| samples.iter().map(|s| s.at_secs).collect::<Vec<_>>();
        for node in &report.nodes {
            assert_eq!(at(&node.samples), [2.0, 3.0, 4.0]);
        }
        let pending: Vec<u64> = report.cluster.iter().map(|s| s.pending_events).collect();
        assert_eq!(pending, [2, 3, 4]);
        // Two evictions in each of the three series.
        assert_eq!(report.dropped_samples, 6);
    }
}
