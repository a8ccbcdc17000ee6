//! Per-node link degradation for fault injection.
//!
//! During a [`crate::FlowNet`] experiment a worker's link can be degraded
//! for a window: control-plane messages crossing it get lost with some
//! probability and their latency stretches. This module holds the *quality
//! table* — who is degraded and by how much right now; the simulation layer
//! decides what a lost message costs (retransmission with backoff) and
//! separately re-throttles the NIC for bulk flows.

use faasflow_sim::NodeId;
use serde::{Deserialize, Serialize};

/// Link quality of one node: loss probability and latency stretch for
/// control messages entering or leaving it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkQuality {
    /// Probability in `[0, 1)` that a message crossing the link is lost.
    pub loss: f64,
    /// Multiplier (>= 1.0) on message latency across the link.
    pub latency_factor: f64,
}

impl Default for LinkQuality {
    fn default() -> Self {
        LinkQuality {
            loss: 0.0,
            latency_factor: 1.0,
        }
    }
}

impl LinkQuality {
    /// `true` when the link behaves nominally.
    pub fn is_clean(&self) -> bool {
        self.loss == 0.0 && self.latency_factor == 1.0
    }
}

/// Current link quality of every node in the cluster.
///
/// A message from `src` to `dst` crosses both endpoints' links, so its
/// effective quality combines them: losses compose as independent events
/// and the latency stretch is the worse of the two.
#[derive(Debug, Clone)]
pub struct LinkFaultTable {
    links: Vec<LinkQuality>,
}

impl LinkFaultTable {
    /// A table over `nodes` nodes, all links clean.
    pub fn new(nodes: usize) -> Self {
        LinkFaultTable {
            links: vec![LinkQuality::default(); nodes],
        }
    }

    /// Sets one node's link quality (window start).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set(&mut self, node: NodeId, quality: LinkQuality) {
        self.links[node.index()] = quality;
    }

    /// Restores one node's link to nominal (window end).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn clear(&mut self, node: NodeId) {
        self.links[node.index()] = LinkQuality::default();
    }

    /// One node's current link quality.
    pub fn quality(&self, node: NodeId) -> LinkQuality {
        self.links.get(node.index()).copied().unwrap_or_default()
    }

    /// Effective quality of the `src -> dst` path.
    pub fn path(&self, src: NodeId, dst: NodeId) -> LinkQuality {
        let a = self.quality(src);
        if src == dst {
            return a;
        }
        let b = self.quality(dst);
        LinkQuality {
            loss: 1.0 - (1.0 - a.loss) * (1.0 - b.loss),
            latency_factor: a.latency_factor.max(b.latency_factor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_table_has_clean_paths() {
        let t = LinkFaultTable::new(3);
        let q = t.path(NodeId::new(0), NodeId::new(2));
        assert!(q.is_clean());
    }

    #[test]
    fn path_combines_endpoint_losses() {
        let mut t = LinkFaultTable::new(3);
        t.set(
            NodeId::new(1),
            LinkQuality {
                loss: 0.5,
                latency_factor: 2.0,
            },
        );
        t.set(
            NodeId::new(2),
            LinkQuality {
                loss: 0.5,
                latency_factor: 3.0,
            },
        );
        let q = t.path(NodeId::new(1), NodeId::new(2));
        assert!((q.loss - 0.75).abs() < 1e-12);
        assert_eq!(q.latency_factor, 3.0);

        t.clear(NodeId::new(1));
        t.clear(NodeId::new(2));
        assert!(t.path(NodeId::new(1), NodeId::new(2)).is_clean());
    }

    #[test]
    fn loopback_path_counts_the_endpoint_once() {
        let mut t = LinkFaultTable::new(2);
        t.set(
            NodeId::new(1),
            LinkQuality {
                loss: 0.5,
                latency_factor: 2.0,
            },
        );
        let q = t.path(NodeId::new(1), NodeId::new(1));
        assert_eq!(q.loss, 0.5);
    }
}
