//! Control-plane message latency model.
//!
//! Both schedule patterns exchange small control messages:
//!
//! * **MasterSP** — task-assignment messages (master → worker) and
//!   execution-state returns (worker → master), §2.3's stages 1 and 3.
//! * **WorkerSP** — function execution-state synchronisation between worker
//!   engines over TCP, and in-process RPC when predecessor and successor
//!   live on the same worker (§3.1).
//!
//! Messages are a few hundred bytes, so they never contend with the bulk
//! data flows in a measurable way; the cost that matters is the round-trip
//! and protocol overhead. The model is `base + bytes/bandwidth`, with
//! multiplicative jitter drawn deterministically from the simulation RNG.

use faasflow_sim::{SimDuration, SimRng};

/// Latency model for a class of small control messages.
///
/// ```
/// use faasflow_net::MessageModel;
/// use faasflow_sim::SimRng;
///
/// let model = MessageModel::LAN_TCP;
/// let mut rng = SimRng::seed_from(1);
/// let d = model.latency(256, &mut rng);
/// assert!(d.as_millis_f64() > 0.1 && d.as_millis_f64() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageModel {
    /// Fixed one-way latency (propagation + kernel + protocol handling).
    pub base: SimDuration,
    /// Effective bandwidth applied to the payload, bytes/s.
    pub bandwidth: f64,
    /// Multiplicative jitter amplitude: the sampled latency is uniform in
    /// `[1 - jitter, 1 + jitter] * nominal`. Zero disables jitter.
    pub jitter: f64,
}

impl MessageModel {
    /// Cross-node TCP on a datacenter LAN: ~1.5 ms base (connect + send on a gevent loop), 1 GB/s payload
    /// bandwidth, ±25 % jitter. Used for master↔worker and worker↔worker
    /// messages.
    pub const LAN_TCP: MessageModel = MessageModel {
        base: SimDuration::from_micros(1500),
        bandwidth: 1e9,
        jitter: 0.25,
    };

    /// Samples the one-way latency of a `bytes`-sized message.
    pub fn latency(&self, bytes: u64, rng: &mut SimRng) -> SimDuration {
        let nominal = self.base + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth);
        if self.jitter == 0.0 {
            nominal
        } else {
            nominal.mul_f64(rng.range_f64(1.0 - self.jitter, 1.0 + self.jitter))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_base_plus_serialization() {
        let m = MessageModel {
            base: SimDuration::from_micros(100),
            bandwidth: 1e6,
            jitter: 0.0,
        };
        // 1000 bytes at 1 MB/s = 1 ms; plus 0.1 ms base.
        let mut rng = SimRng::seed_from(1);
        assert_eq!(m.latency(1000, &mut rng), SimDuration::from_micros(1100));
    }

    #[test]
    fn zero_jitter_is_deterministic_without_rng_draw() {
        let m = MessageModel {
            base: SimDuration::from_micros(100),
            bandwidth: 1e9,
            jitter: 0.0,
        };
        let mut rng = SimRng::seed_from(1);
        let before = rng.clone();
        assert_eq!(m.latency(0, &mut rng), SimDuration::from_micros(100));
        assert_eq!(rng, before, "no jitter draw should consume randomness");
    }

    #[test]
    fn jitter_bounds_hold() {
        let m = MessageModel {
            base: SimDuration::from_micros(1000),
            bandwidth: 1e9,
            jitter: 0.25,
        };
        let mut rng = SimRng::seed_from(2);
        for _ in 0..1000 {
            let l = m.latency(0, &mut rng).as_nanos() as f64;
            assert!((0.75e6..=1.25e6).contains(&l), "latency {l} out of bounds");
        }
    }
}
