//! Overload protection and graceful degradation knobs.
//!
//! Four independent mechanisms, each optional and **off by default**. Off,
//! a mechanism draws no RNG and touches no shared state:
//!
//! * **Admission control** — bounded per-node container queues with a
//!   pluggable shed policy. Sheds are a first-class terminal outcome,
//!   counted separately from dead letters.
//! * **Circuit breaker** on the remote store (see
//!   [`faasflow_store::breaker`]): during open windows reads are served
//!   from FaaStore local copies when any worker holds one, otherwise the
//!   call fails fast into the existing retry/backoff path.
//! * **Hedged execution** — a straggling executor is speculatively
//!   re-dispatched to another worker after a fixed (or adaptive) delay,
//!   where it runs under that worker's gray faults like any attempt;
//!   first winner takes the instance, the loser is cancelled.
//! * **Backpressure** — a saturated container pool pushes back on the
//!   scheduler: WorkerSP defers the dispatch locally, MasterSP re-queues
//!   through the central engine (paying the central-plane cost, which is
//!   exactly the asymmetry the paper's §2.3 argument predicts).
//!
//! All four react to *cluster-wide* pressure signals (queue depth, store
//! failures, stragglers). The per-workflow layer above them lives in
//! [`crate::degrade`]: SLO burn-rate alerts ([`crate::slo`]) drive a
//! degradation controller that caps the offending workflow's admissions,
//! demotes its shed priority under [`ShedPolicy::DeadlineAware`], and
//! suspends its hedges — steering these mechanisms at the offender
//! instead of shedding blindly across workflows.

use faasflow_container::ContainerManager;
use faasflow_sim::{SimDuration, SimTime};
use faasflow_store::CircuitBreaker;
use serde::{Deserialize, Serialize};

pub use faasflow_store::{BreakerConfig, BreakerState};

use crate::hedge::Hedging;
use crate::invocation::InstanceToken;
use crate::metrics::OverloadReport;

/// Which invocation a full admission queue sheds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Shed the invocation whose instance just arrived (tail drop).
    #[default]
    RejectNewest,
    /// Shed the invocation that has been queued longest (head drop —
    /// its deadline budget is the most spent).
    RejectOldest,
    /// Shed the invocation with the least deadline slack, judged against
    /// `qos_target` (requires one to be configured).
    DeadlineAware,
}

/// Bounded admission queue per worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Instances allowed to wait for a container per worker beyond the
    /// ones already running; an instance that would push the queue past
    /// this triggers the shed policy.
    pub queue_capacity: usize,
    /// Who gets shed when the queue is full.
    pub policy: ShedPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 32,
            policy: ShedPolicy::default(),
        }
    }
}

/// Hedged execution of stragglers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgeConfig {
    /// How long an exec runs before a hedge is dispatched. With
    /// [`HedgeConfig::adaptive`] set this is only the fallback used until
    /// enough latency samples accumulate; otherwise it is the fixed delay.
    pub delay: SimDuration,
    /// Online per-function hedge-delay estimation. `None` keeps the fixed
    /// delay above.
    pub adaptive: Option<AdaptiveHedge>,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            delay: SimDuration::from_secs(1),
            adaptive: None,
        }
    }
}

/// Adaptive hedge delay: track each function's successful exec-latency
/// distribution online (the P² streaming quantile estimator — constant
/// memory, no RNG) and hedge at a high quantile of it instead of a fixed
/// guess. Until `warmup` samples arrive the fixed [`HedgeConfig::delay`]
/// applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveHedge {
    /// The exec-latency quantile at which to hedge, in `(0, 1)`.
    pub quantile: f64,
    /// Per-function samples required before the estimate is trusted.
    pub warmup: u32,
}

impl Default for AdaptiveHedge {
    fn default() -> Self {
        AdaptiveHedge {
            quantile: 0.95,
            warmup: 10,
        }
    }
}

/// The P² algorithm (Jain & Chlamtac 1985): a streaming quantile estimate
/// from five markers, updated in O(1) per observation with no stored
/// samples and no randomness — deterministic given the sample order, which
/// the simulation guarantees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2Quantile {
    q: f64,
    count: u64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
}

impl P2Quantile {
    /// A fresh estimator for quantile `q` in `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!((0.0..1.0).contains(&q) && q > 0.0, "quantile out of range");
        P2Quantile {
            q,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
        }
    }

    /// Samples observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite sample"));
            }
            return;
        }
        self.count += 1;
        // Find the cell k with heights[k] <= x < heights[k+1], stretching
        // the extreme markers when x falls outside.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            (0..4)
                .find(|&i| x < self.heights[i + 1])
                .expect("x is inside the marker range")
        };
        for p in &mut self.positions[k + 1..] {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }
        // Adjust the three interior markers toward their desired positions
        // with the piecewise-parabolic (P²) height update.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            if (d >= 1.0 && self.positions[i + 1] - self.positions[i] > 1.0)
                || (d <= -1.0 && self.positions[i - 1] - self.positions[i] < -1.0)
            {
                let s = d.signum();
                let parabolic = self.parabolic(i, s);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, s)
                    };
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + s / (np - nm)
            * ((n - nm + s) * (hp - h) / (np - n) + (np - n - s) * (h - hm) / (n - nm))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate (the middle marker), or `None` before
    /// five samples have arrived.
    pub fn estimate(&self) -> Option<f64> {
        if self.count >= 5 {
            Some(self.heights[2])
        } else {
            None
        }
    }
}

/// Container-pool backpressure toward the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackpressureConfig {
    /// Queue depth at which a worker's pool counts as saturated.
    pub queue_threshold: usize,
    /// How long a deferred dispatch waits before retrying.
    pub defer_delay: SimDuration,
    /// Deferrals before the dispatch proceeds regardless (so backpressure
    /// degrades latency rather than liveness).
    pub max_defers: u32,
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig {
            queue_threshold: 8,
            defer_delay: SimDuration::from_millis(50),
            max_defers: 20,
        }
    }
}

/// The full overload-protection configuration. `None` everywhere (the
/// default) disables the subsystem entirely.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Bounded admission queues + shed policy.
    pub admission: Option<AdmissionConfig>,
    /// Remote-store circuit breaker.
    pub breaker: Option<BreakerConfig>,
    /// Hedged exec retries.
    pub hedge: Option<HedgeConfig>,
    /// Pool-to-scheduler backpressure.
    pub backpressure: Option<BackpressureConfig>,
}

impl OverloadConfig {
    /// Checks internal consistency against the cluster-level knobs the
    /// mechanisms interact with.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is out of range.
    pub fn validate(
        &self,
        timeout: SimDuration,
        qos_target: Option<SimDuration>,
    ) -> Result<(), String> {
        if let Some(adm) = &self.admission {
            if adm.queue_capacity == 0 {
                return Err("admission queue_capacity must be at least 1".into());
            }
            if adm.policy == ShedPolicy::DeadlineAware && qos_target.is_none() {
                return Err("DeadlineAware shedding requires a qos_target".into());
            }
        }
        if let Some(breaker) = &self.breaker {
            breaker.validate()?;
        }
        if let Some(hedge) = &self.hedge {
            if hedge.delay <= SimDuration::ZERO {
                return Err("hedge delay must be positive".into());
            }
            if hedge.delay >= timeout {
                return Err(format!(
                    "hedge delay ({:.3}s) must be below the invocation timeout ({:.3}s)",
                    hedge.delay.as_secs_f64(),
                    timeout.as_secs_f64()
                ));
            }
            if let Some(adaptive) = &hedge.adaptive {
                if !(adaptive.quantile.is_finite()
                    && adaptive.quantile > 0.0
                    && adaptive.quantile < 1.0)
                {
                    return Err(format!(
                        "adaptive hedge quantile must be in (0,1), got {}",
                        adaptive.quantile
                    ));
                }
                if adaptive.warmup < 5 {
                    return Err("adaptive hedge warmup must be at least 5 samples".into());
                }
            }
        }
        if let Some(bp) = &self.backpressure {
            if bp.queue_threshold == 0 {
                return Err("backpressure queue_threshold must be at least 1".into());
            }
            if bp.defer_delay <= SimDuration::ZERO {
                return Err("backpressure defer_delay must be positive".into());
            }
            if bp.max_defers == 0 {
                return Err("backpressure max_defers must be at least 1".into());
            }
        }
        Ok(())
    }
}

/// Admission shedding and backpressure: the victim choice of a full
/// admission queue, the saturation test that defers a dispatch, and the
/// overload counters. `Cluster` keeps the effects: the shed invocation's
/// teardown and the deferred dispatch's timers.
#[derive(Debug)]
pub(crate) struct Admission {
    queue: Option<AdmissionConfig>,
    backpressure: Option<BackpressureConfig>,
    /// All but the hedge and breaker-transition counts, which their owners
    /// keep and [`Admission::report`] merges in.
    pub(crate) counts: OverloadReport,
}

impl Admission {
    pub(crate) fn new(config: &OverloadConfig) -> Self {
        Admission {
            queue: config.admission,
            backpressure: config.backpressure,
            counts: OverloadReport::default(),
        }
    }

    /// A worker's admission queue of `queue_len` entries is past its bound.
    pub(crate) fn overflowed(&self, queue_len: usize) -> bool {
        self.queue.is_some_and(|q| queue_len > q.queue_capacity)
    }

    /// Picks the invocation an overflowed `pool` sheds and removes its
    /// queued entry: the newcomer (already queued), the longest-queued
    /// entry, or the entry with the lowest `rank`, `(demoted, priority,
    /// deadline)` of its live invocation (`None` skips it). Demoted
    /// workflows go first, so the SLO offender takes the hit before
    /// innocent tenants; then the lowest priority class; then the earliest
    /// (most hopeless) deadline; ties break on the token. Returns the
    /// victim and whether it was demoted.
    pub(crate) fn shed_victim(
        &mut self,
        pool: &mut ContainerManager<InstanceToken>,
        newcomer: InstanceToken,
        rank: impl Fn(InstanceToken) -> Option<(bool, u8, SimTime)>,
    ) -> (InstanceToken, bool) {
        let full = "the queue overflowed, so it is non-empty";
        match self.queue.expect("sheds need admission control").policy {
            ShedPolicy::RejectNewest => {
                pool.remove_queued(|t| *t == newcomer);
                self.counts.shed_newest += 1;
                (newcomer, false)
            }
            ShedPolicy::RejectOldest => {
                self.counts.shed_oldest += 1;
                (pool.shed_oldest().expect(full), false)
            }
            ShedPolicy::DeadlineAware => {
                let (spared, _, _, victim) = pool
                    .queued_tokens()
                    .filter_map(|&t| rank(t).map(|(d, p, deadline)| (!d, p, deadline, t)))
                    .min()
                    .expect(full);
                pool.remove_queued(|t| *t == victim);
                self.counts.shed_deadline += 1;
                (victim, !spared)
            }
        }
    }

    /// A dispatch to a worker must wait: backpressure is on, the worker is
    /// alive with its queue at the threshold, and `attempt` deferrals
    /// leave the dispatch some to take.
    pub(crate) fn defers(&self, alive: bool, queue_len: usize, attempt: u32) -> bool {
        self.backpressure
            .is_some_and(|bp| alive && queue_len >= bp.queue_threshold && attempt < bp.max_defers)
    }

    pub(crate) fn defer_delay(&self) -> SimDuration {
        self.backpressure
            .expect("defers need backpressure")
            .defer_delay
    }

    /// The [`crate::RunReport::overload`] section.
    pub(crate) fn report(
        &self,
        hedging: &Hedging,
        breaker: Option<&CircuitBreaker>,
    ) -> OverloadReport {
        let mut report = self.counts;
        hedging.report_into(&mut report);
        if let Some(t) = breaker.map(CircuitBreaker::transitions) {
            report.breaker_opens = t.opens;
            report.breaker_half_opens = t.half_opens;
            report.breaker_closes = t.closes;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_container::{ContainerConfig, NodeCaps};
    use faasflow_sim::{FunctionId, InvocationId, SimRng, WorkflowId};

    fn token(invocation: u32) -> InstanceToken {
        InstanceToken {
            workflow: WorkflowId::new(0),
            invocation: InvocationId::new(invocation),
            function: FunctionId::new(0),
            instance: 0,
            epoch: 0,
        }
    }

    /// A one-core pool running invocation 0 with 1, 2 and 3 queued.
    fn full_pool() -> ContainerManager<InstanceToken> {
        let caps = NodeCaps {
            cores: 1,
            mem: 1 << 40,
        };
        let mut pool = ContainerManager::new(caps, ContainerConfig::default());
        let mut rng = SimRng::seed_from(1);
        for inv in 0..4 {
            let t = token(inv);
            let _ = pool.request((t.workflow, t.function), t, SimTime::ZERO, &mut rng);
        }
        pool
    }

    #[test]
    fn shed_victims_follow_the_policy() {
        let admission = |policy| {
            let queue = Some(AdmissionConfig {
                queue_capacity: 2,
                policy,
            });
            Admission::new(&OverloadConfig {
                admission: queue,
                ..OverloadConfig::default()
            })
        };
        let newcomer = token(3);
        let mut newest = admission(ShedPolicy::RejectNewest);
        let mut pool = full_pool();
        assert!(newest.overflowed(pool.queue_len()) && !newest.overflowed(2));
        assert_eq!(
            newest.shed_victim(&mut pool, newcomer, |_| None),
            (newcomer, false)
        );
        assert_eq!(pool.queue_len(), 2);

        let mut oldest = admission(ShedPolicy::RejectOldest);
        let victim = oldest.shed_victim(&mut full_pool(), newcomer, |_| None);
        assert_eq!(victim, (token(1), false));

        // Invocation 2 is demoted: it goes before 1's earlier deadline and
        // lower priority class; 3 has no live invocation and is skipped.
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let rank = |t: InstanceToken| match t.invocation.index() {
            1 => Some((false, 0, at(10))),
            2 => Some((true, 5, at(90))),
            _ => None,
        };
        let mut deadline = admission(ShedPolicy::DeadlineAware);
        let mut pool = full_pool();
        assert_eq!(
            deadline.shed_victim(&mut pool, newcomer, rank),
            (token(2), true)
        );
        let rank = |t: InstanceToken| Some((false, 0, at(100 - t.invocation.index() as u64)));
        assert_eq!(
            deadline.shed_victim(&mut pool, newcomer, rank),
            (token(3), false)
        );
        let counts = deadline.counts;
        assert_eq!((counts.shed_deadline, counts.shed_newest), (2, 0));
    }

    #[test]
    fn backpressure_defers_a_saturated_live_worker_within_its_budget() {
        let bp = BackpressureConfig {
            queue_threshold: 2,
            defer_delay: SimDuration::from_millis(5),
            max_defers: 2,
        };
        let a = Admission::new(&OverloadConfig {
            backpressure: Some(bp),
            ..OverloadConfig::default()
        });
        assert!(a.defers(true, 2, 0) && a.defers(true, 5, 1));
        assert!(!a.defers(true, 1, 0) && !a.defers(false, 5, 0) && !a.defers(true, 5, 2));
        assert!(!Admission::new(&OverloadConfig::default()).defers(true, 99, 0));
        assert_eq!(a.defer_delay(), bp.defer_delay);
    }

    #[test]
    fn p2_tracks_quantiles_of_a_uniform_ramp() {
        let mut est = P2Quantile::new(0.95);
        assert_eq!(est.estimate(), None);
        for i in 0..1000 {
            est.observe(i as f64);
        }
        let p95 = est.estimate().expect("warm");
        assert!(
            (p95 - 950.0).abs() < 30.0,
            "p95 of 0..1000 should be near 950, got {p95}"
        );
        assert_eq!(est.count(), 1000);
    }

    #[test]
    fn p2_median_of_constant_stream_is_the_constant() {
        let mut est = P2Quantile::new(0.5);
        for _ in 0..100 {
            est.observe(42.0);
        }
        assert_eq!(est.estimate(), Some(42.0));
    }

    #[test]
    fn p2_is_deterministic_in_sample_order() {
        let samples: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64).collect();
        let mut a = P2Quantile::new(0.9);
        let mut b = P2Quantile::new(0.9);
        for &s in &samples {
            a.observe(s);
            b.observe(s);
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn adaptive_hedge_validation() {
        let bad_q = OverloadConfig {
            hedge: Some(HedgeConfig {
                adaptive: Some(AdaptiveHedge {
                    quantile: 1.5,
                    ..AdaptiveHedge::default()
                }),
                ..HedgeConfig::default()
            }),
            ..OverloadConfig::default()
        };
        assert!(bad_q
            .validate(SimDuration::from_secs(60), None)
            .unwrap_err()
            .contains("quantile"));
        let bad_warmup = OverloadConfig {
            hedge: Some(HedgeConfig {
                adaptive: Some(AdaptiveHedge {
                    warmup: 2,
                    ..AdaptiveHedge::default()
                }),
                ..HedgeConfig::default()
            }),
            ..OverloadConfig::default()
        };
        assert!(bad_warmup
            .validate(SimDuration::from_secs(60), None)
            .unwrap_err()
            .contains("warmup"));
        let good = OverloadConfig {
            hedge: Some(HedgeConfig {
                adaptive: Some(AdaptiveHedge::default()),
                ..HedgeConfig::default()
            }),
            ..OverloadConfig::default()
        };
        assert!(good.validate(SimDuration::from_secs(60), None).is_ok());
    }
}
