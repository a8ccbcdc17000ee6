//! Hedged execution of stragglers (see [`crate::overload::HedgeConfig`]).
//!
//! [`Hedging`] owns everything the control loop decides: whether an exec
//! gets a hedge timer and with what delay, the table of in-flight hedges
//! with their sequence/ready/cancelled fences, the per-function P² delay
//! estimators, first-winner resolution and the launched/won/lost
//! counters. `Cluster` supplies only the side effects the hedge needs
//! from the rest of the world: a candidate container, RNG draws, the
//! instance hand-over on a win and the container releases.
//!
//! With hedging off no timer is ever armed, so the table stays empty and
//! nothing here draws from the RNG or touches shared state.

use faasflow_sim::{ContainerId, FastMap, FunctionId, NodeId, SimDuration, SimTime, WorkflowId};

use crate::invocation::InstanceToken;
use crate::metrics::OverloadReport;
use crate::overload::{HedgeConfig, P2Quantile};
use crate::trace::{TraceEvent, Tracer};

/// The hedge control loop's timer events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HedgeEvent {
    /// The hedge delay elapsed on the primary's exec; `seq` is the
    /// primary's admission, so a superseded attempt arms nothing.
    Fire {
        worker: usize,
        token: InstanceToken,
        seq: u64,
    },
    /// A hedge container finished booting; its exec starts. `seq` is the
    /// hedge's own admission.
    Ready { token: InstanceToken, seq: u64 },
    /// A hedge's compute finished; first-winner resolution.
    ExecDone { token: InstanceToken, seq: u64 },
}

/// Where a hedge runs: its worker and container.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HedgeCopy {
    pub worker: usize,
    pub container: ContainerId,
}

/// What a booted hedge container should do.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Booted {
    /// Start the hedge's exec on its copy.
    Run(HedgeCopy),
    /// The primary won while the hedge was booting: release the copy.
    Cancelled(HedgeCopy),
}

/// Lifecycle of one speculative execution. Keyed by the primary
/// instance's token; at most one hedge per instance.
#[derive(Debug, Clone, Copy)]
struct HedgeState {
    copy: HedgeCopy,
    /// The hedge's own admission sequence number (fences its events).
    seq: u64,
    /// The hedge container finished booting and its exec is in flight.
    ready: bool,
    /// The primary won while the hedge was still booting; `Ready`
    /// releases the container and drops the entry.
    cancelled: bool,
}

/// The hedge control loop's state (see the module docs).
#[derive(Debug)]
pub(crate) struct Hedging {
    config: Option<HedgeConfig>,
    inflight: FastMap<InstanceToken, HedgeState>,
    /// Streaming exec-latency quantile per function. Only fed when
    /// `adaptive` is set: a fixed delay never touches it.
    estimators: FastMap<(WorkflowId, FunctionId), P2Quantile>,
    launched: u64,
    wins: u64,
    losses: u64,
    /// Tokens swept by a worker crash (reused buffer).
    sweep: Vec<InstanceToken>,
}

impl Hedging {
    pub(crate) fn new(config: Option<HedgeConfig>) -> Self {
        Hedging {
            config,
            inflight: FastMap::default(),
            estimators: FastMap::default(),
            launched: 0,
            wins: 0,
            losses: 0,
            sweep: Vec::new(),
        }
    }

    /// The arm decision for an exec attempt just started: the delay after
    /// which to fire a hedge, or `None`. Only first attempts are hedged
    /// (a retry runs in an already-warm container after a transient
    /// failure, not a straggler), only with a second worker to hedge onto,
    /// and only while the instance has no hedge yet. The adaptive delay is
    /// the per-function quantile once warmed up, the fixed delay before.
    pub(crate) fn arm_delay(
        &self,
        token: InstanceToken,
        attempt: u32,
        workers: u32,
    ) -> Option<SimDuration> {
        let h = self.config?;
        if attempt != 0 || workers <= 1 || self.inflight.contains_key(&token) {
            return None;
        }
        Some(match h.adaptive {
            Some(a) => self
                .estimators
                .get(&(token.workflow, token.function))
                .filter(|e| e.count() >= u64::from(a.warmup))
                .and_then(|e| e.estimate())
                .map(SimDuration::from_secs_f64)
                .unwrap_or(h.delay),
            None => h.delay,
        })
    }

    /// Samples a successful attempt's compute latency into its function's
    /// delay estimator (adaptive hedging only).
    pub(crate) fn observe_exec(&mut self, token: InstanceToken, latency: SimDuration) {
        let Some(a) = self.config.and_then(|h| h.adaptive) else {
            return;
        };
        self.estimators
            .entry((token.workflow, token.function))
            .or_insert_with(|| P2Quantile::new(a.quantile))
            .observe(latency.as_secs_f64());
    }

    /// The instance already has a hedge in flight (a fired timer lapses).
    pub(crate) fn active(&self, token: InstanceToken) -> bool {
        self.inflight.contains_key(&token)
    }

    /// Records a hedge admitted onto `copy` under admission `seq`.
    pub(crate) fn launch(
        &mut self,
        now: SimTime,
        token: InstanceToken,
        seq: u64,
        copy: HedgeCopy,
        (from_worker, to_worker): (NodeId, NodeId),
        tracer: &mut Tracer,
    ) {
        self.inflight.insert(
            token,
            HedgeState {
                copy,
                seq,
                ready: false,
                cancelled: false,
            },
        );
        self.launched += 1;
        tracer.record(|| TraceEvent::HedgeLaunched {
            workflow: token.workflow,
            invocation: token.invocation,
            function: token.function,
            instance: token.instance,
            from_worker,
            to_worker,
            at: now,
        });
    }

    /// The `Ready` fence: a current hedge's container booted. A cancelled
    /// hedge leaves the table here; a live one is marked ready.
    pub(crate) fn boot(&mut self, token: InstanceToken, seq: u64) -> Option<Booted> {
        let h = self.inflight.get_mut(&token).filter(|h| h.seq == seq)?;
        if h.cancelled {
            let copy = h.copy;
            self.inflight.remove(&token);
            return Some(Booted::Cancelled(copy));
        }
        h.ready = true;
        Some(Booted::Run(h.copy))
    }

    /// The `ExecDone` fence: the hedge whose compute just finished, if it
    /// is still racing (current, booted, not cancelled).
    pub(crate) fn racing(&self, token: InstanceToken, seq: u64) -> Option<HedgeCopy> {
        self.inflight
            .get(&token)
            .filter(|h| h.seq == seq && h.ready && !h.cancelled)
            .map(|h| h.copy)
    }

    /// First-winner resolution of a race the hedge won or lost outright
    /// (its compute finished, failed, or its primary vanished): the hedge
    /// leaves the table, the winner is counted and traced, and the copy is
    /// returned.
    pub(crate) fn settle(
        &mut self,
        now: SimTime,
        token: InstanceToken,
        winner_is_hedge: bool,
        tracer: &mut Tracer,
    ) -> Option<HedgeCopy> {
        let h = self.inflight.remove(&token)?;
        if winner_is_hedge {
            self.wins += 1;
        } else {
            self.losses += 1;
        }
        tracer.record(|| resolved(now, token, winner_is_hedge));
        Some(h.copy)
    }

    /// Resolves an outstanding hedge in the primary's favour (or cleans it
    /// up on teardown). A booted hedge leaves the table and its copy is
    /// returned for release; one still booting is flagged and `Ready`
    /// cleans up.
    pub(crate) fn cancel(
        &mut self,
        now: SimTime,
        token: InstanceToken,
        tracer: &mut Tracer,
    ) -> Option<HedgeCopy> {
        let h = self.inflight.get_mut(&token)?;
        if h.cancelled {
            return None;
        }
        self.losses += 1;
        tracer.record(|| resolved(now, token, false));
        if h.ready {
            let copy = h.copy;
            self.inflight.remove(&token);
            Some(copy)
        } else {
            h.cancelled = true;
            None
        }
    }

    /// Hedges running on a crashed worker vanish with its pool: each one
    /// still racing counts as lost. Swept in token order.
    pub(crate) fn on_worker_crash(&mut self, now: SimTime, worker: usize, tracer: &mut Tracer) {
        let mut doomed = std::mem::take(&mut self.sweep);
        doomed.extend(
            self.inflight
                .iter()
                .filter(|(_, h)| h.copy.worker == worker)
                .map(|(&t, _)| t),
        );
        doomed.sort_unstable();
        for &t in &doomed {
            let h = self.inflight.remove(&t).expect("collected above");
            if !h.cancelled {
                self.losses += 1;
                tracer.record(|| resolved(now, t, false));
            }
        }
        doomed.clear();
        self.sweep = doomed;
    }

    /// Writes the hedge counters into the overload report.
    pub(crate) fn report_into(&self, overload: &mut OverloadReport) {
        overload.hedges_launched = self.launched;
        overload.hedge_wins = self.wins;
        overload.hedge_losses = self.losses;
    }
}

fn resolved(now: SimTime, token: InstanceToken, winner_is_hedge: bool) -> TraceEvent {
    TraceEvent::HedgeResolved {
        workflow: token.workflow,
        invocation: token.invocation,
        function: token.function,
        instance: token.instance,
        winner_is_hedge,
        at: now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::AdaptiveHedge;
    use faasflow_sim::InvocationId;

    fn token(instance: u32) -> InstanceToken {
        InstanceToken {
            workflow: WorkflowId::new(0),
            invocation: InvocationId::new(0),
            function: FunctionId::new(1),
            instance,
            epoch: 0,
        }
    }

    fn copy(worker: usize) -> HedgeCopy {
        HedgeCopy {
            worker,
            container: ContainerId::new(7),
        }
    }

    fn fixed(delay_ms: u64) -> Option<HedgeConfig> {
        Some(HedgeConfig {
            delay: SimDuration::from_millis(delay_ms),
            adaptive: None,
        })
    }

    fn launch(h: &mut Hedging, tracer: &mut Tracer, t: InstanceToken, seq: u64, worker: usize) {
        let nodes = (NodeId::new(1), NodeId::new(worker as u32 + 1));
        h.launch(SimTime::ZERO, t, seq, copy(worker), nodes, tracer);
    }

    #[test]
    fn arms_only_first_attempts_with_a_second_worker_and_no_hedge_yet() {
        let delay = SimDuration::from_millis(300);
        assert_eq!(Hedging::new(None).arm_delay(token(0), 0, 4), None);
        let mut h = Hedging::new(fixed(300));
        assert_eq!(h.arm_delay(token(0), 0, 4), Some(delay));
        assert_eq!(h.arm_delay(token(0), 1, 4), None);
        assert_eq!(h.arm_delay(token(0), 0, 1), None);
        launch(&mut h, &mut Tracer::new(false, 0), token(0), 5, 1);
        assert_eq!(h.arm_delay(token(0), 0, 4), None);
        assert_eq!(h.arm_delay(token(1), 0, 4), Some(delay));
    }

    #[test]
    fn adaptive_delay_waits_for_warmup_and_fixed_delay_tracks_nothing() {
        let mut fixed_only = Hedging::new(fixed(300));
        fixed_only.observe_exec(token(0), SimDuration::from_millis(50));
        assert!(fixed_only.estimators.is_empty());

        let mut h = Hedging::new(Some(HedgeConfig {
            delay: SimDuration::from_millis(300),
            adaptive: Some(AdaptiveHedge {
                quantile: 0.5,
                warmup: 5,
            }),
        }));
        for _ in 0..4 {
            h.observe_exec(token(0), SimDuration::from_millis(50));
        }
        assert_eq!(
            h.arm_delay(token(0), 0, 2),
            Some(SimDuration::from_millis(300))
        );
        h.observe_exec(token(0), SimDuration::from_millis(50));
        assert_eq!(
            h.arm_delay(token(0), 0, 2),
            Some(SimDuration::from_millis(50))
        );
    }

    #[test]
    fn every_launched_hedge_resolves_exactly_once() {
        let mut tracer = Tracer::new(true, 64);
        let mut h = Hedging::new(fixed(100));
        // A hedge that boots and wins its race.
        launch(&mut h, &mut tracer, token(0), 10, 1);
        assert!(h.boot(token(0), 9).is_none(), "stale seq is fenced");
        assert!(matches!(h.boot(token(0), 10), Some(Booted::Run(_))));
        assert!(h.racing(token(0), 10).is_some());
        assert!(h
            .settle(SimTime::ZERO, token(0), true, &mut tracer)
            .is_some());
        assert!(h.racing(token(0), 10).is_none());
        // Cancelled while booting: no copy to release yet, a second cancel
        // counts nothing, and the boot hands the copy back.
        launch(&mut h, &mut tracer, token(1), 11, 1);
        assert!(h.cancel(SimTime::ZERO, token(1), &mut tracer).is_none());
        assert!(h.cancel(SimTime::ZERO, token(1), &mut tracer).is_none());
        assert!(h.racing(token(1), 11).is_none());
        assert!(matches!(h.boot(token(1), 11), Some(Booted::Cancelled(_))));
        // Cancelled once booted: the copy comes straight back.
        launch(&mut h, &mut tracer, token(2), 12, 2);
        h.boot(token(2), 12);
        assert!(h.cancel(SimTime::ZERO, token(2), &mut tracer).is_some());
        // Its worker crashes: only the hedges running there are lost.
        launch(&mut h, &mut tracer, token(3), 13, 2);
        launch(&mut h, &mut tracer, token(4), 14, 3);
        h.on_worker_crash(SimTime::ZERO, 2, &mut tracer);
        assert!(h.active(token(4)) && !h.active(token(3)));
        h.settle(SimTime::ZERO, token(4), false, &mut tracer);

        let mut o = OverloadReport::default();
        h.report_into(&mut o);
        assert_eq!((o.hedges_launched, o.hedge_wins, o.hedge_losses), (5, 1, 4));
        let resolved = tracer
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::HedgeResolved { .. }))
            .count();
        assert_eq!(resolved, 5);
    }
}
