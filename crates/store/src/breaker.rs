//! Circuit breaker for the remote store.
//!
//! The remote store is the cluster's only shared dependency; when it
//! degrades (a `StorageFault` blackout/brownout, or simply saturation
//! latency), every worker that keeps hammering it both wastes its own
//! time and prolongs the outage. The breaker is the standard three-state
//! machine — closed → open on consecutive failures or slow calls →
//! half-open probe after a cool-down — adapted to the simulation's
//! determinism contract: the only randomness is an optional jitter on
//! the open-window length, drawn from the cluster's seeded RNG and only
//! on the closed/half-open → open transition, so a disabled or
//! never-tripping breaker consumes zero RNG draws.

use faasflow_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// The classic three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: every call goes through.
    Closed,
    /// Tripped: calls fail fast until the open window elapses.
    Open,
    /// Cool-down elapsed: a limited number of probe calls go through;
    /// one failure re-opens, enough successes close.
    HalfOpen,
}

impl BreakerState {
    /// Numeric encoding for counter tracks (0 = closed, 1 = half-open,
    /// 2 = open) — higher means less healthy.
    pub fn as_level(self) -> u32 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// What the breaker tells a caller about to issue a remote-store call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Closed: proceed normally.
    Allow,
    /// Half-open: proceed, but this call is a probe whose outcome decides
    /// the next state.
    Probe,
    /// Open: do not issue the call; degrade (serve locally or back off).
    FastFail,
}

/// Breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failed (or slow) calls that trip the breaker.
    pub failure_threshold: u32,
    /// A call slower than this counts as a failure even if it succeeded
    /// (brownouts degrade latency without returning errors).
    pub latency_threshold: SimDuration,
    /// How long the breaker stays open before probing.
    pub open_duration: SimDuration,
    /// Successful probes required to close from half-open.
    pub half_open_probes: u32,
    /// Relative jitter on `open_duration` in `[0, 1)`; the window is
    /// scaled by a factor drawn uniformly from `[1-jitter, 1+jitter]`
    /// so synchronized trips across workers don't re-probe in lockstep.
    pub jitter: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            latency_threshold: SimDuration::from_millis(250),
            open_duration: SimDuration::from_secs(1),
            half_open_probes: 3,
            jitter: 0.1,
        }
    }
}

impl BreakerConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.failure_threshold == 0 {
            return Err("breaker failure_threshold must be at least 1".into());
        }
        if self.latency_threshold <= SimDuration::ZERO {
            return Err("breaker latency_threshold must be positive".into());
        }
        if self.open_duration <= SimDuration::ZERO {
            return Err("breaker open_duration must be positive".into());
        }
        if self.half_open_probes == 0 {
            return Err("breaker half_open_probes must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(format!(
                "breaker jitter must be in [0,1), got {}",
                self.jitter
            ));
        }
        Ok(())
    }
}

/// A state transition `(from, to)`, reported so the caller can trace it.
pub type BreakerTransition = (BreakerState, BreakerState);

/// How often a breaker entered each state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerTransitions {
    /// Trips into open (from closed or half-open).
    pub opens: u64,
    /// Open windows elapsed into half-open.
    pub half_opens: u64,
    /// Half-open probe runs that closed the breaker.
    pub closes: u64,
}

/// The breaker state machine. Sans-IO: the caller asks [`admit`] before a
/// call and reports the outcome through [`on_result`]; both return the
/// transition they caused, if any.
///
/// [`admit`]: CircuitBreaker::admit
/// [`on_result`]: CircuitBreaker::on_result
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
    probe_successes: u32,
    transitions: BreakerTransitions,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: SimTime::ZERO,
            probe_successes: 0,
            transitions: BreakerTransitions::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The transitions made so far, counted by the state entered.
    pub fn transitions(&self) -> BreakerTransitions {
        self.transitions
    }

    /// Asks whether a call may proceed at `now`. An open breaker whose
    /// window has elapsed moves to half-open here (and says so in the
    /// returned transition).
    pub fn admit(&mut self, now: SimTime) -> (BreakerDecision, Option<BreakerTransition>) {
        match self.state {
            BreakerState::Closed => (BreakerDecision::Allow, None),
            BreakerState::HalfOpen => (BreakerDecision::Probe, None),
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.probe_successes = 0;
                    self.transitions.half_opens += 1;
                    (
                        BreakerDecision::Probe,
                        Some((BreakerState::Open, BreakerState::HalfOpen)),
                    )
                } else {
                    (BreakerDecision::FastFail, None)
                }
            }
        }
    }

    /// Reports the outcome of an admitted call. A success slower than the
    /// latency threshold counts as a failure. Draws from `rng` only when
    /// transitioning to open (and only if jitter is non-zero).
    pub fn on_result(
        &mut self,
        now: SimTime,
        ok: bool,
        latency: SimDuration,
        rng: &mut SimRng,
    ) -> Option<BreakerTransition> {
        let ok = ok && latency < self.config.latency_threshold;
        match self.state {
            BreakerState::Closed => {
                if ok {
                    self.consecutive_failures = 0;
                    None
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.config.failure_threshold {
                        self.trip(now, rng);
                        Some((BreakerState::Closed, BreakerState::Open))
                    } else {
                        None
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.probe_successes += 1;
                    if self.probe_successes >= self.config.half_open_probes {
                        self.state = BreakerState::Closed;
                        self.consecutive_failures = 0;
                        self.transitions.closes += 1;
                        Some((BreakerState::HalfOpen, BreakerState::Closed))
                    } else {
                        None
                    }
                } else {
                    self.trip(now, rng);
                    Some((BreakerState::HalfOpen, BreakerState::Open))
                }
            }
            // Results for calls admitted before the trip can still drain
            // while open; they carry no new information.
            BreakerState::Open => None,
        }
    }

    fn trip(&mut self, now: SimTime, rng: &mut SimRng) {
        self.state = BreakerState::Open;
        self.consecutive_failures = 0;
        self.transitions.opens += 1;
        let scale = if self.config.jitter > 0.0 {
            rng.range_f64(1.0 - self.config.jitter, 1.0 + self.config.jitter)
        } else {
            1.0
        };
        self.open_until = now + self.config.open_duration.mul_f64(scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            latency_threshold: SimDuration::from_millis(100),
            open_duration: SimDuration::from_secs(1),
            half_open_probes: 2,
            jitter: 0.0,
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn opens_after_consecutive_failures() {
        let mut rng = SimRng::seed_from(1);
        let mut b = CircuitBreaker::new(cfg());
        let fast = SimDuration::from_millis(1);
        assert_eq!(b.on_result(t(0.0), false, fast, &mut rng), None);
        assert_eq!(b.on_result(t(0.1), false, fast, &mut rng), None);
        assert_eq!(
            b.on_result(t(0.2), false, fast, &mut rng),
            Some((BreakerState::Closed, BreakerState::Open))
        );
        assert_eq!(b.admit(t(0.3)).0, BreakerDecision::FastFail);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut rng = SimRng::seed_from(1);
        let mut b = CircuitBreaker::new(cfg());
        let fast = SimDuration::from_millis(1);
        b.on_result(t(0.0), false, fast, &mut rng);
        b.on_result(t(0.1), false, fast, &mut rng);
        b.on_result(t(0.2), true, fast, &mut rng);
        b.on_result(t(0.3), false, fast, &mut rng);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn slow_success_counts_as_failure() {
        let mut rng = SimRng::seed_from(1);
        let mut b = CircuitBreaker::new(cfg());
        let slow = SimDuration::from_millis(500);
        b.on_result(t(0.0), true, slow, &mut rng);
        b.on_result(t(0.1), true, slow, &mut rng);
        assert_eq!(
            b.on_result(t(0.2), true, slow, &mut rng),
            Some((BreakerState::Closed, BreakerState::Open))
        );
    }

    #[test]
    fn open_window_elapses_into_half_open_then_closes() {
        let mut rng = SimRng::seed_from(1);
        let mut b = CircuitBreaker::new(cfg());
        let fast = SimDuration::from_millis(1);
        for _ in 0..3 {
            b.on_result(t(0.0), false, fast, &mut rng);
        }
        assert_eq!(b.admit(t(0.5)).0, BreakerDecision::FastFail);
        let (d, tr) = b.admit(t(1.5));
        assert_eq!(d, BreakerDecision::Probe);
        assert_eq!(tr, Some((BreakerState::Open, BreakerState::HalfOpen)));
        assert_eq!(b.on_result(t(1.6), true, fast, &mut rng), None);
        assert_eq!(
            b.on_result(t(1.7), true, fast, &mut rng),
            Some((BreakerState::HalfOpen, BreakerState::Closed))
        );
        assert_eq!(b.admit(t(1.8)).0, BreakerDecision::Allow);
        assert_eq!(
            b.transitions(),
            BreakerTransitions {
                opens: 1,
                half_opens: 1,
                closes: 1
            }
        );
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut rng = SimRng::seed_from(1);
        let mut b = CircuitBreaker::new(cfg());
        let fast = SimDuration::from_millis(1);
        for _ in 0..3 {
            b.on_result(t(0.0), false, fast, &mut rng);
        }
        b.admit(t(1.5));
        assert_eq!(
            b.on_result(t(1.6), false, fast, &mut rng),
            Some((BreakerState::HalfOpen, BreakerState::Open))
        );
        assert_eq!(b.admit(t(1.7)).0, BreakerDecision::FastFail);
        assert_eq!(
            b.transitions(),
            BreakerTransitions {
                opens: 2,
                half_opens: 1,
                closes: 0
            }
        );
    }

    #[test]
    fn jitter_draws_only_on_trip() {
        let mut rng = SimRng::seed_from(7);
        let probe = rng.next_u64();
        let mut rng = SimRng::seed_from(7);
        let mut b = CircuitBreaker::new(BreakerConfig {
            jitter: 0.0,
            ..cfg()
        });
        let fast = SimDuration::from_millis(1);
        b.on_result(t(0.0), true, fast, &mut rng);
        b.on_result(t(0.1), false, fast, &mut rng);
        b.admit(t(0.2));
        // No trip, zero jitter → no draws consumed.
        assert_eq!(rng.next_u64(), probe);
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let ok = BreakerConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            BreakerConfig {
                failure_threshold: 0,
                ..ok
            },
            BreakerConfig {
                latency_threshold: SimDuration::ZERO,
                ..ok
            },
            BreakerConfig {
                open_duration: SimDuration::ZERO,
                ..ok
            },
            BreakerConfig {
                half_open_probes: 0,
                ..ok
            },
            BreakerConfig { jitter: 1.0, ..ok },
            BreakerConfig { jitter: -0.1, ..ok },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}
