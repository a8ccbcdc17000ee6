//! Online gray-failure health detection and worker quarantine.
//!
//! The lease detector ([`crate::FaultPlan::DETECTION_DELAY`]) only catches
//! fail-stop faults: a worker that heartbeats on time while executing 10×
//! slower, hanging mid-exec, or failing every other invocation looks
//! perfectly healthy to it. This module closes that gap with *differential*
//! health statistics: every worker's recent execution latency and failure
//! rate are scored against the fleet median with a MAD (median absolute
//! deviation) outlier test, and sustained outliers move through a
//! hysteretic state machine mirroring the store circuit breaker and the
//! degradation controller:
//!
//! ```text
//!           outlier × probation_after      outlier × quarantine_after
//!   Healthy ─────────────────────▶ Probation ────────────────────▶ Quarantined
//!      ▲                              │                                 │
//!      │ good eval                    │ good eval                       │ cooldown
//!      │◀─────────────────────────────┘                                 ▼
//!      │            reinstate_probes good probes                  Reinstating
//!      └────────────────────────────────────────────────────────────────┘
//!                       bad probe → relapse (back to Quarantined)
//! ```
//!
//! While **Quarantined** the worker is *not* declared dead — its lease
//! stays valid, in-flight work may still complete — but the cluster zeroes
//! its residual capacity in load-aware placement, steers hedges away from
//! it, optionally drains its queued work, and (when placement is enabled)
//! triggers an incremental rebalance off the suspect. **Reinstating** is
//! the half-open probe phase: capacity is restored, the sample window is
//! cleared, and a run of good completions fully reinstates the worker
//! while a bad one relapses.
//!
//! The detector's per-worker state is its [`HealthLevel`], and it is the
//! only record of the quarantine decision: the cluster asks
//! `HealthDetector::quarantined` wherever it places, hedges or
//! redispatches, and acts on the returned transitions only to trace, arm
//! the reopen event and drain. Leaving quarantine at the reopen is the
//! detector's own state change and returns nothing.
//!
//! Everything here is deterministic — medians and MADs over integer
//! nanosecond counts, no RNG ever. With [`crate::ClusterConfig::health`]
//! unset (the default) the detector does not exist and all pre-existing
//! runs stay bit-identical.

use faasflow_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Score reported for a stuck-executor quarantine, where no finite
/// latency ratio exists (the worker stopped completing work entirely).
pub const STUCK_SCORE: f64 = 1000.0;

/// MAD floor, as a fraction of the fleet median latency. An
/// all-equally-degraded fleet has near-zero dispersion; without a floor
/// any hair of deviation would flag an outlier. With it, a worker must
/// exceed the fleet median by at least `mad_threshold × floor_fraction ×
/// fleet_median` to be suspected — uniform slowness never quarantines.
const MAD_FLOOR_FRACTION: f64 = 0.1;

/// Health-detector configuration. All thresholds are deterministic; the
/// detector never draws from the RNG.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Completed-exec samples retained per worker (ring buffer).
    pub window: usize,
    /// Samples a worker needs before it is scored at all.
    pub min_samples: usize,
    /// MAD multiples above the fleet median latency that flag an outlier.
    pub mad_threshold: f64,
    /// Failure-rate excess over the fleet median that flags an outlier,
    /// in `(0, 1]`.
    pub failure_threshold: f64,
    /// A worker with in-flight instances and no completion for this long
    /// is flagged stuck (the strongest outlier signal).
    pub stuck_after: SimDuration,
    /// Consecutive outlier evaluations before Healthy → Probation.
    pub probation_after: u32,
    /// Further consecutive outlier evaluations before Probation →
    /// Quarantined.
    pub quarantine_after: u32,
    /// Time a worker stays Quarantined before the half-open Reinstating
    /// probe phase begins.
    pub cooldown: SimDuration,
    /// Consecutive good probe completions required to reinstate.
    pub reinstate_probes: u32,
    /// Drain a quarantined worker: queued (not yet executing) instances
    /// pinned to it are re-dispatched elsewhere, and invocations whose
    /// recovery budget is already spent are dead-lettered as
    /// quarantine orphans.
    pub drain_on_quarantine: bool,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: 32,
            min_samples: 8,
            mad_threshold: 3.5,
            failure_threshold: 0.5,
            stuck_after: SimDuration::from_secs(5),
            probation_after: 3,
            quarantine_after: 3,
            cooldown: SimDuration::from_secs(10),
            reinstate_probes: 5,
            drain_on_quarantine: true,
        }
    }
}

impl HealthConfig {
    /// Checks the configuration for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("health window must be at least 1 sample".to_string());
        }
        if self.min_samples == 0 || self.min_samples > self.window {
            return Err(format!(
                "health min_samples must be in [1, window={}], got {}",
                self.window, self.min_samples
            ));
        }
        if !(self.mad_threshold.is_finite() && self.mad_threshold > 0.0) {
            return Err(format!(
                "health mad_threshold must be positive, got {}",
                self.mad_threshold
            ));
        }
        if !(self.failure_threshold > 0.0 && self.failure_threshold <= 1.0) {
            return Err(format!(
                "health failure_threshold must be in (0, 1], got {}",
                self.failure_threshold
            ));
        }
        if self.stuck_after.is_zero() {
            return Err("health stuck_after must be positive".to_string());
        }
        if self.probation_after == 0 {
            return Err("health probation_after must be at least 1".to_string());
        }
        if self.quarantine_after == 0 {
            return Err("health quarantine_after must be at least 1".to_string());
        }
        if self.cooldown.is_zero() {
            return Err("health cooldown must be positive".to_string());
        }
        if self.reinstate_probes == 0 {
            return Err("health reinstate_probes must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Externally visible health level of one worker — carried on trace
/// events, the Prometheus gauge and the Perfetto counter track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HealthLevel {
    /// Scoring within fleet norms.
    #[default]
    Healthy,
    /// Sustained outlier, not yet acted on.
    Probation,
    /// Capacity restored half-open; probe completions decide.
    Reinstating,
    /// Zero placement capacity, hedges steered away, optionally drained.
    Quarantined,
}

impl HealthLevel {
    /// Numeric severity for counter tracks (0 = healthy, rising with
    /// severity, mirroring the store breaker and degrade levels).
    pub fn as_level(self) -> u32 {
        match self {
            HealthLevel::Healthy => 0,
            HealthLevel::Probation => 1,
            HealthLevel::Reinstating => 2,
            HealthLevel::Quarantined => 3,
        }
    }

    /// Human-readable label for timelines and tables.
    pub fn label(self) -> &'static str {
        match self {
            HealthLevel::Healthy => "healthy",
            HealthLevel::Probation => "probation",
            HealthLevel::Reinstating => "reinstating",
            HealthLevel::Quarantined => "quarantined",
        }
    }
}

/// A state-machine transition the cluster turns into a trace event and,
/// for a quarantine, a reopen timer and an optional drain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum HealthTransition {
    /// The worker was quarantined (or relapsed back into quarantine).
    Quarantined {
        worker: u32,
        /// MAD score at the moment of quarantine ([`STUCK_SCORE`] for a
        /// stuck executor).
        score: f64,
        /// When the half-open Reinstating phase should begin; the cluster
        /// schedules a reopen event for this instant.
        reopen_at: SimTime,
        /// `true` when this is a Reinstating → Quarantined relapse.
        relapse: bool,
    },
    /// Enough good probes: the worker is fully healthy again.
    Reinstated { worker: u32 },
}

#[derive(Debug)]
struct WorkerEntry {
    state: HealthLevel,
    /// Ring buffer of completed-exec samples, oldest first.
    samples: std::collections::VecDeque<(SimDuration, bool)>,
    inflight: u32,
    /// Last instant this worker made observable progress (completed an
    /// instance, or went from idle to busy).
    last_progress: SimTime,
    /// Consecutive outlier evaluations in the current state.
    strikes: u32,
    /// Consecutive good probe completions while Reinstating.
    good_probes: u32,
    /// Expected reopen instant while Quarantined; a stale reopen event
    /// (scheduled before a relapse) no-ops because its time mismatches.
    reopen_at: SimTime,
    /// Lifetime quarantine count (for the per-worker snapshot).
    quarantines: u64,
}

impl WorkerEntry {
    fn new() -> Self {
        WorkerEntry {
            state: HealthLevel::Healthy,
            samples: std::collections::VecDeque::new(),
            inflight: 0,
            last_progress: SimTime::ZERO,
            strikes: 0,
            good_probes: 0,
            reopen_at: SimTime::MAX,
            quarantines: 0,
        }
    }

    fn median_latency(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let mut lat: Vec<u64> = self.samples.iter().map(|(d, _)| d.as_nanos()).collect();
        lat.sort_unstable();
        Some(SimDuration::from_nanos(lat[(lat.len() - 1) / 2]))
    }

    fn failure_rate(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let failed = self.samples.iter().filter(|(_, f)| *f).count();
        failed as f64 / self.samples.len() as f64
    }
}

/// Final state of one worker, for [`HealthReport::workers`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerHealthSnapshot {
    /// Worker index.
    pub worker: u32,
    /// Health level at report time.
    pub level: HealthLevel,
    /// Samples in the window at report time.
    pub samples: u32,
    /// Median exec latency over the window, microseconds (0 if no samples).
    pub median_exec_us: u64,
    /// Failure fraction over the window.
    pub failure_rate: f64,
    /// Times this worker was quarantined (relapses included).
    pub quarantines: u64,
}

/// Aggregate gray-failure counters for [`crate::RunReport`]. The detector
/// counters stay zero when no [`HealthConfig`] is set, but the injection
/// counters (`zombie_fenced`, `stalled_flows`, `stuck_deferrals`) track
/// [`crate::GrayFault`] effects whether or not a detector watches them.
/// All-zero reports are omitted from serialized output, keeping
/// pre-gray-failure goldens bit-identical.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// Workers watched by the detector (0 when disabled).
    pub workers_tracked: u32,
    /// Differential evaluations performed (one per completion).
    pub evaluations: u64,
    /// Healthy → Probation transitions.
    pub probations: u64,
    /// Probation → Quarantined transitions (relapses not included).
    pub quarantines: u64,
    /// Reinstating → Quarantined relapses (bad probe).
    pub relapses: u64,
    /// Reinstating → Healthy reinstatements.
    pub reinstatements: u64,
    /// Late completions from suspected-dead-but-alive workers rejected by
    /// the seq/epoch fences.
    pub zombie_fenced: u64,
    /// Invocations dead-lettered while draining a quarantined worker.
    pub quarantine_orphans: u64,
    /// Data-plane flows stalled by an asymmetric partition window.
    pub stalled_flows: u64,
    /// Completions deferred to a stuck-executor window's closing edge.
    pub stuck_deferrals: u64,
    /// Per-worker final state, in worker-index order (detector on only).
    pub workers: Vec<WorkerHealthSnapshot>,
}

impl HealthReport {
    /// True when neither a detector nor a gray fault ever fired — the
    /// report block is then omitted from serialized output so
    /// pre-gray-failure goldens stay bit-identical.
    pub fn is_zero(&self) -> bool {
        *self == HealthReport::default()
    }
}

/// Per-cluster health detector: one [`WorkerEntry`] per worker.
#[derive(Debug)]
pub(crate) struct HealthDetector {
    config: HealthConfig,
    entries: Vec<WorkerEntry>,
    report: HealthReport,
}

impl HealthDetector {
    pub(crate) fn new(config: HealthConfig, workers: u32) -> Self {
        HealthDetector {
            config,
            entries: (0..workers).map(|_| WorkerEntry::new()).collect(),
            report: HealthReport {
                workers_tracked: workers,
                ..HealthReport::default()
            },
        }
    }

    /// Whether `worker` is quarantined: excluded from the partition
    /// target set, from hedge candidate rings and from healthy redispatch.
    pub(crate) fn quarantined(&self, worker: u32) -> bool {
        self.entries[worker as usize].state == HealthLevel::Quarantined
    }

    #[cfg(test)]
    pub(crate) fn level(&self, worker: u32) -> HealthLevel {
        self.entries[worker as usize].state
    }

    /// An instance started executing on `worker`.
    pub(crate) fn note_start(&mut self, worker: u32, now: SimTime) {
        let e = &mut self.entries[worker as usize];
        if e.inflight == 0 {
            e.last_progress = now;
        }
        e.inflight += 1;
    }

    /// An `ExecDone` for `worker` died on an admission fence: the
    /// attempt's start was counted, so balance the in-flight gauge without
    /// taking a sample (the superseded completion says nothing about the
    /// worker's current behaviour).
    pub(crate) fn note_fenced(&mut self, worker: u32) {
        let e = &mut self.entries[worker as usize];
        e.inflight = e.inflight.saturating_sub(1);
    }

    /// An instance on `worker` finished (successfully or not) after
    /// `latency`. Records the sample and re-evaluates the fleet.
    pub(crate) fn note_complete(
        &mut self,
        worker: u32,
        latency: SimDuration,
        failed: bool,
        now: SimTime,
    ) -> Vec<HealthTransition> {
        let w = worker as usize;
        {
            let e = &mut self.entries[w];
            e.inflight = e.inflight.saturating_sub(1);
            e.last_progress = now;
            if e.samples.len() == self.config.window {
                e.samples.pop_front();
            }
            e.samples.push_back((latency, failed));
        }
        let mut out = Vec::new();
        // Half-open probe accounting: only the completing worker's own
        // results count as probes.
        if matches!(self.entries[w].state, HealthLevel::Reinstating) {
            let cutoff = self.latency_cutoff(Some(worker));
            let bad = failed || cutoff.is_some_and(|c| latency > c);
            if bad {
                self.report.relapses += 1;
                let score = self.config.mad_threshold;
                out.push(self.enter_quarantine(worker, now, score, true));
            } else {
                let e = &mut self.entries[w];
                e.good_probes += 1;
                if e.good_probes >= self.config.reinstate_probes {
                    e.state = HealthLevel::Healthy;
                    e.strikes = 0;
                    e.good_probes = 0;
                    self.report.reinstatements += 1;
                    out.push(HealthTransition::Reinstated { worker });
                }
            }
        }
        out.extend(self.evaluate(now));
        out
    }

    /// The cooldown reopen event fired: the worker leaves quarantine for
    /// the half-open probe phase, getting its capacity back. `scheduled_at`
    /// fences stale events from before a relapse.
    pub(crate) fn on_reopen(&mut self, worker: u32, scheduled_at: SimTime) {
        let e = &mut self.entries[worker as usize];
        if e.state != HealthLevel::Quarantined || e.reopen_at != scheduled_at {
            return;
        }
        e.state = HealthLevel::Reinstating;
        e.good_probes = 0;
        e.strikes = 0;
        e.reopen_at = SimTime::MAX;
        // Fresh window: the suspect's pre-heal history must not decide its
        // probe outcome.
        e.samples.clear();
    }

    /// The worker actually crashed (fail-stop). The lease path owns it
    /// now; reset its differential state so a restart starts clean.
    pub(crate) fn on_worker_crash(&mut self, worker: u32) {
        let quarantines = self.entries[worker as usize].quarantines;
        self.entries[worker as usize] = WorkerEntry {
            quarantines,
            ..WorkerEntry::new()
        };
    }

    /// The detector's counters and per-worker state.
    pub(crate) fn snapshot(&self) -> HealthReport {
        let workers = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| WorkerHealthSnapshot {
                worker: i as u32,
                level: e.state,
                samples: e.samples.len() as u32,
                median_exec_us: e.median_latency().map_or(0, |d| d.as_nanos() / 1_000),
                failure_rate: e.failure_rate(),
                quarantines: e.quarantines,
            })
            .collect();
        HealthReport {
            workers,
            ..self.report.clone()
        }
    }

    fn enter_quarantine(
        &mut self,
        worker: u32,
        now: SimTime,
        score: f64,
        relapse: bool,
    ) -> HealthTransition {
        let reopen_at = now + self.config.cooldown;
        let e = &mut self.entries[worker as usize];
        e.state = HealthLevel::Quarantined;
        e.strikes = 0;
        e.good_probes = 0;
        e.reopen_at = reopen_at;
        e.quarantines += 1;
        if !relapse {
            self.report.quarantines += 1;
        }
        HealthTransition::Quarantined {
            worker,
            score,
            reopen_at,
            relapse,
        }
    }

    /// The latency above which a single completion (or a worker median)
    /// counts as an outlier: fleet median + threshold × floored MAD.
    /// `exclude` keeps a probing worker's empty/fresh window from biasing
    /// the fleet stats. Returns `None` with fewer than two scoreable
    /// workers — a fleet of one has no peers and never flags anyone.
    fn latency_cutoff(&self, exclude: Option<u32>) -> Option<SimDuration> {
        let (fleet_median, mad) = self.fleet_latency_stats(exclude)?;
        let floor = fleet_median.mul_f64(MAD_FLOOR_FRACTION);
        let mad = mad.max(floor);
        Some(fleet_median + mad.mul_f64(self.config.mad_threshold))
    }

    /// (fleet median of per-worker median latencies, MAD of those
    /// medians), over workers with at least `min_samples`.
    fn fleet_latency_stats(&self, exclude: Option<u32>) -> Option<(SimDuration, SimDuration)> {
        let mut medians: Vec<u64> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                Some(*i as u32) != exclude && e.samples.len() >= self.config.min_samples
            })
            .filter_map(|(_, e)| e.median_latency().map(|d| d.as_nanos()))
            .collect();
        if medians.len() < 2 {
            return None;
        }
        medians.sort_unstable();
        let fleet = medians[(medians.len() - 1) / 2];
        let mut dev: Vec<u64> = medians.iter().map(|m| m.abs_diff(fleet)).collect();
        dev.sort_unstable();
        let mad = dev[(dev.len() - 1) / 2];
        Some((SimDuration::from_nanos(fleet), SimDuration::from_nanos(mad)))
    }

    /// Median failure rate over scoreable workers.
    fn fleet_failure_median(&self) -> Option<f64> {
        let mut rates: Vec<f64> = self
            .entries
            .iter()
            .filter(|e| e.samples.len() >= self.config.min_samples)
            .map(|e| e.failure_rate())
            .collect();
        if rates.len() < 2 {
            return None;
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("failure rates are finite"));
        Some(rates[(rates.len() - 1) / 2])
    }

    /// One differential evaluation of the whole fleet. Only Healthy and
    /// Probation workers transition here; Quarantined waits for its
    /// cooldown and Reinstating is probe-driven.
    fn evaluate(&mut self, now: SimTime) -> Vec<HealthTransition> {
        self.report.evaluations += 1;
        if self.entries.len() < 2 {
            return Vec::new();
        }
        let stats = self.fleet_latency_stats(None);
        let fail_median = self.fleet_failure_median();
        let mut out = Vec::new();
        for w in 0..self.entries.len() {
            let e = &self.entries[w];
            if !matches!(e.state, HealthLevel::Healthy | HealthLevel::Probation) {
                continue;
            }
            // Stuck signal: accepting work, completing nothing.
            let stuck =
                e.inflight > 0 && now.duration_since(e.last_progress) > self.config.stuck_after;
            let mut score = 0.0_f64;
            let mut outlier = stuck;
            if stuck {
                score = STUCK_SCORE;
            } else if e.samples.len() >= self.config.min_samples {
                if let (Some((fleet, mad)), Some(med)) = (stats, e.median_latency()) {
                    let mad = mad.max(fleet.mul_f64(MAD_FLOOR_FRACTION));
                    if med > fleet {
                        score = (med - fleet).as_nanos() as f64 / mad.as_nanos().max(1) as f64;
                        outlier = score > self.config.mad_threshold;
                    }
                }
                if !outlier {
                    if let Some(fleet_fail) = fail_median {
                        let excess = e.failure_rate() - fleet_fail;
                        if excess > self.config.failure_threshold {
                            outlier = true;
                            score = excess / self.config.failure_threshold;
                        }
                    }
                }
            }
            let e = &mut self.entries[w];
            if !outlier {
                // One good eval clears strikes and probation entirely.
                e.strikes = 0;
                if e.state == HealthLevel::Probation {
                    e.state = HealthLevel::Healthy;
                }
                continue;
            }
            e.strikes += 1;
            match e.state {
                HealthLevel::Healthy => {
                    if e.strikes >= self.config.probation_after {
                        e.state = HealthLevel::Probation;
                        e.strikes = 0;
                        self.report.probations += 1;
                    }
                }
                HealthLevel::Probation => {
                    if e.strikes >= self.config.quarantine_after {
                        out.push(self.enter_quarantine(w as u32, now, score, false));
                    }
                }
                _ => unreachable!("filtered above"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HealthConfig {
        HealthConfig {
            min_samples: 4,
            probation_after: 2,
            quarantine_after: 2,
            reinstate_probes: 2,
            ..HealthConfig::default()
        }
    }

    fn feed(
        d: &mut HealthDetector,
        worker: u32,
        ms: u64,
        n: usize,
        now: &mut SimTime,
    ) -> Vec<HealthTransition> {
        let mut out = Vec::new();
        for _ in 0..n {
            *now += SimDuration::from_millis(10);
            d.note_start(worker, *now);
            out.extend(d.note_complete(worker, SimDuration::from_millis(ms), false, *now));
        }
        out
    }

    /// The reopen instant of the last quarantine among `transitions`.
    fn last_reopen(transitions: &[HealthTransition]) -> SimTime {
        let reopen = |t: &HealthTransition| match *t {
            HealthTransition::Quarantined { reopen_at, .. } => Some(reopen_at),
            HealthTransition::Reinstated { .. } => None,
        };
        transitions
            .iter()
            .rev()
            .find_map(reopen)
            .expect("quarantined")
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        HealthConfig::default().validate().expect("default valid");
        let bad = [
            HealthConfig {
                window: 0,
                ..HealthConfig::default()
            },
            HealthConfig {
                min_samples: 64,
                window: 32,
                ..HealthConfig::default()
            },
            HealthConfig {
                mad_threshold: 0.0,
                ..HealthConfig::default()
            },
            HealthConfig {
                failure_threshold: 1.5,
                ..HealthConfig::default()
            },
            HealthConfig {
                stuck_after: SimDuration::ZERO,
                ..HealthConfig::default()
            },
            HealthConfig {
                probation_after: 0,
                ..HealthConfig::default()
            },
            HealthConfig {
                quarantine_after: 0,
                ..HealthConfig::default()
            },
            HealthConfig {
                cooldown: SimDuration::ZERO,
                ..HealthConfig::default()
            },
            HealthConfig {
                reinstate_probes: 0,
                ..HealthConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
    }

    #[test]
    fn slow_outlier_is_quarantined_and_reinstated() {
        let mut d = HealthDetector::new(config(), 3);
        let mut now = SimTime::ZERO;
        // Two healthy peers at ~50 ms, one worker at 500 ms.
        feed(&mut d, 0, 50, 8, &mut now);
        feed(&mut d, 1, 50, 8, &mut now);
        let transitions = feed(&mut d, 2, 500, 12, &mut now);
        let q = transitions.iter().find_map(|t| match t {
            HealthTransition::Quarantined { worker, score, .. } => Some((*worker, *score)),
            _ => None,
        });
        let (worker, score) = q.expect("slow worker quarantined");
        assert_eq!(worker, 2);
        assert!(score > 3.5, "score {score} should exceed the threshold");
        assert_eq!(d.level(2), HealthLevel::Quarantined);
        assert_eq!(d.level(0), HealthLevel::Healthy);

        // Cooldown elapses: half-open, then good probes reinstate.
        let reopen = last_reopen(&transitions);
        // A reopen event stamped with the wrong instant is stale: fenced.
        d.on_reopen(2, reopen + SimDuration::from_millis(1));
        assert!(d.quarantined(2));
        d.on_reopen(2, reopen);
        assert_eq!(d.level(2), HealthLevel::Reinstating);
        assert!(!d.quarantined(2));
        now = reopen;
        let transitions = feed(&mut d, 2, 50, 4, &mut now);
        assert!(
            transitions
                .iter()
                .any(|t| matches!(t, HealthTransition::Reinstated { worker: 2 })),
            "healed worker reinstates after good probes: {transitions:?}"
        );
        assert_eq!(d.level(2), HealthLevel::Healthy);
    }

    #[test]
    fn bad_probe_relapses() {
        let mut d = HealthDetector::new(config(), 3);
        let mut now = SimTime::ZERO;
        feed(&mut d, 0, 50, 8, &mut now);
        feed(&mut d, 1, 50, 8, &mut now);
        let transitions = feed(&mut d, 2, 800, 12, &mut now);
        let reopen = last_reopen(&transitions);
        d.on_reopen(2, reopen);
        assert_eq!(d.level(2), HealthLevel::Reinstating);
        now = reopen;
        // Still slow: the first probe relapses.
        let transitions = feed(&mut d, 2, 800, 1, &mut now);
        assert!(
            transitions
                .iter()
                .any(|t| matches!(t, HealthTransition::Quarantined { relapse: true, .. })),
            "slow probe relapses: {transitions:?}"
        );
        assert_eq!(d.level(2), HealthLevel::Quarantined);
        let report = d.snapshot();
        assert_eq!(report.relapses, 1);
        assert_eq!(report.quarantines, 1);
        assert_eq!(report.workers[2].quarantines, 2);
    }

    #[test]
    fn fleet_of_one_never_quarantines() {
        let mut d = HealthDetector::new(config(), 1);
        let mut now = SimTime::ZERO;
        let transitions = feed(&mut d, 0, 5000, 40, &mut now);
        assert!(transitions.is_empty(), "no peers, no suspicion");
        assert_eq!(d.level(0), HealthLevel::Healthy);
    }

    #[test]
    fn uniformly_slow_fleet_has_no_outlier() {
        let mut d = HealthDetector::new(config(), 3);
        let mut now = SimTime::ZERO;
        let mut transitions = Vec::new();
        for w in 0..3 {
            transitions.extend(feed(&mut d, w, 2000, 16, &mut now));
        }
        assert!(
            transitions.is_empty(),
            "uniform slowness is not an outlier: {transitions:?}"
        );
        for w in 0..3 {
            assert_eq!(d.level(w), HealthLevel::Healthy);
        }
    }

    #[test]
    fn elevated_failure_rate_is_an_outlier() {
        let mut d = HealthDetector::new(config(), 3);
        let mut now = SimTime::ZERO;
        feed(&mut d, 0, 50, 8, &mut now);
        feed(&mut d, 1, 50, 8, &mut now);
        // Same latency, but every exec fails.
        let mut transitions = Vec::new();
        for _ in 0..12 {
            now += SimDuration::from_millis(10);
            d.note_start(2, now);
            transitions.extend(d.note_complete(2, SimDuration::from_millis(50), true, now));
        }
        assert!(
            transitions
                .iter()
                .any(|t| matches!(t, HealthTransition::Quarantined { worker: 2, .. })),
            "flaky worker quarantined: {transitions:?}"
        );
    }

    #[test]
    fn stuck_worker_is_flagged_without_completions() {
        let mut d = HealthDetector::new(config(), 3);
        let mut now = SimTime::ZERO;
        feed(&mut d, 0, 50, 8, &mut now);
        feed(&mut d, 1, 50, 8, &mut now);
        // Worker 2 accepts work and never completes; peers keep completing
        // and each completion re-evaluates the fleet.
        d.note_start(2, now);
        now += SimDuration::from_secs(6);
        let transitions = feed(&mut d, 0, 50, 8, &mut now);
        let stuck = transitions.iter().find_map(|t| match t {
            HealthTransition::Quarantined { worker, score, .. } => Some((*worker, *score)),
            _ => None,
        });
        let (worker, score) = stuck.expect("stuck worker quarantined");
        assert_eq!(worker, 2);
        assert_eq!(score, STUCK_SCORE);
    }

    #[test]
    fn crash_resets_detector_state() {
        let mut d = HealthDetector::new(config(), 3);
        let mut now = SimTime::ZERO;
        feed(&mut d, 0, 50, 8, &mut now);
        feed(&mut d, 1, 50, 8, &mut now);
        feed(&mut d, 2, 800, 12, &mut now);
        assert_eq!(d.level(2), HealthLevel::Quarantined);
        d.on_worker_crash(2);
        assert_eq!(d.level(2), HealthLevel::Healthy);
        let report = d.snapshot();
        assert_eq!(report.workers[2].samples, 0);
        assert_eq!(report.workers[2].quarantines, 1, "lifetime count survives");
    }
}
