//! Closed-loop SLO-driven degradation.
//!
//! The SLO monitor ([`crate::SloConfig`]) observes; this module *acts*.
//! When a workflow's burn-rate alert fires, the degradation controller
//! moves that workflow — and only that workflow — through a hysteretic
//! state machine:
//!
//! ```text
//!            alert fires                alert persists past cooldown
//!   Normal ─────────────▶ Throttled ──────────────────────▶ Shedding
//!     ▲                       │                                 │
//!     │                       │ alert resolves                  │ alert resolves
//!     │                       ▼                                 ▼
//!     └──────────────── Recovering ◀────────────────────────────┘
//!       N good probes     │    ▲
//!                         └────┘ bad probe / re-fire → relapse (tighten)
//! ```
//!
//! While **Throttled**, admissions of the offending workflow are bounded
//! by a concurrency cap; while **Shedding**, only a configured fraction of
//! arrivals is admitted at all (deterministic credit accumulation — no
//! RNG) and the workflow is additionally demoted to the front of the
//! `DeadlineAware` shed order and its hedged retries are suspended, since
//! hedges amplify load exactly when the system can least afford it.
//! Recovery mirrors the store circuit breaker's half-open probing: on
//! `SloAlertResolved` the workflow enters **Recovering**, a fraction of
//! admitted traffic is marked as probes, and only after a run of good
//! probes (additive cap growth along the way) is the workflow fully
//! restored; a bad probe or a re-fired alert relapses with a
//! multiplicatively tightened cap.
//!
//! The controller is driven by one call per terminal outcome,
//! `DegradeController::on_verdict`, which takes the SLO monitor's verdict
//! for that outcome, steps the state machine in a fixed order (outcome,
//! fire, full resolve, persisting alert) and traces each
//! `WorkflowDegraded`/`WorkflowRestored` in the step that causes it.
//!
//! Everything here is deterministic and event-driven, and nothing draws
//! from the RNG. With [`crate::ClusterConfig::degrade`] unset (the
//! default) the controller does not exist: every arrival passes the gate
//! and no hedge or shed decision consults it.

use faasflow_sim::{SimDuration, SimTime, WorkflowId};
use serde::{Deserialize, Serialize};

use crate::slo::SloVerdict;
use crate::trace::{TraceEvent, Tracer};

/// Degradation controller configuration. Requires
/// [`crate::ClusterConfig::slo`] to be set: the SLO monitor's alerts are
/// the controller's only input signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeConfig {
    /// Concurrency cap applied when a workflow first enters Throttled.
    pub initial_cap: u32,
    /// Floor the cap never tightens below (at least 1, so a degraded
    /// workflow always retains some probe-able trickle of capacity).
    pub min_cap: u32,
    /// Multiplicative factor applied to the cap on escalation and relapse,
    /// in `(0, 1)` — the "multiplicative decrease" half of the loop.
    pub tighten: f64,
    /// Cap increase per good recovery probe — the "additive increase"
    /// half of the loop.
    pub recover_step: u32,
    /// Minimum simulated time between state-machine transitions driven by
    /// a *persisting* alert (Throttled → Shedding escalation, in-Shedding
    /// tightening). Prevents a burst of completions from collapsing the
    /// staircase into one step.
    pub cooldown: SimDuration,
    /// Fraction of arrivals admitted while Shedding, in `[0, 1]`.
    /// Accumulated as a deterministic credit (`credit += fraction; admit
    /// when credit >= 1`), so no RNG is drawn. `0.0` means full brown-out:
    /// every arrival of the offender is refused until the alert resolves.
    pub shed_admit_fraction: f64,
    /// Fraction of admissions marked as recovery probes while Recovering,
    /// in `(0, 1]`. Same deterministic credit scheme.
    pub probe_fraction: f64,
    /// Consecutive good probes required to restore a Recovering workflow
    /// to Normal.
    pub probe_successes: u32,
    /// Suspend hedged retries for Throttled/Shedding workflows.
    pub suspend_hedges: bool,
    /// Demote Throttled/Shedding workflows to the front of the
    /// `DeadlineAware` shed order, so queue overflow evicts the offender
    /// before innocent tenants.
    pub demote_shed_priority: bool,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            initial_cap: 8,
            min_cap: 1,
            tighten: 0.5,
            recover_step: 1,
            cooldown: SimDuration::from_secs(5),
            shed_admit_fraction: 0.25,
            probe_fraction: 0.5,
            probe_successes: 4,
            suspend_hedges: true,
            demote_shed_priority: true,
        }
    }
}

impl DegradeConfig {
    /// Checks the configuration for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.initial_cap == 0 {
            return Err("degrade initial_cap must be at least 1".to_string());
        }
        if self.min_cap == 0 || self.min_cap > self.initial_cap {
            return Err(format!(
                "degrade min_cap must be in [1, initial_cap={}], got {}",
                self.initial_cap, self.min_cap
            ));
        }
        if !(self.tighten > 0.0 && self.tighten < 1.0) {
            return Err(format!(
                "degrade tighten factor must be in (0, 1), got {}",
                self.tighten
            ));
        }
        if self.recover_step == 0 {
            return Err("degrade recover_step must be at least 1".to_string());
        }
        if self.cooldown == SimDuration::ZERO {
            return Err("degrade cooldown must be positive".to_string());
        }
        if !(self.shed_admit_fraction >= 0.0 && self.shed_admit_fraction <= 1.0) {
            return Err(format!(
                "degrade shed_admit_fraction must be in [0, 1], got {}",
                self.shed_admit_fraction
            ));
        }
        if !(self.probe_fraction > 0.0 && self.probe_fraction <= 1.0) {
            return Err(format!(
                "degrade probe_fraction must be in (0, 1], got {}",
                self.probe_fraction
            ));
        }
        if self.probe_successes == 0 {
            return Err("degrade probe_successes must be at least 1".to_string());
        }
        Ok(())
    }

    /// Multiplicative tightening, floored at `min_cap`.
    fn tightened(&self, cap: u32) -> u32 {
        (((f64::from(cap)) * self.tighten).floor() as u32).max(self.min_cap)
    }
}

/// Externally visible degradation level of one workflow — carried on
/// [`crate::TraceEvent::WorkflowDegraded`] and the Perfetto counter track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DegradeLevel {
    /// Full service.
    #[default]
    Normal,
    /// Half-open recovery: capped admission, a fraction marked as probes.
    Recovering,
    /// Concurrency-capped admission.
    Throttled,
    /// Only `shed_admit_fraction` of arrivals admitted.
    Shedding,
}

impl DegradeLevel {
    /// Numeric severity for counter tracks (mirrors the store breaker:
    /// 0 = closed/healthy, rising with severity).
    pub fn as_level(self) -> u32 {
        match self {
            DegradeLevel::Normal => 0,
            DegradeLevel::Recovering => 1,
            DegradeLevel::Throttled => 2,
            DegradeLevel::Shedding => 3,
        }
    }

    /// Human-readable label for timelines and tables.
    pub fn label(self) -> &'static str {
        match self {
            DegradeLevel::Normal => "normal",
            DegradeLevel::Recovering => "recovering",
            DegradeLevel::Throttled => "throttled",
            DegradeLevel::Shedding => "shedding",
        }
    }
}

/// Internal state machine state. `Recovering` remembers which degraded
/// state it entered from so a relapse returns there.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Normal,
    Throttled,
    Shedding,
    Recovering { from_shedding: bool },
}

impl State {
    fn level(self) -> DegradeLevel {
        match self {
            State::Normal => DegradeLevel::Normal,
            State::Throttled => DegradeLevel::Throttled,
            State::Shedding => DegradeLevel::Shedding,
            State::Recovering { .. } => DegradeLevel::Recovering,
        }
    }
}

/// Outcome of an admission decision for one arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AdmitDecision {
    /// Whether the arrival may proceed. `false` means the cluster sheds it
    /// at the gate (a *degrade* shed, accounted separately from queue
    /// overflow sheds).
    pub admitted: bool,
    /// Whether this admission is a recovery probe: its terminal outcome
    /// feeds the restore/relapse decision.
    pub probe: bool,
}

impl AdmitDecision {
    pub(crate) const ADMIT: AdmitDecision = AdmitDecision {
        admitted: true,
        probe: false,
    };
}

#[derive(Debug)]
struct WorkflowEntry {
    workflow: WorkflowId,
    name: String,
    state: State,
    cap: u32,
    inflight: u32,
    admit_credit: f64,
    probe_credit: f64,
    good_probes: u32,
    last_transition: SimTime,
    sheds: u64,
}

/// Final state of one tracked workflow, for [`DegradeReport::workflows`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowDegradeSnapshot {
    /// Workflow name (as registered).
    pub workflow: String,
    /// Degradation level at report time.
    pub level: DegradeLevel,
    /// Concurrency cap at report time (meaningful when degraded).
    pub cap: u32,
    /// Arrivals this workflow lost to the degradation gate.
    pub sheds: u64,
}

/// Aggregate degradation counters for [`crate::RunReport`]. All-zero (and
/// omitted from serialized reports) when no [`DegradeConfig`] is set.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DegradeReport {
    /// Workflows with an SLO objective, tracked by the controller.
    pub workflows_tracked: u32,
    /// Normal → Throttled transitions (alert fired on a healthy workflow).
    pub throttles: u64,
    /// Throttled → Shedding escalations (alert persisted past cooldown).
    pub escalations: u64,
    /// In-Shedding cap tightenings (alert persisted further).
    pub tightenings: u64,
    /// Degraded → Recovering transitions (alert resolved).
    pub recoveries: u64,
    /// Recovering → degraded relapses (bad probe or re-fired alert).
    pub relapses: u64,
    /// Recovering → Normal restorations (probe run succeeded).
    pub restores: u64,
    /// Arrivals refused at the degradation gate. Counted per workflow in
    /// [`WorkflowDegradeSnapshot::sheds`]; disjoint from
    /// `OverloadReport::shed` (queue overflow).
    pub sheds: u64,
    /// Admissions marked as recovery probes.
    pub probes: u64,
    /// Probes whose terminal outcome was bad (each one relapses).
    pub probe_failures: u64,
    /// Hedged retries suppressed because the workflow was degraded.
    pub hedges_suppressed: u64,
    /// Queue-overflow sheds that picked a demoted (degraded) workflow's
    /// invocation because of shed-priority demotion.
    pub demoted_sheds: u64,
    /// Per-workflow final state, in tracking (registration) order.
    pub workflows: Vec<WorkflowDegradeSnapshot>,
}

impl DegradeReport {
    /// True when no degradation controller was configured — the report
    /// block is then omitted from serialized output so pre-degradation
    /// goldens stay bit-identical.
    pub fn is_zero(&self) -> bool {
        *self == DegradeReport::default()
    }
}

/// Per-cluster degradation controller: one [`WorkflowEntry`] per workflow
/// that carries an SLO objective, in registration order (deterministic).
#[derive(Debug)]
pub(crate) struct DegradeController {
    config: DegradeConfig,
    entries: Vec<WorkflowEntry>,
    report: DegradeReport,
}

impl DegradeController {
    pub(crate) fn new(config: DegradeConfig) -> Self {
        DegradeController {
            config,
            entries: Vec::new(),
            report: DegradeReport::default(),
        }
    }

    /// Starts tracking a workflow (called at registration for every
    /// workflow that has an SLO objective).
    pub(crate) fn track(&mut self, name: &str, workflow: WorkflowId) {
        self.entries.push(WorkflowEntry {
            workflow,
            name: name.to_string(),
            state: State::Normal,
            cap: self.config.initial_cap,
            inflight: 0,
            admit_credit: 0.0,
            probe_credit: 0.0,
            good_probes: 0,
            last_transition: SimTime::ZERO,
            sheds: 0,
        });
        self.report.workflows_tracked = self.entries.len() as u32;
    }

    /// Free-standing lookup so callers can hold the entry and the report
    /// mutably at the same time (disjoint-field borrows).
    fn find(entries: &mut [WorkflowEntry], workflow: WorkflowId) -> Option<&mut WorkflowEntry> {
        entries.iter_mut().find(|e| e.workflow == workflow)
    }

    /// Gate for one arrival. Untracked workflows are always admitted.
    pub(crate) fn admit(&mut self, workflow: WorkflowId) -> AdmitDecision {
        let config = self.config;
        let Some(entry) = Self::find(&mut self.entries, workflow) else {
            return AdmitDecision::ADMIT;
        };
        let decision = match entry.state {
            State::Normal => AdmitDecision::ADMIT,
            State::Throttled => AdmitDecision {
                admitted: entry.inflight < entry.cap,
                probe: false,
            },
            State::Shedding => {
                entry.admit_credit += config.shed_admit_fraction;
                if entry.admit_credit >= 1.0 && entry.inflight < entry.cap {
                    entry.admit_credit -= 1.0;
                    AdmitDecision::ADMIT
                } else {
                    // Never bank more than one admission of credit: a long
                    // refused stretch must not turn into a burst later.
                    entry.admit_credit = entry.admit_credit.min(1.0);
                    AdmitDecision {
                        admitted: false,
                        probe: false,
                    }
                }
            }
            State::Recovering { .. } => {
                if entry.inflight < entry.cap {
                    entry.probe_credit += config.probe_fraction;
                    let probe = entry.probe_credit >= 1.0;
                    if probe {
                        entry.probe_credit -= 1.0;
                    }
                    AdmitDecision {
                        admitted: true,
                        probe,
                    }
                } else {
                    AdmitDecision {
                        admitted: false,
                        probe: false,
                    }
                }
            }
        };
        if decision.admitted {
            entry.inflight += 1;
        } else {
            entry.sheds += 1;
            self.report.sheds += 1;
        }
        if decision.probe {
            self.report.probes += 1;
        }
        decision
    }

    /// Drives the state machine off one terminal outcome's SLO verdict,
    /// tracing each transition where it is made. The order is fixed: the
    /// outcome itself first (it frees the inflight slot and — for probes —
    /// decides restore vs relapse), then the fire edge, then the resolve
    /// (only once *no* objective of the workflow is still alerting, not on
    /// a partial resolve), then the persisting alert.
    pub(crate) fn on_verdict(
        &mut self,
        now: SimTime,
        workflow: WorkflowId,
        probe: bool,
        verdict: SloVerdict,
        tracer: &mut Tracer,
    ) {
        if !verdict.evaluated {
            return;
        }
        self.on_terminal(now, workflow, probe, verdict.bad, tracer);
        // One fire edge suffices: a second one in the same completion finds
        // the workflow already Throttled or Shedding.
        if verdict.fired {
            self.on_fired(now, workflow, tracer);
        }
        if verdict.resolved && !verdict.alert_active {
            self.on_resolved(now, workflow, tracer);
        }
        if verdict.alert_active {
            self.on_alert_active(now, workflow, tracer);
        }
    }

    /// Alert fired for this workflow: begin (or relapse into) degradation.
    fn on_fired(&mut self, now: SimTime, workflow: WorkflowId, tracer: &mut Tracer) {
        let config = self.config;
        let Some(entry) = Self::find(&mut self.entries, workflow) else {
            return;
        };
        match entry.state {
            State::Normal => {
                entry.state = State::Throttled;
                entry.cap = config.initial_cap;
                entry.last_transition = now;
                self.report.throttles += 1;
                trace_degraded(tracer, now, entry);
            }
            State::Recovering { from_shedding } => {
                Self::relapse(&mut self.report, &config, entry, now, from_shedding, tracer);
            }
            // Already degraded: the staircase advances via
            // `on_alert_active`, not via duplicate fire edges.
            State::Throttled | State::Shedding => {}
        }
    }

    /// Alert resolved for this workflow: begin half-open recovery.
    fn on_resolved(&mut self, now: SimTime, workflow: WorkflowId, tracer: &mut Tracer) {
        let Some(entry) = Self::find(&mut self.entries, workflow) else {
            return;
        };
        let from_shedding = match entry.state {
            State::Throttled => false,
            State::Shedding => true,
            State::Normal | State::Recovering { .. } => return,
        };
        entry.state = State::Recovering { from_shedding };
        entry.good_probes = 0;
        entry.probe_credit = 0.0;
        entry.last_transition = now;
        self.report.recoveries += 1;
        trace_degraded(tracer, now, entry);
    }

    /// The alert is *still* active after an evaluation: advance the
    /// staircase, but only once per cooldown period.
    fn on_alert_active(&mut self, now: SimTime, workflow: WorkflowId, tracer: &mut Tracer) {
        let config = self.config;
        let Some(entry) = Self::find(&mut self.entries, workflow) else {
            return;
        };
        if now - entry.last_transition < config.cooldown {
            return;
        }
        match entry.state {
            State::Throttled => {
                entry.state = State::Shedding;
                entry.cap = config.tightened(entry.cap);
                entry.last_transition = now;
                self.report.escalations += 1;
                trace_degraded(tracer, now, entry);
            }
            State::Shedding => {
                // Deep in the red: keep tightening toward min_cap.
                let tightened = config.tightened(entry.cap);
                entry.last_transition = now;
                if tightened < entry.cap {
                    entry.cap = tightened;
                    self.report.tightenings += 1;
                }
            }
            // A still-active *other* objective while recovering counts as
            // a relapse signal (the resolve that started recovery was only
            // partial).
            State::Recovering { from_shedding } => {
                Self::relapse(&mut self.report, &config, entry, now, from_shedding, tracer);
            }
            State::Normal => {}
        }
    }

    /// One tracked invocation reached a terminal state. `probe` marks
    /// recovery probes; `bad` is the SLO verdict for this invocation.
    fn on_terminal(
        &mut self,
        now: SimTime,
        workflow: WorkflowId,
        probe: bool,
        bad: bool,
        tracer: &mut Tracer,
    ) {
        let config = self.config;
        let Some(entry) = Self::find(&mut self.entries, workflow) else {
            return;
        };
        entry.inflight = entry.inflight.saturating_sub(1);
        if !probe {
            return;
        }
        let State::Recovering { from_shedding } = entry.state else {
            // A probe admitted during a previous recovery attempt that has
            // since relapsed or restored: its verdict is stale, ignore it.
            return;
        };
        if bad {
            self.report.probe_failures += 1;
            Self::relapse(&mut self.report, &config, entry, now, from_shedding, tracer);
            return;
        }
        entry.good_probes += 1;
        entry.cap += config.recover_step;
        if entry.good_probes >= config.probe_successes {
            entry.state = State::Normal;
            entry.cap = config.initial_cap;
            entry.admit_credit = 0.0;
            entry.probe_credit = 0.0;
            entry.good_probes = 0;
            entry.last_transition = now;
            self.report.restores += 1;
            tracer.record(|| TraceEvent::WorkflowRestored { workflow, at: now });
        }
    }

    fn relapse(
        report: &mut DegradeReport,
        config: &DegradeConfig,
        entry: &mut WorkflowEntry,
        now: SimTime,
        from_shedding: bool,
        tracer: &mut Tracer,
    ) {
        entry.state = if from_shedding {
            State::Shedding
        } else {
            State::Throttled
        };
        entry.cap = config.tightened(entry.cap);
        entry.good_probes = 0;
        entry.probe_credit = 0.0;
        entry.last_transition = now;
        report.relapses += 1;
        trace_degraded(tracer, now, entry);
    }

    /// Whether the workflow is throttled or shedding.
    fn degraded(&self, workflow: WorkflowId) -> bool {
        self.entries.iter().any(|e| {
            e.workflow == workflow && matches!(e.state, State::Throttled | State::Shedding)
        })
    }

    /// Whether a hedge for this workflow should be suppressed right now.
    pub(crate) fn suppress_hedge(&mut self, workflow: WorkflowId) -> bool {
        let suppressed = self.config.suspend_hedges && self.degraded(workflow);
        if suppressed {
            self.report.hedges_suppressed += 1;
        }
        suppressed
    }

    /// Whether queue-overflow shedding should prefer this workflow's
    /// invocations as victims.
    pub(crate) fn demotes(&self, workflow: WorkflowId) -> bool {
        self.config.demote_shed_priority && self.degraded(workflow)
    }

    /// Records that a queue-overflow shed picked a demoted victim.
    pub(crate) fn note_demoted_shed(&mut self) {
        self.report.demoted_sheds += 1;
    }

    pub(crate) fn report(&self) -> DegradeReport {
        let mut report = self.report.clone();
        report.workflows = self
            .entries
            .iter()
            .map(|e| WorkflowDegradeSnapshot {
                workflow: e.name.clone(),
                level: e.state.level(),
                cap: e.cap,
                sheds: e.sheds,
            })
            .collect();
        report
    }
}

/// Traces the level and cap `entry` just moved to.
fn trace_degraded(tracer: &mut Tracer, now: SimTime, entry: &WorkflowEntry) {
    tracer.record(|| TraceEvent::WorkflowDegraded {
        workflow: entry.workflow,
        level: entry.state.level(),
        cap: entry.cap,
        at: now,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf(n: u32) -> WorkflowId {
        WorkflowId::new(n)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn controller() -> DegradeController {
        let mut c = DegradeController::new(DegradeConfig::default());
        c.track("hot", wf(0));
        c
    }

    fn tracer() -> Tracer {
        Tracer::new(true, 64)
    }

    /// The `WorkflowDegraded` event `wf(0)` moving to `level` with `cap`.
    fn degraded(secs: u64, level: DegradeLevel, cap: u32) -> TraceEvent {
        TraceEvent::WorkflowDegraded {
            workflow: wf(0),
            level,
            cap,
            at: at(secs),
        }
    }

    #[test]
    fn config_validation() {
        assert!(DegradeConfig::default().validate().is_ok());
        let check = |patch: fn(&mut DegradeConfig)| {
            let mut c = DegradeConfig::default();
            patch(&mut c);
            c.validate()
        };
        assert!(check(|c| c.initial_cap = 0).is_err());
        assert!(check(|c| c.min_cap = 0).is_err());
        assert!(check(|c| c.min_cap = c.initial_cap + 1).is_err());
        assert!(check(|c| c.tighten = 0.0).is_err());
        assert!(check(|c| c.tighten = 1.0).is_err());
        assert!(check(|c| c.recover_step = 0).is_err());
        assert!(check(|c| c.cooldown = SimDuration::ZERO).is_err());
        assert!(check(|c| c.shed_admit_fraction = -0.1).is_err());
        assert!(check(|c| c.shed_admit_fraction = 1.1).is_err());
        assert!(check(|c| c.shed_admit_fraction = 0.0).is_ok());
        assert!(check(|c| c.probe_fraction = 0.0).is_err());
        assert!(check(|c| c.probe_successes = 0).is_err());
    }

    #[test]
    fn untracked_workflows_pass_through() {
        let mut c = controller();
        let mut t = tracer();
        for _ in 0..100 {
            assert_eq!(c.admit(wf(9)), AdmitDecision::ADMIT);
        }
        c.on_fired(at(0), wf(9), &mut t);
        c.on_terminal(at(0), wf(9), false, true, &mut t);
        assert!(t.events().is_empty());
        assert_eq!(c.report().sheds, 0);
    }

    #[test]
    fn verdict_runs_outcome_fire_resolve_then_persisting_alert() {
        let mut c = controller();
        let mut t = tracer();
        let verdict = |fired, resolved, alert_active| SloVerdict {
            evaluated: true,
            bad: fired,
            fired,
            resolved,
            alert_active,
        };
        // An unevaluated outcome does not even free an inflight slot.
        assert!(c.admit(wf(0)).admitted);
        c.on_verdict(at(0), wf(0), false, SloVerdict::default(), &mut t);
        assert_eq!(c.entries[0].inflight, 1);
        c.on_verdict(at(0), wf(0), false, verdict(true, false, true), &mut t);
        assert_eq!(c.entries[0].inflight, 0);
        // A partial resolve (another objective still alerting) is no
        // recovery; a full one is.
        c.on_verdict(at(1), wf(0), false, verdict(false, true, true), &mut t);
        c.on_verdict(at(2), wf(0), false, verdict(false, true, false), &mut t);
        // A persisting alert past the cooldown relapses the recovery.
        c.on_verdict(at(7), wf(0), false, verdict(false, false, true), &mut t);
        assert_eq!(
            t.take(),
            [
                degraded(0, DegradeLevel::Throttled, 8),
                degraded(2, DegradeLevel::Recovering, 8),
                degraded(7, DegradeLevel::Throttled, 4),
            ]
        );
        let r = c.report();
        assert_eq!((r.throttles, r.recoveries, r.relapses), (1, 1, 1));
    }

    #[test]
    fn fire_throttles_then_escalates_after_cooldown() {
        let mut c = controller();
        let mut t = tracer();
        c.on_fired(at(0), wf(0), &mut t);
        assert_eq!(t.take(), [degraded(0, DegradeLevel::Throttled, 8)]);
        // Duplicate fire edges and within-cooldown activity do nothing.
        c.on_fired(at(1), wf(0), &mut t);
        c.on_alert_active(at(1), wf(0), &mut t);
        assert!(t.events().is_empty());
        // Past the cooldown the persisting alert escalates, halving the cap.
        c.on_alert_active(at(5), wf(0), &mut t);
        assert_eq!(t.take(), [degraded(5, DegradeLevel::Shedding, 4)]);
        // Further persistence keeps tightening down to min_cap, silently.
        c.on_alert_active(at(10), wf(0), &mut t);
        c.on_alert_active(at(15), wf(0), &mut t);
        c.on_alert_active(at(20), wf(0), &mut t);
        assert!(t.events().is_empty());
        let r = c.report();
        assert_eq!(r.throttles, 1);
        assert_eq!(r.escalations, 1);
        assert_eq!(r.tightenings, 2); // 4 -> 2 -> 1, then floored
        assert_eq!(r.workflows[0].cap, 1);
        assert_eq!(r.workflows[0].level, DegradeLevel::Shedding);
    }

    #[test]
    fn throttled_caps_inflight() {
        let config = DegradeConfig {
            initial_cap: 2,
            ..DegradeConfig::default()
        };
        let mut c = DegradeController::new(config);
        let mut t = tracer();
        c.track("hot", wf(0));
        c.on_fired(at(0), wf(0), &mut t);
        assert!(c.admit(wf(0)).admitted);
        assert!(c.admit(wf(0)).admitted);
        assert!(!c.admit(wf(0)).admitted); // cap reached
        c.on_terminal(at(1), wf(0), false, true, &mut t);
        assert!(c.admit(wf(0)).admitted); // slot freed
        let r = c.report();
        assert_eq!(r.sheds, 1);
        assert_eq!(r.workflows[0].sheds, 1);
    }

    #[test]
    fn shedding_admits_a_deterministic_fraction() {
        let config = DegradeConfig {
            shed_admit_fraction: 0.25,
            cooldown: SimDuration::from_secs(1),
            ..DegradeConfig::default()
        };
        let mut c = DegradeController::new(config);
        let mut t = tracer();
        c.track("hot", wf(0));
        c.on_fired(at(0), wf(0), &mut t);
        c.on_alert_active(at(1), wf(0), &mut t); // -> Shedding
        let admitted: Vec<bool> = (0..12).map(|_| c.admit(wf(0)).admitted).collect();
        // credit 0.25/0.5/0.75/1.0 -> every 4th arrival admitted.
        assert_eq!(
            admitted,
            [false, false, false, true, false, false, false, true, false, false, false, true]
        );
        assert_eq!(c.report().sheds, 9);
        // Fraction 0.0 is a full brown-out.
        let config = DegradeConfig {
            shed_admit_fraction: 0.0,
            cooldown: SimDuration::from_secs(1),
            ..DegradeConfig::default()
        };
        let mut c = DegradeController::new(config);
        c.track("hot", wf(0));
        c.on_fired(at(0), wf(0), &mut t);
        c.on_alert_active(at(1), wf(0), &mut t);
        assert!((0..8).all(|_| !c.admit(wf(0)).admitted));
    }

    #[test]
    fn recovery_probes_restore_after_good_run() {
        let config = DegradeConfig {
            probe_fraction: 1.0, // every admission is a probe
            probe_successes: 3,
            ..DegradeConfig::default()
        };
        let mut c = DegradeController::new(config);
        let mut t = tracer();
        c.track("hot", wf(0));
        c.on_fired(at(0), wf(0), &mut t);
        t.take();
        c.on_resolved(at(1), wf(0), &mut t);
        assert_eq!(t.take(), [degraded(1, DegradeLevel::Recovering, 8)]);
        for i in 0..2 {
            let d = c.admit(wf(0));
            assert!(d.admitted && d.probe);
            c.on_terminal(at(2 + i), wf(0), true, false, &mut t);
            assert!(t.events().is_empty());
        }
        let d = c.admit(wf(0));
        assert!(d.probe);
        c.on_terminal(at(5), wf(0), true, false, &mut t);
        assert_eq!(
            t.take(),
            [TraceEvent::WorkflowRestored {
                workflow: wf(0),
                at: at(5)
            }]
        );
        let r = c.report();
        assert_eq!(r.recoveries, 1);
        assert_eq!(r.restores, 1);
        assert_eq!(r.probes, 3);
        assert_eq!(r.probe_failures, 0);
        assert_eq!(r.workflows[0].level, DegradeLevel::Normal);
        // Back to normal: unlimited admission, no probes.
        let d = c.admit(wf(0));
        assert!(d.admitted && !d.probe);
    }

    #[test]
    fn bad_probe_relapses_with_tightened_cap() {
        let config = DegradeConfig {
            probe_fraction: 1.0,
            cooldown: SimDuration::from_secs(1),
            ..DegradeConfig::default()
        };
        let mut c = DegradeController::new(config);
        let mut t = tracer();
        c.track("hot", wf(0));
        c.on_fired(at(0), wf(0), &mut t);
        c.on_alert_active(at(1), wf(0), &mut t); // -> Shedding, cap 4
        c.on_resolved(at(2), wf(0), &mut t); // -> Recovering (from shedding)
        t.take();
        let d = c.admit(wf(0));
        assert!(d.probe);
        c.on_terminal(at(3), wf(0), true, true, &mut t);
        // Relapses to where it came from.
        assert_eq!(t.take(), [degraded(3, DegradeLevel::Shedding, 2)]);
        let r = c.report();
        assert_eq!(r.probe_failures, 1);
        assert_eq!(r.relapses, 1);
    }

    #[test]
    fn refire_during_recovery_relapses() {
        let mut c = controller();
        let mut t = tracer();
        c.on_fired(at(0), wf(0), &mut t);
        c.on_resolved(at(1), wf(0), &mut t);
        t.take();
        c.on_fired(at(2), wf(0), &mut t);
        assert_eq!(t.take(), [degraded(2, DegradeLevel::Throttled, 4)]);
        assert_eq!(c.report().relapses, 1);
    }

    #[test]
    fn stale_probe_outcomes_are_ignored() {
        let config = DegradeConfig {
            probe_fraction: 1.0,
            ..DegradeConfig::default()
        };
        let mut c = DegradeController::new(config);
        let mut t = tracer();
        c.track("hot", wf(0));
        c.on_fired(at(0), wf(0), &mut t);
        c.on_resolved(at(1), wf(0), &mut t);
        assert!(c.admit(wf(0)).probe);
        c.on_fired(at(2), wf(0), &mut t); // relapse before the probe lands
        t.take();
        // The stale probe's bad outcome must not double-relapse.
        c.on_terminal(at(3), wf(0), true, true, &mut t);
        assert!(t.events().is_empty());
        assert_eq!(c.report().relapses, 1);
        assert_eq!(c.report().probe_failures, 0);
    }

    #[test]
    fn hedge_suppression_and_demotion_track_degraded_states() {
        let mut c = controller();
        let mut t = tracer();
        assert!(!c.suppress_hedge(wf(0)));
        assert!(!c.demotes(wf(0)));
        c.on_fired(at(0), wf(0), &mut t);
        assert!(c.suppress_hedge(wf(0)));
        assert!(c.demotes(wf(0)));
        assert!(!c.demotes(wf(7))); // untracked workflows never demoted
        c.note_demoted_shed();
        c.on_resolved(at(1), wf(0), &mut t);
        // Recovering traffic gets hedges and priority back.
        assert!(!c.suppress_hedge(wf(0)));
        assert!(!c.demotes(wf(0)));
        let r = c.report();
        assert_eq!(r.hedges_suppressed, 1);
        assert_eq!(r.demoted_sheds, 1);
        // Both features are individually disableable.
        let config = DegradeConfig {
            suspend_hedges: false,
            demote_shed_priority: false,
            ..DegradeConfig::default()
        };
        let mut c = DegradeController::new(config);
        c.track("hot", wf(0));
        c.on_fired(at(0), wf(0), &mut t);
        assert!(!c.suppress_hedge(wf(0)));
        assert!(!c.demotes(wf(0)));
    }

    #[test]
    fn zero_report_detection() {
        assert!(DegradeReport::default().is_zero());
        let mut c = DegradeController::new(DegradeConfig::default());
        assert!(c.report().is_zero());
        c.track("hot", wf(0));
        assert!(!c.report().is_zero());
    }
}
