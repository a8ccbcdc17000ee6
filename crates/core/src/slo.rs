//! Online SLO burn-rate monitoring.
//!
//! A latency SLO per workflow ("p-fraction of invocations complete within
//! `target`", expressed as an error budget: the allowed fraction of slow
//! invocations) evaluated **deterministically** on completion events — no
//! wall clock, no RNG, no sampling. Alerting follows the multi-window
//! burn-rate pattern from SRE practice: the *burn rate* is how fast the
//! error budget is being consumed relative to the allowed rate, and an
//! alert fires only when both a fast (small) and a slow (large) sliding
//! window exceed their thresholds — the fast window gives low detection
//! latency, the slow window suppresses one-off blips.
//!
//! Windows come in two flavours, selectable per objective via
//! [`WindowMode`]: **count-based** (last N completed invocations — a pure
//! fold over the deterministic completion stream, the default) and
//! **time-based** (completions within the last Δ of *simulated* time —
//! matching SRE practice for low-rate workflows whose last N completions
//! may span hours). Both are deterministic: the time windows use simulated
//! instants, never the wall clock, and nothing draws from the RNG. With
//! [`crate::ClusterConfig::slo`] unset (the default) the monitor does not
//! exist and no outcome is evaluated.
//!
//! Each part of the loop traces where it decides: `SloMonitor::evaluate`
//! traces every alert edge as an objective crosses and returns a `Copy`
//! `SloVerdict`; `SloControl::on_terminal` hands the verdict to the
//! degradation controller, which traces its own transitions.

use std::collections::VecDeque;

use faasflow_sim::{SimDuration, SimTime, WorkflowId};
use serde::{Deserialize, Serialize};

use crate::degrade::{AdmitDecision, DegradeConfig, DegradeController, DegradeReport};
use crate::trace::{TraceEvent, Tracer};

/// Which kind of sliding window an objective's burn rates are computed
/// over.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum WindowMode {
    /// Last `fast_window` / `slow_window` completions (the default). Order
    /// is deterministic, so the monitor is a pure fold over the stream.
    #[default]
    Count,
    /// Completions within the trailing `fast` / `slow` span of simulated
    /// time (e.g. 5 min / 1 h). The count fields are ignored in this mode.
    Time {
        /// Span of the fast (detection) window.
        fast: SimDuration,
        /// Span of the slow (confirmation) window. Must be at least `fast`.
        slow: SimDuration,
    },
}

/// One per-workflow latency objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloObjective {
    /// Name of the workflow the objective applies to (matched against
    /// [`crate::Cluster::register`]ed workflow names; an objective naming
    /// a workflow that is never registered simply never evaluates).
    pub workflow: String,
    /// Latency target: an invocation slower than this (or timed out, or
    /// dead-lettered/shed before completing) consumes error budget.
    pub target: SimDuration,
    /// Allowed fraction of bad invocations, in `(0, 1]`. Burn rate is the
    /// observed bad fraction divided by this budget: burn 1.0 = consuming
    /// budget exactly as fast as allowed.
    pub error_budget: f64,
    /// Completions in the fast (detection) sliding window (count mode).
    pub fast_window: u32,
    /// Completions in the slow (confirmation) sliding window (count mode).
    /// Must be at least `fast_window`.
    pub slow_window: u32,
    /// Burn-rate threshold the fast window must exceed to fire.
    pub fast_burn: f64,
    /// Burn-rate threshold the slow window must exceed to fire. Must not
    /// exceed `fast_burn` (the slow window smooths, so its threshold is
    /// the lower of the pair).
    pub slow_burn: f64,
    /// Count-based (default) or wall-clock-spanned windows.
    pub window: WindowMode,
}

impl Default for SloObjective {
    fn default() -> Self {
        SloObjective {
            workflow: String::new(),
            target: SimDuration::from_secs(1),
            error_budget: 0.05,
            // The classic 1h/6h multi-window pair, translated to counts.
            fast_window: 8,
            slow_window: 32,
            fast_burn: 2.0,
            slow_burn: 1.0,
            window: WindowMode::Count,
        }
    }
}

impl SloObjective {
    /// Checks the objective for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.workflow.is_empty() {
            return Err("SLO objective names an empty workflow".to_string());
        }
        if self.target == SimDuration::ZERO {
            return Err(format!("SLO target for '{}' is zero", self.workflow));
        }
        if !(self.error_budget > 0.0 && self.error_budget <= 1.0) {
            return Err(format!(
                "SLO error budget for '{}' must be in (0, 1], got {}",
                self.workflow, self.error_budget
            ));
        }
        match self.window {
            WindowMode::Count => {
                if self.fast_window == 0 {
                    return Err(format!("SLO fast window for '{}' is zero", self.workflow));
                }
                if self.slow_window < self.fast_window {
                    return Err(format!(
                        "SLO slow window for '{}' ({}) is smaller than the fast window ({})",
                        self.workflow, self.slow_window, self.fast_window
                    ));
                }
            }
            WindowMode::Time { fast, slow } => {
                if fast == SimDuration::ZERO {
                    return Err(format!(
                        "SLO fast time window for '{}' is zero",
                        self.workflow
                    ));
                }
                if slow < fast {
                    return Err(format!(
                        "SLO slow time window for '{}' is smaller than the fast window",
                        self.workflow
                    ));
                }
            }
        }
        if self.fast_burn <= 0.0 || !self.fast_burn.is_finite() {
            return Err(format!(
                "SLO fast burn threshold for '{}' must be positive and finite",
                self.workflow
            ));
        }
        if self.slow_burn <= 0.0 || !self.slow_burn.is_finite() {
            return Err(format!(
                "SLO slow burn threshold for '{}' must be positive and finite",
                self.workflow
            ));
        }
        if self.slow_burn > self.fast_burn {
            return Err(format!(
                "SLO slow burn threshold for '{}' ({}) exceeds the fast threshold ({})",
                self.workflow, self.slow_burn, self.fast_burn
            ));
        }
        Ok(())
    }
}

/// The SLO monitor configuration: a set of latency objectives.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SloConfig {
    /// Objectives, evaluated in order on every completion of the named
    /// workflow. Several objectives may target the same workflow (e.g. a
    /// tight p95-style target and a loose p99-style one).
    pub objectives: Vec<SloObjective>,
}

impl SloConfig {
    /// Validates every objective.
    pub fn validate(&self) -> Result<(), String> {
        if self.objectives.is_empty() {
            return Err("SLO config has no objectives".to_string());
        }
        for objective in &self.objectives {
            objective.validate()?;
        }
        Ok(())
    }
}

/// Final burn-rate state of one objective, for the per-workflow Prometheus
/// gauges (`faasflow_slo_burn_rate{workflow=...,window=...}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloObjectiveSnapshot {
    /// The workflow the objective names.
    pub workflow: String,
    /// Fast-window burn rate at report time.
    pub fast_burn: f64,
    /// Slow-window burn rate at report time.
    pub slow_burn: f64,
    /// Whether the alert was active at report time.
    pub alert: bool,
}

/// Aggregate SLO counters for [`crate::RunReport`]. All-zero (and omitted
/// from serialized reports) when no [`SloConfig`] is set.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SloReport {
    /// Configured objectives.
    pub objectives: u32,
    /// Completion events evaluated against some objective.
    pub evaluations: u64,
    /// Evaluations that consumed error budget (missed the target, timed
    /// out, or ended dead-lettered/shed).
    pub violations: u64,
    /// Alert transitions inactive → active.
    pub alerts_fired: u64,
    /// Alert transitions active → inactive.
    pub alerts_resolved: u64,
    /// Highest fast-window burn rate observed across all objectives.
    pub worst_fast_burn: f64,
    /// Highest slow-window burn rate observed across all objectives.
    pub worst_slow_burn: f64,
    /// Per-objective burn-rate state at report time, in objective order.
    pub per_objective: Vec<SloObjectiveSnapshot>,
}

impl SloReport {
    /// True when no SLO was configured and nothing happened — the report
    /// block is then omitted from serialized output so pre-SLO goldens
    /// stay bit-identical.
    pub fn is_zero(&self) -> bool {
        *self == SloReport::default()
    }
}

/// A sliding window of good/bad completion outcomes, oldest first.
#[derive(Debug)]
struct BurnWindow {
    window: VecDeque<(SimTime, bool)>,
    bad: u32,
    span: WindowSpan,
}

/// What ages an outcome out of a [`BurnWindow`].
#[derive(Debug, Clone, Copy)]
enum WindowSpan {
    /// Only the last `n` completions are kept.
    Last(usize),
    /// Only completions within the trailing span of simulated time.
    Within(SimDuration),
}

impl BurnWindow {
    fn count(cap: u32) -> Self {
        BurnWindow {
            window: VecDeque::with_capacity(cap as usize),
            bad: 0,
            span: WindowSpan::Last(cap as usize),
        }
    }

    fn time(period: SimDuration) -> Self {
        BurnWindow {
            window: VecDeque::new(),
            bad: 0,
            span: WindowSpan::Within(period),
        }
    }

    fn push(&mut self, now: SimTime, bad: bool) {
        // Evict what the new outcome pushes out: the oldest one once the
        // count is full, or every one that has aged out of the span.
        while let Some(&(t, was_bad)) = self.window.front() {
            let expired = match self.span {
                WindowSpan::Last(cap) => self.window.len() >= cap,
                WindowSpan::Within(period) => now - t >= period,
            };
            if !expired {
                break;
            }
            self.window.pop_front();
            self.bad -= u32::from(was_bad);
        }
        self.window.push_back((now, bad));
        self.bad += u32::from(bad);
    }

    /// Bad fraction over the window contents, divided by the error budget.
    fn burn(&self, budget: f64) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            (f64::from(self.bad) / self.window.len() as f64) / budget
        }
    }
}

/// Everything one terminal outcome told the monitor — consumed by the
/// degradation controller ([`crate::DegradeConfig`]) as its input signal.
/// The alert edges themselves are traced by `SloMonitor::evaluate`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SloVerdict {
    /// At least one objective evaluated this completion.
    pub evaluated: bool,
    /// Some evaluating objective judged the completion bad (budget burn).
    pub bad: bool,
    /// Some objective's alert went active on this completion.
    pub fired: bool,
    /// Some objective's alert went inactive on this completion.
    pub resolved: bool,
    /// Some objective bound to this workflow is alerting *after* this
    /// evaluation.
    pub alert_active: bool,
}

#[derive(Debug)]
struct ObjectiveState {
    spec: SloObjective,
    /// Resolved at registration time; `None` until (and unless) a workflow
    /// with the matching name registers.
    workflow: Option<WorkflowId>,
    fast: BurnWindow,
    slow: BurnWindow,
    alert: bool,
}

/// Per-cluster monitor state: one [`ObjectiveState`] per configured
/// objective, folded over the deterministic completion stream.
#[derive(Debug)]
pub(crate) struct SloMonitor {
    objectives: Vec<ObjectiveState>,
    report: SloReport,
}

impl SloMonitor {
    pub(crate) fn new(config: &SloConfig) -> Self {
        let objectives: Vec<ObjectiveState> = config
            .objectives
            .iter()
            .map(|spec| {
                let (fast, slow) = match spec.window {
                    WindowMode::Count => (
                        BurnWindow::count(spec.fast_window),
                        BurnWindow::count(spec.slow_window),
                    ),
                    WindowMode::Time { fast, slow } => {
                        (BurnWindow::time(fast), BurnWindow::time(slow))
                    }
                };
                ObjectiveState {
                    workflow: None,
                    fast,
                    slow,
                    alert: false,
                    spec: spec.clone(),
                }
            })
            .collect();
        let report = SloReport {
            objectives: objectives.len() as u32,
            ..SloReport::default()
        };
        SloMonitor { objectives, report }
    }

    /// Binds objectives naming `name` to the registered workflow id;
    /// returns whether any objective names it.
    pub(crate) fn bind(&mut self, name: &str, workflow: WorkflowId) -> bool {
        let mut bound = false;
        for state in &mut self.objectives {
            if state.spec.workflow == name {
                state.workflow = Some(workflow);
                bound = true;
            }
        }
        bound
    }

    /// Evaluates one terminal invocation outcome at simulated instant
    /// `now`, tracing each alert edge as it happens (in objective order).
    /// `bad_outcome` marks terminal states that never produced a latency
    /// (dead-letter, shed): those always consume budget.
    pub(crate) fn evaluate(
        &mut self,
        now: SimTime,
        workflow: WorkflowId,
        e2e: SimDuration,
        bad_outcome: bool,
        tracer: &mut Tracer,
    ) -> SloVerdict {
        let mut verdict = SloVerdict::default();
        for state in &mut self.objectives {
            if state.workflow != Some(workflow) {
                continue;
            }
            let bad = bad_outcome || e2e > state.spec.target;
            verdict.evaluated = true;
            verdict.bad |= bad;
            self.report.evaluations += 1;
            if bad {
                self.report.violations += 1;
            }
            state.fast.push(now, bad);
            state.slow.push(now, bad);
            let fast_burn = state.fast.burn(state.spec.error_budget);
            let slow_burn = state.slow.burn(state.spec.error_budget);
            if fast_burn > self.report.worst_fast_burn {
                self.report.worst_fast_burn = fast_burn;
            }
            if slow_burn > self.report.worst_slow_burn {
                self.report.worst_slow_burn = slow_burn;
            }
            let firing = fast_burn >= state.spec.fast_burn && slow_burn >= state.spec.slow_burn;
            if firing && !state.alert {
                state.alert = true;
                self.report.alerts_fired += 1;
                verdict.fired = true;
                tracer.record(|| TraceEvent::SloAlertFired {
                    workflow,
                    fast_burn,
                    slow_burn,
                    at: now,
                });
            } else if !firing && state.alert {
                state.alert = false;
                self.report.alerts_resolved += 1;
                verdict.resolved = true;
                tracer.record(|| TraceEvent::SloAlertResolved { workflow, at: now });
            }
            verdict.alert_active |= state.alert;
        }
        verdict
    }

    pub(crate) fn report(&self) -> SloReport {
        let mut report = self.report.clone();
        report.per_objective = self
            .objectives
            .iter()
            .map(|s| SloObjectiveSnapshot {
                workflow: s.spec.workflow.clone(),
                fast_burn: s.fast.burn(s.spec.error_budget),
                slow_burn: s.slow.burn(s.spec.error_budget),
                alert: s.alert,
            })
            .collect();
        report
    }
}

/// The SLO control loop: the burn-rate monitor plus, when configured, the
/// degradation controller its alerts drive. `Cluster` holds one only with
/// [`crate::ClusterConfig::slo`] set (validation requires it for
/// `degrade`) and feeds it registrations, arrivals and terminal outcomes;
/// the monitor traces its alert edges and the controller its degradation
/// transitions.
#[derive(Debug)]
pub(crate) struct SloControl {
    monitor: SloMonitor,
    degrade: Option<DegradeController>,
}

impl SloControl {
    pub(crate) fn new(slo: &SloConfig, degrade: Option<DegradeConfig>) -> Self {
        SloControl {
            monitor: SloMonitor::new(slo),
            degrade: degrade.map(DegradeController::new),
        }
    }

    /// Binds a registered workflow to its objectives. The degradation
    /// controller tracks only workflows that carry an objective: untracked
    /// workflows pass the gate untouched.
    pub(crate) fn register(&mut self, name: &str, workflow: WorkflowId) {
        let bound = self.monitor.bind(name, workflow);
        if let Some(degrade) = self.degrade.as_mut().filter(|_| bound) {
            degrade.track(name, workflow);
        }
    }

    /// The degradation gate for one arrival.
    pub(crate) fn admit(&mut self, workflow: WorkflowId) -> AdmitDecision {
        self.degrade
            .as_mut()
            .map_or(AdmitDecision::ADMIT, |d| d.admit(workflow))
    }

    /// Whether a hedge for this workflow is suppressed (it is degraded).
    pub(crate) fn suppress_hedge(&mut self, workflow: WorkflowId) -> bool {
        self.degrade
            .as_mut()
            .is_some_and(|d| d.suppress_hedge(workflow))
    }

    /// Whether queue-overflow shedding prefers this workflow's invocations.
    pub(crate) fn demotes(&self, workflow: WorkflowId) -> bool {
        self.degrade.as_ref().is_some_and(|d| d.demotes(workflow))
    }

    /// Records that a queue-overflow shed picked a demoted victim.
    pub(crate) fn note_demoted_shed(&mut self) {
        if let Some(degrade) = &mut self.degrade {
            degrade.note_demoted_shed();
        }
    }

    /// Feeds one terminal outcome to the monitor, which traces its alert
    /// edges, and the verdict to the degradation controller, which traces
    /// its own transitions. `probe` marks invocations admitted as
    /// degradation recovery probes.
    pub(crate) fn on_terminal(
        &mut self,
        now: SimTime,
        workflow: WorkflowId,
        e2e: SimDuration,
        bad_outcome: bool,
        probe: bool,
        tracer: &mut Tracer,
    ) {
        let verdict = self
            .monitor
            .evaluate(now, workflow, e2e, bad_outcome, tracer);
        if let Some(degrade) = &mut self.degrade {
            degrade.on_verdict(now, workflow, probe, verdict, tracer);
        }
    }

    /// The loop's two report sections.
    pub(crate) fn report(&self) -> (SloReport, DegradeReport) {
        (
            self.monitor.report(),
            self.degrade
                .as_ref()
                .map(DegradeController::report)
                .unwrap_or_default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::DegradeLevel;

    fn objective(workflow: &str) -> SloObjective {
        SloObjective {
            workflow: workflow.to_string(),
            target: SimDuration::from_millis(100),
            error_budget: 0.1,
            fast_window: 2,
            slow_window: 4,
            fast_burn: 5.0,
            slow_burn: 2.5,
            window: WindowMode::Count,
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// `SloMonitor::evaluate` with tracing off.
    fn eval(
        m: &mut SloMonitor,
        now: SimTime,
        wf: WorkflowId,
        e2e: SimDuration,
        bad_outcome: bool,
    ) -> SloVerdict {
        m.evaluate(now, wf, e2e, bad_outcome, &mut Tracer::new(false, 0))
    }

    /// A verdict's alert edges, `(fired, resolved)`.
    fn edges(v: SloVerdict) -> (bool, bool) {
        (v.fired, v.resolved)
    }

    const FIRED: (bool, bool) = (true, false);
    const RESOLVED: (bool, bool) = (false, true);
    const QUIET: (bool, bool) = (false, false);

    #[test]
    fn validate_rejects_inconsistent_objectives() {
        assert!(objective("wf").validate().is_ok());
        assert!(objective("").validate().is_err());
        let mut o = objective("wf");
        o.target = SimDuration::ZERO;
        assert!(o.validate().is_err());
        let mut o = objective("wf");
        o.error_budget = 0.0;
        assert!(o.validate().is_err());
        let mut o = objective("wf");
        o.error_budget = 1.5;
        assert!(o.validate().is_err());
        let mut o = objective("wf");
        o.fast_window = 0;
        assert!(o.validate().is_err());
        let mut o = objective("wf");
        o.slow_window = 1;
        assert!(o.validate().is_err());
        let mut o = objective("wf");
        o.slow_burn = o.fast_burn + 1.0;
        assert!(o.validate().is_err());
        // Time-mode consistency: zero fast span, slow < fast.
        let mut o = objective("wf");
        o.window = WindowMode::Time {
            fast: SimDuration::ZERO,
            slow: SimDuration::from_secs(60),
        };
        assert!(o.validate().is_err());
        let mut o = objective("wf");
        o.window = WindowMode::Time {
            fast: SimDuration::from_secs(60),
            slow: SimDuration::from_secs(10),
        };
        assert!(o.validate().is_err());
        // Time mode ignores the count fields entirely.
        let mut o = objective("wf");
        o.fast_window = 0;
        o.slow_window = 0;
        o.window = WindowMode::Time {
            fast: SimDuration::from_secs(60),
            slow: SimDuration::from_secs(360),
        };
        assert!(o.validate().is_ok());
        assert!(SloConfig { objectives: vec![] }.validate().is_err());
        assert!(SloConfig {
            objectives: vec![objective("wf")]
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn window_evicts_and_counts() {
        let mut w = BurnWindow::count(2);
        assert_eq!(w.burn(0.1), 0.0);
        w.push(at(0), true);
        assert!((w.burn(0.1) - 10.0).abs() < 1e-12); // 1/1 bad / 0.1
        w.push(at(1), false);
        assert!((w.burn(0.1) - 5.0).abs() < 1e-12); // 1/2 bad / 0.1
        w.push(at(2), false); // evicts the bad one
        assert_eq!(w.burn(0.1), 0.0);
    }

    #[test]
    fn time_window_evicts_by_age_not_count() {
        let mut w = BurnWindow::time(SimDuration::from_millis(100));
        w.push(at(0), true);
        w.push(at(10), true);
        w.push(at(20), false);
        // All three inside the span: 2/3 bad / 0.5 budget.
        assert!((w.burn(0.5) - (2.0 / 3.0) / 0.5).abs() < 1e-12);
        // 110 ms later the two bad entries (t=0, t=10) have aged out.
        w.push(at(110), false);
        assert_eq!(w.burn(0.5), 0.0);
        // Entries exactly `period` old are evicted (half-open window).
        let mut w = BurnWindow::time(SimDuration::from_millis(100));
        w.push(at(0), true);
        w.push(at(100), false);
        assert!((w.burn(1.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn time_mode_monitor_fires_and_recovers_by_elapsed_time() {
        let mut o = objective("wf");
        o.window = WindowMode::Time {
            fast: SimDuration::from_millis(50),
            slow: SimDuration::from_millis(200),
        };
        o.fast_burn = 5.0;
        o.slow_burn = 2.5;
        let mut m = SloMonitor::new(&SloConfig {
            objectives: vec![o],
        });
        let wf = WorkflowId::new(0);
        m.bind("wf", wf);
        let slow = SimDuration::from_millis(500);
        let fast = SimDuration::from_millis(10);
        // A miss fires immediately (1/1 bad in both windows).
        let v = eval(&mut m, at(0), wf, slow, false);
        assert_eq!(edges(v), FIRED);
        // 60 ms later the miss has left the fast window; one hit resolves.
        let v = eval(&mut m, at(60), wf, fast, false);
        assert_eq!(edges(v), RESOLVED);
        assert!(!v.alert_active);
    }

    #[test]
    fn alert_fires_once_and_resolves() {
        let mut m = SloMonitor::new(&SloConfig {
            objectives: vec![objective("wf")],
        });
        let wf = WorkflowId::new(0);
        m.bind("wf", wf);
        let slow = SimDuration::from_millis(500);
        let fast = SimDuration::from_millis(10);

        // First miss: fast burn = (1/1)/0.1 = 10 >= 5, slow = 10 >= 2.5
        // -> fires immediately, exactly once.
        let v = eval(&mut m, at(0), wf, slow, false);
        assert_eq!(edges(v), FIRED);
        assert!(v.alert_active && v.bad && v.evaluated);
        // Still violating: no duplicate fire.
        assert_eq!(edges(eval(&mut m, at(1), wf, slow, false)), QUIET);
        assert_eq!(edges(eval(&mut m, at(2), wf, slow, false)), QUIET);

        // One hit: fast burn = (1/2)/0.1 = 5, still >= 5 -> no transition;
        // a second hit empties the fast window of misses -> resolves.
        let v = eval(&mut m, at(3), wf, fast, false);
        assert_eq!(edges(v), QUIET);
        assert!(v.alert_active && !v.bad);
        let v = eval(&mut m, at(4), wf, fast, false);
        assert_eq!(edges(v), RESOLVED);
        assert!(!v.alert_active);

        let report = m.report();
        assert_eq!(report.objectives, 1);
        assert_eq!(report.evaluations, 5);
        assert_eq!(report.violations, 3);
        assert_eq!(report.alerts_fired, 1);
        assert_eq!(report.alerts_resolved, 1);
        assert!(report.worst_fast_burn >= 10.0 - 1e-12);
        assert_eq!(report.per_objective.len(), 1);
        assert!(!report.per_objective[0].alert);
    }

    #[test]
    fn unbound_and_foreign_workflows_are_ignored() {
        let mut m = SloMonitor::new(&SloConfig {
            objectives: vec![objective("wf")],
        });
        // Not bound yet: nothing evaluates.
        let v = eval(
            &mut m,
            at(0),
            WorkflowId::new(0),
            SimDuration::from_secs(5),
            false,
        );
        assert_eq!(edges(v), QUIET);
        assert!(!v.evaluated);
        assert_eq!(m.report().evaluations, 0);
        assert!(!m.bind("other", WorkflowId::new(1))); // name mismatch: no binding
        assert!(m.bind("wf", WorkflowId::new(2)));
        assert!(
            !eval(
                &mut m,
                at(1),
                WorkflowId::new(1),
                SimDuration::from_secs(5),
                false
            )
            .evaluated
        );
        eval(
            &mut m,
            at(2),
            WorkflowId::new(2),
            SimDuration::from_secs(5),
            false,
        );
        assert_eq!(m.report().evaluations, 1);
        assert_eq!(m.report().violations, 1);
    }

    #[test]
    fn bad_outcome_counts_regardless_of_latency() {
        let mut m = SloMonitor::new(&SloConfig {
            objectives: vec![objective("wf")],
        });
        let wf = WorkflowId::new(0);
        m.bind("wf", wf);
        let v = eval(&mut m, at(0), wf, SimDuration::ZERO, true);
        assert!(v.bad);
        assert_eq!(m.report().violations, 1);
    }

    #[test]
    fn zero_report_detection() {
        assert!(SloReport::default().is_zero());
        let configured = SloMonitor::new(&SloConfig {
            objectives: vec![objective("wf")],
        })
        .report();
        assert!(!configured.is_zero());
    }

    // ---- BurnWindow boundary cases ------------------------------------

    #[test]
    fn window_of_one_tracks_only_the_latest_outcome() {
        let mut o = objective("wf");
        o.fast_window = 1;
        o.slow_window = 1;
        o.fast_burn = 1.0;
        o.slow_burn = 1.0;
        let mut m = SloMonitor::new(&SloConfig {
            objectives: vec![o],
        });
        let wf = WorkflowId::new(0);
        m.bind("wf", wf);
        let slow = SimDuration::from_millis(500);
        let fast = SimDuration::from_millis(10);
        // Every outcome flips the alert: single-completion windows have no
        // hysteresis at all — the degenerate but legal configuration.
        assert_eq!(edges(eval(&mut m, at(0), wf, slow, false)), FIRED);
        assert_eq!(edges(eval(&mut m, at(1), wf, fast, false)), RESOLVED);
        assert_eq!(edges(eval(&mut m, at(2), wf, slow, false)), FIRED);
        assert_eq!(m.report().alerts_fired, 2);
        assert_eq!(m.report().alerts_resolved, 1);
    }

    #[test]
    fn error_budget_boundaries() {
        // 0.0 and anything above 1.0 are rejected; 1.0 is the loosest
        // legal budget ("every invocation may be bad").
        let mut o = objective("wf");
        o.error_budget = 0.0;
        assert!(o.validate().is_err());
        o.error_budget = 1.0 + 1e-9;
        assert!(o.validate().is_err());
        o.error_budget = 1.0;
        assert!(o.validate().is_ok());
        // With budget 1.0 the burn rate equals the bad fraction, capped at
        // 1.0 — thresholds above 1.0 can then never fire.
        let mut always_bad = objective("wf");
        always_bad.error_budget = 1.0;
        always_bad.fast_burn = 1.0;
        always_bad.slow_burn = 1.0;
        let mut m = SloMonitor::new(&SloConfig {
            objectives: vec![always_bad],
        });
        let wf = WorkflowId::new(0);
        m.bind("wf", wf);
        let v = eval(&mut m, at(0), wf, SimDuration::from_secs(9), false);
        assert_eq!(edges(v), FIRED);
        assert!((m.report().worst_fast_burn - 1.0).abs() < 1e-12);
        // Tiny budget: one miss in a window of 2 is already a 5x burn.
        let mut tight = objective("wf");
        tight.error_budget = 0.1;
        let m2 = SloMonitor::new(&SloConfig {
            objectives: vec![tight],
        });
        drop(m2); // construction alone must not fire anything
    }

    #[test]
    fn fire_then_immediately_resolve_hysteresis() {
        // fast window 2, slow window 4: a single miss fires; the alert
        // must survive the first following hit (fast burn still at the
        // threshold) and resolve only on the second — the multi-window
        // hysteresis that suppresses one-completion flapping.
        let mut m = SloMonitor::new(&SloConfig {
            objectives: vec![objective("wf")],
        });
        let wf = WorkflowId::new(0);
        m.bind("wf", wf);
        let slow = SimDuration::from_millis(500);
        let fast = SimDuration::from_millis(10);
        assert_eq!(edges(eval(&mut m, at(0), wf, slow, false)), FIRED);
        let v = eval(&mut m, at(1), wf, fast, false);
        assert_eq!(edges(v), QUIET, "one hit must not flap the alert");
        assert!(v.alert_active);
        let v = eval(&mut m, at(2), wf, fast, false);
        assert_eq!(edges(v), RESOLVED);
        // A fresh miss re-fires: fire/resolve counts stay paired.
        assert_eq!(edges(eval(&mut m, at(3), wf, slow, false)), FIRED);
        let r = m.report();
        assert_eq!(r.alerts_fired, 2);
        assert_eq!(r.alerts_resolved, 1);
    }

    #[test]
    fn disagreeing_windows_do_not_fire() {
        // A long run of hits fills the slow window with good outcomes;
        // a burst of 2 misses then saturates the fast window (burn 10)
        // while the slow window stays below its threshold — no alert.
        // Only once the slow window crosses too does the alert fire.
        let mut o = objective("wf");
        o.fast_window = 2;
        o.slow_window = 8;
        o.fast_burn = 5.0;
        o.slow_burn = 3.0; // slow window needs >= 3/8 bad at budget 0.1... (3/8)/0.1 = 3.75
        let mut m = SloMonitor::new(&SloConfig {
            objectives: vec![o],
        });
        let wf = WorkflowId::new(0);
        m.bind("wf", wf);
        let slow = SimDuration::from_millis(500);
        let fast = SimDuration::from_millis(10);
        for i in 0..8 {
            assert_eq!(edges(eval(&mut m, at(i), wf, fast, false)), QUIET);
        }
        // Two misses: fast burn = 10 >= 5, slow burn = (2/8)/0.1 = 2.5 < 3.
        assert_eq!(edges(eval(&mut m, at(8), wf, slow, false)), QUIET);
        let v = eval(&mut m, at(9), wf, slow, false);
        assert_eq!(edges(v), QUIET, "fast window alone must not fire: {v:?}");
        assert!(!v.alert_active);
        // Third miss: slow burn = (3/8)/0.1 = 3.75 >= 3 -> both agree.
        let v = eval(&mut m, at(10), wf, slow, false);
        assert_eq!(edges(v), FIRED);
        assert_eq!(m.report().alerts_fired, 1);
    }

    // ---- SloControl: two objectives on one workflow, degradation on ----

    /// A loop over `wf` with two objectives: `a` has one-completion windows
    /// (fires on every miss, resolves on every hit); `b` needs two hits to
    /// resolve and a slow-window burn of 3, so a lone miss after three hits
    /// does not re-fire it.
    fn two_objective_loop() -> (SloControl, Tracer, WorkflowId) {
        let a = SloObjective {
            fast_window: 1,
            slow_window: 1,
            fast_burn: 1.0,
            slow_burn: 1.0,
            ..objective("wf")
        };
        let b = SloObjective {
            slow_burn: 3.0,
            ..objective("wf")
        };
        let slo = SloConfig {
            objectives: vec![a, b],
        };
        let mut control = SloControl::new(&slo, Some(DegradeConfig::default()));
        let wf = WorkflowId::new(0);
        control.register("wf", wf);
        (control, Tracer::new(true, 1 << 10), wf)
    }

    /// One admitted, non-probe completion of `wf` at `ms` taking `e2e_ms`.
    fn complete(
        control: &mut SloControl,
        tracer: &mut Tracer,
        wf: WorkflowId,
        ms: u64,
        e2e_ms: u64,
    ) {
        assert!(control.admit(wf).admitted);
        let e2e = SimDuration::from_millis(e2e_ms);
        control.on_terminal(at(ms), wf, e2e, false, false, tracer);
    }

    /// The `(level, cap)` of every `WorkflowDegraded` traced so far.
    fn degraded(tracer: &Tracer) -> Vec<(DegradeLevel, u32)> {
        tracer
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::WorkflowDegraded { level, cap, .. } => Some((level, cap)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn both_objectives_firing_on_one_completion_throttle_once() {
        let (mut control, mut tracer, wf) = two_objective_loop();
        complete(&mut control, &mut tracer, wf, 0, 500);
        let fired = tracer
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::SloAlertFired { .. }))
            .count();
        assert_eq!(fired, 2, "both objectives fire");
        assert_eq!(degraded(&tracer), [(DegradeLevel::Throttled, 8)]);
        let (slo, degrade) = control.report();
        assert_eq!(slo.alerts_fired, 2);
        assert_eq!(degrade.throttles, 1);
    }

    #[test]
    fn recovery_waits_for_every_objective_to_resolve() {
        let (mut control, mut tracer, wf) = two_objective_loop();
        complete(&mut control, &mut tracer, wf, 0, 500);
        // `a` resolves on the first hit; `b` is still alerting.
        complete(&mut control, &mut tracer, wf, 1, 10);
        let (slo, degrade) = control.report();
        assert_eq!((slo.alerts_resolved, degrade.recoveries), (1, 0));
        assert_eq!(degrade.relapses, 0);
        assert_eq!(degraded(&tracer), [(DegradeLevel::Throttled, 8)]);
        // The second hit resolves `b`: now recovery starts.
        complete(&mut control, &mut tracer, wf, 2, 10);
        let (slo, degrade) = control.report();
        assert_eq!((slo.alerts_resolved, degrade.recoveries), (2, 1));
        assert_eq!(
            degraded(&tracer),
            [(DegradeLevel::Throttled, 8), (DegradeLevel::Recovering, 8)]
        );
    }

    #[test]
    fn one_objective_refiring_while_recovering_relapses_once() {
        let (mut control, mut tracer, wf) = two_objective_loop();
        for (ms, e2e) in [(0, 500), (1, 10), (2, 10), (3, 10)] {
            complete(&mut control, &mut tracer, wf, ms, e2e);
        }
        assert_eq!(control.report().1.recoveries, 1);
        // Only `a` re-fires: `b`'s slow window burns (1/4)/0.1 = 2.5 < 3.
        complete(&mut control, &mut tracer, wf, 4, 500);
        let (slo, degrade) = control.report();
        assert_eq!(slo.alerts_fired, 3);
        assert_eq!(degrade.relapses, 1);
        assert_eq!(
            degraded(&tracer),
            [
                (DegradeLevel::Throttled, 8),
                (DegradeLevel::Recovering, 8),
                (DegradeLevel::Throttled, 4)
            ]
        );
    }
}
