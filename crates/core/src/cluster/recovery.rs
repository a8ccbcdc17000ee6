//! Fault injection and recovery: the second half of [`Cluster`]'s event
//! handlers. A worker crash, a lease expiry, an engine crash and its
//! journaled restart, a link or gray fault, and the health detector's
//! quarantine each land here, and each recovers through the sweeps of
//! `Invocations` and the state of `Worker` and `Engines`. The teardown
//! that the data path shares with shedding (`tear_down_attempt`,
//! `abandon_invocation`, `cancel_flows`) stays in the parent module.

use faasflow_net::LinkQuality;

use super::*;
use crate::engines::{Crash, Reconcile, Restart, Revived};
use crate::fault::{FaultPlan, GrayFaultKind};
use crate::health::HealthTransition;

/// Crash recoveries one invocation may take before it is dead-lettered.
const MAX_RECOVERIES: u32 = 5;

impl Cluster {
    /// Turns the declarative [`crate::FaultPlan`] into scheduled events.
    /// All instants are absolute offsets from the start of the simulation.
    pub(super) fn schedule_fault_plan(&mut self) {
        let (fault, queue, t0) = (&self.config.fault, &mut self.queue, SimTime::ZERO);
        for (idx, c) in fault.node_crashes.iter().enumerate() {
            queue.schedule(t0 + c.at, Event::WorkerCrash { idx });
        }
        for (idx, s) in fault.storage_faults.iter().enumerate() {
            queue.schedule(t0 + s.at, Event::StorageFault { idx, open: true });
            queue.schedule(
                t0 + s.at + s.duration,
                Event::StorageFault { idx, open: false },
            );
        }
        for (idx, n) in fault.net_faults.iter().enumerate() {
            queue.schedule(t0 + n.at, Event::NetFault { idx, open: true });
            queue.schedule(t0 + n.at + n.duration, Event::NetFault { idx, open: false });
        }
        for (idx, c) in fault.engine_crashes.iter().enumerate() {
            queue.schedule(t0 + c.at, Event::EngineCrash { idx });
        }
        for (idx, g) in fault.gray_faults.iter().enumerate() {
            queue.schedule(t0 + g.at, Event::GrayFault { idx, open: true });
            queue.schedule(
                t0 + g.at + g.duration,
                Event::GrayFault { idx, open: false },
            );
        }
    }

    // ==================================================================
    // Fault injection & recovery
    // ==================================================================

    /// A worker node dies: its bulk transfers are torn down, its warm pool,
    /// queued admissions and MemStore contents vanish, and (under WorkerSP)
    /// its engine process dies with it. Nothing is *recovered* here —
    /// detection waits for the lease to expire, like a real failure
    /// detector.
    pub(super) fn on_worker_crash(&mut self, now: SimTime, idx: usize) {
        let crash = self.config.fault.node_crashes[idx];
        let w = crash.worker as usize;
        if !self.workers[w].alive {
            return; // overlapping crash windows collapse into one
        }
        self.faults.worker_crashes += 1;
        let node = self.config.worker_node(w as u32);
        self.tracer.record(|| TraceEvent::WorkerCrashed {
            worker: node,
            at: now,
        });
        // Kill every bulk transfer touching the node, and the payloads held
        // behind its partition: MasterSP re-admits the orphans below under
        // the same token, which a late payload would otherwise reach.
        self.kill_flows(now, |f| f.src == node || f.dst == node);
        self.windows.drop_stalled_on(w);
        // Warm pool, queued admissions, store contents and resource gauges
        // vanish, and any gray suspicion with them.
        if let Some(ev) = self.workers[w].crash(now) {
            self.queue.cancel(ev);
        }
        // WorkerSP: the engine process dies too. Node-crash recovery is the
        // partition-level path (lease expiry → redeploy → epoch-bump
        // restarts), not journal replay; the node restart, if any, brings
        // the engine back.
        let _ = self
            .engines
            .crash(now, EngineTarget::Worker(w as u32), Crash::Node);
        // Orphan every instance the node was running, booting, or queueing.
        let mut orphaned = self.invocations.crash_sweep(w);
        // Hedges die with the node too: speculative copies running *on* the
        // dead worker vanish with its pool; hedges whose primary died are
        // dropped (the orphaned primary restarts or recovers on its own).
        self.hedging.on_worker_crash(now, w, &mut self.tracer);
        for &t in &orphaned {
            self.cancel_hedge(now, t);
        }
        self.workers[w].orphans.append(&mut orphaned);
        // The differential detector hands the crashed worker to the lease
        // path.
        if let Some(h) = self.health.as_mut() {
            h.on_worker_crash(w as u32);
        }
        // Heartbeats stop now; the lease expires after the detection delay.
        self.queue.schedule(
            now + FaultPlan::DETECTION_DELAY,
            Event::LeaseExpired { worker: w },
        );
        if let Some(after) = crash.restart_after {
            self.queue
                .schedule(now + after, Event::WorkerRestart { worker: w });
        }
    }

    /// A crashed worker comes back cold: empty pools, empty MemStore, blank
    /// engine. Under WorkerSP the survivors' partitions are recomputed to
    /// fold it back in.
    pub(super) fn on_worker_restart(&mut self, now: SimTime, w: usize) {
        let faults = &mut self.workers[w];
        if faults.alive {
            return;
        }
        faults.alive = true;
        faults.detected_down = false;
        faults.up_since = now;
        self.faults.worker_restarts += 1;
        let node = self.config.worker_node(w as u32);
        self.tracer.record(|| TraceEvent::WorkerRestarted {
            worker: node,
            at: now,
        });
        if self.config.mode == ScheduleMode::WorkerSp {
            // Incremental fold-in: re-place only the workflows squeezed
            // onto the most-crowded survivor; load-aware scoring pulls them
            // toward the idle reborn worker.
            let alive = |w: usize| self.workers[w].alive;
            let placed = placed_groups(&self.workflows, &self.config);
            let hot = self.rebalancer.hot_worker(placed, alive);
            let hot = hot.map(|(hot, _, _)| self.config.worker_node(hot as u32));
            self.recovery_redeploy(now, hot);
            // The node restart brings the engine process back with it,
            // blank: partition recovery restarts what it held, so there is
            // nothing to replay. The crash already fenced any pending
            // restart chain.
            let target = EngineTarget::Worker(w as u32);
            if self.engines.revive(now, target).is_some() {
                self.trace_engine_recovered(now, target, 0);
            }
        }
        // MasterSP: assignments that arrived while the node was dead but
        // undetected replay locally on the reborn node.
        let spooled = std::mem::take(&mut self.workers[w].spool);
        for (wf, inv, function) in spooled {
            if self.invocations.alive((wf, inv)) {
                self.spawn_instances(now, w, wf, inv, function);
            }
        }
    }

    /// The failure detector declares the worker down and recovery begins.
    /// MasterSP re-dispatches the orphaned calls centrally; WorkerSP
    /// re-partitions onto the survivors and restarts impacted invocations
    /// there.
    pub(super) fn on_lease_expired(&mut self, now: SimTime, w: usize) {
        self.faults.lease_expiries += 1;
        let node = self.config.worker_node(w as u32);
        self.tracer.record(|| TraceEvent::LeaseExpired {
            worker: node,
            at: now,
        });
        let faults = &mut self.workers[w];
        if !faults.alive {
            faults.detected_down = true;
        }
        // False suspicion: a force-expired lease on a live worker behind an
        // asymmetric partition. The master cannot tell a zombie from a
        // corpse, so it recovers as if the node died; the zombie's late
        // completions die on the fences.
        let suspected = faults.alive && faults.zombie;
        match self.config.mode {
            ScheduleMode::MasterSp => {
                if suspected {
                    self.evacuate_worker(now, w, DeadLetterReason::CrashOrphan);
                } else {
                    self.recover_master_orphans(now, w);
                }
            }
            ScheduleMode::WorkerSp => self.recover_worker_partition(now, w, suspected),
        }
    }

    /// MasterSP crash recovery: the central engine re-dispatches every
    /// instance the dead worker owed to a surviving worker, reading inputs
    /// back from the remote store (the baseline always writes through it).
    fn recover_master_orphans(&mut self, now: SimTime, w: usize) {
        let mut orphans = std::mem::take(&mut self.workers[w].orphans);
        orphans.sort_unstable();
        orphans.dedup();
        for (wf, inv) in self.invocations.charge_owners(&orphans, MAX_RECOVERIES) {
            self.dead_letter_invocation(now, wf, inv, DeadLetterReason::RetriesExhausted);
        }
        for &token in &orphans {
            if self.invocations.orphan_due(token) {
                self.redispatch(now, w, false, token, DeadLetterReason::CrashOrphan);
            }
        }
        // Assignments that sailed into the void replay on survivors.
        let spooled = std::mem::take(&mut self.workers[w].spool);
        for (wf, inv, function) in spooled {
            if self.invocations.alive((wf, inv)) {
                self.reassign_from_dead(now, w, wf, inv, function, Self::spawn_instances);
            }
        }
    }

    /// MasterSP: an assignment for dead `worker`. Once the failure detector
    /// has declared the worker down, the master re-dispatches it through
    /// `spawn` to a survivor (dead-lettering it with none left); until then
    /// it sails into the void, spooled until the lease expires or the node
    /// restarts.
    pub(super) fn reassign_from_dead(
        &mut self,
        now: SimTime,
        worker: usize,
        wf: WorkflowId,
        inv: InvocationId,
        function: FunctionId,
        spawn: fn(&mut Self, SimTime, usize, WorkflowId, InvocationId, FunctionId),
    ) {
        if !self.workers[worker].detected_down {
            self.workers[worker].spool.push((wf, inv, function));
        } else if let Some(target) = self.pick_worker(worker, false) {
            self.faults.crash_redispatches += 1;
            spawn(self, now, target, wf, inv, function);
        } else {
            self.dead_letter_invocation(now, wf, inv, DeadLetterReason::CrashOrphan);
        }
    }

    /// WorkerSP crash recovery: engines route by their installed
    /// assignment, so failover is a real redeploy — re-partition every
    /// workflow over the surviving workers, then restart each invocation
    /// that had incomplete work pinned to state the dead node lost.
    fn recover_worker_partition(&mut self, now: SimTime, w: usize, force: bool) {
        // Token-level orphans are superseded by invocation-level restarts.
        self.workers[w].orphans.clear();
        let (alive, up_since) = (self.workers[w].alive, self.workers[w].up_since);
        // A restarted worker kept nothing for invocations begun before it
        // came back; a still-dead worker kept nothing at all. A false
        // suspicion (`force`) distrusts the node wholesale even though it
        // is alive — everything pinned there restarts.
        let lost = |s: &InvState, pinned: bool| pinned && (force || !alive || s.started < up_since);
        self.restart_pinned_to(now, w, lost, DeadLetterReason::RetriesExhausted);
    }

    /// WorkerSP failover off worker `w`: re-places the workflows with a
    /// group there, then restarts, in key order, each invocation `pick`
    /// selects, told whether it has incomplete work pinned to `w`.
    fn restart_pinned_to(
        &mut self,
        now: SimTime,
        w: usize,
        pick: impl Fn(&InvState, bool) -> bool,
        exhausted: DeadLetterReason,
    ) {
        let node = self.config.worker_node(w as u32);
        let impacted = self.invocations.pinned_to(node, pick);
        self.recovery_redeploy(now, Some(node));
        for (wf, inv) in impacted {
            self.restart_invocation(now, wf, inv, exhausted);
        }
    }

    /// Re-places workflows after a recovery signal. With the placement
    /// layer on, the sweep is incremental: only workflows with a group on
    /// `node` need new placements, and everyone else keeps their (still
    /// valid) deployment; `None` moves nothing. Without it, every workflow
    /// re-partitions.
    fn recovery_redeploy(&mut self, now: SimTime, node: Option<NodeId>) {
        if !self.config.placement_config.enabled {
            self.redeploy_where(|_| true);
            return;
        }
        if let Some(node) = node {
            self.rebalance_off(now, node, true);
        }
    }

    // ==================================================================
    // Engine crash injection & journaled recovery
    // ==================================================================

    /// The worker node an engine runs on, `None` for the master (trace
    /// events name engines this way).
    fn engine_node(&self, target: EngineTarget) -> Option<NodeId> {
        match target {
            EngineTarget::Master => None,
            EngineTarget::Worker(w) => Some(self.config.worker_node(w)),
        }
    }

    /// Fault plan: a scheduling engine process dies (see
    /// [`Engines::crash`]). The node itself stays up: executing containers
    /// keep running and their completions keep updating cluster-side
    /// ground truth (they just can't reach the dead engine).
    pub(super) fn on_engine_crash(&mut self, now: SimTime, idx: usize) {
        let crash = self.config.fault.engine_crashes[idx];
        let target = crash.target;
        if let EngineTarget::Worker(w) = target {
            if !self.workers[w as usize].alive {
                return; // a dead node's engine is gone
            }
        }
        let Some(era) = self.engines.crash(now, target, Crash::Process) else {
            return;
        };
        let worker = self.engine_node(target);
        self.tracer
            .record(|| TraceEvent::EngineCrashed { worker, at: now });
        self.queue.schedule(
            now + crash.restart_after,
            Event::EngineRestart {
                target,
                attempt: 0,
                era,
            },
        );
    }

    /// The crashed engine process comes back up and tries to read its
    /// journal (see [`Engines::restart`]). `era` fences chains orphaned by
    /// a second crash.
    pub(super) fn on_engine_restart(
        &mut self,
        now: SimTime,
        target: EngineTarget,
        attempt: u32,
        era: u32,
    ) {
        if !self.engines.chain_live(target, era) {
            return;
        }
        match self
            .engines
            .restart(target, attempt, &self.windows, &mut self.rng)
        {
            Restart::Backoff(delay) => {
                let attempt = attempt + 1;
                let restart = Event::EngineRestart {
                    target,
                    attempt,
                    era,
                };
                self.queue.schedule(now + delay, restart);
            }
            Restart::Replay(cost) => {
                let recovered = Event::EngineRecovered { target, era };
                self.queue.schedule(now + cost, recovered);
            }
        }
    }

    /// Replay finished: the engine rejoins under a bumped generation (so
    /// completion messages sent to the previous incarnation are fenced) and
    /// reconciles every live invocation.
    pub(super) fn on_engine_recovered(&mut self, now: SimTime, target: EngineTarget, era: u32) {
        if !self.engines.chain_live(target, era) {
            return;
        }
        let revived = self
            .engines
            .revive(now, target)
            .expect("a live chain's engine is down");
        self.trace_engine_recovered(now, target, revived.replayed);
        self.recover_engine(now, target, revived);
    }

    /// Traces an engine's revival with the journal records it replayed.
    fn trace_engine_recovered(&mut self, now: SimTime, target: EngineTarget, replayed: u64) {
        let worker = self.engine_node(target);
        self.tracer.record(|| TraceEvent::EngineRecovered {
            worker,
            replayed,
            at: now,
        });
    }

    /// Post-recovery reconciliation: each live invocation, in key order,
    /// is skipped, dead-lettered or replayed as [`Engines::reconcile`]
    /// decides. Each is judged only after the previous one's effects:
    /// a replayed exit can complete an invocation and trigger a redeploy.
    fn recover_engine(&mut self, now: SimTime, target: EngineTarget, revived: Revived) {
        for (wf, inv) in self.invocations.keys() {
            let Some(state) = self.invocations.get((wf, inv)) else {
                continue;
            };
            let ws = self.workflows.get(wf.index());
            let installed = ws.and_then(|ws| ws.deployment.current()).map(|(_, a)| a);
            let decision = self
                .engines
                .reconcile(target, revived, (wf, inv), state, installed);
            let (completed, already_propagated, inflight) = match &decision {
                Reconcile::Skip => continue,
                Reconcile::DeadLetter(reason) => {
                    self.dead_letter_invocation(now, wf, inv, *reason);
                    continue;
                }
                Reconcile::Replay {
                    completed,
                    already_propagated,
                    inflight,
                } => (completed, already_propagated, inflight),
            };
            match target {
                EngineTarget::Master => {
                    let actions = self.engines.master.replay_invocation(
                        wf,
                        inv,
                        completed,
                        already_propagated,
                        inflight,
                    );
                    self.apply_master_actions(now, actions);
                }
                EngineTarget::Worker(w) => {
                    if let Some(state) = self.invocations.get_mut((wf, inv)) {
                        state.holders.insert(w as usize);
                    }
                    let actions = self.engines.workers[w as usize].replay_invocation(
                        wf,
                        inv,
                        completed,
                        already_propagated,
                        inflight,
                    );
                    self.apply_worker_actions(now, w as usize, actions);
                }
            }
        }
    }

    /// Restarts one invocation from its entry nodes under a bumped epoch:
    /// all partial state (instances, flows, placements, store objects) is
    /// torn down and the invocation re-pins to the current deployment. The
    /// original arrival instant is kept, so the measured latency includes
    /// the outage — faults cost latency, not accounting. Past its recovery
    /// budget the invocation dead-letters as `exhausted` (a quarantine
    /// drain's casualties are quarantine orphans, not retry exhaustion).
    pub(super) fn restart_invocation(
        &mut self,
        now: SimTime,
        wf: WorkflowId,
        inv: InvocationId,
        exhausted: DeadLetterReason,
    ) {
        match self.invocations.charge_recovery((wf, inv), MAX_RECOVERIES) {
            None => return,
            Some(true) => {
                self.dead_letter_invocation(now, wf, inv, exhausted);
                return;
            }
            Some(false) => {}
        }
        let state = self.invocations.get_mut((wf, inv)).expect("charged above");
        let attempt = state.restart();
        let epoch = state.epoch;
        self.tracer.record(|| TraceEvent::InvocationRestarted {
            workflow: wf,
            invocation: inv,
            epoch,
            at: now,
        });
        self.tear_down_attempt(now, (wf, inv), attempt);
        // Re-pin to the current (post-recovery) deployment.
        let ws = &mut self.workflows[wf.index()];
        let state = self.invocations.get_mut((wf, inv)).expect("charged above");
        let _ = ws.deployment.invocation_finished(state.version);
        (state.version, state.dag, state.assignment) = ws.pin();
        // If the redeploy failed and the pinned partition still routes work
        // to a dead worker, the invocation cannot make progress.
        let routes_dead = state.dag.nodes().iter().any(|n| {
            self.config
                .worker_index(state.assignment.worker_of(n.id))
                .map(|wi| !self.workers[wi].alive)
                .unwrap_or(false)
        });
        if routes_dead {
            self.dead_letter_invocation(now, wf, inv, DeadLetterReason::CrashOrphan);
            return;
        }
        self.faults.crash_redispatches += 1;
        self.begin_invocation_dispatch(now, wf, inv);
    }

    /// Cancels every bulk transfer `doomed` picks, in flow-id order, and
    /// counts each as killed. The completion timer is re-armed only when
    /// a flow went.
    pub(super) fn kill_flows(&mut self, now: SimTime, doomed: impl Fn(&Flow<FlowTag>) -> bool) {
        let mut ids = std::mem::take(&mut self.scratch.flow_ids);
        ids.extend(self.net.iter().filter(|(_, f)| doomed(f)).map(|(id, _)| id));
        ids.sort_unstable();
        for &id in &ids {
            if self.net.cancel_flow(id, now).is_some() {
                self.faults.flows_killed += 1;
            }
        }
        let killed = !ids.is_empty();
        ids.clear();
        self.scratch.flow_ids = ids;
        if killed {
            self.reschedule_flow_timer(now);
        }
    }

    /// The first live worker after `avoid` in ring order (falling back to
    /// `avoid` itself if it restarted), preferring when `healthy` workers
    /// out of quarantine; `None` with no worker alive.
    fn pick_worker(&self, avoid: usize, healthy: bool) -> Option<usize> {
        let n = self.config.workers as usize;
        let ring = || (avoid + 1..n).chain(0..=avoid.min(n - 1));
        let alive = |w: &usize| self.workers[*w].alive;
        let preferred = |w: &usize| alive(w) && !(healthy && self.workers[*w].quarantined);
        ring().find(preferred).or_else(|| ring().find(alive))
    }

    pub(super) fn on_net_fault(&mut self, now: SimTime, idx: usize, open: bool) {
        let fault = self.config.fault.net_faults[idx];
        let node = self.config.worker_node(fault.worker);
        if open {
            let quality = LinkQuality {
                loss: fault.loss,
                latency_factor: fault.latency_factor,
            };
            self.windows.links.set(node, quality);
        } else {
            self.windows.links.clear(node);
        }
        let factor = if open { fault.bandwidth_factor } else { 1.0 };
        let nic = NicSpec::symmetric(WORKER_BANDWIDTH * factor);
        self.net.set_nic(node, nic, now);
        self.reschedule_flow_timer(now);
    }

    // ==================================================================
    // Gray failures & health detection
    // ==================================================================

    /// A gray-failure window opens or closes. Unlike a crash, the worker
    /// keeps its lease: it accepts work and answers heartbeats while
    /// quietly misbehaving — exactly the failure class a liveness-only
    /// detector cannot see. The effects are passive state consulted by the
    /// exec and flow paths, so a window over an idle worker changes
    /// nothing. When a partition lifts, the payloads stalled behind it
    /// finally deliver (heavily late — the latency cost of the outage, not
    /// an accounting reset).
    pub(super) fn on_gray_fault(&mut self, now: SimTime, idx: usize, open: bool) {
        let g = self.config.fault.gray_faults[idx];
        let w = g.worker as usize;
        let faults = &mut self.workers[w];
        match g.kind {
            GrayFaultKind::ExecSlowdown { factor } => {
                faults.slowdown = if open { factor } else { 1.0 };
            }
            GrayFaultKind::StuckExecutor => {
                faults.stuck_until = open.then_some(SimTime::ZERO + g.at + g.duration);
            }
            GrayFaultKind::FlakyExec { failure_rate } => {
                faults.flaky = if open { failure_rate } else { 0.0 };
            }
            GrayFaultKind::AsymmetricPartition {
                inbound,
                expire_lease,
            } if open => {
                faults.partition = Some(inbound);
                // The false-suspicion path: the master stops hearing from
                // the worker and force-expires its lease even though the
                // node is alive and still executing. Re-dispatched work
                // races the zombie; its late completions must be fenced.
                if expire_lease && faults.alive {
                    faults.zombie = true;
                    self.queue.schedule(
                        now + FaultPlan::DETECTION_DELAY,
                        Event::LeaseExpired { worker: w },
                    );
                }
            }
            GrayFaultKind::AsymmetricPartition { .. } => {
                faults.partition = None;
                faults.zombie = false;
                for (sw, tag) in self.windows.lift_partition() {
                    if sw == w {
                        self.on_flow_done(now, tag);
                    } else {
                        self.windows.hold(sw, tag);
                    }
                }
            }
        }
    }

    /// An `ExecDone` died on the admission fences: the completing attempt
    /// was superseded (crash recovery, restart, hedge win, evacuation).
    /// Balance the detector's in-flight gauge, and when the worker is a
    /// suspected-dead-but-alive zombie, count the rejection — fencing the
    /// zombie's late completions is the partition-tolerance property the
    /// report certifies.
    pub(super) fn on_exec_fenced(&mut self, now: SimTime, worker: usize, token: InstanceToken) {
        if let Some(h) = self.health.as_mut() {
            h.note_fenced(worker as u32);
        }
        if !self.workers[worker].zombie {
            return;
        }
        self.windows.zombie_fenced += 1;
        let node = self.config.worker_node(worker as u32);
        self.tracer.record(|| TraceEvent::ZombieFenced {
            worker: node,
            workflow: token.workflow,
            invocation: token.invocation,
            at: now,
        });
    }

    /// A quarantined worker's cooldown elapsed; the detector half-opens it
    /// (stale reopen events from before a relapse fence on `at`).
    pub(super) fn on_health_reopen(&mut self, now: SimTime, w: usize, at: SimTime) {
        let Some(h) = self.health.as_mut() else {
            return;
        };
        if let Some(t) = h.on_reopen(w as u32, at) {
            self.apply_health_transitions(now, vec![t]);
        }
    }

    /// Turns detector transitions into cluster actions: quarantine pulls
    /// the worker out of the placement target set and hedge rings (and
    /// optionally drains it), reinstating restores its capacity for the
    /// half-open probes.
    pub(super) fn apply_health_transitions(
        &mut self,
        now: SimTime,
        transitions: Vec<HealthTransition>,
    ) {
        for t in transitions {
            match t {
                HealthTransition::Quarantined {
                    worker,
                    score,
                    reopen_at,
                    relapse,
                } => {
                    let w = worker as usize;
                    self.workers[w].quarantined = true;
                    let node = self.config.worker_node(worker);
                    self.tracer.record(|| TraceEvent::WorkerQuarantined {
                        worker: node,
                        score,
                        relapse,
                        at: now,
                    });
                    self.queue.schedule(
                        reopen_at,
                        Event::HealthReopen {
                            worker: w,
                            at: reopen_at,
                        },
                    );
                    if self.config.health.is_some_and(|h| h.drain_on_quarantine) {
                        self.drain_quarantined_worker(now, w);
                    }
                }
                HealthTransition::Reinstating { worker } => {
                    self.workers[worker as usize].quarantined = false;
                }
                HealthTransition::Reinstated { worker } => {
                    let node = self.config.worker_node(worker);
                    self.tracer.record(|| TraceEvent::WorkerReinstated {
                        worker: node,
                        at: now,
                    });
                }
            }
        }
    }

    /// Steers work off a freshly quarantined worker without declaring it
    /// dead: placements recompute over the healthy set and the instances
    /// it was running re-run elsewhere, dead-lettering as quarantine
    /// orphans once an invocation's recovery budget is spent.
    fn drain_quarantined_worker(&mut self, now: SimTime, w: usize) {
        let reason = DeadLetterReason::QuarantineOrphan;
        match self.config.mode {
            ScheduleMode::MasterSp => self.evacuate_worker(now, w, reason),
            ScheduleMode::WorkerSp => {
                let on_w = |s: &InvState, pinned: bool| {
                    pinned || s.instances.values().any(|i| i.worker == w)
                };
                self.restart_pinned_to(now, w, on_w, reason);
            }
        }
    }

    /// Pulls every admitted instance off a live-but-distrusted worker
    /// (MasterSP false suspicion, or a quarantine drain): each one is
    /// re-dispatched to another live worker under a fresh admission and
    /// the suspect's containers free up normally — its own late
    /// completions die on the sequence fences. Invocations whose recovery
    /// budget is spent dead-letter with `reason`.
    fn evacuate_worker(&mut self, now: SimTime, w: usize, reason: DeadLetterReason) {
        let tokens = self.invocations.running_on(w);
        for (wf, inv) in self.invocations.charge_owners(&tokens, MAX_RECOVERIES) {
            self.dead_letter_invocation(now, wf, inv, reason);
        }
        // Transfers in flight for the evacuated attempts (including
        // payloads stalled behind the partition) belong to the superseded
        // copies; one sweep cancels them all.
        self.cancel_flows(now, |t| tokens.binary_search(&t.token).is_ok());
        for &token in &tokens {
            self.cancel_hedge(now, token);
            let Some(inst) = self.invocations.evacuate(token) else {
                continue;
            };
            self.release_container(now, w, inst.container);
            self.redispatch(now, w, true, token, reason);
        }
    }

    /// Re-admits `token` on the first live worker after `from` (see
    /// [`Self::pick_worker`]), dead-lettering its invocation with `reason`
    /// when none is left.
    fn redispatch(
        &mut self,
        now: SimTime,
        from: usize,
        healthy: bool,
        token: InstanceToken,
        reason: DeadLetterReason,
    ) {
        let (wf, inv) = token.key();
        match self.pick_worker(from, healthy) {
            Some(target) => {
                self.faults.crash_redispatches += 1;
                self.request_instance(now, target, token);
            }
            None => self.dead_letter_invocation(now, wf, inv, reason),
        }
    }
}
