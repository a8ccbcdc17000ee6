//! The placement layer's incremental rebalancer: the per-worker tail
//! estimators fed by completions, the skew test that picks a hot worker,
//! and the [`PlacementReport`] counters. `Cluster` keeps the re-partition
//! and redeploy, which replace a workflow's current deployment and budget
//! the memstores.
//! With the placement layer off nothing here is fed or decided.

use faasflow_scheduler::{PlacementConfig, ScheduleError};
use faasflow_sim::{NodeId, SimDuration, SimTime};

use crate::metrics::PlacementReport;
use crate::overload::P2Quantile;
use crate::trace::{TraceEvent, Tracer};

#[derive(Debug)]
pub(crate) struct Rebalancer {
    config: PlacementConfig,
    /// Streaming p99 of end-to-end latency per worker.
    worker_p99: Vec<P2Quantile>,
    /// Completions since the last skew check (the cooldown).
    since_check: u32,
    pub(crate) report: PlacementReport,
    /// Workers one completion touched (reused buffer).
    touched: Vec<usize>,
}

impl Rebalancer {
    pub(crate) fn new(config: PlacementConfig, workers: u32) -> Self {
        Rebalancer {
            config,
            worker_p99: (0..workers).map(|_| P2Quantile::new(0.99)).collect(),
            since_check: 0,
            report: PlacementReport::default(),
            touched: Vec::new(),
        }
    }

    /// Feeds an invocation's end-to-end latency to every worker its
    /// placement touched (`workers` may repeat one). Timeouts count too: a
    /// timed-out invocation is exactly the pain the signal should carry.
    pub(crate) fn observe(&mut self, e2e: SimDuration, workers: impl Iterator<Item = usize>) {
        if !self.config.enabled {
            return;
        }
        let e2e_ms = e2e.as_millis_f64();
        self.touched.extend(workers);
        self.touched.sort_unstable();
        self.touched.dedup();
        for &w in &self.touched {
            self.worker_p99[w].observe(e2e_ms);
        }
        self.touched.clear();
    }

    /// `worker`'s recent end-to-end tail in whole milliseconds.
    pub(crate) fn recent_p99_ms(&self, worker: usize) -> u32 {
        self.worker_p99[worker]
            .estimate()
            .map_or(0, |p| p.round().max(0.0) as u32)
    }

    /// Counts a load-aware partition and whether to retry it at nominal
    /// capacity: residual capacity can transiently under-report (a burst
    /// of live instances), and a workflow that used to fit must deploy.
    pub(crate) fn falls_back<T>(&mut self, result: &Result<T, ScheduleError>) -> bool {
        if !self.config.enabled {
            return false;
        }
        self.report.load_aware_partitions += 1;
        let fall_back = matches!(result, Err(ScheduleError::InsufficientCapacity { .. }));
        self.report.capacity_fallbacks += u64::from(fall_back);
        fall_back
    }

    /// The alive worker holding the most placed groups (first index wins
    /// ties), with that count and the total over alive workers; `None`
    /// when nothing is placed. `placed` yields the worker of every group
    /// of every current deployment.
    pub(crate) fn hot_worker(
        &self,
        placed: impl Iterator<Item = usize>,
        alive: impl Fn(usize) -> bool,
    ) -> Option<(usize, u64, u64)> {
        let mut groups = vec![0u64; self.worker_p99.len()];
        placed.for_each(|w| groups[w] += 1);
        let mut best: Option<(usize, u64)> = None;
        let mut total = 0u64;
        for (w, &count) in groups.iter().enumerate().filter(|&(w, _)| alive(w)) {
            total += count;
            if best.is_none_or(|(_, b)| count > b) {
                best = Some((w, count));
            }
        }
        let (hot, max) = best?;
        (max > 0).then_some((hot, max, total))
    }

    /// The skew trigger, run on every completion: once per cooldown, the
    /// hot worker if it holds at least two groups and more than
    /// `skew_threshold_pct`% of the mean over alive workers.
    pub(crate) fn skewed_worker(
        &mut self,
        placed: impl Iterator<Item = usize>,
        alive: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        if !self.config.enabled {
            return None;
        }
        self.since_check += 1;
        if self.since_check < self.config.rebalance_cooldown {
            return None;
        }
        self.since_check = 0;
        let alive_count = (0..self.worker_p99.len()).filter(|&w| alive(w)).count() as u64;
        if alive_count < 2 {
            return None;
        }
        let (hot, max, total) = self.hot_worker(placed, alive)?;
        // max > (threshold_pct / 100) * (total / alive), in integers.
        let skewed = max >= 2
            && u128::from(max) * 100 * u128::from(alive_count)
                > u128::from(total) * u128::from(self.config.skew_threshold_pct);
        skewed.then_some(hot)
    }

    /// Accounts and traces a sweep that re-placed `moved` workflows off
    /// `worker`, triggered by skew or by a recovery signal.
    pub(crate) fn note_rebalanced(
        &mut self,
        worker: NodeId,
        moved: u64,
        recovery: bool,
        at: SimTime,
        tracer: &mut Tracer,
    ) {
        if moved == 0 {
            return;
        }
        let sweeps = if recovery {
            &mut self.report.recovery_rebalances
        } else {
            &mut self.report.skew_rebalances
        };
        *sweeps += 1;
        self.report.rebalanced_workflows += moved;
        tracer.record(|| TraceEvent::PlacementRebalanced {
            worker,
            workflows: moved,
            recovery,
            at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rebalancer(cooldown: u32) -> Rebalancer {
        let config = PlacementConfig {
            rebalance_cooldown: cooldown,
            skew_threshold_pct: 200,
            ..PlacementConfig::default()
        };
        Rebalancer::new(config, 4)
    }

    #[test]
    fn hot_worker_counts_alive_workers_and_breaks_ties_low() {
        let r = rebalancer(1);
        let placed = [1, 2, 2, 1, 3, 3, 3];
        let all = |_: usize| true;
        assert_eq!(r.hot_worker(placed.into_iter(), all), Some((3, 3, 7)));
        let not_3 = |w: usize| w != 3;
        assert_eq!(r.hot_worker(placed.into_iter(), not_3), Some((1, 2, 4)));
        assert_eq!(r.hot_worker(std::iter::empty(), all), None);
    }

    #[test]
    fn skew_is_checked_once_per_cooldown_against_the_threshold() {
        let mut r = rebalancer(3);
        let all = |_: usize| true;
        // Worker 0 holds 4 of 6 groups: 4 · 100 · 4 alive > 6 · 200.
        let skewed = [0, 0, 0, 0, 1, 2];
        assert_eq!(r.skewed_worker(skewed.into_iter(), all), None);
        assert_eq!(r.skewed_worker(skewed.into_iter(), all), None);
        assert_eq!(r.skewed_worker(skewed.into_iter(), all), Some(0));
        // Worker 0 holds 2 of 5 groups: 2 · 100 · 4 is not above 5 · 200.
        let even = [0, 0, 1, 2, 3];
        for _ in 0..3 {
            assert_eq!(r.skewed_worker(even.into_iter(), all), None);
        }
        // A single alive worker never counts as skewed.
        let only_0 = |w: usize| w == 0;
        for _ in 0..3 {
            assert_eq!(r.skewed_worker(skewed.into_iter(), only_0), None);
        }
    }

    #[test]
    fn a_disabled_layer_observes_and_decides_nothing() {
        let mut r = Rebalancer::new(PlacementConfig::legacy(), 2);
        for _ in 0..10 {
            r.observe(SimDuration::from_millis(100), [0, 1].into_iter());
            assert_eq!(r.skewed_worker([0, 0, 0].into_iter(), |_| true), None);
        }
        assert_eq!(r.recent_p99_ms(0), 0);
        assert!(!r.falls_back::<()>(&Err(ScheduleError::NoWorkers)));
        assert!(r.report.is_zero());
    }
}
