//! Red-black deployment of partition versions (§4.2.2).
//!
//! "FaaSFlow adopts the Red-Black Deployment to manage different sub-graph
//! versions in worker engines [...] It ensures that only the up-to-date
//! version is getting triggered at any point in time, while the containers
//! running in out-of-date version will get recycled once all function tasks
//! return their states."
//!
//! [`DeploymentManager`] tracks which partition [`Version`] new invocations
//! use, counts in-flight invocations per version, and reports when a
//! retired version has fully drained so the caller can recycle its
//! containers and sub-graph structures.

use std::sync::Arc;

use faasflow_sim::FastMap;
use serde::{Deserialize, Serialize};

use crate::partition::Assignment;

/// A partition version number (monotonic per workflow).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Version(u32);

impl Version {
    /// The raw number.
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Per-workflow red-black deployment state.
///
/// Assignments are held behind [`Arc`] so pinning an invocation to its
/// version is a reference-count bump, not a deep copy of the partition.
#[derive(Debug, Clone, Default)]
pub struct DeploymentManager {
    next_version: u32,
    current: Option<(Version, Arc<Assignment>)>,
    /// Retired versions still carrying in-flight invocations.
    draining: FastMap<Version, (Arc<Assignment>, u32)>,
    /// In-flight count of the current version.
    current_inflight: u32,
}

impl DeploymentManager {
    /// Creates an empty manager (no version deployed).
    pub fn new() -> Self {
        DeploymentManager::default()
    }

    /// Deploys a new assignment as the up-to-date version. The previous
    /// version (if any) starts draining; when it has no in-flight
    /// invocations it is retired immediately and returned.
    pub fn deploy(&mut self, assignment: Arc<Assignment>) -> (Version, Vec<Version>) {
        let version = Version(self.next_version);
        self.next_version += 1;
        let mut retired = Vec::new();
        if let Some((old_v, old_a)) = self.current.take() {
            if self.current_inflight == 0 {
                retired.push(old_v);
            } else {
                self.draining.insert(old_v, (old_a, self.current_inflight));
            }
        }
        self.current = Some((version, assignment));
        self.current_inflight = 0;
        (version, retired)
    }

    /// The up-to-date version and its assignment.
    pub fn current(&self) -> Option<(Version, &Assignment)> {
        self.current.as_ref().map(|(v, a)| (*v, a.as_ref()))
    }

    /// The assignment of any live (current or draining) version.
    pub fn assignment(&self, version: Version) -> Option<&Assignment> {
        self.assignment_arc_ref(version).map(Arc::as_ref)
    }

    /// Shared handle to the assignment of any live version — pinning an
    /// invocation clones the `Arc`, never the partition itself.
    pub fn assignment_arc(&self, version: Version) -> Option<Arc<Assignment>> {
        self.assignment_arc_ref(version).cloned()
    }

    fn assignment_arc_ref(&self, version: Version) -> Option<&Arc<Assignment>> {
        if let Some((v, a)) = &self.current {
            if *v == version {
                return Some(a);
            }
        }
        self.draining.get(&version).map(|(a, _)| a)
    }

    /// Marks one invocation started; it is pinned to the current version.
    ///
    /// # Panics
    ///
    /// Panics if nothing is deployed.
    pub fn invocation_started(&mut self) -> Version {
        let (v, _) = self.current.as_ref().expect("no version deployed");
        self.current_inflight += 1;
        *v
    }

    /// Marks one invocation of `version` finished. Returns `Some(version)`
    /// when that version was draining and just fully drained — its
    /// containers can now be recycled.
    ///
    /// # Panics
    ///
    /// Panics if `version` is unknown or has no in-flight invocations.
    pub fn invocation_finished(&mut self, version: Version) -> Option<Version> {
        if let Some((v, _)) = &self.current {
            if *v == version {
                assert!(
                    self.current_inflight > 0,
                    "finish without a matching start on the current version"
                );
                self.current_inflight -= 1;
                return None;
            }
        }
        let (_, inflight) = self
            .draining
            .get_mut(&version)
            .expect("finished invocation must belong to a live version");
        assert!(*inflight > 0, "drained version received another finish");
        *inflight -= 1;
        if *inflight == 0 {
            self.draining.remove(&version);
            Some(version)
        } else {
            None
        }
    }

    /// In-flight invocations on the current version.
    pub fn current_inflight(&self) -> u32 {
        self.current_inflight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::RuntimeMetrics;
    use crate::partition::{ContentionSet, GraphScheduler, WorkerInfo};
    use faasflow_sim::{NodeId, SimRng};
    use faasflow_wdl::{DagParser, FunctionProfile, Step, Workflow};

    fn assignment() -> Arc<Assignment> {
        let wf = Workflow::steps("d", Step::task("a", FunctionProfile::with_millis(1, 0)));
        let dag = DagParser::default().parse(&wf).unwrap();
        let metrics = RuntimeMetrics::initial(&dag);
        let mut rng = SimRng::seed_from(1);
        Arc::new(
            GraphScheduler::default()
                .partition(
                    &dag,
                    &[WorkerInfo::new(NodeId::new(1), 8)],
                    &metrics,
                    &ContentionSet::default(),
                    u64::MAX,
                    &mut rng,
                )
                .unwrap(),
        )
    }

    #[test]
    fn deploy_without_traffic_retires_old_immediately() {
        let mut dm = DeploymentManager::new();
        let (v0, retired) = dm.deploy(assignment());
        assert!(retired.is_empty());
        let (v1, retired) = dm.deploy(assignment());
        assert_eq!(retired, vec![v0]);
        assert_ne!(v0, v1);
        assert_eq!(dm.current().unwrap().0, v1);
    }

    #[test]
    fn inflight_invocations_pin_the_old_version() {
        let mut dm = DeploymentManager::new();
        let (v0, _) = dm.deploy(assignment());
        let started = dm.invocation_started();
        assert_eq!(started, v0);
        let (v1, retired) = dm.deploy(assignment());
        assert!(retired.is_empty(), "v0 still has traffic");
        assert!(dm.assignment(v0).is_some(), "draining assignment reachable");
        // New invocations land on v1.
        assert_eq!(dm.invocation_started(), v1);
        // Draining completes when the old invocation finishes.
        assert_eq!(dm.invocation_finished(v0), Some(v0));
        assert!(dm.assignment(v0).is_none(), "retired assignment dropped");
        assert_eq!(dm.invocation_finished(v1), None);
    }

    #[test]
    #[should_panic(expected = "no version deployed")]
    fn start_without_deploy_panics() {
        let mut dm = DeploymentManager::new();
        dm.invocation_started();
    }

    #[test]
    #[should_panic(expected = "live version")]
    fn finish_on_unknown_version_panics() {
        let mut dm = DeploymentManager::new();
        dm.deploy(assignment());
        dm.invocation_finished(Version(99));
    }
}
