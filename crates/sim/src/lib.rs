//! # faasflow-sim
//!
//! Deterministic discrete-event simulation (DES) kernel used by every other
//! crate of the FaaSFlow reproduction.
//!
//! The kernel is intentionally small and generic:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated clock.
//! * [`EventQueue`] — a cancellable priority queue of user-defined events,
//!   totally ordered by `(time, sequence-number)` so that runs are
//!   byte-for-byte reproducible.
//! * [`SimRng`] — a seedable SplitMix64 generator, sufficient for the
//!   jitter/sampling needs of the cluster model and fully deterministic.
//! * [`FastMap`] / [`FastSet`] — hash containers with a cheap,
//!   non-cryptographic hasher for the simulator's id-keyed maps.
//! * [`stats`] — counters, gauges and exact-sample histograms used for the
//!   paper's latency/percentile/overhead metrics.
//!
//! The kernel deliberately does **not** own the event loop: the world (see
//! `faasflow-core`) pops events and dispatches them, which keeps this crate
//! free of knowledge about networks, containers or engines.
//!
//! ```
//! use faasflow_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::from_nanos(1_000_000));
//! ```

pub mod event;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventId, EventQueue};
pub use hash::{FastMap, FastSet, FastState};
pub use ids::{ContainerId, FunctionId, GroupId, InvocationId, NodeId, WorkflowId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
