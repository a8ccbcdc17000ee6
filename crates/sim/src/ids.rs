//! Identifiers for simulated entities.
//!
//! These newtypes are defined in the kernel crate because they cross every
//! layer of the system: the network addresses [`NodeId`]s, the scheduler
//! assigns [`GroupId`]s of [`FunctionId`]s to nodes, the engines key their
//! state by ([`WorkflowId`], [`InvocationId`]) exactly as the paper's
//! `Workflow{State, FunctionInfo}` structures do (§3.1).

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// What the identifier prints before its index.
            pub const PREFIX: &'static str = $prefix;

            /// Creates the identifier from its raw index.
            pub const fn new(index: u32) -> Self {
                $name(index)
            }

            /// The raw index, usable for dense `Vec` indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                $name(index)
            }
        }

        impl From<usize> for $name {
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            fn from(index: usize) -> Self {
                $name(u32::try_from(index).expect("id index exceeds u32"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// A node of the simulated cluster (worker, master, or storage node).
    NodeId,
    "node"
);

define_id!(
    /// A function node within one workflow's DAG (virtual nodes included).
    FunctionId,
    "fn"
);

define_id!(
    /// A workflow registered with the cluster.
    WorkflowId,
    "wf"
);

define_id!(
    /// One invocation of a workflow — the paper's `InvocationID` (§3.1).
    InvocationId,
    "inv"
);

define_id!(
    /// A container instance on some node.
    ContainerId,
    "ctr"
);

define_id!(
    /// A function group produced by the graph partitioner (Algorithm 1).
    GroupId,
    "grp"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_display() {
        let n = NodeId::new(3);
        assert_eq!(n.index(), 3);
        assert_eq!(n.to_string(), "node3");
        assert_eq!(NodeId::from(3usize), n);
        assert_eq!(NodeId::from(3u32), n);
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(FunctionId::new(1) < FunctionId::new(2));
        assert_eq!(WorkflowId::default(), WorkflowId::new(0));
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn oversized_index_panics() {
        let _ = InvocationId::from(usize::MAX);
    }
}
