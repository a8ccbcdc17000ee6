//! Container runtime configuration (Table 3 of the paper).

use serde::{Deserialize, Serialize};

/// Per-node capacity: the worker hardware of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCaps {
    /// CPU cores available for containers.
    pub cores: u32,
    /// Memory available for containers, bytes.
    pub mem: u64,
}

impl Default for NodeCaps {
    /// 8 cores, 32 GB — one `ecs.g7.2xlarge` worker.
    fn default() -> Self {
        NodeCaps {
            cores: 8,
            mem: 32 << 30,
        }
    }
}

/// Container lifecycle parameters. The fixed testbed values (start
/// latencies, keep-alive, container size) are the constants of
/// [`crate::manager`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContainerConfig {
    /// Multiplicative jitter on the cold start: samples are uniform in
    /// `[1-j, 1+j] * COLD_START_MEAN`.
    pub cold_start_jitter: f64,
    /// Maximum containers per function per node ("Function container
    /// limit: 10 for each function on each node").
    pub per_function_limit: u32,
}

impl Default for ContainerConfig {
    fn default() -> Self {
        ContainerConfig {
            cold_start_jitter: 0.2,
            per_function_limit: 10,
        }
    }
}

impl ContainerConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.cold_start_jitter) {
            return Err(format!(
                "cold_start_jitter must be in [0,1), got {}",
                self.cold_start_jitter
            ));
        }
        if self.per_function_limit == 0 {
            return Err("per_function_limit must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_3() {
        let caps = NodeCaps::default();
        assert_eq!(caps.cores, 8);
        assert_eq!(caps.mem, 32 << 30);
        let cfg = ContainerConfig::default();
        assert_eq!(cfg.per_function_limit, 10);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad = [
            ContainerConfig {
                cold_start_jitter: 1.5,
                ..ContainerConfig::default()
            },
            ContainerConfig {
                per_function_limit: 0,
                ..ContainerConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
    }
}
