//! Behavioural profile of a serverless function.
//!
//! The engines never execute user code; a function is fully described by how
//! long it runs, how much data it emits, and how much memory it touches.
//! These are exactly the quantities FaaSFlow's memory-reclamation needs:
//! `Mem(v)` (provisioned container memory), `S` (peak usage history), and
//! the output size that becomes the DAG edge weight.

use faasflow_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// Default provisioned container memory: 256 MB (Table 3, "Resource limit
/// and Lifetime: 1-core with 256MB").
pub const DEFAULT_PROVISIONED_MEM: u64 = 256 << 20;

/// Behavioural model of one serverless function.
///
/// ```
/// use faasflow_wdl::FunctionProfile;
/// let p = FunctionProfile::with_millis(120, 4 << 20);
/// assert_eq!(p.exec_mean.as_millis_f64(), 120.0);
/// assert_eq!(p.output_bytes, 4 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionProfile {
    /// Mean execution time of one instance (compute only, excluding data
    /// fetch/store, which the engines add on top).
    pub exec_mean: SimDuration,
    /// Coefficient of variation of the execution time. Samples are uniform
    /// in `[1-√3·cv, 1+√3·cv]·mean`, clamped at zero — light-tailed like the
    /// paper's compute kernels.
    pub exec_cv: f64,
    /// Total bytes emitted by the node per invocation (summed over foreach
    /// instances; each control-flow successor consumes the full output).
    pub output_bytes: u64,
    /// Peak memory the function actually uses — the paper's `S` in Eq. (1).
    pub peak_mem_bytes: u64,
    /// Provisioned container memory — the paper's `Mem(v)` in Eq. (1).
    pub provisioned_mem_bytes: u64,
    /// Priority class: higher values are shed later under overload
    /// (`ShedPolicy::DeadlineAware` drops the lowest class first). The
    /// default class 0 keeps the legacy earliest-deadline-only ordering.
    pub priority: u8,
}

// Serialization is hand-written so the `priority` field stays optional on
// the wire: class-0 profiles serialize exactly as they did before the field
// existed, and legacy workflow JSON (no `priority` key) deserializes to
// class 0.
impl Serialize for FunctionProfile {
    fn to_value(&self) -> serde::Value {
        let mut m: Vec<(String, serde::Value)> = vec![
            ("exec_mean".to_string(), self.exec_mean.to_value()),
            ("exec_cv".to_string(), self.exec_cv.to_value()),
            ("output_bytes".to_string(), self.output_bytes.to_value()),
            ("peak_mem_bytes".to_string(), self.peak_mem_bytes.to_value()),
            (
                "provisioned_mem_bytes".to_string(),
                self.provisioned_mem_bytes.to_value(),
            ),
        ];
        if self.priority != 0 {
            m.push(("priority".to_string(), self.priority.to_value()));
        }
        serde::Value::Map(m)
    }
}

impl Deserialize for FunctionProfile {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let m = serde::expect_map(value, "FunctionProfile")?;
        Ok(FunctionProfile {
            exec_mean: serde::field(m, "exec_mean", "FunctionProfile")?,
            exec_cv: serde::field(m, "exec_cv", "FunctionProfile")?,
            output_bytes: serde::field(m, "output_bytes", "FunctionProfile")?,
            peak_mem_bytes: serde::field(m, "peak_mem_bytes", "FunctionProfile")?,
            provisioned_mem_bytes: serde::field(m, "provisioned_mem_bytes", "FunctionProfile")?,
            priority: match m.iter().find(|(k, _)| k == "priority") {
                Some((_, v)) => u8::from_value(v)?,
                None => 0,
            },
        })
    }
}

impl FunctionProfile {
    /// A profile with the given mean execution time (milliseconds) and
    /// output size, 10 % execution-time variation, 64 MB peak memory and the
    /// default 256 MB provisioned container.
    pub fn with_millis(exec_ms: u64, output_bytes: u64) -> Self {
        FunctionProfile {
            exec_mean: SimDuration::from_millis(exec_ms),
            exec_cv: 0.1,
            output_bytes,
            peak_mem_bytes: 64 << 20,
            provisioned_mem_bytes: DEFAULT_PROVISIONED_MEM,
            priority: 0,
        }
    }

    /// Sets the priority class (higher survives overload shedding longer),
    /// returning the modified profile.
    pub fn priority(mut self, class: u8) -> Self {
        self.priority = class;
        self
    }

    /// Sets the peak memory usage (`S`), returning the modified profile.
    pub fn peak_mem(mut self, bytes: u64) -> Self {
        self.peak_mem_bytes = bytes;
        self
    }

    /// Sets the execution-time coefficient of variation.
    pub fn exec_variation(mut self, cv: f64) -> Self {
        self.exec_cv = cv;
        self
    }

    /// Samples one execution duration.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid (see [`FunctionProfile::validate`]).
    pub fn sample_exec(&self, rng: &mut SimRng) -> SimDuration {
        if self.exec_cv == 0.0 {
            return self.exec_mean;
        }
        // Uniform distribution with the requested cv: half-width √3·cv·mean.
        let half_width = 3f64.sqrt() * self.exec_cv;
        let factor = rng.range_f64((1.0 - half_width).max(0.0), 1.0 + half_width);
        self.exec_mean.mul_f64(factor)
    }

    /// Checks internal consistency, returning a human-readable reason on
    /// failure.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the execution variation is negative/non-finite or
    /// peak memory exceeds the provisioned container size.
    pub fn validate(&self) -> Result<(), String> {
        if !self.exec_cv.is_finite() || self.exec_cv < 0.0 {
            return Err(format!(
                "execution-time cv must be finite and non-negative, got {}",
                self.exec_cv
            ));
        }
        if self.peak_mem_bytes > self.provisioned_mem_bytes {
            return Err(format!(
                "peak memory {} exceeds provisioned memory {}",
                self.peak_mem_bytes, self.provisioned_mem_bytes
            ));
        }
        Ok(())
    }

    /// The over-provisioned slack `Mem(v) − S − μ` of Eq. (1), clamped at
    /// zero; `mu` is the paper's safety reserve for occasional requirements.
    pub fn overprovisioned_bytes(&self, mu: u64) -> u64 {
        self.provisioned_mem_bytes
            .saturating_sub(self.peak_mem_bytes)
            .saturating_sub(mu)
    }
}

impl Default for FunctionProfile {
    fn default() -> Self {
        FunctionProfile::with_millis(100, 1 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_respects_mean_and_bounds() {
        let p = FunctionProfile::with_millis(100, 0);
        let mut rng = SimRng::seed_from(1);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let d = p.sample_exec(&mut rng).as_millis_f64();
            assert!(d > 80.0 && d < 120.0, "10% cv keeps samples near mean");
            sum += d;
        }
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "empirical mean {mean}");
    }

    #[test]
    fn zero_cv_is_deterministic() {
        let p = FunctionProfile::with_millis(50, 0).exec_variation(0.0);
        let mut rng = SimRng::seed_from(2);
        assert_eq!(p.sample_exec(&mut rng), SimDuration::from_millis(50));
    }

    #[test]
    fn overprovisioned_slack_matches_equation_one() {
        // `with_millis` provisions the default 256 MB container.
        let p = FunctionProfile::with_millis(10, 0).peak_mem(100 << 20);
        let mu = 16 << 20;
        assert_eq!(p.overprovisioned_bytes(mu), (256 - 100 - 16) << 20);
        // Clamp at zero when the function already uses everything.
        let tight = p.peak_mem(250 << 20);
        assert_eq!(tight.overprovisioned_bytes(mu), 0);
    }

    #[test]
    fn priority_is_optional_on_the_wire() {
        // Class 0 serializes exactly as the field-less legacy format…
        let p = FunctionProfile::with_millis(10, 0);
        let json = serde_json::to_string(&p).expect("serializes");
        assert!(!json.contains("priority"), "class 0 stays off the wire");
        // …and legacy JSON (no `priority` key) deserializes to class 0.
        let back: FunctionProfile = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, p);
        assert_eq!(back.priority, 0);
        // Non-zero classes round-trip.
        let hi = p.priority(3);
        let json = serde_json::to_string(&hi).expect("serializes");
        assert!(json.contains("\"priority\":3"));
        let back: FunctionProfile = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, hi);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let ok = FunctionProfile::default();
        assert!(ok.validate().is_ok());
        assert!(ok.exec_variation(-0.1).validate().is_err());
        assert!(ok
            .peak_mem(512 << 20)
            .validate()
            .unwrap_err()
            .contains("exceeds"));
    }
}
