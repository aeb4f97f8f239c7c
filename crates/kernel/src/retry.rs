//! Retry policy and the fault specification threaded through the stack.
//!
//! Transient peripheral faults ([`IoFailure::Fault`](crate::error::IoFailure))
//! are handled *below* the task body, in the task context's retry loop: a
//! bounded number of re-attempts with energy-aware exponential backoff, then
//! a per-semantics degradation (see `TaskCtx::call_io_dep`). The backoff is
//! real work — each wait charges the supply, so a power failure can land
//! mid-retry exactly like it can land mid-operation; the crash sweep walks
//! that product space.
//!
//! [`FaultSpec`] bundles the schedule ([`FaultPlan`]) with the policy so one
//! value travels from the CLI through `ScenarioSpec`, `KernelBuilder`, and the
//! crash sweep down to the executor and peripherals.

use easeio_trace::FaultSpecDoc;
use mcu_emu::Cost;
use periph::{FaultPlan, Peripherals};

/// Bounded-retry policy for transient peripheral faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts after the first faulted attempt (0 = fail immediately).
    pub max_retries: u32,
    /// Backoff before retry `n` costs `base << (n-1)` µs of low-power wait.
    pub backoff_base_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            backoff_base_us: 40,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged before retry `n` (1-based): exponential in time,
    /// with energy at roughly one eighth of active draw (LPM wait).
    pub fn backoff_cost(&self, retry: u32) -> Cost {
        let t = self
            .backoff_base_us
            .saturating_mul(1u64 << (retry.saturating_sub(1)).min(16));
        Cost::new(t, t / 8 + 1)
    }
}

/// A complete fault configuration: the deterministic schedule (if any) plus
/// the recovery policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// The transient-fault schedule; `None` disables injection entirely.
    pub plan: Option<FaultPlan>,
    /// Retry/backoff policy applied by the task context.
    pub retry: RetryPolicy,
}

impl FaultSpec {
    /// No faults, default retry policy (the zero-behavior-change default).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with the given seed and rate, default retry policy.
    pub fn with_rate(seed: u64, rate_permille: u32) -> Self {
        Self {
            plan: (rate_permille > 0).then_some(FaultPlan::new(seed, rate_permille)),
            retry: RetryPolicy::default(),
        }
    }

    /// Installs the plan (if any) into freshly constructed peripherals.
    pub fn apply(&self, periph: &mut Peripherals) {
        if let Some(plan) = self.plan {
            periph.faults.install(plan);
        }
    }

    /// Compact label for reports: `"off"` or `"seed:rate‰/retries"`.
    pub fn label(&self) -> String {
        match self.plan {
            None => "off".into(),
            Some(p) => format!(
                "{}:{}pm/{}r",
                p.seed, p.rate_permille, self.retry.max_retries
            ),
        }
    }

    /// The `fault_spec` block of a report, `None` when faults are off.
    pub fn doc(&self) -> Option<FaultSpecDoc> {
        self.plan.map(|p| FaultSpecDoc {
            seed: p.seed,
            rate_permille: p.rate_permille as u64,
            max_retries: self.retry.max_retries as u64,
            backoff_base_us: self.retry.backoff_base_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_charges_energy() {
        let p = RetryPolicy {
            max_retries: 3,
            backoff_base_us: 100,
        };
        assert_eq!(p.backoff_cost(1).time_us, 100);
        assert_eq!(p.backoff_cost(2).time_us, 200);
        assert_eq!(p.backoff_cost(3).time_us, 400);
        assert!(p.backoff_cost(1).energy_nj > 0);
    }

    #[test]
    fn spec_with_zero_rate_is_off() {
        assert_eq!(FaultSpec::with_rate(9, 0).plan, None);
        assert_eq!(FaultSpec::none().label(), "off");
        let spec = FaultSpec::with_rate(9, 50);
        assert!(spec.plan.is_some());
        assert_eq!(spec.label(), "9:50pm/4r");
        let mut periph = Peripherals::new(1);
        spec.apply(&mut periph);
        assert_eq!(periph.faults.plan(), spec.plan);
    }
}
