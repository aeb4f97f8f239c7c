//! Simulated peripherals of the MSP430FR5994 platform.
//!
//! The EaseIO paper's workloads are peripheral-bound: temperature/humidity
//! sensing, radio transmission, image capture, DMA block copies, and the LEA
//! vector accelerator. This crate provides deterministic models of each:
//!
//! * a time-varying [`env::Environment`] that sensors sample — re-executing a
//!   sensor read at a different time yields a different value, which is what
//!   makes blind I/O re-execution *unsafe* (paper §2.1.3), not just wasteful;
//! * a [`radio::RadioLog`] that records every transmitted packet, so tests
//!   can observe duplicate or stale transmissions;
//! * a [`dma`] engine whose transfers write memory directly, invisible to any
//!   CPU-level privatization (the root cause of the paper's idempotence
//!   bugs, §2.1.2);
//! * a [`lea`] fixed-point vector unit that only operates on LEA-RAM, forcing
//!   the DMA staging pattern the paper's FIR and DNN workloads use.

pub mod camera;
pub mod dma;
pub mod env;
pub mod fault;
pub mod lea;
pub mod medium;
pub mod radio;
pub mod sensors;

pub use env::Environment;
pub use fault::{FaultKind, FaultPlan, FaultState, PeriphClass};
pub use medium::MediumSpec;
pub use radio::{Packet, RadioLog};
pub use sensors::Sensor;

/// Bundle of peripheral state threaded through task execution.
#[derive(Debug, PartialEq, Eq)]
pub struct Peripherals {
    /// The physical environment sensors sample.
    pub env: Environment,
    /// Radio transmission log.
    pub radio: RadioLog,
    /// Transient-fault schedule and attempt counters (no faults unless a
    /// plan is installed).
    pub faults: FaultState,
}

impl Clone for Peripherals {
    fn clone(&self) -> Self {
        Self {
            env: self.env.clone(),
            radio: self.radio.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Copies `source` into these peripherals, keeping the radio log's and
    /// the fault counters' buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self { env, radio, faults } = self;
        env.clone_from(&source.env);
        radio.clone_from(&source.radio);
        faults.clone_from(&source.faults);
    }
}

impl Peripherals {
    /// Creates peripherals over an environment with the given seed.
    pub fn new(env_seed: u64) -> Self {
        Self {
            env: Environment::new(env_seed),
            radio: RadioLog::new(),
            faults: FaultState::default(),
        }
    }

    /// Creates peripherals with a transient-fault plan installed.
    pub fn with_fault_plan(env_seed: u64, plan: FaultPlan) -> Self {
        let mut p = Self::new(env_seed);
        p.faults.install(plan);
        p
    }
}
