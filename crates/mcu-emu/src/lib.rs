//! Simulated MSP430FR5994 intermittent-computing platform.
//!
//! This crate provides the hardware substrate that the EaseIO paper assumes:
//! a 16-bit microcontroller with a small volatile SRAM, a large persistent
//! FRAM, a dedicated LEA accelerator RAM, a persistent timekeeper, and a
//! power supply that fails intermittently (either on an emulated timer, as in
//! the paper's controlled experiments, or from an RF energy-harvesting
//! capacitor model, as in the paper's real-world evaluation).
//!
//! Everything is deterministic given a seed: virtual time advances only when
//! the MCU spends cycles, and power failures are produced by seeded supply
//! models. The simulator keeps an exact time/energy ledger classified into
//! application work and runtime overhead, from which the paper's metrics
//! (wasted work, runtime overhead, energy consumption, power-failure counts)
//! are computed without measurement noise. The ledger types ([`RunStats`],
//! [`EnergyCause`], [`Counter`]) are defined in `easeio_trace::stats`, beside
//! the reports that render them, and re-exported here.

pub mod clock;
pub mod energy;
pub mod mcu;
pub mod memory;
pub mod nvstore;
pub mod power;

pub use clock::Clock;
pub use easeio_trace::hash::{clone_map_from, clone_set_from, FlatSet, IntHasher, IntMap, IntSet};
pub use easeio_trace::stats::{
    current_rss_bytes, peak_rss_bytes, CauseMarks, CauseSample, Counter, EnergyCause, RunStats,
    TaskRows, WorkKind, CAUSE_COUNT, DMA_SITE_BASE, KERNEL_TASK,
};
pub use easeio_trace::TraceSink;
pub use energy::{Capacitor, Cost, CostTable};
pub use mcu::{Mcu, McuCheckpoint, McuSnapshot, PowerFailure, SpendBoundary, MAX_TRACKED};
pub use memory::{Addr, AllocRecord, AllocTag, MemDelta, MemSnapshot, Memory, Region, PAGE_BYTES};
pub use nvstore::{read_scalars, write_scalars, NvBuf, NvVar, RawVar, Scalar};
pub use power::{RfHarvestConfig, Supply, TimerResetConfig};
