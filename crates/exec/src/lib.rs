//! easeio-exec — the deterministic parallel execution engine.
//!
//! The crash sweep and the experiment grid are embarrassingly parallel:
//! every injected run starts from the same machine snapshot and every grid
//! cell is independently seeded. This crate fans that work across OS
//! threads while keeping one hard guarantee: **output at `--jobs N` is
//! byte-identical to `--jobs 1`**, so parallelism is purely a wall-clock
//! lever and never a correctness variable. Three pieces:
//!
//! * [`pool`] — a scoped-thread worker pool whose results merge in item
//!   order ([`run_indexed`]), with per-worker utilization for the bench
//!   report and a [`easeio_trace::SpanKind::Worker`] span per worker;
//! * [`sweep::run_sweep`] / [`sweep::sweep_matrix`] — the crash-consistency
//!   sweep on the pool: boundaries batched per worker, each run restored
//!   from a shared copy-on-write [`mcu_emu::McuSnapshot`], a whole
//!   app×runtime matrix served by one pool spawn, and equivalent injection
//!   points pruned and materialized from a class representative
//!   ([`sweep::SweepOptions`]);
//! * [`grid`] — kernel × supply-point matrices (RF distance and timer
//!   on-time axes, Fig. 12/13) on the same pool.
//!
//! [`ScenarioSpec`] is the construction surface tying it together: one
//! parsed value holding a device template (app, kernel, faults), a
//! replication count, the shared supply/medium, seeds, and sinks, consumed
//! by every entry point instead of ad-hoc flag plumbing.

pub mod config;
pub mod grid;
pub mod pool;
pub mod supply;
pub mod sweep;

pub use config::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec, APP_NAMES};
pub use grid::{grid_points, run_grid, GridCell, GridSpec};
pub use pool::{run_indexed, run_indexed_collect, PoolStats};
pub use supply::{rf_supply_phased, timer_supply_with_mean_on};
pub use sweep::{
    run_sweep, sweep_matrix, sweep_matrix_observed, PruneStats, SweepEntry, SweepOptions,
    SweepTiming,
};
