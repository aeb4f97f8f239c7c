//! Power-supply models shared by the CLI and the experiment grid (which
//! also computes the paper's Fig. 13).

use mcu_emu::{Capacitor, RfHarvestConfig, Supply, TimerResetConfig};

/// Phase step between RF replicas: replica `k` of an RF run sees the one
/// deterministic fading model shifted by `k × RF_PHASE_STEP_US`, an
/// independent-looking harvesting trajectory per run.
pub const RF_PHASE_STEP_US: u64 = 3_171;

/// The RF-harvesting supply of the real-world evaluation (§5.5): a 3 W
/// transmitter at 915 MHz charging a small storage capacitor, with the
/// combined antenna/rectifier gain calibrated so the no-failure /
/// intermittent crossover falls inside the paper's 52–64 inch sweep.
/// Different fading-wave phases give independent-looking (but fully
/// deterministic) harvesting trajectories.
pub fn rf_supply_phased(distance_inch: u64, phase_us: u64) -> Supply {
    Supply::harvester(RfHarvestConfig {
        tx_power_mw: 3_000,
        distance_centi_inch: distance_inch * 100,
        efficiency_ppm: 1_500_000,
        capacitor: Capacitor::with_usable_energy(4_500),
        boot_us: 300,
        fading_permille: 180,
        fading_period_us: 23_000,
        fading_phase_us: phase_us,
    })
}

/// A timer supply whose mean on-period is `on_ms` milliseconds, keeping the
/// default ±50% jitter shape of [`TimerResetConfig`] (the grid's on-time
/// axis).
pub fn timer_supply_with_mean_on(on_ms: u64, seed: u64) -> Supply {
    Supply::timer(
        TimerResetConfig {
            on_min_us: on_ms * 500,
            on_max_us: on_ms * 1500,
            ..TimerResetConfig::default()
        },
        seed,
    )
}
