//! Power-supply models: continuous power, emulated timer resets, RF harvester.
//!
//! The paper evaluates under (a) continuous power for golden runs, (b) an
//! emulated energy environment where "power failure is simulated by random
//! soft resets triggered by an MCU timer with a uniformly distributed firing
//! period in the interval of [5 ms, 20 ms]" (§5.1), and (c) a real Powercast
//! RF transmitter charging a 1 mF capacitor at five distances (§5.5). We
//! implement all three, seeded and deterministic.

use crate::clock::Clock;
use crate::energy::Capacitor;
use crate::Cost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of pushing a unit of work through the supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spend {
    /// On-time actually consumed (equals the cost's time unless interrupted).
    pub on_us: u64,
    /// Energy actually consumed (pro-rata if interrupted mid-operation).
    pub energy_nj: u64,
    /// Whether a power failure interrupted the operation. When `true`, the
    /// clock has already been advanced across the dead/recharge period.
    pub interrupted: bool,
}

/// Configuration for the emulated timer-reset supply (§5.1).
#[derive(Debug, Clone)]
pub struct TimerResetConfig {
    /// Minimum on-period before a soft reset fires (µs).
    pub on_min_us: u64,
    /// Maximum on-period before a soft reset fires (µs).
    pub on_max_us: u64,
    /// Minimum dead time after a reset (µs).
    pub off_min_us: u64,
    /// Maximum dead time after a reset (µs).
    pub off_max_us: u64,
}

impl Default for TimerResetConfig {
    /// The paper's controlled-failure setup: firing period uniform in
    /// [5 ms, 20 ms]. The off-time models the capacitor recharge between
    /// soft resets; we use a 2–15 ms uniform window so that `Timely`
    /// constraints of ~10 ms are violated in roughly half of the failures,
    /// matching the re-execution reductions reported in Table 4.
    fn default() -> Self {
        Self {
            on_min_us: 5_000,
            on_max_us: 20_000,
            off_min_us: 2_000,
            off_max_us: 15_000,
        }
    }
}

/// Configuration for the RF energy-harvesting supply (§5.5).
#[derive(Debug, Clone)]
pub struct RfHarvestConfig {
    /// Transmitter power in milliwatts (the paper uses a 3 W Powercast).
    pub tx_power_mw: u64,
    /// Distance between transmitter and harvester, in hundredths of an inch
    /// (the paper sweeps 52–64 inches).
    pub distance_centi_inch: u64,
    /// Combined antenna gain / rectifier efficiency factor in parts per
    /// thousand applied on top of free-space path loss.
    pub efficiency_ppm: u64,
    /// Storage capacitor.
    pub capacitor: Capacitor,
    /// Fixed boot overhead added to every recharge period (µs).
    pub boot_us: u64,
    /// Amplitude of slow income fading in per-mille of the nominal income
    /// (RF multipath/motion makes harvested power fluctuate; 0 disables).
    pub fading_permille: u64,
    /// Period of the fading wave (µs).
    pub fading_period_us: u64,
    /// Phase offset of the fading wave (µs); perturbing this yields
    /// independent-looking trajectories from one deterministic model.
    pub fading_phase_us: u64,
}

impl RfHarvestConfig {
    /// Instantaneous harvested power at wall-clock time `t_us`: the Friis
    /// nominal income modulated by the fading wave.
    pub fn income_at_nw(&self, t_us: u64) -> u64 {
        let base = self.income_nw();
        if self.fading_permille == 0 || self.fading_period_us == 0 {
            return base;
        }
        // Symmetric triangle in −1000..=1000 per-mille.
        let pos = ((t_us + self.fading_phase_us) % self.fading_period_us) as i64;
        let half = (self.fading_period_us / 2) as i64;
        let up = pos.min(2 * half - pos);
        let tri = (up * 2000 / half.max(1)) - 1000;
        let delta = base as i64 * self.fading_permille as i64 * tri / 1_000_000;
        (base as i64 + delta).max(0) as u64
    }

    /// Harvested power in nanowatts via the Friis transmission equation at
    /// 915 MHz (λ ≈ 0.3277 m): `P_r = P_t · η · (λ / 4πd)²`.
    pub fn income_nw(&self) -> u64 {
        // d in meters scaled by 1e6 for integer math: 1 inch = 0.0254 m.
        let d_um = self.distance_centi_inch * 254; // centi-inch → µm
        if d_um == 0 {
            return u64::MAX / 2;
        }
        // (λ / 4πd)² with λ = 327,700 µm and 4π ≈ 12.566.
        // ratio_scaled = λ·1e6 / (4π·d_um), then square and unscale.
        let ratio = 327_700u128 * 1_000_000u128 / (12_566u128 * d_um as u128 / 1000);
        let gain = ratio * ratio / 1_000_000u128; // ×1e6 fixed point
                                                  // P_r[nW] = P_t[mW]·1e6 · gain/1e6 · η/1e6
        let p = self.tx_power_mw as u128 * gain * self.efficiency_ppm as u128 / 1_000_000u128;
        p.min(u64::MAX as u128) as u64
    }
}

/// A power supply driving the simulated MCU.
#[derive(Debug, Clone)]
pub enum Supply {
    /// Ideal continuous power; never fails. Used for golden runs.
    Continuous,
    /// Emulated soft resets on a seeded random timer (§5.1).
    Timer {
        /// Reset-period configuration.
        cfg: TimerResetConfig,
        rng: Box<StdRng>,
        /// On-time remaining until the next scheduled reset.
        remaining_us: u64,
    },
    /// Capacitor + RF harvesting income (§5.5).
    Harvester {
        /// Harvesting configuration (distance, capacitor, efficiency).
        cfg: RfHarvestConfig,
        /// Sub-nanojoule harvest accumulator (micro-nJ), so income earned
        /// during short operations is not lost to integer truncation.
        acc_unj: u64,
        /// Charge-cycle counter driving deterministic boot-threshold
        /// jitter, so consecutive cycles do not phase-lock on identical
        /// failure points (real comparators have hysteresis noise).
        cycle: u64,
    },
    /// Deterministic single-failure injection for crash-consistency sweeps:
    /// fails exactly once, at the `fail_at`-th energy-spend boundary
    /// (0-based, counting individual `spend` calls), then behaves like
    /// [`Supply::Continuous`] forever after. If `fail_at` is at or past the
    /// run's boundary count, the run is identical to a continuous one.
    Injected {
        /// Boundary index at which the single failure fires.
        fail_at: u64,
        /// Dead time inserted at the failure (µs).
        off_us: u64,
        /// Number of `spend` calls observed so far.
        seen: u64,
        /// Whether the single failure already fired.
        fired: bool,
    },
}

impl Supply {
    /// Creates the continuous supply.
    pub fn continuous() -> Self {
        Supply::Continuous
    }

    /// Creates a timer-reset supply with the given seed.
    pub fn timer(cfg: TimerResetConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = rng.random_range(cfg.on_min_us..=cfg.on_max_us);
        Supply::Timer {
            cfg,
            rng: Box::new(rng),
            remaining_us: first,
        }
    }

    /// Creates an RF-harvester supply (capacitor starts fully charged).
    pub fn harvester(cfg: RfHarvestConfig) -> Self {
        Supply::Harvester {
            cfg,
            acc_unj: 0,
            cycle: 0,
        }
    }

    /// Creates a single-failure injection supply: power fails at exactly the
    /// `fail_at`-th spend boundary, stays off for `off_us`, then never fails
    /// again.
    pub fn injected(fail_at: u64, off_us: u64) -> Self {
        Self::injected_after(fail_at, off_us, 0)
    }

    /// [`Supply::injected`] for a run resumed mid-way: `seen` spend
    /// boundaries have already passed, so the failure fires at the
    /// `fail_at - seen`-th boundary from here.
    pub fn injected_after(fail_at: u64, off_us: u64, seen: u64) -> Self {
        Supply::Injected {
            fail_at,
            off_us,
            seen,
            fired: false,
        }
    }

    /// Whether this is an injection supply whose failure has fired. From
    /// then on it behaves exactly like [`Supply::Continuous`].
    pub fn injection_fired(&self) -> bool {
        matches!(self, Supply::Injected { fired: true, .. })
    }

    /// Pushes `cost` through the supply, advancing `clock` accordingly.
    ///
    /// On interruption the clock is advanced to the failure point, then
    /// across the dead period, and the supply is re-armed for the next
    /// on-period.
    pub fn spend(&mut self, clock: &mut Clock, cost: Cost) -> Spend {
        match self {
            Supply::Continuous => {
                clock.advance_on(cost.time_us);
                Spend {
                    on_us: cost.time_us,
                    energy_nj: cost.energy_nj,
                    interrupted: false,
                }
            }
            Supply::Timer {
                cfg,
                rng,
                remaining_us,
            } => {
                if cost.time_us < *remaining_us {
                    *remaining_us -= cost.time_us;
                    clock.advance_on(cost.time_us);
                    return Spend {
                        on_us: cost.time_us,
                        energy_nj: cost.energy_nj,
                        interrupted: false,
                    };
                }
                // The reset fires during (or exactly at the end of) this
                // operation: execute up to the reset point, then go dark.
                let ran = *remaining_us;
                clock.advance_on(ran);
                let energy = (cost.energy_nj * ran)
                    .checked_div(cost.time_us)
                    .unwrap_or(cost.energy_nj);
                let off = rng.random_range(cfg.off_min_us..=cfg.off_max_us);
                clock.advance_off(off);
                *remaining_us = rng.random_range(cfg.on_min_us..=cfg.on_max_us);
                Spend {
                    on_us: ran,
                    energy_nj: energy,
                    interrupted: true,
                }
            }
            Supply::Harvester {
                cfg,
                acc_unj,
                cycle,
            } => {
                let income = cfg.income_at_nw(clock.now_us()).max(1);
                // Harvest during the operation itself: income accrues per
                // microsecond of on-time (1 nW · 1 µs = 1e-6 nJ).
                let gained = *acc_unj + income.saturating_mul(cost.time_us);
                cfg.capacitor.charge(gained / 1_000_000);
                *acc_unj = gained % 1_000_000;
                if cfg.capacitor.drain(cost.energy_nj) {
                    clock.advance_on(cost.time_us);
                    return Spend {
                        on_us: cost.time_us,
                        energy_nj: cost.energy_nj,
                        interrupted: false,
                    };
                }
                // Brown-out mid-operation: run for the fraction of the
                // operation the remaining charge covered, then recharge.
                let had = cfg.capacitor.remaining_nj(); // zero after drain
                debug_assert_eq!(had, 0);
                let ran = if cost.energy_nj == 0 {
                    0
                } else {
                    cost.time_us / 2 // charge ran out partway through
                };
                clock.advance_on(ran);
                let off = cfg.capacitor.recharge_full(income) + cfg.boot_us;
                clock.advance_off(off);
                // Boot-threshold jitter: the comparator trips 0–12 % below
                // the nominal full charge, deterministically hashed from
                // the cycle index (keeps runs reproducible while breaking
                // charge-cycle phase lock).
                *cycle += 1;
                let h = {
                    let mut x = cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    x ^= x >> 29;
                    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    x ^ (x >> 32)
                };
                cfg.capacitor
                    .drain(cfg.capacitor.usable_nj() * (h % 13) / 100);
                Spend {
                    on_us: ran,
                    energy_nj: cost.energy_nj.min(cfg.capacitor.usable_nj()),
                    interrupted: true,
                }
            }
            Supply::Injected {
                fail_at,
                off_us,
                seen,
                fired,
            } => {
                let boundary = *seen;
                *seen += 1;
                if !*fired && boundary == *fail_at {
                    // The failure fires *at* the boundary: the operation
                    // never runs, no time or energy is consumed on it.
                    *fired = true;
                    clock.advance_off(*off_us);
                    return Spend {
                        on_us: 0,
                        energy_nj: 0,
                        interrupted: true,
                    };
                }
                clock.advance_on(cost.time_us);
                Spend {
                    on_us: cost.time_us,
                    energy_nj: cost.energy_nj,
                    interrupted: false,
                }
            }
        }
    }

    /// Charges `cost` in one step when the caller would otherwise push it
    /// through [`Supply::spend`] as `slices` consecutive slices and this
    /// supply provably interrupts none of them. Leaves the clock and the
    /// supply exactly as that slice loop would, and returns `true`; returns
    /// `false` and changes nothing when a slice might be interrupted, so
    /// the caller runs the loop instead.
    ///
    /// Continuous power never fails; the timer fails inside the spend only
    /// if its total on-time reaches the next reset; an injection fails only
    /// if its boundary lies in `[seen, seen + slices)` and has not fired
    /// yet. The harvester's capacitor state depends on the clock at every
    /// slice, so it always takes the loop.
    #[inline]
    pub fn charge_uninterruptible(&mut self, clock: &mut Clock, cost: Cost, slices: u64) -> bool {
        match self {
            Supply::Continuous => {}
            Supply::Timer { remaining_us, .. } => {
                if cost.time_us >= *remaining_us {
                    return false;
                }
                *remaining_us -= cost.time_us;
            }
            Supply::Harvester { .. } => return false,
            Supply::Injected {
                fail_at,
                seen,
                fired,
                ..
            } => {
                if !*fired && (*seen..*seen + slices).contains(fail_at) {
                    return false;
                }
                *seen += slices;
            }
        }
        clock.advance_on(cost.time_us);
        true
    }

    /// Whether this supply can ever interrupt execution.
    pub fn can_fail(&self) -> bool {
        !matches!(self, Supply::Continuous)
    }

    /// Stable lowercase name of the supply model, used in trace events.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Supply::Continuous => "continuous",
            Supply::Timer { .. } => "timer",
            Supply::Harvester { .. } => "harvester",
            Supply::Injected { .. } => "injected",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_never_interrupts() {
        let mut s = Supply::continuous();
        let mut c = Clock::new();
        for _ in 0..1000 {
            let r = s.spend(&mut c, Cost::new(100, 100));
            assert!(!r.interrupted);
        }
        assert_eq!(c.on_us(), 100_000);
        assert_eq!(c.off_us(), 0);
    }

    #[test]
    fn timer_interrupts_within_configured_window() {
        let cfg = TimerResetConfig::default();
        let mut s = Supply::timer(cfg.clone(), 42);
        let mut c = Clock::new();
        let mut last_boot = 0u64;
        let mut failures = 0;
        for _ in 0..100_000 {
            let r = s.spend(&mut c, Cost::new(10, 10));
            if r.interrupted {
                failures += 1;
                let on_period = c.now_us() - c.off_us() - last_boot;
                // Each on-period must be within [on_min, on_max + one op].
                assert!(
                    on_period >= cfg.on_min_us && on_period <= cfg.on_max_us,
                    "on-period {on_period} outside [{},{}]",
                    cfg.on_min_us,
                    cfg.on_max_us
                );
                last_boot = c.now_us() - c.off_us();
            }
        }
        assert!(failures > 10, "expected many failures, saw {failures}");
    }

    #[test]
    fn timer_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = Supply::timer(TimerResetConfig::default(), seed);
            let mut c = Clock::new();
            let mut pattern = Vec::new();
            for _ in 0..10_000 {
                pattern.push(s.spend(&mut c, Cost::new(7, 3)).interrupted);
            }
            (pattern, c.now_us())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn timer_partial_energy_prorated() {
        // Arrange a long op that is guaranteed to be interrupted.
        let cfg = TimerResetConfig {
            on_min_us: 100,
            on_max_us: 100,
            off_min_us: 50,
            off_max_us: 50,
        };
        let mut s = Supply::timer(cfg, 1);
        let mut c = Clock::new();
        let r = s.spend(&mut c, Cost::new(1000, 1000));
        assert!(r.interrupted);
        assert_eq!(r.on_us, 100);
        assert_eq!(r.energy_nj, 100);
        assert_eq!(c.off_us(), 50);
    }

    #[test]
    fn harvester_runs_until_capacitor_drains() {
        let cfg = RfHarvestConfig {
            tx_power_mw: 3000,
            distance_centi_inch: 6000,
            efficiency_ppm: 1_000_000,
            capacitor: Capacitor::with_usable_energy(1000),
            boot_us: 0,
            fading_permille: 0,
            fading_period_us: 0,
            fading_phase_us: 0,
        };
        let mut s = Supply::harvester(cfg);
        let mut c = Clock::new();
        let mut failures = 0;
        for _ in 0..30 {
            if s.spend(&mut c, Cost::new(10, 100)).interrupted {
                failures += 1;
            }
        }
        // 1000 nJ per charge, 100 nJ per op → failure every ~10 ops.
        assert!(failures >= 2, "expected multiple brown-outs");
        assert!(c.off_us() > 0, "recharge time must appear as off-time");
    }

    #[test]
    fn injected_fails_exactly_once_at_the_requested_boundary() {
        let mut s = Supply::injected(3, 500);
        let mut c = Clock::new();
        let mut fired_at = None;
        for i in 0..10u64 {
            let r = s.spend(&mut c, Cost::new(10, 10));
            if r.interrupted {
                assert!(fired_at.is_none(), "second failure at boundary {i}");
                assert_eq!(r.on_us, 0, "injected failure consumes no on-time");
                assert_eq!(r.energy_nj, 0);
                fired_at = Some(i);
            }
        }
        assert_eq!(fired_at, Some(3));
        assert_eq!(c.off_us(), 500);
        // 9 of the 10 spends ran normally.
        assert_eq!(c.on_us(), 90);
    }

    #[test]
    fn injected_past_the_end_never_fires() {
        let mut s = Supply::injected(100, 500);
        let mut c = Clock::new();
        for _ in 0..50 {
            assert!(!s.spend(&mut c, Cost::new(10, 10)).interrupted);
        }
        assert_eq!(c.off_us(), 0);
        assert!(s.can_fail());
        assert_eq!(s.kind_name(), "injected");
    }

    #[test]
    fn friis_income_decreases_with_distance() {
        let mk = |inch: u64| RfHarvestConfig {
            tx_power_mw: 3000,
            distance_centi_inch: inch * 100,
            efficiency_ppm: 1_000_000,
            capacitor: Capacitor::with_usable_energy(1),
            boot_us: 0,
            fading_permille: 0,
            fading_period_us: 0,
            fading_phase_us: 0,
        };
        let near = mk(52).income_nw();
        let far = mk(64).income_nw();
        assert!(
            near > far,
            "income must fall with distance: {near} vs {far}"
        );
        // Inverse-square: doubling distance quarters the income (±15 %).
        let d1 = mk(30).income_nw();
        let d2 = mk(60).income_nw();
        let ratio = d1 as f64 / d2 as f64;
        assert!((3.4..=4.6).contains(&ratio), "ratio {ratio} not ~4");
    }
}

#[cfg(test)]
mod fading_tests {
    use super::*;

    fn cfg(fading: u64) -> RfHarvestConfig {
        RfHarvestConfig {
            tx_power_mw: 3_000,
            distance_centi_inch: 6_000,
            efficiency_ppm: 1_000_000,
            capacitor: Capacitor::with_usable_energy(5_000),
            boot_us: 0,
            fading_permille: fading,
            fading_period_us: 10_000,
            fading_phase_us: 0,
        }
    }

    #[test]
    fn fading_modulates_income_within_the_amplitude() {
        let c = cfg(200);
        let base = c.income_nw();
        let mut lo = u64::MAX;
        let mut hi = 0;
        for t in (0..20_000).step_by(100) {
            let v = c.income_at_nw(t);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        // ±20 % around the nominal income.
        assert!(
            lo >= base * 79 / 100 && lo <= base * 81 / 100,
            "lo {lo} vs {base}"
        );
        assert!(
            hi >= base * 119 / 100 && hi <= base * 121 / 100,
            "hi {hi} vs {base}"
        );
    }

    #[test]
    fn zero_fading_is_constant() {
        let c = cfg(0);
        let base = c.income_nw();
        for t in (0..30_000).step_by(777) {
            assert_eq!(c.income_at_nw(t), base);
        }
    }

    #[test]
    fn phase_shifts_the_wave() {
        let mut a = cfg(200);
        let mut b = cfg(200);
        b.fading_phase_us = 2_500;
        a.fading_phase_us = 0;
        assert_eq!(a.income_at_nw(2_500), b.income_at_nw(0));
        assert_ne!(a.income_at_nw(0), b.income_at_nw(0));
    }

    #[test]
    fn boot_jitter_desynchronizes_charge_cycles() {
        // Consecutive brown-out cycles must not be byte-identical in length.
        let mut s = Supply::harvester(cfg(0));
        let mut clock = Clock::new();
        let mut deltas = Vec::new();
        let mut last = 0;
        while deltas.len() < 6 {
            let r = s.spend(&mut clock, Cost::new(100, 700));
            if r.interrupted {
                deltas.push(clock.on_us() - last);
                last = clock.on_us();
            }
        }
        let first = deltas[1];
        assert!(
            deltas[1..].iter().any(|d| *d != first),
            "phase-locked cycles: {deltas:?}"
        );
    }
}
