//! Deterministic transient-fault injection for peripherals.
//!
//! Real MSP430 deployments see transient peripheral failures that are not
//! power failures: sensor bus timeouts, radio NACKs and dropped packets,
//! aborted camera DMA bursts, LEA stalls. A [`FaultPlan`] schedules such
//! faults as a *pure function* of `(plan_seed, peripheral class, task,
//! site, attempt)` — no stateful RNG — so any fault a run observed can be
//! reproduced from the plan seed alone, and a crash-consistency sweep can
//! explore the product space of power-failure boundary × fault schedule
//! deterministically.
//!
//! The per-site attempt counters live in [`FaultState`], carried by
//! [`Peripherals`](crate::Peripherals): they tick once per *physical*
//! attempt on the peripheral, so a skipped/restored operation never
//! advances the schedule.

use mcu_emu::{clone_map_from, Counter, IntMap};

/// Peripheral class a fault plan schedules over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeriphClass {
    /// Environmental sensors (temperature, humidity, …).
    Sensor,
    /// The radio transceiver.
    Radio,
    /// The camera.
    Camera,
    /// The LEA vector accelerator.
    Lea,
    /// The DMA controller.
    Dma,
}

impl PeriphClass {
    /// Stable lowercase label for counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            PeriphClass::Sensor => "sensor",
            PeriphClass::Radio => "radio",
            PeriphClass::Camera => "camera",
            PeriphClass::Lea => "lea",
            PeriphClass::Dma => "dma",
        }
    }
}

/// A transient peripheral fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The sensor bus timed out before delivering a reading.
    SensorTimeout,
    /// The packet was transmitted but its acknowledgement was lost: the
    /// external effect *happened*, only the completion report is missing.
    RadioNack,
    /// The packet never left the radio (dropped before the air interface).
    PacketDrop,
    /// The camera aborted mid-capture.
    CameraAbort,
    /// The LEA accelerator stalled and was reset.
    LeaStall,
    /// The DMA controller aborted the programmed burst.
    DmaTransferError,
}

impl FaultKind {
    /// Stable lowercase label for counters, events, and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SensorTimeout => "sensor_timeout",
            FaultKind::RadioNack => "radio_nack",
            FaultKind::PacketDrop => "packet_drop",
            FaultKind::CameraAbort => "camera_abort",
            FaultKind::LeaStall => "lea_stall",
            FaultKind::DmaTransferError => "dma_transfer_error",
        }
    }

    /// The [`Counter`] that tallies faults of this kind.
    pub fn counter(self) -> Counter {
        match self {
            FaultKind::SensorTimeout => Counter::SensorTimeout,
            FaultKind::RadioNack => Counter::RadioNack,
            FaultKind::PacketDrop => Counter::PacketDrop,
            FaultKind::CameraAbort => Counter::CameraAbort,
            FaultKind::LeaStall => Counter::LeaStall,
            FaultKind::DmaTransferError => Counter::DmaTransferError,
        }
    }

    /// Whether the peripheral's external effect completed despite the
    /// fault (true only for [`FaultKind::RadioNack`]: the packet is in the
    /// air, the ACK is not).
    pub fn effect_done(self) -> bool {
        matches!(self, FaultKind::RadioNack)
    }
}

/// Seeded schedule of transient peripheral faults.
///
/// Whether attempt `n` at `(class, task, site)` faults — and which kind —
/// is a hash of the plan seed and those coordinates, nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Schedule seed.
    pub seed: u64,
    /// Fault probability per physical attempt, in permille (0 = never,
    /// 1000 = every attempt).
    pub rate_permille: u32,
}

/// splitmix64 finalizer: the avalanche step that turns structured
/// coordinates into uniform bits.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Creates a plan.
    pub fn new(seed: u64, rate_permille: u32) -> Self {
        Self {
            seed,
            rate_permille,
        }
    }

    /// Decides whether physical attempt `attempt` (0-based) at `(class,
    /// task, site)` faults, and with which kind. Pure: same inputs, same
    /// answer, on any thread of any run.
    pub fn decide(
        &self,
        class: PeriphClass,
        task: u16,
        site: u16,
        attempt: u32,
    ) -> Option<FaultKind> {
        if self.rate_permille == 0 {
            return None;
        }
        let coord =
            ((class as u64) << 56) | ((task as u64) << 40) | ((site as u64) << 24) | attempt as u64;
        let h = mix(self.seed ^ mix(coord));
        if h % 1000 >= self.rate_permille as u64 {
            return None;
        }
        Some(match class {
            PeriphClass::Sensor => FaultKind::SensorTimeout,
            // A second, independent bit splits radio faults between the
            // post-effect NACK and the pre-effect drop.
            PeriphClass::Radio => {
                if (h >> 32) & 1 == 0 {
                    FaultKind::RadioNack
                } else {
                    FaultKind::PacketDrop
                }
            }
            PeriphClass::Camera => FaultKind::CameraAbort,
            PeriphClass::Lea => FaultKind::LeaStall,
            PeriphClass::Dma => FaultKind::DmaTransferError,
        })
    }
}

/// Per-run fault state: the installed plan plus the physical attempt
/// counter of every `(class, task, site)` touched so far.
///
/// Counters survive power failures (the outside world does not reboot with
/// the MCU) but are per *run*: a fresh [`Peripherals`](crate::Peripherals)
/// starts them at zero, which is what makes a sweep's injected runs
/// mutually independent.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FaultState {
    plan: Option<FaultPlan>,
    attempts: IntMap<(PeriphClass, u16, u16), u32>,
}

impl Clone for FaultState {
    fn clone(&self) -> Self {
        Self {
            plan: self.plan,
            attempts: self.attempts.clone(),
        }
    }

    /// Copies `source` into this state, keeping the counter table.
    fn clone_from(&mut self, source: &Self) {
        self.plan = source.plan;
        clone_map_from(&mut self.attempts, &source.attempts);
    }
}

impl FaultState {
    /// Installs a plan (replacing any previous one, resetting no counters).
    pub fn install(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// The installed plan, if any.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.plan
    }

    /// Ticks the physical attempt counter for `(class, task, site)` and
    /// returns the scheduled fault for that attempt, if any. Without an
    /// installed plan this is free: no counter is kept.
    pub fn next_fault(&mut self, class: PeriphClass, task: u16, site: u16) -> Option<FaultKind> {
        let plan = self.plan?;
        let n = self.attempts.entry((class, task, site)).or_insert(0);
        let attempt = *n;
        *n += 1;
        plan.decide(class, task, site, attempt)
    }

    /// Physical attempts counted so far at `(class, task, site)`.
    pub fn attempts_at(&self, class: PeriphClass, task: u16, site: u16) -> u32 {
        self.attempts
            .get(&(class, task, site))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seeded() {
        let plan = FaultPlan::new(7, 200);
        for attempt in 0..64 {
            assert_eq!(
                plan.decide(PeriphClass::Radio, 3, 1, attempt),
                plan.decide(PeriphClass::Radio, 3, 1, attempt),
            );
        }
        // A different seed reshuffles the schedule somewhere in the window.
        let other = FaultPlan::new(8, 200);
        assert!((0..64).any(|a| {
            plan.decide(PeriphClass::Radio, 3, 1, a) != other.decide(PeriphClass::Radio, 3, 1, a)
        }));
    }

    #[test]
    fn rate_bounds_are_respected() {
        let never = FaultPlan::new(5, 0);
        let always = FaultPlan::new(5, 1000);
        for a in 0..32 {
            assert_eq!(never.decide(PeriphClass::Sensor, 0, 0, a), None);
            assert!(always.decide(PeriphClass::Sensor, 0, 0, a).is_some());
        }
        // Kinds follow the class.
        assert_eq!(
            always.decide(PeriphClass::Lea, 0, 0, 0),
            Some(FaultKind::LeaStall)
        );
        assert_eq!(
            always.decide(PeriphClass::Dma, 0, 0, 0),
            Some(FaultKind::DmaTransferError)
        );
    }

    #[test]
    fn radio_faults_split_between_nack_and_drop() {
        let plan = FaultPlan::new(11, 1000);
        let kinds: Vec<_> = (0..64)
            .filter_map(|a| plan.decide(PeriphClass::Radio, 0, 0, a))
            .collect();
        assert!(kinds.contains(&FaultKind::RadioNack));
        assert!(kinds.contains(&FaultKind::PacketDrop));
        assert!(FaultKind::RadioNack.effect_done());
        assert!(!FaultKind::PacketDrop.effect_done());
    }

    #[test]
    fn state_ticks_attempts_only_with_a_plan() {
        let mut s = FaultState::default();
        assert_eq!(s.next_fault(PeriphClass::Sensor, 0, 0), None);
        assert_eq!(
            s.attempts_at(PeriphClass::Sensor, 0, 0),
            0,
            "no plan, no counting"
        );
        s.install(FaultPlan::new(3, 0));
        s.next_fault(PeriphClass::Sensor, 0, 0);
        s.next_fault(PeriphClass::Sensor, 0, 0);
        s.next_fault(PeriphClass::Sensor, 0, 1);
        assert_eq!(s.attempts_at(PeriphClass::Sensor, 0, 0), 2);
        assert_eq!(s.attempts_at(PeriphClass::Sensor, 0, 1), 1);
    }

    #[test]
    fn observed_rate_tracks_the_configured_rate() {
        let plan = FaultPlan::new(42, 100);
        let n = 4000;
        let faults = (0..n)
            .filter(|&a| plan.decide(PeriphClass::Camera, 1, 0, a).is_some())
            .count();
        let permille = faults * 1000 / n as usize;
        assert!(
            (60..140).contains(&permille),
            "observed {permille}‰ for 100‰"
        );
    }
}
