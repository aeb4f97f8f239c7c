//! The single construction surface for a simulation: what device template
//! (app, kernel, faults), how many replicas, what power and radio medium,
//! which seeds, where outputs go.
//!
//! Before this layer, every entry point re-derived these from its own flag
//! set: the run path, the sweep path, and the aggregate path of
//! `easeio-sim` each parsed app/runtime/supply/seed separately and plumbed
//! them as loose scalars. A [`ScenarioSpec`] is parsed once, travels as one
//! value, and every consumer — serial runs, the crash sweep, the parallel
//! engine's workers, the experiment grid, the fleet engine — builds apps
//! and kernels from it the same way.
//!
//! A scenario is a *device template × replication count*: [`DeviceSpec`]
//! says what one device runs, `count` says how many identical devices run
//! it, and the per-device seeds (`device_seed`) decorrelate their supply
//! schedules, environments, and fault draws deterministically.

use apps::harness::{KernelBuilder, KernelKind};
use apps::{
    dma_app, fir, fir_long, flaky_radio, lea_app, motion, ota_update, temp_app, unsafe_branch,
    weather,
};
use kernel::{App, FaultSpec};
use mcu_emu::{Mcu, Supply, TimerResetConfig};
use periph::{FaultPlan, MediumSpec};

use crate::supply::{rf_supply_phased, timer_supply_with_mean_on, RF_PHASE_STEP_US};

/// Which application to build. `Named` covers the paper's eight benchmark
/// apps; `Source` compiles an `easec` program from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppSpec {
    /// One of the built-in benchmark apps, by CLI name.
    Named(String),
    /// An `easec` source file.
    Source(String),
}

/// CLI names of the built-in benchmark apps, in canonical report order —
/// the full EaseIO evaluation matrix plus the packet-loss and OTA-update
/// stressors.
pub const APP_NAMES: [&str; 11] = [
    "dma",
    "temp",
    "lea",
    "fir",
    "fir-long",
    "weather",
    "weather-single",
    "branch",
    "motion",
    "flaky-radio",
    "ota-update",
];

impl AppSpec {
    /// Builds the app on `mcu` for `kernel`. The kernel decides the
    /// app-variant pairings: `KernelKind::excludes_const_dma` selects the
    /// `Exclude`-annotated constant-DMA variant where the app has one (the
    /// EaseIO/Op pairing), and `KernelKind::two_phase_update` selects the
    /// OTA app's update protocol (shadow-slot two-phase everywhere except
    /// the naive in-place baseline).
    pub fn build(&self, kernel: KernelKind, mcu: &mut Mcu) -> Result<App, String> {
        let exclude = kernel.excludes_const_dma();
        let name = match self {
            AppSpec::Source(path) => {
                let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let compiled = easec::compile(&src, mcu).map_err(|e| format!("{path}: {e}"))?;
                return Ok(compiled.app);
            }
            AppSpec::Named(name) => name.as_str(),
        };
        Ok(match name {
            "dma" => dma_app::build(mcu, &dma_app::DmaAppCfg::default()),
            "temp" => temp_app::build(mcu, &temp_app::TempAppCfg::default()),
            "lea" => lea_app::build(mcu, &lea_app::LeaAppCfg::default()),
            "fir" => fir::build(
                mcu,
                &fir::FirCfg {
                    exclude_const_dma: exclude,
                    ..fir::FirCfg::default()
                },
            ),
            "fir-long" => fir_long::build(
                mcu,
                &fir_long::FirLongCfg {
                    exclude_const_dma: exclude,
                    ..fir_long::FirLongCfg::default()
                },
            ),
            "weather" => weather::build(
                mcu,
                &weather::WeatherCfg {
                    exclude_const_dma: exclude,
                    ..weather::WeatherCfg::default()
                },
            ),
            "weather-single" => weather::build(
                mcu,
                &weather::WeatherCfg {
                    single_buffer: true,
                    exclude_const_dma: exclude,
                    ..weather::WeatherCfg::default()
                },
            ),
            "branch" => unsafe_branch::build(mcu, &unsafe_branch::BranchCfg::default()).0,
            "motion" => motion::build(mcu, &motion::MotionCfg::default()).0,
            "flaky-radio" => flaky_radio::build(mcu, &flaky_radio::FlakyRadioCfg::default()).0,
            "ota-update" => {
                ota_update::build(
                    mcu,
                    &ota_update::OtaUpdateCfg {
                        two_phase: kernel.two_phase_update(),
                        ..ota_update::OtaUpdateCfg::default()
                    },
                )
                .0
            }
            other => return Err(format!("unknown app {other}")),
        })
    }

    /// Whether the app's final memory is a pure function of the seed: no
    /// sensed environment values reach application state, so byte-exact
    /// comparison against the continuous-power oracle is sound.
    pub fn is_deterministic(&self) -> bool {
        matches!(
            self,
            AppSpec::Named(n)
                if matches!(n.as_str(), "dma" | "fir" | "fir-long" | "lea" | "ota-update")
        )
    }

    /// Display label: the app name, or the source path.
    pub fn label(&self) -> &str {
        match self {
            AppSpec::Named(n) => n,
            AppSpec::Source(p) => p,
        }
    }

    /// Why the metrics harness cannot run this app under its default timer
    /// supply, or `None` if it can. `fir-long`'s chunk task needs more
    /// on-time than the timer supply's 20 ms maximum on-period, so every
    /// task-atomic runtime non-terminates; the metrics table reports the
    /// app as an explicit "skipped" row instead of silently omitting it.
    pub fn metrics_skip_reason(&self) -> Option<&'static str> {
        match self {
            AppSpec::Named(n) if n == "fir-long" => Some(
                "chunk task exceeds the timer supply's 20 ms max on-period; \
                 every task-atomic runtime would non-terminate",
            ),
            _ => None,
        }
    }
}

/// Which power supply drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupplySpec {
    /// Continuous wall power.
    Continuous,
    /// The default randomized on/off timer schedule.
    Timer,
    /// A timer schedule with mean on-period `on_ms` milliseconds (the
    /// grid's failure-intensity axis).
    TimerOnMs(u64),
    /// The RF harvester at `distance_inch` inches from the transmitter.
    Rf(u64),
}

impl SupplySpec {
    /// Parses a CLI `--supply` value (`continuous|timer|rf`; `rf` takes its
    /// distance separately).
    pub fn parse(name: &str, distance_inch: u64) -> Result<Self, String> {
        Ok(match name {
            "continuous" => SupplySpec::Continuous,
            "timer" => SupplySpec::Timer,
            "rf" => SupplySpec::Rf(distance_inch),
            other => return Err(format!("unknown supply {other}")),
        })
    }

    /// Instantiates the supply for replica `replica` of a run: timer
    /// schedules draw from `seed`, the RF harvester's fading wave is
    /// phase-shifted by `replica × RF_PHASE_STEP_US`. Replica 0 is the
    /// single run.
    pub fn make(self, seed: u64, replica: u64) -> Supply {
        match self {
            SupplySpec::Continuous => Supply::continuous(),
            SupplySpec::Timer => Supply::timer(TimerResetConfig::default(), seed),
            SupplySpec::TimerOnMs(on_ms) => timer_supply_with_mean_on(on_ms, seed),
            SupplySpec::Rf(distance) => rf_supply_phased(distance, replica * RF_PHASE_STEP_US),
        }
    }

    /// Compact label for reports ("timer", "rf:58", "timer:15ms", …).
    pub fn label(self) -> String {
        match self {
            SupplySpec::Continuous => "continuous".into(),
            SupplySpec::Timer => "timer".into(),
            SupplySpec::TimerOnMs(on_ms) => format!("timer:{on_ms}ms"),
            SupplySpec::Rf(d) => format!("rf:{d}"),
        }
    }
}

/// What one device runs: the template replicated `count` times by a
/// [`ScenarioSpec`]. Every replica builds the same app under the same
/// kernel and fault *rate*; the per-device seeds decorrelate the draws.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// What application runs.
    pub app: AppSpec,
    /// Which kernel runs it.
    pub kernel: KernelKind,
    /// Transient peripheral-fault configuration (plan + retry policy).
    pub fault: FaultSpec,
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self {
            app: AppSpec::Named("dma".into()),
            kernel: KernelKind::EaseIo,
            fault: FaultSpec::none(),
        }
    }
}

impl DeviceSpec {
    /// Builds the device's app on `mcu`, applying the kernel's app-variant
    /// pairings (constant-DMA exclusion, update protocol) automatically.
    pub fn build_app(&self, mcu: &mut Mcu) -> Result<App, String> {
        self.app.build(self.kernel, mcu)
    }
}

/// One scenario, fully specified: a device template, how many replicas run
/// it, the power and radio environment they share, the seeds, and where
/// outputs go. Parsed once at the CLI (or constructed directly in
/// tests/benches) and consumed everywhere — run, sweep, grid, metrics, and
/// fleet all build apps and kernels through this one surface.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The device template every replica instantiates.
    pub device: DeviceSpec,
    /// Number of identical devices (1 = the classic single-device run).
    pub count: u32,
    /// What power drives each device (instantiated per device seed).
    pub supply: SupplySpec,
    /// The shared radio medium fleet replicas transmit over.
    pub medium: MediumSpec,
    /// Base seed: environment, supply schedule, fault draws, and boundary
    /// sampling all derive from it.
    pub seed: u64,
    /// Repetitions for aggregate modes (seed advances per run).
    pub runs: u64,
    /// Worker threads for the parallel engine (1 = serial).
    pub jobs: usize,
    /// Where to write the event trace, if anywhere.
    pub trace_out: Option<String>,
    /// Where to write the machine-readable report, if anywhere.
    pub report_out: Option<String>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            device: DeviceSpec::default(),
            count: 1,
            supply: SupplySpec::Timer,
            medium: MediumSpec::ideal(),
            seed: 42,
            runs: 1,
            jobs: 1,
            trace_out: None,
            report_out: None,
        }
    }
}

impl ScenarioSpec {
    /// A 1-device scenario over the given template.
    pub fn single(device: DeviceSpec) -> Self {
        Self {
            device,
            ..Self::default()
        }
    }

    /// The run recipe of this scenario's device template: its kernel under
    /// its fault configuration.
    pub fn kernel_builder(&self) -> KernelBuilder {
        KernelBuilder::new(self.device.kernel).with_faults(self.device.fault)
    }

    /// Builds the template app on `mcu`.
    pub fn build_app(&self, mcu: &mut Mcu) -> Result<App, String> {
        self.device.build_app(mcu)
    }

    /// The seed replica `device` derives its environment, supply schedule,
    /// and fault draws from. Device 0 uses the scenario seed itself, so a
    /// 1-device fleet reproduces a plain `run` at the same seed exactly
    /// (the N=1 equivalence anchor; see `crates/fleet`).
    pub fn device_seed(&self, device: u32) -> u64 {
        self.seed + device as u64
    }

    /// The supply instance for one replica.
    pub fn supply_for_device(&self, device: u32) -> Supply {
        self.supply.make(self.device_seed(device), device as u64)
    }

    /// The fault spec for one replica: the template's rate and retry
    /// policy, with the plan seed advanced per device so replicas fault
    /// independently. Device 0 keeps the template's plan unchanged.
    pub fn fault_for_device(&self, device: u32) -> FaultSpec {
        let mut fault = self.device.fault;
        if let Some(plan) = fault.plan {
            fault.plan = Some(FaultPlan::new(
                plan.seed.wrapping_add(device as u64),
                plan.rate_permille,
            ));
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_app_builds() {
        for name in APP_NAMES {
            let spec = AppSpec::Named(name.into());
            let mut mcu = Mcu::new(Supply::continuous());
            let app = spec.build(KernelKind::EaseIo, &mut mcu).expect(name);
            assert!(!app.tasks.is_empty(), "{name}");
        }
    }

    #[test]
    fn deterministic_set_matches_the_strict_memory_contract() {
        let det: Vec<&str> = APP_NAMES
            .iter()
            .copied()
            .filter(|n| AppSpec::Named((*n).into()).is_deterministic())
            .collect();
        assert_eq!(det, ["dma", "lea", "fir", "fir-long", "ota-update"]);
    }

    #[test]
    fn scenario_builds_kernel_and_app_consistently() {
        let spec = ScenarioSpec::single(DeviceSpec {
            kernel: KernelKind::EaseIoOp,
            app: AppSpec::Named("fir".into()),
            ..DeviceSpec::default()
        });
        let rt = spec.kernel_builder().build();
        assert_eq!(rt.name(), "EaseIO");
        let mut mcu = Mcu::new(Supply::continuous());
        spec.build_app(&mut mcu).unwrap();
    }

    #[test]
    fn device_zero_reproduces_the_scenario_seed_exactly() {
        let spec = ScenarioSpec {
            device: DeviceSpec {
                fault: FaultSpec::with_rate(9, 50),
                ..DeviceSpec::default()
            },
            seed: 42,
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.device_seed(0), 42);
        assert_eq!(spec.device_seed(3), 45);
        // Device 0 keeps the template's fault plan untouched.
        assert_eq!(spec.fault_for_device(0), spec.device.fault);
        // Later devices fault independently but at the same rate.
        let f3 = spec.fault_for_device(3).plan.unwrap();
        assert_eq!(f3.seed, 12);
        assert_eq!(f3.rate_permille, 50);
        // A no-fault template stays fault-free on every device.
        let quiet = ScenarioSpec::default();
        assert_eq!(quiet.fault_for_device(7), FaultSpec::none());
    }

    #[test]
    fn metrics_skip_reasons_cover_exactly_fir_long() {
        let skipped: Vec<&str> = APP_NAMES
            .iter()
            .copied()
            .filter(|n| AppSpec::Named((*n).into()).metrics_skip_reason().is_some())
            .collect();
        assert_eq!(skipped, ["fir-long"]);
        let reason = AppSpec::Named("fir-long".into())
            .metrics_skip_reason()
            .unwrap();
        assert!(reason.contains("20 ms"));
    }

    #[test]
    fn supply_labels_are_stable() {
        assert_eq!(SupplySpec::Rf(58).label(), "rf:58");
        assert_eq!(SupplySpec::TimerOnMs(15).label(), "timer:15ms");
        assert_eq!(SupplySpec::parse("timer", 61), Ok(SupplySpec::Timer));
        assert!(SupplySpec::parse("solar", 61).is_err());
    }
}
