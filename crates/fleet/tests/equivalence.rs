//! The fleet engine's two identity anchors:
//!
//! 1. **N = 1 ≡ single run** — a 1-device fleet must reproduce the plain
//!    single-device harness run at the same seed exactly, for any app ×
//!    kernel × fault-rate draw. This is what licenses a single run to be
//!    *defined* as the `count == 1` special case of [`ScenarioSpec`].
//! 2. **Jobs-width identity** — a seeded 256-device fleet's report is
//!    byte-identical at `--jobs` 1, 4 and 8, with and without a stream
//!    sink, once host timing is stripped (`identity_document`), and the
//!    streamed records are byte-identical across widths — the properties
//!    the CI fleet smoke and streamed-telemetry gates enforce.

mod common;

use easeio_exec::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec};
use easeio_fleet::{run_fleet, run_fleet_streamed};
use easeio_trace::envelope::identity_document;
use easeio_trace::fleet::build_fleet_report;
use kernel::{FaultSpec, KernelKind};
use proptest::prelude::*;

/// Apps whose build is cheap enough for a proptest inner loop and that
/// exercise distinct I/O shapes (DMA, sensing, radio).
const PROPTEST_APPS: [&str; 3] = ["dma", "temp", "flaky-radio"];
const PROPTEST_KERNELS: [KernelKind; 3] =
    [KernelKind::Naive, KernelKind::Alpaca, KernelKind::EaseIo];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Anchor 1: device 0 of any fleet is *the* single-device run — same
    /// outcome, verdict, clocks, energy attribution, and reboot count as
    /// `apps::harness::run_once` of the same recipe and seed.
    #[test]
    fn one_device_fleet_reproduces_the_single_run(
        app_i in 0usize..PROPTEST_APPS.len(),
        kernel_i in 0usize..PROPTEST_KERNELS.len(),
        seed in 0u64..1000,
        rate_i in 0usize..3,
    ) {
        let rate = [0u32, 20, 50][rate_i];
        let fault = if rate == 0 {
            FaultSpec::none()
        } else {
            FaultSpec::with_rate(seed ^ 0x5eed, rate)
        };
        let spec = ScenarioSpec {
            device: DeviceSpec {
                app: AppSpec::Named(PROPTEST_APPS[app_i].into()),
                kernel: PROPTEST_KERNELS[kernel_i],
                fault,
            },
            count: 1,
            seed,
            ..ScenarioSpec::default()
        };

        let fleet = run_fleet(&spec, None).unwrap();
        let builder = |mcu: &mut mcu_emu::Mcu| spec.build_app(mcu).unwrap();
        let single = apps::harness::run_once(
            &builder,
            spec.kernel_builder(),
            spec.supply_for_device(0),
            spec.device_seed(0),
        );
        common::assert_agg_is_the_single_run(&fleet.agg, &single)?;
    }
}

fn fleet_256(jobs: usize) -> ScenarioSpec {
    ScenarioSpec {
        device: DeviceSpec {
            app: AppSpec::Named("flaky-radio".into()),
            kernel: KernelKind::EaseIo,
            fault: FaultSpec::with_rate(11, 30),
        },
        count: 256,
        supply: SupplySpec::Timer,
        medium: periph::MediumSpec::lossy(77, 100),
        seed: 1000,
        jobs,
        ..ScenarioSpec::default()
    }
}

/// Anchor 2: the 256-device fleet report is byte-identical across worker
/// counts and with or without a sink once host timing is stripped; the
/// sink's records are byte-identical across worker counts.
#[test]
fn report_is_byte_identical_across_jobs_widths() {
    common::assert_identical_with_and_without_sink("fleet", 256, &[1, 4, 8], |jobs, out| {
        let spec = fleet_256(jobs);
        let fleet = match out {
            Some(w) => run_fleet_streamed(&spec, w, None),
            None => run_fleet(&spec, None),
        }
        .unwrap();
        identity_document(&build_fleet_report(&fleet.report_inputs(&spec))).to_pretty()
    })
    .unwrap();
}

/// The exactly-once headline: under device power failures and peripheral
/// faults, EaseIO's `Single` semantics put zero duplicate identities on the
/// air, while the Naive baseline — which re-executes I/O after every
/// reboot — is pinned to a positive duplicate count.
#[test]
fn easeio_fleet_has_no_air_duplicates_and_naive_pins_them() {
    let spec = fleet_256(4);
    let fleet = run_fleet(&spec, None).unwrap();
    assert_eq!(
        fleet.gateway.air_duplicates, 0,
        "EaseIO leaked duplicate transmissions: {:?}",
        fleet.gateway
    );
    assert!(fleet.gateway.transmissions > 0);

    let naive = ScenarioSpec {
        device: DeviceSpec {
            kernel: KernelKind::Naive,
            ..fleet_256(4).device
        },
        ..fleet_256(4)
    };
    let fleet = run_fleet(&naive, None).unwrap();
    assert!(
        fleet.gateway.air_duplicates > 0,
        "the Naive baseline should retransmit across reboots: {:?}",
        fleet.gateway
    );
}
