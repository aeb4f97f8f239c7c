//! The rolling-update engine's two identity anchors:
//!
//! 1. **N = 1 ≡ single staged update** — a 1-device no-loss rollout must
//!    reproduce the plain single-device OTA-update run at the same seed
//!    exactly, for any kernel × supply × fault-rate draw. The rollout is
//!    *defined* as waves of the single-device protocol, and this pins it.
//! 2. **Jobs-width identity** — the downlink pre-pass and the device phase
//!    are pure in the device index, so the rollout report (downlink chunk
//!    accounting included) is byte-identical at any `--jobs` width, with
//!    and without a stream sink, and the streamed records concatenate
//!    across waves into the same device-ordered bytes at every width.

mod common;

use apps::ota_update::{self, OtaUpdateCfg};
use easeio_exec::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec};
use easeio_fleet::{run_rollout, run_rollout_streamed, RolloutPolicy};
use easeio_trace::envelope::identity_document;
use easeio_trace::fleet::build_fleet_report;
use kernel::{FaultSpec, KernelKind};
use periph::MediumSpec;
use proptest::prelude::*;

const PROPTEST_KERNELS: [KernelKind; 3] =
    [KernelKind::Naive, KernelKind::Alpaca, KernelKind::EaseIo];

fn rollout_spec(count: u32, kernel: KernelKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        device: DeviceSpec {
            app: AppSpec::Named("ota-update".into()),
            kernel,
            ..DeviceSpec::default()
        },
        count,
        seed,
        ..ScenarioSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Anchor 1: a 1-device rollout over a lossless medium is the single
    /// staged update — same outcome, verdict, clocks, energy attribution,
    /// and reboot count as running the OTA app directly at the same seed.
    #[test]
    fn one_device_rollout_reproduces_the_single_staged_update(
        kernel_i in 0usize..PROPTEST_KERNELS.len(),
        seed in 0u64..1000,
        supply_i in 0usize..2,
        rate_i in 0usize..3,
    ) {
        let kernel = PROPTEST_KERNELS[kernel_i];
        let rate = [0u32, 20, 50][rate_i];
        let fault = if rate == 0 {
            FaultSpec::none()
        } else {
            FaultSpec::with_rate(seed ^ 0x5eed, rate)
        };
        let mut spec = rollout_spec(1, kernel, seed);
        spec.device.fault = fault;
        spec.supply = [SupplySpec::Timer, SupplySpec::Continuous][supply_i];
        let policy = RolloutPolicy::default();

        let r = run_rollout(&spec, &policy, None).unwrap();
        prop_assert_eq!(r.stats.offered, 1);
        prop_assert_eq!(r.stats.stragglers + r.stats.stale, 0);

        let cfg = OtaUpdateCfg {
            target_seq: policy.target_seq,
            two_phase: kernel.two_phase_update(),
            ..OtaUpdateCfg::default()
        };
        let builder = |mcu: &mut mcu_emu::Mcu| ota_update::build(mcu, &cfg).0;
        let single = apps::harness::run_once_faulted(
            &builder,
            kernel,
            spec.supply_for_device(0),
            spec.device_seed(0),
            &fault,
        );
        common::assert_agg_is_the_single_run(&r.agg, &single)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Anchor 2: the whole rollout report — downlink chunk deliveries,
    /// stragglers, version buckets, energy, the forensics anchor — is
    /// byte-identical across worker counts and with or without a sink, for
    /// lossless and lossy downlinks alike.
    #[test]
    fn rollout_report_is_byte_identical_across_jobs_widths(
        seed in 0u64..500,
        loss_i in 0usize..3,
    ) {
        let loss = [0u32, 200, 450][loss_i];
        let policy = RolloutPolicy {
            wave_size: 7,
            ..RolloutPolicy::default()
        };
        let spec_at = |jobs: usize| {
            let mut spec = rollout_spec(40, KernelKind::EaseIo, seed);
            spec.medium = MediumSpec::lossy(seed ^ 0x77, loss);
            spec.jobs = jobs;
            spec
        };
        if loss > 0 {
            let r = run_rollout(&spec_at(1), &policy, None).unwrap();
            prop_assert!(r.stats.downlink_chunks_lost > 0);
        }
        common::assert_identical_with_and_without_sink("rollout", 40, &[1, 4, 8], |jobs, out| {
            let spec = spec_at(jobs);
            let r = match out {
                Some(w) => run_rollout_streamed(&spec, &policy, w, None),
                None => run_rollout(&spec, &policy, None),
            }
            .unwrap();
            let doc = identity_document(&build_fleet_report(&r.report_inputs(&spec)));
            format!("{}\nfirst violation {:?}", doc.to_pretty(), r.first_violation)
        })?;
    }
}
