//! Cross-crate correctness matrix: every application under every runtime.
//!
//! The paper's memory-consistency claims, end to end: EaseIO must produce
//! the continuous-power result under *any* failure schedule, for every
//! workload; the baselines must be correct exactly where the paper says
//! they are (no DMA WAR, or double-buffered layouts).

use easeio_repro::apps::harness::{run_once, KernelBuilder, KernelKind};
use easeio_repro::apps::{dma_app, fir, lea_app, temp_app, unsafe_branch, weather};
use easeio_repro::kernel::{App, Outcome, Verdict};
use easeio_repro::mcu_emu::{Mcu, Supply, TimerResetConfig};

type Builder = Box<dyn Fn(&mut Mcu) -> App>;

fn all_apps() -> Vec<(&'static str, Builder)> {
    vec![
        (
            "dma",
            Box::new(|m: &mut Mcu| dma_app::build(m, &dma_app::DmaAppCfg::default())) as Builder,
        ),
        (
            "temp",
            Box::new(|m: &mut Mcu| temp_app::build(m, &temp_app::TempAppCfg::default())),
        ),
        (
            "lea",
            Box::new(|m: &mut Mcu| lea_app::build(m, &lea_app::LeaAppCfg::default())),
        ),
        (
            "fir",
            Box::new(|m: &mut Mcu| fir::build(m, &fir::FirCfg::default())),
        ),
        (
            "weather",
            Box::new(|m: &mut Mcu| weather::build(m, &weather::WeatherCfg::default())),
        ),
        (
            "weather/single",
            Box::new(|m: &mut Mcu| {
                weather::build(
                    m,
                    &weather::WeatherCfg {
                        single_buffer: true,
                        ..weather::WeatherCfg::default()
                    },
                )
            }),
        ),
        (
            "branch",
            Box::new(|m: &mut Mcu| unsafe_branch::build(m, &unsafe_branch::BranchCfg::default()).0),
        ),
    ]
}

#[test]
fn every_app_correct_on_continuous_power_under_every_runtime() {
    for (name, builder) in all_apps() {
        for kind in [
            KernelKind::Naive,
            KernelKind::Alpaca,
            KernelKind::Ink,
            KernelKind::EaseIo,
        ] {
            let r = run_once(builder.as_ref(), kind, Supply::continuous(), 5);
            assert_eq!(r.outcome, Outcome::Completed, "{name} / {}", kind.name());
            assert_eq!(
                r.verdict,
                Some(Verdict::Correct),
                "{name} / {} on continuous power",
                kind.name()
            );
            assert_eq!(r.stats.power_failures, 0);
        }
    }
}

#[test]
fn easeio_correct_on_every_app_under_failures() {
    for (name, builder) in all_apps() {
        for seed in 0..25u64 {
            let supply = Supply::timer(TimerResetConfig::default(), seed);
            let r = run_once(builder.as_ref(), KernelKind::EaseIo, supply, seed);
            assert_eq!(r.outcome, Outcome::Completed, "{name} seed {seed}");
            assert_eq!(
                r.verdict,
                Some(Verdict::Correct),
                "{name} seed {seed}: EaseIO must match continuous execution"
            );
        }
    }
}

#[test]
fn baselines_correct_on_war_free_apps_under_failures() {
    // DMA (no overlap), temp, lea, and double-buffered weather have no DMA
    // WAR hazard: Alpaca and InK must be correct there (paper Table 1:
    // their CPU-level privatization works).
    for (name, builder) in all_apps() {
        if name == "fir" || name == "weather/single" || name == "branch" {
            continue; // the three workloads with known baseline bugs
        }
        for kind in [KernelKind::Alpaca, KernelKind::Ink] {
            for seed in 0..15u64 {
                let supply = Supply::timer(TimerResetConfig::default(), seed);
                let r = run_once(builder.as_ref(), kind, supply, seed);
                assert_eq!(r.outcome, Outcome::Completed, "{name} seed {seed}");
                assert_eq!(
                    r.verdict,
                    Some(Verdict::Correct),
                    "{name} / {} seed {seed}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn baseline_corruption_appears_exactly_on_the_war_workloads() {
    let mut fir_bad = 0;
    let mut weather_single_bad = 0;
    for seed in 0..60u64 {
        let supply = Supply::timer(TimerResetConfig::default(), seed);
        let b: Builder = Box::new(|m: &mut Mcu| fir::build(m, &fir::FirCfg::default()));
        if matches!(
            run_once(b.as_ref(), KernelKind::Alpaca, supply, seed).verdict,
            Some(Verdict::Incorrect(_))
        ) {
            fir_bad += 1;
        }
        let supply = Supply::timer(TimerResetConfig::default(), seed);
        let b: Builder = Box::new(|m: &mut Mcu| {
            weather::build(
                m,
                &weather::WeatherCfg {
                    single_buffer: true,
                    ..weather::WeatherCfg::default()
                },
            )
        });
        if matches!(
            run_once(b.as_ref(), KernelKind::Alpaca, supply, seed).verdict,
            Some(Verdict::Incorrect(_))
        ) {
            weather_single_bad += 1;
        }
    }
    assert!(fir_bad > 0, "FIR corruption must reproduce (paper Fig 12)");
    assert!(
        weather_single_bad > 0,
        "single-buffer DNN corruption must reproduce (paper Table 5)"
    );
}

#[test]
fn radio_never_receives_duplicate_packets_under_easeio() {
    // The Single send: even across failures the same payload is never
    // transmitted twice (paper Fig 2a).
    for seed in 0..30u64 {
        let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), seed));
        let app = weather::build(&mut mcu, &weather::WeatherCfg::default());
        let (mut rt, mut periph, exec) = KernelBuilder::new(KernelKind::EaseIo).boot(seed);
        let r = easeio_repro::kernel::run_app(&app, rt.as_mut(), &mut mcu, &mut periph, &exec);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(
            periph.radio.duplicate_count(),
            0,
            "seed {seed}: duplicate transmission"
        );
    }
}

#[test]
fn naive_runtime_duplicates_packets_under_failures() {
    // Contrast: without I/O semantics, a failure after the send re-sends.
    let mut dupes = 0;
    for seed in 0..60u64 {
        let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), seed));
        let app = weather::build(&mut mcu, &weather::WeatherCfg::default());
        let (mut rt, mut periph, exec) = KernelBuilder::new(KernelKind::Naive).boot(seed);
        let r = easeio_repro::kernel::run_app(&app, rt.as_mut(), &mut mcu, &mut periph, &exec);
        assert_eq!(r.outcome, Outcome::Completed);
        dupes += periph.radio.duplicate_count();
    }
    assert!(dupes > 0, "blind re-execution never duplicated a packet");
}
