//! Liveness: the paper's non-termination argument (§3.5).
//!
//! A task whose total I/O cost exceeds what any single on-period can supply
//! can never commit under an all-or-nothing runtime — it re-executes
//! forever. EaseIO's `Single` semantics let the same task finish its I/O
//! incrementally across periods, so the application completes.

use easeio_repro::apps::dma_app::{self, DmaAppCfg};
use easeio_repro::apps::harness::{run_once, KernelKind};
use easeio_repro::kernel::Outcome;
use easeio_repro::mcu_emu::{Mcu, Supply, TimerResetConfig};

/// A copy task needing ~22 ms of transfers per attempt, against on-periods
/// capped at 20 ms: atomically impossible, incrementally easy.
fn heavy_cfg() -> DmaAppCfg {
    DmaAppCfg {
        bytes: 2048,
        chunks: 10,
        iterations: 1,
        pre_compute: 200,
        post_compute: 200,
    }
}

fn reset_cfg() -> TimerResetConfig {
    TimerResetConfig::default() // on-period U[5, 20] ms
}

#[test]
fn alpaca_livelocks_on_oversized_io_task() {
    let b = |m: &mut Mcu| dma_app::build(m, &heavy_cfg());
    let r = run_once(&b, KernelKind::Alpaca, Supply::timer(reset_cfg(), 3), 3);
    assert_eq!(
        r.outcome,
        Outcome::NonTermination,
        "a 22 ms atomic task cannot fit any on-period ≤ 20 ms"
    );
}

#[test]
fn easeio_completes_the_same_task_incrementally() {
    for seed in 0..10u64 {
        let b = |m: &mut Mcu| dma_app::build(m, &heavy_cfg());
        let r = run_once(
            &b,
            KernelKind::EaseIo,
            Supply::timer(reset_cfg(), seed),
            seed,
        );
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        assert!(r.verdict.unwrap().is_correct());
        assert!(
            r.stats.dma_skipped > 0,
            "completion must come from skipping finished transfers"
        );
    }
}

#[test]
fn easeio_needs_strictly_fewer_failures_to_finish() {
    // With Single semantics the device spends each charge on *new* work, so
    // the workload costs fewer charge cycles end to end (paper Table 4's
    // "reduces the number of power failures").
    let b = |m: &mut Mcu| dma_app::build(m, &DmaAppCfg::default());
    let mut alpaca_pf = 0;
    let mut easeio_pf = 0;
    for seed in 0..30u64 {
        alpaca_pf += run_once(
            &b,
            KernelKind::Alpaca,
            Supply::timer(reset_cfg(), seed),
            seed,
        )
        .stats
        .power_failures;
        easeio_pf += run_once(
            &b,
            KernelKind::EaseIo,
            Supply::timer(reset_cfg(), seed),
            seed,
        )
        .stats
        .power_failures;
    }
    assert!(
        easeio_pf < alpaca_pf,
        "EaseIO {easeio_pf} failures vs Alpaca {alpaca_pf}"
    );
}
