//! FIR filtering with DMA WAR hazards: the paper's Figure 12 in miniature.
//!
//! The filter reads and writes the *same* FRAM buffer through DMA. A power
//! failure between the write-back and the task commit makes a blind
//! re-execution filter its own output a second time. This example sweeps
//! seeds and tallies corrupted results per runtime.
//!
//! Run with: `cargo run --release --example fir_pipeline`

use easeio_repro::apps::fir::{self, FirCfg};
use easeio_repro::apps::harness::{KernelKind, MakeRuntime};
use easeio_repro::kernel::{run_app, ExecConfig, Outcome, Verdict};
use easeio_repro::mcu_emu::{Mcu, Supply, TimerResetConfig};
use easeio_repro::periph::Peripherals;

const SEEDS: u64 = 200;

fn tally(kind: KernelKind) -> (u64, u64, f64) {
    let mut correct = 0u64;
    let mut incorrect = 0u64;
    let mut total_ms = 0.0;
    for seed in 0..SEEDS {
        let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), seed));
        let mut periph = Peripherals::new(seed);
        let cfg = FirCfg {
            exclude_const_dma: kind.excludes_const_dma(),
            ..FirCfg::default()
        };
        let app = fir::build(&mut mcu, &cfg);
        let mut rt = kind.make();
        let r = run_app(
            &app,
            rt.as_mut(),
            &mut mcu,
            &mut periph,
            &ExecConfig::default(),
        );
        assert_eq!(r.outcome, Outcome::Completed);
        match r.verdict {
            Some(Verdict::Correct) => correct += 1,
            Some(Verdict::Incorrect(_)) => incorrect += 1,
            None => {}
        }
        total_ms += r.stats.total_time_us() as f64 / 1000.0;
    }
    (correct, incorrect, total_ms / SEEDS as f64)
}

fn main() {
    println!("FIR filter: 4 chunks in place over one shared FRAM buffer");
    println!("{SEEDS} seeded runs per runtime, resets U[5,20] ms\n");
    println!(
        "{:<10} {:>9} {:>11} {:>12} {:>11}",
        "runtime", "correct", "incorrect", "% corrupted", "mean ms"
    );
    for kind in [
        KernelKind::Alpaca,
        KernelKind::Ink,
        KernelKind::EaseIo,
        KernelKind::EaseIoOp,
    ] {
        let (ok, bad, mean_ms) = tally(kind);
        println!(
            "{:<10} {:>9} {:>11} {:>11.1}% {:>11.2}",
            kind.name(),
            ok,
            bad,
            100.0 * bad as f64 / SEEDS as f64,
            mean_ms,
        );
    }
    println!(
        "\nAlpaca and InK privatize CPU writes but cannot see DMA: the\n\
         re-executed fetch reads already-filtered samples (paper Fig 2b).\n\
         EaseIO's Private fetch replays from its privatization buffer and\n\
         its Single write-back never repeats — zero corruptions."
    );
}
