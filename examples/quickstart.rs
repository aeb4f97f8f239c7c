//! Quickstart: run one intermittent application under every runtime.
//!
//! Builds the paper's uni-task DMA benchmark, runs it on a simulated
//! MSP430FR5994 that loses power every 5–20 ms, and prints what each
//! runtime paid for it — the 30-second version of the paper's Figure 7a.
//!
//! Run with: `cargo run --release --example quickstart`

use easeio_repro::apps::dma_app::{self, DmaAppCfg};
use easeio_repro::apps::harness::{KernelKind, MakeRuntime};
use easeio_repro::kernel::{run_app, ExecConfig, Outcome};
use easeio_repro::mcu_emu::{Mcu, Supply, TimerResetConfig};
use easeio_repro::periph::Peripherals;

fn main() {
    println!("EaseIO quickstart — uni-task DMA benchmark, resets U[5,20] ms\n");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>10} {:>12}",
        "runtime", "total ms", "failures", "DMA re-runs", "skipped", "energy µJ"
    );
    for kind in [KernelKind::Alpaca, KernelKind::Ink, KernelKind::EaseIo] {
        // Fresh MCU, same seed → identical failure schedule for each runtime.
        let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), 42));
        let mut periph = Peripherals::new(42);
        let app = dma_app::build(&mut mcu, &DmaAppCfg::default());
        let mut rt = kind.make();
        let r = run_app(
            &app,
            rt.as_mut(),
            &mut mcu,
            &mut periph,
            &ExecConfig::default(),
        );
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.verdict.unwrap().is_correct());
        println!(
            "{:<10} {:>10.2} {:>10} {:>12} {:>10} {:>12.1}",
            kind.name(),
            r.stats.total_time_us() as f64 / 1000.0,
            r.stats.power_failures,
            r.stats.dma_reexecutions,
            r.stats.dma_skipped,
            r.stats.total_energy_nj() as f64 / 1000.0,
        );
    }
    println!(
        "\nEaseIO resolves each NVM→NVM transfer to Single at run time and\n\
         never repeats a completed copy — the baselines redo all of them\n\
         after every reboot (paper §2.1.1)."
    );
}
