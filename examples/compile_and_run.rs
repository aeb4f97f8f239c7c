//! The EaseIO compiler front-end end to end: parse a program written in the
//! paper's task language, print the Figure-5 transformation the front-end
//! would emit, then run it on the simulator under intermittent power.
//!
//! Run with: `cargo run --release --example compile_and_run`

use easeio_repro::apps::harness::{KernelKind, MakeRuntime};
use easeio_repro::easec;
use easeio_repro::kernel::{run_app, ExecConfig, Outcome};
use easeio_repro::mcu_emu::{Mcu, Supply, TimerResetConfig};
use easeio_repro::periph::Peripherals;

fn main() {
    let source = include_str!("programs/weather.eio");
    println!("===== source (the paper's language) =====\n{source}");
    let transformed = easec::transform_source(source).expect("compiles");
    println!("===== easec transformation (paper Fig. 5) =====\n{transformed}");

    println!("===== execution under intermittent power =====");
    for kind in [KernelKind::Alpaca, KernelKind::EaseIo] {
        let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), 17));
        let compiled = easec::compile(source, &mut mcu).expect("compiles");
        let mut periph = Peripherals::new(17);
        let mut rt = kind.make();
        let r = run_app(
            &compiled.app,
            rt.as_mut(),
            &mut mcu,
            &mut periph,
            &ExecConfig::default(),
        );
        assert_eq!(r.outcome, Outcome::Completed);
        println!(
            "{:<8} {:>7.2} ms, {} failures, {} I/O executed, {} restored, {} duplicate sends",
            kind.name(),
            r.stats.total_time_us() as f64 / 1000.0,
            r.stats.power_failures,
            r.stats.io_executed,
            r.stats.io_skipped,
            periph.radio.duplicate_count(),
        );
    }
    println!(
        "\nThe front-end inferred the Send's dependencies on the senses (no\n\
         manual annotations), so EaseIO re-sends exactly when a reading\n\
         refreshed — and never otherwise."
    );
}
