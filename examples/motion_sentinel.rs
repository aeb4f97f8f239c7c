//! Motion sentinel: exactly-once alerts from a batteryless wearable.
//!
//! Collects accelerometer windows in a `call_IO` loop (one EaseIO lock per
//! iteration — the paper's §6 loop extension), detects activity bursts, and
//! transmits each alert exactly once despite power failures. Compares the
//! alert counter in FRAM against the packets actually on the air.
//!
//! Run with: `cargo run --release --example motion_sentinel`

use easeio_repro::apps::harness::{KernelBuilder, KernelKind};
use easeio_repro::apps::motion::{self, MotionCfg};
use easeio_repro::kernel::{run_app, Outcome};
use easeio_repro::mcu_emu::{Mcu, Supply, TimerResetConfig};

fn main() {
    println!("Motion sentinel — 6 windows × 16 accelerometer samples\n");
    println!(
        "{:<8} {:>6} {:>8} {:>9} {:>10} {:>16}",
        "runtime", "seed", "alerts", "packets", "failures", "invariant"
    );
    for kind in [KernelKind::Naive, KernelKind::Alpaca, KernelKind::EaseIo] {
        for seed in [175u64, 182, 37] {
            let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), seed));
            let (app, alerts) = motion::build(&mut mcu, &MotionCfg::default());
            let (mut rt, mut periph, exec) = KernelBuilder::new(kind).boot(seed);
            let r = run_app(&app, rt.as_mut(), &mut mcu, &mut periph, &exec);
            assert_eq!(r.outcome, Outcome::Completed);
            let a = alerts.get(&mcu.mem) as usize;
            let p = periph.radio.count();
            println!(
                "{:<8} {:>6} {:>8} {:>9} {:>10} {:>16}",
                kind.name(),
                seed,
                a,
                p,
                r.stats.power_failures,
                if a == p {
                    "exactly-once ✓"
                } else {
                    "VIOLATED"
                },
            );
        }
    }
    println!(
        "\nEaseIO keeps FRAM and the airwaves consistent: the Single send never\n\
         re-transmits and regional privatization rolls back a failed attempt's\n\
         counter increment. Blind re-execution breaks the invariant either way\n\
         — an inflated counter or a duplicated packet."
    );
}
