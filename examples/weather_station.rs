//! A batteryless weather station: the paper's flagship application.
//!
//! Senses temperature + humidity (in an EaseIO I/O block), captures an
//! image, classifies the weather with a 5-layer fixed-point DNN on the LEA
//! accelerator, and transmits the result — across dozens of power failures.
//! Prints the pipeline's progress, the radio traffic, and how much
//! redundant I/O EaseIO avoided compared with Alpaca.
//!
//! Run with: `cargo run --release --example weather_station`

use easeio_repro::apps::harness::{KernelBuilder, KernelKind};
use easeio_repro::apps::weather::{self, WeatherCfg};
use easeio_repro::kernel::{run_app, Outcome, Verdict};
use easeio_repro::mcu_emu::{Mcu, Supply, TimerResetConfig};

fn run_station(kind: KernelKind, single_buffer: bool, seed: u64) {
    let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), seed));
    let cfg = WeatherCfg {
        single_buffer,
        ..WeatherCfg::default()
    };
    let app = weather::build(&mut mcu, &cfg);
    let (mut rt, mut periph, exec) = KernelBuilder::new(kind).boot(seed);
    let r = run_app(&app, rt.as_mut(), &mut mcu, &mut periph, &exec);
    assert_eq!(r.outcome, Outcome::Completed);
    let verdict = match r.verdict {
        Some(Verdict::Correct) => "correct".to_string(),
        Some(Verdict::Incorrect(why)) => format!("CORRUPTED ({why})"),
        None => "unchecked".to_string(),
    };
    println!(
        "  {:<8} buffers={:<6}  {:>7.2} ms on, {:>3} failures, {:>3} I/O skipped, result {}",
        kind.name(),
        if single_buffer { "single" } else { "double" },
        r.stats.total_time_us() as f64 / 1000.0,
        r.stats.power_failures,
        r.stats.io_skipped + r.stats.dma_skipped,
        verdict,
    );
    if let Some(pkt) = periph.radio.packets().last() {
        println!(
            "           radio: temp {:.1} °C, humidity {:.1} %, class {}  (t = {:.1} ms)",
            pkt.payload[0] as f64 / 100.0,
            pkt.payload[1] as f64 / 10.0,
            pkt.payload[2],
            pkt.time_us as f64 / 1000.0
        );
    }
}

fn main() {
    println!("Batteryless weather station (11 tasks, 5-layer DNN on LEA)\n");
    println!("Double-buffered DNN activations (safe for everyone):");
    for kind in [KernelKind::Alpaca, KernelKind::Ink, KernelKind::EaseIo] {
        run_station(kind, false, 7);
    }
    println!("\nSingle shared activation buffer (Table 5's risky layout):");
    for seed in [3u64, 9, 21] {
        for kind in [KernelKind::Alpaca, KernelKind::EaseIo] {
            run_station(kind, true, seed);
        }
    }
    println!(
        "\nWith one shared buffer, a re-executed layer DMA reads back its own\n\
         output. Only EaseIO's run-time DMA typing + regional privatization\n\
         replays those transfers safely (paper §4.3–4.4, Table 5)."
    );
}
