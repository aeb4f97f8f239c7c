//! Energy-harvesting power trace: the paper's Figure 1 as ASCII art.
//!
//! Runs the FIR workload from an RF-harvesting capacitor at two transmitter
//! distances and plots stored energy over time: the sawtooth of intermittent
//! computing. Near the transmitter income beats consumption and the device
//! never dies; farther away the capacitor drains, the device goes dark,
//! recharges, and resumes.
//!
//! It also records the structured event stream of one harvester run and
//! writes it as Chrome `trace_event` JSON (`power_trace.json`, loadable in
//! `chrome://tracing` or Perfetto), with the dead periods on their own track.
//!
//! Run with: `cargo run --release --example power_trace`

use easeio_repro::apps::dma_app::{self, DmaAppCfg};
use easeio_repro::apps::harness::{KernelBuilder, KernelKind};
use easeio_repro::easeio_trace::{chrome_trace, Event, TraceSink};
use easeio_repro::kernel::run_app;
use easeio_repro::mcu_emu::{Capacitor, Mcu, RfHarvestConfig, Supply};

/// Samples of (wall ms, remaining energy fraction 0..=1) collected by
/// polling the supply between runs of fixed-size work slices.
fn trace(distance_inch: u64) -> (Vec<(f64, f64)>, u64, Vec<Event>) {
    let cfg = RfHarvestConfig {
        tx_power_mw: 3_000,
        distance_centi_inch: distance_inch * 100,
        efficiency_ppm: 1_500_000,
        capacitor: Capacitor::with_usable_energy(4_500),
        boot_us: 300,
        fading_permille: 180,
        fading_period_us: 23_000,
        fading_phase_us: 0,
    };
    let mut mcu = Mcu::new(Supply::harvester(cfg));
    mcu.trace = TraceSink::enabled();
    let app = dma_app::build(
        &mut mcu,
        &DmaAppCfg {
            iterations: 3,
            ..DmaAppCfg::default()
        },
    );
    let (mut rt, mut periph, exec) = KernelBuilder::new(KernelKind::EaseIo).boot(1);
    // Sample the capacitor through a supply observer: we run the app to
    // completion and reconstruct the trace from failure timestamps.
    let r = run_app(&app, rt.as_mut(), &mut mcu, &mut periph, &exec);
    let mut samples = Vec::new();
    if let Supply::Harvester { cfg, .. } = &mcu.supply {
        samples.push((
            mcu.clock.now_us() as f64 / 1000.0,
            cfg.capacitor.remaining_nj() as f64 / cfg.capacitor.usable_nj() as f64,
        ));
    }
    (samples, r.stats.power_failures, r.events)
}

fn bar(frac: f64, width: usize) -> String {
    let filled = (frac * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

fn main() {
    println!("Stored-energy sawtooth (paper Figure 1)\n");
    for distance in [52u64, 61, 64] {
        // Re-run with live sampling: drive the supply directly in slices so
        // the capacitor can be observed between operations.
        let cfg = RfHarvestConfig {
            tx_power_mw: 3_000,
            distance_centi_inch: distance * 100,
            efficiency_ppm: 1_500_000,
            capacitor: Capacitor::with_usable_energy(4_500),
            boot_us: 300,
            fading_permille: 180,
            fading_period_us: 23_000,
            fading_phase_us: 0,
        };
        println!(
            "distance {distance} in — harvested income {:.2} mW",
            cfg.income_nw() as f64 / 1e6
        );
        let mut supply = Supply::harvester(cfg);
        let mut clock = easeio_repro::mcu_emu::Clock::new();
        // A steady 1.5 mW synthetic load in 500 µs slices, 40 ms of work
        // (the DMA benchmark's average draw).
        let mut rows = 0;
        while clock.on_us() < 40_000 && rows < 90 {
            let spend = supply.spend(&mut clock, easeio_repro::mcu_emu::Cost::new(500, 750));
            if let Supply::Harvester { cfg, .. } = &supply {
                let frac = cfg.capacitor.remaining_nj() as f64 / cfg.capacitor.usable_nj() as f64;
                if rows % 3 == 0 || spend.interrupted {
                    println!(
                        "  t={:>7.1} ms |{}| {}",
                        clock.now_us() as f64 / 1000.0,
                        bar(frac, 40),
                        if spend.interrupted {
                            "POWER FAILURE → recharge"
                        } else {
                            ""
                        }
                    );
                }
                rows += 1;
            }
        }
        println!();
    }
    // And the end-to-end effect on a real workload:
    println!("DMA benchmark (3 iterations) under the harvester, EaseIO:");
    let mut far_events = Vec::new();
    for d in [52u64, 58, 64] {
        let (_, failures, events) = trace(d);
        println!("  distance {d} in → {failures} power failures");
        if d == 64 {
            far_events = events;
        }
    }
    // Export the farthest (most intermittent) run as a Chrome trace.
    let doc = chrome_trace(&far_events, "dma on EaseIO, harvester @64in");
    let path = "power_trace.json";
    match std::fs::write(path, doc.to_pretty()) {
        Ok(()) => println!(
            "\nwrote {path} ({} events) — open in chrome://tracing or Perfetto",
            far_events.len()
        ),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
