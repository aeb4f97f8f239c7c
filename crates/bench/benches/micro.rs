//! Criterion micro-benchmarks: host-side cost of the simulator and of the
//! trace recorder (these measure the *reproduction's* speed, not the
//! simulated MCU — the simulated costs are exact by construction). The
//! runtime primitives (flag check, regional snapshot, DMA copy) are
//! measured once, by perfbench's `core.*` and `periph.*` layers.

use apps::dma_app::{self, DmaAppCfg};
use apps::harness::{run_once, run_traced, KernelKind};
use apps::weather::{self, WeatherCfg};
use criterion::{criterion_group, criterion_main, Criterion};
use mcu_emu::{Mcu, Supply, TimerResetConfig};
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.bench_function("weather_alpaca_intermittent", |b| {
        b.iter(|| {
            let builder = |mcu: &mut Mcu| weather::build(mcu, &WeatherCfg::default());
            let r = run_once(
                &builder,
                KernelKind::Alpaca,
                Supply::timer(TimerResetConfig::default(), black_box(7)),
                7,
            );
            black_box(r.stats.total_time_us())
        })
    });
    g.finish();
}

/// The tentpole's "effectively free when off" claim: a run with the default
/// disabled [`easeio_trace::TraceSink`] must cost within noise (≤1%) of the
/// pre-recorder simulator, because the fast path is one `Option` check and
/// the event closures are never evaluated. Compare `recorder/dma_untraced`
/// against `recorder/dma_traced` to see the enabled cost, and the two
/// `emit_*` benches for the per-call price.
fn bench_recorder(c: &mut Criterion) {
    use easeio_trace::{Event, InstantKind, TraceSink};

    let mut g = c.benchmark_group("recorder");
    g.bench_function("dma_untraced", |b| {
        b.iter(|| {
            let builder = |mcu: &mut Mcu| dma_app::build(mcu, &DmaAppCfg::default());
            let r = run_once(
                &builder,
                KernelKind::EaseIo,
                Supply::timer(TimerResetConfig::default(), black_box(42)),
                42,
            );
            black_box(r.stats.power_failures)
        })
    });
    g.bench_function("dma_traced", |b| {
        b.iter(|| {
            let builder = |mcu: &mut Mcu| dma_app::build(mcu, &DmaAppCfg::default());
            let r = run_traced(
                &builder,
                KernelKind::EaseIo,
                Supply::timer(TimerResetConfig::default(), black_box(42)),
                42,
            );
            black_box(r.events.len())
        })
    });
    g.bench_function("emit_disabled", |b| {
        let mut sink = TraceSink::disabled();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            sink.emit_with(|| Event::instant(black_box(n), n, InstantKind::Boot, "boot"));
            black_box(&sink);
        })
    });
    g.bench_function("emit_enabled", |b| {
        let mut sink = TraceSink::enabled();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            sink.emit_with(|| Event::instant(black_box(n), n, InstantKind::Boot, "boot"));
            black_box(&sink);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_simulator, bench_recorder);
criterion_main!(benches);
