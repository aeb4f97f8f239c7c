//! Differential model checking at the workspace level: random programs ×
//! random failure schedules, EaseIO vs the continuous-execution oracle.
//!
//! `apps::synth` documents the method; this test drives it harder than the
//! crate-local tests — proptest draws both the program seed and the failure
//! schedule, so shrinking yields a minimal (program, schedule) pair on any
//! regression.

use easeio_repro::apps::harness::KernelKind;
use easeio_repro::apps::synth;
use easeio_repro::mcu_emu::{Supply, TimerResetConfig};
use proptest::prelude::*;

fn schedule() -> impl Strategy<Value = TimerResetConfig> {
    // On-periods at least 5 ms so every generated atomic op fits; off-times
    // spanning well past the largest Timely window the generator emits.
    (5_000u64..25_000, 500u64..60_000).prop_map(|(on_max, off_max)| TimerResetConfig {
        on_min_us: 5_000,
        on_max_us: on_max.max(5_001),
        off_min_us: 200,
        off_max_us: off_max.max(201),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline equivalence: for arbitrary programs and schedules,
    /// EaseIO's final FRAM equals the continuous-execution oracle.
    #[test]
    fn easeio_equals_continuous_execution(
        prog_seed in 0u64..100_000,
        supply_seed in any::<u64>(),
        cfg in schedule(),
    ) {
        let prog = synth::generate(prog_seed);
        let supply = Supply::timer(cfg, supply_seed);
        if let Err(e) = synth::check(&prog, KernelKind::EaseIo, supply, prog_seed) {
            prop_assert!(false, "program {prog_seed} diverged: {e}");
        }
    }

    /// The oracle itself is sound: on continuous power every runtime,
    /// including the naive one, matches it exactly.
    #[test]
    fn oracle_sound_on_continuous_power(
        prog_seed in 0u64..100_000,
        which in 0usize..4,
    ) {
        let kind = [
            KernelKind::Naive,
            KernelKind::Alpaca,
            KernelKind::Ink,
            KernelKind::EaseIo,
        ][which];
        let prog = synth::generate(prog_seed);
        if let Err(e) = synth::check(&prog, kind, Supply::continuous(), prog_seed) {
            prop_assert!(false, "program {prog_seed} under {}: {e}", kind.name());
        }
    }
}

/// A deterministic wide sweep on top of the proptest cases (cheap, and its
/// failures name the seed directly).
#[test]
fn easeio_sweep_500_programs() {
    for prog_seed in 0..500u64 {
        let prog = synth::generate(prog_seed);
        let supply = Supply::timer(TimerResetConfig::default(), prog_seed.wrapping_mul(7919));
        synth::check(&prog, KernelKind::EaseIo, supply, prog_seed)
            .unwrap_or_else(|e| panic!("program {prog_seed} diverged: {e}"));
    }
}
