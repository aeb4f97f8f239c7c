//! Property test of the sweep engine's identity contract: for *any* app
//! shape, fault schedule, runtime, and worker width, the pruned parallel
//! sweep's full `SweepOutcome` — violations in order, per-boundary waste
//! series, per-cause energy totals — is byte-identical to the unpruned
//! serial sweep from `crashcheck`.
//!
//! This is the sweep-level closure over the record-level proofs in
//! `crashcheck` (materialized records equal real injected runs; boundaries
//! differing only in fault-plan position never merge; checkpointed runs
//! equal from-boot runs): if any part of classification, checkpoint resume,
//! rejoin, materialization, batching, or merge order were wrong for some
//! input, the outcomes would diverge here.

use apps::harness::KernelKind;
use apps::{dma_app, fir_long, lea_app};
use crashcheck::{sweep, SweepPlan};
use easeio_exec::{run_sweep, SweepOptions};
use kernel::{App, FaultSpec};
use mcu_emu::Mcu;
use proptest::prelude::*;

mod common;
use common::assert_identical;

proptest! {
    // Each case runs one serial sweep plus one engine sweep end to end, so
    // a small case count still covers hundreds of injected runs.
    #![proptest_config(ProptestConfig { cases: 12 })]
    #[test]
    fn pruned_parallel_sweep_is_byte_identical_to_unpruned_serial(
        bytes in prop_oneof![Just(256u32), Just(1024u32), Just(2048u32), Just(4096u32)],
        chunks in 1u32..4,
        pre_compute in 0u64..3000,
        post_compute in 0u64..1200,
        env_seed in 0u64..1000,
        fault_rate in prop_oneof![Just(0u32), Just(60u32), Just(150u32)],
        fault_seed in 0u64..1000,
        naive in any::<bool>(),
        jobs in prop_oneof![Just(1usize), Just(4usize), Just(8usize)],
    ) {
        let cfg = dma_app::DmaAppCfg {
            bytes,
            chunks,
            iterations: 1,
            pre_compute,
            post_compute,
        };
        let build = move |m: &mut Mcu| dma_app::build(m, &cfg);
        let kind = if naive { KernelKind::Naive } else { KernelKind::EaseIo };
        let fault = if fault_rate == 0 {
            FaultSpec::none()
        } else {
            FaultSpec::with_rate(fault_seed, fault_rate)
        };
        let plan = SweepPlan {
            strict_memory: true,
            fault,
            ..SweepPlan::with_env_seed(env_seed)
        };
        let serial = sweep(&build, kind, &plan);
        let (pruned, timing) = run_sweep(&build, kind, &plan, &SweepOptions { jobs, prune: true });
        assert_identical(&serial, &pruned);
        prop_assert_eq!(
            timing.prune.injections_executed + timing.prune.injections_pruned,
            serial.injections
        );
        // The engine must also reproduce the serial outcome with pruning
        // off — the pure thread-parallel path.
        let (unpruned, _) = run_sweep(&build, kind, &plan, &SweepOptions { jobs, prune: false });
        assert_identical(&serial, &unpruned);
    }
}

type Builder = dyn Fn(&mut Mcu) -> App + Sync;

fn prune_on(jobs: usize) -> SweepOptions {
    SweepOptions { jobs, prune: true }
}

/// `lea` at a reduced size: effect-epoch pruning merges its whole
/// volatile staging loop into one class.
fn small_lea(m: &mut Mcu) -> App {
    lea_app::build(m, &lea_app::LeaAppCfg { n_out: 64, taps: 8 })
}

/// `fir-long` cut down to a few hundred boundaries, keeping its shape: a
/// multi-slice LEA burst and a pure post-filter burst per chunk, and a
/// sample DMA of 487 words — two slices, so when the fault plan
/// `FaultSpec::with_rate(3, 60)` aborts it (its fifth request, in round
/// two) the aborted burst spans a slice boundary.
fn small_fir_long(kind: KernelKind) -> impl Fn(&mut Mcu) -> App + Sync {
    move |m: &mut Mcu| {
        fir_long::build(
            m,
            &fir_long::FirLongCfg {
                chunk: 8,
                taps: 480,
                rounds: 2,
                post_cycles: 3_000,
                exclude_const_dma: kind.excludes_const_dma(),
            },
        )
    }
}

/// The identity contract on the apps effect-epoch pruning changes most,
/// under every kernel, at one and four workers: `lea` with and without
/// faults, and `fir-long` under the peripheral-fault plan that once split
/// pruned from unpruned reports (an aborted DMA burst relabeled as retry
/// only after it was spent).
#[test]
fn pruned_sweep_matches_unpruned_serial_on_lea_and_fir_long() {
    let faulted = FaultSpec::with_rate(3, 60);
    for kind in KernelKind::ALL {
        let fir_long = small_fir_long(kind);
        let cases: [(&str, &Builder, FaultSpec); 3] = [
            ("lea", &small_lea, FaultSpec::none()),
            ("lea", &small_lea, faulted),
            ("fir-long", &fir_long, faulted),
        ];
        for (name, build, fault) in cases {
            let plan = SweepPlan {
                strict_memory: true,
                fault,
                ..SweepPlan::with_env_seed(7)
            };
            let serial = sweep(build, kind, &plan);
            for jobs in [1, 4] {
                let (pruned, timing) =
                    run_sweep(build, kind, &plan, &SweepOptions { jobs, prune: true });
                assert_identical(&serial, &pruned);
                assert!(
                    timing.prune.injections_pruned > 0,
                    "{name} under {kind:?}: nothing pruned"
                );
            }
        }
    }
}

/// Checkpointed injections (each run resumes at the task attempt its
/// failure falls in and stops where it rejoins the reference run) against
/// the from-boot serial sweep, on the inputs where resuming and rejoining
/// behave differently:
///
/// * `temp` observes time, so only the prefix is cut: nothing rejoins;
/// * `ota-update` over its update window, under every kernel;
/// * `dma` under a fault plan that aborts the reference run early;
/// * `fir-long` rejoins; under a fault plan a re-executed I/O consumes
///   fault attempts the reference run never did, so the peripheral state
///   stays apart and those runs go to completion.
#[test]
fn checkpointed_sweep_matches_from_boot_serial() {
    use apps::{ota_update, temp_app};

    let temp = |m: &mut Mcu| temp_app::build(m, &temp_app::TempAppCfg::default());
    let plan = SweepPlan::with_env_seed(7);
    let serial = sweep(&temp, KernelKind::EaseIo, &plan);
    for jobs in [1, 4] {
        let (pruned, timing) = run_sweep(&temp, KernelKind::EaseIo, &plan, &prune_on(jobs));
        assert_identical(&serial, &pruned);
        assert!(timing.prune.time_observed);
        assert_eq!(timing.rejoined, 0, "a time-observing run rejoined");
    }

    for kind in KernelKind::ALL {
        let ota = move |m: &mut Mcu| {
            ota_update::build(
                m,
                &ota_update::OtaUpdateCfg {
                    two_phase: kind.two_phase_update(),
                    ..Default::default()
                },
            )
            .0
        };
        let plan = SweepPlan {
            strict_memory: true,
            update_window: true,
            ..SweepPlan::with_env_seed(7)
        };
        let serial = sweep(&ota, kind, &plan);
        let (pruned, _) = run_sweep(&ota, kind, &plan, &prune_on(4));
        assert_identical(&serial, &pruned);
    }

    // A fault plan that aborts the reference run early: boundaries past
    // its last slice never fire, and their class takes the reference
    // run's own record instead of executing.
    let dma = |m: &mut Mcu| dma_app::build(m, &dma_app::DmaAppCfg::default());
    let plan = SweepPlan {
        strict_memory: true,
        fault: FaultSpec::with_rate(3, 800),
        ..SweepPlan::with_env_seed(7)
    };
    let serial = sweep(&dma, KernelKind::EaseIo, &plan);
    let (pruned, timing) = run_sweep(&dma, KernelKind::EaseIo, &plan, &prune_on(1));
    assert_identical(&serial, &pruned);
    assert!(
        timing.prune.injections_executed < timing.prune.classes,
        "the class past the reference run's end must not execute"
    );

    let fir_long = small_fir_long(KernelKind::EaseIo);
    let mut rejoined = Vec::new();
    for fault in [FaultSpec::none(), FaultSpec::with_rate(3, 60)] {
        let plan = SweepPlan {
            strict_memory: true,
            fault,
            ..SweepPlan::with_env_seed(7)
        };
        let serial = sweep(&fir_long, KernelKind::EaseIo, &plan);
        let (pruned, timing) = run_sweep(&fir_long, KernelKind::EaseIo, &plan, &prune_on(1));
        assert_identical(&serial, &pruned);
        rejoined.push((timing.rejoined, timing.prune.injections_executed));
    }
    let [(clean, _), (faulted, executed)] = rejoined[..] else {
        unreachable!("two plans")
    };
    assert!(clean > 0, "fir-long must rejoin without faults");
    assert!(
        faulted < clean && faulted < executed,
        "re-executed I/O under the fault plan must keep runs apart: {faulted} of {executed} rejoined"
    );
}
