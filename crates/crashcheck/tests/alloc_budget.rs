//! Heap-allocation budget of one resumed injection on a warm sweep worker.
//!
//! The counting allocator of `crates/fleet/tests/alloc_budget.rs` tallies
//! the allocations made on this thread. A worker's [`HeldRun`] is warmed on
//! every boundary of the reference run, then the measured boundary runs
//! once more. The runtime, peripherals, executor state and rejoin ledger
//! are reset in place from the checkpoint (DESIGN.md §21), so a warm
//! injection allocates only what its simulated work does (LEA operands,
//! radio payloads) and the record it hands back.

#[path = "../../fleet/tests/counting/mod.rs"]
mod counting;

use apps::{fir, motion};
use counting::{allocations, Counting};
use crashcheck::{prepare_oracle, reference_run, HeldRun};
use kernel::{App, FaultSpec, KernelKind};
use mcu_emu::{Mcu, Supply};

#[global_allocator]
static GLOBAL: Counting = Counting;

const ENV_SEED: u64 = 7;
const OFF_US: u64 = 100_000;

/// `(boundary, allocations, rejoined)` of the EaseIO injection at the
/// boundary `pick` chooses from the rejoin flag of every boundary,
/// measured on a worker warmed on every boundary first.
fn warm_injection(
    build: &dyn Fn(&mut Mcu) -> App,
    pick: impl Fn(&[bool]) -> u64,
) -> (u64, u64, bool) {
    let kind = KernelKind::EaseIo;
    let oracle = prepare_oracle(build, kind, ENV_SEED);
    let mut mcu = Mcu::new(Supply::continuous());
    let app = build(&mut mcu);
    let reference = reference_run(
        &app,
        kind,
        &mut mcu,
        &oracle.snapshot,
        ENV_SEED,
        &FaultSpec::none(),
    );
    let mut held = HeldRun::default();
    let rejoined: Vec<bool> = (0..reference.trace.slices.len() as u64)
        .map(|b| {
            let (_, work) = reference.run_injected(&app, &mut mcu, &mut held, b, OFF_US);
            work.rejoined
        })
        .collect();
    let b = pick(&rejoined);
    let (n, (_, work)) =
        allocations(|| reference.run_injected(&app, &mut mcu, &mut held, b, OFF_US));
    (b, n, work.rejoined)
}

#[test]
fn a_warm_rejoining_injection_allocates_nothing() {
    let build = |m: &mut Mcu| fir::build(m, &fir::FirCfg::default());
    let first_rejoin = |rejoined: &[bool]| rejoined.iter().position(|&r| r).unwrap() as u64;
    let (b, n, rejoined) = warm_injection(&build, first_rejoin);
    assert!(rejoined);
    // Debug builds run a rejoined injection to its end and compare: the
    // rest of the run's LEA operands and its record.
    let budget = if cfg!(debug_assertions) { 18 } else { 0 };
    assert!(
        n <= budget,
        "fir boundary {b}: {n} allocations; budget {budget}"
    );
}

#[test]
fn a_warm_injection_run_to_its_end_allocates_only_its_record() {
    let build = |m: &mut Mcu| motion::build(m, &motion::MotionCfg::default()).0;
    let last = |rejoined: &[bool]| rejoined.len() as u64 - 1;
    let (b, n, rejoined) = warm_injection(&build, last);
    assert!(!rejoined, "motion observes time and never rejoins");
    // The record's ledger: its per-task rows. The final image equals the
    // reference's and is shared.
    assert!(n <= 1, "motion boundary {b}: {n} allocations; budget 1");
}
