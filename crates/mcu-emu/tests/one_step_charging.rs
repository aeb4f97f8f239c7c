//! Property test for one-step charging: a multi-slice spend the supply
//! cannot interrupt is charged at once instead of slice by slice. A machine
//! with the boundary recorder on always takes the slice loop, so running
//! the same spend sequence on a recorded and an unrecorded machine must end
//! with the same clock, ledgers, per-task rows, supply state and failure
//! positions — under continuous power, a timer resetting inside long
//! spends, and an injected failure at every boundary. Single-slice spends
//! (zero-time ones included) take the same one-step path, so their edges
//! are pinned too.

use mcu_emu::{
    Cost, EnergyCause, Mcu, McuSnapshot, PowerFailure, Supply, TimerResetConfig, WorkKind,
};
use proptest::prelude::*;

/// One `spend_as` call.
#[derive(Debug, Clone)]
struct Op {
    kind: WorkKind,
    cause: EnergyCause,
    task: u16,
    cost: Cost,
}

/// Spend lengths around the 1 ms slice: none, exact multiples, one past a
/// multiple, and sub-slice.
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        (1u64..6).prop_map(|k| k * 1_000),
        (1u64..6).prop_map(|k| k * 1_000 + 1),
        1u64..1_000,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        any::<bool>(),
        0usize..EnergyCause::ALL.len(),
        prop_oneof![0u16..4, Just(mcu_emu::KERNEL_TASK)],
        time_strategy(),
        0u64..50_000,
    )
        .prop_map(|(app, cause, task, time_us, energy_nj)| Op {
            kind: if app {
                WorkKind::App
            } else {
                WorkKind::Overhead
            },
            cause: EnergyCause::ALL[cause],
            task,
            cost: Cost::new(time_us, energy_nj),
        })
}

/// Everything one run leaves behind, as comparable text plus the indices
/// of the spends that returned `Err(PowerFailure)`.
fn run(
    mcu: &mut Mcu,
    snap: &McuSnapshot,
    supply: Supply,
    recorded: bool,
    ops: &[Op],
) -> (String, Vec<usize>) {
    mcu.restore(snap);
    mcu.supply = supply;
    if recorded {
        mcu.record_boundaries(&[]);
    }
    let failures = ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| {
            mcu.set_attr_task(op.task);
            (mcu.spend_as(op.kind, op.cause, op.cost) == Err(PowerFailure)).then_some(i)
        })
        .collect();
    if recorded {
        mcu.take_boundary_recording();
    }
    let state = format!("{:?}\n{:?}\n{:?}", mcu.clock, mcu.stats, mcu.supply);
    (state, failures)
}

/// Runs `ops` under `supply` on both machines and asserts identical ends.
fn assert_same(
    looped: &mut Mcu,
    direct: &mut Mcu,
    snap: &McuSnapshot,
    supply: &Supply,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let a = run(looped, snap, supply.clone(), true, ops);
    let b = run(direct, snap, supply.clone(), false, ops);
    prop_assert_eq!(a, b, "supply {:?}", supply);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_step_charging_matches_the_slice_loop(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        seed in any::<u64>(),
    ) {
        let mut looped = Mcu::new(Supply::continuous());
        let snap = looped.snapshot();
        let mut direct = Mcu::new(Supply::continuous());
        direct.restore(&snap);

        assert_same(&mut looped, &mut direct, &snap, &Supply::continuous(), &ops)?;

        // On-periods of 0.5–3 ms put resets inside multi-slice spends.
        let short = TimerResetConfig {
            on_min_us: 500,
            on_max_us: 3_000,
            off_min_us: 100,
            off_max_us: 400,
        };
        assert_same(&mut looped, &mut direct, &snap, &Supply::timer(short, seed), &ops)?;
        // A fixed 2 ms on-period makes a spend end exactly at the reset.
        let exact = TimerResetConfig {
            on_min_us: 2_000,
            on_max_us: 2_000,
            off_min_us: 100,
            off_max_us: 100,
        };
        assert_same(&mut looped, &mut direct, &snap, &Supply::timer(exact, seed), &ops)?;

        // An injection at every boundary, and one past the last.
        run(&mut looped, &snap, Supply::continuous(), true, &ops);
        let boundaries = looped.stats.boundaries;
        for fail_at in 0..=boundaries {
            let supply = Supply::injected(fail_at, 1_000 + fail_at);
            assert_same(&mut looped, &mut direct, &snap, &supply, &ops)?;
        }
    }
}

/// Runs `ops` recorded and unrecorded from a fresh machine under `supply`;
/// asserts identical ends and returns the failing spends' indices.
fn both_ways(supply: Supply, ops: &[Op]) -> Vec<usize> {
    let mut looped = Mcu::new(Supply::continuous());
    let snap = looped.snapshot();
    let mut direct = Mcu::new(Supply::continuous());
    let a = run(&mut looped, &snap, supply.clone(), true, ops);
    let b = run(&mut direct, &snap, supply, false, ops);
    assert_eq!(a, b);
    a.1
}

fn app(time_us: u64, energy_nj: u64) -> Op {
    Op {
        kind: WorkKind::App,
        cause: EnergyCause::Progress,
        task: 0,
        cost: Cost::new(time_us, energy_nj),
    }
}

#[test]
fn single_slice_spend_ending_exactly_at_a_timer_reset_fails() {
    // A fixed 500 µs on-period: the second spend's end is the reset.
    let cfg = TimerResetConfig {
        on_min_us: 500,
        on_max_us: 500,
        off_min_us: 50,
        off_max_us: 50,
    };
    let ops = [app(300, 30), app(200, 20), app(100, 10)];
    assert_eq!(both_ways(Supply::timer(cfg.clone(), 11), &ops), vec![1]);
    // One microsecond shorter ends inside the on-period, and a zero-time
    // spend still fits in the microsecond left.
    let ops = [app(300, 30), app(199, 20), app(0, 0)];
    assert_eq!(both_ways(Supply::timer(cfg, 11), &ops), vec![]);
}

#[test]
fn zero_time_spend_crosses_one_injectable_boundary() {
    let ops = [app(100, 10), app(0, 0), app(100, 10)];
    // Boundaries 0, 1, 2: one per spend, the zero-time spend included.
    assert_eq!(both_ways(Supply::injected(1, 700), &ops), vec![1]);
    assert_eq!(both_ways(Supply::injected(2, 700), &ops), vec![2]);
    assert_eq!(both_ways(Supply::injected(3, 700), &ops), vec![]);
}
