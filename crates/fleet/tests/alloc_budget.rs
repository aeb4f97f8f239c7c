//! Heap-allocation budget of one simulated device run.
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread. A streamed `flaky-radio` EaseIO fleet runs at `jobs: 1`, so
//! the pool runs inline on this thread, once at 64 and once at 192 devices;
//! the difference divided by the 128 extra devices is what one more device
//! costs, with everything a fleet builds once cancelled out. Each device
//! resets the worker's runtime and peripherals to the template's boot state
//! in place (DESIGN.md §21); what it still allocates is its packets'
//! payloads, a fresh supply and activation tracker, and what travels out:
//! its radio log, its stats and its record line. Nothing else may allocate
//! per device, per task attempt or per spend (DESIGN.md §19).

mod counting;

use counting::{allocations, Counting};
use easeio_exec::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec};
use easeio_fleet::run_fleet_streamed;
use easeio_trace::stream::JsonlWriter;
use kernel::{FaultSpec, KernelKind};
use mcu_emu::{Cost, Counter, Mcu, RunStats, Supply, WorkKind};
use periph::MediumSpec;

/// Most heap allocations one more device may add to a streamed fleet.
const PER_DEVICE_BUDGET: u64 = 14;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn spec(count: u32) -> ScenarioSpec {
    ScenarioSpec {
        device: DeviceSpec {
            app: AppSpec::Named("flaky-radio".into()),
            kernel: KernelKind::EaseIo,
            fault: FaultSpec::with_rate(42, 50),
        },
        count,
        supply: SupplySpec::Timer,
        medium: MediumSpec::lossy(1, 100),
        seed: 42,
        jobs: 1,
        ..ScenarioSpec::default()
    }
}

/// Allocations of one streamed fleet of `count` devices.
fn fleet_allocations(count: u32) -> u64 {
    let dir = std::env::temp_dir().join("easeio-fleet-alloc-budget");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir
        .join(format!("{count}-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let spec = spec(count);
    let mut out = JsonlWriter::create(&path).unwrap();
    let (n, fleet) = allocations(|| run_fleet_streamed(&spec, &mut out, None).unwrap());
    drop(out);
    let _ = std::fs::remove_file(&path);
    assert_eq!(fleet.agg.devices(), u64::from(count));
    assert_eq!(fleet.gateway.air_duplicates, 0);
    n
}

#[test]
fn one_more_device_stays_within_the_allocation_budget() {
    // Warm the process-wide one-time allocations (stdio, temp dir).
    fleet_allocations(8);
    let small = fleet_allocations(64);
    let large = fleet_allocations(192);
    let per_device = large.saturating_sub(small) / 128;
    assert!(
        per_device <= PER_DEVICE_BUDGET,
        "{per_device} allocations per device ({small} at 64 devices, {large} at 192); \
         budget {PER_DEVICE_BUDGET}"
    );
}

#[test]
fn counter_bumps_and_an_unrecorded_spend_allocate_nothing() {
    let mut stats = RunStats::new();
    let (n, ()) = allocations(|| {
        for _ in 0..100 {
            stats.bump(Counter::IoRetries);
        }
    });
    assert_eq!(n, 0, "RunStats::bump allocated");
    assert_eq!(stats.counter(Counter::IoRetries), 100);

    let mut mcu = Mcu::new(Supply::continuous());
    let (n, r) =
        allocations(|| (0..100).try_for_each(|_| mcu.spend(WorkKind::App, Cost::new(10, 10))));
    assert_eq!(r, Ok(()));
    assert_eq!(n, 0, "a one-slice spend allocated");
    assert_eq!(mcu.stats.boundaries, 100);
}

#[test]
fn restoring_a_snapshot_or_checkpoint_keeps_the_ledger_buffers() {
    let mut mcu = Mcu::new(Supply::continuous());
    mcu.set_attr_task(3);
    mcu.spend(WorkKind::App, Cost::new(10, 10)).unwrap();
    let snap = mcu.snapshot();
    mcu.set_attr_task(5);
    mcu.spend(WorkKind::App, Cost::new(10, 10)).unwrap();
    let cp = mcu.checkpoint(&snap);
    // Both restores copy per-task rows no longer than the ones held.
    let (n, ()) = allocations(|| {
        for _ in 0..10 {
            mcu.restore(&snap);
            mcu.restore_checkpoint(&snap, &cp);
        }
    });
    assert_eq!(n, 0, "a restore reallocated the ledger");
    assert_eq!(mcu.stats, cp.stats);
}
