//! Nanosecond-scale primitives, each timed as one span over a loop of
//! identical calls: a span per call would cost as much as the call.

use crate::spans::Recorder;
use easeio_core::flags::IoSlotTable;
use easeio_core::regional::Regional;
use easeio_fleet::{DeviceResult, FleetAgg};
use kernel::TaskId;
use mcu_emu::{AllocTag, Mcu, NvVar, Region, Supply};
use periph::MediumSpec;
use std::hint::black_box;

const CALLS: u64 = 20_000;
const RECORD_LINE_CALLS: u64 = 2_000;

/// Times the runtime, peripheral and fleet primitives. `medium` is the
/// workload's radio medium; `samples` are device results from the
/// workload's own fleet (or its fleet probe).
pub fn run(rec: &mut Recorder, medium: &MediumSpec, samples: &[DeviceResult]) {
    let root = rec.begin("perfbench.micro");

    let mut mcu = Mcu::new(Supply::continuous());
    let mut table = IoSlotTable::new();
    let slot = table.ensure(&mut mcu, TaskId(0), 0);
    table
        .record_completion(&mut mcu, TaskId(0), 0, slot, 99, true, None)
        .expect("continuous power never fails");
    rec.repeat("core.flag_check", CALLS, |_| {
        let locked = table.lock_is_set(&mut mcu, slot).expect("continuous power");
        let v = table.restore_out(&mut mcu, slot).expect("continuous power");
        black_box((locked, v));
    });

    let var: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
    let mut regional = Regional::new();
    rec.repeat("core.regional_snap", CALLS, |_| {
        // Clearing after each snapshot keeps every call on the first-touch
        // path while reusing the persistent slot.
        regional
            .snap_before_access(&mut mcu, TaskId(0), 0, var.raw())
            .expect("continuous power");
        regional.clear_task(TaskId(0));
        black_box(regional.slot_count());
    });

    let src = mcu.mem.alloc(Region::Fram, 1024, AllocTag::App);
    let dst = mcu.mem.alloc(Region::Fram, 1024, AllocTag::App);
    rec.repeat("periph.dma_transfer", CALLS, |_| {
        periph::dma::transfer(&mut mcu.mem, src, dst, 1024);
        black_box(mcu.mem.read_bytes(dst, 4)[0]);
    });

    rec.repeat("periph.downlink_drops", CALLS, |i| {
        black_box(medium.downlink_drops(
            black_box((i / 64) as u32),
            ((i / 4) % 16) as u32,
            (i % 4) as u32,
        ));
    });

    if !samples.is_empty() {
        let n = samples.len() as u64;
        let mut agg = FleetAgg::new();
        rec.repeat("fleet.agg_observe", CALLS, |i| {
            agg.observe(&samples[(i % n) as usize]);
        });
        black_box(agg.devices());
        rec.repeat("fleet.record_line", RECORD_LINE_CALLS, |i| {
            black_box(samples[(i % n) as usize].record_line());
        });
    }
    rec.end(root);
}
