//! Regional privatization (paper §4.4, Fig. 6).
//!
//! A task containing N DMA operations is split into N+1 regions at the DMA
//! sites. Within a region, the first access to each non-volatile variable
//! snapshots its region-entry value into a private FRAM slot (with a
//! per-variable `regionalPriveFlag`); when the task re-executes and control
//! re-enters a region, every snapshotted variable is restored from its slot.
//!
//! Why this works where task-level privatization fails: a `Single` DMA that
//! completed does not repeat on re-execution, so memory state legitimately
//! differs *across* the DMA boundary. Each region's snapshot captures the
//! state *including* the effects of all earlier (now-skipped) DMAs, so
//! restoring per-region reconstructs exactly the state the original
//! execution saw at that point — CPU effects rolled back, DMA effects kept.
//!
//! Snapshot-at-first-access equals snapshot-at-region-entry because only the
//! CPU mutates variables inside a region (DMA is a region *boundary*), and
//! each variable's snapshot flag is persisted before the access proceeds.

use kernel::TaskId;
use mcu_emu::{
    clone_map_from, AllocTag, Counter, EnergyCause, IntMap, Mcu, PowerFailure, RawVar, Region,
    WorkKind,
};

/// Regional privatization state.
///
/// Equality is logical: two states are equal when they hold the same slots
/// and, for every (task, region), the same snapshot list in the same order,
/// however the lists of different regions interleave.
#[derive(Debug, Default)]
pub struct Regional {
    /// Persistent snapshot slots, reused across activations.
    slots: IntMap<(TaskId, u16, RawVar), RawVar>,
    /// This activation's snapshots as (task, region, master, slot), in the
    /// order taken: the host mirror of the per-variable
    /// `regionalPriveFlag`s in FRAM. Commit clears a task's entries before
    /// the next task runs, so the list holds only the in-flight task's and
    /// stays short; a scan finds an entry faster than hashing its key.
    snaps: Vec<Snap>,
}

/// One live snapshot: (task, region, master, slot).
type Snap = (TaskId, u16, RawVar, RawVar);

impl Clone for Regional {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            snaps: self.snaps.clone(),
        }
    }

    /// Copies `source` into this state's buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self { slots, snaps } = self;
        clone_map_from(slots, &source.slots);
        snaps.clone_from(&source.snaps);
    }
}

impl Regional {
    /// Creates empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures `var` is snapshotted in `region` before an access proceeds.
    /// First touch copies the master into the private slot and sets the
    /// flag; later touches are free (the generated code's flag test is
    /// folded into the region-entry check).
    pub fn snap_before_access(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        region: u16,
        var: RawVar,
    ) -> Result<(), PowerFailure> {
        if self
            .snaps
            .iter()
            .any(|&(t, r, master, _)| (t, r, master) == (task, region, var))
        {
            return Ok(());
        }
        let slot = *self
            .slots
            .entry((task, region, var))
            .or_insert_with(|| RawVar {
                addr: mcu.mem.alloc(Region::Fram, var.width, AllocTag::Runtime),
                width: var.width,
            });
        // Copy master → private, then set the flag; both are runtime
        // overhead. The copy must complete before the flag is set so a
        // failure between them re-snapshots (the master is still clean:
        // the triggering access has not happened yet).
        mcu.with_cause(EnergyCause::DmaPriv, |m| {
            m.copy_var(WorkKind::Overhead, var, slot)
        })?;
        let c = mcu.cost.flag_write;
        mcu.with_cause(EnergyCause::DmaPriv, |m| m.spend(WorkKind::Overhead, c))?;
        self.snaps.push((task, region, var, slot));
        mcu.stats.bump(Counter::EaseioRegionalSnapshots);
        let (ts, e) = (mcu.now_us(), mcu.stats.total_energy_nj());
        mcu.trace.emit_with(|| {
            easeio_trace::Event::task_instant(
                ts,
                e,
                task.0,
                easeio_trace::InstantKind::Privatize,
                "region_snapshot",
            )
        });
        Ok(())
    }

    /// Called when control enters `region` (task entry for region 0, the
    /// instruction after each DMA otherwise): restores every variable the
    /// region snapshotted in an earlier attempt of this activation.
    pub fn enter_region(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        region: u16,
    ) -> Result<(), PowerFailure> {
        // The generated code tests the region's privatization flag once.
        let c = mcu.cost.flag_check;
        mcu.with_cause(EnergyCause::DmaPriv, |m| m.spend(WorkKind::Overhead, c))?;
        let (ts, e) = (mcu.now_us(), mcu.stats.total_energy_nj());
        mcu.trace.emit_with(|| {
            easeio_trace::Event::task_instant(
                ts,
                e,
                task.0,
                easeio_trace::InstantKind::RegionEnter,
                "region",
            )
        });
        // Restores are priced and applied one variable at a time; each
        // slot→master copy is idempotent, so a failure mid-restore simply
        // redoes the restore on the next attempt.
        for (master, slot) in self.region_snaps(task, region) {
            mcu.with_cause(EnergyCause::DmaPriv, |m| {
                m.copy_var(WorkKind::Overhead, slot, master)
            })?;
            mcu.stats.bump(Counter::EaseioRegionalRestores);
        }
        Ok(())
    }

    /// Region entry after a *diverged* re-execution: an upstream I/O
    /// produced a different output this attempt, so the region-entry state
    /// legitimately changed for every variable the new attempt has already
    /// rewritten. Restoring the old snapshot for those would reinstate
    /// values derived from the previous reading — mixing two executions'
    /// data (a gap in the paper's Fig 6 machinery, found by the
    /// differential model checker; see DESIGN.md §8). Per variable:
    ///
    /// * rewritten this attempt (by CPU or by a re-executed DMA) → the
    ///   master holds the fresh entry value: *refresh* the snapshot;
    /// * untouched this attempt → the master still holds the previous
    ///   attempt's in-region writes: *restore* it from the snapshot.
    pub fn reconcile_region(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        region: u16,
        fresh: &dyn Fn(RawVar) -> bool,
    ) -> Result<(), PowerFailure> {
        let c = mcu.cost.flag_check;
        mcu.with_cause(EnergyCause::DmaPriv, |m| m.spend(WorkKind::Overhead, c))?;
        let (ts, e) = (mcu.now_us(), mcu.stats.total_energy_nj());
        mcu.trace.emit_with(|| {
            easeio_trace::Event::task_instant(
                ts,
                e,
                task.0,
                easeio_trace::InstantKind::RegionReconcile,
                "region",
            )
        });
        for (master, slot) in self.region_snaps(task, region) {
            if fresh(master) {
                mcu.with_cause(EnergyCause::DmaPriv, |m| {
                    m.copy_var(WorkKind::Overhead, master, slot)
                })?;
                mcu.stats.bump(Counter::EaseioRegionalRefreshes);
            } else {
                mcu.with_cause(EnergyCause::DmaPriv, |m| {
                    m.copy_var(WorkKind::Overhead, slot, master)
                })?;
                mcu.stats.bump(Counter::EaseioRegionalRestores);
            }
        }
        Ok(())
    }

    /// Number of snapshots currently held for `task` (commit pricing).
    pub fn snapshot_count(&self, task: TaskId) -> u64 {
        self.snaps.iter().filter(|s| s.0 == task).count() as u64
    }

    /// Drops all of `task`'s snapshots at commit (caller has priced it).
    /// The list keeps its buffer.
    pub fn clear_task(&mut self, task: TaskId) {
        self.snaps.retain(|s| s.0 != task);
    }

    /// Total snapshot slots ever allocated (footprint reporting).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// `region`'s (master, slot) pairs for `task`, in the order taken.
    fn region_snaps(
        &self,
        task: TaskId,
        region: u16,
    ) -> impl Iterator<Item = (RawVar, RawVar)> + '_ {
        self.snaps
            .iter()
            .filter(move |s| (s.0, s.1) == (task, region))
            .map(|s| (s.2, s.3))
    }
}

impl PartialEq for Regional {
    fn eq(&self, other: &Self) -> bool {
        // Equal lengths plus every (task, region) list of `self` matching
        // `other`'s in order covers all of `other`'s entries too.
        self.slots == other.slots
            && self.snaps.len() == other.snaps.len()
            && self
                .snaps
                .iter()
                .all(|s| self.region_snaps(s.0, s.1).eq(other.region_snaps(s.0, s.1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::{NvVar, Scalar, Supply};

    fn mcu() -> Mcu {
        Mcu::new(Supply::continuous())
    }

    #[test]
    fn fig6_scenario_cpu_effects_rolled_back_dma_effects_kept() {
        // Reproduces the paper's Figure 6 flow:
        //   region 0: z = b0;   DMA(a0 → b0)  [Single, skipped on re-exec]
        //   region 1: t = b0;   a0 = z;
        // Power failure in region 1, then re-execution.
        let mut m = mcu();
        let mut r = Regional::new();
        let task = TaskId(0);
        let a0: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        let b0: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        a0.set(&mut m.mem, 100); // source of the DMA
        b0.set(&mut m.mem, 7); // original value the task must read

        // --- attempt 1 ---
        r.enter_region(&mut m, task, 0).unwrap();
        r.snap_before_access(&mut m, task, 0, b0.raw()).unwrap();
        let z = b0.get(&m.mem); // z = 7
                                // DMA executes: b0 ← a0 (region boundary).
        let a0_val = a0.get(&m.mem);
        b0.set(&mut m.mem, a0_val);
        r.enter_region(&mut m, task, 1).unwrap();
        r.snap_before_access(&mut m, task, 1, b0.raw()).unwrap();
        let _t = b0.get(&m.mem); // t = 100
        r.snap_before_access(&mut m, task, 1, a0.raw()).unwrap();
        a0.set(&mut m.mem, z); // a0 = 7  ← CPU write in region 1
                               // POWER FAILURE here (before commit).

        // --- attempt 2 (DMA skipped: Single) ---
        r.enter_region(&mut m, task, 0).unwrap();
        // Region-0 restore rolled b0 back to its pre-DMA value:
        assert_eq!(b0.get(&m.mem), 7, "region 0 must see the pre-DMA b0");
        r.snap_before_access(&mut m, task, 0, b0.raw()).unwrap();
        let z = b0.get(&m.mem);
        assert_eq!(z, 7);
        // DMA skipped. Enter region 1: restore brings back the post-DMA b0.
        r.enter_region(&mut m, task, 1).unwrap();
        assert_eq!(b0.get(&m.mem), 100, "region 1 must see the post-DMA b0");
        r.snap_before_access(&mut m, task, 1, b0.raw()).unwrap();
        let t = b0.get(&m.mem);
        r.snap_before_access(&mut m, task, 1, a0.raw()).unwrap();
        a0.set(&mut m.mem, z);
        // Final state identical to an uninterrupted run:
        assert_eq!((t, z, a0.get(&m.mem), b0.get(&m.mem)), (100, 7, 7, 100));
    }

    #[test]
    fn snapshot_taken_once_per_region_per_var() {
        let mut m = mcu();
        let mut r = Regional::new();
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        r.snap_before_access(&mut m, TaskId(0), 0, v.raw()).unwrap();
        r.snap_before_access(&mut m, TaskId(0), 0, v.raw()).unwrap();
        assert_eq!(m.stats.counter(Counter::EaseioRegionalSnapshots), 1);
        // Same var in a different region is a separate snapshot.
        r.snap_before_access(&mut m, TaskId(0), 1, v.raw()).unwrap();
        assert_eq!(m.stats.counter(Counter::EaseioRegionalSnapshots), 2);
        assert_eq!(r.snapshot_count(TaskId(0)), 2);
    }

    #[test]
    fn snapshot_captures_value_before_the_write() {
        let mut m = mcu();
        let mut r = Regional::new();
        let task = TaskId(0);
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        v.set(&mut m.mem, 5);
        // attempt 1: write 9 (snap first), then fail.
        r.snap_before_access(&mut m, task, 0, v.raw()).unwrap();
        v.set(&mut m.mem, 9);
        // attempt 2: restore yields the pre-write value.
        r.enter_region(&mut m, task, 0).unwrap();
        assert_eq!(v.get(&m.mem), 5);
    }

    #[test]
    fn commit_clears_but_reuses_slots() {
        let mut m = mcu();
        let mut r = Regional::new();
        let task = TaskId(0);
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        r.snap_before_access(&mut m, task, 0, v.raw()).unwrap();
        r.clear_task(task);
        assert_eq!(r.snapshot_count(task), 0);
        // New activation: snapshot again, no new slot allocated.
        r.snap_before_access(&mut m, task, 0, v.raw()).unwrap();
        assert_eq!(r.slot_count(), 1);
        // And the stale snapshot from the previous activation is gone:
        // restoring now uses the new snapshot value.
        v.set(&mut m.mem, 42);
        r.clear_task(task);
        r.snap_before_access(&mut m, task, 0, v.raw()).unwrap();
        v.set(&mut m.mem, 1);
        r.enter_region(&mut m, task, 0).unwrap();
        assert_eq!(v.get(&m.mem), 42);
    }

    #[test]
    fn emptied_snapshot_lists_equal_absent_ones() {
        let mut m = mcu();
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        let mut committed = Regional::new();
        committed
            .snap_before_access(&mut m, TaskId(1), 0, v.raw())
            .unwrap();
        committed.clear_task(TaskId(1));
        // Drop the emptied list's buffer: it carries no state, so equality
        // must not see whether it is kept.
        let mut absent = committed.clone();
        absent.snaps = Vec::new();
        assert_eq!(committed, absent);
        // A live entry still counts.
        absent
            .snap_before_access(&mut m, TaskId(1), 0, v.raw())
            .unwrap();
        assert_ne!(committed, absent);
        absent.clear_task(TaskId(1));
        assert_eq!(committed, absent);
    }

    #[test]
    fn equality_ignores_interleaving_across_regions_not_order_within_one() {
        let mut m = mcu();
        let task = TaskId(0);
        let u = NvVar::<i32>::alloc(&mut m.mem, Region::Fram).raw();
        let v = NvVar::<i32>::alloc(&mut m.mem, Region::Fram).raw();
        // Allocate every slot up front so all variants share them.
        let mut base = Regional::new();
        for region in 0..2 {
            for var in [u, v] {
                base.snap_before_access(&mut m, task, region, var).unwrap();
            }
        }
        base.clear_task(task);
        let mut snap_in = |order: &[(u16, RawVar)]| {
            let mut r = base.clone();
            for &(region, var) in order {
                r.snap_before_access(&mut m, task, region, var).unwrap();
            }
            r
        };
        let a = snap_in(&[(0, u), (0, v), (1, u), (1, v)]);
        let b = snap_in(&[(1, u), (0, u), (1, v), (0, v)]);
        assert_eq!(a, b, "the same per-region lists, interleaved differently");
        // Region 0 restores in a different order: a different state.
        let c = snap_in(&[(0, v), (0, u), (1, u), (1, v)]);
        assert_ne!(a, c);
        let d = snap_in(&[(0, u), (0, v), (1, u)]);
        assert_ne!(a, d);
        assert_ne!(d, a);
    }

    #[test]
    fn raw_value_write_uses_scalar_roundtrip() {
        // Guard against raw/typed mismatches in the test helpers themselves.
        let mut m = mcu();
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        v.raw().store(&mut m.mem, (-3i32).to_raw());
        assert_eq!(v.get(&m.mem), -3);
    }
}
