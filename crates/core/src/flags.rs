//! Per-call-site control blocks: lock flag, timestamp, private output.
//!
//! The compiler front-end emits, for every `_call_IO` site, a non-volatile
//! lock flag named `lock_##fn##task##num`, a private copy of the returned
//! value, and — for `Timely` — a timestamp of the last execution (paper
//! §4.2, Fig. 5). This module is that generated state: one [`IoSlot`] per
//! (task, call-site) pair, allocated in FRAM and reused across activations.
//!
//! Every access is charged to the MCU at the point it would happen in the
//! generated code, so the overhead bars of the paper's figures emerge from
//! the same flag traffic the real system pays.

use kernel::TaskId;
use mcu_emu::{
    clone_map_from, AllocTag, Cost, Counter, EnergyCause, FlatSet, IntMap, Mcu, PowerFailure,
    RawVar, Region, WorkKind,
};

/// The FRAM control block of one `_call_IO` site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoSlot {
    /// Completion lock flag (`lock_##fn##task##num`).
    pub lock: RawVar,
    /// Private copy of the operation's returned value.
    pub out: RawVar,
    /// Timestamp of the last successful execution. Allocated lazily, the
    /// first time a `Timely` completion stores one: per paper §4.2 the
    /// compiler emits the timestamp word only for `Timely` sites, so
    /// `Single`/`Always` sites must not pay the 8 bytes of FRAM.
    pub ts: Option<RawVar>,
}

/// Table of control blocks, lazily allocated like the compiler's statics.
#[derive(Debug, Default, PartialEq)]
pub struct IoSlotTable {
    slots: IntMap<(TaskId, u16), IoSlot>,
    /// Sites whose lock was set during the current activation of each task.
    dirty: Vec<(TaskId, u16)>,
    /// Sites whose private output holds a value from the current activation
    /// (host mirror of an out-valid bit; used for divergence detection).
    recorded: FlatSet<(TaskId, u16)>,
}

impl Clone for IoSlotTable {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            dirty: self.dirty.clone(),
            recorded: self.recorded.clone(),
        }
    }

    /// Copies `source` into this table's buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            slots,
            dirty,
            recorded,
        } = self;
        clone_map_from(slots, &source.slots);
        dirty.clone_from(&source.dirty);
        recorded.clone_from(&source.recorded);
    }
}

impl IoSlotTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (allocating on first use) the slot for a call site. Only the
    /// lock and output words are allocated here; the timestamp word is
    /// allocated lazily when a `Timely` completion first needs it.
    pub fn ensure(&mut self, mcu: &mut Mcu, task: TaskId, site: u16) -> IoSlot {
        *self.slots.entry((task, site)).or_insert_with(|| {
            let alloc = |mcu: &mut Mcu, width: u32| RawVar {
                addr: mcu.mem.alloc(Region::Fram, width, AllocTag::Runtime),
                width,
            };
            IoSlot {
                lock: alloc(mcu, 1),
                out: alloc(mcu, 4),
                ts: None,
            }
        })
    }

    /// Returns (allocating on first use) the timestamp word of a site.
    fn ensure_ts(&mut self, mcu: &mut Mcu, task: TaskId, site: u16) -> RawVar {
        let slot = self
            .slots
            .get_mut(&(task, site))
            .expect("ensure_ts on a site without a slot");
        *slot.ts.get_or_insert_with(|| RawVar {
            addr: mcu.mem.alloc(Region::Fram, 8, AllocTag::Runtime),
            width: 8,
        })
    }

    /// Reads the lock flag, charging one flag check.
    pub fn lock_is_set(&self, mcu: &mut Mcu, slot: IoSlot) -> Result<bool, PowerFailure> {
        let c = mcu.cost.flag_check;
        mcu.with_cause(EnergyCause::Commit, |m| m.spend(WorkKind::Overhead, c))?;
        let set = slot.lock.load(&mcu.mem) != 0;
        let (ts, e) = (mcu.now_us(), mcu.stats.total_energy_nj());
        mcu.trace.emit_with(|| {
            easeio_trace::Event::instant(
                ts,
                e,
                easeio_trace::InstantKind::FlagCheck,
                if set { "set" } else { "clear" },
            )
        });
        Ok(set)
    }

    /// Restores the private output copy, charging the FRAM read.
    pub fn restore_out(&self, mcu: &mut Mcu, slot: IoSlot) -> Result<i32, PowerFailure> {
        let raw = mcu.with_cause(EnergyCause::Commit, |m| {
            m.load_var(WorkKind::Overhead, slot.out)
        })?;
        mcu.stats.bump(Counter::EaseioOutputsRestored);
        Ok(raw as u32 as i32)
    }

    /// Price of recording a completion: the private-output store, the
    /// optional timestamp store, and the lock-flag write. The runtime
    /// charges this *before* performing an externally visible operation so
    /// that no energy boundary can fall between the operation's effect and
    /// the lock store — the atomic I/O section the power-failure sweep
    /// demands (a failure in that window would re-perform a `Single` op).
    pub fn completion_cost(&self, mcu: &Mcu, slot: IoSlot, store_out: bool, with_ts: bool) -> Cost {
        let mut c = mcu.cost.flag_write;
        if store_out {
            c = c.plus(mcu.cost.fram_write_word.times(slot.out.words()));
        }
        if with_ts {
            // The timestamp word is 8 bytes whether or not it is allocated
            // yet (allocation itself is free address arithmetic).
            c = c.plus(mcu.cost.fram_write_word.times(4));
        }
        c
    }

    /// Records a completion whose cost was already charged via
    /// [`Self::completion_cost`]: raw stores only, so no power failure can
    /// interleave. The lock is still stored last — a caller that (wrongly)
    /// skipped the pre-charge degrades to the lock-last guarantee instead
    /// of atomicity.
    #[allow(clippy::too_many_arguments)]
    pub fn record_completion_prepaid(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        site: u16,
        slot: IoSlot,
        value: i32,
        store_out: bool,
        timestamp: Option<u64>,
    ) {
        if store_out {
            slot.out.store(&mut mcu.mem, value as u32 as u64);
        }
        if let Some(ts) = timestamp {
            let ts_var = self.ensure_ts(mcu, task, site);
            ts_var.store(&mut mcu.mem, ts);
        }
        slot.lock.store(&mut mcu.mem, 1);
        // A re-executed site (dep-forced, Timely expiry, Violated block) may
        // complete more than once per activation; its lock still clears in
        // one flag write at commit, so the dirty list must not double-count.
        if !self.dirty.contains(&(task, site)) {
            self.dirty.push((task, site));
        }
        if store_out {
            self.recorded.insert((task, site));
        }
    }

    /// Records a successful execution, charging as it goes: stores the
    /// private output, optionally the timestamp, and sets the lock *last*
    /// (completion flag strictly after the operation and its bookkeeping,
    /// paper §6). The runtime's I/O path instead pre-charges
    /// [`Self::completion_cost`] before the operation and calls
    /// [`Self::record_completion_prepaid`], closing the window entirely.
    #[allow(clippy::too_many_arguments)]
    pub fn record_completion(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        site: u16,
        slot: IoSlot,
        value: i32,
        store_out: bool,
        timestamp: Option<u64>,
    ) -> Result<(), PowerFailure> {
        if store_out {
            mcu.with_cause(EnergyCause::Commit, |m| {
                m.store_var(WorkKind::Overhead, slot.out, value as u32 as u64)
            })?;
        }
        if let Some(ts) = timestamp {
            let ts_var = self.ensure_ts(mcu, task, site);
            mcu.with_cause(EnergyCause::Commit, |m| {
                m.store_var(WorkKind::Overhead, ts_var, ts)
            })?;
        }
        let c = mcu.cost.flag_write;
        mcu.with_cause(EnergyCause::Commit, |m| m.spend(WorkKind::Overhead, c))?;
        self.record_completion_prepaid(mcu, task, site, slot, value, store_out, timestamp);
        Ok(())
    }

    /// Reads the recorded timestamp (charging the FRAM read). A site whose
    /// timestamp word was never written reads as 0 — maximally stale, so a
    /// `Timely` check conservatively re-executes.
    pub fn last_timestamp(&self, mcu: &mut Mcu, slot: IoSlot) -> Result<u64, PowerFailure> {
        match slot.ts {
            Some(ts) => mcu.with_cause(EnergyCause::Commit, |m| m.load_var(WorkKind::Overhead, ts)),
            None => Ok(0),
        }
    }

    /// Whether the site's private output holds a value from this activation.
    pub fn out_recorded(&self, task: TaskId, site: u16) -> bool {
        self.recorded.contains(&(task, site))
    }

    /// Loads the previously stored output for divergence comparison
    /// (charging the FRAM read).
    pub fn load_out(&self, mcu: &mut Mcu, slot: IoSlot) -> Result<i32, PowerFailure> {
        let raw = mcu.with_cause(EnergyCause::Commit, |m| {
            m.load_var(WorkKind::Overhead, slot.out)
        })?;
        Ok(raw as u32 as i32)
    }

    /// Stores the private output without lock semantics (for `Always` ops,
    /// whose re-execution is governed by the task model, not a lock) and
    /// marks it recorded.
    pub fn store_out(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        site: u16,
        slot: IoSlot,
        value: i32,
    ) -> Result<(), PowerFailure> {
        mcu.with_cause(EnergyCause::Commit, |m| {
            m.store_var(WorkKind::Overhead, slot.out, value as u32 as u64)
        })?;
        self.recorded.insert((task, site));
        Ok(())
    }

    /// Number of locks set in the current activations (commit pricing).
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Clears every lock set for `task`, without charging (the caller prices
    /// the whole commit atomically first).
    pub fn clear_task(&mut self, mcu: &mut Mcu, task: TaskId) -> u64 {
        self.recorded.retain(|(t, _)| *t != task);
        let mut cleared = 0;
        self.dirty.retain(|(t, s)| {
            if *t == task {
                if let Some(slot) = self.slots.get(&(*t, *s)) {
                    slot.lock.store(&mut mcu.mem, 0);
                }
                cleared += 1;
                false
            } else {
                true
            }
        });
        cleared
    }

    /// Dirty sites belonging to `task` (commit pricing).
    pub fn dirty_for(&self, task: TaskId) -> u64 {
        self.dirty.iter().filter(|(t, _)| *t == task).count() as u64
    }

    /// Distinct dirty sites belonging to `task`. Commit pricing must equal
    /// this (each lock clears in exactly one flag write); the crash sweep's
    /// pricing probe compares the two.
    pub fn distinct_dirty_for(&self, task: TaskId) -> u64 {
        distinct_for(&self.dirty, task)
    }

    /// Total slots allocated (footprint reporting).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

/// Distinct `(task, _)` entries of a dirty list, counted without
/// allocating: an entry counts where it first occurs. Dirty lists hold a
/// handful of sites, so the quadratic scan is cheaper than a set.
pub(crate) fn distinct_for(dirty: &[(TaskId, u16)], task: TaskId) -> u64 {
    dirty
        .iter()
        .enumerate()
        .filter(|&(i, e)| e.0 == task && !dirty[..i].contains(e))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::Supply;

    fn mcu() -> Mcu {
        Mcu::new(Supply::continuous())
    }

    #[test]
    fn slot_allocated_once_per_site() {
        let mut m = mcu();
        let mut t = IoSlotTable::new();
        let a = t.ensure(&mut m, TaskId(0), 0);
        let b = t.ensure(&mut m, TaskId(0), 0);
        let c = t.ensure(&mut m, TaskId(0), 1);
        assert_eq!(a.lock.addr, b.lock.addr);
        assert_ne!(a.lock.addr, c.lock.addr);
        assert_eq!(t.slot_count(), 2);
    }

    #[test]
    fn recorded_outputs_compare_as_a_set() {
        let mut m = mcu();
        let task = TaskId(0);
        let mut base = IoSlotTable::new();
        let s0 = base.ensure(&mut m, task, 0);
        let s1 = base.ensure(&mut m, task, 1);
        let mut a = base.clone();
        a.store_out(&mut m, task, 0, s0, 5).unwrap();
        a.store_out(&mut m, task, 1, s1, 6).unwrap();
        let mut b = base.clone();
        b.store_out(&mut m, task, 1, s1, 6).unwrap();
        b.store_out(&mut m, task, 0, s0, 5).unwrap();
        assert_eq!(a, b, "recording order must not matter");
        b.clear_task(&mut m, task);
        assert_ne!(a, b);
    }

    #[test]
    fn lock_lifecycle() {
        let mut m = mcu();
        let mut t = IoSlotTable::new();
        let task = TaskId(3);
        let slot = t.ensure(&mut m, task, 0);
        assert!(!t.lock_is_set(&mut m, slot).unwrap());
        t.record_completion(&mut m, task, 0, slot, -7, true, Some(123))
            .unwrap();
        // Re-fetch: recording the timestamp lazily allocated the ts word.
        let slot = t.ensure(&mut m, task, 0);
        assert!(t.lock_is_set(&mut m, slot).unwrap());
        assert_eq!(t.restore_out(&mut m, slot).unwrap(), -7);
        assert_eq!(t.last_timestamp(&mut m, slot).unwrap(), 123);
        // Commit clears the lock but keeps the slot for reuse.
        assert_eq!(t.clear_task(&mut m, task), 1);
        assert!(!t.lock_is_set(&mut m, slot).unwrap());
        assert_eq!(t.dirty_for(task), 0);
    }

    #[test]
    fn clear_task_leaves_other_tasks_alone() {
        let mut m = mcu();
        let mut t = IoSlotTable::new();
        let s0 = t.ensure(&mut m, TaskId(0), 0);
        let s1 = t.ensure(&mut m, TaskId(1), 0);
        t.record_completion(&mut m, TaskId(0), 0, s0, 1, true, None)
            .unwrap();
        t.record_completion(&mut m, TaskId(1), 0, s1, 2, true, None)
            .unwrap();
        t.clear_task(&mut m, TaskId(0));
        assert!(!t.lock_is_set(&mut m, s0).unwrap());
        assert!(t.lock_is_set(&mut m, s1).unwrap());
    }

    #[test]
    fn reexecuted_site_is_not_double_counted_in_dirty_list() {
        // A dep-forced or Timely-expired site completes twice in one
        // activation; commit pricing must still count one flag clear.
        let mut m = mcu();
        let mut t = IoSlotTable::new();
        let task = TaskId(0);
        let slot = t.ensure(&mut m, task, 0);
        t.record_completion(&mut m, task, 0, slot, 1, true, None)
            .unwrap();
        t.record_completion(&mut m, task, 0, slot, 2, true, None)
            .unwrap();
        assert_eq!(t.dirty_for(task), 1, "one site, one commit flag write");
        assert_eq!(t.dirty_count(), 1);
        assert_eq!(t.clear_task(&mut m, task), 1);
    }

    #[test]
    fn distinct_count_ignores_repeats_and_other_tasks() {
        let (a, b) = (TaskId(0), TaskId(1));
        let dirty = [(a, 0), (b, 0), (a, 1), (a, 0), (b, 0), (a, 1), (a, 2)];
        assert_eq!(distinct_for(&dirty, a), 3);
        assert_eq!(distinct_for(&dirty, b), 1);
        assert_eq!(distinct_for(&dirty, TaskId(2)), 0);
    }

    #[test]
    fn non_timely_sites_allocate_no_timestamp_word() {
        // Paper §4.2: only Timely sites carry the 8-byte timestamp. A
        // Single site's control block is lock (1 B) + out (4 B) only.
        let mut m = mcu();
        let mut t = IoSlotTable::new();
        let task = TaskId(0);
        let slot = t.ensure(&mut m, task, 0);
        t.record_completion(&mut m, task, 0, slot, 5, true, None)
            .unwrap();
        let single_only = m.mem.allocated_tagged(Region::Fram, AllocTag::Runtime);
        assert_eq!(single_only, 5, "Single site: 1 B lock + 4 B out");
        assert_eq!(t.last_timestamp(&mut m, slot).unwrap(), 0, "no ts → stale");
        // A Timely completion on another site allocates its ts lazily.
        let s2 = t.ensure(&mut m, task, 1);
        t.record_completion(&mut m, task, 1, s2, 5, true, Some(9))
            .unwrap();
        let with_timely = m.mem.allocated_tagged(Region::Fram, AllocTag::Runtime);
        assert_eq!(with_timely, single_only + 5 + 8);
        let s2 = t.ensure(&mut m, task, 1);
        assert_eq!(t.last_timestamp(&mut m, s2).unwrap(), 9);
    }

    #[test]
    fn negative_outputs_roundtrip() {
        let mut m = mcu();
        let mut t = IoSlotTable::new();
        let slot = t.ensure(&mut m, TaskId(0), 0);
        t.record_completion(&mut m, TaskId(0), 0, slot, i32::MIN, true, None)
            .unwrap();
        assert_eq!(t.restore_out(&mut m, slot).unwrap(), i32::MIN);
    }

    #[test]
    fn flag_traffic_is_charged_as_overhead() {
        let mut m = mcu();
        let mut t = IoSlotTable::new();
        let slot = t.ensure(&mut m, TaskId(0), 0);
        let before = m.stats.overhead_energy_nj;
        t.lock_is_set(&mut m, slot).unwrap();
        t.record_completion(&mut m, TaskId(0), 0, slot, 0, true, Some(1))
            .unwrap();
        assert!(m.stats.overhead_energy_nj > before);
        assert_eq!(m.stats.app_energy_nj, 0);
    }
}
