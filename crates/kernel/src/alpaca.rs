//! Alpaca baseline (Maeng, Colin, Lucia — OOPSLA '17).
//!
//! Alpaca makes tasks idempotent by privatizing task-shared variables with
//! write-after-read (WAR) dependencies: writes to a WAR variable are
//! redirected to a private copy, and the privates are committed to the
//! masters in an atomic two-phase commit when the task ends. A failed
//! attempt therefore never dirtied the masters and can simply re-execute.
//!
//! We detect WAR dynamically: a write to a variable this activation already
//! read is redirected (the compile-time analysis of the original system
//! would have privatized the same set for our workloads). Two properties of
//! the original are preserved exactly:
//!
//! * CPU-only WAR dependencies are safe;
//! * DMA transfers bypass privatization entirely and always re-execute — so
//!   DMA-induced WAR still corrupts memory, which is the paper's Figure 2b
//!   bug and the subject of its Figure 12 experiment.

use crate::error::{Fault, IoFailure};
use crate::io::{perform_dma, perform_io, IoOp};
use crate::runtime::{DmaOutcome, IoOutcome, Runtime};
use crate::semantics::{DmaAnnotation, ReexecSemantics, TaskId};
use mcu_emu::{
    clone_map_from, clone_set_from, Addr, AllocTag, Cost, Counter, IntMap, IntSet, Mcu,
    PowerFailure, RawVar, Region, WorkKind,
};
use periph::Peripherals;

/// The Alpaca runtime.
#[derive(Debug, Default, PartialEq)]
pub struct AlpacaRuntime {
    /// Variables read so far in the current activation.
    read_set: IntSet<RawVar>,
    /// WAR variables privatized in the current activation, in privatization
    /// order (the commit list).
    active: Vec<RawVar>,
    /// Redirection map for the current activation.
    redirect: IntMap<RawVar, RawVar>,
    /// Persistent private slots, reused across activations (the compiler
    /// allocates these statically).
    slots: IntMap<RawVar, RawVar>,
}

impl Clone for AlpacaRuntime {
    fn clone(&self) -> Self {
        Self {
            read_set: self.read_set.clone(),
            active: self.active.clone(),
            redirect: self.redirect.clone(),
            slots: self.slots.clone(),
        }
    }

    /// Copies `source` into this runtime's tables, keeping their buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            read_set,
            active,
            redirect,
            slots,
        } = self;
        clone_set_from(read_set, &source.read_set);
        active.clone_from(&source.active);
        clone_map_from(redirect, &source.redirect);
        clone_map_from(slots, &source.slots);
    }
}

impl AlpacaRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot_for(&mut self, mcu: &mut Mcu, var: RawVar) -> RawVar {
        *self.slots.entry(var).or_insert_with(|| RawVar {
            addr: mcu.mem.alloc(Region::Fram, var.width, AllocTag::Runtime),
            width: var.width,
        })
    }

    /// Number of private slots ever allocated (footprint reporting).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

impl Runtime for AlpacaRuntime {
    fn name(&self) -> &'static str {
        "Alpaca"
    }

    fn on_task_entry(
        &mut self,
        _mcu: &mut Mcu,
        _task: TaskId,
        _reexecution: bool,
    ) -> Result<(), PowerFailure> {
        // Masters were never dirtied by privatized writes, so re-execution
        // needs no restore — just a fresh activation state.
        self.read_set.clear();
        self.active.clear();
        self.redirect.clear();
        Ok(())
    }

    fn commit_cost(&self, mcu: &Mcu, _task: TaskId) -> Cost {
        // Two-phase commit: the whole commit is priced up front so it is
        // atomic with respect to power failures (the original finishes an
        // interrupted commit after reboot; pre-paying models the same
        // all-or-nothing outcome).
        let mut cost = Cost::ZERO;
        for var in &self.active {
            let w = var.words();
            cost += mcu.cost.fram_read_word.times(w); // read private
            cost += mcu.cost.fram_write_word.times(w); // write master
        }
        if !self.active.is_empty() {
            // Commit-list bookkeeping: pending flag set + cleared.
            cost += mcu.cost.flag_write.times(2);
        }
        cost
    }

    fn commit_apply(&mut self, mcu: &mut Mcu, _task: TaskId) {
        for var in self.active.drain(..) {
            let slot = self.redirect[&var];
            let raw = slot.load(&mcu.mem);
            var.store(&mut mcu.mem, raw);
            mcu.stats.bump(Counter::AlpacaCommitCopies);
        }
        self.read_set.clear();
        self.redirect.clear();
    }

    fn read_var(&mut self, mcu: &mut Mcu, _task: TaskId, var: RawVar) -> Result<u64, PowerFailure> {
        self.read_set.insert(var);
        let target = self.redirect.get(&var).copied().unwrap_or(var);
        mcu.load_var(WorkKind::App, target)
    }

    fn write_var(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        var: RawVar,
        raw: u64,
    ) -> Result<(), PowerFailure> {
        if let Some(slot) = self.redirect.get(&var).copied() {
            return mcu.store_var(WorkKind::App, slot, raw);
        }
        if self.read_set.contains(&var) {
            // WAR detected: privatize. Initialize the private from the
            // master (overhead), then apply the application's write to it.
            let slot = self.slot_for(mcu, var);
            mcu.with_cause(mcu_emu::EnergyCause::Commit, |m| {
                m.copy_var(WorkKind::Overhead, var, slot)
            })?;
            self.redirect.insert(var, slot);
            self.active.push(var);
            mcu.stats.bump(Counter::AlpacaPrivatizations);
            let (ts, e) = (mcu.now_us(), mcu.stats.total_energy_nj());
            mcu.trace.emit_with(|| {
                easeio_trace::Event::task_instant(
                    ts,
                    e,
                    task.0,
                    easeio_trace::InstantKind::Privatize,
                    "war_copy",
                )
            });
            return mcu.store_var(WorkKind::App, slot, raw);
        }
        mcu.store_var(WorkKind::App, var, raw)
    }

    fn io_call(
        &mut self,
        mcu: &mut Mcu,
        periph: &mut Peripherals,
        task: TaskId,
        site: u16,
        op: &IoOp,
        _sem: ReexecSemantics,
        _deps: &[u16],
    ) -> Result<IoOutcome, IoFailure> {
        // No I/O semantics: every call executes, every reboot repeats it.
        let value = perform_io(mcu, periph, op, task, site)?;
        Ok(IoOutcome {
            value,
            executed: true,
        })
    }

    fn io_block_begin(
        &mut self,
        _mcu: &mut Mcu,
        _task: TaskId,
        _block: u16,
        _sem: ReexecSemantics,
    ) -> Result<(), PowerFailure> {
        Ok(())
    }

    fn io_block_end(&mut self, _mcu: &mut Mcu, _task: TaskId) -> Result<(), PowerFailure> {
        Ok(())
    }

    fn dma_copy(
        &mut self,
        mcu: &mut Mcu,
        _task: TaskId,
        _site: u16,
        src: Addr,
        dst: Addr,
        bytes: u32,
        _annotation: DmaAnnotation,
        _related: &[u16],
    ) -> Result<DmaOutcome, Fault> {
        // DMA is invisible to Alpaca: straight to memory, repeated on every
        // re-execution, no privatization of the touched bytes.
        perform_dma(mcu, src, dst, bytes, WorkKind::App)?;
        Ok(DmaOutcome { executed: true })
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
    fn war_write_is_redirected_until_commit() {
        let mut m = mcu();
        let mut rt = AlpacaRuntime::new();
        let t = TaskId(0);
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        v.set(&mut m.mem, 10);
        rt.on_task_entry(&mut m, t, false).unwrap();
        let r = rt.read_var(&mut m, t, v.raw()).unwrap();
        assert_eq!(i32::from_raw(r), 10);
        rt.write_var(&mut m, t, v.raw(), 11i32.to_raw()).unwrap();
        // Master untouched until commit.
        assert_eq!(v.get(&m.mem), 10);
        // The redirected read sees the new value.
        let r = rt.read_var(&mut m, t, v.raw()).unwrap();
        assert_eq!(i32::from_raw(r), 11);
        rt.on_task_commit(&mut m, t).unwrap();
        assert_eq!(v.get(&m.mem), 11);
        assert_eq!(m.stats.counter(Counter::AlpacaPrivatizations), 1);
    }

    #[test]
    fn non_war_write_goes_direct() {
        let mut m = mcu();
        let mut rt = AlpacaRuntime::new();
        let t = TaskId(0);
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        rt.on_task_entry(&mut m, t, false).unwrap();
        rt.write_var(&mut m, t, v.raw(), 7i32.to_raw()).unwrap();
        assert_eq!(v.get(&m.mem), 7);
        assert_eq!(m.stats.counter(Counter::AlpacaPrivatizations), 0);
    }

    #[test]
    fn reexecution_discards_private_state() {
        let mut m = mcu();
        let mut rt = AlpacaRuntime::new();
        let t = TaskId(0);
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        v.set(&mut m.mem, 1);
        // Attempt 1: read, write (privatized), then "power failure".
        rt.on_task_entry(&mut m, t, false).unwrap();
        rt.read_var(&mut m, t, v.raw()).unwrap();
        rt.write_var(&mut m, t, v.raw(), 2i32.to_raw()).unwrap();
        // Attempt 2 re-enters; master is still 1 and the increment is
        // replayed from the original value: idempotent.
        rt.on_task_entry(&mut m, t, true).unwrap();
        let r = rt.read_var(&mut m, t, v.raw()).unwrap();
        assert_eq!(i32::from_raw(r), 1);
        rt.write_var(&mut m, t, v.raw(), 2i32.to_raw()).unwrap();
        rt.on_task_commit(&mut m, t).unwrap();
        assert_eq!(v.get(&m.mem), 2);
    }

    #[test]
    fn private_slots_are_reused_across_activations() {
        let mut m = mcu();
        let mut rt = AlpacaRuntime::new();
        let t = TaskId(0);
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        for round in 0..3 {
            rt.on_task_entry(&mut m, t, false).unwrap();
            rt.read_var(&mut m, t, v.raw()).unwrap();
            rt.write_var(&mut m, t, v.raw(), round.to_raw()).unwrap();
            rt.on_task_commit(&mut m, t).unwrap();
        }
        assert_eq!(rt.slot_count(), 1, "one variable, one slot");
    }

    #[test]
    fn dma_bypasses_privatization() {
        // The defining bug: DMA writes the master even when the variable was
        // read earlier in the task.
        let mut m = mcu();
        let mut rt = AlpacaRuntime::new();
        let t = TaskId(0);
        let src: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        let dst: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        src.set(&mut m.mem, 42);
        dst.set(&mut m.mem, 0);
        rt.on_task_entry(&mut m, t, false).unwrap();
        rt.read_var(&mut m, t, dst.raw()).unwrap(); // read before DMA write
        rt.dma_copy(
            &mut m,
            t,
            0,
            src.addr(),
            dst.addr(),
            4,
            DmaAnnotation::Auto,
            &[],
        )
        .unwrap();
        // Master mutated immediately despite the WAR pattern.
        assert_eq!(dst.get(&m.mem), 42);
    }
}
