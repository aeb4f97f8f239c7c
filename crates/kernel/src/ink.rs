//! InK baseline (Yildirim et al. — SenSys '18).
//!
//! InK is a reactive task-based kernel that keeps each task's shared state
//! in double-buffered non-volatile memory: the task works on a working copy
//! of every task-shared variable it touches and the kernel publishes the
//! working copies when the task commits. Compared to Alpaca it buffers
//! *all* accessed variables, not only the WAR ones — which is why the
//! paper's Table 6 shows InK with the largest FRAM footprint and a heavier
//! commit.
//!
//! Like Alpaca, InK has no I/O semantics and no DMA interception: both
//! re-execute wholesale after every power failure.

use crate::error::{Fault, IoFailure};
use crate::io::{perform_dma, perform_io, IoOp};
use crate::runtime::{DmaOutcome, IoOutcome, Runtime};
use crate::semantics::{DmaAnnotation, ReexecSemantics, TaskId};
use mcu_emu::{
    clone_map_from, Addr, AllocTag, Cost, Counter, IntMap, Mcu, PowerFailure, RawVar, Region,
    WorkKind,
};
use periph::Peripherals;

/// The InK runtime.
#[derive(Debug, Default, PartialEq)]
pub struct InkRuntime {
    /// Working-copy redirection for the current activation, in first-touch
    /// order (the commit list).
    active: Vec<RawVar>,
    redirect: IntMap<RawVar, RawVar>,
    /// Persistent working-copy slots (the second halves of the double
    /// buffers), reused across activations.
    slots: IntMap<RawVar, RawVar>,
}

impl Clone for InkRuntime {
    fn clone(&self) -> Self {
        Self {
            active: self.active.clone(),
            redirect: self.redirect.clone(),
            slots: self.slots.clone(),
        }
    }

    /// Copies `source` into this runtime's tables, keeping their buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            active,
            redirect,
            slots,
        } = self;
        active.clone_from(&source.active);
        clone_map_from(redirect, &source.redirect);
        clone_map_from(slots, &source.slots);
    }
}

impl InkRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        Self::default()
    }

    fn working_copy(&mut self, mcu: &mut Mcu, var: RawVar) -> Result<RawVar, PowerFailure> {
        if let Some(slot) = self.redirect.get(&var) {
            return Ok(*slot);
        }
        let slot = *self.slots.entry(var).or_insert_with(|| RawVar {
            addr: mcu.mem.alloc(Region::Fram, var.width, AllocTag::Runtime),
            width: var.width,
        });
        // First touch this activation: initialize the working copy from the
        // committed buffer (kernel overhead, priced as privatization).
        mcu.with_cause(mcu_emu::EnergyCause::Commit, |m| {
            m.copy_var(WorkKind::Overhead, var, slot)
        })?;
        self.redirect.insert(var, slot);
        self.active.push(var);
        mcu.stats.bump(Counter::InkBufferedVars);
        let (ts, e) = (mcu.now_us(), mcu.stats.total_energy_nj());
        mcu.trace.emit_with(|| {
            easeio_trace::Event::instant(
                ts,
                e,
                easeio_trace::InstantKind::Privatize,
                "double_buffer",
            )
        });
        Ok(slot)
    }

    /// Number of working-copy slots ever allocated (footprint reporting).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

impl Runtime for InkRuntime {
    fn name(&self) -> &'static str {
        "InK"
    }

    fn on_task_entry(
        &mut self,
        _mcu: &mut Mcu,
        _task: TaskId,
        _reexecution: bool,
    ) -> Result<(), PowerFailure> {
        // Committed buffers were never dirtied; a fresh activation simply
        // re-initializes working copies on first touch.
        self.active.clear();
        self.redirect.clear();
        Ok(())
    }

    fn commit_cost(&self, mcu: &Mcu, _task: TaskId) -> Cost {
        // Publish every working copy. Priced up front so the commit is
        // atomic (the real kernel swaps buffer indices under a commit flag
        // and finishes interrupted commits on reboot).
        let mut cost = Cost::ZERO;
        for var in &self.active {
            let w = var.words();
            cost += mcu.cost.fram_read_word.times(w);
            cost += mcu.cost.fram_write_word.times(w);
        }
        // Kernel scheduler bookkeeping per commit.
        cost + mcu.cost.flag_write.times(2)
    }

    fn commit_apply(&mut self, mcu: &mut Mcu, _task: TaskId) {
        for var in self.active.drain(..) {
            let slot = self.redirect[&var];
            let raw = slot.load(&mcu.mem);
            var.store(&mut mcu.mem, raw);
            mcu.stats.bump(Counter::InkCommitCopies);
        }
        self.redirect.clear();
    }

    fn read_var(&mut self, mcu: &mut Mcu, _task: TaskId, var: RawVar) -> Result<u64, PowerFailure> {
        let slot = self.working_copy(mcu, var)?;
        mcu.load_var(WorkKind::App, slot)
    }

    fn write_var(
        &mut self,
        mcu: &mut Mcu,
        _task: TaskId,
        var: RawVar,
        raw: u64,
    ) -> Result<(), PowerFailure> {
        let slot = self.working_copy(mcu, var)?;
        mcu.store_var(WorkKind::App, slot, raw)
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
        // DMA bypasses the double buffers entirely — and worse, it writes
        // the *committed* buffer, so a re-executed DMA clobbers state the
        // kernel believes is stable.
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
    fn all_accessed_vars_are_buffered() {
        let mut m = mcu();
        let mut rt = InkRuntime::new();
        let t = TaskId(0);
        let a: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        let b: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        a.set(&mut m.mem, 1);
        rt.on_task_entry(&mut m, t, false).unwrap();
        // A read-only variable still gets a working copy (unlike Alpaca).
        rt.read_var(&mut m, t, a.raw()).unwrap();
        rt.write_var(&mut m, t, b.raw(), 9i32.to_raw()).unwrap();
        assert_eq!(m.stats.counter(Counter::InkBufferedVars), 2);
        // Committed buffer of b untouched until commit.
        assert_eq!(b.get(&m.mem), 0);
        rt.on_task_commit(&mut m, t).unwrap();
        assert_eq!(b.get(&m.mem), 9);
        assert_eq!(m.stats.counter(Counter::InkCommitCopies), 2);
    }

    #[test]
    fn failed_attempt_leaves_committed_state_clean() {
        let mut m = mcu();
        let mut rt = InkRuntime::new();
        let t = TaskId(0);
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        v.set(&mut m.mem, 5);
        rt.on_task_entry(&mut m, t, false).unwrap();
        rt.write_var(&mut m, t, v.raw(), 6i32.to_raw()).unwrap();
        // Power failure: no commit. Master unchanged.
        assert_eq!(v.get(&m.mem), 5);
        rt.on_task_entry(&mut m, t, true).unwrap();
        let r = rt.read_var(&mut m, t, v.raw()).unwrap();
        assert_eq!(i32::from_raw(r), 5);
    }

    #[test]
    fn ink_buffers_more_than_alpaca() {
        // Same access pattern (one read-only var) → InK pays a working copy,
        // Alpaca does not. This cost asymmetry is what Table 6 reflects.
        let mut m = mcu();
        let mut rt = InkRuntime::new();
        let t = TaskId(0);
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Fram);
        rt.on_task_entry(&mut m, t, false).unwrap();
        rt.read_var(&mut m, t, v.raw()).unwrap();
        assert_eq!(rt.slot_count(), 1);

        let mut m2 = mcu();
        let mut alp = crate::alpaca::AlpacaRuntime::new();
        let v2: NvVar<i32> = NvVar::alloc(&mut m2.mem, Region::Fram);
        alp.on_task_entry(&mut m2, t, false).unwrap();
        alp.read_var(&mut m2, t, v2.raw()).unwrap();
        assert_eq!(alp.slot_count(), 0);
    }

    /// Volatile variables never reach the runtime: the task context stores
    /// them directly, so InK buffers nothing for them.
    #[test]
    fn volatile_vars_not_buffered() {
        let mut m = mcu();
        let mut rt = InkRuntime::new();
        let t = TaskId(0);
        let v: NvVar<i32> = NvVar::alloc(&mut m.mem, Region::Sram);
        rt.on_task_entry(&mut m, t, false).unwrap();
        let mut periph = periph::Peripherals::new(1);
        let mut tracker = easeio_trace::ActivationTracker::new();
        let mut ctx = crate::TaskCtx::new(
            &mut m,
            &mut periph,
            &mut rt,
            &mut tracker,
            t,
            crate::RetryPolicy::default(),
        );
        ctx.write(v, 3).unwrap();
        assert_eq!(ctx.read(v).unwrap(), 3);
        assert_eq!(v.get(&m.mem), 3);
        assert_eq!(rt.slot_count(), 0);
        assert_eq!(m.stats.counter(Counter::InkBufferedVars), 0);
    }
}
