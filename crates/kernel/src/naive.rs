//! Naive runtime: no privatization, no I/O policy.
//!
//! Variables are read and written in place; every I/O and DMA re-executes
//! after each reboot. This runtime exhibits all three failure modes of the
//! paper's Figure 2 (wasteful I/O, idempotence bugs, unsafe execution) and
//! serves as the didactic lower bound in tests and examples.

use crate::error::{Fault, IoFailure};
use crate::io::{perform_dma, perform_io, IoOp};
use crate::runtime::{DmaOutcome, IoOutcome, Runtime};
use crate::semantics::{DmaAnnotation, ReexecSemantics, TaskId};
use mcu_emu::{Addr, Mcu, PowerFailure, RawVar, WorkKind};
use periph::Peripherals;

/// The no-op runtime.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NaiveRuntime;

impl NaiveRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        Self
    }
}

impl Runtime for NaiveRuntime {
    fn name(&self) -> &'static str {
        "Naive"
    }

    fn on_task_entry(
        &mut self,
        _mcu: &mut Mcu,
        _task: TaskId,
        _reexecution: bool,
    ) -> Result<(), PowerFailure> {
        Ok(())
    }

    fn commit_cost(&self, _mcu: &Mcu, _task: TaskId) -> mcu_emu::Cost {
        mcu_emu::Cost::ZERO
    }

    fn commit_apply(&mut self, _mcu: &mut Mcu, _task: TaskId) {}

    fn read_var(&mut self, mcu: &mut Mcu, _task: TaskId, var: RawVar) -> Result<u64, PowerFailure> {
        mcu.load_var(WorkKind::App, var)
    }

    fn write_var(
        &mut self,
        mcu: &mut Mcu,
        _task: TaskId,
        var: RawVar,
        raw: u64,
    ) -> Result<(), PowerFailure> {
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
        perform_dma(mcu, src, dst, bytes, WorkKind::App)?;
        Ok(DmaOutcome { executed: true })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::{NvVar, Region, Supply};

    #[test]
    fn accesses_hit_master_directly() {
        let mut mcu = Mcu::new(Supply::continuous());
        let mut rt = NaiveRuntime::new();
        let v: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
        rt.write_var(&mut mcu, TaskId(0), v.raw(), 5i32.to_raw())
            .unwrap();
        assert_eq!(v.get(&mcu.mem), 5);
        assert_eq!(
            rt.read_var(&mut mcu, TaskId(0), v.raw()).unwrap(),
            5i32.to_raw()
        );
    }

    use mcu_emu::Scalar;
}
