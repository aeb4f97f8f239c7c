//! The runtime interface: privatization and I/O re-execution policy.
//!
//! Every intermittent runtime — the Alpaca and InK baselines here, EaseIO in
//! the `easeio-core` crate — implements [`Runtime`]. The executor and the
//! task context route every observable action through this trait:
//!
//! * CPU accesses to non-volatile variables (`read_var` / `write_var`) so
//!   the runtime can privatize (volatile accesses bypass it);
//! * task lifecycle events (`on_task_entry` / `on_task_commit`) so it can
//!   restore and commit;
//! * `_call_IO`, `_IO_block_begin/end`, and `_DMA_copy` so it can apply
//!   re-execution semantics.
//!
//! The trait deliberately has no notion of "what the compiler knew": each
//! runtime learns variable sets dynamically at first access, which is
//! semantically equivalent to the static instrumentation the original
//! systems generate (see DESIGN.md §2 for the argument).

use crate::error::{Fault, IoFailure};
use crate::io::IoOp;
use crate::semantics::{DmaAnnotation, ReexecSemantics, TaskId};
use mcu_emu::{Addr, Mcu, PowerFailure, RawVar};
use periph::Peripherals;
use std::any::Any;

/// Result of a `_call_IO` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoOutcome {
    /// The operation's value (executed fresh or restored from the private
    /// output copy).
    pub value: i32,
    /// Whether the peripheral actually ran (false = skipped/restored).
    pub executed: bool,
}

/// Result of a `_DMA_copy` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaOutcome {
    /// Whether a transfer into the destination happened this call.
    pub executed: bool,
}

/// The checkpoint hook of a runtime: a clone of its host-side state, an
/// in-place reset to another runtime's, and an exact comparison against
/// another runtime's. Every `Runtime` that is `Clone + PartialEq` gets it
/// from the blanket impl below; crash sweeps use it to resume injected runs
/// at a task-attempt start of their reference run and to detect when one
/// rejoins it, and fleets to start every device from its template's boot
/// state.
pub trait RuntimeState {
    /// A copy of this runtime's state, shareable across sweep workers.
    fn clone_state(&self) -> Box<dyn Runtime>;

    /// Makes this runtime equal to `src` in place, keeping its buffers
    /// ([`Clone::clone_from`]). Returns false, changing nothing, when `src`
    /// is a different runtime; [`reset_runtime`] then replaces the box.
    fn reset_from(&mut self, src: &dyn Runtime) -> bool;

    /// Whether `other` is the same runtime in the same state.
    fn state_eq(&self, other: &dyn Runtime) -> bool;

    /// Upcast for the downcasts of [`RuntimeState::reset_from`] and
    /// [`RuntimeState::state_eq`].
    fn as_any(&self) -> &dyn Any;
}

impl<T: Runtime + Clone + PartialEq + 'static> RuntimeState for T {
    fn clone_state(&self) -> Box<dyn Runtime> {
        Box::new(self.clone())
    }

    fn reset_from(&mut self, src: &dyn Runtime) -> bool {
        match src.as_any().downcast_ref::<T>() {
            Some(src) => {
                self.clone_from(src);
                true
            }
            None => false,
        }
    }

    fn state_eq(&self, other: &dyn Runtime) -> bool {
        other.as_any().downcast_ref::<T>() == Some(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Makes `held` equal to `src`: reset in place when it is the same runtime,
/// replaced by a copy of `src` when it is another one. The one reset every
/// reused run state goes through (DESIGN.md §21).
pub fn reset_runtime(held: &mut Box<dyn Runtime>, src: &dyn Runtime) {
    if !held.reset_from(src) {
        *held = src.clone_state();
    }
}

/// An intermittent-computing runtime. `Send + Sync`, so checkpoints and
/// templates holding one are shared by every worker of a pool.
pub trait Runtime: RuntimeState + Send + Sync {
    /// Runtime name for reports ("Alpaca", "InK", "EaseIO", ...).
    fn name(&self) -> &'static str;

    /// Called each time a task body is (re-)entered. `reexecution` is true
    /// when this activation already had at least one failed attempt.
    fn on_task_entry(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        reexecution: bool,
    ) -> Result<(), PowerFailure>;

    /// Price of committing `task`: everything the commit will write
    /// (published privates, cleared flags). The executor folds its own
    /// execution-pointer update into the same atomic step, so a power
    /// failure either aborts the whole commit (the task re-executes with
    /// its flags intact) or none of it — splitting them would corrupt
    /// memory the same way the paper's Figure 2b does.
    fn commit_cost(&self, mcu: &Mcu, task: TaskId) -> mcu_emu::Cost;

    /// Applies the commit's memory effects. Infallible: the cost was
    /// already paid via [`Runtime::commit_cost`].
    fn commit_apply(&mut self, mcu: &mut Mcu, task: TaskId);

    /// Convenience: price and apply the commit as one atomic step (used by
    /// unit tests; the executor calls the two halves itself so it can fold
    /// in the execution-pointer write).
    fn on_task_commit(&mut self, mcu: &mut Mcu, task: TaskId) -> Result<(), PowerFailure> {
        let c = self.commit_cost(mcu, task);
        mcu.spend(mcu_emu::WorkKind::Overhead, c)?;
        self.commit_apply(mcu, task);
        Ok(())
    }

    /// CPU read of a non-volatile application variable. Volatile
    /// (SRAM/LEA-RAM) accesses never reach the runtime: they are lost on
    /// failure and never privatized, so the task context performs them
    /// directly as pure ops.
    fn read_var(&mut self, mcu: &mut Mcu, task: TaskId, var: RawVar) -> Result<u64, PowerFailure>;

    /// CPU write of a non-volatile application variable (volatile writes
    /// bypass the runtime, as for [`Runtime::read_var`]).
    fn write_var(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        var: RawVar,
        raw: u64,
    ) -> Result<(), PowerFailure>;

    /// `_call_IO(op, sem)` at call site `site` (sequence index within the
    /// task body). `deps` lists earlier call sites whose outputs feed this
    /// operation (paper §3.3.2).
    ///
    /// A transient peripheral fault surfaces as [`IoFailure::Fault`] — the
    /// task context's retry loop consumes it; it never reaches the task
    /// body. A runtime whose completion record was already paid for may
    /// instead *absorb* a post-effect fault (radio NACK) and return `Ok`,
    /// which is what keeps `Single` operations effect-idempotent under
    /// retry.
    #[allow(clippy::too_many_arguments)]
    fn io_call(
        &mut self,
        mcu: &mut Mcu,
        periph: &mut Peripherals,
        task: TaskId,
        site: u16,
        op: &IoOp,
        sem: ReexecSemantics,
        deps: &[u16],
    ) -> Result<IoOutcome, IoFailure>;

    /// Last-resort value for a `Timely` operation whose transient-fault
    /// retry budget is exhausted: `Ok(Some(v))` serves `v` in place of a
    /// fresh reading, `Ok(None)` refuses and the task faults.
    ///
    /// `last` is the harness-cached `(value, age_us)` of the site's most
    /// recent successful execution. The default — a baseline runtime with
    /// no persistent freshness metadata — serves it *blindly*, stale or
    /// not; the crash sweep's `degraded_staleness_exceeded` probe exists to
    /// catch exactly that. EaseIO overrides this with a check of its
    /// FRAM-resident timestamp and refuses values older than Δ.
    fn degraded_fallback(
        &mut self,
        _mcu: &mut Mcu,
        _task: TaskId,
        _site: u16,
        _window_us: u64,
        last: Option<(i32, u64)>,
    ) -> Result<Option<i32>, PowerFailure> {
        Ok(last.map(|(v, _)| v))
    }

    /// `_IO_block_begin(sem)`; `block` is the block's sequence index.
    fn io_block_begin(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        block: u16,
        sem: ReexecSemantics,
    ) -> Result<(), PowerFailure>;

    /// `_IO_block_end` for the innermost open block.
    fn io_block_end(&mut self, mcu: &mut Mcu, task: TaskId) -> Result<(), PowerFailure>;

    /// `_DMA_copy(src, dst, bytes)` at DMA site `site`. `related` names the
    /// I/O call sites whose outputs the copied data depends on — the
    /// `RelatedConstFlag` wiring of paper §4.3.1 (the compiler front-end
    /// infers these; hand-written apps may pass them explicitly).
    ///
    /// Returns a [`Fault`] rather than a bare [`PowerFailure`] because a
    /// transfer can also fail on a non-recoverable resource error (pool
    /// exhaustion, oversized shared-slot copy).
    #[allow(clippy::too_many_arguments)]
    fn dma_copy(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        site: u16,
        src: Addr,
        dst: Addr,
        bytes: u32,
        annotation: DmaAnnotation,
        related: &[u16],
    ) -> Result<DmaOutcome, Fault>;

    /// Fixed per-reboot overhead charged on every boot (restoring the
    /// execution pointer, re-initializing the runtime).
    fn boot_cost(&self) -> mcu_emu::Cost {
        mcu_emu::Cost::new(60, 90)
    }
}
