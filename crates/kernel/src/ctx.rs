//! The task context: the API surface a task body programs against.
//!
//! `TaskCtx` corresponds to the EaseIO language constructs of the paper's
//! Table 2 plus the ordinary task-model operations:
//!
//! | paper construct            | `TaskCtx` method        |
//! |----------------------------|-------------------------|
//! | `_call_IO(name, type,...)` | [`TaskCtx::call_io`] / [`TaskCtx::call_io_dep`] |
//! | `_IO_block_begin/_end`     | [`TaskCtx::io_block`]   |
//! | `_DMA_copy(src,dst,size)`  | [`TaskCtx::dma_copy`] / [`TaskCtx::dma_copy_annotated`] |
//! | task-shared variable access| [`TaskCtx::read`] / [`TaskCtx::write`] |
//! | plain computation          | [`TaskCtx::compute`]    |
//!
//! Call sites are numbered by order of execution within the task body, the
//! dynamic analogue of the compiler's `lock_##fn##task##num` naming (§4.5).
//! A loop over `call_io` therefore gets one lock slot per iteration — the
//! loop-array extension of the paper's §6 falls out for free.

use crate::error::{Fault, IoError, IoFailure};
use crate::io::IoOp;
use crate::retry::RetryPolicy;
use crate::runtime::Runtime;
use crate::semantics::{DmaAnnotation, ReexecSemantics, TaskId};
use easeio_trace::{ActivationTracker, Event, EventKind, InstantKind, SpanKind, Status};
use mcu_emu::{
    Addr, Counter, EnergyCause, Mcu, NvBuf, NvVar, PowerFailure, RawVar, Scalar, WorkKind,
    DMA_SITE_BASE,
};
use periph::{PeriphClass, Peripherals};

/// The host-side state a task body can change that survives a power
/// failure besides FRAM: the runtime, the activation tracker, and the
/// peripherals (fault-plan position, radio log). Its fields are private to
/// this module so [`Host::enter`] is the only way to reach them.
mod host {
    use super::*;

    pub(super) struct Host<'a> {
        rt: &'a mut dyn Runtime,
        tracker: &'a mut ActivationTracker,
        periph: &'a mut Peripherals,
    }

    /// Borrowed access to the host state for one effectful step.
    pub(super) struct Reach<'r, 'a> {
        pub rt: &'r mut (dyn Runtime + 'a),
        pub tracker: &'r mut ActivationTracker,
        pub periph: &'r mut Peripherals,
    }

    impl<'a> Host<'a> {
        pub(super) fn new(
            rt: &'a mut dyn Runtime,
            tracker: &'a mut ActivationTracker,
            periph: &'a mut Peripherals,
        ) -> Self {
            Self {
                rt,
                tracker,
                periph,
            }
        }

        /// Ends the MCU's effect epoch, then lends out the host state. A
        /// change here that spends nothing can therefore never sit between
        /// two pure ops of one epoch (see `mcu_emu::SpendBoundary`).
        pub(super) fn enter(&mut self, mcu: &mut Mcu) -> Reach<'_, 'a> {
            mcu.advance_epoch();
            Reach {
                rt: &mut *self.rt,
                tracker: &mut *self.tracker,
                periph: &mut *self.periph,
            }
        }
    }
}

/// The execution context passed to task bodies.
pub struct TaskCtx<'a> {
    /// The simulated MCU.
    pub mcu: &'a mut Mcu,
    host: host::Host<'a>,
    task: TaskId,
    retry: RetryPolicy,
    io_seq: u16,
    dma_seq: u16,
    block_seq: u16,
    block_depth: u16,
}

impl<'a> TaskCtx<'a> {
    /// Creates a context for one execution attempt of `task`. The tracker —
    /// the observer-side record of which sites already completed this
    /// activation (it models the logic analyzer, not anything the MCU
    /// stores) — is shared across attempts and committed by the executor.
    pub fn new(
        mcu: &'a mut Mcu,
        periph: &'a mut Peripherals,
        rt: &'a mut dyn Runtime,
        tracker: &'a mut ActivationTracker,
        task: TaskId,
        retry: RetryPolicy,
    ) -> Self {
        Self {
            mcu,
            host: host::Host::new(rt, tracker, periph),
            task,
            retry,
            io_seq: 0,
            dma_seq: 0,
            block_seq: 0,
            block_depth: 0,
        }
    }

    /// Records a span event for site `site` at the current time/energy.
    fn span(&mut self, site: u16, name: &'static str, kind: EventKind) {
        let ts_us = self.mcu.now_us();
        let energy_nj = self.mcu.stats.total_energy_nj();
        let task = self.task.0;
        self.mcu.trace.emit_with(|| Event {
            ts_us,
            energy_nj,
            task,
            site,
            name,
            kind,
        });
    }

    /// The task being executed.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Sequence index the *next* `call_io` will get; apps use this to name
    /// dependency targets.
    pub fn next_io_site(&self) -> u16 {
        self.io_seq
    }

    /// Performs `cycles` cycles of application computation. A pure op.
    pub fn compute(&mut self, cycles: u64) -> Result<(), Fault> {
        debug_assert_eq!(
            self.block_depth, 0,
            "EaseIO I/O blocks contain only I/O operations (paper §3.2)"
        );
        let c = self.mcu.cost.cpu_cycle.times(cycles);
        Ok(self.mcu.pure_op(|m| m.spend(WorkKind::App, c))?)
    }

    /// Reads a task-shared variable. A volatile (SRAM/LEA-RAM) variable is
    /// a pure load; a non-volatile one goes through the runtime.
    pub fn read<T: Scalar>(&mut self, var: NvVar<T>) -> Result<T, Fault> {
        Ok(T::from_raw(self.load(var.raw())?))
    }

    /// Writes a task-shared variable: a pure store when volatile, through
    /// the runtime when non-volatile.
    pub fn write<T: Scalar>(&mut self, var: NvVar<T>, value: T) -> Result<(), Fault> {
        debug_assert_eq!(
            self.block_depth, 0,
            "EaseIO I/O blocks contain only I/O operations (paper §3.2)"
        );
        self.store(var.raw(), value.to_raw())
    }

    /// Reads one element of a task-shared buffer, as [`TaskCtx::read`].
    pub fn buf_read<T: Scalar>(&mut self, buf: NvBuf<T>, i: u32) -> Result<T, Fault> {
        Ok(T::from_raw(self.load(buf.slot(i))?))
    }

    /// Writes one element of a task-shared buffer, as [`TaskCtx::write`].
    pub fn buf_write<T: Scalar>(&mut self, buf: NvBuf<T>, i: u32, value: T) -> Result<(), Fault> {
        debug_assert_eq!(self.block_depth, 0, "no buffer writes inside I/O blocks");
        self.store(buf.slot(i), value.to_raw())
    }

    /// Volatile memory is lost on failure and never privatized, so its
    /// accesses skip the runtime and run as pure ops.
    fn load(&mut self, var: RawVar) -> Result<u64, PowerFailure> {
        if var.addr.is_nonvolatile() {
            let host = self.host.enter(self.mcu);
            host.rt.read_var(self.mcu, self.task, var)
        } else {
            self.mcu.pure_op(|m| m.load_var(WorkKind::App, var))
        }
    }

    fn store(&mut self, var: RawVar, raw: u64) -> Result<(), Fault> {
        if var.addr.is_nonvolatile() {
            let host = self.host.enter(self.mcu);
            Ok(host.rt.write_var(self.mcu, self.task, var, raw)?)
        } else {
            Ok(self.mcu.pure_op(|m| m.store_var(WorkKind::App, var, raw))?)
        }
    }

    /// Reads the persistent timekeeper (application-level `GetTime()`).
    pub fn now(&mut self) -> Result<u64, Fault> {
        Ok(self.mcu.read_timestamp(WorkKind::App)?)
    }

    /// `_call_IO(op, sem)` — executes `op` under the given re-execution
    /// semantics and returns its (possibly restored) value.
    pub fn call_io(&mut self, op: IoOp, sem: ReexecSemantics) -> Result<i32, Fault> {
        self.call_io_dep(op, sem, &[])
    }

    /// `_call_IO` with explicit data dependencies: `deps` are the sequence
    /// indices of earlier call sites whose outputs feed this operation. If a
    /// dependency re-executed in this attempt, this operation re-executes
    /// too (paper §3.3.2).
    pub fn call_io_dep(
        &mut self,
        op: IoOp,
        sem: ReexecSemantics,
        deps: &[u16],
    ) -> Result<i32, Fault> {
        let site = self.io_seq;
        self.io_seq += 1;
        let name = op.kind_name();
        self.span(site, name, EventKind::SpanBegin(SpanKind::IoCall));
        // Transient-fault recovery loop: a faulted attempt is retried with
        // energy-aware backoff up to the policy's budget, then degraded
        // according to the operation's re-execution semantics. Power
        // failures abort the attempt as before — the activation re-executes
        // after reboot with the fault schedule advanced past the consumed
        // attempts (the outside world does not reboot with the MCU).
        let mut faulted: u32 = 0;
        // Attribution marks taken before each attempt of the operation: a
        // faulted attempt's energy is re-labeled retry waste, and an attempt
        // that turns out redundant is re-labeled redundant I/O below.
        let mut marks = self.mcu.stats.cause_marks();
        let out = loop {
            let host = self.host.enter(self.mcu);
            match host
                .rt
                .io_call(self.mcu, host.periph, self.task, site, &op, sem, deps)
            {
                Ok(out) => break out,
                Err(IoFailure::Power(p)) => {
                    self.span(
                        site,
                        name,
                        EventKind::SpanEnd(SpanKind::IoCall, Status::Failed),
                    );
                    return Err(p.into());
                }
                Err(IoFailure::Fault(f)) => {
                    faulted += 1;
                    // The faulted attempt paid the full operation cost for
                    // nothing: move its energy into the retry bucket.
                    self.mcu
                        .stats
                        .reattribute_since(&marks, EnergyCause::Retry, self.task.0);
                    self.span(
                        site,
                        f.kind.name(),
                        EventKind::Instant(InstantKind::PeriphFault),
                    );
                    if faulted > self.retry.max_retries {
                        return self.degrade_io(site, name, sem, f.kind, faulted);
                    }
                    // Invariant probe: retrying a fault whose external
                    // effect already happened (radio NACK) under `Single`
                    // semantics is exactly the duplicate the annotation
                    // forbids. EaseIO absorbs such faults inside its
                    // `io_call` (the completion record was pre-charged) and
                    // never reaches this point; baselines do.
                    if f.effect_done && matches!(sem, ReexecSemantics::Single) {
                        self.mcu.stats.bump(Counter::ProbeRetryDuplicatedEffect);
                    }
                    let backoff = self.retry.backoff_cost(faulted);
                    if let Err(p) = self
                        .mcu
                        .with_cause(EnergyCause::Retry, |m| m.spend(WorkKind::Overhead, backoff))
                    {
                        self.span(
                            site,
                            name,
                            EventKind::SpanEnd(SpanKind::IoCall, Status::Failed),
                        );
                        return Err(p.into());
                    }
                    self.mcu.stats.bump(Counter::IoRetries);
                    self.span(site, name, EventKind::Instant(InstantKind::IoRetry));
                    marks = self.mcu.stats.cause_marks();
                }
            }
        };
        let status = if out.executed {
            let ts = self.mcu.now_us();
            let tracker = self.host.enter(self.mcu).tracker;
            tracker.record_io_value(self.task.0, site, out.value, ts);
            if tracker.first_io(self.task.0, site) {
                Status::Executed
            } else {
                // The site had already completed in an earlier attempt of
                // this activation: this execution is redundant. Everything
                // the operation spent since the last marks — op cost plus
                // the runtime's bookkeeping around it — is redundant-I/O
                // waste, charged against this call site.
                self.mcu.stats.io_reexecutions += 1;
                let (_, moved_nj) =
                    self.mcu
                        .stats
                        .reattribute_since(&marks, EnergyCause::RedundantIo, self.task.0);
                self.mcu.stats.note_redundant_site(site, moved_nj);
                // Invariant probe: a bare `Single` op with no dependence
                // forcing and no enclosing block must never run twice within
                // one activation. A safe runtime's `io_call` only reports a
                // completed Single as executed again under dependence
                // forcing or a Violated block — both excluded here — so any
                // hit means its control blocks lost the completion record.
                // (An op interrupted *during* completion recording returns
                // `Err` above and never marks `first_io`, so the legitimate
                // op-to-lock re-execution window counts as Executed, not
                // Redundant.)
                if matches!(sem, ReexecSemantics::Single)
                    && deps.is_empty()
                    && self.block_depth == 0
                {
                    self.mcu.stats.bump(Counter::ProbeSingleRedundant);
                }
                Status::Redundant
            }
        } else {
            self.mcu.stats.io_skipped += 1;
            Status::Skipped
        };
        self.span(site, name, EventKind::SpanEnd(SpanKind::IoCall, status));
        Ok(out.value)
    }

    /// Degrades an I/O operation whose transient-fault retry budget is
    /// exhausted, per its re-execution semantics:
    ///
    /// * `Always` — the reading is best-effort anyway: skip with a flag.
    /// * `Timely` — serve the runtime's degraded fallback (typically the
    ///   last committed value) if it offers one; fault the task otherwise.
    /// * `Single` — the effect must happen exactly once and has not
    ///   happened: nothing can be served, the task faults.
    fn degrade_io(
        &mut self,
        site: u16,
        name: &'static str,
        sem: ReexecSemantics,
        kind: periph::FaultKind,
        attempts: u32,
    ) -> Result<i32, Fault> {
        let exhausted = IoError {
            kind,
            op: name,
            task: self.task.0,
            site,
            attempts,
        };
        match sem {
            ReexecSemantics::Always => {
                self.mcu.stats.bump(Counter::IoDegradedSkips);
                self.span(site, "skip", EventKind::Instant(InstantKind::Degraded));
                self.span(
                    site,
                    name,
                    EventKind::SpanEnd(SpanKind::IoCall, Status::Skipped),
                );
                Ok(0)
            }
            ReexecSemantics::Timely { window_us } => {
                // The degraded `Timely` path branches on the cached value's
                // age — an uncharged wall-clock observation that boundary
                // equivalence classification must know about.
                self.mcu.note_time_observed();
                let now = self.mcu.now_us();
                let host = self.host.enter(self.mcu);
                let last = host
                    .tracker
                    .last_io_value(self.task.0, site)
                    .map(|(v, ts)| (v, now.saturating_sub(ts)));
                match host
                    .rt
                    .degraded_fallback(self.mcu, self.task, site, window_us, last)
                {
                    Err(p) => {
                        self.span(
                            site,
                            name,
                            EventKind::SpanEnd(SpanKind::IoCall, Status::Failed),
                        );
                        Err(p.into())
                    }
                    Ok(Some(v)) => {
                        self.mcu.stats.bump(Counter::IoDegradedFallbacks);
                        // Invariant probe: serving a fallback older than the
                        // `Timely` window (plus slack for the time the check
                        // itself consumes) violates the freshness contract.
                        // EaseIO's override refuses such values; the blind
                        // default does not.
                        if let Some((_, age_us)) = last {
                            if age_us > window_us + 100 {
                                self.mcu.stats.bump(Counter::ProbeDegradedStalenessExceeded);
                            }
                        }
                        self.span(site, "fallback", EventKind::Instant(InstantKind::Degraded));
                        self.span(
                            site,
                            name,
                            EventKind::SpanEnd(SpanKind::IoCall, Status::Skipped),
                        );
                        Ok(v)
                    }
                    Ok(None) => {
                        self.span(
                            site,
                            name,
                            EventKind::SpanEnd(SpanKind::IoCall, Status::Failed),
                        );
                        Err(Fault::Io(exhausted))
                    }
                }
            }
            ReexecSemantics::Single => {
                self.span(
                    site,
                    name,
                    EventKind::SpanEnd(SpanKind::IoCall, Status::Failed),
                );
                Err(Fault::Io(exhausted))
            }
        }
    }

    /// `_IO_block_begin(sem) ... _IO_block_end` — runs `f` as an atomic I/O
    /// block with block-level re-execution semantics. Blocks nest; the
    /// outermost decisive block wins (paper §3.3.1).
    pub fn io_block<R>(
        &mut self,
        sem: ReexecSemantics,
        f: impl FnOnce(&mut Self) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let block = self.block_seq;
        self.block_seq += 1;
        self.span(block, "block", EventKind::SpanBegin(SpanKind::IoBlock));
        let attempt = (|| {
            let host = self.host.enter(self.mcu);
            host.rt.io_block_begin(self.mcu, self.task, block, sem)?;
            self.block_depth += 1;
            let r = f(self);
            self.block_depth -= 1;
            let value = r?;
            let host = self.host.enter(self.mcu);
            host.rt.io_block_end(self.mcu, self.task)?;
            Ok(value)
        })();
        let status = match &attempt {
            Ok(_) => Status::Committed,
            Err(_) => Status::Failed,
        };
        self.span(
            block,
            "block",
            EventKind::SpanEnd(SpanKind::IoBlock, status),
        );
        attempt
    }

    /// `_DMA_copy(src, dst, bytes)` with automatic semantics resolution.
    pub fn dma_copy(&mut self, src: Addr, dst: Addr, bytes: u32) -> Result<(), Fault> {
        self.dma_copy_annotated(src, dst, bytes, DmaAnnotation::Auto, &[])
    }

    /// `_DMA_copy` with an explicit annotation (`Exclude` for constant data)
    /// and the related I/O call sites whose outputs the data depends on
    /// (paper §4.3.1).
    pub fn dma_copy_annotated(
        &mut self,
        src: Addr,
        dst: Addr,
        bytes: u32,
        annotation: DmaAnnotation,
        related: &[u16],
    ) -> Result<(), Fault> {
        debug_assert_eq!(self.block_depth, 0, "DMA copies sit outside I/O blocks");
        let site = self.dma_seq;
        self.dma_seq += 1;
        self.span(site, "dma", EventKind::SpanBegin(SpanKind::DmaCopy));
        // DMA transfer faults fire on the *request*: the controller aborts
        // the programmed burst before the runtime's skip/privatization
        // logic ever sees it. A faulted burst still paid for the transfer.
        let mut faulted: u32 = 0;
        while let Some(kind) =
            self.host
                .enter(self.mcu)
                .periph
                .faults
                .next_fault(PeriphClass::Dma, self.task.0, site)
        {
            faulted += 1;
            let wasted = periph::dma::transfer_cost(&self.mcu.cost, bytes);
            // The fault is decided before the burst runs, so the burst is
            // charged to retry waste as it is spent: a power failure landing
            // mid-burst leaves every slice already paid labeled as retry,
            // exactly as the per-boundary ledger recorded it.
            let spent = self.mcu.spend_as(WorkKind::App, EnergyCause::Retry, wasted);
            self.mcu.stats.bump(Counter::DmaFaults);
            self.span(
                site,
                kind.name(),
                EventKind::Instant(InstantKind::PeriphFault),
            );
            if let Err(p) = spent {
                self.span(
                    site,
                    "dma",
                    EventKind::SpanEnd(SpanKind::DmaCopy, Status::Failed),
                );
                return Err(p.into());
            }
            if faulted > self.retry.max_retries {
                self.span(
                    site,
                    "dma",
                    EventKind::SpanEnd(SpanKind::DmaCopy, Status::Failed),
                );
                // No degradation for DMA: the copied bytes feed computation
                // that cannot proceed without them.
                return Err(Fault::Io(IoError {
                    kind,
                    op: "dma",
                    task: self.task.0,
                    site,
                    attempts: faulted,
                }));
            }
            let backoff = self.retry.backoff_cost(faulted);
            if let Err(p) = self
                .mcu
                .with_cause(EnergyCause::Retry, |m| m.spend(WorkKind::Overhead, backoff))
            {
                self.span(
                    site,
                    "dma",
                    EventKind::SpanEnd(SpanKind::DmaCopy, Status::Failed),
                );
                return Err(p.into());
            }
            self.mcu.stats.bump(Counter::IoRetries);
            self.span(site, "dma", EventKind::Instant(InstantKind::IoRetry));
        }
        let marks = self.mcu.stats.cause_marks();
        let host = self.host.enter(self.mcu);
        let out = match host.rt.dma_copy(
            self.mcu, self.task, site, src, dst, bytes, annotation, related,
        ) {
            Ok(out) => out,
            Err(e) => {
                self.span(
                    site,
                    "dma",
                    EventKind::SpanEnd(SpanKind::DmaCopy, Status::Failed),
                );
                return Err(e);
            }
        };
        let status = if out.executed {
            if self
                .host
                .enter(self.mcu)
                .tracker
                .first_dma(self.task.0, site)
            {
                Status::Executed
            } else {
                self.mcu.stats.dma_reexecutions += 1;
                // A repeated burst at a completed site is redundant I/O.
                // DMA sites share the numbering space with I/O call sites
                // only after the `DMA_SITE_BASE` offset.
                let (_, moved_nj) =
                    self.mcu
                        .stats
                        .reattribute_since(&marks, EnergyCause::RedundantIo, self.task.0);
                self.mcu
                    .stats
                    .note_redundant_site(DMA_SITE_BASE | site, moved_nj);
                Status::Redundant
            }
        } else {
            self.mcu.stats.dma_skipped += 1;
            Status::Skipped
        };
        self.span(site, "dma", EventKind::SpanEnd(SpanKind::DmaCopy, status));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveRuntime;
    use crate::semantics::TaskId;
    use mcu_emu::{NvBuf, NvVar, Region, Supply};
    use periph::Sensor;

    fn setup() -> (Mcu, Peripherals, NaiveRuntime, ActivationTracker) {
        (
            Mcu::new(Supply::continuous()),
            Peripherals::new(3),
            NaiveRuntime::new(),
            ActivationTracker::new(),
        )
    }

    #[test]
    fn io_sites_are_numbered_in_execution_order() {
        let (mut mcu, mut p, mut rt, mut tel) = setup();
        let mut ctx = TaskCtx::new(
            &mut mcu,
            &mut p,
            &mut rt,
            &mut tel,
            TaskId(0),
            RetryPolicy::default(),
        );
        assert_eq!(ctx.next_io_site(), 0);
        ctx.call_io(IoOp::Sense(Sensor::Temp), ReexecSemantics::Always)
            .unwrap();
        assert_eq!(ctx.next_io_site(), 1);
        ctx.call_io(IoOp::Sense(Sensor::Humd), ReexecSemantics::Always)
            .unwrap();
        assert_eq!(ctx.next_io_site(), 2);
    }

    #[test]
    fn tracker_counts_reexecution_across_attempts() {
        let (mut mcu, mut p, mut rt, mut tel) = setup();
        // Attempt 1 executes site 0.
        {
            let mut ctx = TaskCtx::new(
                &mut mcu,
                &mut p,
                &mut rt,
                &mut tel,
                TaskId(0),
                RetryPolicy::default(),
            );
            ctx.call_io(IoOp::Sense(Sensor::Temp), ReexecSemantics::Always)
                .unwrap();
        }
        assert_eq!(mcu.stats.io_reexecutions, 0);
        // Attempt 2 (same activation: telemetry not committed) repeats it.
        {
            let mut ctx = TaskCtx::new(
                &mut mcu,
                &mut p,
                &mut rt,
                &mut tel,
                TaskId(0),
                RetryPolicy::default(),
            );
            ctx.call_io(IoOp::Sense(Sensor::Temp), ReexecSemantics::Always)
                .unwrap();
        }
        assert_eq!(mcu.stats.io_reexecutions, 1);
        // After commit, a fresh activation's execution is not redundant.
        tel.commit(0);
        {
            let mut ctx = TaskCtx::new(
                &mut mcu,
                &mut p,
                &mut rt,
                &mut tel,
                TaskId(0),
                RetryPolicy::default(),
            );
            ctx.call_io(IoOp::Sense(Sensor::Temp), ReexecSemantics::Always)
                .unwrap();
        }
        assert_eq!(mcu.stats.io_reexecutions, 1);
    }

    #[test]
    fn reads_and_writes_route_through_the_runtime() {
        let (mut mcu, mut p, mut rt, mut tel) = setup();
        let v: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
        let b: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, 4);
        let mut ctx = TaskCtx::new(
            &mut mcu,
            &mut p,
            &mut rt,
            &mut tel,
            TaskId(0),
            RetryPolicy::default(),
        );
        ctx.write(v, -9).unwrap();
        assert_eq!(ctx.read(v).unwrap(), -9);
        ctx.buf_write(b, 2, 7i16).unwrap();
        assert_eq!(ctx.buf_read(b, 2).unwrap(), 7i16);
    }

    #[test]
    fn now_reads_the_persistent_timer_with_cost() {
        let (mut mcu, mut p, mut rt, mut tel) = setup();
        let mut ctx = TaskCtx::new(
            &mut mcu,
            &mut p,
            &mut rt,
            &mut tel,
            TaskId(0),
            RetryPolicy::default(),
        );
        let t1 = ctx.now().unwrap();
        let t2 = ctx.now().unwrap();
        assert!(t2 > t1, "each timer read advances virtual time");
    }

    /// Handles the effect-epoch tests place between two pure ops.
    struct Vars {
        sram: NvVar<i16>,
        lea: NvBuf<i16>,
        fram: NvVar<i16>,
        src: Addr,
        dst: Addr,
    }

    /// Runs two pure ops (compute, volatile write), then `between`, then two
    /// more (volatile read, compute) with the boundary recorder on, and
    /// says whether the recorded effect epochs split the span.
    fn splits_the_epoch(between: impl FnOnce(&mut TaskCtx<'_>, &Vars)) -> bool {
        let (mut mcu, mut p, mut rt, mut tel) = setup();
        let v = Vars {
            sram: NvVar::alloc(&mut mcu.mem, Region::Sram),
            lea: NvBuf::alloc(&mut mcu.mem, Region::LeaRam, 4),
            fram: NvVar::alloc(&mut mcu.mem, Region::Fram),
            src: mcu.mem.alloc(Region::Fram, 64, mcu_emu::AllocTag::App),
            dst: mcu.mem.alloc(Region::Fram, 64, mcu_emu::AllocTag::App),
        };
        mcu.record_boundaries(&[]);
        {
            let mut ctx = TaskCtx::new(
                &mut mcu,
                &mut p,
                &mut rt,
                &mut tel,
                TaskId(0),
                RetryPolicy::default(),
            );
            ctx.compute(10).unwrap();
            ctx.write(v.sram, 1).unwrap();
            between(&mut ctx, &v);
            ctx.read(v.sram).unwrap();
            ctx.compute(10).unwrap();
        }
        let (recs, _) = mcu.take_boundary_recording().unwrap();
        let n = recs.len();
        assert_eq!(recs[0].epoch, recs[1].epoch, "leading pure ops share");
        assert_eq!(
            recs[n - 2].epoch,
            recs[n - 1].epoch,
            "trailing pure ops share"
        );
        recs[0].epoch != recs[n - 1].epoch
    }

    /// Pure ops — computation and volatile loads/stores — form one effect
    /// epoch when only host-local work separates them.
    #[test]
    fn pure_ops_with_nothing_between_share_an_epoch() {
        assert!(!splits_the_epoch(|_, _| {}));
        assert!(!splits_the_epoch(|ctx, v| {
            let _ = (ctx.task(), ctx.next_io_site());
            ctx.buf_write(v.lea, 2, 4).unwrap();
            ctx.buf_read(v.lea, 1).unwrap();
        }));
    }

    /// Each kind of effect splits the span, including those that spend
    /// nothing (a direct FRAM write, an empty I/O block under a runtime
    /// whose block hooks are free).
    #[test]
    fn every_effect_between_pure_ops_splits_the_epoch() {
        assert!(splits_the_epoch(|ctx, v| v.fram.set(&mut ctx.mcu.mem, 5)));
        assert!(splits_the_epoch(|ctx, _| {
            ctx.call_io(IoOp::Sense(Sensor::Temp), ReexecSemantics::Always)
                .unwrap();
        }));
        assert!(splits_the_epoch(|ctx, v| ctx
            .dma_copy(v.src, v.dst, 16)
            .unwrap()));
        assert!(splits_the_epoch(|ctx, v| {
            ctx.read(v.fram).unwrap();
        }));
        assert!(splits_the_epoch(|ctx, v| ctx.write(v.fram, 3).unwrap()));
        assert!(splits_the_epoch(|ctx, _| {
            ctx.io_block(ReexecSemantics::Always, |_| Ok(())).unwrap();
        }));
    }

    #[test]
    fn compute_charges_app_time() {
        let (mut mcu, mut p, mut rt, mut tel) = setup();
        let mut ctx = TaskCtx::new(
            &mut mcu,
            &mut p,
            &mut rt,
            &mut tel,
            TaskId(0),
            RetryPolicy::default(),
        );
        ctx.compute(123).unwrap();
        assert_eq!(mcu.stats.app_time_us, 123);
        assert_eq!(mcu.stats.overhead_time_us, 0);
    }
}
