//! The EaseIO runtime: glue between the task kernel and the EaseIO
//! mechanisms (paper §4).
//!
//! Responsibilities at each hook:
//!
//! * **task entry** — reset the volatile nesting/dependence state; on
//!   re-execution, restore region 0's privatized variables;
//! * **variable access** — regional snapshot-before-first-access, then the
//!   plain access (paper §4.4);
//! * **`_call_IO`** — semantic precedence (enclosing block decision →
//!   dependence forcing → own semantics), lock/timestamp checks, private
//!   output restoration (paper §4.2);
//! * **`_IO_block_begin/_end`** — delegated to [`crate::blocks`];
//! * **`_DMA_copy`** — run-time typing and two-phase privatization
//!   ([`crate::dma_rules`]), then a region boundary: the region counter
//!   advances and the new region's snapshot is restored (paper §4.3–4.4);
//! * **commit** — clear every lock, block flag, DMA flag, and regional
//!   snapshot the activation created, priced as one atomic step.

use crate::blocks::{BlockState, BlockTable};
use crate::deps::DepTracker;
use crate::dma_rules::DmaTable;
use crate::flags::IoSlotTable;
use crate::regional::Regional;
use kernel::io::perform_io;
use kernel::{
    DmaAnnotation, DmaOutcome, Fault, IoFailure, IoOp, IoOutcome, ReexecSemantics, Runtime, TaskId,
};
use mcu_emu::{Addr, Cost, Counter, EnergyCause, FlatSet, Mcu, PowerFailure, RawVar, WorkKind};
use periph::Peripherals;

/// EaseIO configuration.
#[derive(Debug, Clone)]
pub struct EaseIoConfig {
    /// Size of the DMA privatization buffer pool in bytes. The paper's
    /// evaluation uses 4 KB; set 0 for applications without DMA.
    pub dma_priv_pool_bytes: u32,
    /// Buffer-assignment policy for `Private` transfers: dedicated per-site
    /// buffers (the paper's configuration) or cross-task shared slots with
    /// a hard size check (the paper's §6 buffer-sharing discussion).
    pub dma_buffer_mode: crate::dma_rules::BufferMode,
    /// Whether the platform has a persistent timekeeping circuit (paper
    /// §4.1, citing de Winkel et al.). Without one, elapsed time across a
    /// power failure is unknowable and every `Timely` check conservatively
    /// expires — `Timely` degrades to `Always` plus bookkeeping. This is
    /// the timekeeping ablation.
    pub persistent_timekeeper: bool,
}

impl Default for EaseIoConfig {
    fn default() -> Self {
        Self {
            dma_priv_pool_bytes: 4096,
            dma_buffer_mode: crate::dma_rules::BufferMode::Dedicated,
            persistent_timekeeper: true,
        }
    }
}

/// The EaseIO runtime.
#[derive(Debug, PartialEq)]
pub struct EaseIoRuntime {
    io: IoSlotTable,
    blocks: BlockTable,
    dma: DmaTable,
    regional: Regional,
    deps: DepTracker,
    current_region: u16,
    persistent_timekeeper: bool,
    /// Set when a re-executed I/O produced a *different* output than its
    /// previous execution this attempt. From that point on, downstream
    /// regional snapshots are reconciled per variable instead of blindly
    /// restored, and downstream DMA completion flags are untrusted.
    diverged: bool,
    /// Variables the CPU wrote during the current attempt.
    written_this_attempt: FlatSet<RawVar>,
    /// Destination ranges of DMA transfers performed this attempt.
    dma_written: Vec<(Addr, u32)>,
    /// Destination ranges holding data derived from diverged values
    /// (written by taint-forced or dependence-forced transfers).
    tainted_dma: Vec<(Addr, u32)>,
}

impl Clone for EaseIoRuntime {
    fn clone(&self) -> Self {
        Self {
            io: self.io.clone(),
            blocks: self.blocks.clone(),
            dma: self.dma.clone(),
            regional: self.regional.clone(),
            deps: self.deps.clone(),
            written_this_attempt: self.written_this_attempt.clone(),
            dma_written: self.dma_written.clone(),
            tainted_dma: self.tainted_dma.clone(),
            ..*self
        }
    }

    /// Copies `source` into this runtime's tables, keeping their buffers:
    /// what [`kernel::RuntimeState::reset_from`] runs.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            io,
            blocks,
            dma,
            regional,
            deps,
            current_region,
            persistent_timekeeper,
            diverged,
            written_this_attempt,
            dma_written,
            tainted_dma,
        } = self;
        io.clone_from(&source.io);
        blocks.clone_from(&source.blocks);
        dma.clone_from(&source.dma);
        regional.clone_from(&source.regional);
        deps.clone_from(&source.deps);
        *current_region = source.current_region;
        *persistent_timekeeper = source.persistent_timekeeper;
        *diverged = source.diverged;
        written_this_attempt.clone_from(&source.written_this_attempt);
        dma_written.clone_from(&source.dma_written);
        tainted_dma.clone_from(&source.tainted_dma);
    }
}

impl Default for EaseIoRuntime {
    fn default() -> Self {
        Self::new(EaseIoConfig::default())
    }
}

impl EaseIoRuntime {
    /// Creates the runtime.
    pub fn new(cfg: EaseIoConfig) -> Self {
        let blocks = if cfg.persistent_timekeeper {
            BlockTable::new()
        } else {
            BlockTable::new().without_persistent_timer()
        };
        Self {
            io: IoSlotTable::new(),
            blocks,
            dma: DmaTable::with_mode(cfg.dma_priv_pool_bytes, cfg.dma_buffer_mode),
            regional: Regional::new(),
            deps: DepTracker::new(),
            current_region: 0,
            persistent_timekeeper: cfg.persistent_timekeeper,
            diverged: false,
            written_this_attempt: FlatSet::new(),
            dma_written: Vec::new(),
            tainted_dma: Vec::new(),
        }
    }

    /// Evaluates the `RelatedConstFlag`s: one flag check per dependency,
    /// true if any dependency re-executed this attempt.
    fn deps_force(&mut self, mcu: &mut Mcu, deps: &[u16]) -> Result<bool, PowerFailure> {
        if deps.is_empty() {
            return Ok(false);
        }
        let c = mcu.cost.flag_check.times(deps.len() as u64);
        mcu.with_cause(EnergyCause::Commit, |m| m.spend(WorkKind::Overhead, c))?;
        Ok(self.deps.any_executed(deps))
    }

    /// Executes the operation and records completion state.
    #[allow(clippy::too_many_arguments)]
    fn execute_io(
        &mut self,
        mcu: &mut Mcu,
        periph: &mut Peripherals,
        task: TaskId,
        site: u16,
        op: &IoOp,
        sem: ReexecSemantics,
        _in_block: bool,
    ) -> Result<IoOutcome, IoFailure> {
        // Divergence check: if this site already produced a value in this
        // activation, compare against it after executing. A changed output
        // means downstream state derived from the old value is stale.
        let slot = self.io.ensure(mcu, task, site);
        let prev = if self.io.out_recorded(task, site) {
            Some(self.io.load_out(mcu, slot)?)
        } else {
            None
        };
        // The paper privatizes every return value used across failures:
        // Single/Timely ops always, and any op inside a block (Fig. 3 shows
        // `humd_priv = Humd()` for an Always op in a block). Bare Always
        // ops store only the output (for the divergence comparison above),
        // never a lock.
        let needs_lock = !matches!(sem, ReexecSemantics::Always);
        let value = if needs_lock {
            // Atomic I/O section: the timestamp read and the full completion
            // bookkeeping are charged *before* the operation, so once its
            // external effect happens nothing fallible separates it from
            // the lock store. A failure in between would otherwise
            // re-perform the `Single` op on reboot (the power-failure sweep
            // catches exactly that as a duplicated radio packet).
            let ts = if matches!(sem, ReexecSemantics::Timely { .. }) {
                Some(mcu.with_cause(EnergyCause::Commit, |m| {
                    m.read_timestamp(WorkKind::Overhead)
                })?)
            } else {
                None
            };
            let c = self.io.completion_cost(mcu, slot, true, ts.is_some());
            mcu.with_cause(EnergyCause::Commit, |m| m.spend(WorkKind::Overhead, c))?;
            let value = match perform_io(mcu, periph, op, task, site) {
                Ok(v) => v,
                // A post-effect fault (radio NACK): the packet is in the
                // air and the completion record is already paid for, so
                // absorb the fault — record completion with the effect's
                // value and never re-run the operation. This is what keeps
                // `Single` effect-idempotent under the retry loop.
                Err(IoFailure::Fault(f)) if f.effect_done => {
                    mcu.stats.bump(Counter::EaseioEffectFaultAbsorbed);
                    f.value
                }
                Err(e) => return Err(e),
            };
            self.deps.mark_executed(site);
            self.io
                .record_completion_prepaid(mcu, task, site, slot, value, true, ts);
            value
        } else {
            // No lock: nothing distinguishes this attempt's effect from a
            // re-execution, so a fault — post-effect or not — goes to the
            // task context's retry loop (re-running an `Always` op is
            // within its semantics).
            let value = perform_io(mcu, periph, op, task, site)?;
            self.deps.mark_executed(site);
            self.io.store_out(mcu, task, site, slot, value)?;
            value
        };
        if let Some(old) = prev {
            if old != value {
                self.diverged = true;
                mcu.stats.bump(Counter::EaseioDivergences);
            }
        }
        Ok(IoOutcome {
            value,
            executed: true,
        })
    }

    /// Whether `[base, base+len)` overlaps data written from diverged
    /// values this attempt (CPU writes, or destinations of forced DMAs).
    fn range_tainted(&self, base: Addr, len: u32) -> bool {
        let var_hit = self.written_this_attempt.iter().any(|v| {
            v.addr.region == base.region
                && v.addr.offset < base.offset + len
                && base.offset < v.addr.offset + v.width
        });
        var_hit
            || self.tainted_dma.iter().any(|(b, l)| {
                b.region == base.region
                    && b.offset < base.offset + len
                    && base.offset < b.offset + l
            })
    }

    /// Number of FRAM control slots allocated for I/O sites.
    pub fn io_slot_count(&self) -> usize {
        self.io.slot_count()
    }

    /// Bytes of the DMA privatization pool in use.
    pub fn dma_pool_used(&self) -> u32 {
        self.dma.pool_used()
    }
}

impl Runtime for EaseIoRuntime {
    fn name(&self) -> &'static str {
        "EaseIO"
    }

    fn on_task_entry(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        reexecution: bool,
    ) -> Result<(), PowerFailure> {
        self.blocks.reset_stack();
        self.deps.reset();
        self.current_region = 0;
        self.diverged = false;
        self.written_this_attempt.clear();
        self.dma_written.clear();
        self.tainted_dma.clear();
        if reexecution {
            // Restore region 0's privatized variables (Fig. 6's recovery at
            // the head of the first region). Region 0's entry state is the
            // task's committed state, which never diverges.
            self.regional.enter_region(mcu, task, 0)?;
        }
        Ok(())
    }

    fn commit_cost(&self, mcu: &Mcu, task: TaskId) -> Cost {
        // One flag write per lock/block/DMA flag to clear plus one per
        // regional snapshot flag, all cleared in one atomic commit step.
        let flags = self.io.dirty_for(task)
            + self.blocks.dirty_for(task)
            + self.dma.dirty_for(task)
            + self.regional.snapshot_count(task);
        mcu.cost.flag_write.times(flags)
    }

    fn commit_apply(&mut self, mcu: &mut Mcu, task: TaskId) {
        // Pricing probe for the crash sweep: commit was priced from the raw
        // dirty lists (`dirty_for`), but each site's flags clear exactly
        // once, so the priced count must equal the *distinct* count. A
        // mismatch means a duplicated dirty entry double-charged the commit.
        if self.io.dirty_for(task) != self.io.distinct_dirty_for(task)
            || self.dma.dirty_for(task) != self.dma.distinct_dirty_for(task)
        {
            mcu.stats.bump(Counter::ProbeCommitOverpriced);
        }
        self.io.clear_task(mcu, task);
        self.blocks.clear_task(mcu, task);
        self.dma.clear_task(mcu, task);
        self.regional.clear_task(task);
    }

    fn read_var(&mut self, mcu: &mut Mcu, task: TaskId, var: RawVar) -> Result<u64, PowerFailure> {
        self.regional
            .snap_before_access(mcu, task, self.current_region, var)?;
        mcu.load_var(WorkKind::App, var)
    }

    fn write_var(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        var: RawVar,
        raw: u64,
    ) -> Result<(), PowerFailure> {
        self.regional
            .snap_before_access(mcu, task, self.current_region, var)?;
        self.written_this_attempt.insert(var);
        mcu.store_var(WorkKind::App, var, raw)
    }

    fn io_call(
        &mut self,
        mcu: &mut Mcu,
        periph: &mut Peripherals,
        task: TaskId,
        site: u16,
        op: &IoOp,
        sem: ReexecSemantics,
        deps: &[u16],
    ) -> Result<IoOutcome, IoFailure> {
        let in_block = self.blocks.in_block();
        match self.blocks.enclosing_decision() {
            BlockState::Satisfied => {
                // The whole block body is skipped; only the private output
                // is restored where the value is used.
                let slot = self.io.ensure(mcu, task, site);
                let value = self.io.restore_out(mcu, slot)?;
                Ok(IoOutcome {
                    value,
                    executed: false,
                })
            }
            BlockState::Violated => {
                // Block semantics override the operation's own lock.
                self.execute_io(mcu, periph, task, site, op, sem, in_block)
            }
            BlockState::Neutral => match sem {
                ReexecSemantics::Always => {
                    self.execute_io(mcu, periph, task, site, op, sem, in_block)
                }
                ReexecSemantics::Single => {
                    let slot = self.io.ensure(mcu, task, site);
                    let locked = self.io.lock_is_set(mcu, slot)?;
                    let forced = self.deps_force(mcu, deps)?;
                    if locked && !forced {
                        let value = self.io.restore_out(mcu, slot)?;
                        return Ok(IoOutcome {
                            value,
                            executed: false,
                        });
                    }
                    self.execute_io(mcu, periph, task, site, op, sem, in_block)
                }
                ReexecSemantics::Timely { window_us } => {
                    let slot = self.io.ensure(mcu, task, site);
                    let locked = self.io.lock_is_set(mcu, slot)?;
                    let forced = self.deps_force(mcu, deps)?;
                    if locked && !forced && self.persistent_timekeeper {
                        let ts = self.io.last_timestamp(mcu, slot)?;
                        let now = mcu.with_cause(EnergyCause::Commit, |m| {
                            m.read_timestamp(WorkKind::Overhead)
                        })?;
                        let fresh = now.saturating_sub(ts) <= window_us;
                        let (ets, e) = (mcu.now_us(), mcu.stats.total_energy_nj());
                        mcu.trace.emit_with(|| {
                            easeio_trace::Event::task_instant(
                                ets,
                                e,
                                task.0,
                                easeio_trace::InstantKind::TimestampCheck,
                                if fresh { "fresh" } else { "expired" },
                            )
                        });
                        if fresh {
                            // Staleness probe for the crash sweep: the
                            // control block judged the sample fresh, so its
                            // true age must be within the window (plus a
                            // small slack for the restore path's own cost).
                            // A hit means a corrupted timestamp let a stale
                            // value through.
                            let age = mcu.now_us().saturating_sub(ts);
                            if age > window_us + 50 {
                                mcu.stats.bump(Counter::ProbeTimelyStale);
                            }
                            let value = self.io.restore_out(mcu, slot)?;
                            return Ok(IoOutcome {
                                value,
                                executed: false,
                            });
                        }
                        mcu.stats.bump(Counter::EaseioTimelyExpired);
                    }
                    self.execute_io(mcu, periph, task, site, op, sem, in_block)
                }
            },
        }
    }

    fn degraded_fallback(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        site: u16,
        window_us: u64,
        _last: Option<(i32, u64)>,
    ) -> Result<Option<i32>, PowerFailure> {
        // Serve the FRAM-resident private output only if its recorded
        // timestamp proves the value is still within the `Timely` window.
        // Without a persistent timekeeper — or without a recorded
        // timestamp — the age is unknowable: refuse rather than let stale
        // data masquerade as fresh (the harness cache in `_last` is the
        // logic analyzer's knowledge, not the MCU's, so it is ignored).
        if !self.persistent_timekeeper {
            return Ok(None);
        }
        let slot = self.io.ensure(mcu, task, site);
        let ts = self.io.last_timestamp(mcu, slot)?;
        if ts == 0 {
            return Ok(None);
        }
        let now = mcu.read_timestamp(WorkKind::Overhead)?;
        if now.saturating_sub(ts) > window_us {
            mcu.stats.bump(Counter::EaseioFallbackRefusedStale);
            return Ok(None);
        }
        let value = self.io.restore_out(mcu, slot)?;
        Ok(Some(value))
    }

    fn io_block_begin(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        block: u16,
        sem: ReexecSemantics,
    ) -> Result<(), PowerFailure> {
        self.blocks.begin(mcu, task, block, sem)
    }

    fn io_block_end(&mut self, mcu: &mut Mcu, task: TaskId) -> Result<(), PowerFailure> {
        self.blocks.end(mcu, task)
    }

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
    ) -> Result<DmaOutcome, Fault> {
        // RelatedConstFlag: did a producing I/O re-execute this attempt?
        let forced = if related.is_empty() {
            false
        } else {
            let c = mcu.cost.flag_check.times(related.len() as u64);
            mcu.with_cause(EnergyCause::DmaPriv, |m| m.spend(WorkKind::Overhead, c))?;
            related.iter().any(|s| self.deps.executed(*s))
        };
        // After a diverged re-execution, a completed transfer must repeat
        // only if its *source* holds data derived from the diverged values
        // (CPU-rewritten ranges or destinations of other forced transfers).
        // Forcing unconditionally would re-run WAR chains — e.g. a staging
        // fetch whose own write-back already clobbered the source — on
        // corrupted data; the phase-1 privatization snapshot of an
        // untainted source stays valid instead.
        let src_tainted = self.diverged && self.range_tainted(src, bytes);
        let executed = self.dma.copy(
            mcu,
            task,
            site,
            src,
            dst,
            bytes,
            annotation,
            forced || src_tainted,
        )?;
        if executed {
            self.dma_written.push((dst, bytes));
            if forced || src_tainted {
                self.tainted_dma.push((dst, bytes));
            }
        }
        // The DMA site is a region boundary: enter the next region. Its
        // snapshot reflects the previous attempt's values; after a diverged
        // re-execution, reconcile per variable instead of blindly restoring.
        self.current_region += 1;
        if self.diverged {
            let written = &self.written_this_attempt;
            let dma_written = &self.dma_written;
            let fresh = move |var: RawVar| -> bool {
                written.contains(&var)
                    || dma_written.iter().any(|(base, len)| {
                        var.addr.region == base.region
                            && var.addr.offset < base.offset + len
                            && base.offset < var.addr.offset + var.width
                    })
            };
            self.regional
                .reconcile_region(mcu, task, self.current_region, &fresh)?;
        } else {
            self.regional.enter_region(mcu, task, self.current_region)?;
        }
        Ok(DmaOutcome { executed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel::{run_app, App, ExecConfig, Inventory, Outcome, TaskCtx, TaskDef, Transition};
    use mcu_emu::{NvVar, Region, Supply, TimerResetConfig};
    use periph::Sensor;
    use std::rc::Rc;
    use std::sync::Arc;

    fn continuous() -> (Mcu, Peripherals) {
        (Mcu::new(Supply::continuous()), Peripherals::new(5))
    }

    #[test]
    fn single_io_executes_once_across_attempts() {
        let (mut mcu, mut p) = continuous();
        let mut rt = EaseIoRuntime::default();
        let t = TaskId(0);
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        let op = IoOp::Sense(Sensor::Temp);
        let r1 = rt
            .io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Single, &[])
            .unwrap();
        assert!(r1.executed);
        // Simulated failure: re-enter.
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        let r2 = rt
            .io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Single, &[])
            .unwrap();
        assert!(!r2.executed, "Single op must be skipped after completion");
        assert_eq!(r2.value, r1.value, "restored value matches the original");
        assert_eq!(mcu.stats.io_executed, 1);
    }

    #[test]
    fn timely_io_reexecutes_only_after_expiry() {
        let (mut mcu, mut p) = continuous();
        let mut rt = EaseIoRuntime::default();
        let t = TaskId(0);
        let sem = ReexecSemantics::Timely { window_us: 50_000 };
        let op = IoOp::Sense(Sensor::Temp);
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        let r1 = rt.io_call(&mut mcu, &mut p, t, 0, &op, sem, &[]).unwrap();
        assert!(r1.executed);
        // Fresh: restored.
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        let r2 = rt.io_call(&mut mcu, &mut p, t, 0, &op, sem, &[]).unwrap();
        assert!(!r2.executed);
        assert_eq!(r2.value, r1.value);
        // Expired: re-executed.
        mcu.spend(WorkKind::App, Cost::new(60_000, 0)).unwrap();
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        let r3 = rt.io_call(&mut mcu, &mut p, t, 0, &op, sem, &[]).unwrap();
        assert!(r3.executed);
        assert_eq!(mcu.stats.counter(Counter::EaseioTimelyExpired), 1);
    }

    #[test]
    fn always_io_reexecutes_every_attempt_without_flag_cost() {
        let (mut mcu, mut p) = continuous();
        let mut rt = EaseIoRuntime::default();
        let t = TaskId(0);
        let op = IoOp::Sense(Sensor::Pres);
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        rt.io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Always, &[])
            .unwrap();
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        let r = rt
            .io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Always, &[])
            .unwrap();
        assert!(r.executed);
        assert_eq!(mcu.stats.io_executed, 2);
        // Always ops carry no lock, but they do record their output for
        // divergence detection.
        assert_eq!(rt.io_slot_count(), 1);
    }

    #[test]
    fn dependence_forces_single_to_reexecute() {
        // Fig. 4's data-dependence rule: Send(Single) consuming a Timely
        // temp must re-send when the temp re-executed.
        let (mut mcu, mut p) = continuous();
        let mut rt = EaseIoRuntime::default();
        let t = TaskId(0);
        let temp = IoOp::Sense(Sensor::Temp);
        let timely = ReexecSemantics::Timely { window_us: 10_000 };
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        let v1 = rt
            .io_call(&mut mcu, &mut p, t, 0, &temp, timely, &[])
            .unwrap();
        let send = IoOp::Send {
            payload: Arc::from([v1.value]),
        };
        rt.io_call(&mut mcu, &mut p, t, 1, &send, ReexecSemantics::Single, &[0])
            .unwrap();
        assert_eq!(p.radio.count(), 1);
        // Long outage: the temp expires and re-executes; the send must too.
        mcu.spend(WorkKind::App, Cost::new(50_000, 0)).unwrap();
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        let v2 = rt
            .io_call(&mut mcu, &mut p, t, 0, &temp, timely, &[])
            .unwrap();
        assert!(v2.executed);
        let send2 = IoOp::Send {
            payload: Arc::from([v2.value]),
        };
        let r = rt
            .io_call(
                &mut mcu,
                &mut p,
                t,
                1,
                &send2,
                ReexecSemantics::Single,
                &[0],
            )
            .unwrap();
        assert!(r.executed, "dependent Single must re-execute");
        assert_eq!(p.radio.count(), 2);
        assert_eq!(*p.radio.packets()[1].payload, [v2.value]);
    }

    #[test]
    fn satisfied_block_skips_inner_ops_and_restores_outputs() {
        let (mut mcu, mut p) = continuous();
        let mut rt = EaseIoRuntime::default();
        let t = TaskId(0);
        let temp = IoOp::Sense(Sensor::Temp);
        let humd = IoOp::Sense(Sensor::Humd);
        // First pass: the Fig. 3 block — Timely temp + Always humd inside a
        // Single block.
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        rt.io_block_begin(&mut mcu, t, 0, ReexecSemantics::Single)
            .unwrap();
        let t1 = rt
            .io_call(
                &mut mcu,
                &mut p,
                t,
                0,
                &temp,
                ReexecSemantics::timely_ms(10),
                &[],
            )
            .unwrap();
        let h1 = rt
            .io_call(&mut mcu, &mut p, t, 1, &humd, ReexecSemantics::Always, &[])
            .unwrap();
        rt.io_block_end(&mut mcu, t).unwrap();
        // Re-execution after failure: block satisfied, nothing re-executes —
        // even the Always op.
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        rt.io_block_begin(&mut mcu, t, 0, ReexecSemantics::Single)
            .unwrap();
        let t2 = rt
            .io_call(
                &mut mcu,
                &mut p,
                t,
                0,
                &temp,
                ReexecSemantics::timely_ms(10),
                &[],
            )
            .unwrap();
        let h2 = rt
            .io_call(&mut mcu, &mut p, t, 1, &humd, ReexecSemantics::Always, &[])
            .unwrap();
        rt.io_block_end(&mut mcu, t).unwrap();
        assert!(!t2.executed && !h2.executed);
        assert_eq!((t2.value, h2.value), (t1.value, h1.value));
        assert_eq!(mcu.stats.io_executed, 2);
    }

    #[test]
    fn violated_timely_block_forces_single_inner_op() {
        // §4.2.1: a Timely block expiring overrides an inner Single lock.
        let (mut mcu, mut p) = continuous();
        let mut rt = EaseIoRuntime::default();
        let t = TaskId(0);
        let pres = IoOp::Sense(Sensor::Pres);
        let block_sem = ReexecSemantics::Timely { window_us: 1_000 };
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        rt.io_block_begin(&mut mcu, t, 0, block_sem).unwrap();
        rt.io_call(&mut mcu, &mut p, t, 0, &pres, ReexecSemantics::Single, &[])
            .unwrap();
        rt.io_block_end(&mut mcu, t).unwrap();
        // Outage far beyond the block window.
        mcu.spend(WorkKind::App, Cost::new(10_000, 0)).unwrap();
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        rt.io_block_begin(&mut mcu, t, 0, block_sem).unwrap();
        let r = rt
            .io_call(&mut mcu, &mut p, t, 0, &pres, ReexecSemantics::Single, &[])
            .unwrap();
        assert!(r.executed, "violated block re-executes Single inner ops");
        rt.io_block_end(&mut mcu, t).unwrap();
    }

    #[test]
    fn without_persistent_timer_timely_degrades_to_always() {
        let (mut mcu, mut p) = continuous();
        let mut rt = EaseIoRuntime::new(EaseIoConfig {
            persistent_timekeeper: false,
            ..EaseIoConfig::default()
        });
        let t = TaskId(0);
        let sem = ReexecSemantics::Timely {
            window_us: 1_000_000,
        };
        let op = IoOp::Sense(Sensor::Temp);
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        rt.io_call(&mut mcu, &mut p, t, 0, &op, sem, &[]).unwrap();
        // Immediately after (well within any window) the sample would be
        // fresh — but without a persistent timer the runtime cannot know,
        // so it must re-sense.
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        let r = rt.io_call(&mut mcu, &mut p, t, 0, &op, sem, &[]).unwrap();
        assert!(r.executed, "no timekeeper → conservative re-execution");
        assert_eq!(mcu.stats.io_executed, 2);
    }

    #[test]
    fn commit_resets_semantics_for_next_activation() {
        let (mut mcu, mut p) = continuous();
        let mut rt = EaseIoRuntime::default();
        let t = TaskId(0);
        let op = IoOp::Sense(Sensor::Temp);
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        rt.io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Single, &[])
            .unwrap();
        rt.on_task_commit(&mut mcu, t).unwrap();
        // A *new* activation of the same task senses again.
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        let r = rt
            .io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Single, &[])
            .unwrap();
        assert!(r.executed);
    }

    #[test]
    fn written_variables_compare_as_a_set() {
        let (mut mcu, _) = continuous();
        let u = NvVar::<i32>::alloc(&mut mcu.mem, Region::Fram).raw();
        let v = NvVar::<i32>::alloc(&mut mcu.mem, Region::Fram).raw();
        let mut a = EaseIoRuntime::default();
        let mut b = a.clone();
        a.written_this_attempt.insert(u);
        a.written_this_attempt.insert(v);
        b.written_this_attempt.insert(v);
        b.written_this_attempt.insert(u);
        assert_eq!(a, b, "write order must not matter");
        b.written_this_attempt.retain(|&w| w != u);
        assert_ne!(a, b);
    }

    #[test]
    fn end_to_end_unsafe_branch_is_safe_under_easeio() {
        // The Fig. 2c app: branch on a sensed temperature; blind
        // re-execution can set both flags, EaseIO cannot.
        let mk_app = |mcu: &mut Mcu| {
            let stdy: NvVar<u8> = NvVar::alloc(&mut mcu.mem, Region::Fram);
            let alarm: NvVar<u8> = NvVar::alloc(&mut mcu.mem, Region::Fram);
            let body = move |ctx: &mut TaskCtx<'_>| {
                let temp = ctx.call_io(IoOp::Sense(Sensor::Temp), ReexecSemantics::Single)?;
                ctx.compute(2_000)?;
                if temp < 1000 {
                    ctx.write(stdy, 1u8)?;
                } else {
                    ctx.write(alarm, 1u8)?;
                }
                ctx.compute(2_000)?;
                Ok(Transition::Done)
            };
            let app = App {
                name: "branch",
                tasks: vec![TaskDef {
                    name: "sense",
                    body: Rc::new(body),
                }],
                entry: TaskId(0),
                inventory: Inventory::default(),
                verify: None,
            };
            (app, stdy, alarm)
        };
        // Try many seeds; EaseIO must never set both flags.
        for seed in 0..40 {
            let cfg = TimerResetConfig {
                on_min_us: 2_000,
                on_max_us: 7_000,
                off_min_us: 2_000,
                off_max_us: 20_000,
            };
            let mut mcu = Mcu::new(Supply::timer(cfg, seed));
            let mut p = Peripherals::new(seed.wrapping_mul(7));
            let (app, stdy, alarm) = mk_app(&mut mcu);
            let mut rt = EaseIoRuntime::default();
            let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
            assert_eq!(r.outcome, Outcome::Completed);
            let both = stdy.get(&mcu.mem) == 1 && alarm.get(&mcu.mem) == 1;
            assert!(!both, "seed {seed}: EaseIO set both stdy and alarm");
        }
    }
}

#[cfg(test)]
mod divergence_tests {
    use super::*;
    use kernel::{run_app, App, ExecConfig, Inventory, Outcome, TaskCtx, TaskDef, Transition};
    use mcu_emu::{NvBuf, NvVar, Region, Supply, TimerResetConfig};
    use periph::Sensor;
    use std::rc::Rc;

    /// The distilled stale-snapshot scenario the model checker found
    /// (DESIGN.md §8): a Timely block whose refresh changes a value that
    /// crosses a DMA region boundary. Regional snapshots must reconcile,
    /// not blindly restore.
    #[test]
    fn refreshed_timely_value_survives_region_boundaries() {
        let mk = |mcu: &mut Mcu| -> (App, NvVar<i32>, NvVar<i32>) {
            let reading: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
            let used: NvVar<i32> = NvVar::alloc(&mut mcu.mem, Region::Fram);
            let a: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, 8);
            let b: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, 8);
            let body = move |ctx: &mut TaskCtx<'_>| -> kernel::TaskResult {
                // Region 0: a short-window Timely sense feeding a variable.
                let t = ctx.io_block(ReexecSemantics::Timely { window_us: 2_000 }, |ctx| {
                    ctx.call_io(IoOp::Sense(Sensor::Temp), ReexecSemantics::Always)
                })?;
                ctx.write(reading, t)?;
                // Region boundary: an unrelated Single DMA.
                ctx.dma_copy(a.addr(), b.addr(), 8)?;
                // Region 1: consume the value written in region 0.
                let r = ctx.read(reading)?;
                ctx.write(used, r)?;
                ctx.compute(2_500)?;
                Ok(Transition::Done)
            };
            let app = App {
                name: "divergence",
                tasks: vec![TaskDef {
                    name: "t",
                    body: Rc::new(body),
                }],
                entry: kernel::TaskId(0),
                inventory: Inventory::default(),
                verify: None,
            };
            (app, reading, used)
        };
        // Long outages guarantee every re-entry expires the 2 ms block.
        for seed in 0..60u64 {
            let cfg = TimerResetConfig {
                on_min_us: 4_000,
                on_max_us: 8_000,
                off_min_us: 20_000,
                off_max_us: 80_000,
            };
            let mut mcu = Mcu::new(Supply::timer(cfg, seed));
            let mut p = Peripherals::new(seed);
            let (app, reading, used) = mk(&mut mcu);
            let mut rt = EaseIoRuntime::default();
            let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
            assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
            // Memory consistency: the consumed value is exactly the final
            // reading — never a stale snapshot of an earlier attempt.
            assert_eq!(
                used.get(&mcu.mem),
                reading.get(&mcu.mem),
                "seed {seed}: region 1 used a stale region-0 value"
            );
        }
    }

    /// Deterministic Always ops (same output on re-execution) must NOT
    /// trigger divergence — otherwise every re-attempt would needlessly
    /// re-run downstream DMAs.
    #[test]
    fn deterministic_reexecution_does_not_diverge() {
        let (mut mcu, mut p) = (Mcu::new(Supply::continuous()), Peripherals::new(1));
        let mut rt = EaseIoRuntime::default();
        let t = TaskId(0);
        // A Delay op always returns 0: re-executing it cannot diverge.
        let op = IoOp::Delay {
            cost: mcu_emu::Cost::new(100, 100),
        };
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        rt.io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Always, &[])
            .unwrap();
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        rt.io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Always, &[])
            .unwrap();
        assert_eq!(mcu.stats.counter(Counter::EaseioDivergences), 0);
    }

    /// A sensor whose reading changes across attempts does diverge.
    #[test]
    fn changed_sensor_reading_registers_divergence() {
        let (mut mcu, mut p) = (Mcu::new(Supply::continuous()), Peripherals::new(1));
        let mut rt = EaseIoRuntime::default();
        let t = TaskId(0);
        let op = IoOp::Sense(Sensor::Temp);
        rt.on_task_entry(&mut mcu, t, false).unwrap();
        let a = rt
            .io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Always, &[])
            .unwrap();
        // Let the environment drift well past a noise bucket.
        mcu.spend(WorkKind::App, Cost::new(500_000, 0)).unwrap();
        rt.on_task_entry(&mut mcu, t, true).unwrap();
        let b = rt
            .io_call(&mut mcu, &mut p, t, 0, &op, ReexecSemantics::Always, &[])
            .unwrap();
        assert_ne!(a.value, b.value, "environment must have drifted");
        assert_eq!(mcu.stats.counter(Counter::EaseioDivergences), 1);
    }
}
