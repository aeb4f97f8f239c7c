//! Run-time DMA semantics resolution and memory-safe transfers (paper §4.3).
//!
//! `_DMA_copy` inspects its operands' memory types at run time:
//!
//! * destination in FRAM → **Single**: the copied data survives power
//!   failures, so a completed transfer is never repeated;
//! * FRAM source, volatile destination → **Private**: must repeat after
//!   every reboot, but a later write to the source would corrupt the repeat
//!   (WAR), so the transfer is split into two phases through a privatization
//!   buffer — source→buffer once, buffer→destination on every attempt;
//! * volatile→volatile → **Always**: repeating is harmless;
//! * the `Exclude` annotation opts constant data out of privatization and
//!   forces **Always** at compile time (evaluated as "EaseIO/Op").
//!
//! The privatization buffers come from a fixed pool whose size the
//! programmer configures (the paper uses 4 KB); exhausting it is a hard
//! error, mirroring the buffer-limit discussion in the paper's §6.

use kernel::{DmaAnnotation, DmaError, Fault, TaskId};
use mcu_emu::{
    clone_map_from, Addr, AllocTag, Counter, EnergyCause, IntMap, Mcu, RawVar, Region, WorkKind,
};
use periph::dma::{classify, DmaClass};

/// Re-execution policy resolved for one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedDma {
    /// Completed transfer never repeats.
    Single,
    /// Two-phase transfer through a privatization buffer.
    Private,
    /// Plain transfer, repeated every attempt.
    Always,
}

/// Resolves the policy from operands and annotation.
pub fn resolve(src: Addr, dst: Addr, annotation: DmaAnnotation) -> ResolvedDma {
    if annotation == DmaAnnotation::Exclude {
        return ResolvedDma::Always;
    }
    match classify(src, dst) {
        DmaClass::ToNonVolatile => ResolvedDma::Single,
        DmaClass::NonVolatileToVolatile => ResolvedDma::Private,
        DmaClass::VolatileToVolatile => ResolvedDma::Always,
    }
}

/// FRAM control state of one `_DMA_copy` site.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DmaSlot {
    /// Completion flag for `Single` transfers.
    done: RawVar,
    /// Phase-1 flag for `Private` transfers (privatization buffer valid).
    phase1: RawVar,
    /// Privatization buffer, allocated on first `Private` use.
    priv_buf: Option<Addr>,
}

/// How privatization buffers are assigned to `Private` DMA sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferMode {
    /// One dedicated buffer per DMA site, sized to the site's transfer.
    /// Simple and safe; total memory grows with the number of sites
    /// (the paper's evaluated configuration).
    Dedicated,
    /// Buffers are shared across *tasks*: site `i` of every task maps to
    /// shared slot `i`, each of `slot_bytes` bytes. Safe because only one
    /// task is active at a time and commit clears the phase flags, so a
    /// slot's contents are never needed after its task commits. A transfer
    /// larger than `slot_bytes` is a hard error — the size check the
    /// paper's §6 leaves to future compile-time analysis.
    Shared {
        /// Size of each shared slot in bytes.
        slot_bytes: u32,
    },
}

/// Table of DMA control slots plus the privatization-buffer pool.
#[derive(Debug, PartialEq)]
pub struct DmaTable {
    slots: IntMap<(TaskId, u16), DmaSlot>,
    pool_limit: u32,
    pool_used: u32,
    mode: BufferMode,
    /// Shared slots (BufferMode::Shared): site index → buffer.
    shared: IntMap<u16, Addr>,
    dirty: Vec<(TaskId, u16)>,
}

impl Clone for DmaTable {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            shared: self.shared.clone(),
            dirty: self.dirty.clone(),
            ..*self
        }
    }

    /// Copies `source` into this table's buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            slots,
            pool_limit,
            pool_used,
            mode,
            shared,
            dirty,
        } = self;
        clone_map_from(slots, &source.slots);
        *pool_limit = source.pool_limit;
        *pool_used = source.pool_used;
        *mode = source.mode;
        clone_map_from(shared, &source.shared);
        dirty.clone_from(&source.dirty);
    }
}

impl DmaTable {
    /// Creates a table with a privatization pool of `pool_limit` bytes and
    /// dedicated per-site buffers.
    pub fn new(pool_limit: u32) -> Self {
        Self::with_mode(pool_limit, BufferMode::Dedicated)
    }

    /// Creates a table with an explicit buffer-assignment mode.
    pub fn with_mode(pool_limit: u32, mode: BufferMode) -> Self {
        Self {
            slots: IntMap::default(),
            pool_limit,
            pool_used: 0,
            mode,
            shared: IntMap::default(),
            dirty: Vec::new(),
        }
    }

    fn ensure(&mut self, mcu: &mut Mcu, task: TaskId, site: u16) -> DmaSlot {
        *self.slots.entry((task, site)).or_insert_with(|| {
            let alloc = |mcu: &mut Mcu, width: u32| RawVar {
                addr: mcu.mem.alloc(Region::Fram, width, AllocTag::Runtime),
                width,
            };
            DmaSlot {
                done: alloc(mcu, 1),
                phase1: alloc(mcu, 1),
                priv_buf: None,
            }
        })
    }

    fn ensure_priv_buf(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        site: u16,
        bytes: u32,
    ) -> Result<Addr, DmaError> {
        if let BufferMode::Shared { slot_bytes } = self.mode {
            if bytes > slot_bytes {
                // Paper §6: the compile-time size check. Surfaced as a typed
                // error so the simulator can report it instead of aborting.
                return Err(DmaError::OversizedTransfer { bytes, slot_bytes });
            }
            if let Some(buf) = self.shared.get(&site) {
                return Ok(*buf);
            }
            if self.pool_used + slot_bytes > self.pool_limit {
                return Err(DmaError::PoolExhausted {
                    requested: slot_bytes,
                    used: self.pool_used,
                    limit: self.pool_limit,
                });
            }
            self.pool_used += slot_bytes;
            let buf = mcu
                .mem
                .alloc(Region::Fram, slot_bytes, AllocTag::DmaPrivBuf);
            self.shared.insert(site, buf);
            return Ok(buf);
        }
        let slot = self.slots.get_mut(&(task, site)).expect("slot exists");
        if let Some(buf) = slot.priv_buf {
            return Ok(buf);
        }
        // Paper §6, "DMA Privatization Buffer Limits".
        if self.pool_used + bytes > self.pool_limit {
            return Err(DmaError::PoolExhausted {
                requested: bytes,
                used: self.pool_used,
                limit: self.pool_limit,
            });
        }
        self.pool_used += bytes;
        let buf = mcu.mem.alloc(Region::Fram, bytes, AllocTag::DmaPrivBuf);
        slot.priv_buf = Some(buf);
        Ok(buf)
    }

    /// Executes `_DMA_copy` under the resolved policy. `dep_forced` is the
    /// `RelatedConstFlag`: a related I/O operation re-executed this attempt,
    /// so stale skip/phase state must be refreshed (paper §4.3.1).
    ///
    /// Returns whether the destination was written this call.
    #[allow(clippy::too_many_arguments)]
    pub fn copy(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        site: u16,
        src: Addr,
        dst: Addr,
        bytes: u32,
        annotation: DmaAnnotation,
        dep_forced: bool,
    ) -> Result<bool, Fault> {
        match resolve(src, dst, annotation) {
            ResolvedDma::Always => {
                // `Exclude` (or volatile→volatile): no flags, no buffers.
                kernel::io::perform_dma(mcu, src, dst, bytes, WorkKind::App)?;
                mcu.stats.bump(Counter::EaseioDmaAlways);
                Ok(true)
            }
            ResolvedDma::Single => {
                let slot = self.ensure(mcu, task, site);
                let c = mcu.cost.flag_check;
                mcu.with_cause(EnergyCause::DmaPriv, |m| m.spend(WorkKind::Overhead, c))?;
                if slot.done.load(&mcu.mem) != 0 && !dep_forced {
                    mcu.stats.bump(Counter::EaseioDmaSingleSkipped);
                    return Ok(false);
                }
                kernel::io::perform_dma(mcu, src, dst, bytes, WorkKind::App)?;
                let c = mcu.cost.flag_write;
                mcu.with_cause(EnergyCause::DmaPriv, |m| m.spend(WorkKind::Overhead, c))?;
                slot.done.store(&mut mcu.mem, 1);
                // A dep-forced repeat re-dirties an already-listed site; a
                // duplicate entry would double-price the commit.
                if !self.dirty.contains(&(task, site)) {
                    self.dirty.push((task, site));
                }
                mcu.stats.bump(Counter::EaseioDmaSingleExecuted);
                Ok(true)
            }
            ResolvedDma::Private => {
                self.ensure(mcu, task, site);
                let priv_buf = self.ensure_priv_buf(mcu, task, site, bytes)?;
                let slot = self.slots[&(task, site)];
                // Phase 1: source → privatization buffer, once per
                // activation (or again if a related I/O refreshed the
                // source). This is privatization work: overhead.
                let c = mcu.cost.flag_check;
                mcu.with_cause(EnergyCause::DmaPriv, |m| m.spend(WorkKind::Overhead, c))?;
                let phase1_done = slot.phase1.load(&mcu.mem) != 0;
                if !phase1_done || dep_forced {
                    let cost = periph::dma::transfer_cost(&mcu.cost, bytes);
                    mcu.with_cause(EnergyCause::DmaPriv, |m| m.spend(WorkKind::Overhead, cost))?;
                    periph::dma::transfer(&mut mcu.mem, src, priv_buf, bytes);
                    let c = mcu.cost.flag_write;
                    mcu.with_cause(EnergyCause::DmaPriv, |m| m.spend(WorkKind::Overhead, c))?;
                    slot.phase1.store(&mut mcu.mem, 1);
                    // Re-privatization after a failure (or dep-force) must
                    // not enter the site twice: commit clears it once.
                    if !self.dirty.contains(&(task, site)) {
                        self.dirty.push((task, site));
                    }
                    mcu.stats.bump(Counter::EaseioDmaPrivatizations);
                }
                // Phase 2: buffer → destination, every attempt (the
                // destination is volatile and was lost at the failure).
                kernel::io::perform_dma(mcu, priv_buf, dst, bytes, WorkKind::App)?;
                mcu.stats.bump(Counter::EaseioDmaPrivateExecuted);
                Ok(true)
            }
        }
    }

    /// Dirty sites for `task` (commit pricing).
    pub fn dirty_for(&self, task: TaskId) -> u64 {
        self.dirty.iter().filter(|(t, _)| *t == task).count() as u64
    }

    /// Distinct dirty sites for `task`. Commit pricing must equal this —
    /// `clear_task` resets each site's flags exactly once — and the crash
    /// sweep's pricing probe compares the two.
    pub fn distinct_dirty_for(&self, task: TaskId) -> u64 {
        crate::flags::distinct_for(&self.dirty, task)
    }

    /// Clears `task`'s DMA flags at commit (caller priced it).
    pub fn clear_task(&mut self, mcu: &mut Mcu, task: TaskId) -> u64 {
        let mut cleared = 0;
        self.dirty.retain(|(t, s)| {
            if *t == task {
                if let Some(slot) = self.slots.get(&(*t, *s)) {
                    slot.done.store(&mut mcu.mem, 0);
                    slot.phase1.store(&mut mcu.mem, 0);
                }
                cleared += 1;
                false
            } else {
                true
            }
        });
        cleared
    }

    /// Crash-consistency probe: a `Private` site's phase-1 flag and the
    /// current contents of its privatization buffer, read directly from
    /// memory without charging the MCU. `None` until the site's first copy
    /// allocates its buffer. The power-failure sweep uses this to check
    /// that the phase-1 flag is never set while the buffer is stale.
    pub fn probe_phase1(
        &self,
        mcu: &Mcu,
        task: TaskId,
        site: u16,
        bytes: u32,
    ) -> Option<(bool, Vec<u8>)> {
        let slot = self.slots.get(&(task, site))?;
        let buf = slot.priv_buf.or_else(|| self.shared.get(&site).copied())?;
        Some((
            slot.phase1.load(&mcu.mem) != 0,
            mcu.mem.read_bytes(buf, bytes).to_vec(),
        ))
    }

    /// Bytes of privatization pool in use (footprint reporting).
    pub fn pool_used(&self) -> u32 {
        self.pool_used
    }

    /// Number of DMA slots allocated.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::Supply;

    fn mcu() -> Mcu {
        Mcu::new(Supply::continuous())
    }

    fn fram(mcu: &mut Mcu, bytes: u32) -> Addr {
        mcu.mem.alloc(Region::Fram, bytes, AllocTag::App)
    }

    fn sram(mcu: &mut Mcu, bytes: u32) -> Addr {
        mcu.mem.alloc(Region::Sram, bytes, AllocTag::App)
    }

    #[test]
    fn resolution_rules() {
        let f = Addr::new(Region::Fram, 0);
        let s = Addr::new(Region::Sram, 0);
        assert_eq!(resolve(f, f, DmaAnnotation::Auto), ResolvedDma::Single);
        assert_eq!(resolve(s, f, DmaAnnotation::Auto), ResolvedDma::Single);
        assert_eq!(resolve(f, s, DmaAnnotation::Auto), ResolvedDma::Private);
        assert_eq!(resolve(s, s, DmaAnnotation::Auto), ResolvedDma::Always);
        assert_eq!(resolve(f, s, DmaAnnotation::Exclude), ResolvedDma::Always);
    }

    #[test]
    fn single_executes_once_then_skips() {
        let mut m = mcu();
        let mut t = DmaTable::new(4096);
        let src = fram(&mut m, 4);
        let dst = fram(&mut m, 4);
        m.mem.write_bytes(src, &[1, 2, 3, 4]);
        let ran = t
            .copy(
                &mut m,
                TaskId(0),
                0,
                src,
                dst,
                4,
                DmaAnnotation::Auto,
                false,
            )
            .unwrap();
        assert!(ran);
        assert_eq!(m.mem.read_bytes(dst, 4), &[1, 2, 3, 4]);
        // Re-execution after a failure: skipped, destination persists.
        let ran = t
            .copy(
                &mut m,
                TaskId(0),
                0,
                src,
                dst,
                4,
                DmaAnnotation::Auto,
                false,
            )
            .unwrap();
        assert!(!ran);
        assert_eq!(m.stats.counter(Counter::EaseioDmaSingleSkipped), 1);
    }

    #[test]
    fn single_reexecutes_when_dep_forced() {
        let mut m = mcu();
        let mut t = DmaTable::new(4096);
        let src = fram(&mut m, 4);
        let dst = fram(&mut m, 4);
        t.copy(
            &mut m,
            TaskId(0),
            0,
            src,
            dst,
            4,
            DmaAnnotation::Auto,
            false,
        )
        .unwrap();
        // A related Always I/O re-executed: the DMA must repeat so the fresh
        // output reaches non-volatile memory.
        m.mem.write_bytes(src, &[9, 9, 9, 9]);
        let ran = t
            .copy(&mut m, TaskId(0), 0, src, dst, 4, DmaAnnotation::Auto, true)
            .unwrap();
        assert!(ran);
        assert_eq!(m.mem.read_bytes(dst, 4), &[9, 9, 9, 9]);
    }

    #[test]
    fn private_is_war_safe() {
        // The §4.3(ii) scenario: FRAM→SRAM copy whose source is later
        // overwritten; the repeat must deliver the *original* data.
        let mut m = mcu();
        let mut t = DmaTable::new(4096);
        let src = fram(&mut m, 4);
        let dst = sram(&mut m, 4);
        m.mem.write_bytes(src, &[5, 5, 5, 5]);
        t.copy(
            &mut m,
            TaskId(0),
            0,
            src,
            dst,
            4,
            DmaAnnotation::Auto,
            false,
        )
        .unwrap();
        assert_eq!(m.mem.read_bytes(dst, 4), &[5, 5, 5, 5]);
        // Another DMA overwrites the source (WAR), then power fails.
        m.mem.write_bytes(src, &[6, 6, 6, 6]);
        m.mem.power_failure();
        // Re-execution: phase 2 repeats from the privatization buffer and
        // still delivers the original bytes.
        t.copy(
            &mut m,
            TaskId(0),
            0,
            src,
            dst,
            4,
            DmaAnnotation::Auto,
            false,
        )
        .unwrap();
        assert_eq!(m.mem.read_bytes(dst, 4), &[5, 5, 5, 5]);
        assert_eq!(m.stats.counter(Counter::EaseioDmaPrivatizations), 1);
        assert_eq!(m.stats.counter(Counter::EaseioDmaPrivateExecuted), 2);
    }

    #[test]
    fn exclude_skips_privatization_entirely() {
        let mut m = mcu();
        let mut t = DmaTable::new(4096);
        let src = fram(&mut m, 8);
        let dst = sram(&mut m, 8);
        t.copy(
            &mut m,
            TaskId(0),
            0,
            src,
            dst,
            8,
            DmaAnnotation::Exclude,
            false,
        )
        .unwrap();
        assert_eq!(t.pool_used(), 0);
        assert_eq!(m.stats.counter(Counter::EaseioDmaPrivatizations), 0);
        assert_eq!(m.stats.counter(Counter::EaseioDmaAlways), 1);
    }

    #[test]
    fn pool_limit_is_a_typed_error_not_a_panic() {
        // Regression: this used to `assert!` and abort the whole process;
        // now it surfaces as `Fault::Dma` so the caller can degrade
        // gracefully (nonzero exit, report entry).
        let mut m = mcu();
        let mut t = DmaTable::new(16);
        let src = fram(&mut m, 32);
        let dst = sram(&mut m, 32);
        let err = t
            .copy(
                &mut m,
                TaskId(0),
                0,
                src,
                dst,
                32,
                DmaAnnotation::Auto,
                false,
            )
            .unwrap_err();
        assert_eq!(
            err,
            Fault::Dma(DmaError::PoolExhausted {
                requested: 32,
                used: 0,
                limit: 16
            })
        );
        assert!(err.to_string().contains("privatization pool exhausted"));
        // The pool is untouched by the failed attempt.
        assert_eq!(t.pool_used(), 0);
    }

    #[test]
    fn dep_forced_repeat_does_not_double_count_dirty_site() {
        // Regression for the dirty-list duplication bug: a dep-forced Single
        // repeat (and a re-privatized Private phase 1) pushed the same
        // (task, site) twice, so commit priced two flag-clears for one site.
        let mut m = mcu();
        let mut t = DmaTable::new(4096);
        let task = TaskId(0);
        let src = fram(&mut m, 4);
        let dst = fram(&mut m, 4);
        for forced in [false, true, true] {
            t.copy(&mut m, task, 0, src, dst, 4, DmaAnnotation::Auto, forced)
                .unwrap();
        }
        assert_eq!(t.dirty_for(task), 1, "one site, one dirty entry");
        assert_eq!(t.dirty_for(task), t.distinct_dirty_for(task));
        // Same for a Private site whose phase 1 repeats under dep-force.
        let vdst = sram(&mut m, 4);
        for forced in [false, true] {
            t.copy(&mut m, task, 1, src, vdst, 4, DmaAnnotation::Auto, forced)
                .unwrap();
        }
        assert_eq!(t.dirty_for(task), 2);
        assert_eq!(t.dirty_for(task), t.distinct_dirty_for(task));
        assert_eq!(t.clear_task(&mut m, task), 2);
    }

    #[test]
    fn commit_resets_flags_for_next_activation() {
        let mut m = mcu();
        let mut t = DmaTable::new(4096);
        let src = fram(&mut m, 4);
        let dst = fram(&mut m, 4);
        t.copy(
            &mut m,
            TaskId(0),
            0,
            src,
            dst,
            4,
            DmaAnnotation::Auto,
            false,
        )
        .unwrap();
        assert_eq!(t.clear_task(&mut m, TaskId(0)), 1);
        // Next activation of the same task executes the DMA again.
        m.mem.write_bytes(src, &[7, 7, 7, 7]);
        let ran = t
            .copy(
                &mut m,
                TaskId(0),
                0,
                src,
                dst,
                4,
                DmaAnnotation::Auto,
                false,
            )
            .unwrap();
        assert!(ran);
        assert_eq!(m.mem.read_bytes(dst, 4), &[7, 7, 7, 7]);
    }

    #[test]
    fn private_buffer_reused_across_activations() {
        let mut m = mcu();
        let mut t = DmaTable::new(64);
        let src = fram(&mut m, 32);
        let dst = sram(&mut m, 32);
        for _ in 0..4 {
            t.copy(
                &mut m,
                TaskId(0),
                0,
                src,
                dst,
                32,
                DmaAnnotation::Auto,
                false,
            )
            .unwrap();
            t.clear_task(&mut m, TaskId(0));
        }
        assert_eq!(t.pool_used(), 32, "one buffer, reused");
    }
}

#[cfg(test)]
mod shared_mode_tests {
    use super::*;
    use mcu_emu::Supply;

    fn mcu() -> Mcu {
        Mcu::new(Supply::continuous())
    }

    #[test]
    fn shared_slots_are_reused_across_tasks() {
        let mut m = mcu();
        let mut t = DmaTable::with_mode(4096, BufferMode::Shared { slot_bytes: 64 });
        let src = m.mem.alloc(Region::Fram, 64, AllocTag::App);
        let dst = m.mem.alloc(Region::Sram, 64, AllocTag::App);
        // Five tasks each run a Private transfer at site 0: one shared slot.
        for task in 0..5u16 {
            t.copy(
                &mut m,
                TaskId(task),
                0,
                src,
                dst,
                64,
                DmaAnnotation::Auto,
                false,
            )
            .unwrap();
            t.clear_task(&mut m, TaskId(task));
        }
        assert_eq!(t.pool_used(), 64, "one shared slot, not five");
        assert_eq!(m.mem.read_bytes(dst, 4), m.mem.read_bytes(src, 4));
    }

    #[test]
    fn shared_mode_preserves_war_safety() {
        // Same §4.3(ii) scenario as the dedicated-mode test: the repeat must
        // deliver the original data even though the source was overwritten.
        let mut m = mcu();
        let mut t = DmaTable::with_mode(4096, BufferMode::Shared { slot_bytes: 64 });
        let src = m.mem.alloc(Region::Fram, 8, AllocTag::App);
        let dst = m.mem.alloc(Region::Sram, 8, AllocTag::App);
        m.mem.write_bytes(src, &[1, 1, 1, 1, 1, 1, 1, 1]);
        t.copy(
            &mut m,
            TaskId(0),
            0,
            src,
            dst,
            8,
            DmaAnnotation::Auto,
            false,
        )
        .unwrap();
        m.mem.write_bytes(src, &[2; 8]);
        m.mem.power_failure();
        t.copy(
            &mut m,
            TaskId(0),
            0,
            src,
            dst,
            8,
            DmaAnnotation::Auto,
            false,
        )
        .unwrap();
        assert_eq!(m.mem.read_bytes(dst, 8), &[1; 8]);
    }

    #[test]
    fn oversized_transfer_is_a_typed_error() {
        // Regression: previously an `assert!` abort; now a typed error the
        // executor converts into `Outcome::Fault`.
        let mut m = mcu();
        let mut t = DmaTable::with_mode(4096, BufferMode::Shared { slot_bytes: 16 });
        let src = m.mem.alloc(Region::Fram, 32, AllocTag::App);
        let dst = m.mem.alloc(Region::Sram, 32, AllocTag::App);
        let err = t
            .copy(
                &mut m,
                TaskId(0),
                0,
                src,
                dst,
                32,
                DmaAnnotation::Auto,
                false,
            )
            .unwrap_err();
        assert_eq!(
            err,
            kernel::Fault::Dma(kernel::DmaError::OversizedTransfer {
                bytes: 32,
                slot_bytes: 16
            })
        );
        assert!(err
            .to_string()
            .contains("exceeds the shared privatization slot"));
    }

    #[test]
    fn weather_app_runs_with_shared_buffers_and_uses_less_fram() {
        use crate::{EaseIoConfig, EaseIoRuntime};
        use kernel::{run_app, ExecConfig, Outcome, Verdict};

        let run = |mode: BufferMode| {
            let mut m = mcu();
            let mut p = periph::Peripherals::new(7);
            let app = apps_build(&mut m);
            let mut rt = EaseIoRuntime::new(EaseIoConfig {
                dma_priv_pool_bytes: 4096,
                dma_buffer_mode: mode,
                ..EaseIoConfig::default()
            });
            let r = run_app(&app, &mut rt, &mut m, &mut p, &ExecConfig::default());
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(r.verdict, Some(Verdict::Correct));
            rt.dma_pool_used()
        };
        let dedicated = run(BufferMode::Dedicated);
        let shared = run(BufferMode::Shared { slot_bytes: 512 });
        assert!(
            shared < dedicated,
            "shared slots ({shared} B) must undercut dedicated ({dedicated} B)"
        );
    }

    // A tiny DMA-heavy multi-task app local to this test (avoids a circular
    // dev-dependency on the `apps` crate).
    fn apps_build(mcu: &mut Mcu) -> kernel::App {
        use kernel::{App, Inventory, TaskCtx, TaskDef, TaskResult, Transition};
        use mcu_emu::NvBuf;
        use std::rc::Rc;

        let srcs: Vec<NvBuf<i16>> = (0..3)
            .map(|_| NvBuf::alloc(&mut mcu.mem, Region::Fram, 128))
            .collect();
        let stage: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::LeaRam, 128);
        let out: NvBuf<i16> = NvBuf::alloc(&mut mcu.mem, Region::Fram, 128);
        for (i, s) in srcs.iter().enumerate() {
            let data: Vec<i16> = (0..128).map(|j| (i as i16 + 1) * (j as i16 % 7)).collect();
            s.fill_from(&mut mcu.mem, &data);
        }
        let mk = |i: usize, src: NvBuf<i16>, last: bool| {
            move |ctx: &mut TaskCtx<'_>| -> TaskResult {
                ctx.dma_copy(src.addr(), stage.addr(), 256)?; // Private
                ctx.dma_copy(stage.addr(), out.addr(), 256)?; // Single
                ctx.compute(300)?;
                if last {
                    Ok(Transition::Done)
                } else {
                    Ok(Transition::To(kernel::TaskId(i as u16 + 1)))
                }
            }
        };
        let expected: Vec<i16> = (0..128).map(|j| 3 * (j % 7)).collect();
        let verify = move |m: &Mcu, _p: &periph::Peripherals| {
            if out.to_vec(&m.mem) == expected {
                kernel::Verdict::Correct
            } else {
                kernel::Verdict::Incorrect("stage pipeline mismatch".into())
            }
        };
        App {
            name: "dma-pipeline",
            tasks: (0..3)
                .map(|i| TaskDef {
                    name: "stage",
                    body: Rc::new(mk(i, srcs[i], i == 2)) as _,
                })
                .collect(),
            entry: kernel::TaskId(0),
            inventory: Inventory::default(),
            verify: Some(Rc::new(verify)),
        }
    }
}
