//! The MCU facade: clock + memory + supply + cost table + ledger.
//!
//! All simulated execution funnels through [`Mcu::spend`]: it prices the
//! work, pushes it through the power supply, and — on interruption — clears
//! volatile memory and advances the clock across the dead period. The
//! invariant every runtime relies on is *spend first, then mutate*: an
//! operation's memory effect is applied only after its cost was paid in
//! full, so each primitive operation is atomic with respect to power
//! failures (word writes to FRAM are atomic on the real part as well).

use crate::clock::Clock;
use crate::energy::{Cost, CostTable};
use crate::memory::{MemSnapshot, Memory};
use crate::nvstore::RawVar;
use crate::power::Supply;
use crate::{CauseSample, Counter, EnergyCause, RunStats, WorkKind, CAUSE_COUNT, KERNEL_TASK};
use easeio_trace::{Event, EventKind, InstantKind, SpanKind, Status, TraceSink, NO_SITE, NO_TASK};

/// Longest piece of a spend the supply is stepped through at once (µs).
const SLICE_US: u64 = 1_000;

/// Volatile energy-attribution context: which cause the machine is
/// currently spending under. This is *not* part of the persistent machine
/// state — it is derived control flow, reset by the executor at every boot
/// and attempt start, and by [`Mcu::restore`] (a crash sweep must never let
/// one injection run's attribution context bleed into the next).
#[derive(Debug, Clone)]
struct AttributionCtx {
    /// Cause for application-kind spends: `Progress` on a first attempt,
    /// `ReexecCompute` while replaying after a reboot.
    base: EnergyCause,
    /// Scope stack for overhead-kind spends; the top wins, empty means
    /// `RuntimeMisc`. Application-kind spends are never scoped — waste that
    /// is only recognizable after the fact (redundant I/O, faulted
    /// attempts) is moved by delta reattribution instead.
    scope: Vec<EnergyCause>,
    /// Task the current spends belong to ([`KERNEL_TASK`] outside tasks).
    task: u16,
}

impl Default for AttributionCtx {
    fn default() -> Self {
        Self {
            base: EnergyCause::Progress,
            scope: Vec::new(),
            task: KERNEL_TASK,
        }
    }
}

impl AttributionCtx {
    /// Back to the boot state, keeping the scope stack's buffer: every
    /// attempt start resets, and the next attempt pushes again.
    fn reset(&mut self) {
        self.base = EnergyCause::Progress;
        self.scope.clear();
        self.task = KERNEL_TASK;
    }
}

/// Most counters a boundary recording can track (the length of
/// [`SpendBoundary::counters`]).
pub const MAX_TRACKED: usize = 8;

/// A power failure interrupted execution.
///
/// Propagated with `?` out of task bodies to the executor, which reboots and
/// re-executes the interrupted task — the all-or-nothing task model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerFailure;

/// One energy-spend boundary of a recorded reference run.
///
/// `epoch` is the pruning key: two boundaries share an epoch only if
/// nothing that survives a power failure changed between them. Every
/// `spend` call opens a new epoch, except a spend made inside a *pure* op
/// ([`Mcu::pure_op`]) right after another pure spend, with no FRAM write
/// and no [`Mcu::advance_epoch`] in between. A failure anywhere in one
/// epoch clears the same volatile state over the same FRAM, with the same
/// host-side state (runtime, tracker, peripherals, executor position), so
/// injections at any two of its boundaries run the identical continuation
/// and differ only in these additive ledger prefixes.
///
/// `spend_seq` identifies the [`Mcu::spend`] *call* the boundary's slice
/// belongs to, for forensics; every slice of one call shares its epoch.
/// Everything else is the cumulative ledger prefix captured just before
/// the boundary was counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpendBoundary {
    /// 1-based sequence number of the enclosing `spend` call.
    pub spend_seq: u64,
    /// 1-based effect epoch the boundary falls in (the pruning key).
    pub epoch: u64,
    /// `stats.boundaries` before this boundary was counted.
    pub boundaries: u64,
    /// Cumulative application energy before this boundary.
    pub app_energy_nj: u64,
    /// Cumulative overhead energy before this boundary.
    pub overhead_energy_nj: u64,
    /// Cumulative per-cause energy ledger before this boundary.
    pub cause_energy_nj: [u64; CAUSE_COUNT],
    /// Values of the recorder's tracked counters before this boundary, in
    /// the order they were passed to [`Mcu::record_boundaries`]; the slots
    /// past the tracked ones stay 0.
    pub counters: [u64; MAX_TRACKED],
}

/// Host-side instrumentation that captures a [`SpendBoundary`] per slice.
/// Not machine state: it survives [`Mcu::restore`] so a reference run can
/// be recorded through the usual restore-then-run harness.
#[derive(Debug, Default)]
struct BoundaryRecorder {
    tracked: Vec<Counter>,
    spend_seq: u64,
    epoch: u64,
    /// `Some(fram_writes)` while the epoch may still grow: the last spend
    /// was pure, and this was the FRAM write count at it. `None` once a
    /// non-pure spend or an [`Mcu::advance_epoch`] ended the epoch.
    pure_tail: Option<u64>,
    time_observed: bool,
    records: Vec<SpendBoundary>,
}

/// The simulated microcontroller.
#[derive(Debug)]
pub struct Mcu {
    /// Virtual wall clock (persistent timekeeper).
    pub clock: Clock,
    /// Memory map.
    pub mem: Memory,
    /// Power supply model.
    pub supply: Supply,
    /// Calibrated cost table.
    pub cost: CostTable,
    /// Time/energy ledger and event counters.
    pub stats: RunStats,
    /// Structured trace recorder (disabled by default; every layer above
    /// emits through this sink).
    pub trace: TraceSink,
    /// Energy-attribution context (cause scope, replay base, current task).
    attr: AttributionCtx,
    /// Per-spend samples of the cumulative per-cause energy ledger,
    /// collected only while the trace sink is enabled — the raw data for
    /// Chrome-trace counter tracks.
    samples: Vec<CauseSample>,
    /// Per-boundary recorder for crash-sweep equivalence classification
    /// (disabled by default; untracked runs pay one branch per slice).
    recorder: Option<BoundaryRecorder>,
    /// Whether a pure op ([`Mcu::pure_op`]) is running. Host-side
    /// bookkeeping for the recorder's effect epochs, not machine state.
    pure: bool,
}

impl Mcu {
    /// Creates an MCU with default costs and the given supply: allocates
    /// the buffers, then [`Mcu::reset`]s them to the blank machine.
    pub fn new(supply: Supply) -> Self {
        let mut mcu = Self {
            clock: Clock::new(),
            mem: Memory::new(),
            supply: Supply::continuous(),
            cost: CostTable::default(),
            stats: RunStats::new(),
            trace: TraceSink::disabled(),
            attr: AttributionCtx::default(),
            samples: Vec::new(),
            recorder: None,
            pure: false,
        };
        mcu.reset(supply);
        mcu
    }

    /// Returns this machine to the blank one [`Mcu::new`] makes — zeroed
    /// memory with no allocations, clock and ledger at zero, default
    /// costs, `supply` installed, no trace sink and no boundary recorder —
    /// keeping its memory, ledger and attribution buffers. An app builder
    /// then runs on it exactly as on a new machine (DESIGN.md §21).
    pub fn reset(&mut self, supply: Supply) {
        self.clock = Clock::new();
        self.mem.reset();
        self.supply = supply;
        self.cost = CostTable::default();
        self.stats.clone_from(&RunStats::new());
        self.trace = TraceSink::disabled();
        self.attr.reset();
        self.samples.clear();
        self.recorder = None;
        self.pure = false;
    }

    /// Starts recording one [`SpendBoundary`] per energy-spend boundary,
    /// additionally tracking up to [`MAX_TRACKED`] [`RunStats`] counters in
    /// each prefix. Replaces any active recording. The recorder is
    /// host-side instrumentation, not machine state: it survives
    /// [`Mcu::restore`] (so the restore-then-run harness can record a
    /// reference run) and never influences execution.
    pub fn record_boundaries(&mut self, tracked: &[Counter]) {
        assert!(
            tracked.len() <= MAX_TRACKED,
            "a boundary recording tracks at most {MAX_TRACKED} counters"
        );
        self.recorder = Some(BoundaryRecorder {
            tracked: tracked.to_vec(),
            ..BoundaryRecorder::default()
        });
    }

    /// Stops recording and returns the boundary records plus whether the
    /// recorded run observed wall-clock time (timestamp read, sensor
    /// sample, or radio transmit). `None` if no recording was active.
    pub fn take_boundary_recording(&mut self) -> Option<(Vec<SpendBoundary>, bool)> {
        self.recorder.take().map(|r| (r.records, r.time_observed))
    }

    /// Notes that the running program observed wall-clock time in a way
    /// that can reach persistent state or a verdict: a timestamp read, a
    /// sensor sample (environment values are functions of time), or a
    /// radio transmit (packets are logged with their send time). Boundary
    /// equivalence classification refuses to merge boundaries of such a
    /// run, because two slices of one spend call resume at different
    /// clock values. No-op unless a recording is active.
    pub fn note_time_observed(&mut self) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.time_observed = true;
        }
    }

    /// Runs `op` as a *pure* op: work that can change nothing a power
    /// failure leaves behind — CPU computation and volatile (SRAM/LEA-RAM)
    /// loads and stores. Consecutive pure spends with nothing in between
    /// share one effect epoch (see [`SpendBoundary`]). Debug builds assert
    /// that `op` wrote no FRAM and reached no [`Mcu::advance_epoch`].
    #[inline]
    pub fn pure_op<R>(&mut self, op: impl FnOnce(&mut Mcu) -> R) -> R {
        debug_assert!(!self.pure, "pure ops do not nest");
        let writes = self.mem.fram_writes();
        self.pure = true;
        let r = op(self);
        self.pure = false;
        debug_assert_eq!(
            self.mem.fram_writes(),
            writes,
            "a pure op wrote non-volatile memory"
        );
        r
    }

    /// Ends the current effect epoch: the next spend opens a new one. Every
    /// change that survives a power failure without spending — host-side
    /// runtime, tracker or peripheral state, executor progress — must call
    /// this before it happens. No-op unless a recording is active (debug
    /// builds still assert it is not reached from a pure op).
    pub fn advance_epoch(&mut self) {
        debug_assert!(!self.pure, "a pure op reached an effect");
        if let Some(rec) = self.recorder.as_mut() {
            rec.pure_tail = None;
        }
    }

    /// Sets the cause application-kind spends fall under: `Progress` on a
    /// first attempt, `ReexecCompute` during post-reboot replay. Called by
    /// the executor at every attempt start.
    pub fn set_replay_base(&mut self, reexecution: bool) {
        self.attr.base = if reexecution {
            EnergyCause::ReexecCompute
        } else {
            EnergyCause::Progress
        };
    }

    /// Sets the task subsequent spends are attributed to.
    pub fn set_attr_task(&mut self, task: u16) {
        self.attr.task = task;
    }

    /// Pushes a cause scope: overhead-kind spends are attributed to the top
    /// of the stack until the matching [`Mcu::pop_cause`]. A scope leaked by
    /// an early `?` return is cleaned up by the executor's per-attempt
    /// [`Mcu::reset_attribution`].
    #[inline]
    pub fn push_cause(&mut self, cause: EnergyCause) {
        self.attr.scope.push(cause);
    }

    /// Pops the innermost cause scope (no-op on an empty stack, so cleanup
    /// paths may pop unconditionally).
    #[inline]
    pub fn pop_cause(&mut self) {
        self.attr.scope.pop();
    }

    /// Runs `f` with `cause` scoped over overhead-kind spends, popping the
    /// scope on both success and error paths.
    pub fn with_cause<R>(&mut self, cause: EnergyCause, f: impl FnOnce(&mut Mcu) -> R) -> R {
        self.push_cause(cause);
        let r = f(self);
        self.pop_cause();
        r
    }

    /// Resets the attribution context to its boot state: empty scope stack,
    /// `Progress` base, no task. The executor calls this at every boot so a
    /// scope leaked across a power failure cannot misattribute the next
    /// attempt's spends. The scope stack keeps its buffer.
    pub fn reset_attribution(&mut self) {
        self.attr.reset();
    }

    /// The per-cause energy samples collected so far (one per traced spend).
    pub fn cause_samples(&self) -> &[CauseSample] {
        &self.samples
    }

    /// Spends `cost` classified as `kind`.
    ///
    /// Long operations are pushed through the supply in ≤1 ms slices: a
    /// delay-loop capture or a long DMA drains the capacitor gradually and
    /// harvests income while it runs, exactly like the physical operation.
    /// The *memory effect* of an operation is still applied only after the
    /// whole cost was paid (spend-then-mutate), so slicing never weakens
    /// atomicity — it only lets an operation whose average draw is
    /// sustainable run from a capacitor smaller than its total energy.
    ///
    /// Each slice is one energy-spend boundary. When no boundary recorder
    /// is on, every spend is first offered to
    /// [`Supply::charge_uninterruptible`] as `max(1, ⌈time / 1 ms⌉)` slices
    /// (a zero-time spend still crosses one boundary); when the supply
    /// provably interrupts none of them (always on continuous power, on the
    /// timer when the spend ends before the next reset, on an injection
    /// whose boundary lies outside the spend) it is charged in one step.
    /// Slices only add up, so the clock, the boundary count, the supply
    /// state and every ledger end exactly where the slice loop leaves them;
    /// the recorder, interrupting slices and the harvester take the loop.
    ///
    /// On power failure: volatile memory is cleared, the failure is counted,
    /// the clock has been advanced across the recharge period, and
    /// `Err(PowerFailure)` is returned.
    #[inline]
    pub fn spend(&mut self, kind: WorkKind, cost: Cost) -> Result<(), PowerFailure> {
        // Attribution is resolved once per spend: the base cause for app
        // work, the innermost scope (or the residual category) for overhead.
        let cause = match kind {
            WorkKind::App => self.attr.base,
            WorkKind::Overhead => self
                .attr
                .scope
                .last()
                .copied()
                .unwrap_or(EnergyCause::RuntimeMisc),
        };
        self.spend_as(kind, cause, cost)
    }

    /// [`Mcu::spend`] with the cause fixed by the caller instead of the
    /// attribution context — for work whose cause is known before it runs
    /// (a DMA burst the controller is about to abort is retry waste). The
    /// ledger then holds the right cause at every slice boundary, which
    /// per-boundary records depend on: relabeling after the spend would
    /// leave the slices before an interrupting failure under the old cause.
    #[inline]
    pub fn spend_as(
        &mut self,
        kind: WorkKind,
        cause: EnergyCause,
        cost: Cost,
    ) -> Result<(), PowerFailure> {
        if self.recorder.is_none() {
            // Nothing observes the individual slices, so when the supply
            // cannot interrupt any of them the spend is charged at once.
            let slices = cost.time_us.div_ceil(SLICE_US).max(1);
            if self
                .supply
                .charge_uninterruptible(&mut self.clock, cost, slices)
            {
                self.stats.boundaries += slices;
                self.stats.record_attributed(
                    kind,
                    cause,
                    self.attr.task,
                    cost.time_us,
                    cost.energy_nj,
                );
                self.sample_causes();
                return Ok(());
            }
        }
        self.spend_sliced(kind, cause, cost)
    }

    /// The slice loop behind [`Mcu::spend_as`]: one supply step per slice,
    /// a boundary record per slice while recording, and the power-failure
    /// path. Kept out of line so the one-step branch inlines into callers.
    #[inline(never)]
    fn spend_sliced(
        &mut self,
        kind: WorkKind,
        cause: EnergyCause,
        cost: Cost,
    ) -> Result<(), PowerFailure> {
        let task = self.attr.task;
        if let Some(rec) = self.recorder.as_mut() {
            rec.spend_seq += 1;
            // A pure spend joins the epoch of the pure spend before it when
            // no FRAM write happened since; anything else opens a new one.
            let writes = self.mem.fram_writes();
            if !(self.pure && rec.pure_tail == Some(writes)) {
                rec.epoch += 1;
            }
            rec.pure_tail = self.pure.then_some(writes);
        }
        let mut remaining = cost;
        loop {
            let slice = if remaining.time_us > SLICE_US {
                // Pro-rata energy for this slice; the remainder keeps the
                // total exact.
                let e = remaining.energy_nj * SLICE_US / remaining.time_us;
                Cost::new(SLICE_US, e)
            } else {
                remaining
            };
            remaining = Cost::new(
                remaining.time_us - slice.time_us,
                remaining.energy_nj - slice.energy_nj,
            );
            let off_before = self.clock.off_us();
            if let Some(rec) = self.recorder.as_mut() {
                let mut counters = [0; MAX_TRACKED];
                for (value, &c) in counters.iter_mut().zip(&rec.tracked) {
                    *value = self.stats.counter(c);
                }
                rec.records.push(SpendBoundary {
                    spend_seq: rec.spend_seq,
                    epoch: rec.epoch,
                    boundaries: self.stats.boundaries,
                    app_energy_nj: self.stats.app_energy_nj,
                    overhead_energy_nj: self.stats.overhead_energy_nj,
                    cause_energy_nj: self.stats.cause_energy_nj,
                    counters,
                });
            }
            self.stats.boundaries += 1;
            let spend = self.supply.spend(&mut self.clock, slice);
            self.stats
                .record_attributed(kind, cause, task, spend.on_us, spend.energy_nj);
            if spend.interrupted {
                self.mem.power_failure();
                self.stats.power_failures += 1;
                // The supply already advanced the clock across the dead
                // period; reconstruct the failure instant so the trace shows
                // the off interval [t_fail, now] on the power track.
                let now = self.clock.now_us();
                let t_fail = now - (self.clock.off_us() - off_before);
                let energy = self.stats.total_energy_nj();
                let supply = self.supply.kind_name();
                self.trace.emit_with(|| {
                    Event::instant(t_fail, energy, InstantKind::PowerFailure, supply)
                });
                self.trace.emit_with(|| Event {
                    ts_us: t_fail,
                    energy_nj: energy,
                    task: NO_TASK,
                    site: NO_SITE,
                    name: "off",
                    kind: EventKind::SpanBegin(SpanKind::PowerOff),
                });
                self.trace.emit_with(|| Event {
                    ts_us: now,
                    energy_nj: energy,
                    task: NO_TASK,
                    site: NO_SITE,
                    name: "off",
                    kind: EventKind::SpanEnd(SpanKind::PowerOff, Status::None),
                });
                self.trace
                    .emit_with(|| Event::instant(now, energy, InstantKind::ChargeCycle, supply));
                self.sample_causes();
                return Err(PowerFailure);
            }
            if remaining.time_us == 0 && remaining.energy_nj == 0 {
                self.sample_causes();
                return Ok(());
            }
        }
    }

    /// Appends one per-cause energy sample (traced runs only; sweeps and
    /// untraced runs pay nothing).
    #[inline]
    fn sample_causes(&mut self) {
        if self.trace.is_enabled() {
            self.samples.push(CauseSample {
                ts_us: self.clock.now_us(),
                energy_nj: self.stats.cause_energy_nj,
            });
        }
    }

    /// Current wall-clock time without cost (simulation-internal reads).
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Reads the persistent timekeeper from task/runtime code, charging the
    /// timestamp-read cost.
    pub fn read_timestamp(&mut self, kind: WorkKind) -> Result<u64, PowerFailure> {
        self.note_time_observed();
        let c = self.cost.timestamp_read;
        self.spend(kind, c)?;
        Ok(self.clock.now_us())
    }

    /// Cost of one memory access to `var`'s region, scaled to its width.
    #[inline]
    fn access_cost(&self, var: RawVar, write: bool) -> Cost {
        let per_word = if var.addr.is_nonvolatile() {
            if write {
                self.cost.fram_write_word
            } else {
                self.cost.fram_read_word
            }
        } else {
            self.cost.sram_word
        };
        per_word.times(var.words())
    }

    /// Loads a variable, charging the access cost.
    #[inline]
    pub fn load_var(&mut self, kind: WorkKind, var: RawVar) -> Result<u64, PowerFailure> {
        let c = self.access_cost(var, false);
        self.spend(kind, c)?;
        Ok(var.load(&self.mem))
    }

    /// Stores a variable, charging the access cost. The store is applied
    /// only after the cost was paid (atomic with respect to failures).
    #[inline]
    pub fn store_var(&mut self, kind: WorkKind, var: RawVar, raw: u64) -> Result<(), PowerFailure> {
        let c = self.access_cost(var, true);
        self.spend(kind, c)?;
        var.store(&mut self.mem, raw);
        Ok(())
    }

    /// Copies one variable-sized slot to another, charging read + write.
    #[inline]
    pub fn copy_var(
        &mut self,
        kind: WorkKind,
        src: RawVar,
        dst: RawVar,
    ) -> Result<(), PowerFailure> {
        debug_assert_eq!(src.width, dst.width, "copy between mismatched widths");
        let raw = self.load_var(kind, src)?;
        self.store_var(kind, dst, raw)
    }

    /// Captures the full machine state (clock, memory including allocator
    /// cursors, ledger, cost table) so a crash sweep can re-run the same
    /// program from an identical starting point. The supply is *not* part of
    /// the snapshot: each injection run installs its own.
    ///
    /// The image is captured once and shared behind an `Arc`: cloning the
    /// snapshot is a reference-count bump, and it is `Send + Sync`, so a
    /// parallel sweep hands one image to every worker. Taking a snapshot
    /// also re-bases this machine's dirty tracking, making subsequent
    /// [`Mcu::restore`]s of the same snapshot copy-on-write: only pages
    /// written since are copied back.
    pub fn snapshot(&mut self) -> McuSnapshot {
        McuSnapshot {
            inner: std::sync::Arc::new(SnapshotData {
                clock: self.clock.clone(),
                mem: self.mem.snapshot(),
                stats: self.stats.clone(),
                cost: self.cost.clone(),
            }),
        }
    }

    /// Restores a snapshot taken with [`Mcu::snapshot`]. Restoring the
    /// allocator cursors guarantees that runtime allocations made after this
    /// point land at the same addresses as in every other run from the same
    /// snapshot. Restoring the snapshot this machine is based on costs time
    /// proportional to the bytes written since, not to the memory-map size;
    /// restoring any other snapshot (e.g. one taken by a different machine,
    /// as each sweep worker does with the shared image) falls back to one
    /// full copy and is copy-on-write from then on.
    pub fn restore(&mut self, snap: &McuSnapshot) {
        self.clock = snap.inner.clock.clone();
        self.mem.restore(&snap.inner.mem);
        self.stats.clone_from(&snap.inner.stats);
        self.cost = snap.inner.cost.clone();
        // The attribution context and counter samples are volatile control
        // state, not machine state: reset them so per-boundary energy
        // accounting is a pure function of the snapshot — a leftover cause
        // scope or sample tail from a previous injection run must never
        // bleed into this one.
        self.attr.reset();
        self.samples.clear();
    }

    /// Captures the machine mid-run against `root`, the snapshot this run
    /// was restored from: the clock, the ledger, and the memory pages that
    /// differ from the root ([`crate::MemDelta`]). The cost table is the
    /// root's and is not copied.
    pub fn checkpoint(&self, root: &McuSnapshot) -> McuCheckpoint {
        McuCheckpoint {
            clock: self.clock.clone(),
            mem: self.mem.delta(&root.inner.mem),
            stats: self.stats.clone(),
        }
    }

    /// Restores a checkpoint taken with [`Mcu::checkpoint`] against `root`.
    /// Like [`Mcu::restore`] it resets the attribution context and counter
    /// samples, and it stays copy-on-write: only the pages dirtied since
    /// the last restore, plus the checkpoint's own, are copied.
    pub fn restore_checkpoint(&mut self, root: &McuSnapshot, cp: &McuCheckpoint) {
        self.clock = cp.clock.clone();
        self.mem.restore_delta(&root.inner.mem, &cp.mem);
        self.stats.clone_from(&cp.stats);
        self.cost = root.inner.cost.clone();
        self.attr.reset();
        self.samples.clear();
    }

    /// Whether this machine's memory — all three regions, allocator cursors
    /// and allocation records — equals the checkpoint's. The clock and the
    /// ledger are not compared: they are what two runs that rejoin still
    /// differ in.
    pub fn memory_matches(&self, root: &McuSnapshot, cp: &McuCheckpoint) -> bool {
        self.mem.matches_delta(&root.inner.mem, &cp.mem)
    }
}

/// A mid-run machine state relative to a root [`McuSnapshot`], taken with
/// [`Mcu::checkpoint`].
#[derive(Debug, Clone)]
pub struct McuCheckpoint {
    clock: Clock,
    mem: crate::memory::MemDelta,
    /// The ledger at the checkpoint.
    pub stats: RunStats,
}

impl McuCheckpoint {
    /// Memory pages that differ from the root.
    pub fn pages(&self) -> usize {
        self.mem.page_count()
    }
}

/// Full machine state captured by [`Mcu::snapshot`]: a cheaply clonable,
/// thread-shareable handle to one immutable image.
#[derive(Debug, Clone)]
pub struct McuSnapshot {
    inner: std::sync::Arc<SnapshotData>,
}

#[derive(Debug)]
struct SnapshotData {
    clock: Clock,
    mem: MemSnapshot,
    stats: RunStats,
    cost: CostTable,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{AllocTag, Region};
    use crate::power::TimerResetConfig;

    fn continuous() -> Mcu {
        Mcu::new(Supply::continuous())
    }

    #[test]
    fn spend_classifies_work() {
        let mut m = continuous();
        m.spend(WorkKind::App, Cost::new(10, 20)).unwrap();
        m.spend(WorkKind::Overhead, Cost::new(1, 2)).unwrap();
        assert_eq!(m.stats.app_time_us, 10);
        assert_eq!(m.stats.overhead_energy_nj, 2);
        assert_eq!(m.clock.on_us(), 11);
    }

    #[test]
    fn failure_clears_volatile_and_counts() {
        let cfg = TimerResetConfig {
            on_min_us: 100,
            on_max_us: 100,
            off_min_us: 10,
            off_max_us: 10,
        };
        let mut m = Mcu::new(Supply::timer(cfg, 3));
        let a = m.mem.alloc(Region::Sram, 2, AllocTag::App);
        m.mem.write_bytes(a, &[5, 5]);
        let f = m.mem.alloc(Region::Fram, 2, AllocTag::App);
        m.mem.write_bytes(f, &[6, 6]);
        // Burn past the 100 µs on-period.
        let r = m.spend(WorkKind::App, Cost::new(200, 200));
        assert_eq!(r, Err(PowerFailure));
        assert_eq!(m.stats.power_failures, 1);
        assert_eq!(m.mem.read_bytes(a, 2), &[0, 0]);
        assert_eq!(m.mem.read_bytes(f, 2), &[6, 6]);
        assert!(m.clock.off_us() > 0);
    }

    #[test]
    fn store_is_atomic_wrt_failure() {
        // A store whose cost cannot be paid must not mutate memory.
        let cfg = TimerResetConfig {
            on_min_us: 1,
            on_max_us: 1,
            off_min_us: 1,
            off_max_us: 1,
        };
        let mut m = Mcu::new(Supply::timer(cfg, 9));
        let v = RawVar {
            addr: m.mem.alloc(Region::Fram, 8, AllocTag::App),
            width: 8,
        };
        v.store(&mut m.mem, 0xDEAD);
        // Writing 4 words costs 4 µs, but only 1 µs of on-time exists.
        let r = m.store_var(WorkKind::App, v, 0xBEEF);
        assert_eq!(r, Err(PowerFailure));
        assert_eq!(v.load(&m.mem), 0xDEAD, "failed store must not apply");
    }

    #[test]
    fn fram_access_costs_more_energy_than_sram() {
        let mut m = continuous();
        let f = RawVar {
            addr: m.mem.alloc(Region::Fram, 2, AllocTag::App),
            width: 2,
        };
        let s = RawVar {
            addr: m.mem.alloc(Region::Sram, 2, AllocTag::App),
            width: 2,
        };
        m.load_var(WorkKind::App, f).unwrap();
        let fram_e = m.stats.app_energy_nj;
        m.load_var(WorkKind::App, s).unwrap();
        let sram_e = m.stats.app_energy_nj - fram_e;
        assert!(fram_e > sram_e);
    }

    #[test]
    fn timestamp_read_has_cost() {
        let mut m = continuous();
        let t0 = m.now_us();
        let ts = m.read_timestamp(WorkKind::Overhead).unwrap();
        assert!(ts > t0, "reading the timer itself takes time");
        assert!(m.stats.overhead_time_us > 0);
    }

    #[test]
    fn snapshot_restore_roundtrips_machine_state() {
        let mut m = continuous();
        let v = RawVar {
            addr: m.mem.alloc(Region::Fram, 4, AllocTag::App),
            width: 4,
        };
        m.store_var(WorkKind::App, v, 41).unwrap();
        let snap = m.snapshot();
        let before = (
            m.clock.now_us(),
            m.stats.boundaries,
            m.mem.allocated(Region::Fram),
        );
        // Diverge: more work, a new allocation, a mutated variable.
        m.store_var(WorkKind::App, v, 99).unwrap();
        m.spend(WorkKind::Overhead, Cost::new(500, 500)).unwrap();
        m.mem.alloc(Region::Fram, 16, AllocTag::Runtime);
        m.restore(&snap);
        assert_eq!(v.load(&m.mem), 41);
        assert_eq!(
            (
                m.clock.now_us(),
                m.stats.boundaries,
                m.mem.allocated(Region::Fram)
            ),
            before
        );
        // Allocator cursors restored: the next alloc lands where it would
        // have in any other run from the same snapshot.
        let a1 = m.mem.alloc(Region::Fram, 8, AllocTag::Runtime);
        m.restore(&snap);
        let a2 = m.mem.alloc(Region::Fram, 8, AllocTag::Runtime);
        assert_eq!(a1, a2);
    }

    /// A reset machine is the blank one `Mcu::new` makes: an app built on
    /// it after a snapshot, restores, a trace sink, a recorder and leaked
    /// cause scopes lands on the same bytes, ledger and clock as on a new
    /// machine.
    #[test]
    fn reset_machine_builds_like_a_new_one() {
        let build = |m: &mut Mcu| {
            let v = RawVar {
                addr: m.mem.alloc(Region::Fram, 4, AllocTag::App),
                width: 4,
            };
            m.store_var(WorkKind::App, v, 0xC0FFEE).unwrap();
            m.spend(WorkKind::Overhead, Cost::new(1_500, 40)).unwrap();
            m.snapshot()
        };
        let mut fresh = continuous();
        let want = build(&mut fresh);

        let mut m = continuous();
        let snap = build(&mut m);
        m.mem.alloc(Region::Sram, 64, AllocTag::Runtime);
        m.mem
            .write_bytes(crate::memory::Addr::new(Region::Fram, 100_000), &[1; 16]);
        m.restore(&snap);
        m.trace = TraceSink::enabled();
        m.record_boundaries(&[]);
        m.push_cause(EnergyCause::Commit);
        m.set_attr_task(4);
        m.spend(WorkKind::App, Cost::new(10, 10)).unwrap();

        m.reset(Supply::continuous());
        assert!(m.take_boundary_recording().is_none());
        assert!(!m.trace.is_enabled());
        assert_eq!(m.stats, RunStats::new());
        let got = build(&mut m);
        let mut a = continuous();
        let mut b = continuous();
        a.restore(&want);
        b.restore(&got);
        for region in [Region::Fram, Region::Sram, Region::LeaRam] {
            let at = crate::memory::Addr::new(region, 0);
            let n = region.size() as u32;
            assert_eq!(
                a.mem.read_bytes(at, n),
                b.mem.read_bytes(at, n),
                "{region:?}"
            );
        }
        assert_eq!(a.mem.allocations(), b.mem.allocations());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.clock.now_us(), b.clock.now_us());
        assert_eq!(m.cause_samples().len(), 0);
    }

    #[test]
    fn spend_counts_one_boundary_per_slice() {
        let mut m = continuous();
        m.spend(WorkKind::App, Cost::new(10, 10)).unwrap();
        assert_eq!(m.stats.boundaries, 1);
        // 2.5 ms → three ≤1 ms slices.
        m.spend(WorkKind::App, Cost::new(2_500, 100)).unwrap();
        assert_eq!(m.stats.boundaries, 4);
    }

    #[test]
    fn spend_attribution_follows_scope_and_base() {
        let mut m = continuous();
        m.set_attr_task(3);
        m.spend(WorkKind::App, Cost::new(10, 100)).unwrap();
        m.set_replay_base(true);
        m.spend(WorkKind::App, Cost::new(5, 50)).unwrap();
        m.with_cause(EnergyCause::Commit, |m| {
            m.spend(WorkKind::Overhead, Cost::new(2, 20))
        })
        .unwrap();
        // Unscoped overhead falls into the residual category.
        m.spend(WorkKind::Overhead, Cost::new(1, 10)).unwrap();
        assert_eq!(m.stats.cause_energy(EnergyCause::Progress), 100);
        assert_eq!(m.stats.cause_energy(EnergyCause::ReexecCompute), 50);
        assert_eq!(m.stats.cause_energy(EnergyCause::Commit), 20);
        assert_eq!(m.stats.cause_energy(EnergyCause::RuntimeMisc), 10);
        // App spends ignore the overhead scope stack.
        m.with_cause(EnergyCause::DmaPriv, |m| {
            m.spend(WorkKind::App, Cost::new(1, 5))
        })
        .unwrap();
        assert_eq!(m.stats.cause_energy(EnergyCause::DmaPriv), 0);
        let row = *m.stats.cause_energy_by_task.get(3).unwrap();
        assert_eq!(row.iter().sum::<u64>(), m.stats.total_energy_nj());
        assert!(m.stats.attribution_balanced());
    }

    /// Regression (crash-sweep bleed): restoring a snapshot must reset the
    /// attribution context and counter samples, so an injection run's
    /// per-cause ledger is a pure function of the snapshot — identical no
    /// matter what ran on the machine before the restore.
    #[test]
    fn restore_resets_attribution_context_and_samples() {
        let mut m = continuous();
        m.trace = TraceSink::enabled();
        let snap = m.snapshot();
        let run = |m: &mut Mcu, snap: &McuSnapshot| {
            m.restore(snap);
            m.spend(WorkKind::App, Cost::new(10, 100)).unwrap();
            m.spend(WorkKind::Overhead, Cost::new(2, 20)).unwrap();
            (m.stats.cause_energy_nj, m.cause_samples().len())
        };
        let clean = run(&mut m, &snap);
        // Pollute every piece of volatile attribution state, as an
        // interrupted run with leaked scopes would.
        m.push_cause(EnergyCause::DmaPriv);
        m.push_cause(EnergyCause::Commit);
        m.set_replay_base(true);
        m.set_attr_task(9);
        m.spend(WorkKind::App, Cost::new(1, 1)).unwrap();
        let after_pollution = run(&mut m, &snap);
        assert_eq!(
            clean, after_pollution,
            "attribution bled across a snapshot restore"
        );
    }

    /// The pruning key: every slice of one spend call shares a `spend_seq`,
    /// and each record's prefix is the ledger *before* its boundary — so
    /// record `i` always carries `boundaries == i`.
    #[test]
    fn boundary_recording_groups_slices_by_spend_call() {
        let mut m = continuous();
        m.record_boundaries(&[]);
        m.spend(WorkKind::App, Cost::new(10, 10)).unwrap(); // one slice
        m.spend(WorkKind::App, Cost::new(2_500, 100)).unwrap(); // three slices
        let (recs, time) = m.take_boundary_recording().unwrap();
        assert!(!time, "no timestamp was read");
        let seqs: Vec<u64> = recs.iter().map(|r| r.spend_seq).collect();
        assert_eq!(seqs, [1, 2, 2, 2]);
        let epochs: Vec<u64> = recs.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, seqs, "non-pure spends each open an epoch");
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.boundaries, i as u64);
        }
        assert!(recs[3].app_energy_nj > recs[1].app_energy_nj);
    }

    /// Effect epochs: consecutive pure spends share one; a non-pure spend,
    /// a FRAM write or an `advance_epoch` between two pure spends splits
    /// them, and a pure spend right after a non-pure one opens a new one.
    #[test]
    fn pure_spends_share_an_epoch_until_an_effect_intervenes() {
        let mut m = continuous();
        let s = RawVar {
            addr: m.mem.alloc(Region::Sram, 2, AllocTag::App),
            width: 2,
        };
        let f = RawVar {
            addr: m.mem.alloc(Region::Fram, 2, AllocTag::App),
            width: 2,
        };
        let pure = |m: &mut Mcu| {
            m.pure_op(|m| m.store_var(WorkKind::App, s, 1)).unwrap();
        };
        m.record_boundaries(&[]);
        m.spend(WorkKind::App, Cost::new(1, 1)).unwrap(); // 1
        pure(&mut m); // 2: follows a non-pure spend
        m.pure_op(|m| m.spend(WorkKind::App, Cost::new(2_500, 30)))
            .unwrap(); // 2 (three slices)
        pure(&mut m); // 2
        f.store(&mut m.mem, 7); // FRAM write, no spend
        pure(&mut m); // 3
        m.advance_epoch();
        pure(&mut m); // 4
        m.spend(WorkKind::Overhead, Cost::new(1, 1)).unwrap(); // 5
        pure(&mut m); // 6
        let (recs, _) = m.take_boundary_recording().unwrap();
        let epochs: Vec<u64> = recs.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, [1, 2, 2, 2, 2, 2, 3, 4, 5, 6]);
        let seqs: Vec<u64> = recs.iter().map(|r| r.spend_seq).collect();
        assert_eq!(seqs, [1, 2, 3, 3, 3, 4, 5, 6, 7, 8]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a pure op wrote non-volatile memory")]
    fn pure_op_writing_fram_is_caught_in_debug() {
        let mut m = continuous();
        let f = RawVar {
            addr: m.mem.alloc(Region::Fram, 2, AllocTag::App),
            width: 2,
        };
        let _ = m.pure_op(|m| m.store_var(WorkKind::App, f, 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a pure op reached an effect")]
    fn pure_op_reaching_an_effect_is_caught_in_debug() {
        let mut m = continuous();
        m.pure_op(|m| m.advance_epoch());
    }

    #[test]
    fn timestamp_read_marks_the_recording_time_observed() {
        let mut m = continuous();
        m.record_boundaries(&[]);
        m.spend(WorkKind::App, Cost::new(1, 1)).unwrap();
        m.read_timestamp(WorkKind::Overhead).unwrap();
        let (_, time) = m.take_boundary_recording().unwrap();
        assert!(time);
    }

    /// The recorder is host instrumentation: a snapshot restore in the
    /// middle of a recording must not clear it.
    #[test]
    fn boundary_recording_survives_restore() {
        let mut m = continuous();
        let snap = m.snapshot();
        m.record_boundaries(&[]);
        m.restore(&snap);
        m.spend(WorkKind::App, Cost::new(5, 5)).unwrap();
        let (recs, _) = m.take_boundary_recording().unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn copy_var_moves_value_and_charges_both_sides() {
        let mut m = continuous();
        let a = RawVar {
            addr: m.mem.alloc(Region::Fram, 4, AllocTag::App),
            width: 4,
        };
        let b = RawVar {
            addr: m.mem.alloc(Region::Fram, 4, AllocTag::Runtime),
            width: 4,
        };
        a.store(&mut m.mem, 77);
        m.copy_var(WorkKind::Overhead, a, b).unwrap();
        assert_eq!(b.load(&m.mem), 77);
        assert!(m.stats.overhead_energy_nj >= 10); // 2 words read + 2 written
    }
}
