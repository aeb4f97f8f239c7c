//! Exact time/energy ledger and event counters.
//!
//! The paper's five metrics (§5.2) all derive from this ledger:
//! wasted work, energy consumption, execution correctness (checked by the
//! apps), runtime overhead, and memory overhead (from `Memory` allocation
//! records). Work is tagged at spend time as application work or runtime
//! overhead; "wasted" application work is computed by comparing against a
//! continuous-power golden run, which by construction contains zero waste.
//!
//! On top of the two-way app/overhead split, every spend is attributed to
//! one of the [`EnergyCause`] categories, which answer *why* the energy was
//! spent rather than merely *what layer* spent it. The categories partition
//! the ledger exactly: for any run, the per-cause totals sum to
//! `app + overhead` for both time and energy (the attribution invariant,
//! DESIGN.md §13). Causes that are only knowable after the fact — a
//! redundant I/O is only recognized once the operation's completion state
//! is inspected — are handled by [`RunStats::reattribute_since`], which
//! moves already-recorded deltas between categories without changing the
//! totals.
//!
//! The ledger lives in this crate, next to the reports that render it, so
//! each report reads a run's [`RunStats`] directly and the category names
//! exist once, in [`CATEGORY_NAMES`]. The MCU substrate (`mcu-emu`) writes
//! the ledger and re-exports these types under the same names.

use std::collections::BTreeMap;

/// Declares a field-less enum whose variants index per-variant arrays:
/// the enum, its variant count, variant list and name table, with each
/// stable snake_case name written once, beside its variant.
macro_rules! slot_enum {
    (
        $(#[doc = $edoc:literal])*
        pub enum $enum:ident {
            $($(#[doc = $doc:literal])* $variant:ident => $name:literal,)*
        }
    ) => {
        $(#[doc = $edoc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $enum {
            $($(#[doc = $doc])* $variant,)*
        }

        impl $enum {
            /// Number of variants.
            pub const COUNT: usize = [$($name),*].len();

            /// Every variant, in index order.
            pub const ALL: [$enum; $enum::COUNT] = [$($enum::$variant),*];

            /// Every variant's name, in index order.
            pub const NAMES: [&'static str; $enum::COUNT] = [$($name),*];

            /// Slot in per-variant arrays: the declaration order.
            #[inline]
            pub const fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case name for reports and diagnostics.
            #[inline]
            pub const fn name(self) -> &'static str {
                Self::NAMES[self as usize]
            }
        }
    };
}

slot_enum! {
    /// A named event counter of [`RunStats`]. Counters are plain array
    /// slots indexed by the variant, so bumping one is an add.
    pub enum Counter {
        /// Peripheral operations that ended in a transient fault.
        IoFaults => "io_faults",
        /// DMA bursts that ended in a transient fault.
        DmaFaults => "dma_faults",
        /// Sensor-bus timeouts.
        SensorTimeout => "sensor_timeout",
        /// Radio packets transmitted whose acknowledgement was lost.
        RadioNack => "radio_nack",
        /// Radio packets dropped before the air interface.
        PacketDrop => "packet_drop",
        /// Camera captures aborted.
        CameraAbort => "camera_abort",
        /// LEA accelerator stalls.
        LeaStall => "lea_stall",
        /// DMA controller burst aborts.
        DmaTransferError => "dma_transfer_error",
        /// Faulted operations retried after backoff.
        IoRetries => "io_retries",
        /// `Always` operations skipped once their retry budget ran out.
        IoDegradedSkips => "io_degraded_skips",
        /// `Timely` operations served from a fallback once their budget ran out.
        IoDegradedFallbacks => "io_degraded_fallbacks",
        /// Probe: a `Single` op whose effect already happened was retried.
        ProbeRetryDuplicatedEffect => "probe_retry_duplicated_effect",
        /// Probe: a bare `Single` op ran twice within one activation.
        ProbeSingleRedundant => "probe_single_redundant",
        /// Probe: a degraded fallback served a value older than its window.
        ProbeDegradedStalenessExceeded => "probe_degraded_staleness_exceeded",
        /// Probe: a `Timely` value judged fresh was older than its window.
        ProbeTimelyStale => "probe_timely_stale",
        /// Probe: a commit was priced for more flags than it cleared.
        ProbeCommitOverpriced => "probe_commit_overpriced",
        /// Probe: an OTA image activated with a torn body or header.
        ProbeVersionTorn => "probe_version_torn",
        /// Probe: an OTA image activated twice.
        ProbeUpdateDuplicateActivation => "probe_update_duplicate_activation",
        /// Marker: the app entered its OTA update window.
        UpdateWindowEnter => "update_window_enter",
        /// Marker: the app left its OTA update window.
        UpdateWindowExit => "update_window_exit",
        /// Alpaca: privatized copies published at commit.
        AlpacaCommitCopies => "alpaca_commit_copies",
        /// Alpaca: variables privatized on first write.
        AlpacaPrivatizations => "alpaca_privatizations",
        /// InK: variables given a working-copy buffer.
        InkBufferedVars => "ink_buffered_vars",
        /// InK: working copies published at commit.
        InkCommitCopies => "ink_commit_copies",
        /// EaseIO: post-effect faults absorbed against a completion record.
        EaseioEffectFaultAbsorbed => "easeio_effect_fault_absorbed",
        /// EaseIO: re-executed I/O that returned a different value.
        EaseioDivergences => "easeio_divergences",
        /// EaseIO: `Timely` outputs whose window had expired.
        EaseioTimelyExpired => "easeio_timely_expired",
        /// EaseIO: degraded fallbacks refused because the value was stale.
        EaseioFallbackRefusedStale => "easeio_fallback_refused_stale",
        /// EaseIO: private outputs restored instead of re-executing.
        EaseioOutputsRestored => "easeio_outputs_restored",
        /// EaseIO: I/O blocks whose semantics were violated.
        EaseioBlockViolations => "easeio_block_violations",
        /// EaseIO: regional snapshots taken.
        EaseioRegionalSnapshots => "easeio_regional_snapshots",
        /// EaseIO: regional snapshots restored.
        EaseioRegionalRestores => "easeio_regional_restores",
        /// EaseIO: regional snapshots refreshed after a divergence.
        EaseioRegionalRefreshes => "easeio_regional_refreshes",
        /// EaseIO: `Always` DMA transfers.
        EaseioDmaAlways => "easeio_dma_always",
        /// EaseIO: `Single` DMA transfers skipped as complete.
        EaseioDmaSingleSkipped => "easeio_dma_single_skipped",
        /// EaseIO: `Single` DMA transfers executed.
        EaseioDmaSingleExecuted => "easeio_dma_single_executed",
        /// EaseIO: `Private` DMA sources staged into a private buffer.
        EaseioDmaPrivatizations => "easeio_dma_privatizations",
        /// EaseIO: `Private` DMA transfers executed.
        EaseioDmaPrivateExecuted => "easeio_dma_private_executed",
    }
}

/// Classification of a unit of spent work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Application-level work: compute, I/O, DMA payload transfers.
    App,
    /// Runtime bookkeeping: privatization, flags, timestamps, commits.
    Overhead,
}

/// Number of [`EnergyCause`] categories.
pub const CAUSE_COUNT: usize = EnergyCause::COUNT;

/// Category names, indexed by [`EnergyCause::index`]: the one name table of
/// the cause vocabulary. Reports carry the list so readers never have to
/// guess the order.
pub const CATEGORY_NAMES: [&str; CAUSE_COUNT] = EnergyCause::NAMES;

/// Number of waste categories ([`EnergyCause::is_waste`]).
const WASTE_COUNT: usize = {
    let (mut n, mut i) = (0, 0);
    while i < CAUSE_COUNT {
        if EnergyCause::ALL[i].is_waste() {
            n += 1;
        }
        i += 1;
    }
    n
};

/// The names of the waste categories, in index order: energy a
/// continuously-powered run would not have spent. Built from
/// [`EnergyCause::is_waste`], the one declaration of the waste subset.
pub const WASTE_CATEGORY_NAMES: [&str; WASTE_COUNT] = {
    let mut names = [""; WASTE_COUNT];
    let (mut n, mut i) = (0, 0);
    while i < CAUSE_COUNT {
        if EnergyCause::ALL[i].is_waste() {
            names[n] = EnergyCause::ALL[i].name();
            n += 1;
        }
        i += 1;
    }
    names
};

/// Task index used for spends not attributable to any application task
/// (boot, inter-task scheduling, machine construction).
pub const KERNEL_TASK: u16 = u16::MAX;

/// Offset distinguishing DMA call sites from I/O call sites in the
/// per-site redundant-energy ledger: DMA site `n` is recorded under key
/// `DMA_SITE_BASE | n`. Dynamic site sequences are small, so the two
/// spaces cannot collide.
pub const DMA_SITE_BASE: u16 = 0x8000;

slot_enum! {
    /// Why a unit of energy was spent. The categories partition every
    /// spend: each microjoule belongs to exactly one cause, so the per-cause
    /// ledgers always sum to the app + overhead totals.
    pub enum EnergyCause {
        /// First-attempt application work: forward progress.
        Progress => "progress",
        /// Application work replayed after a reboot, up to the crash point —
        /// the re-execution tax of task-based intermittent systems.
        ReexecCompute => "reexec_compute",
        /// I/O and DMA operations that physically re-executed even though a
        /// completed execution already existed this activation — the waste
        /// `Single`/`Timely` semantics exist to eliminate.
        RedundantIo => "redundant_io",
        /// Commit and variable-privatization overhead: two-phase commits,
        /// WAR/working-copy buffering, completion flags and their clears.
        Commit => "commit",
        /// Peripheral-fault recovery: retry backoff delays plus the cost of
        /// attempts that ended in a transient fault.
        Retry => "retry",
        /// DMA region privatization: phase-1 staging copies, DMA control
        /// flags, and regional snapshot/restore machinery.
        DmaPriv => "dma_priv",
        /// Residual runtime bookkeeping: boot sequences, timestamp reads, and
        /// overhead not covered by a more specific category.
        RuntimeMisc => "runtime_misc",
        /// Over-the-air update machinery: staging a new task-graph image into
        /// the shadow FRAM slot, sealing its header, and flipping the commit
        /// word. Structural cost of evolving the firmware, not waste.
        UpdateStage => "update_stage",
    }
}

impl EnergyCause {
    /// Whether the category is waste — energy a perfect runtime on the
    /// same schedule would not have spent (as opposed to forward progress
    /// or the runtime's structural overhead).
    #[inline]
    pub const fn is_waste(self) -> bool {
        matches!(
            self,
            EnergyCause::ReexecCompute | EnergyCause::RedundantIo | EnergyCause::Retry
        )
    }

    /// The sum of the waste categories of a per-cause ledger.
    #[inline]
    pub fn waste_of(ledger: &[u64; CAUSE_COUNT]) -> u64 {
        Self::ALL
            .iter()
            .filter(|c| c.is_waste())
            .map(|c| ledger[c.index()])
            .sum()
    }

    /// The cause an unscoped spend of `kind` defaults to on a first
    /// (non-replay) attempt.
    #[inline]
    pub fn default_for(kind: WorkKind) -> Self {
        match kind {
            WorkKind::App => EnergyCause::Progress,
            WorkKind::Overhead => EnergyCause::RuntimeMisc,
        }
    }
}

/// A point-in-time copy of the per-cause ledgers, used to compute the
/// delta an operation produced and [`RunStats::reattribute_since`] it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CauseMarks {
    /// Per-cause on-time at the mark (µs).
    pub time_us: [u64; CAUSE_COUNT],
    /// Per-cause energy at the mark (nJ).
    pub energy_nj: [u64; CAUSE_COUNT],
}

/// One sample of the cumulative per-cause energy ledger, taken after a
/// spend completed — the data behind Chrome-trace counter tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CauseSample {
    /// Virtual timestamp of the sample (µs).
    pub ts_us: u64,
    /// Cumulative per-cause energy at the sample (nJ), in
    /// [`EnergyCause::ALL`] order.
    pub energy_nj: [u64; CAUSE_COUNT],
}

/// Per-task slice of the energy ledger: one per-cause row per task that
/// had energy recorded or reattributed, indexed by task id, with the
/// [`KERNEL_TASK`] row kept apart. Iteration runs in ascending task id with
/// the kernel row last, so reports list rows in one stable order.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TaskRows {
    rows: Vec<Option<[u64; CAUSE_COUNT]>>,
    kernel: Option<[u64; CAUSE_COUNT]>,
}

impl Clone for TaskRows {
    #[inline]
    fn clone(&self) -> Self {
        Self {
            rows: self.rows.clone(),
            kernel: self.kernel,
        }
    }

    /// Copies `source`'s rows into this table's buffer (the derived
    /// `clone_from` would allocate a fresh one).
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.rows.clone_from(&source.rows);
        self.kernel = source.kernel;
    }
}

impl TaskRows {
    /// `task`'s row, created zeroed on first use.
    #[inline]
    pub fn row_mut(&mut self, task: u16) -> &mut [u64; CAUSE_COUNT] {
        let slot = if task == KERNEL_TASK {
            &mut self.kernel
        } else {
            let i = usize::from(task);
            if i >= self.rows.len() {
                self.rows.resize(i + 1, None);
            }
            &mut self.rows[i]
        };
        slot.get_or_insert([0; CAUSE_COUNT])
    }

    /// `task`'s row, if it has one.
    #[inline]
    pub fn get(&self, task: u16) -> Option<&[u64; CAUSE_COUNT]> {
        if task == KERNEL_TASK {
            self.kernel.as_ref()
        } else {
            self.rows.get(usize::from(task))?.as_ref()
        }
    }

    /// Every present row with its task id, ascending, the kernel row last.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u64; CAUSE_COUNT])> {
        let tasks = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i as u16, r.as_ref()?)));
        tasks.chain(self.kernel.as_ref().map(|r| (KERNEL_TASK, r)))
    }

    /// Every present row, in [`TaskRows::iter`] order.
    pub fn values(&self) -> impl Iterator<Item = &[u64; CAUSE_COUNT]> {
        self.iter().map(|(_, r)| r)
    }
}

/// Counters and ledgers collected over one simulated run.
#[derive(Debug, PartialEq)]
pub struct RunStats {
    /// On-time spent on application work (µs), across all attempts.
    pub app_time_us: u64,
    /// On-time spent on runtime overhead (µs), across all attempts.
    pub overhead_time_us: u64,
    /// Energy spent on application work (nJ).
    pub app_energy_nj: u64,
    /// Energy spent on runtime overhead (nJ).
    pub overhead_energy_nj: u64,
    /// Number of power failures (reboots).
    pub power_failures: u64,
    /// Task executions started (first entries plus re-executions).
    pub task_attempts: u64,
    /// Tasks committed.
    pub task_commits: u64,
    /// I/O operations physically executed on a peripheral.
    pub io_executed: u64,
    /// I/O operations skipped; their previous output was restored.
    pub io_skipped: u64,
    /// Redundant I/O executions: the same call site executing again after it
    /// had already completed once within the same task activation.
    pub io_reexecutions: u64,
    /// DMA transfers physically performed.
    pub dma_executed: u64,
    /// DMA transfers skipped by semantics.
    pub dma_skipped: u64,
    /// Redundant DMA executions (same site, same activation, again).
    pub dma_reexecutions: u64,
    /// Energy-spend boundaries crossed: one per supply `spend` call (the
    /// unit at which a power failure can be injected by a crash sweep).
    pub boundaries: u64,
    /// Per-cause on-time ledger (µs), indexed by [`EnergyCause::index`].
    /// Sums to `app_time_us + overhead_time_us` at all times.
    pub cause_time_us: [u64; CAUSE_COUNT],
    /// Per-cause energy ledger (nJ). Sums to
    /// `app_energy_nj + overhead_energy_nj` at all times.
    pub cause_energy_nj: [u64; CAUSE_COUNT],
    /// Per-task slice of the energy ledger; [`KERNEL_TASK`] collects spends
    /// outside any task. Each row sums across tasks to `cause_energy_nj`.
    pub cause_energy_by_task: TaskRows,
    /// Energy reattributed to [`EnergyCause::RedundantIo`] per I/O site
    /// (nJ) — the per-site waste breakdown.
    pub redundant_energy_by_site: BTreeMap<u16, u64>,
    /// Runtime-specific event counters, indexed by [`Counter`].
    pub counters: [u64; Counter::COUNT],
}

impl Default for RunStats {
    fn default() -> Self {
        Self {
            app_time_us: 0,
            overhead_time_us: 0,
            app_energy_nj: 0,
            overhead_energy_nj: 0,
            power_failures: 0,
            task_attempts: 0,
            task_commits: 0,
            io_executed: 0,
            io_skipped: 0,
            io_reexecutions: 0,
            dma_executed: 0,
            dma_skipped: 0,
            dma_reexecutions: 0,
            boundaries: 0,
            cause_time_us: [0; CAUSE_COUNT],
            cause_energy_nj: [0; CAUSE_COUNT],
            cause_energy_by_task: TaskRows::default(),
            redundant_energy_by_site: BTreeMap::new(),
            counters: [0; Counter::COUNT],
        }
    }
}

impl Clone for RunStats {
    fn clone(&self) -> Self {
        Self {
            cause_energy_by_task: self.cause_energy_by_task.clone(),
            redundant_energy_by_site: self.redundant_energy_by_site.clone(),
            ..*self
        }
    }

    /// Copies `source` into this ledger, keeping its per-task rows' buffer:
    /// restoring a snapshot or checkpoint then allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        let mut rows = std::mem::take(&mut self.cause_energy_by_task);
        rows.clone_from(&source.cause_energy_by_task);
        *self = Self {
            cause_energy_by_task: rows,
            redundant_energy_by_site: source.redundant_energy_by_site.clone(),
            ..*source
        };
    }
}

impl RunStats {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records spent work with the default cause for `kind`, outside any
    /// task. Attribution-aware callers use [`RunStats::record_attributed`].
    #[inline]
    pub fn record(&mut self, kind: WorkKind, time_us: u64, energy_nj: u64) {
        self.record_attributed(
            kind,
            EnergyCause::default_for(kind),
            KERNEL_TASK,
            time_us,
            energy_nj,
        );
    }

    /// Records spent work under an explicit cause and task. This is the
    /// only write path into the cause ledgers, which keeps the attribution
    /// invariant (cause totals == app + overhead totals) structural.
    #[inline]
    pub fn record_attributed(
        &mut self,
        kind: WorkKind,
        cause: EnergyCause,
        task: u16,
        time_us: u64,
        energy_nj: u64,
    ) {
        match kind {
            WorkKind::App => {
                self.app_time_us += time_us;
                self.app_energy_nj += energy_nj;
            }
            WorkKind::Overhead => {
                self.overhead_time_us += time_us;
                self.overhead_energy_nj += energy_nj;
            }
        }
        let i = cause.index();
        self.cause_time_us[i] += time_us;
        self.cause_energy_nj[i] += energy_nj;
        self.cause_energy_by_task.row_mut(task)[i] += energy_nj;
    }

    /// A point-in-time copy of the cause ledgers, for delta accounting
    /// around an operation whose true cause is only known afterwards.
    #[inline]
    pub fn cause_marks(&self) -> CauseMarks {
        CauseMarks {
            time_us: self.cause_time_us,
            energy_nj: self.cause_energy_nj,
        }
    }

    /// Moves everything recorded since `marks` into the `to` category (the
    /// `to` slice itself stays put), preserving the totals exactly. The
    /// per-task ledger moves the same amounts within `task`'s row. Returns
    /// the (time, energy) actually moved.
    #[inline]
    pub fn reattribute_since(
        &mut self,
        marks: &CauseMarks,
        to: EnergyCause,
        task: u16,
    ) -> (u64, u64) {
        let ti = to.index();
        let mut moved_t = 0u64;
        let mut moved_e = 0u64;
        let row = self.cause_energy_by_task.row_mut(task);
        for cause in EnergyCause::ALL {
            let i = cause.index();
            if i == ti {
                continue;
            }
            let dt = self.cause_time_us[i].saturating_sub(marks.time_us[i]);
            let de = self.cause_energy_nj[i].saturating_sub(marks.energy_nj[i]);
            if dt == 0 && de == 0 {
                continue;
            }
            self.cause_time_us[i] -= dt;
            self.cause_energy_nj[i] -= de;
            // The whole delta was spent inside one task-scoped operation,
            // so the task row holds it; clamp anyway so a caller misuse
            // can never underflow.
            let row_de = de.min(row[i]);
            row[i] -= row_de;
            row[ti] += row_de;
            moved_t += dt;
            moved_e += de;
        }
        self.cause_time_us[ti] += moved_t;
        self.cause_energy_nj[ti] += moved_e;
        (moved_t, moved_e)
    }

    /// Adds reattributed redundant-I/O energy to `site`'s waste ledger.
    #[inline]
    pub fn note_redundant_site(&mut self, site: u16, energy_nj: u64) {
        if energy_nj > 0 {
            *self.redundant_energy_by_site.entry(site).or_insert(0) += energy_nj;
        }
    }

    /// Energy in a single cause category (nJ).
    #[inline]
    pub fn cause_energy(&self, cause: EnergyCause) -> u64 {
        self.cause_energy_nj[cause.index()]
    }

    /// Total wasted energy (nJ): the sum of the waste categories
    /// (re-executed compute, redundant I/O, fault retries).
    #[inline]
    pub fn waste_energy_nj(&self) -> u64 {
        EnergyCause::waste_of(&self.cause_energy_nj)
    }

    /// Increments a counter.
    #[inline]
    pub fn bump(&mut self, counter: Counter) {
        self.counters[counter as usize] += 1;
    }

    /// Reads a counter.
    #[inline]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Total on-time (µs).
    #[inline]
    pub fn total_time_us(&self) -> u64 {
        self.app_time_us + self.overhead_time_us
    }

    /// Total energy (nJ).
    #[inline]
    pub fn total_energy_nj(&self) -> u64 {
        self.app_energy_nj + self.overhead_energy_nj
    }

    /// Application time that was wasted (re-executed and discarded), given
    /// the application time of a continuous-power golden run.
    pub fn wasted_time_us(&self, golden_app_time_us: u64) -> u64 {
        self.app_time_us.saturating_sub(golden_app_time_us)
    }

    /// Application energy that was wasted, given the golden app energy.
    pub fn wasted_energy_nj(&self, golden_app_energy_nj: u64) -> u64 {
        self.app_energy_nj.saturating_sub(golden_app_energy_nj)
    }

    /// Merges another run's ledger into this one (for aggregation across
    /// seeded repetitions).
    pub fn merge(&mut self, other: &RunStats) {
        self.app_time_us += other.app_time_us;
        self.overhead_time_us += other.overhead_time_us;
        self.app_energy_nj += other.app_energy_nj;
        self.overhead_energy_nj += other.overhead_energy_nj;
        self.power_failures += other.power_failures;
        self.task_attempts += other.task_attempts;
        self.task_commits += other.task_commits;
        self.io_executed += other.io_executed;
        self.io_skipped += other.io_skipped;
        self.io_reexecutions += other.io_reexecutions;
        self.dma_executed += other.dma_executed;
        self.dma_skipped += other.dma_skipped;
        self.dma_reexecutions += other.dma_reexecutions;
        self.boundaries += other.boundaries;
        for i in 0..CAUSE_COUNT {
            self.cause_time_us[i] += other.cause_time_us[i];
            self.cause_energy_nj[i] += other.cause_energy_nj[i];
        }
        for (task, row) in other.cause_energy_by_task.iter() {
            let mine = self.cause_energy_by_task.row_mut(task);
            for i in 0..CAUSE_COUNT {
                mine[i] += row[i];
            }
        }
        for (site, e) in &other.redundant_energy_by_site {
            *self.redundant_energy_by_site.entry(*site).or_insert(0) += e;
        }
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
    }

    /// Asserts the attribution invariant: the per-cause ledgers sum to the
    /// app + overhead totals, for both time and energy. Returns the pair of
    /// (cause sum, kind sum) for energy on failure diagnostics.
    pub fn attribution_balanced(&self) -> bool {
        let cause_t: u64 = self.cause_time_us.iter().sum();
        let cause_e: u64 = self.cause_energy_nj.iter().sum();
        let task_e: u64 = self
            .cause_energy_by_task
            .values()
            .flat_map(|row| row.iter())
            .sum();
        cause_t == self.total_time_us() && cause_e == self.total_energy_nj() && task_e == cause_e
    }
}

// ------------------------------------------------------- host memory -----
//
// Fleet-scale runs claim a *flat* memory ceiling: the streamed telemetry
// path must not grow with the device count. These counters read
// the host process's resident-set sizes so reports (and the CI gate) can
// state peak RSS as a measured number rather than a hope. They live with
// the stats module because they ride in the same report timing block as
// the other measurement counters — but unlike everything else in RunStats
// they are HOST numbers: nondeterministic, never part of report identity.

/// Reads a `kB` field from `/proc/self/status`, in bytes.
#[cfg(target_os = "linux")]
fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident-set size of this process (bytes). `None` where the
/// platform does not expose it.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_kb("VmHWM:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Current resident-set size of this process (bytes). `None` where the
/// platform does not expose it.
pub fn current_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_kb("VmRSS:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_rss_counters_read_on_linux() {
        if cfg!(target_os = "linux") {
            // Current first: concurrent tests may grow the RSS between the
            // two reads, and only the high-water mark read later covers that.
            let cur = current_rss_bytes().expect("VmRSS in /proc/self/status");
            let peak = peak_rss_bytes().expect("VmHWM in /proc/self/status");
            assert!(cur > 0);
            assert!(peak >= cur, "high-water {peak} below current {cur}");
        }
    }

    #[test]
    fn counter_names_are_distinct_and_indexed_in_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        let names: std::collections::BTreeSet<_> = Counter::ALL.map(Counter::name).into();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn record_splits_by_kind() {
        let mut s = RunStats::new();
        s.record(WorkKind::App, 10, 20);
        s.record(WorkKind::Overhead, 3, 4);
        s.record(WorkKind::App, 1, 2);
        assert_eq!(s.app_time_us, 11);
        assert_eq!(s.app_energy_nj, 22);
        assert_eq!(s.overhead_time_us, 3);
        assert_eq!(s.total_time_us(), 14);
        assert_eq!(s.total_energy_nj(), 26);
        assert!(s.attribution_balanced());
    }

    #[test]
    fn wasted_is_excess_over_golden() {
        let mut s = RunStats::new();
        s.record(WorkKind::App, 100, 200);
        assert_eq!(s.wasted_time_us(60), 40);
        assert_eq!(s.wasted_energy_nj(200), 0);
        // Never negative, even if accounting jitter makes golden larger.
        assert_eq!(s.wasted_time_us(150), 0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = RunStats::new();
        a.record(WorkKind::App, 5, 5);
        a.power_failures = 2;
        a.bump(Counter::IoRetries);
        let mut b = RunStats::new();
        b.record(WorkKind::Overhead, 7, 7);
        b.power_failures = 1;
        b.bump(Counter::IoRetries);
        b.bump(Counter::IoFaults);
        b.note_redundant_site(3, 11);
        a.merge(&b);
        assert_eq!(a.total_time_us(), 12);
        assert_eq!(a.power_failures, 3);
        assert_eq!(a.counter(Counter::IoRetries), 2);
        assert_eq!(a.counter(Counter::IoFaults), 1);
        assert_eq!(a.counter(Counter::DmaFaults), 0);
        assert_eq!(a.redundant_energy_by_site.get(&3), Some(&11));
        assert!(a.attribution_balanced());
    }

    #[test]
    fn attributed_record_fills_every_ledger() {
        let mut s = RunStats::new();
        s.record_attributed(WorkKind::App, EnergyCause::ReexecCompute, 2, 10, 30);
        s.record_attributed(WorkKind::Overhead, EnergyCause::Commit, 2, 5, 7);
        assert_eq!(s.cause_energy(EnergyCause::ReexecCompute), 30);
        assert_eq!(s.cause_energy(EnergyCause::Commit), 7);
        assert_eq!(
            s.cause_energy_by_task.get(2).unwrap()[EnergyCause::Commit.index()],
            7
        );
        assert_eq!(s.waste_energy_nj(), 30);
        assert!(s.attribution_balanced());
    }

    #[test]
    fn reattribution_moves_deltas_and_preserves_totals() {
        let mut s = RunStats::new();
        s.record_attributed(WorkKind::App, EnergyCause::Progress, 1, 100, 1000);
        let marks = s.cause_marks();
        s.record_attributed(WorkKind::App, EnergyCause::Progress, 1, 40, 400);
        s.record_attributed(WorkKind::Overhead, EnergyCause::Commit, 1, 6, 60);
        let before_total = s.total_energy_nj();
        let (mt, me) = s.reattribute_since(&marks, EnergyCause::RedundantIo, 1);
        assert_eq!((mt, me), (46, 460));
        // Pre-mark attribution is untouched; the delta moved wholesale.
        assert_eq!(s.cause_energy(EnergyCause::Progress), 1000);
        assert_eq!(s.cause_energy(EnergyCause::Commit), 0);
        assert_eq!(s.cause_energy(EnergyCause::RedundantIo), 460);
        assert_eq!(s.total_energy_nj(), before_total);
        assert_eq!(s.waste_energy_nj(), 460);
        assert!(s.attribution_balanced());
    }

    #[test]
    fn reattribution_leaves_the_target_category_in_place() {
        let mut s = RunStats::new();
        let marks = s.cause_marks();
        s.record_attributed(WorkKind::App, EnergyCause::Retry, 0, 10, 10);
        s.reattribute_since(&marks, EnergyCause::Retry, 0);
        assert_eq!(s.cause_energy(EnergyCause::Retry), 10);
        assert!(s.attribution_balanced());
    }
}
