//! Deterministic power-failure sweep engine.
//!
//! The random failure schedules of the benchmark harness sample the crash
//! space; this crate *enumerates* it. A reference run on continuous power
//! counts every energy-spend boundary — the `Mcu::spend` slices at which a
//! supply may interrupt execution, i.e. every point where a power failure
//! can be observed. The sweep then re-runs the application once per chosen
//! boundary with [`Supply::injected`] firing exactly there, and checks each
//! injected run against crash-consistency invariants:
//!
//! * the run completes (a single failure must never wedge the executor);
//! * the application's own verdict is `Correct`;
//! * `Single` operations are never externally performed twice
//!   (`probe_single_redundant` stays zero — a re-execution is only legal
//!   when the completion record was itself interrupted);
//! * `Timely` restores never hand out a stale value (`probe_timely_stale`);
//! * commit pricing matches the distinct dirty control state
//!   (`probe_commit_overpriced`);
//! * a rebooted device resumes a coherent task-graph image — an in-flight
//!   OTA update is always old-or-new, never torn (`probe_version_torn`);
//!   the update-aware mode ([`SweepPlan::update_window`]) focuses the
//!   injection set on the stage→flip→activate span for this probe;
//! * optionally, final application FRAM is byte-identical to the oracle's
//!   (sound only for apps whose outputs don't depend on sensed time).
//!
//! Every run restores the machine from a snapshot taken after the app was
//! built — including the allocator cursors, so runtime-allocated control
//! blocks land at identical addresses — which makes any violation
//! reproducible from (app, runtime, seed, boundary index) alone. The
//! serial [`sweep`] runs every injection from boot; a [`Reference`] run
//! with checkpoints lets the pruning engine resume the same runs at their
//! task attempt and stop them where they rejoin it (DESIGN.md §17).
//!
//! Exhaustive below a threshold; above it, boundaries are sampled without
//! replacement from a seeded [`StdRng`].

use apps::harness::{KernelBuilder, KernelKind};
use kernel::update::{PROBE_VERSION_TORN, UPDATE_WINDOW_ENTER, UPDATE_WINDOW_EXIT};
use kernel::{
    reset_runtime, run_app, App, ExecConfig, ExecState, Executor, FaultSpec, Outcome, RunResult,
    Runtime, Verdict,
};
use mcu_emu::{
    AllocTag, Counter, Mcu, McuCheckpoint, McuSnapshot, Region, RunStats, SpendBoundary, Supply,
    CAUSE_COUNT,
};
use periph::Peripherals;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

/// How boundaries are chosen from `0..oracle_boundaries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Inject at every boundary.
    Exhaustive,
    /// Inject at `n` distinct boundaries sampled without replacement
    /// (exhaustive anyway when `n` covers the whole range).
    Sample(u64),
    /// Inject at exactly this one boundary (empty sweep if it is out of
    /// range) — the minimal-repro mode forensics bundles point at.
    Boundary(u64),
}

impl SweepMode {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SweepMode::Exhaustive => "exhaustive",
            SweepMode::Sample(_) => "sample",
            SweepMode::Boundary(_) => "boundary",
        }
    }
}

/// Everything a sweep needs beyond (app, kernel): one plain struct shared
/// by the serial loop, the parallel engine, and the CLI, replacing the old
/// bool-and-scalar parameter tails.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Boundary-selection mode.
    pub mode: SweepMode,
    /// Seed for boundary sampling (and recorded for reproduction).
    pub seed: u64,
    /// Outage length of the injected failure (µs). Long outages let the
    /// sensed environment drift, which is what provokes stale-value bugs
    /// in runtimes without I/O semantics.
    pub off_us: u64,
    /// Compare final app-tagged FRAM byte-for-byte against the oracle.
    /// Only sound for deterministic apps: anything sensing a drifting
    /// environment legitimately diverges after an outage.
    pub strict_memory: bool,
    /// Environment seed every run (oracle and injected) shares.
    pub env_seed: u64,
    /// Transient peripheral-fault configuration applied to every *injected*
    /// run (the oracle stays fault-free: it defines intended behaviour).
    /// The schedule is deterministic, so the sweep explores the product
    /// space power-failure boundary x fault schedule reproducibly.
    pub fault: FaultSpec,
    /// Restrict injection to boundaries inside the app's OTA update window
    /// (the stage→flip→activate span bracketed by the
    /// `update_window_enter`/`update_window_exit` marker counters on the
    /// reference trace). Selection still composes with `mode` and the
    /// fault schedule; boundaries outside the window are dropped after
    /// [`select_boundaries`], identically in the serial and parallel
    /// engines.
    pub update_window: bool,
}

impl Default for SweepPlan {
    fn default() -> Self {
        Self {
            mode: SweepMode::Exhaustive,
            seed: 7,
            off_us: 100_000,
            strict_memory: false,
            env_seed: 7,
            fault: FaultSpec::none(),
            update_window: false,
        }
    }
}

impl SweepPlan {
    /// A default plan with its environment seed set — the common literal.
    pub fn with_env_seed(env_seed: u64) -> Self {
        Self {
            env_seed,
            ..Self::default()
        }
    }
}

/// Classes of invariant violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The injected run hit the non-termination guard.
    NotCompleted,
    /// The injected run aborted on a runtime resource fault.
    Fault,
    /// The app's verdict was `Incorrect`.
    WrongVerdict,
    /// A completed `Single` operation was externally re-performed.
    SingleRedundant,
    /// A `Timely` restore handed out a value older than its window.
    TimelyStale,
    /// Commit priced more flag clears than distinct dirty sites exist.
    CommitOverpriced,
    /// Final app FRAM differs from the continuous-power oracle.
    MemoryDivergence,
    /// A fault whose external effect had completed was retried under
    /// `Single` semantics: the effect was duplicated.
    RetryDuplicatedEffect,
    /// A degraded `Timely` fallback served a value older than its window.
    DegradedStalenessExceeded,
    /// The per-cause energy ledgers did not sum to the run's energy totals
    /// — the attribution accounting itself is broken.
    AttributionUnbalanced,
    /// Recovery found the active task-graph image torn: its header hash no
    /// longer matched its payload, i.e. the device resumed on a version
    /// that is neither old nor new.
    VersionTorn,
}

impl ViolationKind {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::NotCompleted => "not_completed",
            ViolationKind::Fault => "fault",
            ViolationKind::WrongVerdict => "wrong_verdict",
            ViolationKind::SingleRedundant => "single_redundant",
            ViolationKind::TimelyStale => "timely_stale",
            ViolationKind::CommitOverpriced => "commit_overpriced",
            ViolationKind::MemoryDivergence => "memory_divergence",
            ViolationKind::RetryDuplicatedEffect => "retry_duplicated_effect",
            ViolationKind::DegradedStalenessExceeded => "degraded_staleness_exceeded",
            ViolationKind::AttributionUnbalanced => "attribution_unbalanced",
            ViolationKind::VersionTorn => "version_torn",
        }
    }
}

/// One invariant violation, reproducible from the sweep identity plus
/// `boundary`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Boundary index the failure was injected at.
    pub boundary: u64,
    /// Violation class.
    pub kind: ViolationKind,
    /// Human-readable divergence description.
    pub detail: String,
}

/// Result of a whole sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Runtime display name.
    pub runtime: &'static str,
    /// App name.
    pub app: &'static str,
    /// Environment seed every run shared.
    pub env_seed: u64,
    /// The plan the sweep ran with.
    pub config: SweepPlan,
    /// Energy-spend boundaries counted in the oracle run.
    pub oracle_boundaries: u64,
    /// Injection runs performed.
    pub injections: u64,
    /// Invariant violations, in boundary order.
    pub violations: Vec<Violation>,
    /// Wasted energy of each injected run, in boundary order — the
    /// per-boundary waste distribution the sweep report folds into
    /// mean/p95. Same length as `injections`.
    pub boundary_waste_nj: Vec<u64>,
    /// Per-cause energy totals summed across every injected run, indexed
    /// by `EnergyCause::index`.
    pub cause_energy_nj: [u64; CAUSE_COUNT],
}

impl SweepOutcome {
    /// Whether every injected run upheld every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Boundaries to inject at, in increasing order. Public so schedulers (the
/// parallel engine partitions this list into batches) select exactly the
/// set the serial sweep would.
pub fn select_boundaries(total: u64, mode: SweepMode, seed: u64) -> Vec<u64> {
    match mode {
        SweepMode::Sample(n) if n < total => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = BTreeSet::new();
            while (set.len() as u64) < n {
                set.insert(rng.random_range(0..total));
            }
            set.into_iter().collect()
        }
        SweepMode::Boundary(b) => {
            if b < total {
                vec![b]
            } else {
                Vec::new()
            }
        }
        _ => (0..total).collect(),
    }
}

/// Final contents of all app-tagged FRAM allocations, in allocation order,
/// as one image allocated at its final size.
pub fn app_fram(mcu: &Mcu) -> Arc<[u8]> {
    let ranges = || mcu.mem.tagged_ranges(Region::Fram, AllocTag::App);
    let len = ranges().map(|(_, n)| n as usize).sum();
    let mut image: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    let bytes = Arc::get_mut(&mut image).expect("a fresh image is unshared");
    let mut at = 0;
    for (addr, n) in ranges() {
        let n = n as usize;
        bytes[at..at + n].copy_from_slice(mcu.mem.read_bytes(addr, n as u32));
        at += n;
    }
    image
}

/// The machine's app-tagged FRAM as an image: `image` itself, shared, when
/// the bytes equal it (compared in place, nothing is copied), else a fresh
/// [`app_fram`].
fn app_fram_sharing(mcu: &Mcu, image: &Arc<[u8]>) -> Arc<[u8]> {
    let mut rest: &[u8] = image;
    let same = mcu
        .mem
        .tagged_ranges(Region::Fram, AllocTag::App)
        .all(|(addr, n)| match rest.split_at_checked(n as usize) {
            Some((head, tail)) if head == mcu.mem.read_bytes(addr, n) => {
                rest = tail;
                true
            }
            _ => false,
        });
    if same && rest.is_empty() {
        Arc::clone(image)
    } else {
        app_fram(mcu)
    }
}

/// Everything the invariant checks need from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// How the executor finished.
    pub outcome: Outcome,
    /// The app's self-check verdict, if it completed.
    pub verdict: Option<Verdict>,
    /// Energy-spend boundaries crossed.
    pub boundaries: u64,
    /// `probe_single_redundant` counter.
    pub single_redundant: u64,
    /// `probe_timely_stale` counter.
    pub timely_stale: u64,
    /// `probe_commit_overpriced` counter.
    pub commit_overpriced: u64,
    /// `probe_retry_duplicated_effect` counter.
    pub retry_duplicated_effect: u64,
    /// `probe_degraded_staleness_exceeded` counter.
    pub degraded_staleness_exceeded: u64,
    /// `probe_version_torn` counter.
    pub version_torn: u64,
    /// Per-cause energy ledger of the run, indexed by
    /// `EnergyCause::index`.
    pub cause_energy_nj: [u64; CAUSE_COUNT],
    /// Total energy spent (app + overhead, nJ).
    pub total_energy_nj: u64,
    /// Energy spent on waste categories (nJ).
    pub waste_nj: u64,
    /// Whether the cause ledgers summed to the energy totals.
    pub attribution_balanced: bool,
    /// Final app-tagged FRAM bytes. Records with equal images often share
    /// one allocation (the oracle's, the reference's, a representative's),
    /// which [`check_record`] recognizes without comparing bytes.
    pub fram: Arc<[u8]>,
}

/// One run from the snapshot under `supply`: restored machine, then the
/// [`KernelBuilder::boot`] of `kind` under `fault` — identical initial
/// state every time. Public so the parallel engine's workers replay
/// exactly the serial recipe.
pub fn run_from(
    app: &App,
    kind: KernelKind,
    mcu: &mut Mcu,
    snap: &McuSnapshot,
    supply: Supply,
    env_seed: u64,
    fault: &FaultSpec,
) -> RunRecord {
    mcu.restore(snap);
    mcu.supply = supply;
    let (mut rt, mut periph, cfg) = KernelBuilder::new(kind).with_faults(*fault).boot(env_seed);
    let r = run_app(app, rt.as_mut(), mcu, &mut periph, &cfg);
    record_of(r, mcu)
}

/// The record of a finished run.
fn record_of(r: RunResult, mcu: &Mcu) -> RunRecord {
    record_with(r, app_fram(mcu))
}

/// The record of a finished run whose final image is `fram`.
fn record_with(r: RunResult, fram: Arc<[u8]>) -> RunRecord {
    let probes = PROBE_COUNTERS.map(|n| r.stats.counter(n));
    RunRecord {
        outcome: r.outcome,
        verdict: r.verdict,
        boundaries: r.stats.boundaries,
        single_redundant: probes[0],
        timely_stale: probes[1],
        commit_overpriced: probes[2],
        retry_duplicated_effect: probes[3],
        degraded_staleness_exceeded: probes[4],
        version_torn: probes[5],
        cause_energy_nj: r.stats.cause_energy_nj,
        total_energy_nj: r.stats.app_energy_nj + r.stats.overhead_energy_nj,
        waste_nj: r.stats.waste_energy_nj(),
        attribution_balanced: r.stats.attribution_balanced(),
        fram,
    }
}

/// The [`mcu_emu::RunStats`] counters a [`RunRecord`] exposes, in field
/// order — the counters a boundary trace must capture per slice so skipped
/// boundaries' records can be materialized from their representative.
pub const PROBE_COUNTERS: [Counter; 6] = [
    Counter::ProbeSingleRedundant,
    Counter::ProbeTimelyStale,
    Counter::ProbeCommitOverpriced,
    Counter::ProbeRetryDuplicatedEffect,
    Counter::ProbeDegradedStalenessExceeded,
    PROBE_VERSION_TORN,
];

/// The OTA window marker counters, recorded on the reference trace right
/// after [`PROBE_COUNTERS`] (slice indices `PROBE_COUNTERS.len()` and
/// `PROBE_COUNTERS.len() + 1`). Not probes: they never materialize into a
/// [`RunRecord`]; [`filter_update_window`] reads them to find which
/// boundaries fall inside the stage→flip→activate span.
pub const UPDATE_WINDOW_COUNTERS: [Counter; 2] = [UPDATE_WINDOW_ENTER, UPDATE_WINDOW_EXIT];

/// Per-boundary record of one reference run under the sweep's fault plan on
/// continuous power: which spend call and effect epoch each boundary's
/// slice belongs to, plus the cumulative ledger prefix right before it.
#[derive(Debug, Clone)]
pub struct BoundaryTrace {
    /// One record per energy-spend boundary, index = boundary.
    pub slices: Vec<SpendBoundary>,
    /// Whether the run observed wall-clock time in a way that can reach
    /// persistent state or a verdict (timestamp read, sensor sample, radio
    /// transmit, degraded-`Timely` age check). If so, no two boundaries may
    /// be merged: slices of one spend call resume at different clocks.
    pub time_observed: bool,
}

/// Records the sweep's reference run: the same restore-then-run recipe as
/// every injected run — same fault plan, same env seed — but on continuous
/// power and with the boundary recorder active. An injected run at boundary
/// `b` is *identical* to this run up to the injection (the not-yet-fired
/// injected supply charges exactly like the continuous one), so
/// `trace.slices[b]` is the injected run's exact pre-failure ledger prefix.
///
/// The run may legitimately end in `Fault`/`NonTermination` under an
/// aggressive fault plan; its prefix trace is valid regardless.
pub fn reference_trace(
    app: &App,
    kind: KernelKind,
    mcu: &mut Mcu,
    snap: &McuSnapshot,
    env_seed: u64,
    fault: &FaultSpec,
) -> BoundaryTrace {
    reference_run(app, kind, mcu, snap, env_seed, fault).trace
}

/// The reference run kept whole: its [`BoundaryTrace`], its final record,
/// and one checkpoint per task-attempt start (plus one at boot), so an
/// injected run can start at the attempt its failure falls in and stop
/// where it rejoins this run (DESIGN.md §17). Shared read-only by every
/// sweep worker.
pub struct Reference {
    /// The per-boundary trace, as [`reference_trace`] records it.
    pub trace: BoundaryTrace,
    /// The reference run's own record. It is also the record of every
    /// injection at or past the trace's end, which never fires.
    pub record: RunRecord,
    checkpoints: Vec<Checkpoint>,
    /// The snapshot the reference ran from, which checkpoints are relative
    /// to.
    snap: McuSnapshot,
    cfg: ExecConfig,
}

/// The whole run state at one task-attempt start of the reference run.
struct Checkpoint {
    /// Spend boundaries crossed before it: where the injected supply's
    /// counter resumes.
    boundaries: u64,
    mcu: McuCheckpoint,
    exec: ExecState,
    rt: Box<dyn Runtime>,
    periph: Peripherals,
}

/// The run state a sweep worker holds across resumed injections. Each
/// [`Reference::run_injected`] resets it from the checkpoint it resumes at
/// instead of cloning the checkpoint's, so the runtime's tables, the radio
/// log, the fault counters, the activation tracker and the rejoin ledger
/// keep their buffers from one injection to the next — across entries,
/// apps and kernels too (DESIGN.md §21).
#[derive(Default)]
pub struct HeldRun(Option<Held>);

/// The parts of a [`HeldRun`], built on a worker's first injection.
struct Held {
    rt: Box<dyn Runtime>,
    periph: Peripherals,
    exec: ExecState,
    /// The ledger where the run rejoined the reference.
    rejoin_stats: RunStats,
}

impl HeldRun {
    /// The held parts, each reset in place to `cp`'s.
    fn reset_from(&mut self, cp: &Checkpoint) -> &mut Held {
        let held = self.0.get_or_insert_with(|| Held {
            rt: cp.rt.clone_state(),
            periph: cp.periph.clone(),
            exec: cp.exec.clone(),
            rejoin_stats: RunStats::new(),
        });
        reset_runtime(&mut held.rt, &*cp.rt);
        held.periph.clone_from(&cp.periph);
        held.exec.clone_from(&cp.exec);
        held
    }
}

impl Checkpoint {
    fn capture(exec: &Executor<'_>, mcu: &Mcu, snap: &McuSnapshot, base: u64) -> Self {
        Self {
            boundaries: mcu.stats.boundaries - base,
            mcu: mcu.checkpoint(snap),
            exec: exec.state().clone(),
            rt: exec.runtime().clone_state(),
            periph: exec.periph().clone(),
        }
    }

    /// Whether a run at an attempt start is in exactly this state, clock,
    /// ledger and tracker timestamps aside: executor position, runtime,
    /// peripherals with their fault counters, and all of memory.
    fn matches(&self, exec: &Executor<'_>, mcu: &Mcu, snap: &McuSnapshot) -> bool {
        self.exec.same_untimed(exec.state())
            && self.periph == *exec.periph()
            && self.rt.state_eq(exec.runtime())
            && mcu.memory_matches(snap, &self.mcu)
    }
}

/// What one checkpointed injection simulated.
#[derive(Debug, Clone, Copy)]
pub struct InjectionWork {
    /// Spend boundaries simulated, from the resumed checkpoint to the end
    /// of the run or to its rejoin.
    pub boundaries: u64,
    /// Whether the run stopped where it rejoined the reference run.
    pub rejoined: bool,
}

/// Runs the sweep's reference run (the recipe [`reference_trace`]
/// describes) and keeps it whole as a [`Reference`].
pub fn reference_run(
    app: &App,
    kind: KernelKind,
    mcu: &mut Mcu,
    snap: &McuSnapshot,
    env_seed: u64,
    fault: &FaultSpec,
) -> Reference {
    mcu.record_boundaries(&[PROBE_COUNTERS.as_slice(), &UPDATE_WINDOW_COUNTERS].concat());
    mcu.restore(snap);
    mcu.supply = Supply::continuous();
    let (mut rt, mut periph, cfg) = KernelBuilder::new(kind).with_faults(*fault).boot(env_seed);
    let base = mcu.stats.boundaries;
    let mut state = ExecState::boot(app, mcu);
    let mut exec = Executor::new(app, rt.as_mut(), &mut periph, &cfg, &mut state);
    let mut checkpoints = vec![Checkpoint::capture(&exec, mcu, snap, base)];
    exec.run(mcu, |exec, mcu| {
        checkpoints.push(Checkpoint::capture(exec, mcu, snap, base));
        ControlFlow::Continue(())
    });
    let record = record_of(exec.finish(mcu), mcu);
    let (slices, time_observed) = mcu
        .take_boundary_recording()
        .expect("recorder was installed above");
    Reference {
        trace: BoundaryTrace {
            slices,
            time_observed,
        },
        record,
        checkpoints,
        snap: snap.clone(),
        cfg,
    }
}

impl Reference {
    /// The injected run at `boundary`, the same run as [`run_from`] under
    /// `Supply::injected(boundary, off_us)` on the reference's snapshot,
    /// executed from the checkpoint of the attempt the boundary falls in. On a time-blind reference it stops at the
    /// first attempt start after the failure whose state equals the
    /// reference checkpoint of the same activation, and its record is the
    /// reference's final record shifted by the ledger difference. Debug
    /// builds run every rejoined injection to its end anyway and assert
    /// the shifted record equals the real one.
    ///
    /// The runtime, peripherals and executor state are `held`'s, reset to
    /// the checkpoint's: the record is the same whatever `held` served
    /// before.
    pub fn run_injected(
        &self,
        app: &App,
        mcu: &mut Mcu,
        held: &mut HeldRun,
        boundary: u64,
        off_us: u64,
    ) -> (RunRecord, InjectionWork) {
        // The boot checkpoint has boundary count 0, so one always applies.
        let cp = &self.checkpoints[self
            .checkpoints
            .partition_point(|c| c.boundaries <= boundary)
            - 1];
        mcu.restore_checkpoint(&self.snap, &cp.mcu);
        mcu.supply = Supply::injected_after(boundary, off_us, cp.boundaries);
        let Held {
            rt,
            periph,
            exec: state,
            rejoin_stats,
        } = held.reset_from(cp);
        let mut exec = Executor::new(app, rt.as_mut(), periph, &self.cfg, state);
        let seek = !self.trace.time_observed;
        let check = cfg!(debug_assertions);
        let mut rejoin = None;
        exec.run(mcu, |exec, mcu| {
            if seek && rejoin.is_none() && mcu.supply.injection_fired() {
                rejoin = self.rejoin_at(exec, mcu);
                if rejoin.is_some() {
                    rejoin_stats.clone_from(&mcu.stats);
                    if !check {
                        return ControlFlow::Break(());
                    }
                }
            }
            ControlFlow::Continue(())
        });
        let end = if rejoin.is_some() {
            &*rejoin_stats
        } else {
            &mcu.stats
        };
        let work = InjectionWork {
            boundaries: end.boundaries - cp.mcu.stats.boundaries,
            rejoined: rejoin.is_some(),
        };
        let Some(j) = rejoin else {
            return (self.record_at_end(exec.finish(mcu), mcu), work);
        };
        let mut shifted = shift_record(
            &self.record,
            &Ledger::of_stats(&self.checkpoints[j].mcu.stats),
            &Ledger::of_stats(rejoin_stats),
        );
        shifted.attribution_balanced &= rejoin_stats.attribution_balanced();
        if check {
            let real = self.record_at_end(exec.finish(mcu), mcu);
            assert_eq!(
                shifted, real,
                "boundary {boundary}: the record shifted at its rejoin differs from the real run"
            );
        }
        (shifted, work)
    }

    /// The record of an injected run that ran to its end, sharing the
    /// reference's final image when its own is byte-equal.
    fn record_at_end(&self, r: RunResult, mcu: &Mcu) -> RunRecord {
        record_with(r, app_fram_sharing(mcu, &self.record.fram))
    }

    /// The reference checkpoint the run at this attempt start has rejoined,
    /// if any: one of the same activation (task commits so far) in exactly
    /// the same state.
    fn rejoin_at(&self, exec: &Executor<'_>, mcu: &Mcu) -> Option<usize> {
        let commits = mcu.stats.task_commits;
        let lo = self
            .checkpoints
            .partition_point(|c| c.mcu.stats.task_commits < commits);
        self.checkpoints[lo..]
            .iter()
            .take_while(|c| c.mcu.stats.task_commits == commits)
            .position(|c| c.matches(exec, mcu, &self.snap))
            .map(|k| lo + k)
    }

    /// Whether an injection at `boundary` fires: only boundaries before the
    /// trace's end do.
    pub fn fires(&self, boundary: u64) -> bool {
        boundary < self.trace.slices.len() as u64
    }

    /// Task-attempt checkpoints recorded (the boot checkpoint excluded).
    #[cfg(test)]
    fn attempt_checkpoints(&self) -> usize {
        self.checkpoints.len() - 1
    }

    /// Memory pages the checkpoints hold, summed.
    #[cfg(test)]
    fn checkpoint_pages(&self) -> usize {
        self.checkpoints.iter().map(|c| c.mcu.pages()).sum()
    }
}

/// Restricts `chosen` to the boundaries inside the app's OTA update
/// window, read off the reference trace's marker-counter prefixes: a
/// boundary is in the window iff, right before its slice, the app had
/// bumped `update_window_enter` more times than `update_window_exit`. On
/// the continuous-power reference each marker fires once, so this is
/// exactly the stage→flip→activate span. Boundaries past the reference
/// run's last slice never fire their injection and are dropped.
pub fn filter_update_window(chosen: &[u64], trace: &BoundaryTrace) -> Vec<u64> {
    let enter = PROBE_COUNTERS.len();
    let exit = enter + 1;
    chosen
        .iter()
        .copied()
        .filter(|&b| {
            trace
                .slices
                .get(b as usize)
                .is_some_and(|s| s.counters[enter] > s.counters[exit])
        })
        .collect()
}

/// Equivalence classes over the chosen boundaries of one sweep.
#[derive(Debug, Clone)]
pub struct PruneClasses {
    /// For each chosen boundary (parallel to the `chosen` slice passed to
    /// [`classify_boundaries`]), the index into `reps` of its class.
    pub class_of: Vec<usize>,
    /// One representative boundary per class: the first chosen member.
    /// Only representatives need real injected runs.
    pub reps: Vec<u64>,
    /// Copied from the trace: true means classification refused to merge
    /// anything and every class is a singleton.
    pub time_observed: bool,
}

/// Groups chosen boundaries into equivalence classes by the *effect epoch*
/// their slice falls in ([`SpendBoundary::epoch`]).
///
/// Soundness: a power failure clears volatile memory and restarts the
/// interrupted task, so only what survives it decides the continuation
/// (Surbatovich et al.: equal non-volatile state, equal continuation). One
/// epoch is either the slices of one spend call — spend-then-mutate means
/// nothing changes between them — or a run of *pure* ops (computation and
/// volatile loads/stores) with no FRAM write, no non-pure spend and no
/// runtime, tracker, peripheral or executor step in between. Either way an
/// injection at any boundary of the epoch reboots over the same FRAM, with
/// the same host-side state and the same executor position, and replays
/// the identical continuation. The only distinguishing observable is the
/// wall clock (later boundaries fail later), which is why a time-observing
/// run ([`BoundaryTrace::time_observed`]) gets singleton classes.
/// Fault-plan position needs no key component: peripheral attempt counters
/// tick only inside non-pure ops, so two attempts of one site are always in
/// different epochs.
///
/// Boundaries at or past the reference run's last slice form one extra
/// class: the injection never fires there, so every such run *is* the
/// reference run.
pub fn classify_boundaries(chosen: &[u64], trace: &BoundaryTrace) -> PruneClasses {
    let mut class_of = Vec::with_capacity(chosen.len());
    let mut reps = Vec::new();
    if trace.time_observed {
        for (i, &b) in chosen.iter().enumerate() {
            class_of.push(i);
            reps.push(b);
        }
        return PruneClasses {
            class_of,
            reps,
            time_observed: true,
        };
    }
    let mut by_key: HashMap<Option<u64>, usize> = HashMap::new();
    for &b in chosen {
        let key = trace.slices.get(b as usize).map(|s| s.epoch);
        let id = *by_key.entry(key).or_insert_with(|| {
            reps.push(b);
            reps.len() - 1
        });
        class_of.push(id);
    }
    PruneClasses {
        class_of,
        reps,
        time_observed: false,
    }
}

/// Materializes the record of a pruned boundary from its class
/// representative's real record.
///
/// Same class means identical continuation, so every field is either copied
/// (outcome, verdict, final FRAM, balance flag) or corrected additively:
/// cumulative totals differ between class members exactly by the difference
/// of their pre-failure ledger prefixes, which the reference trace recorded.
/// The probe counters get the same additive correction, and merging across
/// spend calls depends on it: a task body may bump a counter directly
/// (through `ctx.mcu.stats`) between two pure ops of one epoch, with no
/// spend and no FRAM write, so members of one class can see different
/// counter prefixes. `waste_nj` is re-derived from the corrected cause
/// ledger, matching how [`run_from`] derives it.
pub fn materialize_record(
    trace: &BoundaryTrace,
    rep: &RunRecord,
    rep_boundary: u64,
    boundary: u64,
) -> RunRecord {
    let (Some(rp), Some(tp)) = (
        trace.slices.get(rep_boundary as usize),
        trace.slices.get(boundary as usize),
    ) else {
        // Past the reference run's last boundary the injection never
        // fires: the run is the reference run, byte for byte.
        return rep.clone();
    };
    shift_record(rep, &Ledger::of_slice(rp), &Ledger::of_slice(tp))
}

/// The additive part of a run's ledger at one point: what two runs with
/// the same continuation still differ in.
struct Ledger {
    boundaries: u64,
    energy_nj: u64,
    cause_energy_nj: [u64; CAUSE_COUNT],
    probes: [u64; PROBE_COUNTERS.len()],
}

impl Ledger {
    /// The prefix a reference-trace slice recorded.
    fn of_slice(s: &SpendBoundary) -> Self {
        Self {
            boundaries: s.boundaries,
            energy_nj: s.app_energy_nj + s.overhead_energy_nj,
            cause_energy_nj: s.cause_energy_nj,
            probes: std::array::from_fn(|i| s.counters[i]),
        }
    }

    /// The ledger of a live run.
    fn of_stats(s: &RunStats) -> Self {
        Self {
            boundaries: s.boundaries,
            energy_nj: s.app_energy_nj + s.overhead_energy_nj,
            cause_energy_nj: s.cause_energy_nj,
            probes: PROBE_COUNTERS.map(|n| s.counter(n)),
        }
    }
}

/// `rec`, the record of a run that was at ledger `from` at some point,
/// moved to a run with the identical continuation that was at `to` there:
/// every cumulative total shifts by `to - from`, `waste_nj` is re-derived
/// from the shifted cause ledger as [`run_from`] derives it, and the rest
/// (outcome, verdict, balance flag, final FRAM) is copied.
fn shift_record(rec: &RunRecord, from: &Ledger, to: &Ledger) -> RunRecord {
    let shift = |total: u64, from: u64, to: u64| total - from + to;
    let mut cause_energy_nj = rec.cause_energy_nj;
    for (i, c) in cause_energy_nj.iter_mut().enumerate() {
        *c = shift(*c, from.cause_energy_nj[i], to.cause_energy_nj[i]);
    }
    let waste_nj = mcu_emu::EnergyCause::ALL
        .iter()
        .filter(|c| c.is_waste())
        .map(|c| cause_energy_nj[c.index()])
        .sum();
    let probe = |total: u64, i: usize| shift(total, from.probes[i], to.probes[i]);
    RunRecord {
        outcome: rec.outcome,
        verdict: rec.verdict.clone(),
        boundaries: shift(rec.boundaries, from.boundaries, to.boundaries),
        single_redundant: probe(rec.single_redundant, 0),
        timely_stale: probe(rec.timely_stale, 1),
        commit_overpriced: probe(rec.commit_overpriced, 2),
        retry_duplicated_effect: probe(rec.retry_duplicated_effect, 3),
        degraded_staleness_exceeded: probe(rec.degraded_staleness_exceeded, 4),
        version_torn: probe(rec.version_torn, 5),
        cause_energy_nj,
        total_energy_nj: shift(rec.total_energy_nj, from.energy_nj, to.energy_nj),
        waste_nj,
        attribution_balanced: rec.attribution_balanced,
        fram: Arc::clone(&rec.fram),
    }
}

/// The shared prefix of every sweep: the post-construction machine snapshot
/// and the continuous-power oracle record. The snapshot and the final app
/// FRAM image are both `Arc`s, so cloning a `SweepOracle` to N worker
/// threads shares them instead of copying them per worker.
#[derive(Clone)]
pub struct SweepOracle {
    /// Machine state right after app construction (allocator cursors
    /// included, so rebuilt apps land at identical addresses).
    pub snapshot: McuSnapshot,
    /// Energy-spend boundaries the oracle run crossed.
    pub boundaries: u64,
    /// App-tagged FRAM at oracle completion, for `strict_memory` compares.
    pub fram: Arc<[u8]>,
    /// App display name.
    pub app: &'static str,
}

/// Builds the app once, snapshots the machine, and runs the
/// continuous-power oracle. Panics if the oracle does not complete — a
/// sweep of an app that cannot finish on wall power is meaningless.
pub fn prepare_oracle(
    builder: &dyn Fn(&mut Mcu) -> App,
    kind: KernelKind,
    env_seed: u64,
) -> SweepOracle {
    let mut mcu = Mcu::new(Supply::continuous());
    let app = builder(&mut mcu);
    let snap = mcu.snapshot();
    let oracle = run_from(
        &app,
        kind,
        &mut mcu,
        &snap,
        Supply::continuous(),
        env_seed,
        &FaultSpec::none(),
    );
    assert_eq!(
        oracle.outcome,
        Outcome::Completed,
        "oracle run must complete on continuous power"
    );
    SweepOracle {
        snapshot: snap,
        boundaries: oracle.boundaries,
        fram: oracle.fram,
        app: app.name,
    }
}

/// Checks one injected run against every invariant, returning the
/// violations for `boundary` in deterministic order. This is the single
/// judgement function — serial sweep and parallel engine both call it, so
/// their reports cannot drift apart.
pub fn check_record(
    r: &RunRecord,
    oracle_fram: &[u8],
    boundary: u64,
    strict_memory: bool,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut report = |kind: ViolationKind, detail: String| {
        violations.push(Violation {
            boundary,
            kind,
            detail,
        });
    };
    if !r.attribution_balanced {
        let cause_sum: u64 = r.cause_energy_nj.iter().sum();
        report(
            ViolationKind::AttributionUnbalanced,
            format!(
                "cause ledgers sum to {cause_sum} nJ but the run spent {} nJ",
                r.total_energy_nj
            ),
        );
    }
    match &r.outcome {
        Outcome::Completed => {}
        Outcome::NonTermination => {
            report(
                ViolationKind::NotCompleted,
                "hit the non-termination guard".into(),
            );
            return violations;
        }
        Outcome::Fault(e) => {
            report(ViolationKind::Fault, e.to_string());
            return violations;
        }
    }
    if let Some(Verdict::Incorrect(why)) = &r.verdict {
        report(ViolationKind::WrongVerdict, why.clone());
    }
    if r.single_redundant > 0 {
        report(
            ViolationKind::SingleRedundant,
            format!("probe_single_redundant = {}", r.single_redundant),
        );
    }
    if r.timely_stale > 0 {
        report(
            ViolationKind::TimelyStale,
            format!("probe_timely_stale = {}", r.timely_stale),
        );
    }
    if r.commit_overpriced > 0 {
        report(
            ViolationKind::CommitOverpriced,
            format!("probe_commit_overpriced = {}", r.commit_overpriced),
        );
    }
    if r.retry_duplicated_effect > 0 {
        report(
            ViolationKind::RetryDuplicatedEffect,
            format!(
                "probe_retry_duplicated_effect = {}",
                r.retry_duplicated_effect
            ),
        );
    }
    if r.degraded_staleness_exceeded > 0 {
        report(
            ViolationKind::DegradedStalenessExceeded,
            format!(
                "probe_degraded_staleness_exceeded = {}",
                r.degraded_staleness_exceeded
            ),
        );
    }
    if r.version_torn > 0 {
        report(
            ViolationKind::VersionTorn,
            format!("probe_version_torn = {}", r.version_torn),
        );
    }
    // A record sharing the oracle's image is equal without a byte compare.
    if strict_memory && !std::ptr::eq(&*r.fram, oracle_fram) && *r.fram != *oracle_fram {
        let first = r
            .fram
            .iter()
            .zip(oracle_fram)
            .position(|(a, b)| a != b)
            .unwrap_or(oracle_fram.len().min(r.fram.len()));
        report(
            ViolationKind::MemoryDivergence,
            format!(
                "app FRAM diverges from the oracle at byte {first} of {}",
                oracle_fram.len()
            ),
        );
    }
    violations
}

/// Cap on the per-byte FRAM diff a forensics record carries — enough to
/// see the torn region's shape without shipping the whole image.
pub const FORENSICS_DIFF_CAP: usize = 32;

/// Plain-struct forensics data for one violating boundary: everything a
/// self-contained violation bundle needs from the engine layer. This
/// crate has no dependency on the report schema — the CLI marries this
/// record to the `kind: "forensics"` document and the repro command.
#[derive(Debug, Clone)]
pub struct BoundaryForensics {
    /// The injected boundary.
    pub boundary: u64,
    /// The spend call the boundary's slice interrupts on the reference
    /// trace (`None` past the reference run's last slice).
    pub spend_seq: Option<u64>,
    /// Boundary-space size of the oracle run, for context.
    pub oracle_boundaries: u64,
    /// The violations the injected run trips, in deterministic order.
    pub violations: Vec<Violation>,
    /// App-FRAM bytes that differ from the continuous-power oracle.
    pub divergent_bytes: u64,
    /// First [`FORENSICS_DIFF_CAP`] differing bytes as
    /// `(offset, oracle, observed)`, offsets into the app-tagged FRAM
    /// image in allocation order.
    pub fram_diff: Vec<(u64, u8, u8)>,
}

/// Re-runs one boundary of a sweep and collects the forensic record:
/// the violating run's invariant judgements, its spend-call coordinate on
/// the reference trace, and a capped byte diff of final app FRAM against
/// the continuous-power oracle. Deterministic in `(builder, kind, plan,
/// boundary)` — the same identity the sweep's own violations carry, so
/// the record always describes the run the sweep saw.
pub fn boundary_forensics(
    builder: &dyn Fn(&mut Mcu) -> App,
    kind: KernelKind,
    plan: &SweepPlan,
    boundary: u64,
) -> BoundaryForensics {
    let mut mcu = Mcu::new(Supply::continuous());
    let app = builder(&mut mcu);
    let oracle = prepare_oracle(builder, kind, plan.env_seed);
    mcu.restore(&oracle.snapshot);
    let trace = reference_trace(
        &app,
        kind,
        &mut mcu,
        &oracle.snapshot,
        plan.env_seed,
        &plan.fault,
    );
    let spend_seq = trace.slices.get(boundary as usize).map(|s| s.spend_seq);
    let r = run_from(
        &app,
        kind,
        &mut mcu,
        &oracle.snapshot,
        Supply::injected(boundary, plan.off_us),
        plan.env_seed,
        &plan.fault,
    );
    let violations = check_record(&r, &oracle.fram, boundary, plan.strict_memory);
    let mut divergent_bytes = 0u64;
    let mut fram_diff = Vec::new();
    for (i, (observed, expected)) in r.fram.iter().zip(oracle.fram.iter()).enumerate() {
        if observed != expected {
            divergent_bytes += 1;
            if fram_diff.len() < FORENSICS_DIFF_CAP {
                fram_diff.push((i as u64, *expected, *observed));
            }
        }
    }
    // A length mismatch (allocation divergence) counts every unpaired byte.
    divergent_bytes += r.fram.len().abs_diff(oracle.fram.len()) as u64;
    BoundaryForensics {
        boundary,
        spend_seq,
        oracle_boundaries: oracle.boundaries,
        violations,
        divergent_bytes,
        fram_diff,
    }
}

/// Runs the sweep serially: one continuous-power oracle run, then one
/// injected run per selected boundary, checking the invariants above.
pub fn sweep(
    builder: &dyn Fn(&mut Mcu) -> App,
    kind: KernelKind,
    plan: &SweepPlan,
) -> SweepOutcome {
    let mut mcu = Mcu::new(Supply::continuous());
    let app = builder(&mut mcu);
    let oracle = prepare_oracle(builder, kind, plan.env_seed);
    // Adopt the oracle's snapshot (full copy once, then page-wise CoW).
    mcu.restore(&oracle.snapshot);

    let mut chosen = select_boundaries(oracle.boundaries, plan.mode, plan.seed);
    if plan.update_window {
        let trace = reference_trace(
            &app,
            kind,
            &mut mcu,
            &oracle.snapshot,
            plan.env_seed,
            &plan.fault,
        );
        chosen = filter_update_window(&chosen, &trace);
    }
    let injections = chosen.len() as u64;
    let mut violations = Vec::new();
    let mut boundary_waste_nj = Vec::with_capacity(chosen.len());
    let mut cause_energy_nj = [0u64; CAUSE_COUNT];
    for b in chosen {
        let r = run_from(
            &app,
            kind,
            &mut mcu,
            &oracle.snapshot,
            Supply::injected(b, plan.off_us),
            plan.env_seed,
            &plan.fault,
        );
        violations.extend(check_record(&r, &oracle.fram, b, plan.strict_memory));
        boundary_waste_nj.push(r.waste_nj);
        for (total, c) in cause_energy_nj.iter_mut().zip(r.cause_energy_nj) {
            *total += c;
        }
    }

    SweepOutcome {
        runtime: kind.name(),
        app: oracle.app,
        env_seed: plan.env_seed,
        config: plan.clone(),
        oracle_boundaries: oracle.boundaries,
        injections,
        violations,
        boundary_waste_nj,
        cause_energy_nj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::{dma_app, fir, flaky_radio, motion, temp_app, unsafe_branch};
    use proptest::prelude::*;

    fn small_dma(m: &mut Mcu) -> App {
        dma_app::build(
            m,
            &dma_app::DmaAppCfg {
                bytes: 256,
                chunks: 3,
                iterations: 1,
                pre_compute: 200,
                post_compute: 200,
            },
        )
    }

    #[test]
    fn easeio_exhaustive_sweep_is_clean_on_the_dma_app() {
        let out = sweep(
            &small_dma,
            KernelKind::EaseIo,
            &SweepPlan {
                strict_memory: true,
                ..SweepPlan::with_env_seed(5)
            },
        );
        assert!(out.oracle_boundaries > 0, "a non-trivial boundary space");
        assert_eq!(out.injections, out.oracle_boundaries);
        assert!(
            out.is_clean(),
            "EaseIO violated invariants: {:?}",
            out.violations
        );
    }

    /// Regression for the atomic-completion fix: the motion app's verdict is
    /// the end-to-end exactly-once invariant (radio packets on the air ==
    /// alert counter in FRAM). Before the runtime pre-charged the completion
    /// bookkeeping, a failure injected between the `Single` send's effect
    /// and its lock store re-sent the alert on reboot — this exhaustive
    /// sweep found it as `WrongVerdict` at those exact boundaries.
    #[test]
    fn easeio_exhaustive_sweep_keeps_motion_alerts_exactly_once() {
        let out = sweep(
            &|m: &mut Mcu| motion::build(m, &motion::MotionCfg::default()).0,
            KernelKind::EaseIo,
            &SweepPlan::with_env_seed(7),
        );
        assert!(out.oracle_boundaries > 0);
        assert!(
            out.is_clean(),
            "a Single alert was externally re-performed: {:?}",
            out.violations
        );
    }

    #[test]
    fn naive_exhaustive_sweep_detects_dma_violations() {
        // The same app under a runtime with no DMA flags: a failure after a
        // completed transfer re-runs it, which the redundancy probe and the
        // checksum verdict both expose.
        let out = sweep(
            &small_dma,
            KernelKind::Naive,
            &SweepPlan {
                strict_memory: true,
                ..SweepPlan::with_env_seed(5)
            },
        );
        assert!(
            !out.is_clean(),
            "naive re-execution must violate at some boundary"
        );
    }

    #[test]
    fn alpaca_sweep_detects_the_branch_double_actuation() {
        // Fig. 2c: a failure between the sensed branch and commit can set
        // both actuation flags under Alpaca; the app's verdict catches it.
        // A long outage lets the sensed temperature drift across the
        // threshold on re-execution.
        let build = |m: &mut Mcu| unsafe_branch::build(m, &unsafe_branch::BranchCfg::default()).0;
        let out = sweep(
            &build,
            KernelKind::Alpaca,
            &SweepPlan {
                off_us: 2_000_000,
                ..SweepPlan::with_env_seed(11)
            },
        );
        assert!(
            out.violations
                .iter()
                .any(|v| v.kind == ViolationKind::WrongVerdict
                    || v.kind == ViolationKind::SingleRedundant),
            "Alpaca must trip the branch hazard somewhere: {:?}",
            out.violations
        );
        // And EaseIO survives the identical schedule.
        let clean = sweep(
            &build,
            KernelKind::EaseIo,
            &SweepPlan {
                off_us: 2_000_000,
                ..SweepPlan::with_env_seed(11)
            },
        );
        assert!(clean.is_clean(), "{:?}", clean.violations);
    }

    /// The boundary × fault-schedule product space, probe one: retrying a
    /// radio NACK — whose packet is already in the air — under `Single`
    /// semantics duplicates the external effect. Baselines retry blindly
    /// and trip `retry_duplicated_effect`; EaseIO's pre-charged completion
    /// record absorbs the NACK, so the identical plan stays clean.
    #[test]
    fn fault_sweep_flags_naive_retry_duplication_and_easeio_stays_clean() {
        let build = |m: &mut Mcu| flaky_radio::build(m, &flaky_radio::FlakyRadioCfg::default()).0;
        let plan = SweepPlan {
            mode: SweepMode::Sample(40),
            fault: FaultSpec::with_rate(3, 80),
            ..SweepPlan::with_env_seed(5)
        };
        let naive = sweep(&build, KernelKind::Naive, &plan);
        assert!(
            naive
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::RetryDuplicatedEffect),
            "Naive must duplicate a NACKed send somewhere: {:?}",
            naive.violations
        );
        let clean = sweep(&build, KernelKind::EaseIo, &plan);
        assert!(
            clean.is_clean(),
            "EaseIO violated under the identical fault schedule: {:?}",
            clean.violations
        );
    }

    /// Probe two: with the retry budget squeezed to one, a `Timely` sense
    /// degrades to the runtime's fallback. The baseline default serves the
    /// cached value blindly; when the degraded activation lands right after
    /// a 100 ms outage that value predates the outage and is far older than
    /// the 10 ms window — `degraded_staleness_exceeded` fires. The temp app
    /// is the vehicle because its only I/O *is* the Timely sense: no
    /// `Single` site can exhaust its budget first and abort the run.
    #[test]
    fn fault_sweep_flags_blind_stale_fallback_in_baselines() {
        let build = |m: &mut Mcu| temp_app::build(m, &temp_app::TempAppCfg::default());
        let mut fault = FaultSpec::with_rate(9, 500);
        fault.retry.max_retries = 1;
        let out = sweep(
            &build,
            KernelKind::Naive,
            &SweepPlan {
                mode: SweepMode::Sample(60),
                fault,
                ..SweepPlan::with_env_seed(5)
            },
        );
        assert!(
            out.violations
                .iter()
                .any(|v| v.kind == ViolationKind::DegradedStalenessExceeded),
            "the blind fallback must serve a stale value somewhere: {:?}",
            out.violations
        );
    }

    #[test]
    fn sweep_collects_a_full_waste_ledger_per_boundary() {
        let out = sweep(&small_dma, KernelKind::Naive, &SweepPlan::with_env_seed(5));
        assert_eq!(out.boundary_waste_nj.len() as u64, out.injections);
        // Cross-check: the per-boundary waste series and the summed cause
        // ledgers are two views of the same attribution — they must agree.
        let series_sum: u64 = out.boundary_waste_nj.iter().sum();
        let cause_waste: u64 = mcu_emu::EnergyCause::ALL
            .iter()
            .filter(|c| c.is_waste())
            .map(|c| out.cause_energy_nj[c.index()])
            .sum();
        assert_eq!(series_sum, cause_waste);
        assert!(series_sum > 0, "naive re-execution wastes energy somewhere");
        // No run may ever report an unbalanced ledger.
        assert!(out
            .violations
            .iter()
            .all(|v| v.kind != ViolationKind::AttributionUnbalanced));
    }

    /// The tentpole invariant at the crashcheck layer: the update-window
    /// sweep injects a failure at every boundary of the stage→flip→activate
    /// span. The two-phase protocol must resume old-or-new everywhere; the
    /// in-place baseline must be pinned torn (and re-notify its activation).
    #[test]
    fn update_window_sweep_separates_two_phase_from_in_place() {
        use apps::ota_update::{self, OtaUpdateCfg};

        let plan = SweepPlan {
            update_window: true,
            strict_memory: true,
            ..SweepPlan::with_env_seed(5)
        };
        for kind in [KernelKind::EaseIo, KernelKind::Alpaca, KernelKind::Ink] {
            let build = move |m: &mut Mcu| {
                ota_update::build(
                    m,
                    &OtaUpdateCfg {
                        two_phase: kind.two_phase_update(),
                        ..OtaUpdateCfg::default()
                    },
                )
                .0
            };
            let out = sweep(&build, kind, &plan);
            assert!(out.injections > 0, "{}: empty update window", kind.name());
            assert!(
                out.injections < out.oracle_boundaries,
                "{}: the window filter must drop boundaries outside the span",
                kind.name()
            );
            assert!(
                out.is_clean(),
                "{} resumed a torn or wrong version: {:?}",
                kind.name(),
                out.violations
            );
        }
        let naive = sweep(
            &|m: &mut Mcu| {
                ota_update::build(
                    m,
                    &OtaUpdateCfg {
                        two_phase: false,
                        ..OtaUpdateCfg::default()
                    },
                )
                .0
            },
            KernelKind::Naive,
            &plan,
        );
        assert!(
            naive
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::VersionTorn),
            "the in-place rewrite must strand a torn image somewhere: {:?}",
            naive.violations
        );
    }

    /// The window filter composes with the fault-schedule product space:
    /// a peripheral fault plan shifts boundary numbering, and the filter
    /// still lands inside the (I/O-free) update window cleanly.
    #[test]
    fn update_window_sweep_composes_with_fault_schedules() {
        use apps::ota_update::{self, OtaUpdateCfg};

        let plan = SweepPlan {
            update_window: true,
            fault: FaultSpec::with_rate(3, 80),
            ..SweepPlan::with_env_seed(5)
        };
        let out = sweep(
            &|m: &mut Mcu| ota_update::build(m, &OtaUpdateCfg::default()).0,
            KernelKind::EaseIo,
            &plan,
        );
        assert!(out.injections > 0);
        assert!(out.is_clean(), "{:?}", out.violations);
    }

    /// The forensics contract on the pinned Naive `version_torn` case:
    /// the record re-trips the violation the sweep saw, carries the
    /// spend-call coordinate and a non-empty FRAM diff against the
    /// oracle, and a `Boundary(b)` re-sweep — the bundle's embedded
    /// minimal repro — reproduces the violation verbatim.
    #[test]
    fn boundary_forensics_reproduces_the_naive_torn_image() {
        use apps::ota_update::{self, OtaUpdateCfg};

        let build = |m: &mut Mcu| {
            ota_update::build(
                m,
                &OtaUpdateCfg {
                    two_phase: false,
                    ..OtaUpdateCfg::default()
                },
            )
            .0
        };
        let plan = SweepPlan {
            update_window: true,
            ..SweepPlan::with_env_seed(5)
        };
        let out = sweep(&build, KernelKind::Naive, &plan);
        let torn = out
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::VersionTorn)
            .expect("the in-place rewrite must strand a torn image");

        let f = boundary_forensics(&build, KernelKind::Naive, &plan, torn.boundary);
        assert_eq!(f.boundary, torn.boundary);
        assert!(f.spend_seq.is_some(), "window boundaries are on the trace");
        assert!(f
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::VersionTorn && v.detail == torn.detail));
        // The torn image is repaired by re-execution, so the *final* FRAM
        // may converge with the oracle — the diff is structural evidence
        // when present, not a required symptom.
        assert!(f.fram_diff.len() as u64 <= f.divergent_bytes);
        for &(_, oracle, observed) in &f.fram_diff {
            assert_ne!(oracle, observed);
        }

        // The minimal repro: a Boundary-mode sweep at the same identity
        // yields exactly the violations of that one boundary.
        let repro = sweep(
            &build,
            KernelKind::Naive,
            &SweepPlan {
                mode: SweepMode::Boundary(torn.boundary),
                update_window: false,
                ..plan.clone()
            },
        );
        assert_eq!(repro.injections, 1);
        assert!(repro.violations.iter().any(|v| v.boundary == torn.boundary
            && v.kind == ViolationKind::VersionTorn
            && v.detail == torn.detail));
    }

    /// A violation that *does* leave divergent persistent state: the
    /// Naive runtime's re-executed DMA under `strict_memory`. The
    /// forensics record must carry a non-empty, capped byte diff.
    #[test]
    fn forensics_fram_diff_is_populated_and_capped_on_memory_divergence() {
        let plan = SweepPlan {
            strict_memory: true,
            ..SweepPlan::with_env_seed(5)
        };
        let out = sweep(&small_dma, KernelKind::Naive, &plan);
        let div = out
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::MemoryDivergence)
            .expect("naive re-execution must diverge somewhere");
        let f = boundary_forensics(&small_dma, KernelKind::Naive, &plan, div.boundary);
        assert!(f.divergent_bytes > 0);
        assert!(!f.fram_diff.is_empty());
        assert!(f.fram_diff.len() <= FORENSICS_DIFF_CAP);
        assert!(f.fram_diff.len() as u64 <= f.divergent_bytes);
        for &(_, oracle, observed) in &f.fram_diff {
            assert_ne!(oracle, observed);
        }
        assert!(f
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::MemoryDivergence));
    }

    #[test]
    fn boundary_mode_out_of_range_is_an_empty_sweep() {
        assert_eq!(select_boundaries(10, SweepMode::Boundary(3), 1), vec![3]);
        assert!(select_boundaries(10, SweepMode::Boundary(10), 1).is_empty());
    }

    #[test]
    fn sampling_is_seeded_and_deterministic() {
        let a = select_boundaries(1000, SweepMode::Sample(20), 42);
        let b = select_boundaries(1000, SweepMode::Sample(20), 42);
        let c = select_boundaries(1000, SweepMode::Sample(20), 43);
        assert_eq!(a, b, "same seed, same boundaries");
        assert_ne!(a, c, "different seed, different boundaries");
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "distinct and sorted");
        // Sample size covering the range degrades to exhaustive.
        let all = select_boundaries(10, SweepMode::Sample(50), 1);
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    /// Multi-millisecond DMA bursts and compute blocks: spend calls that
    /// span several ≤1 ms slices, giving classification real runs of
    /// equivalent boundaries to merge.
    fn chunky_dma(m: &mut Mcu) -> App {
        dma_app::build(
            m,
            &dma_app::DmaAppCfg {
                bytes: 4096,
                chunks: 2,
                iterations: 1,
                pre_compute: 2500,
                post_compute: 500,
            },
        )
    }

    /// Materializes every chosen boundary of an exhaustive sweep from its
    /// class representative and checks it against a real injected run.
    fn assert_materialized_records_match(
        build: &dyn Fn(&mut Mcu) -> App,
        kind: KernelKind,
        plan: &SweepPlan,
    ) -> (BoundaryTrace, PruneClasses) {
        let mut mcu = Mcu::new(Supply::continuous());
        let app = build(&mut mcu);
        let oracle = prepare_oracle(build, kind, plan.env_seed);
        mcu.restore(&oracle.snapshot);
        let trace = reference_trace(
            &app,
            kind,
            &mut mcu,
            &oracle.snapshot,
            plan.env_seed,
            &plan.fault,
        );
        let chosen = select_boundaries(oracle.boundaries, plan.mode, plan.seed);
        let classes = classify_boundaries(&chosen, &trace);
        let run = |mcu: &mut Mcu, b: u64| {
            run_from(
                &app,
                kind,
                mcu,
                &oracle.snapshot,
                Supply::injected(b, plan.off_us),
                plan.env_seed,
                &plan.fault,
            )
        };
        let reps: Vec<RunRecord> = classes.reps.iter().map(|&b| run(&mut mcu, b)).collect();
        for (i, &b) in chosen.iter().enumerate() {
            let class = classes.class_of[i];
            let rep = classes.reps[class];
            let materialized = materialize_record(&trace, &reps[class], rep, b);
            let real = run(&mut mcu, b);
            assert_eq!(materialized, real, "{kind:?} boundary {b} (rep {rep})");
        }
        (trace, classes)
    }

    /// The pruning soundness core, checked at the record level: for every
    /// boundary of an exhaustive sweep, the record materialized from its
    /// class representative must equal the record of a *real* injected run
    /// at that boundary, field for field. Run for a clean runtime and a
    /// violating one, with and without a peripheral-fault plan.
    #[test]
    fn materialized_records_match_real_injected_runs() {
        for (kind, fault) in [
            (KernelKind::EaseIo, FaultSpec::none()),
            (KernelKind::Naive, FaultSpec::none()),
            (KernelKind::EaseIo, FaultSpec::with_rate(3, 120)),
        ] {
            let plan = SweepPlan {
                fault,
                ..SweepPlan::with_env_seed(5)
            };
            let (trace, classes) = assert_materialized_records_match(&chunky_dma, kind, &plan);
            assert!(!trace.time_observed, "the DMA app never observes time");
            assert!(
                classes.reps.len() < classes.class_of.len(),
                "multi-slice DMA bursts must yield mergeable boundaries"
            );
        }
    }

    /// Regression (DMA retry attribution): a DMA request the fault plan
    /// aborts still pays for its burst, and that energy is retry waste. It
    /// used to be spent as progress and relabeled only after the spend, so
    /// the reference ledger recorded the burst's slices as progress while a
    /// real run interrupted mid-burst relabeled them as retry — every
    /// boundary inside an aborted multi-slice burst materialized with the
    /// wrong retry total. The burst is now charged to retry as it is spent.
    #[test]
    fn materialized_records_match_real_runs_inside_aborted_dma_bursts() {
        use periph::{FaultPlan, PeriphClass};

        // A seed whose first request at the copy task's DMA site 0 faults
        // and whose retry goes through.
        let seed = (0..u64::MAX)
            .find(|&s| {
                let p = FaultPlan::new(s, 500);
                p.decide(PeriphClass::Dma, 1, 0, 0).is_some()
                    && p.decide(PeriphClass::Dma, 1, 0, 1).is_none()
            })
            .unwrap();
        let plan = SweepPlan {
            fault: FaultSpec::with_rate(seed, 500),
            ..SweepPlan::with_env_seed(5)
        };
        for kind in [KernelKind::EaseIo, KernelKind::Naive] {
            let (trace, _) = assert_materialized_records_match(&chunky_dma, kind, &plan);
            // Not vacuous: the reference run has a multi-slice spend call
            // charged to retry, i.e. an aborted burst pruning merged.
            let retry = mcu_emu::EnergyCause::Retry.index();
            assert!(
                trace
                    .slices
                    .windows(2)
                    .any(|w| w[0].spend_seq == w[1].spend_seq
                        && w[1].cause_energy_nj[retry] > w[0].cause_energy_nj[retry]),
                "{kind:?}: no aborted multi-slice DMA burst on the reference run"
            );
        }
    }

    /// Effect-epoch pruning on `lea`: its `filter` task stages every input
    /// sample and coefficient into volatile LEA-RAM, one spend call each,
    /// and nothing that survives a power failure changes in between — the
    /// whole staging loop is one class under every kernel, and materialized
    /// records still equal real injected runs.
    #[test]
    fn lea_staging_loop_forms_one_class() {
        use apps::lea_app::{self, LeaAppCfg};

        let cfg = LeaAppCfg { n_out: 16, taps: 4 };
        let staged = (cfg.n_out + cfg.taps - 1 + cfg.taps) as usize;
        let build = move |m: &mut Mcu| lea_app::build(m, &cfg);
        for kind in KernelKind::ALL {
            let (trace, classes) =
                assert_materialized_records_match(&build, kind, &SweepPlan::with_env_seed(5));
            assert!(!trace.time_observed);
            let mut sizes = vec![0usize; classes.reps.len()];
            for &c in &classes.class_of {
                sizes[c] += 1;
            }
            // The staging loop's slices, plus the attempt's pure prologue.
            assert!(
                sizes.iter().any(|&n| n >= staged),
                "{kind:?}: no class spans the {staged}-store staging loop: {sizes:?}"
            );
        }
    }

    /// Pinned case: two boundaries whose restored machine state is
    /// byte-identical but whose *fault-plan position* (the peripheral's
    /// physical attempt counter) differs must never merge. A faulted LEA
    /// call charges its full cost without any memory effect, so the retry
    /// attempt starts from the exact memory state of the first — a key
    /// hashing machine state alone would merge their slices. Attempt
    /// counters tick between spend calls, so the spend-call key keeps them
    /// apart, and the remaining fault schedule stays part of the identity.
    #[test]
    fn boundaries_differing_only_in_fault_plan_position_never_merge() {
        use kernel::{io::perform_io, IoOp, TaskId};
        use periph::{FaultPlan, PeriphClass};

        // A seed where attempt 0 faults and attempt 1 succeeds.
        let seed = (0..u64::MAX)
            .find(|&s| {
                let p = FaultPlan::new(s, 500);
                p.decide(PeriphClass::Lea, 0, 0, 0).is_some()
                    && p.decide(PeriphClass::Lea, 0, 0, 1).is_none()
            })
            .unwrap();
        let mut mcu = Mcu::new(Supply::continuous());
        let x = mcu.mem.alloc(Region::LeaRam, 256, AllocTag::App);
        let h = mcu.mem.alloc(Region::LeaRam, 128, AllocTag::App);
        let y = mcu.mem.alloc(Region::LeaRam, 128, AllocTag::App);
        let op = IoOp::LeaFir {
            x,
            h,
            y,
            n_out: 64,
            taps: 64,
        };
        let mut periph = Peripherals::with_fault_plan(1, FaultPlan::new(seed, 500));
        mcu.record_boundaries(&PROBE_COUNTERS);
        // Attempt 0: full cost charged (64·64 µs ≈ 5 slices), LeaStall, no
        // memory effect. Attempt 1: identical burst, succeeds.
        assert!(perform_io(&mut mcu, &mut periph, &op, TaskId(0), 0).is_err());
        assert!(perform_io(&mut mcu, &mut periph, &op, TaskId(0), 0).is_ok());
        let (slices, time_observed) = mcu.take_boundary_recording().unwrap();
        assert!(!time_observed, "LEA work never observes time");
        let trace = BoundaryTrace {
            slices,
            time_observed,
        };
        let chosen: Vec<u64> = (0..trace.slices.len() as u64).collect();
        let classes = classify_boundaries(&chosen, &trace);
        // Both attempts produced multi-slice bursts…
        let first = classes.class_of[1];
        let last = *classes.class_of.last().unwrap();
        assert_eq!(
            classes.class_of[0], first,
            "slices within one attempt share a class"
        );
        // …but the two attempts must be distinct classes.
        assert_ne!(
            first, last,
            "attempt 0 and attempt 1 differ only in fault-plan position and must not merge"
        );
    }

    /// Checks every chosen boundary's checkpointed injection (resumed at
    /// its attempt's checkpoint, stopped where it rejoins the reference)
    /// against the from-boot [`run_from`] record, field by field. Returns
    /// the reference time-observation flag and the rejoin count.
    fn assert_checkpointed_records_match(
        build: &dyn Fn(&mut Mcu) -> App,
        kind: KernelKind,
        plan: &SweepPlan,
    ) -> (bool, u64) {
        let mut mcu = Mcu::new(Supply::continuous());
        let app = build(&mut mcu);
        let oracle = prepare_oracle(build, kind, plan.env_seed);
        mcu.restore(&oracle.snapshot);
        let reference = reference_run(
            &app,
            kind,
            &mut mcu,
            &oracle.snapshot,
            plan.env_seed,
            &plan.fault,
        );
        let mut chosen = select_boundaries(oracle.boundaries, plan.mode, plan.seed);
        if plan.update_window {
            chosen = filter_update_window(&chosen, &reference.trace);
        }
        assert!(!chosen.is_empty());
        let mut rejoined = 0;
        let mut held = HeldRun::default();
        for b in chosen {
            let (resumed, work) = reference.run_injected(&app, &mut mcu, &mut held, b, plan.off_us);
            let real = run_from(
                &app,
                kind,
                &mut mcu,
                &oracle.snapshot,
                Supply::injected(b, plan.off_us),
                plan.env_seed,
                &plan.fault,
            );
            assert_eq!(resumed, real, "{kind:?} boundary {b}");
            assert!(work.boundaries <= real.boundaries);
            rejoined += work.rejoined as u64;
        }
        // Checkpoints hold the pages that differ from the root — a few
        // each — never the 66-page image.
        let checkpoints = reference.attempt_checkpoints() + 1;
        assert!(reference.checkpoint_pages() <= 4 * checkpoints);
        (reference.trace.time_observed, rejoined)
    }

    /// A program that hands a volatile value from one task to a later one:
    /// `produce` leaves 7 in SRAM, `work` computes, `consume` stores the
    /// SRAM value to FRAM. A failure in `work` wipes the value, so the
    /// resumed run reaches `consume` with FRAM, runtime and peripherals
    /// equal to the reference run but SRAM not — it must not rejoin there.
    fn volatile_handoff(m: &mut Mcu) -> App {
        use kernel::{Inventory, TaskCtx, TaskDef, TaskId, TaskResult, Transition};
        use mcu_emu::NvVar;
        use std::rc::Rc;

        let staged: NvVar<u16> = NvVar::alloc(&mut m.mem, Region::Sram);
        let out: NvVar<u16> = NvVar::alloc(&mut m.mem, Region::Fram);
        let produce = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
            ctx.write(staged, 7)?;
            Ok(Transition::To(TaskId(1)))
        };
        let work = |ctx: &mut TaskCtx<'_>| -> TaskResult {
            ctx.compute(2_500)?;
            Ok(Transition::To(TaskId(2)))
        };
        let consume = move |ctx: &mut TaskCtx<'_>| -> TaskResult {
            let v = ctx.read(staged)?;
            ctx.write(out, v)?;
            Ok(Transition::Done)
        };
        let task = |name, body: Rc<dyn Fn(&mut TaskCtx<'_>) -> TaskResult>| TaskDef { name, body };
        App {
            name: "volatile-handoff",
            tasks: vec![
                task("produce", Rc::new(produce)),
                task("work", Rc::new(work)),
                task("consume", Rc::new(consume)),
            ],
            entry: TaskId(0),
            inventory: Inventory {
                tasks: 3,
                ..Default::default()
            },
            verify: None,
        }
    }

    /// Checkpoint soundness at the record level: for every boundary, the
    /// injected run resumed at the checkpoint of the attempt its failure
    /// falls in — and, on a time-blind reference, stopped where it rejoins
    /// the reference run — yields the from-boot record field by field.
    /// Cut-down `dma`, `fir` and `fir-long`, the time-observing `temp`,
    /// `ota-update` over its update window and a volatile hand-off across
    /// tasks, under every kernel, with and without a fault plan.
    #[test]
    fn checkpointed_records_match_from_boot_runs() {
        use apps::fir_long::{self, FirLongCfg};
        use apps::ota_update::{self, OtaUpdateCfg};
        use apps::{fir, temp_app};

        for kind in KernelKind::ALL {
            let op = kind.excludes_const_dma();
            let fir_small = move |m: &mut Mcu| {
                fir::build(
                    m,
                    &fir::FirCfg {
                        chunk: 16,
                        taps: 8,
                        exclude_const_dma: op,
                        rounds: 2,
                    },
                )
            };
            let fir_long_small = move |m: &mut Mcu| {
                fir_long::build(
                    m,
                    &FirLongCfg {
                        chunk: 8,
                        taps: 480,
                        rounds: 2,
                        post_cycles: 3_000,
                        exclude_const_dma: op,
                    },
                )
            };
            let temp = |m: &mut Mcu| {
                temp_app::build(
                    m,
                    &temp_app::TempAppCfg {
                        rounds: 2,
                        ..Default::default()
                    },
                )
            };
            let ota = move |m: &mut Mcu| {
                ota_update::build(
                    m,
                    &OtaUpdateCfg {
                        two_phase: kind.two_phase_update(),
                        ..OtaUpdateCfg::default()
                    },
                )
                .0
            };
            type Build<'a> = &'a dyn Fn(&mut Mcu) -> App;
            let apps: [(&str, Build, bool); 6] = [
                ("dma", &small_dma, false),
                ("fir", &fir_small, false),
                ("fir-long", &fir_long_small, false),
                ("temp", &temp, false),
                ("ota-update", &ota, true),
                ("volatile-handoff", &volatile_handoff, false),
            ];
            for (name, build, update_window) in apps {
                for fault in [FaultSpec::none(), FaultSpec::with_rate(3, 60)] {
                    let plan = SweepPlan {
                        fault,
                        update_window,
                        ..SweepPlan::with_env_seed(5)
                    };
                    let (time_observed, rejoined) =
                        assert_checkpointed_records_match(build, kind, &plan);
                    if name == "temp" {
                        assert!(time_observed, "temp senses");
                        assert_eq!(rejoined, 0, "{kind:?}: a time-observing run rejoined");
                    } else if fault.plan.is_none() && name != "volatile-handoff" {
                        assert!(rejoined > 0, "{name} under {kind:?}: nothing rejoined");
                    }
                }
            }
        }
    }

    /// `check_record`'s pointer shortcut never changes a verdict: a record
    /// sharing the oracle's image, an equal copy and a differing copy are
    /// judged as a byte compare would judge them. And a checkpointed run
    /// that does not rejoin shares the reference's final image exactly
    /// when its own bytes equal it.
    #[test]
    fn shared_fram_images_judge_like_copies() {
        let judged = |r: &RunRecord, oracle: &[u8]| -> Vec<(ViolationKind, String)> {
            check_record(r, oracle, 3, true)
                .into_iter()
                .map(|v| (v.kind, v.detail))
                .collect()
        };
        let oracle = prepare_oracle(&small_dma, KernelKind::EaseIo, 5);
        let mut mcu = Mcu::new(Supply::continuous());
        let app = small_dma(&mut mcu);
        let rec = run_from(
            &app,
            KernelKind::EaseIo,
            &mut mcu,
            &oracle.snapshot,
            Supply::continuous(),
            5,
            &FaultSpec::none(),
        );
        assert!(oracle.fram.len() > 8);
        let with = |fram: Arc<[u8]>| RunRecord {
            fram,
            ..rec.clone()
        };
        let shared = with(Arc::clone(&oracle.fram));
        let copy = with(oracle.fram.to_vec().into());
        assert!(std::ptr::eq(&*shared.fram, &*oracle.fram));
        assert!(!std::ptr::eq(&*copy.fram, &*oracle.fram));
        assert_eq!(judged(&shared, &oracle.fram), Vec::new());
        assert_eq!(judged(&copy, &oracle.fram), Vec::new());
        let mut bytes = oracle.fram.to_vec();
        bytes[5] ^= 0xff;
        bytes[7] ^= 0x01;
        let differing = with(bytes.into());
        let divergence = |first: usize| {
            vec![(
                ViolationKind::MemoryDivergence,
                format!(
                    "app FRAM diverges from the oracle at byte {first} of {}",
                    oracle.fram.len()
                ),
            )]
        };
        assert_eq!(judged(&differing, &oracle.fram), divergence(5));
        let short = with(oracle.fram[..4].to_vec().into());
        assert_eq!(judged(&short, &oracle.fram), divergence(4));

        let (mut shares, mut copies) = (0, 0);
        let mut held = HeldRun::default();
        for kind in [KernelKind::Naive, KernelKind::EaseIo] {
            mcu.restore(&oracle.snapshot);
            let reference = reference_run(
                &app,
                kind,
                &mut mcu,
                &oracle.snapshot,
                5,
                &FaultSpec::none(),
            );
            for b in 0..reference.trace.slices.len() as u64 {
                let (r, work) = reference.run_injected(&app, &mut mcu, &mut held, b, 100_000);
                if work.rejoined {
                    continue;
                }
                let same_bytes = *r.fram == *reference.record.fram;
                assert_eq!(
                    Arc::ptr_eq(&r.fram, &reference.record.fram),
                    same_bytes,
                    "{kind:?} boundary {b}"
                );
                assert_eq!(*r.fram, *app_fram(&mcu), "{kind:?} boundary {b}");
                if same_bytes {
                    shares += 1;
                } else {
                    copies += 1;
                }
            }
        }
        assert!(shares > 0 && copies > 0, "{shares} shared, {copies} copied");
    }

    /// The apps the reset property runs, each under every kernel.
    const RESET_APPS: [fn(&mut Mcu) -> App; 5] = [
        small_dma,
        |m| temp_app::build(m, &temp_app::TempAppCfg::default()),
        |m| fir::build(m, &fir::FirCfg::default()),
        |m| flaky_radio::build(m, &flaky_radio::FlakyRadioCfg::default()).0,
        |m| unsafe_branch::build(m, &unsafe_branch::BranchCfg::default()).0,
    ];

    thread_local! {
        /// One reference per `RESET_APPS` entry and kernel, under a fault
        /// plan so the peripherals' fault counters fill up too.
        static RESET_REFERENCES: Vec<Vec<Reference>> = RESET_APPS
            .iter()
            .map(|build| {
                KernelKind::ALL
                    .iter()
                    .map(|&kind| {
                        let oracle = prepare_oracle(build, kind, 5);
                        let mut mcu = Mcu::new(Supply::continuous());
                        let app = build(&mut mcu);
                        let fault = FaultSpec::with_rate(3, 80);
                        reference_run(&app, kind, &mut mcu, &oracle.snapshot, 5, &fault)
                    })
                    .collect()
            })
            .collect();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A held run left dirty by an injection of some app under some
        /// kernel, reset to a checkpoint of another (or the same) app and
        /// kernel, equals a fresh copy of that checkpoint: runtime,
        /// peripherals and executor state, and `Checkpoint::matches` over
        /// the machine restored to it.
        #[test]
        fn a_reset_held_run_equals_a_fresh_copy_of_its_checkpoint(
            dirty in (0..RESET_APPS.len(), 0..KernelKind::ALL.len(), any::<u64>()),
            target in (0..RESET_APPS.len(), 0..KernelKind::ALL.len(), any::<u64>()),
        ) {
            RESET_REFERENCES.with(|refs| {
                let mut held = HeldRun::default();
                let (a, k, pick) = dirty;
                let reference = &refs[a][k];
                let mut mcu = Mcu::new(Supply::continuous());
                let app = RESET_APPS[a](&mut mcu);
                let b = pick % reference.trace.slices.len() as u64;
                reference.run_injected(&app, &mut mcu, &mut held, b, 100_000);

                let (a, k, pick) = target;
                let reference = &refs[a][k];
                let cp = &reference.checkpoints[pick as usize % reference.checkpoints.len()];
                let mut mcu = Mcu::new(Supply::continuous());
                let app = RESET_APPS[a](&mut mcu);
                mcu.restore_checkpoint(&reference.snap, &cp.mcu);
                let Held { rt, periph, exec, .. } = held.reset_from(cp);
                prop_assert!(cp.rt.clone_state().state_eq(&**rt));
                prop_assert!(rt.state_eq(&*cp.rt));
                prop_assert_eq!(&*periph, &cp.periph.clone());
                prop_assert_eq!(&*exec, &cp.exec.clone());
                let exec = Executor::new(&app, rt.as_mut(), periph, &reference.cfg, exec);
                prop_assert!(cp.matches(&exec, &mcu, &reference.snap));
                Ok(())
            })?;
        }
    }

    #[test]
    fn violations_are_reproducible_from_seed_and_boundary() {
        let plan = SweepPlan {
            strict_memory: true,
            mode: SweepMode::Sample(40),
            ..SweepPlan::with_env_seed(5)
        };
        let a = sweep(&small_dma, KernelKind::Naive, &plan);
        let b = sweep(&small_dma, KernelKind::Naive, &plan);
        assert_eq!(a.violations.len(), b.violations.len());
        for (x, y) in a.violations.iter().zip(&b.violations) {
            assert_eq!(x.boundary, y.boundary);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.detail, y.detail);
        }
    }
}
