//! Seeded experiment driver shared by the benches, tests, and examples.
//!
//! One *experiment* is: build an app on a fresh MCU, run it under a runtime
//! and a seeded failure schedule, and collect the ledger. [`run_many`]
//! repeats this over `runs` seeds (the paper executes each application 1000
//! times with pseudo-random seeds, §5.3) and aggregates a [`Summary`] with
//! the paper's metrics: total time split into app/overhead/wasted, energy,
//! power failures, redundant re-executions, and correctness counts.

use easeio_core::EaseIoRuntime;
use kernel::alpaca::AlpacaRuntime;
use kernel::footprint::{footprint, Footprint};
use kernel::ink::InkRuntime;
use kernel::naive::NaiveRuntime;
use kernel::{run_app, App, ExecConfig, FaultSpec, Outcome, RunResult, Runtime, Verdict};
use mcu_emu::{Mcu, Supply, TimerResetConfig};
use periph::Peripherals;

pub use kernel::KernelKind;

/// The one run recipe: which kernel runs, under which transient-fault
/// configuration (plan + retry policy). Every from-scratch run start in
/// the workspace — single runs, the crash sweep's oracle and reference,
/// the experiment grid, the synthesized-program checker — goes through
/// [`KernelBuilder::boot`], so runs seeded alike start from identical
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelBuilder {
    kind: KernelKind,
    fault: FaultSpec,
}

impl From<KernelKind> for KernelBuilder {
    fn from(kind: KernelKind) -> Self {
        Self::new(kind)
    }
}

impl KernelBuilder {
    /// A fault-free recipe for `kind`.
    pub fn new(kind: KernelKind) -> Self {
        Self {
            kind,
            fault: FaultSpec::none(),
        }
    }

    /// The recipe with `fault`'s plan and retry policy, which
    /// [`KernelBuilder::boot`] applies.
    pub fn with_faults(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }

    /// Instantiates a fresh kernel. Each run gets its own instance — kernels
    /// carry per-run state (locks, private copies, activation bookkeeping).
    pub fn build(&self) -> Box<dyn Runtime> {
        match self.kind {
            KernelKind::Naive => Box::new(NaiveRuntime::new()),
            KernelKind::Alpaca => Box::new(AlpacaRuntime::new()),
            KernelKind::Ink => Box::new(InkRuntime::new()),
            KernelKind::EaseIo | KernelKind::EaseIoOp => Box::new(EaseIoRuntime::default()),
        }
    }

    /// The start of a run at `env_seed`: a fresh kernel, fresh peripherals
    /// with the recipe's fault plan applied, and the executor configuration
    /// carrying its retry policy.
    pub fn boot(&self, env_seed: u64) -> (Box<dyn Runtime>, Peripherals, ExecConfig) {
        let mut periph = Peripherals::new(env_seed);
        self.fault.apply(&mut periph);
        let cfg = ExecConfig {
            retry: self.fault.retry,
            ..ExecConfig::default()
        };
        (self.build(), periph, cfg)
    }
}

/// The paper's controlled-failure schedule for the run at `seed` (§5.1:
/// on-period uniform [5, 20] ms).
pub fn paper_supply(seed: u64) -> Supply {
    Supply::timer(TimerResetConfig::default(), seed)
}

/// Repetition configuration for an experiment.
#[derive(Debug, Clone)]
pub struct ExperimentCfg {
    /// Number of seeded repetitions.
    pub runs: u64,
    /// Base seed; run `i` uses seed `base_seed + i` for both its supply and
    /// its environment.
    pub base_seed: u64,
}

impl Default for ExperimentCfg {
    fn default() -> Self {
        Self {
            runs: 1000,
            base_seed: 0xEA5E10,
        }
    }
}

/// Aggregated results of `runs` seeded executions.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Runtime display name.
    pub runtime: &'static str,
    /// Application name.
    pub app: &'static str,
    /// Repetitions attempted.
    pub runs: u64,
    /// Runs that completed.
    pub completed: u64,
    /// Runs that hit the non-termination guard.
    pub non_terminated: u64,
    /// Runs aborted on a runtime resource fault (e.g. DMA pool exhausted).
    pub faulted: u64,
    /// Completed runs whose final state matched the golden run.
    pub correct: u64,
    /// Completed runs with corrupted state.
    pub incorrect: u64,
    /// Task commits over completed runs.
    pub task_commits: u64,
    /// Total on-time over all completed runs (µs).
    pub total_on_us: u64,
    /// App-classified time (µs).
    pub app_us: u64,
    /// Overhead-classified time (µs).
    pub overhead_us: u64,
    /// Golden (continuous-power) app time per run (µs).
    pub golden_app_us: u64,
    /// Golden app energy per run (nJ).
    pub golden_app_energy_nj: u64,
    /// Total energy over completed runs (nJ).
    pub energy_nj: u64,
    /// Power failures over completed runs.
    pub power_failures: u64,
    /// I/O operations physically executed.
    pub io_executed: u64,
    /// I/O operations skipped with restored outputs.
    pub io_skipped: u64,
    /// Redundant I/O re-executions (peripheral).
    pub io_reexecutions: u64,
    /// Redundant DMA re-executions.
    pub dma_reexecutions: u64,
    /// DMA transfers skipped.
    pub dma_skipped: u64,
    /// Per-run total on-times (µs), for percentile reporting.
    pub run_totals_us: Vec<u64>,
}

impl Summary {
    /// Wasted app time over all runs (µs): measured minus golden.
    pub fn wasted_us(&self) -> u64 {
        self.app_us
            .saturating_sub(self.golden_app_us * self.completed)
    }

    /// Useful app time over all runs (µs).
    pub fn useful_us(&self) -> u64 {
        self.golden_app_us * self.completed
    }

    /// Mean total execution time per run (µs).
    pub fn mean_total_us(&self) -> u64 {
        if self.completed == 0 {
            return 0;
        }
        self.total_on_us / self.completed
    }

    /// Total redundant re-executions (I/O + DMA).
    pub fn reexecutions(&self) -> u64 {
        self.io_reexecutions + self.dma_reexecutions
    }

    /// The q-th percentile of per-run total time (µs); q in 0..=100.
    pub fn percentile_us(&self, q: u32) -> u64 {
        let mut v = self.run_totals_us.clone();
        v.sort_unstable();
        easeio_trace::agg::percentile(&v, q.into())
    }
}

/// Runs the app once on `supply`, started by `recipe`'s [`KernelBuilder::boot`].
/// `builder` allocates the app on the provided MCU.
pub fn run_once(
    builder: &dyn Fn(&mut Mcu) -> App,
    recipe: impl Into<KernelBuilder>,
    supply: Supply,
    env_seed: u64,
) -> RunResult {
    run_on(&mut Mcu::new(supply), builder, recipe.into(), env_seed).1
}

/// Like [`run_once`], but with the structured event recorder enabled: the
/// returned [`RunResult::events`] holds the full trace.
pub fn run_traced(
    builder: &dyn Fn(&mut Mcu) -> App,
    recipe: impl Into<KernelBuilder>,
    supply: Supply,
    env_seed: u64,
) -> RunResult {
    let mut mcu = Mcu::new(supply);
    mcu.trace = mcu_emu::TraceSink::enabled();
    run_on(&mut mcu, builder, recipe.into(), env_seed).1
}

/// Builds the app on `mcu` and runs it from `recipe`'s boot.
fn run_on(
    mcu: &mut Mcu,
    builder: &dyn Fn(&mut Mcu) -> App,
    recipe: KernelBuilder,
    env_seed: u64,
) -> (App, RunResult) {
    let app = builder(mcu);
    let (mut rt, mut periph, cfg) = recipe.boot(env_seed);
    let r = run_app(&app, rt.as_mut(), mcu, &mut periph, &cfg);
    (app, r)
}

/// Golden run on continuous power: returns (app time, app energy) per run.
/// On continuous power nothing re-executes, so the app-classified ledger is
/// pure useful work.
pub fn golden(builder: &dyn Fn(&mut Mcu) -> App, kind: KernelKind, env_seed: u64) -> (u64, u64) {
    let r = run_once(builder, kind, Supply::continuous(), env_seed);
    assert_eq!(
        r.outcome,
        Outcome::Completed,
        "golden run must complete on continuous power"
    );
    (r.stats.app_time_us, r.stats.app_energy_nj)
}

/// Runs the experiment `cfg.runs` times and aggregates. The run at seed
/// `s` is powered by `supply(s)`; every run starts from `recipe`, so gets
/// the same fault plan and retry policy. The golden run is fault-free.
pub fn run_many(
    app_name: &'static str,
    builder: &dyn Fn(&mut Mcu) -> App,
    recipe: impl Into<KernelBuilder>,
    cfg: &ExperimentCfg,
    supply: &dyn Fn(u64) -> Supply,
) -> Summary {
    let recipe = recipe.into();
    let (golden_app_us, golden_app_energy_nj) = golden(builder, recipe.kind, cfg.base_seed);
    let mut s = Summary {
        runtime: recipe.kind.name(),
        app: app_name,
        runs: cfg.runs,
        golden_app_us,
        golden_app_energy_nj,
        ..Summary::default()
    };
    for seed in cfg.base_seed..cfg.base_seed + cfg.runs {
        let r = run_once(builder, recipe, supply(seed), seed);
        match r.outcome {
            Outcome::NonTermination => {
                s.non_terminated += 1;
                continue;
            }
            Outcome::Fault(_) => {
                s.faulted += 1;
                continue;
            }
            Outcome::Completed => s.completed += 1,
        }
        match &r.verdict {
            Some(Verdict::Correct) => s.correct += 1,
            Some(Verdict::Incorrect(_)) => s.incorrect += 1,
            None => {}
        }
        s.task_commits += r.stats.task_commits;
        s.total_on_us += r.stats.total_time_us();
        s.run_totals_us.push(r.stats.total_time_us());
        s.app_us += r.stats.app_time_us;
        s.overhead_us += r.stats.overhead_time_us;
        s.energy_nj += r.stats.total_energy_nj();
        s.power_failures += r.stats.power_failures;
        s.io_executed += r.stats.io_executed;
        s.io_skipped += r.stats.io_skipped;
        s.io_reexecutions += r.stats.io_reexecutions;
        s.dma_reexecutions += r.stats.dma_reexecutions;
        s.dma_skipped += r.stats.dma_skipped;
    }
    s
}

/// Measures an app's memory/code footprint under a runtime (Table 6): one
/// continuous run so every runtime structure is allocated, then read the
/// allocator and evaluate the code model.
pub fn measure_footprint(
    builder: &dyn Fn(&mut Mcu) -> App,
    kind: KernelKind,
    env_seed: u64,
) -> Footprint {
    let mut mcu = Mcu::new(Supply::continuous());
    let (app, r) = run_on(&mut mcu, builder, kind.into(), env_seed);
    assert_eq!(r.outcome, Outcome::Completed);
    footprint(kind.name(), &app.inventory, &mcu.mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma_app::{self, DmaAppCfg};
    use crate::temp_app::{self, TempAppCfg};

    #[test]
    fn run_many_aggregates_and_is_deterministic() {
        let cfg = ExperimentCfg {
            runs: 20,
            ..Default::default()
        };
        let build = |mcu: &mut Mcu| dma_app::build(mcu, &DmaAppCfg::default());
        let a = run_many("dma", &build, KernelKind::Alpaca, &cfg, &paper_supply);
        let b = run_many("dma", &build, KernelKind::Alpaca, &cfg, &paper_supply);
        assert_eq!(a.total_on_us, b.total_on_us);
        assert_eq!(a.power_failures, b.power_failures);
        assert_eq!(a.completed, 20);
        assert_eq!(a.correct, 20, "the DMA app is WAR-free: always correct");
    }

    #[test]
    fn easeio_beats_alpaca_on_single_dma_workload() {
        let cfg = ExperimentCfg {
            runs: 30,
            ..Default::default()
        };
        let build = |mcu: &mut Mcu| dma_app::build(mcu, &DmaAppCfg::default());
        let alpaca = run_many("dma", &build, KernelKind::Alpaca, &cfg, &paper_supply);
        let easeio = run_many("dma", &build, KernelKind::EaseIo, &cfg, &paper_supply);
        assert!(
            easeio.reexecutions() < alpaca.reexecutions(),
            "EaseIO {} vs Alpaca {} re-executions",
            easeio.reexecutions(),
            alpaca.reexecutions()
        );
        assert!(
            easeio.mean_total_us() < alpaca.mean_total_us(),
            "EaseIO {} µs vs Alpaca {} µs",
            easeio.mean_total_us(),
            alpaca.mean_total_us()
        );
        assert!(easeio.wasted_us() < alpaca.wasted_us());
    }

    #[test]
    fn every_kind_builds_its_runtime() {
        for kind in KernelKind::ALL {
            let rt = KernelBuilder::new(kind).build();
            // EaseIO/Op is the EaseIO runtime paired with `Exclude` apps.
            assert_eq!(rt.name(), kind.name().trim_end_matches("/Op"), "{kind:?}");
        }
    }

    #[test]
    fn boot_applies_the_fault_plan_and_retry_policy() {
        use crate::flaky_radio::{self, FlakyRadioCfg};
        let build = |mcu: &mut Mcu| flaky_radio::build(mcu, &FlakyRadioCfg::default()).0;
        let recipe = KernelBuilder::new(KernelKind::EaseIo).with_faults(FaultSpec {
            retry: kernel::RetryPolicy {
                max_retries: 1,
                ..Default::default()
            },
            ..FaultSpec::with_rate(3, 300)
        });
        let supply = || Supply::timer(TimerResetConfig::default(), 5);
        let mut mcu = Mcu::new(supply());
        let app = build(&mut mcu);
        let (mut rt, mut periph, cfg) = recipe.boot(5);
        let plan = periph::FaultPlan::new(3, 300);
        assert_eq!(periph, Peripherals::with_fault_plan(5, plan));
        assert_eq!(cfg.retry.max_retries, 1);
        let booted = run_app(&app, rt.as_mut(), &mut mcu, &mut periph, &cfg);
        let once = run_once(&build, recipe, supply(), 5);
        assert_eq!(format!("{booted:?}"), format!("{once:?}"));
        let quiet = run_once(&build, KernelKind::EaseIo, supply(), 5);
        assert_ne!(
            format!("{quiet:?}"),
            format!("{once:?}"),
            "the fault plan changed the run"
        );
    }

    #[test]
    fn footprints_are_ordered_like_table6() {
        let build = |mcu: &mut Mcu| temp_app::build(mcu, &TempAppCfg::default());
        let alpaca = measure_footprint(&build, KernelKind::Alpaca, 1);
        let ink = measure_footprint(&build, KernelKind::Ink, 1);
        let easeio = measure_footprint(&build, KernelKind::EaseIo, 1);
        assert!(alpaca.text < ink.text);
        assert!(alpaca.text < easeio.text);
        assert!(alpaca.fram <= easeio.fram, "EaseIO adds flag slots in FRAM");
    }
}

#[cfg(test)]
mod percentile_tests {
    use super::*;

    #[test]
    fn percentiles_of_known_distribution() {
        let mut s = run_many(
            "dma",
            &|mcu: &mut Mcu| crate::dma_app::build(mcu, &crate::dma_app::DmaAppCfg::default()),
            KernelKind::EaseIo,
            &ExperimentCfg {
                runs: 5,
                ..Default::default()
            },
            &paper_supply,
        );
        // Replace measured values with a known ladder.
        s.run_totals_us = vec![10, 20, 30, 40, 50];
        assert_eq!(s.percentile_us(0), 10);
        assert_eq!(s.percentile_us(50), 30);
        assert_eq!(s.percentile_us(100), 50);
        s.run_totals_us.clear();
        assert_eq!(s.percentile_us(95), 0);
    }
}
