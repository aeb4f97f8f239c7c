//! The paper's evaluation (§5): every table and figure, each experiment run
//! once.
//!
//! [`evaluate`] runs every experiment and returns the results typed, as an
//! [`Evaluation`]; [`Evaluation::tables`] renders them as the [`Table`]s
//! that `cargo bench --bench paper` prints, `tests/golden/paper_tables.json`
//! pins and EXPERIMENTS.md quotes (DESIGN.md §6 maps each table id to its
//! paper artifact). Cells aggregate the paper's [`PAPER_RUNS`] seeded runs
//! under U\[5,20\] ms resets, the ablations [`ABLATION_RUNS`]. Everything is
//! seeded and deterministic.

use crate::format::{ms, pct, row, uj, Table};
use apps::dma_app::{self, DmaAppCfg};
use apps::fir::{self, FirCfg};
use apps::harness::{
    measure_footprint, paper_supply, run_many, run_once, ExperimentCfg, KernelKind, Summary,
};
use apps::lea_app::{self, LeaAppCfg};
use apps::temp_app::{self, TempAppCfg};
use apps::weather::{self, WeatherCfg};
use easeio_core::dma_rules::BufferMode::{self, Dedicated, Shared};
use easeio_core::{EaseIoConfig, EaseIoRuntime};
use easeio_exec::{run_grid, GridCell, GridSpec};
use kernel::footprint::Footprint;
use kernel::{run_app, App, ExecConfig, FaultSpec, Inventory, Outcome, Verdict};
use mcu_emu::{Mcu, Supply, TimerResetConfig};
use KernelKind::{Alpaca, EaseIo, EaseIoOp, Ink};

/// Seeded repetitions per cell: the paper's 1000 (§5.3).
pub const PAPER_RUNS: u64 = 1000;
/// Seeded repetitions per ablation cell.
pub const ABLATION_RUNS: u64 = 300;
/// Figure 13's transmitter distances (inches).
pub const FIG13_DISTANCES: [u64; 5] = [52, 55, 58, 61, 64];
/// Figure 13's runtimes; EaseIO, the baseline of the diff, first.
pub const FIG13_KERNELS: [KernelKind; 3] = [EaseIo, Ink, Alpaca];

type Builder = Box<dyn Fn(&mut Mcu) -> App>;

fn dma() -> Builder {
    Box::new(|mcu| dma_app::build(mcu, &DmaAppCfg::default()))
}

/// The temperature app with a `Timely` window of `window_ms`, or the app's
/// default window.
fn temp(window_ms: Option<u64>) -> Builder {
    let mut cfg = TempAppCfg::default();
    cfg.window_ms = window_ms.unwrap_or(cfg.window_ms);
    Box::new(move |mcu| temp_app::build(mcu, &cfg))
}

fn lea() -> Builder {
    Box::new(|mcu| lea_app::build(mcu, &LeaAppCfg::default()))
}

/// The FIR app; `exclude` marks its constant-coefficient DMAs `Exclude`
/// (the `/Op` variant).
fn fir(exclude_const_dma: bool) -> Builder {
    let cfg = FirCfg {
        exclude_const_dma,
        ..FirCfg::default()
    };
    Box::new(move |mcu| fir::build(mcu, &cfg))
}

/// The weather classifier with double or single activation buffers.
fn weather(single_buffer: bool) -> Builder {
    let cfg = WeatherCfg {
        single_buffer,
        ..WeatherCfg::default()
    };
    Box::new(move |mcu| weather::build(mcu, &cfg))
}

/// The five evaluated applications in the paper's table order.
fn paper_apps() -> [Builder; 5] {
    [lea(), dma(), temp(None), fir(false), weather(false)]
}

/// One Table 5 row: a runtime × buffering-strategy measurement.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Runtime name.
    pub runtime: &'static str,
    /// Buffering strategy ("double" / "single").
    pub buffering: &'static str,
    /// Continuous-power execution time (µs).
    pub continuous_us: u64,
    /// The intermittent runs.
    pub runs: Summary,
}

/// One Table 6 row: an app × runtime footprint.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Application name.
    pub app: &'static str,
    /// Runtime name.
    pub runtime: &'static str,
    /// Footprint (modeled .text, measured RAM/FRAM).
    pub footprint: Footprint,
}

/// Every experiment of the evaluation, typed.
pub struct Evaluation {
    /// Table 3: each evaluated app's inventory.
    pub inventory: Vec<(&'static str, Inventory)>,
    /// Figure 7, Table 4, Figure 8: the `Single` (DMA), `Timely` (Temp.)
    /// and `Always` (LEA) apps, each under Alpaca, InK and EaseIO.
    pub uni: Vec<(&'static str, Vec<Summary>)>,
    /// Figures 10–12: FIR under Alpaca, InK and EaseIO, then EaseIO/Op with
    /// `Exclude` on the constant coefficients.
    pub fir: Vec<Summary>,
    /// Figures 10–11: the weather app under Alpaca, InK and EaseIO.
    pub weather: Vec<Summary>,
    /// Table 5: double-buffered rows (the weather runs above), then
    /// single-buffered ones.
    pub table5: Vec<Table5Row>,
    /// Table 6.
    pub table6: Vec<Table6Row>,
    /// Figure 13: one grid cell per [`FIG13_KERNELS`] × [`FIG13_DISTANCES`],
    /// kernel-major.
    pub fig13: Vec<GridCell>,
    /// Ablation 1, the `Timely` window sweep on the temperature app under
    /// EaseIO: (window ms, re-executions, restores, mean total µs).
    pub timely_window: Vec<(u64, u64, u64, u64)>,
    /// Ablation 2, the failure-intensity sweep on the DMA app: (mean
    /// on-period ms, Alpaca mean total µs, EaseIO mean total µs), `None`
    /// when every run livelocked (the paper's non-termination bug — the
    /// task never fits an on-period).
    pub reset_period: Vec<(u64, Option<u64>, Option<u64>)>,
    /// Ablation 3: FIR under EaseIO, then EaseIO/Op with `Exclude`.
    pub exclude: [Summary; 2],
    /// Ablation 4: (senses executed, restores) with a persistent, then a
    /// volatile timekeeper.
    pub timekeeper: [(u64, u64); 2],
    /// Ablation 5: DMA privatization pool bytes, dedicated per site, then
    /// shared across tasks.
    pub buffer_pool: [u32; 2],
}

/// `runs` seeded runs of `builder` under `kind` and the paper's failure
/// schedule.
fn paper_runs(app: &'static str, builder: &Builder, kind: KernelKind, runs: u64) -> Summary {
    let cfg = ExperimentCfg {
        runs,
        ..ExperimentCfg::default()
    };
    let faults = FaultSpec::none();
    run_many(app, builder.as_ref(), kind, &cfg, &paper_supply, &faults)
}

/// `builder` under Alpaca, InK and EaseIO, [`PAPER_RUNS`] runs each.
fn paper_set(app: &'static str, builder: Builder) -> Vec<Summary> {
    let run = |rt| paper_runs(app, &builder, rt, PAPER_RUNS);
    KernelKind::PAPER_SET.map(run).to_vec()
}

/// Runs every experiment of the evaluation once.
pub fn evaluate() -> Evaluation {
    let apps = ["LEA", "DMA", "Temp.", "FIR filter", "Weather App."];
    let inventory = apps.into_iter().zip(paper_apps()).map(|(app, b)| {
        let built = b(&mut Mcu::new(Supply::continuous()));
        (app, built.inventory)
    });
    let uni = [
        ("Single (DMA)", dma()),
        ("Timely (Temp.)", temp(None)),
        ("Always (LEA)", lea()),
    ];
    let uni = uni.map(|(app, b)| (app, paper_set(app, b))).to_vec();
    let mut fir_runs = paper_set("FIR", fir(false));
    fir_runs.push(paper_runs("FIR", &fir(true), EaseIoOp, PAPER_RUNS));
    let double = paper_set("Weather", weather(false));
    let single = paper_set("Weather", weather(true));
    let mut table5 = Vec::new();
    for (buffering, sums) in [("double", &double), ("single", &single)] {
        let b = weather(buffering == "single");
        for (&rt, s) in KernelKind::PAPER_SET.iter().zip(sums) {
            let seed = ExperimentCfg::default().base_seed;
            let cont = run_once(b.as_ref(), rt, Supply::continuous(), seed);
            assert_eq!(cont.outcome, Outcome::Completed);
            table5.push(Table5Row {
                runtime: rt.name(),
                buffering,
                continuous_us: cont.stats.total_time_us(),
                runs: s.clone(),
            });
        }
    }
    let apps = ["LEA", "DMA", "Temp.", "FIR Filter", "Weather App."];
    let table6 = apps.into_iter().zip(paper_apps()).flat_map(|(app, b)| {
        KernelKind::PAPER_SET.map(|rt| Table6Row {
            app,
            runtime: rt.name(),
            footprint: measure_footprint(b.as_ref(), rt, 1),
        })
    });
    let timely_window = [1, 5, 10, 20, 50, 100].map(|w| {
        let s = paper_runs("temp", &temp(Some(w)), EaseIo, ABLATION_RUNS);
        (w, s.reexecutions(), s.io_skipped, s.mean_total_us())
    });
    let exclude = |op, rt| paper_runs("FIR", &fir(op), rt, ABLATION_RUNS);
    let pools = [Dedicated, Shared { slot_bytes: 288 }];
    Evaluation {
        inventory: inventory.collect(),
        uni,
        fir: fir_runs,
        weather: double,
        table5,
        table6: table6.collect(),
        fig13: rf_distance_sweep(),
        timely_window: timely_window.to_vec(),
        reset_period: reset_period(),
        exclude: [exclude(false, EaseIo), exclude(true, EaseIoOp)],
        timekeeper: [timekeeper(true), timekeeper(false)],
        buffer_pool: pools.map(buffer_pool),
    }
}

/// Figure 13: wall-clock execution time (including recharge time, which is
/// what a wall-clock measurement on real hardware sees) across transmitter
/// distances, per runtime.
///
/// Workload: the Single-semantics DMA benchmark, whose redundant
/// re-execution dominates the energy budget — redundant energy directly
/// lengthens the recharge periods, which is the compounding the paper's
/// distance sweep exposes. This workload has no constant-data DMAs, so the
/// `Exclude` variant coincides with plain EaseIO. Like the paper's repeated
/// physical measurements, each cell averages 8 runs with perturbed
/// fading-wave phases.
fn rf_distance_sweep() -> Vec<GridCell> {
    let spec = GridSpec {
        kernels: FIG13_KERNELS.to_vec(),
        distances_inch: FIG13_DISTANCES.to_vec(),
        runs: 8,
        seed: 77,
        ..GridSpec::default()
    };
    let cfg = DmaAppCfg {
        iterations: 3,
        ..DmaAppCfg::default()
    };
    run_grid(&|_, mcu: &mut Mcu| dma_app::build(mcu, &cfg), &spec, 1).0
}

/// Ablation 2: the DMA app under Alpaca and EaseIO as failures thin out.
fn reset_period() -> Vec<(u64, Option<u64>, Option<u64>)> {
    let on_periods_ms = [(4, 10), (5, 20), (10, 30), (20, 60), (40, 120)];
    let rows = on_periods_ms.map(|(lo, hi)| {
        let reset = TimerResetConfig {
            on_min_us: lo * 1000,
            on_max_us: hi * 1000,
            ..TimerResetConfig::default()
        };
        let supply = |seed| Supply::timer(reset.clone(), seed);
        let cfg = ExperimentCfg {
            runs: ABLATION_RUNS,
            ..ExperimentCfg::default()
        };
        let mean = |rt| {
            let s = run_many("dma", dma().as_ref(), rt, &cfg, &supply, &FaultSpec::none());
            (s.completed > 0).then(|| s.mean_total_us())
        };
        ((lo + hi) / 2, mean(Alpaca), mean(EaseIo))
    });
    rows.to_vec()
}

/// Ablation 4: without the external timer circuit the paper's platform
/// carries (§4.1), `Timely` cannot verify freshness and degrades to
/// `Always`. Returns (senses executed, restores) over the ablation runs.
fn timekeeper(persistent_timekeeper: bool) -> (u64, u64) {
    let (mut executed, mut skipped) = (0, 0);
    for seed in 0..ABLATION_RUNS {
        let mut mcu = Mcu::new(Supply::timer(TimerResetConfig::default(), seed));
        let mut p = periph::Peripherals::new(seed);
        let app = temp_app::build(&mut mcu, &TempAppCfg::default());
        let mut rt = EaseIoRuntime::new(EaseIoConfig {
            persistent_timekeeper,
            ..EaseIoConfig::default()
        });
        let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
        assert_eq!(r.outcome, Outcome::Completed);
        skipped += r.stats.io_skipped;
        executed += r.stats.io_executed;
    }
    (executed, skipped)
}

/// Ablation 5: the weather app's DMA privatization pool under a buffer
/// mode (paper §6).
fn buffer_pool(dma_buffer_mode: BufferMode) -> u32 {
    let mut mcu = Mcu::new(Supply::continuous());
    let mut p = periph::Peripherals::new(7);
    let app = weather::build(&mut mcu, &WeatherCfg::default());
    let mut rt = EaseIoRuntime::new(EaseIoConfig {
        dma_buffer_mode,
        ..EaseIoConfig::default()
    });
    let r = run_app(&app, &mut rt, &mut mcu, &mut p, &ExecConfig::default());
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.verdict, Some(Verdict::Correct));
    rt.dma_pool_used()
}

/// Figure 7 / Figure 10 columns: total time split into app work, runtime
/// overhead and wasted work, plus the p95 total (ms).
const DECOMPOSITION: &str = "runtime | total ms | app ms | overhead ms | wasted ms | p95 ms";

fn decomposition(s: &Summary) -> Vec<String> {
    let n = s.completed.max(1);
    let per_run = [s.useful_us(), s.overhead_us, s.wasted_us()].map(|us| ms(us / n));
    let [app, overhead, wasted] = &per_run;
    let (total, p95) = (ms(s.mean_total_us()), ms(s.percentile_us(95)));
    row(&[&s.runtime, &total, app, overhead, wasted, &p95])
}

/// Mean energy per completed run (nJ).
fn energy(s: &Summary) -> u64 {
    s.energy_nj / s.completed.max(1)
}

/// `num / den` of two runs' mean energies.
fn energy_ratio(num: &Summary, den: &Summary) -> f64 {
    energy(num) as f64 / energy(den) as f64
}

impl Evaluation {
    /// Every table of the evaluation in the paper's order: Tables 1–3,
    /// Figure 7, Table 4, Figures 8 and 10–12, Tables 5–6, Figure 13, then
    /// the five ablations.
    pub fn tables(&self) -> Vec<Table> {
        let mut tables = vec![table1(), table2(), self.table3()];
        tables.extend(self.uni_task());
        tables.extend(self.multi_task());
        tables.extend([self.table5(), self.table6(), self.fig13()]);
        tables.extend(self.ablations());
        tables
    }

    fn table3(&self) -> Table {
        let rows = self.inventory.iter().map(|(app, i)| {
            row(&[
                app,
                &i.tasks,
                &i.io_funcs,
                &i.io_sites,
                &i.dma_sites,
                &i.io_blocks,
            ])
        });
        Table::new(
            "table3",
            "Table 3 — tasks and I/O functions of evaluated applications",
            "app | tasks | I/O funcs | call_IO sites | DMA sites | I/O blocks",
            rows.collect(),
        )
        .with_notes(
            "
(The paper reports tasks and I/O function counts per runtime; the
application source is shared across runtimes here, so one row per app.)",
        )
    }

    /// Figure 7 (one table per semantic), Table 4 and Figure 8.
    fn uni_task(&self) -> Vec<Table> {
        let uni = &self.uni;
        let fig7 = |i: usize, id| {
            let rows = uni[i].1.iter().map(decomposition).collect();
            Table::new(id, &format!("Figure 7 — {}", uni[i].0), DECOMPOSITION, rows)
        };
        // Table 4 and Figure 8 rows are runtimes, columns apps.
        let by_runtime = |cells: &dyn Fn(&Summary) -> Vec<String>| -> Vec<Vec<String>> {
            let rows = (0..KernelKind::PAPER_SET.len()).map(|rt| {
                let cells = uni.iter().flat_map(|(_, sums)| cells(&sums[rt]));
                [vec![uni[0].1[rt].runtime.to_string()], cells.collect()].concat()
            });
            rows.collect()
        };
        let reduction = |app: usize| {
            let (a, e) = (uni[app].1[0].reexecutions(), uni[app].1[2].reexecutions());
            pct(a.saturating_sub(e), a.max(1))
        };
        vec![
            fig7(0, "fig7-dma"),
            fig7(1, "fig7-temp"),
            fig7(2, "fig7-lea").with_notes(
                "
Paper shape: EaseIO cuts total time sharply on Single (DMA),
modestly on Timely (Temp.), and matches the baselines on Always
(LEA) apart from slightly higher bookkeeping overhead.",
            ),
            Table::new(
                "table4",
                "Table 4 — power failures (PF) and redundant re-executions (Re-exe.)",
                "runtime | PF(DMA) | Re-exe(DMA) | PF(Temp) | Re-exe(Temp) | PF(LEA) | Re-exe(LEA)",
                by_runtime(&|s| row(&[&s.power_failures, &s.reexecutions()])),
            )
            .with_notes(&format!(
                "
EaseIO redundant-I/O reduction vs Alpaca:
  Single (DMA):  -{}   (paper: -76%)
  Timely (Temp): -{}   (paper: -43%)
  Always (LEA):  -{}   (paper:   0%)",
                reduction(0),
                reduction(1),
                reduction(2)
            )),
            Table::new(
                "fig8",
                "Figure 8 — average energy per run (µJ)",
                "runtime | Single (DMA) | Timely (Temp.) | Always (LEA)",
                by_runtime(&|s| vec![uj(energy(s))]),
            )
            .with_notes(&format!(
                "
Single-semantic energy: EaseIO/Alpaca = {:.2}  (paper: ~0.5, a one-half reduction)",
                energy_ratio(&uni[0].1[2], &uni[0].1[0])
            )),
        ]
    }

    /// Figure 10 (FIR and weather), Figure 11 and Figure 12.
    fn multi_task(&self) -> Vec<Table> {
        let (fir, weather) = (&self.fir, &self.weather);
        let fig10 = |id, app, sums: &[Summary]| {
            let rows = sums.iter().map(decomposition).collect();
            Table::new(id, &format!("Figure 10 — {app}"), DECOMPOSITION, rows)
        };
        let apps = [("FIR filter", fir), ("Weather App.", weather)];
        let energy_rows = apps.iter().flat_map(|(app, sums)| {
            let cells = move |s: &Summary| row(&[app, &s.runtime, &uj(energy(s))]);
            sums.iter().map(cells)
        });
        let correctness = fir.iter().map(|s| {
            let share = pct(s.incorrect, s.completed.max(1));
            row(&[&s.runtime, &s.correct, &s.incorrect, &share])
        });
        let wasted_ratio = weather[0].wasted_us() as f64 / (weather[2].wasted_us() as f64).max(1.0);
        vec![
            fig10("fig10-fir", "FIR filter", fir),
            fig10("fig10-weather", "Weather App.", weather).with_notes(&format!(
                "
Weather wasted-work ratio Alpaca/EaseIO = {wasted_ratio:.2}x  (paper: up to 3x)
FIR: EaseIO pays Private-DMA privatization overhead; EaseIO/Op
(Exclude on constant coefficients) closes most of the gap to Alpaca."
            )),
            Table::new(
                "fig11",
                "Figure 11 — average energy per run (µJ)",
                "app | runtime | energy µJ",
                energy_rows.collect(),
            )
            .with_notes(&format!(
                "
Weather: EaseIO/Alpaca energy = {:.3}  (paper: −17% for weather, −5% for FIR)",
                energy_ratio(&weather[2], &weather[0])
            )),
            Table::new(
                "fig12",
                "Figure 12 — FIR executions: correct / incorrect",
                "runtime | correct | incorrect | % incorrect",
                correctness.collect(),
            )
            .with_notes(
                "
Paper: Alpaca ~16% and InK ~21% incorrect, EaseIO 0%. The shared
in/out buffer makes a failure after the write-back DMA re-filter the
already-filtered chunk unless the runtime understands DMA semantics.",
            ),
        ]
    }

    fn table5(&self) -> Table {
        let rows = self.table5.iter().map(|r| {
            let s = &r.runs;
            let correct = match s.correct == s.completed {
                true => "yes".to_string(),
                false => format!("NO ({}/{})", s.correct, s.completed),
            };
            let (cont, int) = (ms(r.continuous_us), ms(s.mean_total_us()));
            row(&[&r.runtime, &r.buffering, &cont, &int, &correct])
        });
        Table::new(
            "table5",
            "Table 5 — DNN buffering strategies",
            "runtime | buffers | Cont. ms | Int. ms | correct",
            rows.collect(),
        )
        .with_notes(
            "
Paper: all three are correct with double buffering; with a single
buffer only EaseIO stays correct, at a continuous-power premium
(their 228 ms vs Alpaca's 186 ms) — the premium here is the
privatization overhead visible in the Cont. column.",
        )
    }

    fn table6(&self) -> Table {
        let rows = self.table6.iter().map(|r| {
            let f = &r.footprint;
            row(&[&r.app, &r.runtime, &f.text, &f.ram, &f.fram])
        });
        Table::new(
            "table6",
            "Table 6 — memory and code size requirements (B)",
            "app | runtime | .text | RAM | FRAM",
            rows.collect(),
        )
        .with_notes(
            "
Paper shape: Alpaca has the smallest .text, InK's kernel the largest;
EaseIO adds ~1 KB of regional-privatization/DMA-handling code over
Alpaca and carries the (configurable, default 4 KB) DMA privatization
buffers in FRAM only for DMA-bearing apps.",
        )
    }

    /// Figure 13, one row per distance × runtime, diff against EaseIO.
    fn fig13(&self) -> Table {
        let n = FIG13_DISTANCES.len();
        let distances = FIG13_DISTANCES.iter().enumerate();
        let rows = distances.flat_map(|(d, distance)| {
            let base = self.fig13[d].mean_wall_us as f64;
            (0..FIG13_KERNELS.len()).map(move |k| {
                let cell = &self.fig13[k * n + d];
                let us = cell.mean_wall_us as f64;
                let total = format!("{:.2}", us / 1000.0);
                let diff = format!("{:+.2}", (us - base) / 1000.0);
                row(&[distance, &cell.kernel, &total, &diff, &cell.mean_failures])
            })
        });
        Table::new(
            "fig13",
            "Figure 13 — execution time vs distance (diff normalized to EaseIO)",
            "distance in | runtime | total ms | diff ms | failures",
            rows.collect(),
        )
        .with_caption(
            "Figure 13 — DMA workload from a 3 W / 915 MHz RF harvester
(wall time incl. recharge; this workload has no constant-data DMAs,
 so EaseIO/Op coincides with EaseIO and EaseIO is the baseline)",
        )
        .with_notes(
            "
Paper shape: close to the transmitter nothing fails and the
baselines' lower bookkeeping makes them marginally faster (negative
diff); past the income/draw crossover failures appear, redundant
re-execution burns extra harvested energy, recharges stretch, and
Alpaca/InK fall increasingly behind — with more power failures too.",
        )
    }

    fn ablations(&self) -> Vec<Table> {
        let windows = self.timely_window.iter();
        let windows = windows.map(|(w, re, restores, total)| row(&[w, re, restores, &ms(*total)]));
        let livelock = |v: Option<u64>| v.map_or("livelock".to_string(), ms);
        let periods = self.reset_period.iter();
        let periods = periods.map(|&(mean_on_ms, alpaca, easeio)| {
            let speedup = match (alpaca, easeio) {
                (Some(a), Some(e)) => format!("{:.2}x", a as f64 / e.max(1) as f64),
                (None, Some(_)) => "∞ (Alpaca never finishes)".to_string(),
                _ => "-".to_string(),
            };
            row(&[&mean_on_ms, &livelock(alpaca), &livelock(easeio), &speedup])
        });
        let variants = ["EaseIO", "EaseIO/Op (Exclude)"].iter().zip(&self.exclude);
        let variants = variants.map(|(name, s)| {
            let overhead = ms(s.overhead_us / s.completed.max(1));
            row(&[name, &ms(s.mean_total_us()), &overhead])
        });
        let clocks = ["persistent", "volatile"].iter().zip(&self.timekeeper);
        let clocks = clocks.map(|(clock, (executed, restores))| row(&[clock, executed, restores]));
        let pools = ["dedicated per site", "shared across tasks"]
            .iter()
            .zip(&self.buffer_pool);
        let pools = pools.map(|(mode, bytes)| row(&[mode, bytes]));
        vec![
            Table::new(
                "ablation1",
                "Ablation 1 — Timely window sweep (temperature app, EaseIO)",
                "window ms | re-executions | restores | mean total ms",
                windows.collect(),
            )
            .with_notes("  Longer windows restore more and re-sense less; the data ages more."),
            Table::new(
                "ablation2",
                "Ablation 2 — failure-intensity sweep (DMA app)",
                "mean on-period ms | Alpaca ms | EaseIO ms | speedup",
                periods.collect(),
            )
            .with_notes("  Denser failures → more redundant re-execution for Alpaca → larger win."),
            Table::new(
                "ablation3",
                "Ablation 3 — Exclude on constant-coefficient DMAs (FIR)",
                "variant | mean total ms | overhead ms",
                variants.collect(),
            )
            .with_notes("  Exclude skips privatization for data that cannot create WAR hazards."),
            Table::new(
                "ablation4",
                "Ablation 4 — persistent timekeeping (temperature app, EaseIO)",
                "timekeeper | senses executed | restores",
                clocks.collect(),
            )
            .with_notes(
                "  Timely needs the external timing circuit; without it every
  reboot forces a conservative re-sense (Timely ≈ Always).",
            ),
            Table::new(
                "ablation5",
                "Ablation 5 — DMA privatization buffers (weather app)",
                "mode | pool bytes",
                pools.collect(),
            )
            .with_notes(
                "  Sharing slots across tasks (paper §6) trades pool memory for a
  hard per-transfer size cap, enforced at run time here.",
            ),
        ]
    }
}

/// Rows written one per line, cells separated by ` | `.
fn literal_rows(text: &str) -> Vec<Vec<String>> {
    let cells = |line: &str| line.split(" | ").map(String::from).collect();
    text.lines().map(cells).collect()
}

/// Table 1: the paper's I/O feature matrix; the last column names the
/// experiment backing each row.
fn table1() -> Table {
    Table::new(
        "table1",
        "Table 1 — I/O feature matrix (each cell is backed by an experiment)",
        "runtime | repeated I/O | wasted I/O | mem. inconsistency | safe DMA | timely I/O \
         | semantic re-exec | evidence",
        literal_rows(
            "Alpaca / InK | yes | high | yes | no | no | no | fig7/fig12/table5
Naive (no privatization) | yes | high | yes | no | no | no | unsafe_branch/motion tests
EaseIO (this reproduction) | no / low | no | no | yes | yes | yes | fig7/fig12/table5/model_check",
        ),
    )
    .with_notes(
        "
IBIS / Samoyed / Ocelot (compile-time atomic regions) are discussed
in the paper but not re-implemented: their defining behaviour for
these workloads — wholesale re-execution of atomic peripheral
regions — is the task-atomicity the baselines already exhibit.",
    )
}

/// Table 2: the EaseIO language constructs, then easec's transformation of
/// a small program using them.
fn table2() -> Table {
    let demo = r#"
        __nv int out;
        task demo {
            _IO_block_begin(Single);
            let t = _call_IO(Temp, Timely, 10);
            _IO_block_end;
            out = t;
            _call_IO(Send, Single, out);
            done;
        }
    "#;
    let mut table = Table::new(
        "table2",
        "Table 2 — EaseIO language abstractions and their implementations",
        "construct | Rust API (kernel::TaskCtx) | task language (easec)",
        literal_rows(
            "_call_IO(name, type, ...) | ctx.call_io / call_io_dep | _call_IO(Temp, Timely, 10)
_IO_block_begin(type,...) | ctx.io_block(sem, |ctx| ...) | _IO_block_begin(Single);
_IO_block_end | (closure end) | _IO_block_end;
_DMA_copy(*src, *dst, size) | ctx.dma_copy(_annotated) | _DMA_copy(a[0], b[4], 8);",
        ),
    )
    .with_notes("\nLive demonstration — easec transformation of a Table-2 program:\n\n");
    table
        .notes
        .push(easec::transform_source(demo).expect("compiles"));
    table
}
