//! perfbench — end-to-end and per-layer host-time benchmark of the EaseIO
//! simulator stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-pruned --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each run drives one workload with one worker, as a closed loop of
//! identical repetitions for `--seconds` seconds, and prints one JSON
//! object as its last line of standard output. `--trace 0` gives the
//! end-to-end metrics, `--trace 1` the per-layer ones from a traced run.
//! Every repetition's result must be byte-identical to the first one's and
//! free of violations. The full result — provenance, the per-repetition
//! time series, and for traced runs the per-crate self times and a Chrome
//! trace of the fastest traced repetition — goes to `.perfbench/`.
//! See `perfbench/README.md`.

mod estimate;
mod fleet;
mod micro;
mod spans;
mod sweep;

use easeio_trace::Value;
use estimate::{best, best_sum, median, IdentityGuard, Tallies};
use fleet::FleetWorkload;
use mcu_emu::{EnergyCause, Mcu, Region, RunStats};
use periph::MediumSpec;
use spans::{chrome_doc, self_times, Recorder, Span};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use sweep::SweepWorkload;

/// The runtime every workload runs: the paper's system.
pub const KIND: apps::harness::KernelKind = apps::harness::KernelKind::EaseIo;

/// The workloads, in `BENCHMARK.json`'s order.
const WORKLOADS: [&str; 2] = ["sweep-pruned", "fleet-stream"];

/// Repetitions a run makes even when `--seconds` has run out.
const MIN_REPS: usize = 3;
/// A run starts no repetition after this long, whatever `--seconds` says,
/// so its wall time stays bounded.
const HARD_STOP: Duration = Duration::from_secs(120);

/// One engine repetition: the workload through its crate's public entry
/// point, timed, with its result identity and exact tallies.
pub struct Rep {
    /// Host seconds before the first item, split into the parts the
    /// engine times separately (one per app); empty for fleets, whose
    /// engine does not time its set-up apart.
    pub setup_parts: Vec<f64>,
    /// Host seconds of the item phase, split the same way.
    pub item_parts: Vec<f64>,
    /// Items: boundaries judged, or devices.
    pub items: u64,
    /// Items whose verdict check failed.
    pub failed: u64,
    /// Byte-exact result identity.
    pub identity: String,
    /// Exact simulated tallies.
    pub tallies: Tallies,
}

impl Rep {
    /// Host seconds of the item phase.
    pub fn items_s(&self) -> f64 {
        self.item_parts.iter().sum()
    }
}

/// What a layer pass returns: its item-phase time and result identity,
/// which must equal the engine repetition's.
pub struct LayerOut {
    /// Host seconds of the pass's item phase.
    pub items_s: f64,
    /// Result identity, comparable with [`Rep::identity`].
    pub identity: String,
}

/// Exact work counts of a layer pass.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Items: boundaries judged, or devices.
    pub items: u64,
    /// Boundaries judged.
    pub judged: u64,
    /// Boundaries executed (class representatives).
    pub executed: u64,
    /// `Mcu::restore` calls.
    pub restores: u64,
    /// Dirty pages found before those restores.
    pub dirty_pages: u64,
    /// Simulated runs (injections or devices).
    pub runs: u64,
    /// Energy-spend boundaries those runs crossed.
    pub boundaries: u64,
    /// Task attempts.
    pub task_attempts: u64,
    /// I/O operations executed.
    pub io_executed: u64,
    /// I/O operations skipped by the runtime.
    pub io_skipped: u64,
}

impl Counts {
    /// Folds one simulated run's ledger in.
    pub fn add_run(&mut self, s: &RunStats) {
        self.runs += 1;
        self.boundaries += s.boundaries;
        self.task_attempts += s.task_attempts;
        self.io_executed += s.io_executed;
        self.io_skipped += s.io_skipped;
    }

    fn tallies(&self) -> [u64; 10] {
        [
            self.items,
            self.judged,
            self.executed,
            self.restores,
            self.dirty_pages,
            self.runs,
            self.boundaries,
            self.task_attempts,
            self.io_executed,
            self.io_skipped,
        ]
    }
}

/// Pages written since the machine's last snapshot, over every region.
pub fn dirty_pages(mcu: &Mcu) -> u64 {
    [Region::Fram, Region::Sram, Region::LeaRam]
        .iter()
        .map(|&r| mcu.mem.dirty_pages(r).count_ones() as u64)
        .sum()
}

/// `(total, waste)` nJ of a per-cause ledger in `EnergyCause::ALL` order;
/// waste is `reexec_compute`, `redundant_io` and `retry`.
pub fn energy_split(causes: &[u64]) -> (u64, u64) {
    EnergyCause::ALL
        .iter()
        .zip(causes)
        .fold((0, 0), |(total, waste), (cause, &nj)| {
            (
                total + nj,
                if cause.is_waste() { waste + nj } else { waste },
            )
        })
}

enum Workload {
    Sweep(SweepWorkload),
    Fleet(Box<FleetWorkload>),
}

/// Paths of a run's scratch and result files under `.perfbench/`.
struct Files {
    dir: PathBuf,
    stem: String,
}

impl Files {
    fn path(&self, suffix: &str) -> String {
        self.dir
            .join(format!("{}{suffix}", self.stem))
            .to_string_lossy()
            .into_owned()
    }
}

impl Workload {
    fn new(name: &str, seed: u64, files: &Files) -> Option<Self> {
        Some(match name {
            "sweep-pruned" => Workload::Sweep(SweepWorkload::pruned(seed)),
            "fleet-stream" => Workload::Fleet(Box::new(FleetWorkload::stream(
                seed,
                files.path(".stream.jsonl"),
            ))),
            _ => return None,
        })
    }

    fn engine_rep(&self) -> Result<Rep, String> {
        match self {
            Workload::Sweep(w) => Ok(w.engine_rep()),
            Workload::Fleet(w) => w.engine_rep(),
        }
    }

    /// The set-up parts of a repetition: the engine's own timers for
    /// sweeps, a replay of the template build run apart for fleets.
    fn setup_parts(&self, rep: &Rep) -> Result<Vec<f64>, String> {
        match self {
            Workload::Sweep(_) => Ok(rep.setup_parts.clone()),
            Workload::Fleet(w) => Ok(vec![w.setup_replay()?]),
        }
    }

    /// The workload's layer pass through an off recorder: the untraced
    /// twin of the traced pass. Returns its item-phase host seconds.
    fn untraced_layer_s(&self, engine: &Rep) -> Result<f64, String> {
        let mut rec = Recorder::off();
        let mut counts = Counts::default();
        let out = match self {
            Workload::Sweep(s) => s.layer_pass(&mut rec, &mut counts),
            Workload::Fleet(f) => f.layer_pass(&mut rec, &mut counts, &mut Vec::new())?,
        };
        if out.identity != engine.identity {
            return Err("untraced layer pass diverged from the engine repetition".into());
        }
        Ok(out.items_s)
    }

    fn item_unit(&self) -> &'static str {
        match self {
            Workload::Sweep(_) => "boundaries judged",
            Workload::Fleet(_) => "devices",
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn num(x: f64) -> Value {
    Value::Num(x)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn series(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().copied().map(num).collect())
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

/// The revision of the checkout the run starts in, or "unavailable" when
/// it is not itself a git work tree (a parent directory's repository
/// would name the wrong source).
fn git_rev() -> String {
    let out = command_output("git", &["rev-parse", "--show-toplevel", "HEAD"]);
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    match out.split_once('\n') {
        Some((top, rev)) if Path::new(top).canonicalize().ok() == here => rev.to_string(),
        _ => "unavailable".into(),
    }
}

/// Where a number came from: host, build and source revision.
fn provenance() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".into());
    obj(vec![
        ("nproc", Value::u64(nproc as u64)),
        ("cpu", Value::str(cpu)),
        ("git_rev", Value::str(git_rev())),
        (
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("rustc", Value::str(command_output("rustc", &["--version"]))),
        ("jobs", Value::u64(1)),
    ])
}

/// What a run produced, before it is printed.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra result-file sections.
    detail: Vec<(&'static str, Value)>,
}

/// Runs engine repetitions until the deadline; every one is checked.
fn untraced(w: &Workload, deadline: Instant, started: Instant) -> Outcome {
    let mut guard = IdentityGuard::default();
    let mut errors = Vec::new();
    let (mut setup, mut items_s, mut at) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_parts, mut item_parts) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut items) = (0, 0, 0);
    loop {
        at.push(started.elapsed().as_secs_f64());
        let (rep, parts) = match w.engine_rep().and_then(|r| {
            let parts = w.setup_parts(&r)?;
            Ok((r, parts))
        }) {
            Ok(r) => r,
            Err(e) => {
                errors.push(e);
                break;
            }
        };
        attempted += rep.items;
        failed += rep.failed;
        if let Err(e) = guard.check(&rep.identity, &rep.tallies) {
            errors.push(e);
            failed += rep.items - rep.failed;
        }
        items = rep.items;
        setup.push(parts.iter().sum());
        items_s.push(rep.items_s());
        setup_parts.push(parts);
        item_parts.push(rep.item_parts);
        let now = Instant::now();
        if (now >= deadline && items_s.len() >= MIN_REPS) || now - started >= HARD_STOP {
            break;
        }
    }
    let tally = |name: &str| {
        guard
            .tallies()
            .and_then(|t| t.iter().find(|(n, _)| *n == name))
            .map_or(0, |(_, v)| *v)
    };
    let (energy_nj, waste_nj) = (tally("energy_nj"), tally("waste_nj"));
    let peak_rss = mcu_emu::peak_rss_bytes().unwrap_or(0) as f64;
    let metrics = vec![
        (
            "items_per_s",
            items as f64 / best_sum(&item_parts).unwrap_or(f64::NAN),
            "1/s",
        ),
        ("setup_s", best_sum(&setup_parts).unwrap_or(f64::NAN), "s"),
        ("peak_rss_mb", peak_rss / (1024.0 * 1024.0), "MB"),
        (
            "dev_energy_uj",
            energy_nj as f64 / items.max(1) as f64 / 1000.0,
            "uJ",
        ),
        (
            "dev_waste_pct",
            100.0 * waste_nj as f64 / energy_nj.max(1) as f64,
            "%",
        ),
    ];
    let tallies = guard.tallies().cloned().unwrap_or_default();
    let detail = vec![
        (
            "repetitions",
            obj(vec![
                ("count", Value::u64(items_s.len() as u64)),
                ("items_per_rep", Value::u64(items)),
                ("started_at_s", series(&at)),
                ("setup_s", series(&setup)),
                ("items_s", series(&items_s)),
                (
                    "item_parts_s",
                    Value::Arr(item_parts.iter().map(|p| series(p)).collect()),
                ),
            ]),
        ),
        (
            "exact_tallies",
            Value::Obj(
                tallies
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::u64(*v)))
                    .collect(),
            ),
        ),
    ];
    Outcome {
        attempted,
        failed,
        errors,
        metrics,
        detail,
    }
}

/// Span-derived per-call timings: `(metric, span name, ns per unit)`.
const TIME_METRICS: [(&str, &str, f64); 17] = [
    ("mcu-emu.restore_us", "mcu-emu.restore", 1e3),
    ("apps.build_us", "apps.build", 1e3),
    ("crashcheck.oracle_us", "crashcheck.prepare_oracle", 1e3),
    ("crashcheck.classify_us", "crashcheck.classify", 1e3),
    ("crashcheck.inject_us", "crashcheck.run_from", 1e3),
    ("crashcheck.judge_us", "crashcheck.judge", 1e3),
    ("kernel.run_us", "kernel.run_app", 1e3),
    ("core.flag_check_ns", "core.flag_check", 1.0),
    ("core.regional_snap_ns", "core.regional_snap", 1.0),
    ("periph.dma_copy_ns", "periph.dma_transfer", 1.0),
    ("periph.downlink_draw_ns", "periph.downlink_drops", 1.0),
    ("fleet.reconcile_us", "fleet.reconcile_logs", 1e3),
    ("fleet.agg_observe_ns", "fleet.agg_observe", 1.0),
    ("fleet.record_line_ns", "fleet.record_line", 1.0),
    ("trace.stream_merge_us", "trace.merge_into", 1e3),
    ("trace.report_build_us", "trace.build_report", 1e3),
    ("trace.report_validate_us", "trace.validate_report", 1e3),
];

/// The per-layer metrics, in `BENCHMARK.json` order, with units.
const PER_LAYER: [(&str, &str); 24] = [
    ("mcu-emu.restore_us", "us"),
    ("mcu-emu.restore_pages", "count"),
    ("mcu-emu.boundaries_per_item", "count"),
    ("apps.build_us", "us"),
    ("crashcheck.oracle_us", "us"),
    ("crashcheck.classify_us", "us"),
    ("crashcheck.inject_us", "us"),
    ("crashcheck.judge_us", "us"),
    ("crashcheck.executed_frac", "ratio"),
    ("exec.sweep_self_us", "us"),
    ("kernel.run_us", "us"),
    ("kernel.task_attempts_per_item", "count"),
    ("core.flag_check_ns", "ns"),
    ("core.regional_snap_ns", "ns"),
    ("core.io_skipped_frac", "ratio"),
    ("periph.dma_copy_ns", "ns"),
    ("periph.downlink_draw_ns", "ns"),
    ("fleet.reconcile_us", "us"),
    ("fleet.agg_observe_ns", "ns"),
    ("fleet.record_line_ns", "ns"),
    ("trace.stream_merge_us", "us"),
    ("trace.report_build_us", "us"),
    ("trace.report_validate_us", "us"),
    ("perfbench.trace_overhead_pct", "%"),
];

/// Where each traced metric is read from, in order of preference: the
/// workload's own layer pass, a small fleet or sweep that probes a layer
/// the workload does not use, or a primitive timed in a loop.
const PASSES: [&str; 4] = ["workload", "probe-fleet", "probe-sweep", "micro"];

/// Everything one traced repetition measured.
struct TracedRep {
    engine: Rep,
    layer_items_s: f64,
    /// The same layer pass through an off recorder.
    untraced_layer_items_s: f64,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, Counts>,
    /// [`sweep_self_us`] of the workload's or the probe's sweep.
    sweep_self_us: f64,
}

/// `exec`'s own time in a sweep engine repetition, in µs: the
/// `sweep_matrix` wall time minus the oracle, classification, injection
/// and judging stages it times around its crashcheck calls (the last
/// item part of the repetition).
fn sweep_self_us(engine: &Rep) -> f64 {
    engine.item_parts.last().map_or(f64::NAN, |s| s * 1e6)
}

/// A sweep layer pass under its root span.
fn sweep_layer(rec: &mut Recorder, w: &SweepWorkload, counts: &mut Counts) -> LayerOut {
    let root = rec.begin("perfbench.sweep_layer");
    let out = w.layer_pass(rec, counts);
    rec.end(root);
    out
}

/// The crashcheck/exec probe: the engine and the layer pass over one
/// small sampled sweep, checked against each other. Returns the engine's
/// [`sweep_self_us`].
fn probe_sweep(rec: &mut Recorder, counts: &mut Counts, seed: u64) -> Result<f64, String> {
    rec.set_pass("probe-sweep");
    let w = SweepWorkload::probe(seed);
    let engine = w.engine_rep();
    if sweep_layer(rec, &w, counts).identity != engine.identity {
        return Err("probe sweep: layer pass diverged from the engine".into());
    }
    Ok(sweep_self_us(&engine))
}

/// The fleet-layer probe: a small fleet re-driven under spans; its first
/// device results feed the `fleet` primitive loops. Returns its medium.
fn probe_fleet(
    rec: &mut Recorder,
    counts: &mut Counts,
    samples: &mut Vec<easeio_fleet::DeviceResult>,
    seed: u64,
    files: &Files,
) -> Result<MediumSpec, String> {
    rec.set_pass("probe-fleet");
    let probe = FleetWorkload::probe(seed, files.path(".probe.jsonl"));
    let root = rec.begin("perfbench.fleet_layer");
    let out = probe.layer_pass(rec, counts, samples);
    rec.end(root);
    out.map(|_| probe.medium())
}

/// One traced repetition. The untraced twin of the layer pass runs right
/// before the traced one when `untraced_first`, else right after it.
fn traced_rep(
    w: &Workload,
    seed: u64,
    files: &Files,
    untraced_first: bool,
) -> Result<TracedRep, String> {
    let mut rec = Recorder::new();
    let mut counts: BTreeMap<&'static str, Counts> = BTreeMap::new();
    let mut samples = Vec::new();
    rec.set_pass("engine");
    let engine_span = match w {
        Workload::Sweep(_) => "exec.sweep_matrix",
        Workload::Fleet(_) => "fleet.run_fleet_streamed",
    };
    let engine = rec.scope(engine_span, |_| w.engine_rep())?;
    let before = if untraced_first {
        Some(w.untraced_layer_s(&engine)?)
    } else {
        None
    };
    rec.set_pass("workload");
    let (layer, untraced, sweep_self, medium) = match w {
        Workload::Sweep(s) => {
            let layer = sweep_layer(&mut rec, s, counts.entry("workload").or_default());
            let untraced = before.map_or_else(|| w.untraced_layer_s(&engine), Ok)?;
            let fleet_counts = counts.entry("probe-fleet").or_default();
            let medium = probe_fleet(&mut rec, fleet_counts, &mut samples, seed, files)?;
            (layer, untraced, sweep_self_us(&engine), medium)
        }
        Workload::Fleet(f) => {
            let root = rec.begin("perfbench.fleet_layer");
            let layer = f.layer_pass(
                &mut rec,
                counts.entry("workload").or_default(),
                &mut samples,
            );
            rec.end(root);
            let layer = layer?;
            let untraced = before.map_or_else(|| w.untraced_layer_s(&engine), Ok)?;
            let sweep_counts = counts.entry("probe-sweep").or_default();
            let sweep_self = probe_sweep(&mut rec, sweep_counts, seed)?;
            (layer, untraced, sweep_self, f.medium())
        }
    };
    if layer.identity != engine.identity {
        return Err("layer pass diverged from the engine repetition".into());
    }
    rec.set_pass("micro");
    micro::run(&mut rec, &medium, &samples);
    Ok(TracedRep {
        engine,
        layer_items_s: layer.items_s,
        untraced_layer_items_s: untraced,
        spans: rec.take(),
        counts,
        sweep_self_us: sweep_self,
    })
}

/// Per-call time metrics of one traced repetition, with the pass each
/// was read from.
fn time_metrics(spans: &[Span]) -> BTreeMap<&'static str, (f64, &'static str)> {
    let self_ns = self_times(spans);
    let mut out = BTreeMap::new();
    for (metric, span_name, per_unit) in TIME_METRICS {
        for pass in PASSES {
            let (ns, calls) = spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.name == span_name && s.pass == pass)
                .fold((0u64, 0u64), |(ns, calls), (s, &n)| {
                    (ns + n, calls + s.calls)
                });
            if calls > 0 {
                out.insert(metric, (ns as f64 / calls as f64 / per_unit, pass));
                break;
            }
        }
    }
    out
}

/// Count metrics of one traced repetition: `(value, source pass)`.
fn count_metrics(
    counts: &BTreeMap<&'static str, Counts>,
) -> Vec<(&'static str, f64, &'static str)> {
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let pick = |has: fn(&Counts) -> bool| {
        PASSES
            .into_iter()
            .find_map(|k| counts.get(k).filter(|c| has(c)).map(|c| (c, k)))
    };
    let mut out = Vec::new();
    let mut push = |name, has: fn(&Counts) -> bool, f: &dyn Fn(&Counts) -> f64| {
        let (v, src) = pick(has).map_or((0.0, "none"), |(c, k)| (f(c), k));
        out.push((name, v, src));
    };
    push("mcu-emu.restore_pages", |c| c.restores > 0, &|c| {
        ratio(c.dirty_pages, c.restores)
    });
    push("mcu-emu.boundaries_per_item", |c| c.runs > 0, &|c| {
        ratio(c.boundaries, c.items)
    });
    push("crashcheck.executed_frac", |c| c.judged > 0, &|c| {
        ratio(c.executed, c.judged)
    });
    push("kernel.task_attempts_per_item", |c| c.runs > 0, &|c| {
        ratio(c.task_attempts, c.items)
    });
    push(
        "core.io_skipped_frac",
        |c| c.io_executed + c.io_skipped > 0,
        &|c| ratio(c.io_skipped, c.io_executed + c.io_skipped),
    );
    out
}

/// Runs traced iterations until the deadline: each is an engine
/// repetition followed by the layer pass and its untraced twin, the
/// probes and the primitive loops.
fn traced(w: &Workload, seed: u64, files: &Files, deadline: Instant, started: Instant) -> Outcome {
    let mut engine_guard = IdentityGuard::default();
    let mut layer_guard = IdentityGuard::default();
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut engine_items_s = Vec::new();
    let mut layer_items_s = Vec::new();
    let mut untraced_items_s = Vec::new();
    let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut sources: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    let mut fastest: Option<(f64, Vec<Span>)> = None;
    loop {
        let r = match traced_rep(w, seed, files, layer_items_s.len() % 2 == 0) {
            Ok(r) => r,
            Err(e) => {
                errors.push(e);
                break;
            }
        };
        attempted += 2 * r.engine.items;
        failed += 2 * r.engine.failed;
        if let Err(e) = engine_guard.check(&r.engine.identity, &r.engine.tallies) {
            errors.push(e);
        }
        let mut counted: Tallies = Vec::new();
        let counts_now = count_metrics(&r.counts);
        for (k, c) in &r.counts {
            counted.extend(c.tallies().into_iter().map(|v| (*k, v)));
        }
        if let Err(e) = layer_guard.check(&r.engine.identity, &counted) {
            errors.push(format!("layer counts: {e}"));
        }
        for (name, v, src) in counts_now {
            per_rep.entry(name).or_default().push(v);
            sources.insert(name, src);
        }
        for (name, (v, src)) in time_metrics(&r.spans) {
            per_rep.entry(name).or_default().push(v);
            sources.insert(name, src);
        }
        engine_items_s.push(r.engine.items_s());
        layer_items_s.push(r.layer_items_s);
        untraced_items_s.push(r.untraced_layer_items_s);
        per_rep
            .entry("exec.sweep_self_us")
            .or_default()
            .push(r.sweep_self_us);
        if fastest.as_ref().is_none_or(|(t, _)| r.layer_items_s < *t) {
            fastest = Some((r.layer_items_s, r.spans));
        }
        let now = Instant::now();
        if (now >= deadline && layer_items_s.len() >= MIN_REPS) || now - started >= HARD_STOP {
            break;
        }
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, v) in &per_rep {
        // Counts repeat exactly (the guard checked); times take the best.
        values.insert(name, best(v).unwrap_or(f64::NAN));
    }
    sources.insert(
        "exec.sweep_self_us",
        if matches!(w, Workload::Sweep(_)) {
            "workload"
        } else {
            "probe-sweep"
        },
    );
    // Pairs the traced layer pass with its untraced twin, run next to it
    // in alternating order: a slow stretch spanning the pair cancels, and
    // the median drops the pairs a state flip split.
    let overhead: Vec<f64> = layer_items_s
        .iter()
        .zip(&untraced_items_s)
        .map(|(on, off)| 100.0 * (on / off - 1.0))
        .collect();
    values.insert(
        "perfbench.trace_overhead_pct",
        median(&overhead).unwrap_or(f64::NAN),
    );
    sources.insert("perfbench.trace_overhead_pct", "workload");

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(f64::NAN), unit))
        .collect();

    let mut detail = vec![(
        "traced_repetitions",
        obj(vec![
            ("count", Value::u64(layer_items_s.len() as u64)),
            ("engine_items_s", series(&engine_items_s)),
            ("layer_items_s", series(&layer_items_s)),
            ("untraced_layer_items_s", series(&untraced_items_s)),
        ]),
    )];
    detail.push((
        "metric_sources",
        Value::Obj(
            sources
                .iter()
                .map(|(k, v)| (k.to_string(), Value::str(*v)))
                .collect(),
        ),
    ));
    if let Some((_, spans)) = &fastest {
        let self_ns = self_times(spans);
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, n) in spans.iter().zip(&self_ns) {
            if s.pass == "workload" {
                *by_layer.entry(s.layer()).or_default() += n;
            }
        }
        detail.push((
            "fastest_rep_self_us_by_crate",
            Value::Obj(
                by_layer
                    .iter()
                    .map(|(k, v)| (k.to_string(), num(*v as f64 / 1e3)))
                    .collect(),
            ),
        ));
        let path = files.path(".trace.json");
        match std::fs::write(&path, chrome_doc(spans, &files.stem).to_compact()) {
            Ok(()) => detail.push(("chrome_trace", Value::str(path))),
            Err(e) => errors.push(format!("{path}: {e}")),
        }
    }
    Outcome {
        attempted,
        failed,
        errors,
        metrics,
        detail,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload {} --seed N --seconds N --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    let files = Files {
        dir: Path::new(".perfbench").to_path_buf(),
        stem: format!(
            "{}-seed{}-trace{}",
            args.workload, args.seed, args.trace as u8
        ),
    };
    if let Err(e) = std::fs::create_dir_all(&files.dir) {
        eprintln!("error: {}: {e}", files.dir.display());
        std::process::exit(2);
    }
    let w = Workload::new(&args.workload, args.seed, &files).expect("workload name checked");
    let outcome = if args.trace {
        traced(&w, args.seed, &files, deadline, started)
    } else {
        untraced(&w, deadline, started)
    };
    for suffix in [".stream.jsonl", ".probe.jsonl"] {
        let _ = std::fs::remove_file(files.path(suffix));
    }

    let correct = outcome.errors.is_empty()
        && outcome.failed == 0
        && outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    let metrics = Value::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.to_string(),
                    obj(vec![("value", num(*v)), ("unit", Value::str(*unit))]),
                )
            })
            .collect(),
    );
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::u64(outcome.attempted)),
        ("failed", Value::u64(outcome.failed)),
        ("metrics", metrics.clone()),
    ]);
    let mut doc = vec![
        ("workload", Value::str(&args.workload)),
        ("item", Value::str(w.item_unit())),
        ("seed", Value::u64(args.seed)),
        ("seconds", Value::u64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("provenance", provenance()),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::u64(outcome.attempted)),
        ("failed", Value::u64(outcome.failed)),
        (
            "errors",
            Value::Arr(outcome.errors.iter().map(Value::str).collect()),
        ),
        ("metrics", metrics),
    ];
    doc.extend(outcome.detail);
    let path = files.path(".json");
    if let Err(e) = std::fs::write(&path, obj(doc).to_pretty() + "\n") {
        eprintln!("warning: {path}: {e}");
    }
    for e in &outcome.errors {
        eprintln!("error: {e}");
    }
    eprintln!("perfbench: full result in {path}");
    println!("{}", result.to_compact());
    std::process::exit(if correct { 0 } else { 1 });
}
