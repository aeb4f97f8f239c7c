//! The one flag table: every flag `easeio-sim` accepts, the modes that read
//! it, and its help line. Parsing, the per-mode `--help` text and the
//! rejection of a flag a mode never reads all come from [`FLAGS`].

use crate::{exit, ExitCode};
use apps::harness::KernelKind;
use easeio_exec::{AppSpec, DeviceSpec, ScenarioSpec, SupplySpec};
use kernel::FaultSpec;
use periph::MediumSpec;
use std::fmt::Display;
use std::str::FromStr;

/// A command-line mode: run mode (no subcommand) or one subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Run,
    Sweep,
    Grid,
    Fleet,
    Metrics,
    Compare,
}

use Mode::*;

impl Mode {
    /// The mode a subcommand word selects (run mode has no word).
    pub fn from_subcommand(word: &str) -> Option<Mode> {
        [Sweep, Grid, Fleet, Metrics, Compare]
            .into_iter()
            .find(|m| m.name() == word)
    }

    fn name(self) -> &'static str {
        match self {
            Run => "run",
            Sweep => "sweep",
            Grid => "grid",
            Fleet => "fleet",
            Metrics => "metrics",
            Compare => "compare",
        }
    }

    fn synopsis(self) -> &'static str {
        match self {
            Run => {
                "easeio-sim [OPTIONS]\n       \
                 easeio-sim sweep|grid|fleet|metrics|compare [OPTIONS]   (each takes --help)\n\n\
                 Runs one app under one kernel and supply (an aggregate with --runs N > 1)."
            }
            Sweep => {
                "easeio-sim sweep [OPTIONS]\n\n\
                 Injects one power failure per energy-spend boundary and checks every run\n\
                 against a continuous-power oracle; byte-identical at any --jobs width."
            }
            Grid => {
                "easeio-sim grid [OPTIONS]\n\n\
                 Fans a kernel x supply-point matrix (the Fig. 12/13 axes) across the pool."
            }
            Fleet => {
                "easeio-sim fleet [OPTIONS]\n\n\
                 Replicates one device over a shared lossy radio medium and reconciles every\n\
                 transmission at a gateway; --rollout rolls an OTA update wave by wave."
            }
            Metrics => {
                "easeio-sim metrics [OPTIONS]\n\n\
                 One timer-supply run per kernel x app at a fixed seed, folded into one\n\
                 byte-stable energy-attribution document."
            }
            Compare => {
                "easeio-sim compare OLD.json NEW.json [OPTIONS]\n\n\
                 Regression gate over two metrics reports."
            }
        }
    }
}

/// One accepted flag. `metavar` is `None` for a switch.
struct Flag {
    name: &'static str,
    metavar: Option<&'static str>,
    /// The modes that read this flag; every other mode rejects it.
    modes: &'static [Mode],
    help: &'static str,
}

const fn val(
    name: &'static str,
    metavar: &'static str,
    modes: &'static [Mode],
    help: &'static str,
) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        modes,
        help,
    }
}

const fn switch(name: &'static str, modes: &'static [Mode], help: &'static str) -> Flag {
    Flag {
        name,
        metavar: None,
        modes,
        help,
    }
}

const ALL: &[Mode] = &[Run, Sweep, Grid, Fleet, Metrics, Compare];
const SCENARIO: &[Mode] = &[Run, Sweep, Grid, Fleet];
const PARALLEL: &[Mode] = &[Sweep, Grid, Fleet];
const LONG: &[Mode] = &[Sweep, Fleet];

/// Every flag of every mode, in `--help` order.
#[rustfmt::skip]
static FLAGS: &[Flag] = &[
    switch("--help", ALL, "print this mode's flags and exit"),
    val("--app", "NAME", SCENARIO, "dma|temp|lea|fir|fir-long|weather|weather-single|branch|motion|\
                                    flaky-radio|ota-update (default dma; fleet flaky-radio)"),
    val("--source", "FILE.eio", SCENARIO, "compile an easec program instead of --app"),
    val("--kernel", "NAME", &[Run, Sweep, Fleet], "naive|alpaca|ink|easeio|easeio-op (default easeio)"),
    val("--supply", "KIND", &[Run, Fleet], "continuous|timer|rf (default timer)"),
    val("--distance", "INCHES", &[Run, Fleet], "RF supply distance (default 61)"),
    val("--seed", "N", &[Run, Sweep, Grid, Fleet, Metrics], "base seed (default 42; sweep 7, grid 77)"),
    val("--runs", "N", &[Run, Grid], "repetitions (default 1)"),
    val("--jobs", "N", PARALLEL, "worker threads; output is identical at any width (default 1)"),
    val("--fault-rate", "PM", SCENARIO, "peripheral-fault probability per attempt, permille (default 0)"),
    val("--fault-seed", "N", SCENARIO, "fault-plan seed (default: the run seed)"),
    val("--max-retries", "N", SCENARIO, "bounded retries before an operation degrades (default 4)"),
    switch("--trace", &[Run], "print the event timeline"),
    val("--trace-out", "FILE", &[Run], "write the trace (.json Chrome, .jsonl lines)"),
    val("--report-out", "FILE", SCENARIO, "write the machine-readable report"),
    val("--metrics-out", "FILE", &[Run, Metrics], "write the energy-attribution metrics document"),
    val("--validate-report", "FILE", &[Run], "schema-check any report and exit"),
    switch("--emit-transform", &[Run], "print the easec transform of --source and exit"),
    switch("--exhaustive", &[Sweep], "inject at every boundary (default)"),
    val("--sample", "N", &[Sweep], "inject at N seeded-random boundaries"),
    val("--boundary", "N", &[Sweep], "inject only at boundary N (the forensics repro form)"),
    val("--off-us", "US", &[Sweep], "outage length per injection (default 100000)"),
    switch("--strict-memory", &[Sweep], "byte-exact FRAM compare (auto for deterministic apps)"),
    switch("--update-window", &[Sweep], "inject only inside the app's OTA update window"),
    switch("--all-apps", &[Sweep], "sweep every built-in app over one shared pool"),
    switch("--no-prune", &[Sweep], "run every chosen boundary from boot"),
    switch("--allow-violations", &[Sweep], "exit 0 even if violations are found"),
    switch("--expect-violations", &[Sweep], "exit 1 unless a violation is found"),
    val("--kernels", "A,B,..", &[Grid, Metrics], "kernels to compare (default grid alpaca,ink,easeio; \
                                                  metrics naive,alpaca,ink,easeio)"),
    val("--distances", "D1,D2,..", &[Grid], "RF distances in inches (default 52,55,58,61,64)"),
    val("--on-times", "M1,M2,..", &[Grid], "timer mean on-periods in ms (default none)"),
    val("--devices", "N", &[Fleet], "fleet size (default 256)"),
    val("--loss", "PM", &[Fleet], "per-link channel loss, permille (default 0)"),
    val("--medium-seed", "N", &[Fleet], "loss-draw seed (default: the run seed)"),
    val("--airtime-base-us", "US", &[Fleet], "per-packet airtime floor (default 32)"),
    val("--airtime-word-us", "US", &[Fleet], "airtime per payload word (default 4)"),
    val("--stream-out", "FILE", &[Fleet], "stream per-device JSONL records as devices complete"),
    switch("--allow-duplicates", &[Fleet], "exit 0 even if duplicates hit the air"),
    switch("--expect-duplicates", &[Fleet], "exit 1 unless duplicates hit the air"),
    switch("--rollout", &[Fleet], "roll an OTA update (app fixed to ota-update) wave by wave"),
    val("--wave-size", "N", &[Fleet], "with --rollout: devices offered per wave (default 32)"),
    val("--target-seq", "N", &[Fleet], "with --rollout: image sequence to roll out (default 2)"),
    switch("--no-abort", &[Fleet], "with --rollout: keep offering after a wave regression"),
    switch("--expect-update-violations", &[Fleet], "with --rollout: exit 1 unless an image tore \
                                                    or activated twice"),
    val("--forensics-out", "FILE", LONG, "write a self-contained bundle for the first violation"),
    switch("--progress", LONG, "heartbeat lines on stderr about once a second"),
    val("--progress-out", "FILE", LONG, "the same heartbeat samples as JSONL"),
    val("--flame-out", "FILE", &[Metrics], "write the folded flamegraph of energy by cause"),
    val("--apps", "X,Y,..", &[Metrics], "apps to measure (default all)"),
    switch("--include-skipped", &[Metrics], "also run apps the timer supply cannot finish"),
    val("--gate-pct", "N", &[Compare], "allowed growth per gated metric, percent (default 5)"),
];

fn lookup(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.name == name)
}

/// The `--help` text of `mode`, generated from [`FLAGS`].
fn usage(mode: Mode) -> String {
    let rows: Vec<(String, &str)> = FLAGS
        .iter()
        .filter(|f| f.modes.contains(&mode))
        .map(|f| match f.metavar {
            Some(m) => (format!("{} {m}", f.name), f.help),
            None => (f.name.to_string(), f.help),
        })
        .collect();
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut text = format!("usage: {}\n\n", mode.synopsis());
    for (left, help) in rows {
        text.push_str(&format!("  {left:<width$}  {help}\n"));
    }
    text.push_str("\nexit status: 0 ok, 1 a verdict failed, 2 usage error or malformed input");
    text
}

/// Prints `msg` and the usage of `mode` on stderr and exits 2.
fn usage_error(mode: Mode, msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage(mode));
    exit(ExitCode::Usage)
}

/// One mode's parsed command line: every accepted flag occurrence in
/// order, looked up last-value-wins through typed getters.
pub struct Args {
    mode: Mode,
    given: Vec<(&'static str, Option<String>)>,
    /// Bare operands (only `compare` takes any: its two report paths).
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `argv` against [`FLAGS`]: `--help` prints the usage and
    /// exits 0; an unknown flag, a flag `mode` does not read, or a missing
    /// value exits 2.
    pub fn parse(mode: Mode, argv: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args {
            mode,
            given: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            if arg == "-h" || arg == "--help" {
                println!("{}", usage(mode));
                exit(ExitCode::Ok);
            }
            if mode == Compare && !arg.starts_with('-') {
                args.positional.push(arg);
                continue;
            }
            let Some(flag) = lookup(&arg) else {
                usage_error(mode, &format!("unknown flag {arg}"));
            };
            if !flag.modes.contains(&mode) {
                let readers: Vec<&str> = flag.modes.iter().map(|m| m.name()).collect();
                usage_error(
                    mode,
                    &format!(
                        "{} does not read {arg} (read by: {})",
                        mode.name(),
                        readers.join(", ")
                    ),
                );
            }
            let value = flag.metavar.map(|_| {
                it.next()
                    .unwrap_or_else(|| usage_error(mode, &format!("missing value for {arg}")))
            });
            args.given.push((flag.name, value));
        }
        args
    }

    fn last(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(lookup(name).is_some(), "{name} is not in FLAGS");
        self.given
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// The last value given for `name`.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.last(name).and_then(|v| v.as_deref())
    }

    /// The last value given for `name`, parsed; a malformed one exits 2.
    pub fn num<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.opt(name).map(|s| {
            s.parse()
                .unwrap_or_else(|e| self.fail(&format!("{name} {s}: {e}")))
        })
    }

    /// The comma-separated items of `name`, each parsed by `parse`; a
    /// malformed item exits 2.
    pub fn list<T>(&self, name: &str, parse: impl Fn(&str) -> Result<T, String>) -> Option<Vec<T>> {
        self.opt(name).map(|s| {
            s.split(',')
                .filter(|p| !p.is_empty())
                .map(|p| parse(p).unwrap_or_else(|e| self.fail(&e)))
                .collect()
        })
    }

    /// A usage error of this mode: message + usage on stderr, exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_error(self.mode, msg)
    }

    /// Exits 2 unless the seed of the last of `count` replicas,
    /// `seed + count - 1`, fits in a `u64`; `flag` names the count.
    pub fn check_replica_seeds(&self, seed: u64, count: u64, flag: &str) {
        if seed.checked_add(count.saturating_sub(1)).is_none() {
            self.fail(&format!(
                "--seed {seed} with {flag} {count}: the last replica's seed overflows u64"
            ));
        }
    }

    /// The one [`ScenarioSpec`] builder: a 1-device spec from the common
    /// flags (fleet raises `count` and sets the medium), with each mode's
    /// historical default seed (run 42, sweep 7, grid 77).
    pub fn scenario(&self) -> ScenarioSpec {
        let seed = self.num("--seed").unwrap_or(match self.mode {
            Sweep => 7,
            Grid => 77,
            _ => 42,
        });
        let app = match self.opt("--source") {
            Some(path) => AppSpec::Source(path.into()),
            None => {
                let default = if self.mode == Fleet {
                    "flaky-radio"
                } else {
                    "dma"
                };
                AppSpec::Named(self.opt("--app").unwrap_or(default).into())
            }
        };
        let kernel = KernelKind::parse(self.opt("--kernel").unwrap_or("easeio"))
            .unwrap_or_else(|e| self.fail(&e));
        let supply = SupplySpec::parse(
            self.opt("--supply").unwrap_or("timer"),
            self.num("--distance").unwrap_or(61),
        )
        .unwrap_or_else(|e| self.fail(&e));
        // `--fault-rate 0` (the default) disables injection; the plan seed
        // defaults to the run seed so `--fault-rate N` alone reproduces.
        let mut fault = FaultSpec::with_rate(
            self.num("--fault-seed").unwrap_or(seed),
            self.num("--fault-rate").unwrap_or(0),
        );
        if let Some(r) = self.num("--max-retries") {
            fault.retry.max_retries = r;
        }
        let runs = self.num("--runs").unwrap_or(1);
        self.check_replica_seeds(seed, runs, "--runs");
        ScenarioSpec {
            device: DeviceSpec { app, kernel, fault },
            count: 1,
            supply,
            medium: MediumSpec::ideal(),
            seed,
            runs,
            jobs: self.num::<usize>("--jobs").unwrap_or(1).max(1),
            trace_out: self.opt("--trace-out").map(String::from),
            report_out: self.opt("--report-out").map(String::from),
        }
    }
}
