//! easeio-sim — run any benchmark app under any kernel and supply, sweep it
//! for crash-consistency violations, fan experiment grids and fleets across
//! the worker pool, and gate energy attribution against a baseline.
//!
//! `easeio-sim [MODE] --help` lists each mode's flags; they are generated
//! from the one table in `flags.rs`, which the README's flag tables mirror.

mod flags;
mod fleet;
mod grid;
mod metrics;
mod run;
mod sweep;

use apps::harness::KernelKind;
use easeio_exec::AppSpec;
use easeio_trace::{
    flush_registered, parse_json, validate_any_report, JsonlWriter, Progress, Value,
};
use flags::{Args, Mode};
use kernel::FaultSpec;
use mcu_emu::{Mcu, Supply};

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    let mode = argv
        .peek()
        .and_then(|word| Mode::from_subcommand(word))
        .unwrap_or(Mode::Run);
    if mode != Mode::Run {
        argv.next();
    }
    let a = Args::parse(mode, argv);
    exit(match mode {
        Mode::Run => run::main(&a),
        Mode::Sweep => sweep::main(&a),
        Mode::Grid => grid::main(&a),
        Mode::Fleet => fleet::main(&a),
        Mode::Metrics => metrics::metrics_main(&a),
        Mode::Compare => metrics::compare_main(&a),
    })
}

/// The binary's whole exit-status vocabulary, in one place. Every exit
/// path goes through [`exit`] with one of these — scripts and CI match on
/// the number, so the mapping is a documented interface (see the README's
/// exit-code table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCode {
    /// The requested work ran and every requested check held.
    Ok = 0,
    /// The simulation ran but a verdict failed: safety violations found
    /// (or expected and absent), duplicates on the air, a regression
    /// beyond the gate, a run that did not complete, or a built report
    /// failing its own schema.
    VerdictFailure = 1,
    /// The request itself was unusable: unknown flag or app, missing
    /// value, unreadable file, or malformed input JSON.
    Usage = 2,
}

pub fn exit(code: ExitCode) -> ! {
    // Drain every registered JSONL sink first: a nonzero exit must not
    // truncate a buffered stream/progress tail.
    flush_registered();
    std::process::exit(code as i32)
}

pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(ExitCode::Usage)
}

/// Prints `header` and one `  - item` line per entry on stderr.
pub fn print_list(header: &str, items: impl IntoIterator<Item = impl std::fmt::Display>) {
    eprintln!("{header}");
    for item in items {
        eprintln!("  - {item}");
    }
}

/// The `--expect-*` / `--allow-*` verdict over `found` violations. With
/// `expect`, exit 1 unless there are some; otherwise any fail the run
/// unless `allow`, with `violated` as the error line.
pub fn verdict(
    found: u64,
    expect: bool,
    allow: bool,
    expected: &str,
    violated: Option<String>,
) -> ExitCode {
    if expect {
        if found == 0 {
            eprintln!("error: expected {expected}, found none");
            return ExitCode::VerdictFailure;
        }
        return ExitCode::Ok;
    }
    if found == 0 || allow {
        return ExitCode::Ok;
    }
    if let Some(msg) = violated {
        eprintln!("error: {msg}");
    }
    ExitCode::VerdictFailure
}

pub fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        die(&format!("cannot write {what} {path}: {e}"));
    }
}

/// Pretty-printed JSON with the trailing newline every written document
/// ends in.
pub fn pretty(doc: &Value) -> String {
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

/// Writes `doc` to `path` and announces it on stdout.
pub fn emit_json(path: &str, doc: &Value, what: &str) {
    write_or_die(path, &pretty(doc), what);
    println!("{what} written to {path}");
}

/// Writes an enveloped report like [`emit_json`], but first exits 1 if
/// the document fails its own schema: such a document must never leave the
/// process (or become a baseline).
pub fn emit_report(path: &str, doc: &Value, what: &str) {
    if let Err(errs) = validate_any_report(doc) {
        print_list(&format!("error: built {what} fails its own schema:"), errs);
        exit(ExitCode::VerdictFailure);
    }
    emit_json(path, doc, what);
}

pub fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

pub fn read_json_or_die(path: &str) -> Value {
    parse_json(&read_or_die(path)).unwrap_or_else(|e| die(&format!("{path}: invalid JSON: {e}")))
}

/// Builds `app` once on a scratch machine so a bad app name or source
/// file fails before any long run; returns the app's name.
pub fn probe_build(app: &AppSpec, kernel: KernelKind) -> &'static str {
    match app.build(kernel, &mut Mcu::new(Supply::continuous())) {
        Ok(built) => built.name,
        Err(e) => die(&e),
    }
}

/// The `, faults …` suffix of a headline, empty when faults are off.
pub fn faults_suffix(fault: &FaultSpec) -> String {
    match fault.plan {
        Some(_) => format!(", faults {}", fault.label()),
        None => String::new(),
    }
}

/// The app selector of a repro command (`--app NAME` or `--source PATH`).
pub fn app_repro_flag(app: &AppSpec) -> String {
    match app {
        AppSpec::Named(n) => format!("--app {n}"),
        AppSpec::Source(p) => format!("--source {p}"),
    }
}

/// The fault-plan flags of a repro command, empty when faults are off.
pub fn fault_repro_flags(fault: &FaultSpec) -> String {
    match fault.plan {
        Some(p) => format!(
            " --fault-rate {} --fault-seed {} --max-retries {}",
            p.rate_permille, p.seed, fault.retry.max_retries
        ),
        None => String::new(),
    }
}

/// The CLI side of the live progress channel: owns the shared [`Progress`]
/// the engines tick and a monitor thread that samples it about once a
/// second — a heartbeat line on stderr with `--progress`, a JSONL record
/// per sample with `--progress-out`. Dropping the guard emits one final
/// sample and joins the monitor, so even sub-second runs leave a record.
pub struct ProgressGuard {
    progress: std::sync::Arc<Progress>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressGuard {
    /// Starts the monitor if `--progress` or `--progress-out` was given.
    pub fn start(a: &Args) -> Option<ProgressGuard> {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let stderr_heartbeat = a.switch("--progress");
        let out = a.opt("--progress-out");
        if !stderr_heartbeat && out.is_none() {
            return None;
        }
        let sink = out.map(|path| {
            JsonlWriter::create_registered(path)
                .unwrap_or_else(|e| die(&format!("cannot create progress log {path}: {e}")))
        });
        let progress = Arc::new(Progress::new());
        let stop = Arc::new(AtomicBool::new(false));
        let (p, s) = (progress.clone(), stop.clone());
        let handle = std::thread::spawn(move || loop {
            let done = s.load(Ordering::Relaxed);
            let snap = p.snapshot();
            // Skip the idle pre-phase sample; the final one always lands.
            if !snap.phase.is_empty() {
                if stderr_heartbeat {
                    eprintln!("{}", snap.stderr_line());
                }
                if let Some(sink) = &sink {
                    let _ = sink
                        .lock()
                        .expect("progress log lock poisoned")
                        .write_line(&snap.to_json_line());
                }
            }
            if done {
                if let Some(sink) = &sink {
                    let _ = sink.lock().expect("progress log lock poisoned").flush();
                }
                break;
            }
            for _ in 0..10 {
                if s.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        });
        Some(ProgressGuard {
            progress,
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for ProgressGuard {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The engines' optional observer from an optional guard.
pub fn observer(guard: &Option<ProgressGuard>) -> Option<&Progress> {
    guard.as_ref().map(|g| &*g.progress)
}
