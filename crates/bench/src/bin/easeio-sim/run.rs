//! Run mode (no subcommand): one traced run with its summary, trace and
//! reports, an untraced `--runs N` aggregate, or the standalone
//! `--validate-report` / `--emit-transform` tools.

use crate::flags::Args;
use crate::metrics::metrics_entry;
use crate::{
    die, emit_report, faults_suffix, pretty, print_list, probe_build, read_json_or_die,
    read_or_die, write_or_die, ExitCode,
};
use apps::harness::{golden, measure_footprint, run_many, run_traced, ExperimentCfg};
use easeio_exec::{AppSpec, ScenarioSpec, SupplySpec};
use easeio_trace::{
    build_metrics_report, build_profile, build_report, chrome_trace_with_counters, jsonl,
    validate_any_report, CounterTrack, Event, EventKind, InstantKind, MetricsInputs, ReportInputs,
    SpanKind, Value, CATEGORY_NAMES, SCHEMA_VERSION,
};
use kernel::{Fault, Outcome, Verdict};
use mcu_emu::{CauseSample, Mcu};

pub fn main(a: &Args) -> ExitCode {
    let sc = a.scenario();
    // Standalone schema check: no simulation at all. Accepts a document of
    // any kind through the single validator entry point.
    if let Some(path) = a.opt("--validate-report") {
        let doc = read_json_or_die(path);
        return match validate_any_report(&doc) {
            Ok(kind) => {
                println!(
                    "{path}: valid {} report (schema v{SCHEMA_VERSION})",
                    kind.label()
                );
                ExitCode::Ok
            }
            Err(errs) => {
                print_list(
                    &format!("{path}: {} schema violation(s):", errs.len()),
                    errs,
                );
                ExitCode::VerdictFailure
            }
        };
    }
    if a.switch("--emit-transform") {
        let AppSpec::Source(path) = &sc.device.app else {
            die("--emit-transform needs --source");
        };
        match easec::transform_source(&read_or_die(path)) {
            Ok(out) => println!("{out}"),
            Err(e) => die(&format!("{path}: {e}")),
        }
        return ExitCode::Ok;
    }
    let app_name = probe_build(&sc.device.app, sc.device.kernel);
    let trace = a.switch("--trace");
    let metrics_out = a.opt("--metrics-out");
    if trace
        || sc.trace_out.is_some()
        || sc.report_out.is_some()
        || metrics_out.is_some()
        || sc.runs == 1
    {
        single(&sc, app_name, trace, metrics_out)
    } else {
        aggregate(&sc, app_name)
    }
}

/// One traced run: the human summary plus every requested output.
fn single(sc: &ScenarioSpec, app_name: &str, trace: bool, metrics_out: Option<&str>) -> ExitCode {
    let kind = sc.device.kernel;
    let supply = sc.supply.make(sc.seed, 0);
    let build = |m: &mut Mcu| sc.build_app(m).expect("probe-built above");
    let r = run_traced(&build, sc.kernel_builder(), supply, sc.seed);
    println!(
        "{} under {} on {} supply (seed {}{})",
        app_name,
        kind.name(),
        sc.supply.label(),
        sc.seed,
        faults_suffix(&sc.device.fault)
    );
    println!("  outcome:        {:?}", r.outcome);
    if let Some(v) = &r.verdict {
        println!(
            "  correctness:    {}",
            match v {
                Verdict::Correct => "correct".to_string(),
                Verdict::Incorrect(why) => format!("INCORRECT — {why}"),
            }
        );
    }
    println!(
        "  time:           {:.2} ms on, {:.2} ms wall",
        r.on_us as f64 / 1000.0,
        r.wall_us as f64 / 1000.0
    );
    println!(
        "  energy:         {:.2} µJ ({:.2} app + {:.2} overhead)",
        r.stats.total_energy_nj() as f64 / 1000.0,
        r.stats.app_energy_nj as f64 / 1000.0,
        r.stats.overhead_energy_nj as f64 / 1000.0
    );
    println!("  power failures: {}", r.stats.power_failures);
    println!(
        "  I/O:            {} executed, {} skipped, {} redundant",
        r.stats.io_executed, r.stats.io_skipped, r.stats.io_reexecutions
    );
    println!(
        "  DMA:            {} executed, {} skipped, {} redundant",
        r.stats.dma_executed, r.stats.dma_skipped, r.stats.dma_reexecutions
    );
    let by_cause = CATEGORY_NAMES
        .iter()
        .zip(r.stats.cause_energy_nj)
        .filter(|(_, nj)| *nj > 0)
        .map(|(name, nj)| format!("{name} {:.2}", nj as f64 / 1000.0))
        .collect::<Vec<_>>()
        .join(", ");
    println!("  energy by cause (µJ): {by_cause}");

    // Wasted work against a continuous-power golden run of the same
    // app/runtime, for the one-line summary and the report.
    let (golden_us, golden_nj) = golden(&build, kind, sc.seed);
    let wasted_us = r.stats.app_time_us.saturating_sub(golden_us);
    print_summary(
        r.stats.power_failures,
        r.stats.task_commits,
        r.stats.io_executed,
        r.stats.io_skipped,
        wasted_us,
        r.stats.app_time_us,
    );

    if trace {
        print_trace(&r.events, r.events_dropped);
    }
    if let Some(path) = &sc.trace_out {
        let contents = if path.ends_with(".jsonl") {
            jsonl(&r.events)
        } else {
            let counters = [cause_counter_track(&r.cause_samples)];
            let title = format!("{} on {}", app_name, kind.name());
            pretty(&chrome_trace_with_counters(&r.events, &title, &counters))
        };
        write_or_die(path, &contents, "trace");
        println!("trace written to {path} ({} events)", r.events.len());
    }
    if let Some(path) = &sc.report_out {
        let fp = measure_footprint(&build, kind, sc.seed);
        let inputs = ReportInputs {
            runtime: kind.name().into(),
            app: app_name.into(),
            supply: supply_value(sc.supply),
            seed: sc.seed,
            outcome: crate::metrics::outcome_label(&r.outcome).into(),
            correct: r.verdict.as_ref().map(|v| matches!(v, Verdict::Correct)),
            wall_us: r.wall_us,
            on_us: r.on_us,
            app_time_us: r.stats.app_time_us,
            overhead_time_us: r.stats.overhead_time_us,
            app_energy_nj: r.stats.app_energy_nj,
            overhead_energy_nj: r.stats.overhead_energy_nj,
            golden_app_time_us: golden_us,
            golden_app_energy_nj: golden_nj,
            power_failures: r.stats.power_failures,
            task_attempts: r.stats.task_attempts,
            task_commits: r.stats.task_commits,
            io_executed: r.stats.io_executed,
            io_skipped: r.stats.io_skipped,
            io_reexecutions: r.stats.io_reexecutions,
            dma_executed: r.stats.dma_executed,
            dma_skipped: r.stats.dma_skipped,
            dma_reexecutions: r.stats.dma_reexecutions,
            memory: Some((fp.text, fp.ram, fp.fram)),
            events_recorded: r.events.len() as u64,
            events_dropped: r.events_dropped,
        };
        emit_report(
            path,
            &build_report(&inputs, &build_profile(&r.events)),
            "report",
        );
    }
    if let Some(path) = metrics_out {
        let inputs = MetricsInputs {
            seed: sc.seed,
            entries: vec![metrics_entry(
                kind.name(),
                app_name,
                &r.outcome,
                &r.verdict,
                &r.stats,
            )],
            skipped: Vec::new(),
        };
        emit_report(path, &build_metrics_report(&inputs), "metrics report");
    }
    if let Outcome::Fault(e) = &r.outcome {
        // Typed abort message: an unrecoverable I/O fault (retries
        // exhausted, no degradation possible) reads differently from a
        // DMA resource fault.
        let what = match e {
            Fault::Io(_) => "unrecoverable I/O fault",
            _ => "DMA fault",
        };
        eprintln!("error: aborted on {what}: {e}");
    }
    if r.outcome == Outcome::Completed {
        ExitCode::Ok
    } else {
        ExitCode::VerdictFailure
    }
}

/// `--runs N` untraced runs, seed advancing per run, folded into one line.
/// A run without a verdict counts as correct.
fn aggregate(sc: &ScenarioSpec, app_name: &'static str) -> ExitCode {
    let kind = sc.device.kernel;
    let build = |m: &mut Mcu| sc.build_app(m).expect("probe-built above");
    let cfg = ExperimentCfg {
        runs: sc.runs,
        base_seed: sc.seed,
    };
    // Run `seed` is replica `seed - sc.seed`: RF runs phase-shift their
    // harvesting trajectory as timer runs reseed their schedule.
    let supply = |seed| sc.supply.make(seed, seed - sc.seed);
    let s = run_many(app_name, &build, sc.kernel_builder(), &cfg, &supply);
    let correct = s.completed - s.incorrect;
    let n = s.completed.max(1) as f64;
    println!(
        "{} × {} under {}: {}/{} completed, {}/{} correct, mean {:.2} ms, {:.2} failures/run",
        sc.runs,
        sc.device.app.label(),
        kind.name(),
        s.completed,
        sc.runs,
        correct,
        s.completed,
        s.total_on_us as f64 / n / 1000.0,
        s.power_failures as f64 / n,
    );
    print_summary(
        s.power_failures,
        s.task_commits,
        s.io_executed,
        s.io_skipped,
        s.wasted_us(),
        s.app_us,
    );
    ExitCode::Ok
}

/// The `summary:` line every run ends with; wasted work is the share of
/// app time beyond the continuous-power golden run.
fn print_summary(
    failures: u64,
    commits: u64,
    io_executed: u64,
    io_skipped: u64,
    wasted_us: u64,
    app_us: u64,
) {
    let wasted_pct = if app_us > 0 {
        wasted_us as f64 * 100.0 / app_us as f64
    } else {
        0.0
    };
    println!(
        "summary: {failures} failures, {commits} commits, io {io_executed} executed / \
         {io_skipped} skipped, wasted work {wasted_pct:.1}%"
    );
}

fn supply_value(supply: SupplySpec) -> Value {
    match supply {
        SupplySpec::Continuous => Value::Obj(vec![("kind".into(), Value::str("continuous"))]),
        SupplySpec::Timer => Value::Obj(vec![("kind".into(), Value::str("timer"))]),
        SupplySpec::TimerOnMs(on_ms) => Value::Obj(vec![
            ("kind".into(), Value::str("timer")),
            ("on_ms".into(), Value::u64(on_ms)),
        ]),
        SupplySpec::Rf(d) => Value::Obj(vec![
            ("kind".into(), Value::str("rf")),
            ("distance_in".into(), Value::u64(d)),
        ]),
    }
}

/// The cumulative per-cause energy samples as a Chrome counter track.
fn cause_counter_track(samples: &[CauseSample]) -> CounterTrack {
    CounterTrack {
        name: "energy by cause (nJ)".into(),
        series: CATEGORY_NAMES.iter().map(|n| (*n).to_string()).collect(),
        samples: samples
            .iter()
            .map(|s| (s.ts_us, s.energy_nj.to_vec()))
            .collect(),
    }
}

fn print_trace(events: &[Event], dropped: u64) {
    println!("\n-- event timeline --");
    for ev in events {
        let ms = ev.ts_us as f64 / 1000.0;
        let line = match ev.kind {
            EventKind::Instant(InstantKind::PowerFailure) => "*** POWER FAILURE ***".to_string(),
            EventKind::Instant(InstantKind::Boot) => "boot".to_string(),
            EventKind::Instant(k) => format!("  {} ({})", k.label(), ev.name),
            EventKind::SpanBegin(SpanKind::TaskAttempt) => {
                if ev.site > 0 {
                    format!(
                        "task {} `{}` RE-EXECUTE (attempt {})",
                        ev.task,
                        ev.name,
                        ev.site + 1
                    )
                } else {
                    format!("task {} `{}` enter", ev.task, ev.name)
                }
            }
            EventKind::SpanBegin(SpanKind::PowerOff) => "supply off".to_string(),
            EventKind::SpanEnd(SpanKind::PowerOff, _) => "supply restored".to_string(),
            EventKind::SpanBegin(k) => format!("  {} `{}` begin", k.label(), ev.name),
            EventKind::SpanEnd(SpanKind::TaskAttempt, st) => {
                format!("task {} `{}`: {}", ev.task, ev.name, st.label())
            }
            EventKind::SpanEnd(k, st) => format!("  {} `{}`: {}", k.label(), ev.name, st.label()),
        };
        println!("{ms:>10.3} ms  {line}");
    }
    if dropped > 0 {
        println!("  ({dropped} older events dropped by the ring)");
    }
}
