//! `metrics` (the energy-attribution document) and `compare` (the
//! regression gate over two of them).

use crate::flags::Args;
use crate::{emit_json, emit_report, print_list, probe_build, read_json_or_die, ExitCode};
use apps::harness::{run_once, KernelKind};
use easeio_exec::{AppSpec, SupplySpec, APP_NAMES};
use easeio_trace::{
    build_metrics_report, compare_metrics, flamegraph, MetricsEntry, MetricsInputs, SkippedApp,
};
use kernel::{Outcome, Verdict};
use mcu_emu::{Mcu, RunStats};

/// A metrics-report entry carrying one run's attribution ledger.
pub fn metrics_entry(
    runtime: &str,
    app: &str,
    outcome: &Outcome,
    verdict: &Option<Verdict>,
    stats: RunStats,
) -> MetricsEntry {
    MetricsEntry {
        runtime: runtime.into(),
        app: app.into(),
        outcome: outcome.label().into(),
        correct: *outcome == Outcome::Completed && !matches!(verdict, Some(Verdict::Incorrect(_))),
        stats,
    }
}

/// `metrics`: one timer-supply run per kernel × app at a fixed seed, every
/// run's attribution ledger folded into one `kind: "metrics"` document.
/// Purely virtual-time — the document is byte-identical across hosts and
/// runs, which is what makes it committable as a CI baseline.
pub fn metrics_main(a: &Args) -> ExitCode {
    let seed = a.num("--seed").unwrap_or(42);
    let kernels = a.list("--kernels", KernelKind::parse).unwrap_or(vec![
        KernelKind::Naive,
        KernelKind::Alpaca,
        KernelKind::Ink,
        KernelKind::EaseIo,
    ]);
    let apps = a
        .list("--apps", |s| Ok(s.to_string()))
        .unwrap_or_else(|| APP_NAMES.iter().map(|n| (*n).to_string()).collect());
    // Apps the metrics supply cannot run (`fir-long`: its chunk task is a
    // ~25 ms atomic burst, longer than the timer supply's 20 ms maximum
    // on-period) become explicit "skipped" rows — console and document —
    // rather than silently vanishing; `--include-skipped` runs them anyway.
    let mut skipped: Vec<SkippedApp> = Vec::new();
    let mut runnable: Vec<String> = Vec::new();
    for app_name in apps {
        match AppSpec::Named(app_name.clone()).metrics_skip_reason() {
            Some(reason) if !a.switch("--include-skipped") => skipped.push(SkippedApp {
                app: app_name,
                reason: reason.into(),
            }),
            _ => runnable.push(app_name),
        }
    }
    let mut entries = Vec::new();
    println!(
        "{:<8} {:<15} {:>12} {:>11} {:>7} {:>13}",
        "kernel", "app", "energy_uj", "waste_uj", "waste%", "redundant_nj"
    );
    for s in &skipped {
        println!("{:<8} {:<15} skipped: {}", "-", s.app, s.reason);
    }
    for kind in &kernels {
        for app_name in &runnable {
            let spec = AppSpec::Named(app_name.clone());
            probe_build(&spec, *kind);
            let build = |m: &mut Mcu| spec.build(*kind, m).expect("probe-built above");
            let supply = SupplySpec::Timer.make(seed, 0);
            let r = run_once(&build, *kind, supply, seed);
            let entry = metrics_entry(kind.name(), app_name, &r.outcome, &r.verdict, r.stats);
            let (total, waste) = (entry.stats.total_energy_nj(), entry.stats.waste_energy_nj());
            let redundant: u64 = entry.stats.redundant_energy_by_site.values().sum();
            println!(
                "{:<8} {:<15} {:>12.2} {:>11.2} {:>6.1}% {:>13}",
                kind.name(),
                app_name,
                total as f64 / 1000.0,
                waste as f64 / 1000.0,
                if total > 0 {
                    waste as f64 * 100.0 / total as f64
                } else {
                    0.0
                },
                redundant,
            );
            entries.push(entry);
        }
    }
    let inputs = MetricsInputs {
        seed,
        entries,
        skipped,
    };
    if let Some(path) = a.opt("--metrics-out") {
        emit_report(path, &build_metrics_report(&inputs), "metrics report");
    }
    if let Some(path) = a.opt("--flame-out") {
        emit_json(path, &flamegraph(&inputs), "flamegraph");
    }
    ExitCode::Ok
}

/// `compare OLD NEW --gate-pct N`: regression gate over two metrics
/// reports. Exit 0 = within gate, 1 = regression found, 2 = unreadable or
/// malformed input.
pub fn compare_main(a: &Args) -> ExitCode {
    let gate_pct: f64 = a.num("--gate-pct").unwrap_or(5.0);
    let [old_path, new_path] = a.positional.as_slice() else {
        a.fail("compare needs exactly two report paths (OLD NEW)");
    };
    let old = read_json_or_die(old_path);
    let new = read_json_or_die(new_path);
    match compare_metrics(&old, &new, gate_pct) {
        Err(errs) => {
            print_list("error: reports are not comparable:", errs);
            ExitCode::Usage
        }
        Ok(regressions) if regressions.is_empty() => {
            println!("compare: {old_path} vs {new_path} — within the {gate_pct}% gate");
            ExitCode::Ok
        }
        Ok(regressions) => {
            print_list(
                &format!(
                    "compare: {} regression(s) beyond the {gate_pct}% gate:",
                    regressions.len()
                ),
                regressions.iter().map(|r| r.describe()),
            );
            ExitCode::VerdictFailure
        }
    }
}
