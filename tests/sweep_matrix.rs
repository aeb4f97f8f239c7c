//! The pinned verdict matrix: every crash sweep the project's claims rest
//! on, exhaustive, in one `sweep_matrix` call, against
//! `tests/golden/sweep_matrix.json`.
//!
//! The rows are every built-in app under every kernel, with and without a
//! peripheral-fault plan, plus the fault settings whose verdicts matter on
//! their own: EaseIO on every app at fault rate 50‰, the `flaky-radio`
//! Naive retry-duplication probe, the `temp` Naive degraded-staleness
//! probe, and the OTA update window under every kernel. Each golden row
//! holds no timing: the boundary and injection counts, the violation count
//! with the first violating boundary per kind, and the exact work the
//! pruned engine did (`injections_executed`, `boundaries_simulated`,
//! `rejoined`). The work counts are the same at any `jobs` width, so a
//! change that loses pruning or rejoin fails here on any host.
//!
//! Regenerate the golden after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test sweep_matrix`
//!
//! The second test (release builds only:
//! `cargo test --release --test sweep_matrix`) reruns every row unpruned
//! at one worker and requires the whole outcome to equal the pruned one.

use crashcheck::{SweepMode, SweepOutcome, SweepPlan};
use easeio_exec::{sweep_matrix, AppSpec, SweepEntry, SweepOptions, APP_NAMES};
use easeio_repro::apps::harness::KernelKind;
use easeio_repro::easeio_trace::{SweepTimingDoc, Value};
use easeio_repro::kernel::{App, FaultSpec};
use easeio_repro::mcu_emu::Mcu;
use std::path::PathBuf;

#[path = "../crates/exec/tests/common/mod.rs"]
mod common;
use common::assert_identical;

/// One sweep of the matrix.
struct Row {
    app: &'static str,
    kernel: KernelKind,
    /// Boundary-sampling and environment seed.
    seed: u64,
    fault: FaultSpec,
    update_window: bool,
}

fn row(app: &'static str, kernel: KernelKind, fault: FaultSpec) -> Row {
    Row {
        app,
        kernel,
        seed: 7,
        fault,
        update_window: false,
    }
}

fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for fault in [FaultSpec::none(), FaultSpec::with_rate(3, 60)] {
        for app in APP_NAMES {
            for kernel in KernelKind::ALL {
                rows.push(row(app, kernel, fault));
            }
        }
    }
    for app in APP_NAMES {
        rows.push(row(app, KernelKind::EaseIo, FaultSpec::with_rate(7, 50)));
    }
    rows.push(Row {
        seed: 5,
        ..row(
            "flaky-radio",
            KernelKind::Naive,
            FaultSpec::with_rate(3, 80),
        )
    });
    let mut squeezed = FaultSpec::with_rate(7, 500);
    squeezed.retry.max_retries = 1;
    rows.push(row("temp", KernelKind::Naive, squeezed));
    for rate in [0, 80] {
        for kernel in KernelKind::ALL {
            rows.push(Row {
                update_window: true,
                ..row("ota-update", kernel, FaultSpec::with_rate(3, rate))
            });
        }
    }
    rows
}

/// The sweep plan the CLI builds for the same settings.
fn plan(row: &Row) -> SweepPlan {
    SweepPlan {
        mode: SweepMode::Exhaustive,
        seed: row.seed,
        env_seed: row.seed,
        strict_memory: AppSpec::Named(row.app.into()).is_deterministic(),
        fault: row.fault,
        update_window: row.update_window,
        ..SweepPlan::default()
    }
}

type Builder = Box<dyn Fn(&mut Mcu) -> App + Sync>;

/// Runs every row over one shared pool.
fn run(rows: &[Row], options: SweepOptions) -> Vec<(SweepOutcome, SweepTimingDoc)> {
    let builders: Vec<Builder> = rows
        .iter()
        .map(|r| {
            let (app, kernel) = (AppSpec::Named(r.app.into()), r.kernel);
            Box::new(move |m: &mut Mcu| app.build(kernel, m).unwrap()) as Builder
        })
        .collect();
    let entries: Vec<SweepEntry> = rows
        .iter()
        .zip(&builders)
        .map(|(r, b)| SweepEntry {
            builder: b.as_ref(),
            kind: r.kernel,
            plan: plan(r),
        })
        .collect();
    sweep_matrix(&entries, &options)
}

const PRUNED: SweepOptions = SweepOptions {
    jobs: 4,
    prune: true,
};

/// One golden line: the row's identity, its verdicts and its exact work.
fn golden_row(row: &Row, out: &SweepOutcome, timing: &SweepTimingDoc) -> Value {
    // (kind, count, first boundary), in order of first appearance.
    let mut kinds: Vec<(&str, u64, u64)> = Vec::new();
    for v in &out.violations {
        match kinds.iter_mut().find(|k| k.0 == v.kind.name()) {
            Some(k) => k.1 += 1,
            None => kinds.push((v.kind.name(), 1, v.boundary)),
        }
    }
    let by_kind = kinds
        .into_iter()
        .map(|(kind, count, first)| {
            let tally = [("count", count), ("first", first)];
            (kind.to_string(), Value::u64_map(tally))
        })
        .collect();
    Value::Obj(vec![
        ("app".into(), Value::str(row.app)),
        ("kernel".into(), Value::str(row.kernel.cli_name())),
        ("seed".into(), Value::u64(row.seed)),
        ("faults".into(), Value::str(row.fault.label())),
        ("update_window".into(), Value::Bool(row.update_window)),
        (
            "oracle_boundaries".into(),
            Value::u64(out.oracle_boundaries),
        ),
        ("injections".into(), Value::u64(out.injections)),
        ("violations".into(), Value::u64(out.violations.len() as u64)),
        ("by_kind".into(), Value::Obj(by_kind)),
        (
            "injections_executed".into(),
            Value::u64(timing.prune.injections_executed),
        ),
        (
            "boundaries_simulated".into(),
            Value::u64(timing.boundaries_simulated),
        ),
        ("rejoined".into(), Value::u64(timing.rejoined)),
    ])
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sweep_matrix.json")
}

#[test]
fn sweep_matrix_matches_golden() {
    let rows = rows();
    let results = run(&rows, PRUNED);
    // One row per line, so a drift diffs to the rows that moved.
    let lines: Vec<String> = rows
        .iter()
        .zip(&results)
        .map(|(r, (out, timing))| golden_row(r, out, timing).to_compact())
        .collect();
    let actual = format!("[\n{}\n]\n", lines.join(",\n"));
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test sweep_matrix` to create it",
            path.display()
        )
    });
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "sweep_matrix.json line {}", i + 1);
    }
    assert_eq!(
        actual, expected,
        "sweep_matrix.json drifted; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Pruning, checkpoint resume, rejoin and the shared pool change nothing a
/// verdict rests on: every row's full outcome equals the unpruned
/// one-worker sweep from boot. Too slow for debug builds.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn unpruned_serial_matrix_equals_pruned() {
    let rows = rows();
    let pruned = run(&rows, PRUNED);
    let serial = run(
        &rows,
        SweepOptions {
            jobs: 1,
            prune: false,
        },
    );
    for ((s, _), (p, _)) in serial.iter().zip(&pruned) {
        assert_identical(s, p);
    }
}
