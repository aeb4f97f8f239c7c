//! `grid`: a kernel × supply-point experiment matrix (the Fig. 12/13 axes)
//! fanned across the worker pool.

use crate::flags::Args;
use crate::{emit_json, probe_build, ExitCode};
use apps::harness::KernelKind;
use easeio_exec::{run_grid, GridSpec};
use easeio_trace::Value;
use mcu_emu::Mcu;

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("{s}: {e}"))
}

pub fn main(a: &Args) -> ExitCode {
    let sc = a.scenario();
    let defaults = GridSpec::default();
    let spec = GridSpec {
        runs: sc.runs.max(1),
        seed: sc.seed,
        fault: sc.device.fault,
        kernels: a
            .list("--kernels", KernelKind::parse)
            .unwrap_or(defaults.kernels),
        distances_inch: a
            .list("--distances", parse_u64)
            .unwrap_or(defaults.distances_inch),
        on_times_ms: a
            .list("--on-times", parse_u64)
            .unwrap_or(defaults.on_times_ms),
    };
    // Grid apps must build under every kernel the same; probe once.
    let app = &sc.device.app;
    probe_build(app, KernelKind::EaseIo);
    let builder = |kind: KernelKind, m: &mut Mcu| app.build(kind, m).expect("probe-built above");
    let (cells, stats) = run_grid(&builder, &spec, sc.jobs);
    println!(
        "grid: {} — {} cells × {} run(s), {} job(s), {:.2} ms wall",
        app.label(),
        cells.len(),
        spec.runs,
        stats.jobs,
        stats.wall_us as f64 / 1000.0
    );
    println!(
        "{:<8} {:<12} {:>9} {:>8} {:>12} {:>12} {:>9}",
        "kernel", "supply", "completed", "correct", "mean_wall_ms", "mean_on_ms", "failures"
    );
    for c in &cells {
        println!(
            "{:<8} {:<12} {:>9} {:>8} {:>12.2} {:>12.2} {:>9}",
            c.kernel,
            c.supply,
            c.completed,
            c.correct,
            c.mean_wall_us as f64 / 1000.0,
            c.mean_on_us as f64 / 1000.0,
            c.mean_failures
        );
    }
    if let Some(path) = &sc.report_out {
        let rows = cells
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("kernel".into(), Value::str(c.kernel)),
                    ("supply".into(), Value::str(c.supply.clone())),
                    ("completed".into(), Value::u64(c.completed)),
                    ("correct".into(), Value::u64(c.correct)),
                    ("mean_wall_us".into(), Value::u64(c.mean_wall_us)),
                    ("mean_on_us".into(), Value::u64(c.mean_on_us)),
                    ("mean_failures".into(), Value::u64(c.mean_failures)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("tool".into(), Value::str("easeio-sim grid")),
            ("app".into(), Value::str(app.label().to_string())),
            ("runs".into(), Value::u64(spec.runs)),
            ("seed".into(), Value::u64(spec.seed)),
            ("cells".into(), Value::Arr(rows)),
            (
                "timing".into(),
                Value::Obj(vec![
                    ("jobs".into(), Value::u64(stats.jobs as u64)),
                    ("wall_us".into(), Value::u64(stats.wall_us)),
                ]),
            ),
        ]);
        emit_json(path, &doc, "grid report");
    }
    ExitCode::Ok
}
