//! `sweep`: the deterministic power-failure sweep from the `crashcheck`
//! crate on the parallel engine — a continuous-power oracle enumerates
//! every energy-spend boundary, then the app re-runs with one injected
//! failure per chosen boundary, checked against the oracle.

use crate::flags::Args;
use crate::{
    app_repro_flag, die, emit_report, fault_repro_flags, faults_suffix, observer, probe_build,
    verdict, ExitCode, ProgressGuard,
};
use crashcheck::{boundary_forensics, SweepMode, SweepOutcome, SweepPlan};
use easeio_exec::{sweep_matrix_observed, AppSpec, SweepEntry, SweepOptions, APP_NAMES};
use easeio_trace::{
    build_forensics_report, build_sweep_report, ForensicsInputs, ForensicsViolationDoc,
    FramDiffByte, FramDiffDoc, SweepInputs, SweepTimingDoc, SweepViolation, SweepWasteDoc,
    CATEGORY_NAMES,
};
use kernel::App;
use mcu_emu::Mcu;

fn sweep_report_inputs(
    out: &SweepOutcome,
    plan: &SweepPlan,
    timing: &SweepTimingDoc,
) -> SweepInputs {
    SweepInputs {
        runtime: out.runtime.into(),
        app: out.app.into(),
        seed: plan.seed,
        off_us: plan.off_us,
        mode: plan.mode.name().into(),
        oracle_boundaries: out.oracle_boundaries,
        strict_memory: plan.strict_memory,
        injections: out.injections,
        violations: out
            .violations
            .iter()
            .map(|v| SweepViolation {
                boundary: v.boundary,
                kind: v.kind.name().into(),
                detail: v.detail.clone(),
            })
            .collect(),
        fault_spec: plan.fault.doc(),
        waste: Some(SweepWasteDoc::from_series(
            &out.boundary_waste_nj,
            CATEGORY_NAMES
                .iter()
                .zip(out.cause_energy_nj)
                .map(|(name, nj)| ((*name).to_string(), nj))
                .collect(),
        )),
        timing: Some(timing.clone()),
    }
}

pub fn main(a: &Args) -> ExitCode {
    let sc = &a.scenario();
    let off_us = a.num("--off-us").unwrap_or(100_000);
    let sample = a.num("--sample");
    let boundary = a.num("--boundary");
    let prune = !a.switch("--no-prune");
    if sample.is_some() && boundary.is_some() {
        a.fail("--boundary and --sample are mutually exclusive");
    }
    if a.switch("--exhaustive") && (sample.is_some() || boundary.is_some()) {
        a.fail("--exhaustive excludes --sample and --boundary");
    }
    if sample == Some(0) {
        a.fail("--sample 0 injects nowhere; sample at least one boundary");
    }
    let apps: Vec<AppSpec> = if a.switch("--all-apps") {
        if sc.report_out.is_some() {
            a.fail("--report-out is per-app; sweep one --app to write a report");
        }
        APP_NAMES
            .iter()
            .map(|n| AppSpec::Named((*n).into()))
            .collect()
    } else {
        vec![sc.device.app.clone()]
    };
    let mode = match (boundary, sample) {
        (Some(b), _) => SweepMode::Boundary(b),
        (None, Some(n)) => SweepMode::Sample(n),
        (None, None) => SweepMode::Exhaustive,
    };
    // Surface app/source errors before committing to a long sweep.
    for app in &apps {
        probe_build(app, sc.device.kernel);
    }
    let plans: Vec<SweepPlan> = apps
        .iter()
        .map(|app| SweepPlan {
            mode,
            seed: sc.seed,
            off_us,
            strict_memory: a.switch("--strict-memory") || app.is_deterministic(),
            update_window: a.switch("--update-window"),
            env_seed: sc.seed,
            fault: sc.device.fault,
        })
        .collect();
    type AppBuilder = Box<dyn Fn(&mut Mcu) -> App + Sync>;
    let builders: Vec<AppBuilder> = apps
        .iter()
        .map(|app| {
            let kernel = sc.device.kernel;
            let app = app.clone();
            Box::new(move |m: &mut Mcu| app.build(kernel, m).expect("probe-built above"))
                as AppBuilder
        })
        .collect();
    let entries: Vec<SweepEntry> = builders
        .iter()
        .zip(&plans)
        .map(|(b, plan)| SweepEntry {
            builder: b.as_ref(),
            kind: sc.device.kernel,
            plan: plan.clone(),
        })
        .collect();

    // One worker pool serves the whole app matrix: workers are spawned once
    // and keep a warm machine per app, instead of paying a pool spawn/join
    // and a cold snapshot adoption per app.
    let guard = ProgressGuard::start(a);
    let options = SweepOptions {
        jobs: sc.jobs,
        prune,
    };
    let results = sweep_matrix_observed(&entries, &options, observer(&guard));
    drop(guard);

    // A `--boundary` no injection reaches would pass as a clean verdict.
    if let SweepMode::Boundary(b) = mode {
        for (app, (out, _)) in apps.iter().zip(&results) {
            if out.injections > 0 {
                continue;
            }
            let (label, n) = (app.label(), out.oracle_boundaries);
            die(&if b >= n {
                format!(
                    "--boundary {b} is out of range: {label} under {} has {n} boundaries",
                    out.runtime
                )
            } else {
                format!("--boundary {b} lies outside {label}'s update window")
            });
        }
    }

    let mut total_violations = 0u64;
    for ((out, timing), plan) in results.iter().zip(&plans) {
        println!(
            "sweep: {} under {} — {} boundaries, {} injections ({}), seed {}, outage {} µs{}{}, \
             {} job(s), {:.2} ms busy ({} inj/s), {} run / {} pruned, \
             {} spend boundaries per run, {} rejoined",
            out.app,
            out.runtime,
            out.oracle_boundaries,
            out.injections,
            plan.mode.name(),
            plan.seed,
            plan.off_us,
            if plan.strict_memory {
                ", strict memory"
            } else {
                ""
            },
            faults_suffix(&plan.fault),
            timing.jobs,
            timing.wall_us as f64 / 1000.0,
            timing
                .injections_per_sec_milli
                .map(|r| (r / 1000).to_string())
                .unwrap_or_else(|| "unmeasured".into()),
            timing.prune.injections_executed,
            timing.prune.injections_pruned,
            timing
                .boundaries_simulated
                .checked_div(timing.prune.injections_executed)
                .unwrap_or(0),
            timing.rejoined,
        );
        for v in &out.violations {
            println!(
                "  boundary {:>6}: {} — {}",
                v.boundary,
                v.kind.name(),
                v.detail
            );
        }
        println!(
            "sweep result: {} violation(s) in {} injection(s)",
            out.violations.len(),
            out.injections
        );
        let waste = SweepWasteDoc::from_series(&out.boundary_waste_nj, vec![]);
        println!(
            "sweep waste: mean {} nJ, p95 {} nJ, max {} nJ per boundary",
            waste.mean_waste_nj, waste.p95_waste_nj, waste.max_waste_nj
        );
        if let Some(path) = &sc.report_out {
            let doc = build_sweep_report(&sweep_report_inputs(out, plan, timing));
            emit_report(path, &doc, "sweep report");
        }
        total_violations += out.violations.len() as u64;
    }

    if let Some(path) = a.opt("--forensics-out") {
        // The bundle documents the sweep's *first* violation in entry
        // order: boundary + spend-seq coordinates, fault plan, capped FRAM
        // diff against the continuous-power oracle, and a `--boundary`
        // repro command that re-executes exactly that injection.
        match results
            .iter()
            .enumerate()
            .find_map(|(i, (out, _))| out.violations.first().map(|v| (i, out, v)))
        {
            Some((i, out, v)) => {
                let plan = &plans[i];
                let f =
                    boundary_forensics(builders[i].as_ref(), sc.device.kernel, plan, v.boundary);
                let mut repro = format!(
                    "easeio-sim sweep {} --kernel {} --seed {} --off-us {} --boundary {}",
                    app_repro_flag(&apps[i]),
                    sc.device.kernel.cli_name(),
                    plan.seed,
                    plan.off_us,
                    v.boundary
                );
                if plan.strict_memory {
                    repro.push_str(" --strict-memory");
                }
                repro.push_str(&fault_repro_flags(&plan.fault));
                repro.push_str(" --expect-violations");
                let inputs = ForensicsInputs {
                    source: "sweep".into(),
                    runtime: out.runtime.into(),
                    app: out.app.into(),
                    seed: plan.seed,
                    violation: ForensicsViolationDoc {
                        kind: v.kind.name().into(),
                        detail: v.detail.clone(),
                        boundary: Some(v.boundary),
                        spend_seq: f.spend_seq,
                        device: None,
                        wave: None,
                    },
                    fault_spec: plan.fault.doc(),
                    context: vec![
                        ("oracle_boundaries".into(), f.oracle_boundaries),
                        ("injections".into(), out.injections),
                        ("violations".into(), out.violations.len() as u64),
                        ("off_us".into(), plan.off_us),
                        ("strict_memory".into(), plan.strict_memory as u64),
                        ("update_window".into(), plan.update_window as u64),
                    ],
                    fram_diff: (f.divergent_bytes > 0).then(|| FramDiffDoc {
                        divergent_bytes: f.divergent_bytes,
                        first: f
                            .fram_diff
                            .iter()
                            .map(|&(addr, oracle, observed)| FramDiffByte {
                                addr,
                                oracle,
                                observed,
                            })
                            .collect(),
                    }),
                    repro_command: repro,
                };
                emit_report(path, &build_forensics_report(&inputs), "forensics bundle");
            }
            None => println!("forensics: no violations — nothing written to {path}"),
        }
    }

    verdict(
        total_violations,
        a.switch("--expect-violations"),
        a.switch("--allow-violations"),
        "violations",
        None,
    )
}
