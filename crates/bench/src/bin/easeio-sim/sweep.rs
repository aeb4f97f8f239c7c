//! `sweep`: the deterministic power-failure sweep from the `crashcheck`
//! crate on the parallel engine — a continuous-power oracle enumerates
//! every energy-spend boundary, then the app re-runs with one injected
//! failure per chosen boundary, checked against the oracle.

use crate::flags::Args;
use crate::{
    app_repro_flag, emit_json, emit_report, exit, fault_repro_flags, faults_suffix, observer,
    probe_build, verdict, ExitCode, ProgressGuard,
};
use crashcheck::{boundary_forensics, SweepMode, SweepOutcome, SweepPlan};
use easeio_exec::{
    sweep_matrix, sweep_matrix_observed, AppSpec, SweepEntry, SweepOptions, SweepTiming, APP_NAMES,
};
use easeio_trace::{
    build_forensics_report, build_sweep_report, ForensicsInputs, ForensicsViolationDoc,
    FramDiffByte, FramDiffDoc, SweepInputs, SweepViolation, SweepWasteDoc, Value, CATEGORY_NAMES,
};
use kernel::App;
use mcu_emu::Mcu;

/// The engine's determinism contract, checked at run time against the
/// unpruned serial sweep: identical boundary bookkeeping, identical
/// violations in identical order, and identical energy accounting — pruning
/// must not perturb a single nanojoule.
fn outcomes_diverge(a: &SweepOutcome, b: &SweepOutcome) -> Option<String> {
    if a.oracle_boundaries != b.oracle_boundaries || a.injections != b.injections {
        return Some(format!(
            "boundary bookkeeping diverged: {}/{} vs {}/{} (oracle/injections)",
            a.oracle_boundaries, a.injections, b.oracle_boundaries, b.injections
        ));
    }
    if a.violations.len() != b.violations.len() {
        return Some(format!(
            "violation count diverged: {} vs {}",
            a.violations.len(),
            b.violations.len()
        ));
    }
    for (x, y) in a.violations.iter().zip(&b.violations) {
        if x.boundary != y.boundary || x.kind != y.kind || x.detail != y.detail {
            return Some(format!(
                "violation diverged at boundary {} vs {}: {:?} vs {:?}",
                x.boundary, y.boundary, x.kind, y.kind
            ));
        }
    }
    if a.boundary_waste_nj != b.boundary_waste_nj {
        let at = a
            .boundary_waste_nj
            .iter()
            .zip(&b.boundary_waste_nj)
            .position(|(x, y)| x != y);
        return Some(format!(
            "per-boundary waste diverged (first mismatch at injection index {at:?})"
        ));
    }
    if a.cause_energy_nj != b.cause_energy_nj {
        return Some(format!(
            "per-cause energy diverged: {:?} vs {:?}",
            a.cause_energy_nj, b.cause_energy_nj
        ));
    }
    None
}

fn sweep_report_inputs(out: &SweepOutcome, plan: &SweepPlan, timing: &SweepTiming) -> SweepInputs {
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
        timing: Some(timing.doc()),
    }
}

pub fn main(a: &Args) -> ExitCode {
    let sc = &a.scenario();
    let off_us = a.num("--off-us").unwrap_or(100_000);
    let sample = a.num("--sample");
    let boundary = a.num("--boundary");
    let prune = !a.switch("--no-prune");
    let bench_out = a.opt("--bench-out");
    if sample.is_some() && boundary.is_some() {
        a.fail("--boundary and --sample are mutually exclusive");
    }
    if sample.is_some() && a.switch("--exhaustive") {
        a.fail("--exhaustive and --sample are mutually exclusive");
    }
    let apps: Vec<AppSpec> = if a.switch("--all-apps") {
        if sc.report_out.is_some() {
            a.fail("--report-out is per-app; use --bench-out with --all-apps");
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
    let started = std::time::Instant::now();
    let options = SweepOptions {
        jobs: sc.jobs,
        prune,
    };
    let results = sweep_matrix_observed(&entries, &options, observer(&guard));
    let matrix_wall_us = (started.elapsed().as_micros() as u64).max(1);
    drop(guard);

    // With --bench-out, any sweep that could differ from the unpruned serial
    // loop (wider than one worker, or pruned) also runs that loop: it is the
    // identity gate — the engine must merge to the exact same outcome,
    // nanojoule for nanojoule — and the honest speedup baseline.
    let serial_results = (bench_out.is_some() && (sc.jobs > 1 || prune)).then(|| {
        let started = std::time::Instant::now();
        let serial = sweep_matrix(
            &entries,
            &SweepOptions {
                jobs: 1,
                prune: false,
            },
        );
        (serial, (started.elapsed().as_micros() as u64).max(1))
    });

    let mut total_violations = 0u64;
    let mut total_injections = 0u64;
    let mut total_executed = 0u64;
    let mut total_pruned = 0u64;
    let mut per_app = Vec::new();
    let mut per_app_util = Vec::new();
    let jobs_ran = results.first().map(|(_, t)| t.jobs).unwrap_or(1);
    let mut busy_us_per_worker = vec![0u64; jobs_ran];
    let mut injections_per_worker = vec![0u64; jobs_ran];
    for (i, (out, timing)) in results.iter().enumerate() {
        let plan = &plans[i];
        let serial_wall_us = serial_results.as_ref().map(|(serial, _)| {
            if let Some(why) = outcomes_diverge(&serial[i].0, out) {
                eprintln!(
                    "error: unpruned serial and --jobs {}{} sweeps of {} diverged: {why}",
                    sc.jobs,
                    if prune { " pruned" } else { "" },
                    apps[i].label()
                );
                exit(ExitCode::VerdictFailure);
            }
            serial[i].1.wall_us
        });
        println!(
            "sweep: {} under {} — {} boundaries, {} injections ({}), seed {}, outage {} µs{}{}, \
             {} job(s), {:.2} ms wall ({} inj/s), {} run / {} pruned, \
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
        total_injections += out.injections;
        total_executed += timing.prune.injections_executed;
        total_pruned += timing.prune.injections_pruned;
        for w in 0..timing.jobs.min(jobs_ran) {
            busy_us_per_worker[w] += timing.busy_us_per_worker[w];
            injections_per_worker[w] += timing.injections_per_worker[w];
        }
        let mut entry = vec![
            ("app".into(), Value::str(out.app)),
            ("runtime".into(), Value::str(out.runtime)),
            ("injections".into(), Value::u64(out.injections)),
            (
                "injections_executed".into(),
                Value::u64(timing.prune.injections_executed),
            ),
            (
                "injections_pruned".into(),
                Value::u64(timing.prune.injections_pruned),
            ),
            ("violations".into(), Value::u64(out.violations.len() as u64)),
            ("wall_us".into(), Value::u64(timing.wall_us)),
        ];
        if let Some(rate) = timing.injections_per_sec_milli {
            entry.push(("injections_per_sec_milli".into(), Value::u64(rate)));
        }
        // Per-app wall sums worker busy spans, which preemption inflates
        // when workers outnumber cores — so the honest speedup (elapsed vs
        // elapsed) is reported only at the matrix level, never per app.
        if let Some(serial) = serial_wall_us {
            entry.push(("serial_wall_us".into(), Value::u64(serial)));
        }
        per_app.push(Value::Obj(entry));
        per_app_util.push(Value::Obj(vec![
            ("app".into(), Value::str(out.app)),
            ("runtime".into(), Value::str(out.runtime)),
            (
                "injections_per_worker".into(),
                Value::u64_arr(&timing.injections_per_worker),
            ),
            (
                "busy_us_per_worker".into(),
                Value::u64_arr(&timing.busy_us_per_worker),
            ),
        ]));
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

    if let Some(path) = bench_out {
        let mut fields = vec![
            ("tool".into(), Value::str("easeio-sim sweep")),
            ("jobs".into(), Value::u64(sc.jobs as u64)),
            ("mode".into(), Value::str(mode.name())),
            ("seed".into(), Value::u64(sc.seed)),
            ("prune".into(), Value::Bool(prune)),
            ("injections".into(), Value::u64(total_injections)),
            ("injections_executed".into(), Value::u64(total_executed)),
            ("injections_pruned".into(), Value::u64(total_pruned)),
            ("violations".into(), Value::u64(total_violations)),
            ("wall_us".into(), Value::u64(matrix_wall_us)),
            (
                "injections_per_sec_milli".into(),
                Value::u64(
                    (total_injections * 1_000_000_000)
                        .checked_div(matrix_wall_us)
                        .unwrap_or(0),
                ),
            ),
        ];
        if let Some((_, serial_wall_us)) = &serial_results {
            fields.push(("serial_wall_us".into(), Value::u64(*serial_wall_us)));
            fields.push((
                "speedup_milli".into(),
                Value::u64(
                    (serial_wall_us * 1000)
                        .checked_div(matrix_wall_us)
                        .unwrap_or(0),
                ),
            ));
            println!(
                "sweep bench: --jobs {}{} is {:.2}x serial-unpruned ({:.1} ms vs {:.1} ms)",
                sc.jobs,
                if prune { " with pruning" } else { "" },
                *serial_wall_us as f64 / matrix_wall_us as f64,
                matrix_wall_us as f64 / 1000.0,
                *serial_wall_us as f64 / 1000.0
            );
        }
        fields.push(("apps".into(), Value::Arr(per_app)));
        emit_json(path, &Value::Obj(fields), "sweep bench");
    }

    if let Some(path) = a.opt("--utilization-out") {
        // Per-worker utilization of the shared pool, totalled and per app —
        // the CI artifact that shows where --jobs N actually went.
        let doc = Value::Obj(vec![
            ("tool".into(), Value::str("easeio-sim sweep")),
            ("jobs".into(), Value::u64(jobs_ran as u64)),
            ("wall_us".into(), Value::u64(matrix_wall_us)),
            (
                "injections_per_worker".into(),
                Value::u64_arr(&injections_per_worker),
            ),
            (
                "busy_us_per_worker".into(),
                Value::u64_arr(&busy_us_per_worker),
            ),
            ("apps".into(), Value::Arr(per_app_util)),
        ]);
        emit_json(path, &doc, "sweep utilization");
    }

    verdict(
        total_violations,
        a.switch("--expect-violations"),
        a.switch("--allow-violations"),
        "violations",
        None,
    )
}
