//! The crash-sweep workload: an exhaustive EaseIO sweep over an app set,
//! run by `easeio_exec::sweep_matrix` at one worker (the engine
//! repetition) or re-driven call by call from `crashcheck`'s public
//! functions under spans (the layer pass).

use crate::spans::Recorder;
use crate::{Counts, LayerOut, Rep, KIND};
use apps::fir_long::{self, FirLongCfg};
use crashcheck::{
    check_record, classify_boundaries, filter_update_window, materialize_record, prepare_oracle,
    reference_trace, run_from, select_boundaries, SweepMode, SweepOutcome, SweepPlan, Violation,
};
use easeio_exec::{sweep_matrix, AppSpec, SweepEntry, SweepOptions};
use easeio_trace::{
    build_sweep_report, parse_json, validate_any_report, FaultSpecDoc, SweepInputs, SweepViolation,
    SweepWasteDoc, CATEGORY_NAMES,
};
use kernel::{App, FaultSpec};
use mcu_emu::{EnergyCause, Mcu, Supply, CAUSE_COUNT};
use std::collections::BTreeSet;
use std::time::Instant;

type Builder = Box<dyn Fn(&mut Mcu) -> App + Sync>;

/// One app of a sweep workload.
struct SweepApp {
    builder: Builder,
    plan: SweepPlan,
}

/// A sweep: apps swept in one `sweep_matrix` call.
pub struct SweepWorkload {
    apps: Vec<SweepApp>,
}

fn named(name: &str) -> Builder {
    let spec = AppSpec::Named(name.into());
    Box::new(move |m: &mut Mcu| spec.build(KIND, m).expect("built-in app"))
}

/// `fir-long` cut down so one repetition stays short: 64-sample chunks
/// over 128 taps, still 2 rounds, and a longer post-filter burst so ~89%
/// of its boundaries are still pruned (the default build prunes 92%).
fn fir_long_small() -> Builder {
    Box::new(|m: &mut Mcu| {
        fir_long::build(
            m,
            &FirLongCfg {
                chunk: 64,
                taps: 128,
                rounds: 2,
                post_cycles: 240_000,
                exclude_const_dma: KIND.excludes_const_dma(),
            },
        )
    })
}

impl SweepWorkload {
    /// `sweep-pruned`: deterministic apps under strict FRAM compare, where
    /// equivalence pruning skips most boundaries. The seed is the
    /// environment seed, which these apps never observe, so every seed
    /// judges the same boundaries to the same records.
    pub fn pruned(seed: u64) -> Self {
        let plan = SweepPlan {
            mode: SweepMode::Exhaustive,
            seed,
            strict_memory: true,
            env_seed: seed,
            fault: FaultSpec::none(),
            ..SweepPlan::default()
        };
        let apps = [named("dma"), named("lea"), named("fir"), fir_long_small()]
            .into_iter()
            .map(|builder| SweepApp {
                builder,
                plan: plan.clone(),
            })
            .collect();
        Self { apps }
    }

    /// A 32-boundary sampled sweep of `flaky-radio` at fault rate 50‰:
    /// the crashcheck/exec probe of the fleet workload, over its app.
    pub fn probe(seed: u64) -> Self {
        let plan = SweepPlan {
            mode: SweepMode::Sample(32),
            seed,
            env_seed: seed,
            fault: FaultSpec::with_rate(seed, 50),
            ..SweepPlan::default()
        };
        Self {
            apps: vec![SweepApp {
                builder: named("flaky-radio"),
                plan,
            }],
        }
    }

    fn entries(&self) -> Vec<SweepEntry<'_>> {
        self.apps
            .iter()
            .map(|a| SweepEntry {
                builder: a.builder.as_ref(),
                kind: KIND,
                plan: a.plan.clone(),
            })
            .collect()
    }

    /// One engine repetition: the whole app set through `sweep_matrix` at
    /// one worker, pruning on. Set-up is the engine's own oracle and
    /// classification time, per app; the item phase is each app's
    /// injection and judging time plus one part for the rest of the call
    /// (pool and batching).
    pub fn engine_rep(&self) -> Rep {
        let entries = self.entries();
        let t0 = Instant::now();
        let results = sweep_matrix(
            &entries,
            &SweepOptions {
                jobs: 1,
                prune: true,
            },
        );
        let wall_s = t0.elapsed().as_secs_f64();
        let secs = |us: u64| us as f64 / 1e6;
        let setup_parts: Vec<f64> = results
            .iter()
            .map(|(_, t)| secs(t.oracle_us + t.classify_us))
            .collect();
        let mut item_parts: Vec<f64> = results
            .iter()
            .map(|(_, t)| secs(t.inject_us + t.merge_us))
            .collect();
        let accounted: f64 = setup_parts.iter().chain(&item_parts).sum();
        item_parts.push(wall_s - accounted);
        let executed = results
            .iter()
            .map(|(_, t)| t.prune.injections_executed)
            .sum();
        let outcomes: Vec<SweepOutcome> = results.into_iter().map(|(o, _)| o).collect();
        let mut rep = outcome_rep(&outcomes, executed);
        rep.setup_parts = setup_parts;
        rep.item_parts = item_parts;
        rep
    }

    /// The same sweep re-driven from `crashcheck`'s public functions with
    /// a span per call. Mirrors `sweep_matrix` at one worker: per app,
    /// oracle, reference trace and classification, one machine that runs
    /// every class representative from the shared snapshot, then judging
    /// in boundary order. Each injection's restore is issued as its own
    /// span first, so `run_from`'s internal restore finds nothing dirty.
    pub fn layer_pass(&self, rec: &mut Recorder, counts: &mut Counts) -> LayerOut {
        let t0 = Instant::now();
        let mut setup_s = 0.0;
        let mut report_s = 0.0;
        let mut outcomes = Vec::with_capacity(self.apps.len());
        let mut executed = 0;
        for a in &self.apps {
            let plan = &a.plan;
            let ts = Instant::now();
            let oracle = rec.scope("crashcheck.prepare_oracle", |_| {
                prepare_oracle(a.builder.as_ref(), KIND, plan.env_seed)
            });
            let (chosen, trace, classes) = rec.scope("crashcheck.classify", |rec| {
                let mut chosen = select_boundaries(oracle.boundaries, plan.mode, plan.seed);
                let mut mcu = Mcu::new(Supply::continuous());
                let app = rec.scope("apps.build", |_| (a.builder)(&mut mcu));
                let trace = reference_trace(
                    &app,
                    KIND,
                    &mut mcu,
                    &oracle.snapshot,
                    plan.env_seed,
                    &plan.fault,
                );
                if plan.update_window {
                    chosen = filter_update_window(&chosen, &trace);
                }
                let classes = classify_boundaries(&chosen, &trace);
                (chosen, trace, classes)
            });
            setup_s += ts.elapsed().as_secs_f64();

            let mut mcu = Mcu::new(Supply::continuous());
            let app = rec.scope("apps.build", |_| (a.builder)(&mut mcu));
            let mut records = Vec::with_capacity(classes.reps.len());
            for &b in &classes.reps {
                counts.restores += 1;
                counts.dirty_pages += crate::dirty_pages(&mcu);
                rec.scope("mcu-emu.restore", |_| mcu.restore(&oracle.snapshot));
                let r = rec.scope("crashcheck.run_from", |_| {
                    run_from(
                        &app,
                        KIND,
                        &mut mcu,
                        &oracle.snapshot,
                        Supply::injected(b, plan.off_us),
                        plan.env_seed,
                        &plan.fault,
                    )
                });
                counts.add_run(&mcu.stats);
                records.push(r);
            }
            executed += records.len() as u64;
            counts.items += chosen.len() as u64;
            counts.judged += chosen.len() as u64;
            counts.executed += records.len() as u64;

            let outcome = rec.scope("crashcheck.judge", |_| {
                let mut violations: Vec<Violation> = Vec::new();
                let mut boundary_waste_nj = Vec::with_capacity(chosen.len());
                let mut cause_energy_nj = [0u64; CAUSE_COUNT];
                for (j, &b) in chosen.iter().enumerate() {
                    let c = classes.class_of[j];
                    let rep_b = classes.reps[c];
                    let materialized;
                    let r = if b == rep_b {
                        &records[c]
                    } else {
                        materialized = materialize_record(&trace, &records[c], rep_b, b);
                        &materialized
                    };
                    violations.extend(check_record(r, &oracle.fram, b, plan.strict_memory));
                    boundary_waste_nj.push(r.waste_nj);
                    for (total, c) in cause_energy_nj.iter_mut().zip(r.cause_energy_nj) {
                        *total += c;
                    }
                }
                SweepOutcome {
                    runtime: KIND.name(),
                    app: oracle.app,
                    env_seed: plan.env_seed,
                    config: plan.clone(),
                    oracle_boundaries: oracle.boundaries,
                    injections: chosen.len() as u64,
                    violations,
                    boundary_waste_nj,
                    cause_energy_nj,
                }
            });
            let tr = Instant::now();
            let doc = rec.scope("trace.build_report", |_| {
                build_sweep_report(&report_inputs(&outcome, plan))
            });
            rec.scope("trace.validate_report", |_| {
                let v = parse_json(&doc.to_compact()).expect("sweep report is valid JSON");
                validate_any_report(&v).expect("sweep report validates");
            });
            report_s += tr.elapsed().as_secs_f64();
            outcomes.push(outcome);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        LayerOut {
            items_s: wall_s - setup_s - report_s,
            identity: outcome_rep(&outcomes, executed).identity,
        }
    }
}

/// Counts, exact energy tallies and result identity of one sweep
/// repetition. `failed` counts judged boundaries with a violation.
fn outcome_rep(outcomes: &[SweepOutcome], executed: u64) -> Rep {
    let mut items = 0;
    let mut energy_nj = 0;
    let mut waste_nj = 0;
    let mut failed = 0;
    let mut identity = String::new();
    for o in outcomes {
        items += o.injections;
        for cause in EnergyCause::ALL {
            let nj = o.cause_energy_nj[cause.index()];
            energy_nj += nj;
            if cause.is_waste() {
                waste_nj += nj;
            }
        }
        failed += o
            .violations
            .iter()
            .map(|v| v.boundary)
            .collect::<BTreeSet<u64>>()
            .len() as u64;
        identity.push_str(&format!("{o:?}\n"));
    }
    Rep {
        setup_parts: Vec::new(),
        item_parts: Vec::new(),
        items,
        failed,
        identity,
        tallies: vec![
            ("items", items),
            ("executed", executed),
            ("energy_nj", energy_nj),
            ("waste_nj", waste_nj),
            ("failed", failed),
        ],
    }
}

/// The sweep report body the CLI writes, minus its `timing` block.
fn report_inputs(out: &SweepOutcome, plan: &SweepPlan) -> SweepInputs {
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
        fault_spec: plan.fault.plan.map(|p| FaultSpecDoc {
            seed: p.seed,
            rate_permille: p.rate_permille as u64,
            max_retries: plan.fault.retry.max_retries as u64,
            backoff_base_us: plan.fault.retry.backoff_base_us,
        }),
        waste: Some(SweepWasteDoc::from_series(
            &out.boundary_waste_nj,
            CATEGORY_NAMES
                .iter()
                .zip(out.cause_energy_nj)
                .map(|(name, nj)| ((*name).to_string(), nj))
                .collect(),
        )),
        timing: None,
    }
}
