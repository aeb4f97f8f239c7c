//! End-to-end determinism of the parallel execution engine.
//!
//! The engine's contract is stated over *reports*, not in-memory structs:
//! the sweep report emitted at `--jobs N` must be byte-identical to the
//! serial one for every N, modulo the `timing` block (host wall-clock is
//! honest measurement and varies run to run). `identity_document` strips
//! timing; everything these tests compare goes through it, exactly like the
//! CI divergence gate.

use crashcheck::{SweepMode, SweepOutcome, SweepPlan};
use easeio_exec::{run_grid, run_sweep, GridSpec, SweepOptions};
use easeio_repro::apps::dma_app;
use easeio_repro::apps::harness::KernelKind;
use easeio_repro::easeio_trace::{
    build_sweep_report, identity_document, validate_any_report, ReportKind, SweepInputs,
    SweepTimingDoc, SweepViolation, SweepWasteDoc, CATEGORY_NAMES,
};
use easeio_repro::kernel::{App, FaultSpec};
use easeio_repro::mcu_emu::Mcu;

fn small_dma(m: &mut Mcu) -> App {
    dma_app::build(
        m,
        &dma_app::DmaAppCfg {
            bytes: 256,
            chunks: 3,
            iterations: 1,
            pre_compute: 200,
            post_compute: 200,
        },
    )
}

fn report_for(out: &SweepOutcome, plan: &SweepPlan, timing: &SweepTimingDoc) -> String {
    let inputs = SweepInputs {
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
        // The per-boundary energy-attribution fold is part of report
        // identity: waste means and cause totals must merge canonically.
        waste: Some(SweepWasteDoc::from_series(
            &out.boundary_waste_nj,
            CATEGORY_NAMES
                .iter()
                .zip(out.cause_energy_nj)
                .map(|(name, nj)| ((*name).to_string(), nj))
                .collect(),
        )),
        timing: Some(timing.clone()),
    };
    let doc = build_sweep_report(&inputs);
    assert_eq!(validate_any_report(&doc), Ok(ReportKind::Sweep));
    let text = identity_document(&doc).to_pretty();
    assert!(
        text.contains("\"waste\""),
        "sweep report must carry the waste fold"
    );
    text
}

/// Sweep options for an unpruned sweep at `jobs` workers.
fn unpruned(jobs: usize) -> SweepOptions {
    SweepOptions { jobs, prune: false }
}

/// The tentpole guarantee: `--jobs 1`, `--jobs 4`, and `--jobs 8` emit
/// byte-identical sweep reports once timing is stripped — on a kernel that
/// produces violations (Naive), where merge *order* is load-bearing.
#[test]
fn sweep_reports_are_byte_identical_across_jobs() {
    let plan = SweepPlan {
        strict_memory: true,
        ..SweepPlan::with_env_seed(5)
    };
    let (serial_out, serial_timing) = run_sweep(&small_dma, KernelKind::Naive, &plan, &unpruned(1));
    assert!(
        !serial_out.violations.is_empty(),
        "Naive must violate for the order check to bite"
    );
    let serial_doc = report_for(&serial_out, &plan, &serial_timing);
    for jobs in [4, 8] {
        let (out, timing) = run_sweep(&small_dma, KernelKind::Naive, &plan, &unpruned(jobs));
        let doc = report_for(&out, &plan, &timing);
        assert_eq!(
            doc, serial_doc,
            "sweep report diverged between --jobs 1 and --jobs {jobs}"
        );
    }
}

/// Same guarantee on a clean sweep (EaseIO), where the sensitive part is
/// the injection bookkeeping rather than violation order.
#[test]
fn clean_sweep_reports_are_byte_identical_across_jobs() {
    let plan = SweepPlan {
        mode: SweepMode::Sample(40),
        strict_memory: true,
        ..SweepPlan::with_env_seed(9)
    };
    let (serial_out, serial_timing) =
        run_sweep(&small_dma, KernelKind::EaseIo, &plan, &unpruned(1));
    assert!(serial_out.is_clean());
    let serial_doc = report_for(&serial_out, &plan, &serial_timing);
    let (out, timing) = run_sweep(&small_dma, KernelKind::EaseIo, &plan, &unpruned(8));
    assert_eq!(report_for(&out, &plan, &timing), serial_doc);
}

/// Same guarantee with a fault plan installed: boundary × fault-schedule
/// injection stays deterministic at any width, and the report's fault_spec
/// block is part of the compared identity.
#[test]
fn faulted_sweep_reports_are_byte_identical_across_jobs() {
    let plan = SweepPlan {
        mode: SweepMode::Sample(40),
        strict_memory: true,
        fault: FaultSpec::with_rate(11, 80),
        ..SweepPlan::with_env_seed(5)
    };
    let (serial_out, serial_timing) = run_sweep(&small_dma, KernelKind::Naive, &plan, &unpruned(1));
    let serial_doc = report_for(&serial_out, &plan, &serial_timing);
    assert!(
        serial_doc.contains("fault_spec"),
        "faulted sweep report must carry its fault spec"
    );
    let (out, timing) = run_sweep(&small_dma, KernelKind::Naive, &plan, &unpruned(8));
    assert_eq!(report_for(&out, &plan, &timing), serial_doc);
}

/// The experiment grid merges to the same table at any width.
#[test]
fn grid_cells_are_identical_across_jobs() {
    let spec = GridSpec {
        kernels: vec![KernelKind::Alpaca, KernelKind::EaseIo],
        distances_inch: vec![55, 61],
        on_times_ms: vec![12],
        runs: 2,
        seed: 77,
        fault: FaultSpec::none(),
    };
    let builder = |_: KernelKind, m: &mut Mcu| small_dma(m);
    let (serial, _) = run_grid(&builder, &spec, 1);
    for jobs in [4, 8] {
        let (parallel, _) = run_grid(&builder, &spec, jobs);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!((a.kernel, &a.supply), (b.kernel, &b.supply));
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.correct, b.correct);
            assert_eq!(a.mean_wall_us, b.mean_wall_us);
            assert_eq!(a.mean_on_us, b.mean_on_us);
            assert_eq!(a.mean_failures, b.mean_failures);
        }
    }
}
