//! Versioned machine-readable crash-sweep report.
//!
//! `easeio-sim sweep --report out.json` emits this document: sweep identity
//! (runtime, app, seed, outage length, sampling mode), the reference run's
//! boundary count, one entry per injection that violated an invariant, and —
//! when the parallel engine ran the sweep — an optional `timing` block with
//! wall-clock and per-worker utilization. Any violation is reproducible from
//! the document alone: re-run the same app/runtime/seed with a failure
//! injected at the recorded boundary.
//!
//! The body rides inside the shared [`ReportBody`]
//! envelope (`{schema_version, kind: "sweep", tool, report: {…}}`).

use crate::agg::{percentile, tally};
use crate::envelope::ReportBody;
use crate::json::Value;
use crate::schema::{self, opt, req, Field, Ty, FAULT_SPEC, U64_MAP};

/// Every boundary-selection mode name a sweep report may carry, in
/// `crashcheck::SweepMode` order (a cross-crate test holds the two equal).
pub const SWEEP_MODES: [&str; 3] = ["exhaustive", "sample", "boundary"];

/// One injection run that broke a crash-consistency invariant.
#[derive(Debug, Clone)]
pub struct SweepViolation {
    /// Energy-spend boundary index the failure was injected at.
    pub boundary: u64,
    /// Violation class (e.g. `"single_redundant"`, `"wrong_verdict"`).
    pub kind: String,
    /// Human-readable divergence description.
    pub detail: String,
}

/// Host-side timing of a sweep run. Measurement, not result: stripped by
/// [`identity_document`](crate::envelope::identity_document) before
/// serial-vs-parallel comparison.
#[derive(Debug, Clone)]
pub struct SweepTimingDoc {
    /// Worker count the sweep ran with.
    pub jobs: u64,
    /// Host time for everything after the oracle (µs): classification,
    /// the workers' summed busy time on the injections, and the merge. Not
    /// wall time: time-slicing inflates the busy part when workers share
    /// CPUs.
    pub wall_us: u64,
    /// Throughput in milli-injections per second (fixed point ×1000).
    /// `None` — and omitted from the document — when the sweep finished too
    /// fast for `wall_us` to measure: a literal 0 would misread as "no
    /// throughput".
    pub injections_per_sec_milli: Option<u64>,
    /// Oracle preparation µs (outside `wall_us`).
    pub oracle_us: u64,
    /// Reference run + boundary-classification µs, checkpoint capture
    /// included (0 when neither pruning nor the update window runs one).
    pub classify_us: u64,
    /// Injection-phase worker busy µs.
    pub inject_us: u64,
    /// Materialize + check + merge µs.
    pub merge_us: u64,
    /// Injections executed by each worker.
    pub injections_per_worker: Vec<u64>,
    /// Busy time of each worker (µs).
    pub busy_us_per_worker: Vec<u64>,
    /// Injection-point pruning statistics. Lives inside `timing` on
    /// purpose: pruning changes how the sweep was *computed*, never what it
    /// found, so identity stripping must drop it along with the clocks.
    pub prune: SweepPruneDoc,
    /// Spend boundaries simulated across the executed injections.
    pub boundaries_simulated: u64,
    /// Executed injections that stopped where they rejoined the reference
    /// run.
    pub rejoined: u64,
}

/// What injection-point equivalence pruning did to one sweep.
#[derive(Debug, Clone)]
pub struct SweepPruneDoc {
    /// Whether pruning was enabled.
    pub enabled: bool,
    /// Injected runs actually executed (class representatives).
    pub injections_executed: u64,
    /// Injected runs materialized from a representative instead of run.
    pub injections_pruned: u64,
    /// Equivalence classes over the chosen boundaries.
    pub classes: u64,
    /// The reference run observed wall-clock time, so nothing merged.
    pub time_observed: bool,
}

/// Fault-injection configuration of a sweep. Result identity, not
/// measurement: two sweeps with different fault specs are different
/// experiments, so — unlike [`SweepTimingDoc`] — this block is *kept* by
/// [`identity_document`](crate::envelope::identity_document).
#[derive(Debug, Clone)]
pub struct FaultSpecDoc {
    /// Fault-plan seed.
    pub seed: u64,
    /// Per-attempt fault probability in permille.
    pub rate_permille: u64,
    /// Bounded re-attempts after the first faulted attempt.
    pub max_retries: u64,
    /// Base backoff before the first retry (µs, doubles per retry).
    pub backoff_base_us: u64,
}

impl FaultSpecDoc {
    /// The `fault_spec` object every report kind carries.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("seed".into(), Value::u64(self.seed)),
            ("rate_permille".into(), Value::u64(self.rate_permille)),
            ("max_retries".into(), Value::u64(self.max_retries)),
            ("backoff_base_us".into(), Value::u64(self.backoff_base_us)),
        ])
    }
}

/// Per-boundary energy-waste distribution of a sweep: every injection run
/// attributes its energy by cause, and this block folds those ledgers
/// across the sweep's boundaries. Result identity (kept by
/// [`identity_document`](crate::envelope::identity_document)): the waste a
/// runtime pays at each failure point is exactly what the sweep measures.
#[derive(Debug, Clone)]
pub struct SweepWasteDoc {
    /// Injection runs the distribution covers.
    pub boundaries: u64,
    /// Mean wasted energy per boundary (nJ, integer division).
    pub mean_waste_nj: u64,
    /// Median wasted energy per boundary (nJ).
    pub p50_waste_nj: u64,
    /// 95th-percentile wasted energy per boundary (nJ).
    pub p95_waste_nj: u64,
    /// Worst boundary's wasted energy (nJ).
    pub max_waste_nj: u64,
    /// Per-cause energy totals summed across every boundary run, in
    /// category order (`(category_name, nJ)`).
    pub cause_energy_nj: Vec<(String, u64)>,
}

impl SweepWasteDoc {
    /// Folds a per-boundary waste series (one entry per injection, in
    /// boundary order) and summed per-cause totals into the document block.
    pub fn from_series(waste_nj: &[u64], cause_energy_nj: Vec<(String, u64)>) -> Self {
        let mut sorted = waste_nj.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let sum: u64 = sorted.iter().sum();
        Self {
            boundaries: n,
            mean_waste_nj: sum.checked_div(n).unwrap_or(0),
            p50_waste_nj: percentile(&sorted, 50),
            p95_waste_nj: percentile(&sorted, 95),
            max_waste_nj: sorted.last().copied().unwrap_or(0),
            cause_energy_nj,
        }
    }
}

/// Inputs to the sweep report document.
#[derive(Debug, Clone)]
pub struct SweepInputs {
    /// Runtime display name.
    pub runtime: String,
    /// Application name.
    pub app: String,
    /// Environment seed shared by every run of the sweep.
    pub seed: u64,
    /// Outage length injected at each boundary (µs).
    pub off_us: u64,
    /// One of [`SWEEP_MODES`].
    pub mode: String,
    /// Energy-spend boundaries counted in the continuous-power oracle run.
    pub oracle_boundaries: u64,
    /// Whether final app FRAM was compared byte-for-byte with the oracle.
    pub strict_memory: bool,
    /// Number of injection runs performed.
    pub injections: u64,
    /// Invariant violations, in boundary order.
    pub violations: Vec<SweepViolation>,
    /// Fault-injection configuration (present when a fault plan was
    /// installed for the sweep's injected runs).
    pub fault_spec: Option<FaultSpecDoc>,
    /// Per-boundary energy-waste distribution (present when the sweep
    /// collected attribution ledgers).
    pub waste: Option<SweepWasteDoc>,
    /// Host timing (present when run through the parallel engine).
    pub timing: Option<SweepTimingDoc>,
}

impl ReportBody for SweepInputs {
    const KIND: &'static str = "sweep";
    const TOOL: &'static str = "easeio-sim sweep";

    const SCHEMA: &'static [Field] = SWEEP_SCHEMA;

    fn body(&self) -> Value {
        sweep_body(self)
    }

    fn invariants(body: &Value) -> Vec<String> {
        let rows = schema::field(body, "violations")
            .as_arr()
            .unwrap_or_default();
        if schema::uint(body, "violation_count") != rows.len() as u128 {
            return vec!["'violation_count' disagrees with 'violations' length".into()];
        }
        Vec::new()
    }
}

/// Renders the body object.
fn sweep_body(inp: &SweepInputs) -> Value {
    let violations = inp
        .violations
        .iter()
        .map(|v| {
            Value::Obj(vec![
                ("boundary".into(), Value::u64(v.boundary)),
                ("kind".into(), Value::str(v.kind.clone())),
                ("detail".into(), Value::str(v.detail.clone())),
            ])
        })
        .collect();
    let mut fields = vec![
        ("runtime".into(), Value::str(inp.runtime.clone())),
        ("app".into(), Value::str(inp.app.clone())),
        ("seed".into(), Value::u64(inp.seed)),
        ("off_us".into(), Value::u64(inp.off_us)),
        ("mode".into(), Value::str(inp.mode.clone())),
        (
            "oracle_boundaries".into(),
            Value::u64(inp.oracle_boundaries),
        ),
        ("strict_memory".into(), Value::Bool(inp.strict_memory)),
        ("injections".into(), Value::u64(inp.injections)),
        (
            "violation_count".into(),
            Value::u64(inp.violations.len() as u64),
        ),
        ("violations".into(), Value::Arr(violations)),
    ];
    // Per-probe counts, derived from the violation list so they can never
    // disagree with it.
    let by_kind = tally(inp.violations.iter().map(|v| v.kind.as_str()));
    fields.push(("violations_by_kind".into(), Value::u64_map(by_kind)));
    if let Some(f) = &inp.fault_spec {
        fields.push(("fault_spec".into(), f.to_value()));
    }
    if let Some(w) = &inp.waste {
        fields.push((
            "waste".into(),
            Value::Obj(vec![
                ("boundaries".into(), Value::u64(w.boundaries)),
                ("mean_waste_nj".into(), Value::u64(w.mean_waste_nj)),
                ("p50_waste_nj".into(), Value::u64(w.p50_waste_nj)),
                ("p95_waste_nj".into(), Value::u64(w.p95_waste_nj)),
                ("max_waste_nj".into(), Value::u64(w.max_waste_nj)),
                (
                    "cause_energy_nj".into(),
                    Value::u64_map(w.cause_energy_nj.iter().map(|(k, n)| (k, *n))),
                ),
            ]),
        ));
    }
    if let Some(t) = &inp.timing {
        let mut timing = vec![
            ("jobs".into(), Value::u64(t.jobs)),
            ("wall_us".into(), Value::u64(t.wall_us)),
        ];
        if let Some(rate) = t.injections_per_sec_milli {
            timing.push(("injections_per_sec_milli".into(), Value::u64(rate)));
        }
        timing.extend([
            ("oracle_us".into(), Value::u64(t.oracle_us)),
            ("classify_us".into(), Value::u64(t.classify_us)),
            ("inject_us".into(), Value::u64(t.inject_us)),
            ("merge_us".into(), Value::u64(t.merge_us)),
            (
                "injections_per_worker".into(),
                Value::u64_arr(&t.injections_per_worker),
            ),
            (
                "busy_us_per_worker".into(),
                Value::u64_arr(&t.busy_us_per_worker),
            ),
            (
                "boundaries_simulated".into(),
                Value::u64(t.boundaries_simulated),
            ),
            ("rejoined".into(), Value::u64(t.rejoined)),
        ]);
        let p = &t.prune;
        timing.push((
            "prune".into(),
            Value::Obj(vec![
                ("enabled".into(), Value::Bool(p.enabled)),
                (
                    "injections_executed".into(),
                    Value::u64(p.injections_executed),
                ),
                ("injections_pruned".into(), Value::u64(p.injections_pruned)),
                ("classes".into(), Value::u64(p.classes)),
                ("time_observed".into(), Value::Bool(p.time_observed)),
            ]),
        ));
        fields.push(("timing".into(), Value::Obj(timing)));
    }
    Value::Obj(fields)
}

/// Builds the sweep report document (v2 envelope).
pub fn build_sweep_report(inp: &SweepInputs) -> Value {
    inp.to_document()
}

/// Checks a parsed v2 sweep report. Returns every violation found, not just
/// the first.
pub fn validate_sweep_report(v: &Value) -> Result<(), Vec<String>> {
    SweepInputs::validate(v)
}

/// The sweep-report body table.
const SWEEP_SCHEMA: &[Field] = &[
    req("runtime", Ty::Str),
    req("app", Ty::Str),
    req("seed", Ty::U64),
    req("off_us", Ty::U64),
    req("mode", Ty::OneOf(&SWEEP_MODES)),
    req("oracle_boundaries", Ty::U64),
    req("strict_memory", Ty::Bool),
    req("injections", Ty::U64),
    req("violation_count", Ty::U64),
    req("violations", Ty::Arr(&Ty::Obj(VIOLATION))),
    // The optional blocks are absent from pre-fault v2 documents.
    opt("violations_by_kind", U64_MAP),
    opt("fault_spec", FAULT_SPEC),
    opt("waste", Ty::Obj(WASTE)),
    opt("timing", Ty::Obj(TIMING)),
];

const VIOLATION: &[Field] = &[
    req("boundary", Ty::U64),
    req("kind", Ty::Str),
    req("detail", Ty::Str),
];

const WASTE: &[Field] = &[
    req("boundaries", Ty::U64),
    req("mean_waste_nj", Ty::U64),
    req("p50_waste_nj", Ty::U64),
    req("p95_waste_nj", Ty::U64),
    req("max_waste_nj", Ty::U64),
    req("cause_energy_nj", U64_MAP),
];

const TIMING: &[Field] = &[
    req("jobs", Ty::U64),
    req("wall_us", Ty::U64),
    // Absent on sweeps too fast to time; the stage clocks are absent from
    // pre-pruning documents.
    opt("injections_per_sec_milli", Ty::U64),
    opt("oracle_us", Ty::U64),
    opt("classify_us", Ty::U64),
    opt("inject_us", Ty::U64),
    opt("merge_us", Ty::U64),
    req("injections_per_worker", Ty::Arr(&Ty::U64)),
    req("busy_us_per_worker", Ty::Arr(&Ty::U64)),
    opt("prune", Ty::Obj(PRUNE)),
    // Absent from documents written before checkpointed injections.
    opt("boundaries_simulated", Ty::U64),
    opt("rejoined", Ty::U64),
];

const PRUNE: &[Field] = &[
    req("enabled", Ty::Bool),
    req("injections_executed", Ty::U64),
    req("injections_pruned", Ty::U64),
    req("classes", Ty::U64),
    req("time_observed", Ty::Bool),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::identity_document;
    use crate::json::parse;

    fn inputs() -> SweepInputs {
        SweepInputs {
            runtime: "Alpaca".into(),
            app: "branch".into(),
            seed: 7,
            off_us: 100_000,
            mode: "exhaustive".into(),
            oracle_boundaries: 42,
            strict_memory: false,
            injections: 42,
            violations: vec![SweepViolation {
                boundary: 17,
                kind: "single_redundant".into(),
                detail: "probe_single_redundant = 1".into(),
            }],
            fault_spec: None,
            waste: None,
            timing: None,
        }
    }

    /// [`inputs`] with every optional block present.
    fn full_inputs() -> SweepInputs {
        SweepInputs {
            fault_spec: Some(FaultSpecDoc {
                seed: 9,
                rate_permille: 50,
                max_retries: 4,
                backoff_base_us: 40,
            }),
            waste: Some(SweepWasteDoc::from_series(
                &[40, 10],
                vec![("progress".into(), 900)],
            )),
            timing: Some(SweepTimingDoc {
                jobs: 2,
                wall_us: 10,
                injections_per_sec_milli: Some(7),
                oracle_us: 1,
                classify_us: 1,
                inject_us: 1,
                merge_us: 1,
                injections_per_worker: vec![21, 21],
                busy_us_per_worker: vec![5, 5],
                prune: SweepPruneDoc {
                    enabled: true,
                    injections_executed: 12,
                    injections_pruned: 30,
                    classes: 12,
                    time_observed: false,
                },
                boundaries_simulated: 900,
                rejoined: 10,
            }),
            ..inputs()
        }
    }

    #[test]
    fn waste_block_renders_and_validates() {
        let mut inp = inputs();
        inp.waste = Some(SweepWasteDoc::from_series(
            &[40, 10, 20, 1000],
            vec![("progress".into(), 900), ("retry".into(), 170)],
        ));
        let doc = build_sweep_report(&inp);
        let parsed = parse(&doc.to_pretty()).unwrap();
        validate_sweep_report(&parsed).unwrap();
        let w = parsed.get("report").unwrap().get("waste").unwrap();
        assert_eq!(w.get("boundaries").and_then(Value::as_u64), Some(4));
        assert_eq!(w.get("mean_waste_nj").and_then(Value::as_u64), Some(267));
        assert_eq!(w.get("p50_waste_nj").and_then(Value::as_u64), Some(20));
        assert_eq!(w.get("p95_waste_nj").and_then(Value::as_u64), Some(40));
        assert_eq!(w.get("max_waste_nj").and_then(Value::as_u64), Some(1000));
        assert_eq!(
            w.get("cause_energy_nj")
                .and_then(|c| c.get("retry"))
                .and_then(Value::as_u64),
            Some(170)
        );
    }

    #[test]
    fn built_report_round_trips_and_validates() {
        let doc = build_sweep_report(&inputs());
        let parsed = parse(&doc.to_pretty()).unwrap();
        validate_sweep_report(&parsed).unwrap();
        assert_eq!(parsed.get("kind").and_then(Value::as_str), Some("sweep"));
        let body = parsed.get("report").unwrap();
        assert_eq!(body.get("violation_count").and_then(Value::as_u64), Some(1));
        let rows = body.get("violations").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("boundary").and_then(Value::as_u64), Some(17));
        assert_eq!(
            rows[0].get("kind").and_then(Value::as_str),
            Some("single_redundant")
        );

        // Every optional block filled: builder and table agree both ways.
        let full = build_sweep_report(&full_inputs());
        crate::schema::tests::assert_matches_table::<SweepInputs>(&full);
    }

    #[test]
    fn validation_catches_missing_and_inconsistent_fields() {
        let mut doc = build_sweep_report(&inputs());
        // Corrupt the count so it disagrees with the array.
        if let Value::Obj(top) = &mut doc {
            for (k, body) in top.iter_mut() {
                if k != "report" {
                    continue;
                }
                if let Value::Obj(fields) = body {
                    for (k, v) in fields.iter_mut() {
                        if k == "violation_count" {
                            *v = Value::u64(9);
                        }
                    }
                }
            }
        }
        let errs = validate_sweep_report(&doc).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("violation_count")),
            "{errs:?}"
        );

        let errs = validate_sweep_report(&Value::Obj(vec![])).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("schema_version")));
        assert!(errs.iter().any(|e| e.contains("'report'")));
    }

    #[test]
    fn fault_spec_is_emitted_validated_and_kept_by_identity() {
        let mut inp = inputs();
        inp.violations.push(SweepViolation {
            boundary: 23,
            kind: "retry_duplicated_effect".into(),
            detail: "probe = 1".into(),
        });
        inp.fault_spec = Some(FaultSpecDoc {
            seed: 9,
            rate_permille: 50,
            max_retries: 4,
            backoff_base_us: 40,
        });
        let doc = build_sweep_report(&inp);
        validate_sweep_report(&doc).unwrap();
        let body = doc.get("report").unwrap();
        assert_eq!(
            body.get("fault_spec")
                .and_then(|f| f.get("rate_permille"))
                .and_then(Value::as_u64),
            Some(50)
        );
        let by_kind = body.get("violations_by_kind").unwrap();
        assert_eq!(
            by_kind
                .get("retry_duplicated_effect")
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            by_kind.get("single_redundant").and_then(Value::as_u64),
            Some(1)
        );
        // The fault spec is experiment identity: identity_document keeps it
        // (unlike timing), so differently-faulted sweeps never compare equal.
        assert!(identity_document(&doc)
            .get("report")
            .unwrap()
            .get("fault_spec")
            .is_some());
    }

    #[test]
    fn v2_report_without_the_fault_block_keeps_validating() {
        // Frozen pre-fault v2 document (the exact shape earlier releases
        // wrote): no 'violations_by_kind', no 'fault_spec'. This must stay
        // accepted forever.
        let frozen = r#"{
            "schema_version": 2,
            "kind": "sweep",
            "tool": "easeio-sim sweep",
            "report": {
                "runtime": "Alpaca",
                "app": "branch",
                "seed": 7,
                "off_us": 100000,
                "mode": "exhaustive",
                "oracle_boundaries": 42,
                "strict_memory": false,
                "injections": 42,
                "violation_count": 0,
                "violations": []
            }
        }"#;
        let doc = parse(frozen).unwrap();
        validate_sweep_report(&doc).expect("pre-fault v2 sweep reports must keep validating");
        crate::envelope::validate_any_report(&doc)
            .expect("validate_any_report must accept the frozen document");
    }

    #[test]
    fn timing_is_emitted_validated_and_stripped_by_identity() {
        let mut inp = inputs();
        inp.timing = Some(SweepTimingDoc {
            jobs: 4,
            wall_us: 123_456,
            injections_per_sec_milli: Some(340_211),
            oracle_us: 2_000,
            classify_us: 1_500,
            inject_us: 118_000,
            merge_us: 3_956,
            injections_per_worker: vec![11, 11, 10, 10],
            busy_us_per_worker: vec![30_000, 31_000, 29_000, 30_500],
            prune: SweepPruneDoc {
                enabled: true,
                injections_executed: 12,
                injections_pruned: 30,
                classes: 12,
                time_observed: false,
            },
            boundaries_simulated: 3_400,
            rejoined: 9,
        });
        let doc = build_sweep_report(&inp);
        validate_sweep_report(&doc).unwrap();
        let body = doc.get("report").unwrap();
        assert_eq!(
            body.get("timing")
                .and_then(|t| t.get("jobs"))
                .and_then(Value::as_u64),
            Some(4)
        );
        assert_eq!(
            body.get("timing")
                .and_then(|t| t.get("prune"))
                .and_then(|p| p.get("injections_pruned"))
                .and_then(Value::as_u64),
            Some(30)
        );
        // Identity form equals the untimed document.
        let untimed = build_sweep_report(&inputs());
        assert_eq!(
            identity_document(&doc).to_pretty(),
            identity_document(&untimed).to_pretty()
        );
        assert_eq!(identity_document(&untimed).to_pretty(), untimed.to_pretty());
    }

    /// A sweep too fast for `wall_us` to measure carries no throughput
    /// field at all — never a misleading 0 — and the document still
    /// validates.
    #[test]
    fn unmeasurable_throughput_is_omitted_not_zero() {
        let mut inp = inputs();
        inp.timing = Some(SweepTimingDoc {
            jobs: 1,
            wall_us: 0,
            injections_per_sec_milli: None,
            oracle_us: 0,
            classify_us: 0,
            inject_us: 0,
            merge_us: 0,
            injections_per_worker: vec![42],
            busy_us_per_worker: vec![0],
            prune: SweepPruneDoc {
                enabled: false,
                injections_executed: 42,
                injections_pruned: 0,
                classes: 0,
                time_observed: false,
            },
            boundaries_simulated: 4_200,
            rejoined: 0,
        });
        let doc = build_sweep_report(&inp);
        validate_sweep_report(&doc).unwrap();
        let timing = doc.get("report").unwrap().get("timing").unwrap();
        assert!(timing.get("injections_per_sec_milli").is_none());
    }
}
