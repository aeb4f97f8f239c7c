//! Versioned machine-readable run report.
//!
//! `easeio-sim --report out.json` emits this document: run identity
//! (runtime, app, supply, seed), the paper's five metrics (§5.2 — wasted
//! work, energy, correctness, runtime overhead, memory overhead), the
//! per-call-site profile and per-task latency table, inside the shared
//! versioned envelope of [`crate::envelope`]. Downstream tooling pins
//! `schema_version`; [`validate_report`] is the schema check CI runs
//! against a fresh report.

use crate::envelope::ReportBody;
use crate::json::Value;
use crate::profile::Profile;
use crate::schema::{opt, req, Field, Ty, U64_MAP};
use crate::stats::RunStats;

pub use crate::envelope::SCHEMA_VERSION;

/// Ledger-level inputs the simulator supplies alongside the event profile.
#[derive(Debug, Clone)]
pub struct ReportInputs {
    /// Runtime display name (`"EaseIO"`, `"Alpaca"`, …).
    pub runtime: String,
    /// Application name.
    pub app: String,
    /// Supply description (free-form object, e.g. kind + timer bounds).
    pub supply: Value,
    /// Failure-schedule / environment seed.
    pub seed: u64,
    /// `"completed"`, `"non_termination"`, or `"fault"`.
    pub outcome: String,
    /// Application correctness verdict, if the app defines a check.
    pub correct: Option<bool>,
    /// Wall-clock time including off periods (µs).
    pub wall_us: u64,
    /// Powered time (µs).
    pub on_us: u64,
    /// The run's ledger: time and energy by kind, power failures, task
    /// attempts and commits, and the I/O and DMA executed / skipped /
    /// re-executed counts.
    pub stats: RunStats,
    /// Golden (continuous-power) app time (µs), for wasted-work.
    pub golden_app_time_us: u64,
    /// Golden app energy (nJ).
    pub golden_app_energy_nj: u64,
    /// Memory overhead `(text, ram, fram)` bytes, if measured.
    pub memory: Option<(u32, u32, u32)>,
    /// Events recorded / dropped by the ring.
    pub events_recorded: u64,
    /// Events lost to ring overflow.
    pub events_dropped: u64,
}

/// `part / whole` as a percentage rounded to one decimal (0 when `whole`
/// is 0).
pub(crate) fn pct(part: u64, whole: u64) -> Value {
    if whole == 0 {
        Value::Num(0.0)
    } else {
        Value::Num((part as f64 / whole as f64 * 1000.0).round() / 10.0)
    }
}

/// A complete run-report payload: ledger inputs plus the event profile.
/// Its [`ReportBody`] implementation (or [`build_report`]) renders the
/// versioned document.
#[derive(Debug, Clone, Copy)]
pub struct RunReportDoc<'a> {
    /// Ledger-level inputs.
    pub inputs: &'a ReportInputs,
    /// The per-site / per-task profile derived from the event stream.
    pub profile: &'a Profile,
}

impl ReportBody for RunReportDoc<'_> {
    const KIND: &'static str = "run";
    const TOOL: &'static str = "easeio-sim";
    const SCHEMA: &'static [Field] = RUN_SCHEMA;

    fn body(&self) -> Value {
        run_body(self.inputs, self.profile)
    }
}

/// Builds the versioned report document (v2 envelope).
pub fn build_report(inp: &ReportInputs, profile: &Profile) -> Value {
    RunReportDoc {
        inputs: inp,
        profile,
    }
    .to_document()
}

/// The report body: everything under the envelope's `report` key.
fn run_body(inp: &ReportInputs, profile: &Profile) -> Value {
    let s = &inp.stats;
    let wasted_us = s.wasted_time_us(inp.golden_app_time_us);
    let wasted_nj = s.wasted_energy_nj(inp.golden_app_energy_nj);
    let metrics = Value::Obj(vec![
        ("wall_us".into(), Value::u64(inp.wall_us)),
        ("on_us".into(), Value::u64(inp.on_us)),
        ("app_time_us".into(), Value::u64(s.app_time_us)),
        ("overhead_time_us".into(), Value::u64(s.overhead_time_us)),
        ("app_energy_nj".into(), Value::u64(s.app_energy_nj)),
        (
            "overhead_energy_nj".into(),
            Value::u64(s.overhead_energy_nj),
        ),
        ("total_energy_nj".into(), Value::u64(s.total_energy_nj())),
        (
            "golden_app_time_us".into(),
            Value::u64(inp.golden_app_time_us),
        ),
        (
            "golden_app_energy_nj".into(),
            Value::u64(inp.golden_app_energy_nj),
        ),
        ("wasted_time_us".into(), Value::u64(wasted_us)),
        ("wasted_energy_nj".into(), Value::u64(wasted_nj)),
        ("wasted_work_pct".into(), pct(wasted_us, s.app_time_us)),
        (
            "runtime_overhead_pct".into(),
            pct(s.overhead_time_us, s.total_time_us()),
        ),
        ("power_failures".into(), Value::u64(s.power_failures)),
        ("task_attempts".into(), Value::u64(s.task_attempts)),
        ("task_commits".into(), Value::u64(s.task_commits)),
        ("io_executed".into(), Value::u64(s.io_executed)),
        ("io_skipped".into(), Value::u64(s.io_skipped)),
        ("io_reexecutions".into(), Value::u64(s.io_reexecutions)),
        ("dma_executed".into(), Value::u64(s.dma_executed)),
        ("dma_skipped".into(), Value::u64(s.dma_skipped)),
        ("dma_reexecutions".into(), Value::u64(s.dma_reexecutions)),
        (
            "memory".into(),
            match inp.memory {
                Some((text, ram, fram)) => Value::Obj(vec![
                    ("text".into(), Value::u64(text as u64)),
                    ("ram".into(), Value::u64(ram as u64)),
                    ("fram".into(), Value::u64(fram as u64)),
                ]),
                None => Value::Null,
            },
        ),
    ]);

    let sites = profile
        .sites
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("task".into(), Value::u64(s.task as u64)),
                ("site".into(), Value::u64(s.site as u64)),
                ("kind".into(), Value::str(s.kind.label())),
                ("name".into(), Value::str(s.name.clone())),
                ("executions".into(), Value::u64(s.executions)),
                ("redundant".into(), Value::u64(s.redundant)),
                ("skips".into(), Value::u64(s.skips)),
                ("failed".into(), Value::u64(s.failed)),
                ("time_us".into(), Value::u64(s.time_us)),
                ("energy_nj".into(), Value::u64(s.energy_nj)),
                ("wasted_time_us".into(), Value::u64(s.wasted_time_us)),
                ("wasted_energy_nj".into(), Value::u64(s.wasted_energy_nj)),
                (
                    "wasted_share".into(),
                    Value::Num((s.wasted_share() * 1000.0).round() / 1000.0),
                ),
            ])
        })
        .collect();

    let tasks = profile
        .tasks
        .iter()
        .map(|t| {
            Value::Obj(vec![
                ("task".into(), Value::u64(t.task as u64)),
                ("name".into(), Value::str(t.name.clone())),
                ("attempts".into(), Value::u64(t.attempts)),
                ("reexec_attempts".into(), Value::u64(t.reexec_attempts)),
                ("commits".into(), Value::u64(t.commits)),
                ("failures".into(), Value::u64(t.failures)),
                ("giveups".into(), Value::u64(t.giveups)),
                (
                    "latency_us".into(),
                    Value::Obj(vec![
                        ("p50".into(), Value::u64(t.latency.p50_us)),
                        ("p95".into(), Value::u64(t.latency.p95_us)),
                        ("max".into(), Value::u64(t.latency.max_us)),
                    ]),
                ),
            ])
        })
        .collect();

    let mut fields = vec![
        ("runtime".into(), Value::str(inp.runtime.clone())),
        ("app".into(), Value::str(inp.app.clone())),
        ("supply".into(), inp.supply.clone()),
        ("seed".into(), Value::u64(inp.seed)),
        ("outcome".into(), Value::str(inp.outcome.clone())),
        (
            "correct".into(),
            match inp.correct {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            },
        ),
        ("metrics".into(), metrics),
        ("sites".into(), Value::Arr(sites)),
        ("tasks".into(), Value::Arr(tasks)),
        (
            "instants".into(),
            Value::u64_map(profile.instants.iter().map(|(k, v)| (k, *v))),
        ),
        (
            "trace".into(),
            Value::Obj(vec![
                ("events_recorded".into(), Value::u64(inp.events_recorded)),
                ("events_dropped".into(), Value::u64(inp.events_dropped)),
                ("power_off_us".into(), Value::u64(profile.power_off_us)),
                ("unbalanced_spans".into(), Value::u64(profile.unbalanced)),
            ]),
        ),
    ];
    // Peripheral-fault telemetry: optional block, present only when the run
    // actually saw injected faults, retries, or degradations — older v2
    // readers and fault-free runs are unaffected.
    if !profile.faults_by_kind.is_empty()
        || !profile.degraded_by_mode.is_empty()
        || !profile.retries_by_site.is_empty()
    {
        let retries = profile
            .retries_by_site
            .iter()
            .map(|(&(task, site), &n)| {
                Value::Obj(vec![
                    ("task".into(), Value::u64(task as u64)),
                    ("site".into(), Value::u64(site as u64)),
                    ("retries".into(), Value::u64(n)),
                ])
            })
            .collect();
        fields.push((
            "faults".into(),
            Value::Obj(vec![
                (
                    "by_kind".into(),
                    Value::u64_map(profile.faults_by_kind.iter().map(|(k, v)| (k, *v))),
                ),
                (
                    "degraded".into(),
                    Value::u64_map(profile.degraded_by_mode.iter().map(|(k, v)| (k, *v))),
                ),
                ("retries_by_site".into(), Value::Arr(retries)),
            ]),
        ));
    }
    Value::Obj(fields)
}

/// The run-report body table.
const RUN_SCHEMA: &[Field] = &[
    req("runtime", Ty::Str),
    req("app", Ty::Str),
    // Free-form: kind plus whatever bounds the supply has.
    req("supply", Ty::Map(&Ty::Any)),
    req("seed", Ty::U64),
    req("outcome", Ty::OneOf(OUTCOMES)),
    req("correct", Ty::BoolOrNull),
    req("metrics", Ty::Obj(METRICS)),
    req("sites", Ty::Arr(&Ty::Obj(SITE))),
    req("tasks", Ty::Arr(&Ty::Obj(TASK))),
    opt("instants", U64_MAP),
    req("trace", Ty::Obj(TRACE)),
    // Absent for fault-free runs and older v2 documents.
    opt("faults", Ty::Obj(FAULTS)),
];

const OUTCOMES: &[&str] = &["completed", "non_termination", "fault"];

const METRICS: &[Field] = &[
    req("wall_us", Ty::Num),
    req("on_us", Ty::Num),
    req("app_time_us", Ty::Num),
    req("overhead_time_us", Ty::Num),
    req("app_energy_nj", Ty::Num),
    req("overhead_energy_nj", Ty::Num),
    req("total_energy_nj", Ty::Num),
    opt("golden_app_time_us", Ty::Num),
    opt("golden_app_energy_nj", Ty::Num),
    req("wasted_time_us", Ty::Num),
    req("wasted_energy_nj", Ty::Num),
    req("wasted_work_pct", Ty::Num),
    req("runtime_overhead_pct", Ty::Num),
    req("power_failures", Ty::Num),
    req("task_attempts", Ty::Num),
    req("task_commits", Ty::Num),
    req("io_executed", Ty::Num),
    req("io_skipped", Ty::Num),
    req("io_reexecutions", Ty::Num),
    req("dma_executed", Ty::Num),
    req("dma_skipped", Ty::Num),
    req("dma_reexecutions", Ty::Num),
    // `{text, ram, fram}` bytes, or null when not measured.
    opt("memory", Ty::Any),
];

const SITE: &[Field] = &[
    req("task", Ty::U64),
    req("site", Ty::U64),
    req("kind", Ty::Str),
    req("name", Ty::Str),
    req("executions", Ty::U64),
    req("redundant", Ty::U64),
    req("skips", Ty::U64),
    req("failed", Ty::U64),
    req("time_us", Ty::U64),
    req("energy_nj", Ty::U64),
    req("wasted_time_us", Ty::U64),
    req("wasted_energy_nj", Ty::U64),
    req("wasted_share", Ty::Num),
];

const TASK: &[Field] = &[
    req("task", Ty::U64),
    req("name", Ty::Str),
    req("attempts", Ty::U64),
    req("reexec_attempts", Ty::U64),
    req("commits", Ty::U64),
    req("failures", Ty::U64),
    req("giveups", Ty::U64),
    req("latency_us", Ty::Obj(LATENCY)),
];

const LATENCY: &[Field] = &[
    req("p50", Ty::U64),
    req("p95", Ty::U64),
    req("max", Ty::U64),
];

const TRACE: &[Field] = &[
    req("events_recorded", Ty::U64),
    req("events_dropped", Ty::U64),
    opt("power_off_us", Ty::U64),
    req("unbalanced_spans", Ty::U64),
];

const FAULTS: &[Field] = &[
    req("by_kind", U64_MAP),
    req("degraded", U64_MAP),
    req("retries_by_site", Ty::Arr(&Ty::Obj(RETRIES))),
];

const RETRIES: &[Field] = &[
    req("task", Ty::U64),
    req("site", Ty::U64),
    req("retries", Ty::U64),
];

/// Checks a parsed v2 report document (envelope + body). Returns every
/// violation found, not just the first.
pub fn validate_report(v: &Value) -> Result<(), Vec<String>> {
    RunReportDoc::validate(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_inputs() -> ReportInputs {
        ReportInputs {
            runtime: "EaseIO".into(),
            app: "weather".into(),
            supply: Value::Obj(vec![("kind".into(), Value::str("timer"))]),
            seed: 7,
            outcome: "completed".into(),
            correct: Some(true),
            wall_us: 1000,
            on_us: 800,
            stats: RunStats {
                app_time_us: 600,
                overhead_time_us: 200,
                app_energy_nj: 6000,
                overhead_energy_nj: 2000,
                power_failures: 3,
                task_attempts: 9,
                task_commits: 6,
                io_executed: 4,
                io_skipped: 2,
                io_reexecutions: 1,
                dma_executed: 1,
                dma_skipped: 1,
                ..RunStats::default()
            },
            golden_app_time_us: 450,
            golden_app_energy_nj: 4500,
            memory: Some((1480, 128, 512)),
            events_recorded: 42,
            events_dropped: 0,
        }
    }

    #[test]
    fn built_report_validates_and_roundtrips() {
        let report = build_report(&sample_inputs(), &Profile::default());
        validate_report(&report).expect("fresh report must satisfy its own schema");
        let reparsed = json::parse(&report.to_pretty()).unwrap();
        validate_report(&reparsed).unwrap();
        assert_eq!(
            reparsed.get("schema_version").and_then(Value::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(reparsed.get("kind").and_then(Value::as_str), Some("run"));
        let body = reparsed.get("report").unwrap();
        assert_eq!(
            body.get("metrics")
                .unwrap()
                .get("wasted_time_us")
                .unwrap()
                .as_u64(),
            Some(150)
        );
        assert_eq!(
            body.get("metrics")
                .unwrap()
                .get("wasted_work_pct")
                .unwrap()
                .as_f64(),
            Some(25.0)
        );

        // Every optional block filled: builder and table agree both ways.
        use crate::event::{Event, EventKind::*, InstantKind, SpanKind::*, Status};
        let span = |ts: u64, kind| Event {
            ts_us: ts,
            energy_nj: ts * 10,
            task: 0,
            site: 0,
            name: "sense",
            kind,
        };
        let mut p = crate::profile::build_profile(&[
            Event::instant(0, 0, InstantKind::Boot, "boot"),
            span(1, SpanBegin(TaskAttempt)),
            span(2, SpanBegin(IoCall)),
            span(3, SpanEnd(IoCall, Status::Executed)),
            span(4, SpanEnd(TaskAttempt, Status::Committed)),
        ]);
        assert!(!p.sites.is_empty() && !p.tasks.is_empty() && !p.instants.is_empty());
        p.faults_by_kind.insert("radio_nack", 3);
        p.degraded_by_mode.insert("fallback", 1);
        p.retries_by_site.insert((4, 2), 3);
        let full = build_report(&sample_inputs(), &p);
        crate::schema::tests::assert_matches_table::<RunReportDoc>(&full);
    }

    #[test]
    fn fault_block_is_emitted_only_when_faults_occurred() {
        let clean = build_report(&sample_inputs(), &Profile::default());
        assert!(clean.get("report").unwrap().get("faults").is_none());
        validate_report(&clean).unwrap();

        let mut p = Profile::default();
        p.faults_by_kind.insert("radio_nack", 3);
        p.degraded_by_mode.insert("fallback", 1);
        p.retries_by_site.insert((4, 2), 3);
        let doc = build_report(&sample_inputs(), &p);
        validate_report(&doc).expect("fault block must satisfy the schema");
        let f = doc.get("report").unwrap().get("faults").unwrap();
        assert_eq!(
            f.get("by_kind")
                .and_then(|b| b.get("radio_nack"))
                .and_then(Value::as_u64),
            Some(3)
        );
        let rows = f.get("retries_by_site").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("retries").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn malformed_fault_block_is_rejected() {
        let mut doc = build_report(&sample_inputs(), &Profile::default());
        if let Value::Obj(top) = &mut doc {
            for (k, body) in top.iter_mut() {
                if k != "report" {
                    continue;
                }
                if let Value::Obj(fields) = body {
                    fields.push(("faults".into(), Value::str("bogus")));
                }
            }
        }
        let errs = validate_report(&doc).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("faults.by_kind")),
            "{errs:?}"
        );
    }

    #[test]
    fn validator_reports_every_violation() {
        let doc = json::parse(r#"{"schema_version": 2, "kind": "run", "report": {"runtime": 5}}"#)
            .unwrap();
        let errs = validate_report(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("'tool' must be")));
        assert!(errs.iter().any(|e| e.contains("'runtime' must be")));
        assert!(errs.iter().any(|e| e.contains("missing key 'metrics'")));
        assert!(errs.len() > 5, "all violations collected: {errs:?}");
    }
}
