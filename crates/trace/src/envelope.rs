//! The versioned report envelope shared by every report kind.
//!
//! Every report is one envelope — `{schema_version, kind, tool, report:
//! {…}}` — rendered and checked by the provided methods of
//! [`ReportBody`], with [`validate_any_report`] as the single validator
//! entry point, dispatching on `kind`. Schema v1's flat, pre-envelope
//! layouts are no longer read: a v1 document gets a typed rejection naming
//! the supported version.
//!
//! Reports may carry a `timing` block inside the body (host wall-clock,
//! worker utilization). Timing is honest measurement, not result: two runs
//! of the same sweep produce the same violations but never the same
//! nanoseconds. [`identity_document`] strips it, yielding the canonical
//! form that serial-vs-parallel comparisons (the determinism test, the CI
//! divergence gate) are defined over.

use crate::json::Value;
use crate::schema::{self, req, Field, Ty};

/// Version of the report document layout.
pub const SCHEMA_VERSION: u64 = 2;

/// The envelope table shared by every kind; the body under `report` is
/// walked against the kind's own table, with paths relative to the body.
const ENVELOPE: &[Field] = &[
    req("schema_version", Ty::U64),
    req("kind", Ty::Str),
    req("tool", Ty::Str),
    req("report", Ty::Obj(&[])),
];

/// A report payload that knows its kind, its producing tool, how to render
/// itself, and the key table a rendered body is checked against. The
/// provided methods wrap it in the versioned envelope and check one.
pub trait ReportBody {
    /// Envelope `kind` discriminator (`"run"`, `"sweep"`).
    const KIND: &'static str;
    /// Envelope `tool` string.
    const TOOL: &'static str;
    /// The body's key table, walked by [`schema::check`].
    const SCHEMA: &'static [Field];

    /// Renders the body object.
    fn body(&self) -> Value;

    /// Cross-key rules the table cannot state (ledger partitions, sums).
    /// Runs only on a body that passed the table walk, so it may read the
    /// keys it checks without re-checking their types.
    fn invariants(_body: &Value) -> Vec<String> {
        Vec::new()
    }

    /// Renders the full versioned document.
    fn to_document(&self) -> Value {
        Value::Obj(vec![
            ("schema_version".into(), Value::u64(SCHEMA_VERSION)),
            ("kind".into(), Value::str(Self::KIND)),
            ("tool".into(), Value::str(Self::TOOL)),
            ("report".into(), self.body()),
        ])
    }

    /// Validates a parsed v2 document of this kind, returning every
    /// violation found, not just the first.
    fn validate(v: &Value) -> Result<(), Vec<String>> {
        let mut errs = schema::check(v, ENVELOPE);
        if v.get("schema_version")
            .and_then(Value::as_u64)
            .is_some_and(|n| n != SCHEMA_VERSION)
        {
            errs.push(format!(
                "'schema_version' must be the integer {SCHEMA_VERSION}"
            ));
        }
        if let Some(k) = v.get("kind").and_then(Value::as_str) {
            if k != Self::KIND {
                errs.push(format!("'kind' is '{k}', expected '{}'", Self::KIND));
            }
        }
        if let Some(body) = v.get("report") {
            let body_errs = schema::check(body, Self::SCHEMA);
            errs.extend(if body_errs.is_empty() {
                Self::invariants(body)
            } else {
                body_errs
            });
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

/// What a document turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// A single-run report.
    Run,
    /// A crash-sweep report.
    Sweep,
    /// An energy-attribution metrics report.
    Metrics,
    /// A fleet-scale simulation report.
    Fleet,
    /// A violation-forensics bundle.
    Forensics,
}

impl ReportKind {
    /// The envelope `kind` string.
    pub fn label(self) -> &'static str {
        match self {
            ReportKind::Run => "run",
            ReportKind::Sweep => "sweep",
            ReportKind::Metrics => "metrics",
            ReportKind::Fleet => "fleet",
            ReportKind::Forensics => "forensics",
        }
    }
}

/// The single validator entry point: accepts envelopes of the current
/// schema version (dispatching on `kind`), returning what the document
/// was.
pub fn validate_any_report(v: &Value) -> Result<ReportKind, Vec<String>> {
    match v.get("schema_version").and_then(Value::as_u64) {
        Some(SCHEMA_VERSION) => {}
        Some(other) => {
            return Err(vec![format!(
                "unsupported schema_version {other} (this tool reads {SCHEMA_VERSION})"
            )])
        }
        None => return Err(vec!["missing key 'schema_version'".into()]),
    }
    type Validate = fn(&Value) -> Result<(), Vec<String>>;
    let (kind, validate): (ReportKind, Validate) = match v.get("kind").and_then(Value::as_str) {
        Some("sweep") => (ReportKind::Sweep, crate::sweep::SweepInputs::validate),
        Some("metrics") => (ReportKind::Metrics, crate::metrics::MetricsInputs::validate),
        Some("fleet") => (ReportKind::Fleet, crate::fleet::FleetInputs::validate),
        Some("forensics") => (
            ReportKind::Forensics,
            crate::forensics::ForensicsInputs::validate,
        ),
        Some("run") | None => (ReportKind::Run, crate::report::RunReportDoc::validate),
        Some(other) => return Err(vec![format!("unknown report kind '{other}'")]),
    };
    validate(v).map(|()| kind)
}

/// The canonical identity form of a report: the document with every
/// `timing` block removed. Two reports are *the same result* iff their
/// identity forms serialize identically — this is the comparison the
/// jobs-determinism guarantee is stated over.
pub fn identity_document(v: &Value) -> Value {
    match v {
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "timing")
                .map(|(k, val)| (k.clone(), identity_document(val)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.iter().map(identity_document).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn identity_strips_timing_recursively() {
        let doc = parse(
            r#"{"report": {"timing": {"wall_us": 5}, "injections": 3,
                 "nested": [{"timing": 1, "keep": 2}]}, "kind": "sweep"}"#,
        )
        .unwrap();
        let id = identity_document(&doc);
        let s = id.to_pretty();
        assert!(!s.contains("timing"));
        assert!(s.contains("injections"));
        assert!(s.contains("keep"));
    }

    #[test]
    fn unknown_versions_are_rejected_with_guidance() {
        // Schema 1 is the retired flat layout: rejected like any other
        // version, naming only the supported one.
        for version in [1, 9] {
            let doc = parse(&format!(r#"{{"schema_version": {version}}}"#)).unwrap();
            let errs = validate_any_report(&doc).unwrap_err();
            let expected = format!("unsupported schema_version {version} (this tool reads 2)");
            assert_eq!(errs, [expected]);
        }
    }
}
