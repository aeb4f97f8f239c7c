//! The versioned report envelope shared by every report kind.
//!
//! Every report is one envelope — `{schema_version, kind, tool, report:
//! {…}}` — produced by the generic [`Report`] wrapper over a
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

/// Version of the report document layout.
pub const SCHEMA_VERSION: u64 = 2;

/// A report payload that knows its kind, its producing tool, how to render
/// itself, and how to check a rendered body.
pub trait ReportBody {
    /// Envelope `kind` discriminator (`"run"`, `"sweep"`).
    const KIND: &'static str;
    /// Envelope `tool` string.
    const TOOL: &'static str;
    /// Renders the body object.
    fn body(&self) -> Value;
    /// Returns every schema violation in a rendered body (empty = valid).
    fn validate_body(body: &Value) -> Vec<String>;
}

/// The generic envelope: wraps any [`ReportBody`] into the versioned
/// document layout.
#[derive(Debug, Clone)]
pub struct Report<T> {
    /// The payload.
    pub body: T,
}

impl<T: ReportBody> Report<T> {
    /// Wraps a body.
    pub fn new(body: T) -> Self {
        Self { body }
    }

    /// Renders the full versioned document.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema_version".into(), Value::u64(SCHEMA_VERSION)),
            ("kind".into(), Value::str(T::KIND)),
            ("tool".into(), Value::str(T::TOOL)),
            ("report".into(), self.body.body()),
        ])
    }

    /// Validates a parsed v2 document of this kind.
    pub fn validate(v: &Value) -> Result<(), Vec<String>> {
        let mut errs = validate_envelope(v, Some(T::KIND));
        match v.get("report") {
            None => errs.push("missing key 'report'".into()),
            Some(body) => errs.extend(T::validate_body(body)),
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

/// Envelope-level checks shared by every v2 kind.
fn validate_envelope(v: &Value, expect_kind: Option<&str>) -> Vec<String> {
    let mut errs = Vec::new();
    match v.get("schema_version").and_then(Value::as_u64) {
        Some(SCHEMA_VERSION) => {}
        _ => errs.push(format!(
            "'schema_version' must be the integer {SCHEMA_VERSION}"
        )),
    }
    match v.get("kind").and_then(Value::as_str) {
        Some(k) if expect_kind.is_none_or(|e| e == k) => {}
        Some(k) => errs.push(format!(
            "'kind' is '{k}', expected '{}'",
            expect_kind.unwrap_or("?")
        )),
        None => errs.push("missing key 'kind'".into()),
    }
    if v.get("tool").and_then(Value::as_str).is_none() {
        errs.push("'tool' must be a string".into());
    }
    errs
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
        Some(SCHEMA_VERSION) => {
            let (kind, result) = match v.get("kind").and_then(Value::as_str) {
                Some("sweep") => (
                    ReportKind::Sweep,
                    Report::<crate::sweep::SweepInputs>::validate(v),
                ),
                Some("metrics") => (
                    ReportKind::Metrics,
                    Report::<crate::metrics::MetricsInputs>::validate(v),
                ),
                Some("fleet") => (
                    ReportKind::Fleet,
                    Report::<crate::fleet::FleetInputs>::validate(v),
                ),
                Some("forensics") => (
                    ReportKind::Forensics,
                    Report::<crate::forensics::ForensicsInputs>::validate(v),
                ),
                Some("run") | None => (
                    ReportKind::Run,
                    Report::<crate::report::RunReportDoc>::validate(v),
                ),
                Some(other) => {
                    return Err(vec![format!("unknown report kind '{other}'")]);
                }
            };
            result.map(|()| kind)
        }
        Some(other) => Err(vec![format!(
            "unsupported schema_version {other} (this tool reads {SCHEMA_VERSION})"
        )]),
        None => Err(vec!["missing key 'schema_version'".into()]),
    }
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
