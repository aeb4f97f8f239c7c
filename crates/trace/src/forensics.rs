//! Violation forensics bundles — `kind: "forensics"` documents.
//!
//! A fired probe used to yield a counter; reproducing it meant re-deriving
//! the sweep by hand. A forensics bundle is the self-contained artifact
//! the formal-foundation line of work asks for: it names the exact
//! boundary (and its energy-spend sequence number), the fault-plan
//! coordinates, the first divergent FRAM bytes against the
//! continuous-power oracle, and a ready-to-paste minimal-repro CLI
//! command that re-executes exactly that injection.
//!
//! The document lives under the same versioned [`ReportBody`]
//! envelope as every other kind and is validated by
//! [`validate_forensics_report`] / dispatched by
//! [`validate_any_report`](crate::validate_any_report).

use crate::envelope::ReportBody;
use crate::json::Value;
use crate::schema::{field, opt, req, uint, Field, Ty, FAULT_SPEC, U64_MAP};
use crate::sweep::FaultSpecDoc;

/// How many divergent FRAM bytes a bundle spells out; the total count is
/// always recorded.
pub const FRAM_DIFF_CAP: usize = 32;

/// The violation being documented.
#[derive(Debug, Clone, Default)]
pub struct ForensicsViolationDoc {
    /// Stable probe name (`"version_torn"`, `"air_duplicate"`, …).
    pub kind: String,
    /// Human-readable detail from the probe.
    pub detail: String,
    /// Injected boundary index, for crash-sweep violations.
    pub boundary: Option<u64>,
    /// The boundary's energy-spend sequence number in the continuous
    /// reference trace — the coordinate the formal semantics names.
    pub spend_seq: Option<u64>,
    /// Offending device, for fleet/rollout violations.
    pub device: Option<u64>,
    /// 1-based rollout wave the device was updated in.
    pub wave: Option<u64>,
}

/// One divergent FRAM byte against the continuous-power oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramDiffByte {
    /// FRAM offset.
    pub addr: u64,
    /// What the oracle holds there.
    pub oracle: u8,
    /// What the violating run holds there.
    pub observed: u8,
}

/// FRAM divergence summary: total count plus the first
/// [`FRAM_DIFF_CAP`] bytes.
#[derive(Debug, Clone, Default)]
pub struct FramDiffDoc {
    /// Total divergent bytes.
    pub divergent_bytes: u64,
    /// The first divergent bytes, ascending by address.
    pub first: Vec<FramDiffByte>,
}

/// The `kind: "forensics"` payload.
#[derive(Debug, Clone, Default)]
pub struct ForensicsInputs {
    /// Producing mode: `"sweep"`, `"fleet"`, or `"rollout"`.
    pub source: String,
    /// Kernel under test.
    pub runtime: String,
    /// App label.
    pub app: String,
    /// Scenario seed.
    pub seed: u64,
    /// The violation itself.
    pub violation: ForensicsViolationDoc,
    /// Fault plan in effect, if any.
    pub fault_spec: Option<FaultSpecDoc>,
    /// Sweep/fleet context: mode label, injections explored, update
    /// window, device count — whatever the producer knows.
    pub context: Vec<(String, u64)>,
    /// FRAM diff against the oracle (crash-sweep violations only).
    pub fram_diff: Option<FramDiffDoc>,
    /// Ready-to-paste minimal-repro command.
    pub repro_command: String,
}

impl ReportBody for ForensicsInputs {
    const KIND: &'static str = "forensics";
    const TOOL: &'static str = "easeio-sim";
    const SCHEMA: &'static [Field] = FORENSICS_SCHEMA;

    fn body(&self) -> Value {
        let v = &self.violation;
        let mut violation = vec![
            ("kind".into(), Value::str(v.kind.clone())),
            ("detail".into(), Value::str(v.detail.clone())),
        ];
        for (key, val) in [
            ("boundary", v.boundary),
            ("spend_seq", v.spend_seq),
            ("device", v.device),
            ("wave", v.wave),
        ] {
            if let Some(n) = val {
                violation.push((key.into(), Value::u64(n)));
            }
        }
        let mut fields = vec![
            ("source".into(), Value::str(self.source.clone())),
            ("runtime".into(), Value::str(self.runtime.clone())),
            ("app".into(), Value::str(self.app.clone())),
            ("seed".into(), Value::u64(self.seed)),
            ("violation".into(), Value::Obj(violation)),
        ];
        if let Some(f) = &self.fault_spec {
            fields.push(("fault_spec".into(), f.to_value()));
        }
        if !self.context.is_empty() {
            fields.push((
                "context".into(),
                Value::u64_map(self.context.iter().map(|(k, n)| (k, *n))),
            ));
        }
        if let Some(d) = &self.fram_diff {
            fields.push((
                "fram_diff".into(),
                Value::Obj(vec![
                    ("divergent_bytes".into(), Value::u64(d.divergent_bytes)),
                    (
                        "first".into(),
                        Value::Arr(
                            d.first
                                .iter()
                                .map(|b| {
                                    Value::Obj(vec![
                                        ("addr".into(), Value::u64(b.addr)),
                                        ("oracle".into(), Value::u64(b.oracle as u64)),
                                        ("observed".into(), Value::u64(b.observed as u64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        fields.push((
            "repro".into(),
            Value::Obj(vec![(
                "command".into(),
                Value::str(self.repro_command.clone()),
            )]),
        ));
        Value::Obj(fields)
    }

    fn invariants(body: &Value) -> Vec<String> {
        let mut errs = Vec::new();
        if let Some(d) = body.get("fram_diff") {
            let first = field(d, "first").as_arr().unwrap_or_default();
            if first.len() as u128 > uint(d, "divergent_bytes") {
                errs.push("'fram_diff.first' lists more bytes than 'divergent_bytes'".into());
            }
            for (i, b) in first.iter().enumerate() {
                if b.get("oracle") == b.get("observed") {
                    errs.push(format!(
                        "'fram_diff.first[{i}]' is not a divergence: oracle == observed"
                    ));
                }
            }
        }
        let cmd = field(field(body, "repro"), "command").as_str();
        if !cmd.unwrap_or_default().starts_with("easeio-sim ") {
            errs.push("'repro.command' must start with 'easeio-sim '".into());
        }
        errs
    }
}

/// The forensics-bundle body table.
const FORENSICS_SCHEMA: &[Field] = &[
    req("source", Ty::NonEmptyStr),
    req("runtime", Ty::NonEmptyStr),
    req("app", Ty::NonEmptyStr),
    req("seed", Ty::U64),
    req("violation", Ty::Obj(VIOLATION)),
    opt("fault_spec", FAULT_SPEC),
    opt("context", U64_MAP),
    opt("fram_diff", Ty::Obj(FRAM_DIFF)),
    req("repro", Ty::Obj(&[req("command", Ty::Str)])),
];

const VIOLATION: &[Field] = &[
    req("kind", Ty::NonEmptyStr),
    req("detail", Ty::Str),
    opt("boundary", Ty::U64),
    opt("spend_seq", Ty::U64),
    opt("device", Ty::U64),
    opt("wave", Ty::U64),
];

const FRAM_DIFF: &[Field] = &[
    req("divergent_bytes", Ty::U64),
    req("first", Ty::Arr(&Ty::Obj(FRAM_BYTE))),
];

const FRAM_BYTE: &[Field] = &[
    req("addr", Ty::U64),
    req("oracle", Ty::U64),
    req("observed", Ty::U64),
];

/// Renders the full versioned forensics document.
pub fn build_forensics_report(inputs: &ForensicsInputs) -> Value {
    inputs.to_document()
}

/// Validates a parsed forensics document.
pub fn validate_forensics_report(v: &Value) -> Result<(), Vec<String>> {
    ForensicsInputs::validate(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::validate_any_report;

    fn sample() -> ForensicsInputs {
        ForensicsInputs {
            source: "sweep".into(),
            runtime: "naive".into(),
            app: "ota-update".into(),
            seed: 7,
            violation: ForensicsViolationDoc {
                kind: "version_torn".into(),
                detail: "sealed header vouches for torn payload".into(),
                boundary: Some(12),
                spend_seq: Some(340),
                device: None,
                wave: None,
            },
            fault_spec: None,
            context: vec![("injections".into(), 34), ("update_window".into(), 1)],
            fram_diff: Some(FramDiffDoc {
                divergent_bytes: 40,
                first: vec![FramDiffByte {
                    addr: 0x180,
                    oracle: 0xAA,
                    observed: 0x00,
                }],
            }),
            repro_command: "easeio-sim sweep --app ota-update --kernel naive \
                            --seed 7 --boundary 12 --update-window --expect-violations"
                .into(),
        }
    }

    #[test]
    fn bundle_roundtrips_and_dispatches_as_forensics() {
        let doc = build_forensics_report(&sample());
        let parsed = parse(&doc.to_pretty()).unwrap();
        assert_eq!(
            validate_any_report(&parsed),
            Ok(crate::ReportKind::Forensics)
        );
        let body = parsed.get("report").unwrap();
        assert_eq!(
            body.get("violation")
                .and_then(|v| v.get("spend_seq"))
                .and_then(Value::as_u64),
            Some(340)
        );
        assert!(body
            .get("repro")
            .and_then(|r| r.get("command"))
            .and_then(Value::as_str)
            .unwrap()
            .contains("--boundary 12"));

        // Every optional block filled: builder and table agree both ways.
        let mut full = sample();
        full.violation.device = Some(3);
        full.violation.wave = Some(1);
        full.fault_spec = Some(FaultSpecDoc {
            seed: 1,
            rate_permille: 10,
            max_retries: 2,
            backoff_base_us: 40,
        });
        crate::schema::tests::assert_matches_table::<ForensicsInputs>(&build_forensics_report(
            &full,
        ));
    }

    #[test]
    fn validator_rejects_broken_bundles() {
        let mut inputs = sample();
        inputs.repro_command = "rm -rf /".into();
        let doc = build_forensics_report(&inputs);
        let errs = validate_forensics_report(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("repro.command")), "{errs:?}");

        let mut inputs = sample();
        inputs.fram_diff.as_mut().unwrap().first[0].observed = 0xAA;
        let doc = build_forensics_report(&inputs);
        let errs = validate_forensics_report(&doc).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("not a divergence")),
            "{errs:?}"
        );

        let mut inputs = sample();
        inputs.violation.kind.clear();
        let doc = build_forensics_report(&inputs);
        assert!(validate_forensics_report(&doc).is_err());
    }
}
