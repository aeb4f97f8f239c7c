//! Declarative report schemas: one key table per report kind, one walker.
//!
//! Every report kind declares its body as a table of [`Field`] rows — key,
//! required or optional, and a [`Ty`] — and [`check`] walks a document
//! against it. Cross-key rules (ledger partitions, category sums, …) stay
//! code in each kind's `invariants`, which run only once the walk passed.
//!
//! Messages follow one rule: a missing required key reports
//! `missing key 'P' ('P' must be T)`; a value of the wrong type reports
//! `'P' must be T`, after which the value's required children are reported
//! as missing. `P` is the dotted path from the table's root (`a.b[3].c`).

use crate::json::Value;
use std::fmt;

/// The type a key's value must have.
#[derive(Debug, Clone, Copy)]
pub enum Ty {
    /// Any string.
    Str,
    /// A string of at least one character.
    NonEmptyStr,
    /// A non-negative integral number.
    U64,
    /// Any number.
    Num,
    /// `true` or `false`.
    Bool,
    /// A bool or `null`.
    BoolOrNull,
    /// One of the listed strings.
    OneOf(&'static [&'static str]),
    /// An object carrying the listed keys; undeclared keys are ignored.
    Obj(&'static [Field]),
    /// An array whose every element has the given type.
    Arr(&'static Ty),
    /// An object with free keys whose every value has the given type.
    Map(&'static Ty),
    /// Anything at all.
    Any,
}

/// One key of an object table.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The key.
    pub key: &'static str,
    /// Whether a document without the key is rejected.
    pub required: bool,
    /// The type its value must have.
    pub ty: Ty,
}

/// A required row.
pub const fn req(key: &'static str, ty: Ty) -> Field {
    Field {
        key,
        required: true,
        ty,
    }
}

/// An optional row: checked when present.
pub const fn opt(key: &'static str, ty: Ty) -> Field {
    Field {
        key,
        required: false,
        ty,
    }
}

/// A map of unsigned-integer counts (per-category energy, per-kind tallies).
pub const U64_MAP: Ty = Ty::Map(&Ty::U64);

/// The fault-injection configuration block shared by sweep, fleet and
/// forensics documents.
pub const FAULT_SPEC: Ty = Ty::Obj(&[
    req("seed", Ty::U64),
    req("rate_permille", Ty::U64),
    req("max_retries", Ty::U64),
    req("backoff_base_us", Ty::U64),
]);

impl Ty {
    fn describe(self) -> String {
        match self {
            Ty::Str => "a string".into(),
            Ty::NonEmptyStr => "a non-empty string".into(),
            Ty::U64 => "an unsigned integer".into(),
            Ty::Num => "a number".into(),
            Ty::Bool => "a bool".into(),
            Ty::BoolOrNull => "a bool or null".into(),
            Ty::OneOf(names) => format!("one of '{}'", names.join("', '")),
            Ty::Obj(_) | Ty::Map(_) => "an object".into(),
            Ty::Arr(_) => "an array".into(),
            Ty::Any => "any value".into(),
        }
    }

    /// The shallow type test: containers are checked for their own shape
    /// only; their contents are walked separately.
    fn admits(self, v: &Value) -> bool {
        match self {
            Ty::Str => v.as_str().is_some(),
            Ty::NonEmptyStr => v.as_str().is_some_and(|s| !s.is_empty()),
            Ty::U64 => v.as_u64().is_some(),
            Ty::Num => v.as_f64().is_some(),
            Ty::Bool => v.as_bool().is_some(),
            Ty::BoolOrNull => matches!(v, Value::Bool(_) | Value::Null),
            Ty::OneOf(names) => v.as_str().is_some_and(|s| names.contains(&s)),
            Ty::Obj(_) | Ty::Map(_) => v.as_obj().is_some(),
            Ty::Arr(_) => v.as_arr().is_some(),
            Ty::Any => true,
        }
    }
}

/// Every violation of `fields` in the object `v` (empty = valid). A
/// non-object `v` reports each required key as missing.
pub fn check(v: &Value, fields: &[Field]) -> Vec<String> {
    let mut errs = Vec::new();
    walk_fields(v, fields, At::Root, &mut errs);
    errs
}

/// Where a value sits, as a chain back to the table's root; rendered only
/// when a message needs it, so a valid document formats nothing.
#[derive(Clone, Copy)]
enum At<'a> {
    Root,
    Key(&'a At<'a>, &'a str),
    Index(&'a At<'a>, usize),
}

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match *self {
            At::Root => Ok(()),
            At::Key(At::Root, key) => f.write_str(key),
            At::Key(parent, key) => write!(f, "{parent}.{key}"),
            At::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

fn walk_fields(v: &Value, fields: &[Field], at: At, errs: &mut Vec<String>) {
    for f in fields {
        let path = At::Key(&at, f.key);
        match v.get(f.key) {
            Some(x) => walk(x, f.ty, path, errs),
            None if f.required => errs.push(format!(
                "missing key '{path}' ('{path}' must be {})",
                f.ty.describe()
            )),
            None => {}
        }
    }
}

fn walk(v: &Value, ty: Ty, at: At, errs: &mut Vec<String>) {
    if !ty.admits(v) {
        errs.push(format!("'{at}' must be {}", ty.describe()));
    }
    match ty {
        Ty::Obj(fields) => walk_fields(v, fields, at, errs),
        Ty::Arr(elem) => {
            for (i, x) in v.as_arr().unwrap_or_default().iter().enumerate() {
                walk(x, *elem, At::Index(&at, i), errs);
            }
        }
        Ty::Map(value) => {
            for (k, x) in v.as_obj().unwrap_or_default() {
                walk(x, *value, At::Key(&at, k), errs);
            }
        }
        _ => {}
    }
}

/// `v[key]`, or `null` when absent — for invariants reading keys the walk
/// already typed.
pub fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    const NULL: &Value = &Value::Null;
    v.get(key).unwrap_or(NULL)
}

/// The unsigned integer at `v[key]` (0 when absent), widened so that
/// invariant sums over untrusted counts cannot overflow.
pub fn uint(v: &Value, key: &str) -> u128 {
    v.get(key).and_then(Value::as_u64).map_or(0, u128::from)
}

/// The sum of an object's unsigned-integer values, widened like [`uint`].
pub fn uint_sum(v: &Value) -> u128 {
    let values = v.as_obj().unwrap_or_default().iter();
    values.filter_map(|(_, n)| n.as_u64()).map(u128::from).sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::envelope::ReportBody;
    use crate::json::parse;

    /// Keys in `v` that `ty` does not declare, as paths.
    fn undeclared(v: &Value, ty: Ty, path: &str, out: &mut Vec<String>) {
        match ty {
            Ty::Obj(fields) => {
                for (k, x) in v.as_obj().unwrap_or_default() {
                    let at = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    match fields.iter().find(|f| f.key == k) {
                        Some(f) => undeclared(x, f.ty, &at, out),
                        None => out.push(at),
                    }
                }
            }
            Ty::Arr(elem) => {
                for (i, x) in v.as_arr().unwrap_or_default().iter().enumerate() {
                    undeclared(x, *elem, &format!("{path}[{i}]"), out);
                }
            }
            Ty::Map(value) => {
                for (k, x) in v.as_obj().unwrap_or_default() {
                    undeclared(x, *value, &format!("{path}.{k}"), out);
                }
            }
            _ => {}
        }
    }

    /// Holds a built document to its kind's table in both directions: every
    /// key the builder emitted is declared, and every required key of the
    /// table was emitted (with the right type).
    pub(crate) fn assert_matches_table<T: ReportBody>(doc: &Value) {
        let body = doc.get("report").expect("an enveloped document");
        let mut extra = Vec::new();
        undeclared(body, Ty::Obj(T::SCHEMA), "", &mut extra);
        assert_eq!(
            extra,
            Vec::<String>::new(),
            "keys the table does not declare"
        );
        assert_eq!(check(body, T::SCHEMA), Vec::<String>::new());
    }

    const ROW: &[Field] = &[
        req("name", Ty::NonEmptyStr),
        opt("mode", Ty::OneOf(&["a", "b"])),
        req("inner", Ty::Obj(&[req("n", Ty::U64), opt("m", Ty::Num)])),
        opt("list", Ty::Arr(&Ty::Obj(&[req("x", Ty::Bool)]))),
        opt("counts", U64_MAP),
    ];

    #[test]
    fn walker_reports_paths_by_the_message_rule() {
        let v = parse(
            r#"{"name": "", "mode": "c", "inner": 5,
                "list": [{"x": true}, {"y": 1}], "counts": {"k": -1}}"#,
        )
        .unwrap();
        assert_eq!(
            check(&v, ROW),
            [
                "'name' must be a non-empty string",
                "'mode' must be one of 'a', 'b'",
                "'inner' must be an object",
                "missing key 'inner.n' ('inner.n' must be an unsigned integer)",
                "missing key 'list[1].x' ('list[1].x' must be a bool)",
                "'counts.k' must be an unsigned integer",
            ]
        );
        let ok = parse(r#"{"name": "n", "inner": {"n": 1, "m": 0.5}, "extra": null}"#).unwrap();
        assert!(check(&ok, ROW).is_empty());
    }
}
