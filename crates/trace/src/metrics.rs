//! Energy-attribution metrics report: where every microjoule went.
//!
//! The MCU substrate attributes each unit of spent energy to one cause
//! category (forward progress, re-executed compute, redundant I/O, commit
//! overhead, retry backoff, DMA privatization, runtime misc, OTA update
//! staging). This module
//! is the report layer over that ledger: a versioned `kind: "metrics"`
//! document under the shared [`ReportBody`] envelope,
//! one entry per runtime × app, each carrying the full per-category
//! time/energy breakdown, per-task rows, and per-site redundant-energy
//! rows.
//!
//! Each entry carries the run's [`RunStats`] itself, and the category
//! vocabulary is [`EnergyCause`]'s own name table, [`CATEGORY_NAMES`]: the
//! ledger and its report share one definition (the `stats` module). The
//! validator enforces the attribution invariant *structurally*: a document
//! whose categories do not sum to its totals is rejected as malformed, not
//! merely suspicious.
//!
//! [`compare_metrics`] diffs two such documents and reports regressions
//! beyond a percentage gate; it backs `easeio-sim compare`, the CI gate
//! against the committed `BENCH_baseline.json`.

use crate::envelope::ReportBody;
use crate::json::Value;
use crate::report::pct;
use crate::schema::{field, opt, req, uint, uint_sum, Field, Ty, U64_MAP};
use crate::stats::{EnergyCause, RunStats, CATEGORY_NAMES, DMA_SITE_BASE, WASTE_CATEGORY_NAMES};

/// One runtime × app measurement: the full attribution ledger of a run.
#[derive(Debug, Clone)]
pub struct MetricsEntry {
    /// Kernel runtime name (`"easeio"`, `"alpaca"`, `"ink"`, `"naive"`).
    pub runtime: String,
    /// Application name.
    pub app: String,
    /// Run outcome label (`"completed"`, `"non_termination"`, `"fault"`).
    pub outcome: String,
    /// Whether the run's observable output matched the golden run.
    pub correct: bool,
    /// The run's ledger: reboots, totals, the per-cause breakdown, the
    /// per-task rows (together they cover every nanojoule) and the
    /// per-site redundant energy.
    pub stats: RunStats,
}

/// An app the metrics harness could not measure, with the reason stated
/// explicitly — skipped apps appear in the document rather than silently
/// vanishing from `entries`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedApp {
    /// Application name.
    pub app: String,
    /// Why it was not measured.
    pub reason: String,
}

/// Inputs to the metrics report document.
#[derive(Debug, Clone)]
pub struct MetricsInputs {
    /// Environment seed the runs were measured under.
    pub seed: u64,
    /// One entry per runtime × app, in measurement order.
    pub entries: Vec<MetricsEntry>,
    /// Apps excluded from measurement, with reasons (rendered only when
    /// non-empty, so documents without skips are unchanged).
    pub skipped: Vec<SkippedApp>,
}

impl ReportBody for MetricsInputs {
    const KIND: &'static str = "metrics";
    const TOOL: &'static str = "easeio-sim metrics";
    const SCHEMA: &'static [Field] = METRICS_SCHEMA;

    fn body(&self) -> Value {
        let entries: Vec<Value> = self.entries.iter().map(render_entry).collect();
        let mut fields = vec![
            ("seed".into(), Value::u64(self.seed)),
            (
                "categories".into(),
                Value::Arr(CATEGORY_NAMES.iter().map(|n| Value::str(*n)).collect()),
            ),
            (
                "waste_categories".into(),
                Value::Arr(
                    WASTE_CATEGORY_NAMES
                        .iter()
                        .map(|n| Value::str(*n))
                        .collect(),
                ),
            ),
            ("entries".into(), Value::Arr(entries)),
        ];
        if !self.skipped.is_empty() {
            let rows = self
                .skipped
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("app".into(), Value::str(&s.app)),
                        ("reason".into(), Value::str(&s.reason)),
                    ])
                })
                .collect();
            fields.push(("skipped".into(), Value::Arr(rows)));
        }
        Value::Obj(fields)
    }

    fn invariants(body: &Value) -> Vec<String> {
        metrics_invariants(body)
    }
}

fn render_entry(e: &MetricsEntry) -> Value {
    let s = &e.stats;
    let total_energy_nj = s.total_energy_nj();
    let breakdown: Vec<(String, Value)> = EnergyCause::ALL
        .iter()
        .map(|c| {
            let (time_us, energy_nj) = (s.cause_time_us[c.index()], s.cause_energy(*c));
            (
                c.name().to_string(),
                Value::Obj(vec![
                    ("time_us".into(), Value::u64(time_us)),
                    ("energy_nj".into(), Value::u64(energy_nj)),
                    ("energy_pct".into(), pct(energy_nj, total_energy_nj)),
                ]),
            )
        })
        .collect();
    let waste = s.waste_energy_nj();
    let tasks: Vec<Value> = s
        .cause_energy_by_task
        .iter()
        .map(|(task, energy_nj)| {
            Value::Obj(vec![
                ("task".into(), Value::u64(task as u64)),
                (
                    "energy_nj".into(),
                    Value::u64_map(CATEGORY_NAMES.iter().zip(*energy_nj)),
                ),
                (
                    "waste_nj".into(),
                    Value::u64(EnergyCause::waste_of(energy_nj)),
                ),
            ])
        })
        .collect();
    let sites: Vec<Value> = s
        .redundant_energy_by_site
        .iter()
        .map(|(key, nj)| {
            Value::Obj(vec![
                ("site".into(), Value::u64(u64::from(key & !DMA_SITE_BASE))),
                ("dma".into(), Value::Bool(key & DMA_SITE_BASE != 0)),
                ("energy_nj".into(), Value::u64(*nj)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("runtime".into(), Value::str(&e.runtime)),
        ("app".into(), Value::str(&e.app)),
        ("outcome".into(), Value::str(&e.outcome)),
        ("correct".into(), Value::Bool(e.correct)),
        ("reboots".into(), Value::u64(s.power_failures)),
        ("total_time_us".into(), Value::u64(s.total_time_us())),
        ("total_energy_nj".into(), Value::u64(total_energy_nj)),
        ("breakdown".into(), Value::Obj(breakdown)),
        ("waste_nj".into(), Value::u64(waste)),
        ("waste_pct".into(), pct(waste, total_energy_nj)),
        ("tasks".into(), Value::Arr(tasks)),
        ("redundant_sites".into(), Value::Arr(sites)),
    ])
}

/// Builds the full versioned metrics report document.
pub fn build_metrics_report(inp: &MetricsInputs) -> Value {
    inp.to_document()
}

/// Validates a parsed metrics report document (envelope and body).
pub fn validate_metrics_report(v: &Value) -> Result<(), Vec<String>> {
    MetricsInputs::validate(v)
}

/// The metrics-report body table.
const METRICS_SCHEMA: &[Field] = &[
    req("seed", Ty::U64),
    req("categories", Ty::Arr(&Ty::Str)),
    opt("waste_categories", Ty::Arr(&Ty::Str)),
    req("entries", Ty::Arr(&Ty::Obj(ENTRY))),
    // Optional, but an unexplained skip is exactly the silent omission the
    // section exists to prevent.
    opt("skipped", Ty::Arr(&Ty::Obj(SKIPPED))),
];

const ENTRY: &[Field] = &[
    req("runtime", Ty::Str),
    req("app", Ty::Str),
    req("outcome", Ty::Str),
    req("correct", Ty::Bool),
    req("reboots", Ty::U64),
    req("total_time_us", Ty::U64),
    req("total_energy_nj", Ty::U64),
    req("breakdown", Ty::Map(&Ty::Obj(CELL))),
    req("waste_nj", Ty::U64),
    opt("waste_pct", Ty::Num),
    req("tasks", Ty::Arr(&Ty::Obj(TASK))),
    req("redundant_sites", Ty::Arr(&Ty::Obj(SITE))),
];

/// One category of an entry's breakdown.
const CELL: &[Field] = &[
    req("time_us", Ty::U64),
    req("energy_nj", Ty::U64),
    opt("energy_pct", Ty::Num),
];

const TASK: &[Field] = &[
    req("task", Ty::U64),
    req("energy_nj", U64_MAP),
    opt("waste_nj", Ty::U64),
];

const SITE: &[Field] = &[
    req("site", Ty::U64),
    req("dma", Ty::Bool),
    req("energy_nj", Ty::U64),
];

const SKIPPED: &[Field] = &[req("app", Ty::NonEmptyStr), req("reason", Ty::NonEmptyStr)];

/// The attribution invariant: every entry's category breakdown sums
/// exactly to its totals (energy and time), its waste total equals the sum
/// of the waste categories, and its per-task rows together cover the full
/// energy total.
fn metrics_invariants(v: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    let categories = field(v, "categories").as_arr().unwrap_or_default();
    let names: Vec<&str> = categories.iter().filter_map(Value::as_str).collect();
    if names != CATEGORY_NAMES {
        errs.push(format!(
            "'categories' must be exactly {CATEGORY_NAMES:?}, got {names:?}"
        ));
    }
    let entries = field(v, "entries").as_arr().unwrap_or_default();
    for (idx, entry) in entries.iter().enumerate() {
        entry_invariants(entry, idx, &mut errs);
    }
    errs
}

fn entry_invariants(entry: &Value, idx: usize, errs: &mut Vec<String>) {
    let at = |key: &str| format!("entries[{idx}].{key}");
    let total_energy = uint(entry, "total_energy_nj");
    let total_time = uint(entry, "total_time_us");

    let breakdown = field(entry, "breakdown").as_obj().unwrap_or_default();
    if !breakdown.iter().map(|(k, _)| k.as_str()).eq(CATEGORY_NAMES) {
        errs.push(format!(
            "'{}' keys must be exactly {CATEGORY_NAMES:?}",
            at("breakdown")
        ));
    }
    let (mut energy_sum, mut time_sum, mut waste_sum) = (0u128, 0u128, 0u128);
    for (name, cell) in breakdown {
        let e = uint(cell, "energy_nj");
        energy_sum += e;
        time_sum += uint(cell, "time_us");
        if WASTE_CATEGORY_NAMES.contains(&name.as_str()) {
            waste_sum += e;
        }
    }
    if energy_sum != total_energy {
        errs.push(format!(
            "'{}': categories sum to {energy_sum} nJ but total_energy_nj \
             is {total_energy} (attribution invariant violated)",
            at("breakdown")
        ));
    }
    if time_sum != total_time {
        errs.push(format!(
            "'{}': categories sum to {time_sum} µs but total_time_us \
             is {total_time} (attribution invariant violated)",
            at("breakdown")
        ));
    }
    if uint(entry, "waste_nj") != waste_sum {
        errs.push(format!(
            "'{}' must equal the waste-category sum {waste_sum}",
            at("waste_nj")
        ));
    }

    let tasks = field(entry, "tasks").as_arr().unwrap_or_default();
    let task_total: u128 = tasks.iter().map(|t| uint_sum(field(t, "energy_nj"))).sum();
    if task_total != total_energy {
        errs.push(format!(
            "'{}': per-task rows sum to {task_total} nJ but total_energy_nj \
             is {total_energy} (task ledger must cover every nanojoule)",
            at("tasks")
        ));
    }
}

/// Renders the breakdown as nested flamegraph JSON — `{name, value,
/// children}` with runtime → app → category levels, `value` in nJ — the
/// format d3-flamegraph and speedscope both import.
pub fn flamegraph(inp: &MetricsInputs) -> Value {
    let mut runtime_names: Vec<&str> = Vec::new();
    for e in &inp.entries {
        if !runtime_names.contains(&e.runtime.as_str()) {
            runtime_names.push(&e.runtime);
        }
    }
    let mut total = 0u64;
    let runtimes: Vec<Value> = runtime_names
        .iter()
        .map(|rt| {
            let mut rt_total = 0u64;
            let apps: Vec<Value> = inp
                .entries
                .iter()
                .filter(|e| e.runtime == *rt)
                .map(|e| {
                    let total = e.stats.total_energy_nj();
                    rt_total += total;
                    let cats: Vec<Value> = EnergyCause::ALL
                        .iter()
                        .filter(|c| e.stats.cause_energy(**c) > 0)
                        .map(|c| {
                            Value::Obj(vec![
                                ("name".into(), Value::str(c.name())),
                                ("value".into(), Value::u64(e.stats.cause_energy(*c))),
                            ])
                        })
                        .collect();
                    Value::Obj(vec![
                        ("name".into(), Value::str(&e.app)),
                        ("value".into(), Value::u64(total)),
                        ("children".into(), Value::Arr(cats)),
                    ])
                })
                .collect();
            total += rt_total;
            Value::Obj(vec![
                ("name".into(), Value::str(*rt)),
                ("value".into(), Value::u64(rt_total)),
                ("children".into(), Value::Arr(apps)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("name".into(), Value::str("all")),
        ("value".into(), Value::u64(total)),
        ("children".into(), Value::Arr(runtimes)),
    ])
}

/// One gated metric that got worse between two metrics reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Runtime of the regressed entry.
    pub runtime: String,
    /// App of the regressed entry.
    pub app: String,
    /// Which gated metric regressed (`"waste_nj"`, `"total_energy_nj"`,
    /// `"total_time_us"`, or `"correct"`).
    pub metric: String,
    /// Baseline value.
    pub old: u64,
    /// New value.
    pub new: u64,
    /// Relative growth in percent (`+inf` when the baseline was 0).
    pub delta_pct: f64,
}

impl Regression {
    /// Human-readable one-liner for gate output.
    pub fn describe(&self) -> String {
        if self.metric == "correct" {
            format!(
                "{}/{}: output correctness regressed",
                self.runtime, self.app
            )
        } else {
            format!(
                "{}/{}: {} {} -> {} (+{:.1}%)",
                self.runtime, self.app, self.metric, self.old, self.new, self.delta_pct
            )
        }
    }
}

/// The per-entry metrics [`compare_metrics`] gates on.
const GATED_METRICS: [&str; 3] = ["waste_nj", "total_energy_nj", "total_time_us"];

/// Diffs two metrics report documents, returning every entry whose gated
/// metrics grew by more than `gate_pct` percent over the baseline (or
/// whose output correctness flipped to wrong, gated unconditionally).
///
/// Entries are matched by (runtime, app); an entry present in `old` but
/// missing from `new` is an error (the comparison is undefined), while new
/// entries absent from the baseline are ignored. `Err` carries
/// schema/shape problems; `Ok(vec![])` means the gate passes.
pub fn compare_metrics(
    old: &Value,
    new: &Value,
    gate_pct: f64,
) -> Result<Vec<Regression>, Vec<String>> {
    validate_metrics_report(old).map_err(|e| prefix_errs("OLD", e))?;
    validate_metrics_report(new).map_err(|e| prefix_errs("NEW", e))?;
    let old_entries = entry_index(old);
    let new_entries = entry_index(new);

    let mut errs = Vec::new();
    let mut regressions = Vec::new();
    for (key, old_e) in &old_entries {
        let Some(new_e) = new_entries.iter().find(|(k, _)| k == key).map(|(_, e)| e) else {
            errs.push(format!("entry {}/{} missing from NEW", key.0, key.1));
            continue;
        };
        let old_correct = old_e.get("correct").and_then(Value::as_bool) == Some(true);
        let new_correct = new_e.get("correct").and_then(Value::as_bool) == Some(true);
        if old_correct && !new_correct {
            regressions.push(Regression {
                runtime: key.0.clone(),
                app: key.1.clone(),
                metric: "correct".into(),
                old: 1,
                new: 0,
                delta_pct: f64::INFINITY,
            });
        }
        for metric in GATED_METRICS {
            let o = old_e.get(metric).and_then(Value::as_u64).unwrap_or(0);
            let n = new_e.get(metric).and_then(Value::as_u64).unwrap_or(0);
            if n <= o {
                continue;
            }
            let delta_pct = if o == 0 {
                f64::INFINITY
            } else {
                (n - o) as f64 / o as f64 * 100.0
            };
            if delta_pct > gate_pct {
                regressions.push(Regression {
                    runtime: key.0.clone(),
                    app: key.1.clone(),
                    metric: metric.into(),
                    old: o,
                    new: n,
                    delta_pct,
                });
            }
        }
    }
    if errs.is_empty() {
        Ok(regressions)
    } else {
        Err(errs)
    }
}

fn prefix_errs(which: &str, errs: Vec<String>) -> Vec<String> {
    errs.into_iter().map(|e| format!("{which}: {e}")).collect()
}

/// `(runtime, app) -> entry` pairs of a validated metrics document.
fn entry_index(doc: &Value) -> Vec<((String, String), &Value)> {
    doc.get("report")
        .and_then(|r| r.get("entries"))
        .and_then(Value::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| {
                    let rt = e.get("runtime").and_then(Value::as_str)?;
                    let app = e.get("app").and_then(Value::as_str)?;
                    Some(((rt.to_string(), app.to_string()), e))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{validate_any_report, ReportKind};
    use crate::stats::{WorkKind, CAUSE_COUNT};

    /// A run that spent `energy[i]` nJ over `energy[i] / 2` µs on cause
    /// `i`, all in task 0, with `energy[2]` of it redundant at site 2.
    fn entry(runtime: &str, app: &str, energy: [u64; CAUSE_COUNT]) -> MetricsEntry {
        let mut stats = RunStats::new();
        stats.power_failures = 3;
        for (cause, e) in EnergyCause::ALL.into_iter().zip(energy) {
            stats.record_attributed(WorkKind::App, cause, 0, e / 2, e);
        }
        stats.note_redundant_site(2, energy[2]);
        MetricsEntry {
            runtime: runtime.into(),
            app: app.into(),
            outcome: "completed".into(),
            correct: true,
            stats,
        }
    }

    fn sample() -> MetricsInputs {
        MetricsInputs {
            seed: 7,
            entries: vec![
                entry("easeio", "dma", [100, 10, 4, 20, 2, 8, 6, 0]),
                entry("naive", "dma", [100, 40, 30, 0, 2, 0, 6, 0]),
            ],
            skipped: Vec::new(),
        }
    }

    #[test]
    fn skipped_rows_round_trip_and_require_reasons() {
        let mut inp = sample();
        inp.skipped.push(SkippedApp {
            app: "fir-long".into(),
            reason: "chunk task exceeds the timer supply's max on-period".into(),
        });
        let doc = build_metrics_report(&inp);
        let parsed = crate::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(validate_any_report(&parsed), Ok(ReportKind::Metrics));
        let rows = parsed
            .get("report")
            .unwrap()
            .get("skipped")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(rows[0].get("app").unwrap().as_str(), Some("fir-long"));

        // An empty reason is rejected — that would be a silent skip again.
        let text = doc
            .to_pretty()
            .replace("chunk task exceeds the timer supply's max on-period", "");
        let errs = validate_metrics_report(&crate::json::parse(&text).unwrap()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("skipped[0].reason")),
            "{errs:?}"
        );

        // No skips ⇒ the key is absent entirely (documents unchanged).
        let clean = build_metrics_report(&sample());
        assert!(!clean.to_pretty().contains("skipped"));
    }

    #[test]
    fn round_trips_and_dispatches_as_metrics() {
        let doc = build_metrics_report(&sample());
        let text = doc.to_pretty();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(validate_any_report(&parsed), Ok(ReportKind::Metrics));
        let e0 = &parsed
            .get("report")
            .unwrap()
            .get("entries")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert_eq!(e0.get("waste_nj").unwrap().as_u64(), Some(16));

        // Every optional block filled: builder and table agree both ways.
        let mut full = sample();
        full.skipped.push(SkippedApp {
            app: "fir-long".into(),
            reason: "too long".into(),
        });
        crate::schema::tests::assert_matches_table::<MetricsInputs>(&build_metrics_report(&full));
    }

    #[test]
    fn validator_rejects_breakdown_that_does_not_sum() {
        let mut inp = sample();
        inp.entries[0].stats.app_energy_nj += 1;
        let doc = build_metrics_report(&inp);
        let errs = validate_metrics_report(&doc).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("attribution invariant")),
            "{errs:?}"
        );
    }

    #[test]
    fn validator_rejects_task_ledger_gaps() {
        let mut inp = sample();
        inp.entries[0].stats.cause_energy_by_task.row_mut(0)[0] -= 1;
        let doc = build_metrics_report(&inp);
        let errs = validate_metrics_report(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("task ledger")), "{errs:?}");
    }

    #[test]
    fn flamegraph_nests_runtime_app_category() {
        let fg = flamegraph(&sample());
        assert_eq!(fg.get("name").unwrap().as_str(), Some("all"));
        let runtimes = fg.get("children").unwrap().as_arr().unwrap();
        assert_eq!(runtimes.len(), 2);
        let apps = runtimes[0].get("children").unwrap().as_arr().unwrap();
        assert_eq!(apps[0].get("name").unwrap().as_str(), Some("dma"));
        let cats = apps[0].get("children").unwrap().as_arr().unwrap();
        assert_eq!(cats[0].get("name").unwrap().as_str(), Some("progress"));
        assert_eq!(cats[0].get("value").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn compare_passes_within_gate_and_fails_beyond_it() {
        let old = build_metrics_report(&sample());
        let mut worse = sample();
        // +50% redundant-io waste on the naive entry.
        worse.entries[1]
            .stats
            .record_attributed(WorkKind::App, EnergyCause::RedundantIo, 0, 0, 15);
        let new = build_metrics_report(&worse);
        assert!(compare_metrics(&old, &new, 50.0).unwrap().is_empty());
        let regs = compare_metrics(&old, &new, 5.0).unwrap();
        assert!(
            regs.iter()
                .any(|r| r.runtime == "naive" && r.metric == "waste_nj"),
            "{regs:?}"
        );
        // Identical reports always pass, even at gate 0.
        assert!(compare_metrics(&old, &old, 0.0).unwrap().is_empty());
    }

    #[test]
    fn compare_flags_correctness_flips_and_missing_entries() {
        let old = build_metrics_report(&sample());
        let mut flipped = sample();
        flipped.entries[0].correct = false;
        let new = build_metrics_report(&flipped);
        let regs = compare_metrics(&old, &new, 1000.0).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "correct");
        assert!(regs[0].describe().contains("correctness"));

        let mut shrunk = sample();
        shrunk.entries.pop();
        let new = build_metrics_report(&shrunk);
        let errs = compare_metrics(&old, &new, 5.0).unwrap_err();
        assert!(errs[0].contains("missing from NEW"), "{errs:?}");
    }
}
