//! Checks shared by the fleet and rollout identity anchors.

use easeio_fleet::FleetAgg;
use easeio_trace::stream::JsonlWriter;
use easeio_trace::Value;
use kernel::{Outcome, RunResult, Verdict};
use proptest::prelude::*;

/// A one-device fleet aggregate is the single run: outcome and verdict
/// tallies, wall and on time (the sketch max is exact for one device), and
/// the time, energy, attribution and reboot ledgers.
pub fn assert_agg_is_the_single_run(
    agg: &FleetAgg,
    single: &RunResult,
) -> Result<(), TestCaseError> {
    let o = agg.outcomes();
    let outcome = |o: &Outcome| single.outcome == *o;
    prop_assert_eq!(agg.devices(), 1);
    prop_assert_eq!(o.completed, outcome(&Outcome::Completed) as u64);
    prop_assert_eq!(o.non_terminated, outcome(&Outcome::NonTermination) as u64);
    prop_assert_eq!(
        o.faulted,
        matches!(single.outcome, Outcome::Fault(_)) as u64
    );
    prop_assert_eq!(o.correct, (single.verdict == Some(Verdict::Correct)) as u64);
    prop_assert_eq!(
        o.incorrect,
        matches!(single.verdict, Some(Verdict::Incorrect(_))) as u64
    );
    prop_assert_eq!(o.unverified, single.verdict.is_none() as u64);
    prop_assert_eq!(agg.wall().max(), single.wall_us);
    prop_assert_eq!(agg.on().max(), single.on_us);
    let e = agg.energy();
    prop_assert_eq!(e.total_time_us, single.stats.total_time_us());
    prop_assert_eq!(e.total_energy_nj, single.stats.total_energy_nj());
    prop_assert_eq!(e.cause_energy_nj, single.stats.cause_energy_nj);
    prop_assert_eq!(agg.power_failures(), single.stats.power_failures);
    Ok(())
}

/// Runs `run(jobs, sink)` at every width in `widths`, without a sink and
/// with one, and checks that all of them give the same identity string
/// (the report with timing stripped, plus whatever else `run` renders)
/// and that every sink received the same bytes: `devices` records, record
/// `i` being device `i`.
pub fn assert_identical_with_and_without_sink(
    name: &str,
    devices: u64,
    widths: &[usize],
    run: impl Fn(usize, Option<&mut JsonlWriter>) -> String,
) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join("easeio-fleet-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir
        .join(format!("{name}-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut reference: Option<String> = None;
    let mut stream_reference: Option<String> = None;
    for &jobs in widths {
        for with_sink in [false, true] {
            let mut out = with_sink.then(|| JsonlWriter::create(&path).unwrap());
            let doc = run(jobs, out.as_mut());
            drop(out);
            match &reference {
                None => reference = Some(doc),
                Some(r) => prop_assert_eq!(&doc, r, "jobs={} sink={}", jobs, with_sink),
            }
            if !with_sink {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            prop_assert_eq!(text.lines().count() as u64, devices);
            for (i, line) in text.lines().enumerate() {
                let rec = easeio_trace::parse_json(line).unwrap();
                let device = rec.get("device").and_then(Value::as_u64);
                prop_assert_eq!(device, Some(i as u64), "jobs={} line {}", jobs, i);
            }
            match &stream_reference {
                None => stream_reference = Some(text),
                Some(r) => prop_assert_eq!(&text, r, "stream bytes diverged at jobs={}", jobs),
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}
