//! Golden-file and schema tests for the observability stack.
//!
//! The Chrome `trace_event` export and the run report are consumed by
//! external tooling (trace viewers, CI schema checks, plotting scripts), so
//! their byte-level layout is pinned here against golden files built from a
//! small synthetic event stream that exercises every record shape: task
//! attempts and re-executions, I/O with all outcomes, DMA, commits, a power
//! failure with its off-period span, and runtime instants.
//!
//! Regenerate the goldens after an intentional format change with:
//! `UPDATE_GOLDEN=1 cargo test --test observability`
//!
//! A second group runs the real simulator end-to-end and checks that a fresh
//! report always satisfies its own schema.

use easeio_repro::apps::harness::{golden, run_traced, KernelKind};
use easeio_repro::apps::temp_app;
use easeio_repro::easeio_trace::fleet::{
    build_fleet_report, FleetDeliveryDoc, FleetEnergyDoc, FleetInputs, FleetMediumDoc,
    FleetOutcomesDoc, FleetRolloutDoc, FleetStragglerDoc, FleetTimingDoc,
};
use easeio_repro::easeio_trace::report::RunReportDoc;
use easeio_repro::easeio_trace::schema::{Field, Ty};
use easeio_repro::easeio_trace::{
    build_forensics_report, build_metrics_report, build_profile, build_report, build_sweep_report,
    chrome_trace, compare_metrics, jsonl, parse_json, validate_any_report, validate_metrics_report,
    validate_report, Event, EventKind, FaultSpecDoc, ForensicsInputs, ForensicsViolationDoc,
    FramDiffByte, FramDiffDoc, InstantKind, MetricsEntry, MetricsInputs, ReportBody, ReportInputs,
    ReportKind, SkippedApp, SpanKind, Status, SweepInputs, SweepPruneDoc, SweepTimingDoc,
    SweepViolation, SweepWasteDoc, Value, CATEGORY_NAMES, NO_SITE, NO_TASK, SWEEP_MODES,
    WASTE_CATEGORY_NAMES,
};
use easeio_repro::kernel::Outcome;
use easeio_repro::mcu_emu::{
    EnergyCause, Mcu, RunStats, Supply, TimerResetConfig, WorkKind, CAUSE_COUNT, DMA_SITE_BASE,
    KERNEL_TASK,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn ev(ts: u64, nj: u64, task: u16, site: u16, name: &'static str, kind: EventKind) -> Event {
    Event {
        ts_us: ts,
        energy_nj: nj,
        task,
        site,
        name,
        kind,
    }
}

/// A fixed stream covering every exported record shape: one committed
/// attempt with an executed I/O and a skipped DMA, a power failure mid-I/O,
/// and a committed re-execution whose repeated I/O is redundant.
fn synthetic_events() -> Vec<Event> {
    use EventKind::{SpanBegin, SpanEnd};
    use InstantKind::*;
    use SpanKind::*;
    vec![
        Event::instant(0, 0, Boot, "boot"),
        ev(10, 5, 0, 0, "sense", SpanBegin(TaskAttempt)),
        ev(12, 8, 0, 0, "temp", SpanBegin(IoCall)),
        Event::task_instant(13, 9, 0, FlagCheck, "clear"),
        ev(20, 40, 0, 0, "temp", SpanEnd(IoCall, Status::Executed)),
        ev(22, 44, 0, 1, "dma", SpanBegin(DmaCopy)),
        ev(25, 50, 0, 1, "dma", SpanEnd(DmaCopy, Status::Skipped)),
        ev(26, 52, 0, NO_SITE, "sense", SpanBegin(Commit)),
        ev(
            30,
            60,
            0,
            NO_SITE,
            "sense",
            SpanEnd(Commit, Status::Committed),
        ),
        ev(
            30,
            60,
            0,
            NO_SITE,
            "sense",
            SpanEnd(TaskAttempt, Status::Committed),
        ),
        ev(32, 62, 1, 0, "send", SpanBegin(TaskAttempt)),
        ev(34, 64, 1, 0, "radio", SpanBegin(IoCall)),
        Event::instant(40, 70, PowerFailure, "timer"),
        ev(40, 70, NO_TASK, NO_SITE, "off", SpanBegin(PowerOff)),
        ev(
            90,
            70,
            NO_TASK,
            NO_SITE,
            "off",
            SpanEnd(PowerOff, Status::None),
        ),
        Event::instant(90, 70, ChargeCycle, "timer"),
        ev(90, 70, 1, 0, "radio", SpanEnd(IoCall, Status::Failed)),
        ev(
            90,
            70,
            1,
            NO_SITE,
            "send",
            SpanEnd(TaskAttempt, Status::Failed),
        ),
        Event::instant(90, 70, Boot, "boot"),
        ev(92, 72, 1, 1, "send", SpanBegin(TaskAttempt)),
        ev(94, 74, 1, 0, "radio", SpanBegin(IoCall)),
        ev(102, 110, 1, 0, "radio", SpanEnd(IoCall, Status::Redundant)),
        ev(104, 112, 1, NO_SITE, "send", SpanBegin(Commit)),
        ev(
            108,
            120,
            1,
            NO_SITE,
            "send",
            SpanEnd(Commit, Status::Committed),
        ),
        ev(
            108,
            120,
            1,
            NO_SITE,
            "send",
            SpanEnd(TaskAttempt, Status::Committed),
        ),
    ]
}

fn sample_inputs() -> ReportInputs {
    ReportInputs {
        runtime: "EaseIO".into(),
        app: "synthetic".into(),
        supply: Value::Obj(vec![("kind".into(), Value::str("timer"))]),
        seed: 42,
        outcome: "completed".into(),
        correct: Some(true),
        wall_us: 108,
        on_us: 58,
        stats: RunStats {
            app_time_us: 40,
            overhead_time_us: 18,
            app_energy_nj: 90,
            overhead_energy_nj: 30,
            power_failures: 1,
            task_attempts: 3,
            task_commits: 2,
            io_executed: 2,
            io_reexecutions: 1,
            dma_skipped: 1,
            ..RunStats::default()
        },
        golden_app_time_us: 32,
        golden_app_energy_nj: 72,
        memory: Some((1480, 128, 512)),
        events_recorded: 25,
        events_dropped: 0,
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test observability` to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    let mut doc = chrome_trace(&synthetic_events(), "synthetic on EaseIO").to_pretty();
    doc.push('\n');
    assert_matches_golden("chrome_trace.json", &doc);
    // And it stays parseable JSON with the two required top-level keys.
    let parsed = parse_json(&doc).unwrap();
    assert!(parsed.get("traceEvents").is_some());
    assert!(parsed.get("displayTimeUnit").is_some());
}

#[test]
fn jsonl_export_matches_golden() {
    let doc = jsonl(&synthetic_events());
    assert_matches_golden("trace.jsonl", &doc);
    for line in doc.lines() {
        parse_json(line).expect("every JSONL line parses on its own");
    }
}

#[test]
fn report_matches_golden_and_validates() {
    let profile = build_profile(&synthetic_events());
    assert_eq!(profile.unbalanced, 0, "the synthetic stream is well-formed");
    let report = build_report(&sample_inputs(), &profile);
    let mut doc = report.to_pretty();
    doc.push('\n');
    assert_matches_golden("report.json", &doc);
    let parsed = parse_json(&doc).unwrap();
    validate_report(&parsed).expect("golden report satisfies the schema");
    assert_eq!(validate_any_report(&parsed), Ok(ReportKind::Run));
}

/// A three-reboot ledger with per-cause time `time_us` and energy given
/// per task by `tasks` (the cause totals are their sum), all of it
/// application work, with redundant energy at `sites` (keys tagged with
/// `DMA_SITE_BASE` are DMA sites).
fn ledger(
    time_us: [u64; CAUSE_COUNT],
    tasks: &[(u16, [u64; CAUSE_COUNT])],
    sites: &[(u16, u64)],
) -> RunStats {
    let mut s = RunStats {
        power_failures: 3,
        app_time_us: time_us.iter().sum(),
        cause_time_us: time_us,
        ..RunStats::default()
    };
    for &(task, row) in tasks {
        *s.cause_energy_by_task.row_mut(task) = row;
        for (total, nj) in s.cause_energy_nj.iter_mut().zip(row) {
            *total += nj;
        }
    }
    s.app_energy_nj = s.cause_energy_nj.iter().sum();
    for &(site, nj) in sites {
        s.note_redundant_site(site, nj);
    }
    s
}

/// A fixed two-entry metrics document covering every record shape: a wasteful
/// baseline with per-task rows for an app task and the kernel pseudo-task,
/// redundant I/O and DMA site rows, and a clean EaseIO entry with DMA
/// privatization cost but no redundant sites. Every ledger invariant
/// (category sums, task coverage) holds by construction.
fn sample_metrics_inputs() -> MetricsInputs {
    let entry = |runtime: &str, stats| MetricsEntry {
        runtime: runtime.into(),
        app: "dma".into(),
        outcome: "completed".into(),
        correct: true,
        stats,
    };
    MetricsInputs {
        seed: 42,
        entries: vec![
            entry(
                "Naive",
                ledger(
                    [50, 20, 12, 6, 0, 0, 2, 0],
                    &[
                        (0, [300, 200, 120, 30, 0, 0, 0, 0]),
                        (KERNEL_TASK, [200, 0, 0, 30, 0, 0, 20, 0]),
                    ],
                    &[(0, 60), (DMA_SITE_BASE | 1, 60)],
                ),
            ),
            entry(
                "EaseIO",
                ledger(
                    [70, 4, 0, 8, 0, 3, 1, 0],
                    &[
                        (0, [700, 40, 0, 0, 0, 0, 0, 0]),
                        (KERNEL_TASK, [0, 0, 0, 80, 0, 30, 10, 0]),
                    ],
                    &[],
                ),
            ),
        ],
        skipped: Vec::new(),
    }
}

#[test]
fn metrics_report_matches_golden_and_validates() {
    let mut doc = build_metrics_report(&sample_metrics_inputs()).to_pretty();
    doc.push('\n');
    assert_matches_golden("metrics_report.json", &doc);
    // Round-trip through text, then through the single dispatch entry point:
    // the document must both satisfy its own schema and be recognized as a
    // metrics report by kind.
    let parsed = parse_json(&doc).unwrap();
    validate_metrics_report(&parsed).expect("golden metrics report satisfies the schema");
    assert_eq!(validate_any_report(&parsed), Ok(ReportKind::Metrics));
}

/// The category names every report carries are `EnergyCause`'s own name
/// table, declared once beside the variants in `easeio_trace::stats`, and
/// the waste names are filtered from it by `EnergyCause::is_waste`, so
/// this holds by construction; it stays as the statement that the names
/// match `EnergyCause::ALL` index-for-index and the waste subset matches
/// `EnergyCause::is_waste`, or every document downstream mislabels its
/// joules.
#[test]
fn category_names_match_the_emulator_ledger() {
    assert_eq!(CAUSE_COUNT, EnergyCause::ALL.len());
    for (i, cause) in EnergyCause::ALL.iter().enumerate() {
        assert_eq!(
            CATEGORY_NAMES[i],
            cause.name(),
            "category {i} diverged between trace and mcu-emu"
        );
        assert_eq!(
            WASTE_CATEGORY_NAMES.contains(&cause.name()),
            cause.is_waste(),
            "waste classification of '{}' diverged",
            cause.name()
        );
    }
}

/// The sweep table's `mode` row lists every name `crashcheck::SweepMode`
/// can put in a report, so no sweep the CLI runs writes a document its own
/// validator rejects. The exhaustive match breaks this test's build when a
/// mode is added.
#[test]
fn sweep_mode_names_match_the_schema() {
    use crashcheck::SweepMode;
    let names = [
        SweepMode::Exhaustive,
        SweepMode::Sample(1),
        SweepMode::Boundary(0),
    ]
    .map(|m| match m {
        SweepMode::Exhaustive | SweepMode::Sample(_) | SweepMode::Boundary(_) => m.name(),
    });
    assert_eq!(names, SWEEP_MODES);
}

#[test]
fn compare_gate_fails_on_injected_regression() {
    let old = build_metrics_report(&sample_metrics_inputs());
    // Inject a waste regression into the baseline entry: 200 nJ of extra
    // re-executed compute, threaded through every ledger so the tampered
    // document still validates (the gate must catch it, not the schema).
    let mut worse = sample_metrics_inputs();
    worse.entries[0]
        .stats
        .record_attributed(WorkKind::App, EnergyCause::ReexecCompute, 0, 0, 200);
    let new = build_metrics_report(&worse);
    validate_metrics_report(&new).expect("the tampered document is schema-valid");

    let regressions = compare_metrics(&old, &new, 5.0).unwrap();
    assert!(
        regressions
            .iter()
            .any(|r| r.runtime == "Naive" && r.app == "dma" && r.metric == "waste_nj"),
        "waste growth must trip the gate: {regressions:?}"
    );
    assert!(
        regressions.iter().any(|r| r.metric == "total_energy_nj"),
        "total-energy growth must trip the gate"
    );
    // A permissive-enough gate lets the same pair through, and the identity
    // comparison is clean at gate 0.
    assert_eq!(compare_metrics(&old, &new, 1000.0).unwrap(), vec![]);
    assert_eq!(compare_metrics(&old, &old, 0.0).unwrap(), vec![]);
}

/// A small well-formed fleet document: every ledger (delivery, outcomes,
/// cause energy) balances by construction.
fn sample_fleet_inputs() -> FleetInputs {
    FleetInputs {
        runtime: "EaseIO".into(),
        app: "flaky-radio".into(),
        devices: 8,
        seed: 1000,
        supply: "timer".into(),
        medium: FleetMediumDoc {
            seed: 77,
            loss_permille: 100,
            airtime_base_us: 32,
            airtime_us_per_word: 4,
        },
        fault_spec: None,
        outcomes: FleetOutcomesDoc {
            completed: 8,
            non_terminated: 0,
            faulted: 0,
            correct: 8,
            incorrect: 0,
            unverified: 0,
        },
        power_failures: 42,
        delivery: FleetDeliveryDoc {
            transmissions: 64,
            unique_sent: 64,
            air_duplicates: 0,
            delivered: 50,
            delivered_unique: 50,
            gateway_duplicates: 0,
            lost_collision: 8,
            lost_channel: 6,
            delivery_rate_milli: 50 * 1000 / 64,
        },
        energy: FleetEnergyDoc {
            total_time_us: 800,
            total_energy_nj: 140,
            cause_energy_nj: [80, 20, 0, 24, 0, 6, 10, 0],
        },
        stragglers: FleetStragglerDoc {
            p50_wall_us: 9_000,
            p90_wall_us: 12_000,
            p99_wall_us: 15_000,
            max_wall_us: 15_100,
        },
        rollout: None,
        timing: None,
    }
}

/// The single dispatch entry point accepts a well-formed `kind: "fleet"`
/// document and rejects malformed ones — the property the CI fleet smoke
/// job's schema check leans on. Tampering goes through the *text* form, the
/// same way an external document would arrive.
#[test]
fn fleet_report_dispatch_accepts_valid_and_rejects_malformed() {
    let doc = build_fleet_report(&sample_fleet_inputs()).to_pretty();
    let parsed = parse_json(&doc).unwrap();
    assert_eq!(validate_any_report(&parsed), Ok(ReportKind::Fleet));

    // A packet vanishes from the delivery ledger: delivered + lost_collision
    // + lost_channel no longer equals transmissions.
    let tampered = doc.replace("\"delivered\": 50", "\"delivered\": 49");
    assert_ne!(tampered, doc, "tamper must hit");
    let errs = validate_any_report(&parse_json(&tampered).unwrap()).unwrap_err();
    assert!(
        errs.iter()
            .any(|e| e.contains("every packet must be accounted for")),
        "{errs:?}"
    );

    // Cause-energy attribution no longer sums to the total.
    let tampered = doc.replace("\"total_energy_nj\": 140", "\"total_energy_nj\": 141");
    assert_ne!(tampered, doc, "tamper must hit");
    let errs = validate_any_report(&parse_json(&tampered).unwrap()).unwrap_err();
    assert!(
        errs.iter().any(|e| e.contains("attribution invariant")),
        "{errs:?}"
    );

    // Outcome tally stops partitioning the fleet.
    let tampered = doc.replace("\"completed\": 8", "\"completed\": 7");
    assert_ne!(tampered, doc, "tamper must hit");
    assert!(validate_any_report(&parse_json(&tampered).unwrap()).is_err());

    // A required block goes missing entirely.
    let tampered = doc.replace("\"stragglers\"", "\"strugglers\"");
    assert_ne!(tampered, doc, "tamper must hit");
    let errs = validate_any_report(&parse_json(&tampered).unwrap()).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("stragglers")), "{errs:?}");
}

/// Schema-v2 sweep documents round-trip with the optional `fault_spec` block
/// both absent (plain power-failure sweep) and present (fault-injection
/// sweep) — readers must accept both shapes from the same validator.
#[test]
fn sweep_report_round_trips_with_and_without_faults() {
    let base = SweepInputs {
        runtime: "EaseIO".into(),
        app: "dma".into(),
        seed: 7,
        off_us: 50_000,
        mode: "sample".into(),
        oracle_boundaries: 120,
        strict_memory: true,
        injections: 40,
        violations: vec![SweepViolation {
            boundary: 17,
            kind: "io_reexecuted".into(),
            detail: "site 2 re-executed".into(),
        }],
        fault_spec: None,
        waste: Some(SweepWasteDoc::from_series(
            &[40, 10, 20, 1000],
            CATEGORY_NAMES
                .iter()
                .enumerate()
                .map(|(i, name)| ((*name).to_string(), (i as u64 + 1) * 10))
                .collect(),
        )),
        timing: None,
    };
    let with_faults = SweepInputs {
        fault_spec: Some(FaultSpecDoc {
            seed: 11,
            rate_permille: 80,
            max_retries: 3,
            backoff_base_us: 200,
        }),
        ..base.clone()
    };
    for (inp, has_faults) in [(&base, false), (&with_faults, true)] {
        let text = build_sweep_report(inp).to_pretty();
        let parsed = parse_json(&text).unwrap();
        assert_eq!(validate_any_report(&parsed), Ok(ReportKind::Sweep));
        assert_eq!(parsed.get("report").unwrap().get("fault_spec").is_some(), {
            has_faults
        });
        // The waste fold survives the round trip with its values intact.
        let waste = parsed.get("report").unwrap().get("waste").unwrap();
        assert_eq!(waste.get("boundaries").and_then(Value::as_u64), Some(4));
        assert_eq!(waste.get("p95_waste_nj").and_then(Value::as_u64), Some(40));
        assert_eq!(
            waste.get("max_waste_nj").and_then(Value::as_u64),
            Some(1000)
        );
    }
}

#[test]
fn real_run_report_satisfies_the_schema() {
    // End-to-end: trace a real intermittent run, derive its profile, build
    // the report exactly as `easeio-sim --report` does, and validate.
    let build = |m: &mut Mcu| temp_app::build(m, &temp_app::TempAppCfg::default());
    let kind = KernelKind::EaseIo;
    let seed = 7;
    let r = run_traced(
        &build,
        kind,
        Supply::timer(TimerResetConfig::default(), seed),
        seed,
    );
    assert_eq!(r.outcome, Outcome::Completed);
    assert!(!r.events.is_empty());
    let (golden_us, golden_nj) = golden(&build, kind, seed);
    let profile = build_profile(&r.events);
    assert_eq!(profile.unbalanced, 0);
    let inputs = ReportInputs {
        runtime: kind.name().into(),
        app: "temp".into(),
        supply: Value::Obj(vec![("kind".into(), Value::str("timer"))]),
        seed,
        outcome: "completed".into(),
        correct: None,
        wall_us: r.wall_us,
        on_us: r.on_us,
        stats: r.stats.clone(),
        golden_app_time_us: golden_us,
        golden_app_energy_nj: golden_nj,
        memory: None,
        events_recorded: r.events.len() as u64,
        events_dropped: r.events_dropped,
    };
    let report = build_report(&inputs, &profile);
    validate_report(&report).expect("fresh report from a real run must validate");
    // Round-trip through text like CI's smoke run does.
    let reparsed = parse_json(&report.to_pretty()).unwrap();
    validate_report(&reparsed).unwrap();
    // The per-site table reflects the ledger. `stats.io_executed` counts
    // every physical execution (redundant included); the profile counts the
    // same except for calls interrupted after the peripheral ran, which land
    // in `failed` instead.
    let io_execs: u64 = profile
        .sites
        .iter()
        .filter(|s| s.kind == SpanKind::IoCall)
        .map(|s| s.executions)
        .sum();
    let io_failed: u64 = profile
        .sites
        .iter()
        .filter(|s| s.kind == SpanKind::IoCall)
        .map(|s| s.failed)
        .sum();
    assert!(io_execs <= r.stats.io_executed);
    assert!(io_execs + io_failed >= r.stats.io_executed);
    let redundant: u64 = profile.sites.iter().map(|s| s.redundant).sum();
    assert_eq!(
        redundant,
        r.stats.io_reexecutions + r.stats.dma_reexecutions
    );
}

/// One document per report kind with every optional block filled, paired
/// with its body table.
fn full_documents() -> Vec<(Value, &'static [Field])> {
    let mut profile = build_profile(&synthetic_events());
    profile.faults_by_kind.insert("radio_nack", 3);
    profile.degraded_by_mode.insert("fallback", 1);
    profile.retries_by_site.insert((1, 0), 3);
    let fault_spec = Some(FaultSpecDoc {
        seed: 11,
        rate_permille: 80,
        max_retries: 3,
        backoff_base_us: 200,
    });
    let sweep = SweepInputs {
        runtime: "EaseIO".into(),
        app: "dma".into(),
        seed: 7,
        off_us: 50_000,
        mode: "boundary".into(),
        oracle_boundaries: 120,
        strict_memory: true,
        injections: 1,
        violations: vec![SweepViolation {
            boundary: 17,
            kind: "single_redundant".into(),
            detail: "site 2 re-executed".into(),
        }],
        fault_spec: fault_spec.clone(),
        waste: Some(SweepWasteDoc::from_series(
            &[40],
            vec![("progress".into(), 40)],
        )),
        timing: Some(SweepTimingDoc {
            jobs: 1,
            wall_us: 90,
            injections_per_sec_milli: Some(11_111),
            oracle_us: 5,
            classify_us: 4,
            inject_us: 80,
            merge_us: 6,
            injections_per_worker: vec![1],
            busy_us_per_worker: vec![80],
            prune: SweepPruneDoc {
                enabled: true,
                injections_executed: 1,
                injections_pruned: 0,
                classes: 1,
                time_observed: false,
            },
            boundaries_simulated: 40,
            rejoined: 0,
        }),
    };
    let fleet = FleetInputs {
        fault_spec: fault_spec.clone(),
        rollout: Some(FleetRolloutDoc {
            target_seq: 2,
            wave_size: 4,
            waves: 2,
            waves_rolled_out: 2,
            aborted: false,
            offered: 8,
            updated: 7,
            update_failed: 0,
            stragglers: 1,
            stale: 0,
            downlink_chunks_sent: 20,
            downlink_chunks_lost: 3,
            duplicate_activations: 0,
            version_torn: 0,
        }),
        timing: Some(FleetTimingDoc {
            jobs: 2,
            wall_us: 300,
            devices_per_worker: vec![4, 4],
            busy_us_per_worker: vec![140, 150],
            peak_rss_bytes: Some(8 << 20),
            streamed_records: Some(8),
        }),
        ..sample_fleet_inputs()
    };
    let mut metrics = sample_metrics_inputs();
    metrics.skipped.push(SkippedApp {
        app: "fir-long".into(),
        reason: "chunk task exceeds the timer supply's max on-period".into(),
    });
    let forensics = ForensicsInputs {
        source: "sweep".into(),
        runtime: "Naive".into(),
        app: "ota-update".into(),
        seed: 7,
        violation: ForensicsViolationDoc {
            kind: "version_torn".into(),
            detail: "sealed header vouches for a torn payload".into(),
            boundary: Some(27),
            spend_seq: Some(340),
            device: Some(3),
            wave: Some(1),
        },
        fault_spec,
        context: vec![("injections".into(), 34)],
        fram_diff: Some(FramDiffDoc {
            divergent_bytes: 2,
            first: vec![FramDiffByte {
                addr: 0x180,
                oracle: 0xAA,
                observed: 0,
            }],
        }),
        repro_command: "easeio-sim sweep --app ota-update --boundary 27".into(),
    };
    let docs = vec![
        (
            build_report(&sample_inputs(), &profile),
            RunReportDoc::SCHEMA,
        ),
        (build_sweep_report(&sweep), SweepInputs::SCHEMA),
        (build_fleet_report(&fleet), FleetInputs::SCHEMA),
        (build_metrics_report(&metrics), MetricsInputs::SCHEMA),
        (build_forensics_report(&forensics), ForensicsInputs::SCHEMA),
    ];
    for (doc, _) in &docs {
        validate_any_report(doc).expect("every full document is valid");
    }
    docs
}

/// One step of a path into a document.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// The path of every node below `v`, parents before children.
fn node_paths(v: &Value, at: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    let children: Vec<(Step, &Value)> = match v {
        Value::Obj(pairs) => pairs
            .iter()
            .map(|(k, x)| (Step::Key(k.clone()), x))
            .collect(),
        Value::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, x)| (Step::Index(i), x))
            .collect(),
        _ => Vec::new(),
    };
    for (step, x) in children {
        at.push(step);
        out.push(at.clone());
        node_paths(x, at, out);
        at.pop();
    }
}

/// The path of every key present in `v` that `ty` marks required.
fn required_paths(v: &Value, ty: Ty, at: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match ty {
        Ty::Obj(fields) => {
            for f in fields {
                if let Some(x) = v.get(f.key) {
                    at.push(Step::Key(f.key.into()));
                    if f.required {
                        out.push(at.clone());
                    }
                    required_paths(x, f.ty, at, out);
                    at.pop();
                }
            }
        }
        Ty::Arr(elem) => {
            for (i, x) in v.as_arr().unwrap_or_default().iter().enumerate() {
                at.push(Step::Index(i));
                required_paths(x, *elem, at, out);
                at.pop();
            }
        }
        Ty::Map(value) => {
            for (k, x) in v.as_obj().unwrap_or_default() {
                at.push(Step::Key(k.clone()));
                required_paths(x, *value, at, out);
                at.pop();
            }
        }
        _ => {}
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[Step]) -> &'a mut Value {
    path.iter().fold(v, |v, step| match (v, step) {
        (Value::Obj(pairs), Step::Key(k)) => {
            &mut pairs.iter_mut().find(|(key, _)| key == k).unwrap().1
        }
        (Value::Arr(items), Step::Index(i)) => &mut items[*i],
        _ => unreachable!("paths come from the document itself"),
    })
}

/// Deletes the node at `path` (an object key or an array element).
fn delete(v: &mut Value, path: &[Step]) {
    let (last, parent) = path.split_last().unwrap();
    match (node_mut(v, parent), last) {
        (Value::Obj(pairs), Step::Key(k)) => pairs.retain(|(key, _)| key != k),
        (Value::Arr(items), Step::Index(i)) => {
            items.remove(*i);
        }
        _ => unreachable!("paths come from the document itself"),
    }
}

/// A value of each JSON type, extremes included.
fn replacements() -> [Value; 8] {
    [
        Value::Null,
        Value::Bool(true),
        Value::Num(-1.5),
        Value::Num(u64::MAX as f64),
        Value::Str(String::new()),
        Value::str("easeio-sim"),
        Value::Arr(vec![Value::Null]),
        Value::Obj(vec![("x".into(), Value::u64(1))]),
    ]
}

fn same_type(a: &Value, b: &Value) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// Validation of `doc` (and, for metrics documents, the comparison gate
/// in both directions against the intact original) returns.
fn validate_all(original: &Value, doc: &Value) {
    let _ = validate_any_report(doc);
    if original.get("kind").and_then(Value::as_str) == Some("metrics") {
        let _ = compare_metrics(original, doc, 5.0);
        let _ = compare_metrics(doc, original, 5.0);
    }
}

#[test]
fn deleting_any_required_key_is_rejected() {
    for (doc, table) in full_documents() {
        let mut required: Vec<Vec<Step>> = ["schema_version", "kind", "tool", "report"]
            .map(|k| vec![Step::Key(k.into())])
            .into();
        let mut at = vec![Step::Key("report".into())];
        required_paths(
            doc.get("report").unwrap(),
            Ty::Obj(table),
            &mut at,
            &mut required,
        );
        assert!(required.len() > 10, "{required:?}");
        for path in required {
            let mut broken = doc.clone();
            delete(&mut broken, &path);
            assert!(
                validate_any_report(&broken).is_err(),
                "deleting {path:?} from a {} document was accepted",
                doc.get("kind").and_then(Value::as_str).unwrap()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The validator entry point never panics on arbitrary text.
    #[test]
    fn validators_never_panic_on_arbitrary_text(input in "\\PC{0,200}") {
        if let Ok(doc) = parse_json(&input) {
            let _ = validate_any_report(&doc);
        }
    }

    /// JSON-shaped token soup — closer to near-miss documents than raw
    /// text — parses often and must validate without panicking.
    #[test]
    fn validators_never_panic_on_json_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("{"), Just("}"), Just("["), Just("]"), Just(","), Just(":"),
                Just("\"schema_version\""), Just("2"), Just("\"kind\""),
                Just("\"sweep\""), Just("\"metrics\""), Just("\"fleet\""),
                Just("\"report\""), Just("\"entries\""), Just("null"),
                Just("true"), Just("-1"), Just("1e999"), Just("18446744073709551615"),
            ],
            0..40,
        )
    ) {
        if let Ok(doc) = parse_json(&tokens.join(" ")) {
            let _ = validate_any_report(&doc);
        }
    }

    /// Every kind's full document with one key deleted, one value (leaf
    /// or container) replaced by a value of another JSON type, or one
    /// number blown up to the largest count: validation (and the metrics
    /// gate) returns without panicking.
    #[test]
    fn validators_never_panic_on_mutated_documents(
        pick in any::<usize>(),
        how in 0u8..3,
        with in 0usize..8,
    ) {
        for (original, _) in full_documents() {
            let mut paths = Vec::new();
            node_paths(&original, &mut Vec::new(), &mut paths);
            let path = &paths[pick % paths.len()];
            let mut doc = original.clone();
            let node = node_mut(&mut doc, path);
            match how {
                0 => delete(&mut doc, path),
                1 => {
                    let mut pool = replacements().into_iter().cycle().skip(with);
                    *node = pool.find(|r| !same_type(r, node)).unwrap();
                }
                _ => {
                    if let Value::Num(n) = node {
                        *n = u64::MAX as f64;
                    }
                }
            }
            validate_all(&original, &doc);
        }
    }
}
