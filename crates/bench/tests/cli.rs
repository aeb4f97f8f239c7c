//! End-to-end checks of the `easeio-sim` binary: exit codes, one small run
//! per mode, and the flag set each mode accepts.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The argv prefix selecting each mode (run mode has none).
const MODES: [&[&str]; 6] = [
    &[],
    &["sweep"],
    &["grid"],
    &["fleet"],
    &["metrics"],
    &["compare"],
];

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_easeio-sim"))
        .args(args)
        .output()
        .expect("easeio-sim runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exited, not signalled")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A fresh scratch directory private to one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

fn baseline() -> String {
    format!("{REPO}/BENCH_baseline.json")
}

fn help(mode: &[&str]) -> String {
    let out = sim(&[mode, &["--help"]].concat());
    assert_eq!(code(&out), 0, "{mode:?} --help");
    stdout(&out)
}

#[test]
fn help_exits_zero_for_every_mode() {
    for mode in MODES {
        assert!(help(mode).starts_with("usage: easeio-sim"), "{mode:?}");
    }
    let top = help(&[]);
    for sub in ["sweep", "grid", "fleet", "metrics", "compare"] {
        assert!(top.contains(sub), "top-level --help omits {sub}");
    }
}

#[test]
fn usage_errors_exit_two_before_running() {
    for args in [
        &["--bogus"][..],
        &["sweep", "--bogus"],
        &["fleet", "--devices", "0"],
        &["--seed"],
        &["sweep", "--app", "dma", "--seed"],
        &["--seed", "abc"],
        &["grid", "--seed", "x7"],
        &["sweep", "--app", "dma", "--boundary", "3", "--sample", "3"],
        &["--app", "no-such-app"],
        &["--app", "no-such-app", "--runs", "3"],
        &["fleet", "--wave-size", "4"],
        &["sweep", "--all-apps", "--report-out", "never.json"],
        &["fleet", "--rollout", "--app", "temp"],
        &["fleet", "--rollout", "--source", "never.eio"],
        &["sweep", "--app", "dma", "--sample", "5", "--exhaustive"],
        &["sweep", "--app", "dma", "--boundary", "3", "--exhaustive"],
        &["sweep", "--app", "dma", "--sample", "0"],
        &[
            "sweep",
            "--app",
            "ota-update",
            "--update-window",
            "--boundary",
            "0",
        ],
    ] {
        let out = sim(args);
        assert_eq!(code(&out), 2, "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
    }
}

/// A `--boundary` past the app's last boundary injects nowhere; it must
/// not pass as a clean verdict.
#[test]
fn boundary_past_the_end_exits_two() {
    let out = sim(&[
        "sweep",
        "--app",
        "dma",
        "--kernel",
        "naive",
        "--boundary",
        "139",
    ]);
    assert_eq!(code(&out), 2);
    assert!(stdout(&out).is_empty(), "ran: {}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("has 74 boundaries"), "{err}");
}

#[test]
fn retired_sweep_outputs_are_unknown_flags() {
    for flag in ["--bench-out", "--utilization-out"] {
        let out = sim(&["sweep", "--app", "dma", flag, "never.json"]);
        assert_eq!(code(&out), 2, "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}

#[test]
fn flags_a_mode_never_reads_are_rejected() {
    for args in [
        &["sweep", "--supply", "rf"][..],
        &["sweep", "--distance", "10"],
        &["sweep", "--runs", "9"],
        &["sweep", "--trace"],
        &["sweep", "--trace-out", "never.json"],
        &["grid", "--kernel", "naive"],
        &["grid", "--supply", "rf"],
        &["grid", "--distance", "10"],
        &["grid", "--trace"],
        &["grid", "--trace-out", "never.json"],
        &["fleet", "--runs", "2"],
        &["fleet", "--trace"],
        &["fleet", "--trace-out", "never.json"],
        &["--jobs", "2"],
    ] {
        let out = sim(args);
        assert_eq!(code(&out), 2, "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("does not read"), "{args:?}: {err}");
    }
}

/// Every `--flag` token in `text`.
fn flags_in(text: &str) -> BTreeSet<String> {
    text.match_indices("--")
        .map(|(i, _)| {
            text[i + 2..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                .collect::<String>()
        })
        .filter(|name| name.starts_with(|c: char| c.is_ascii_lowercase()))
        .map(|name| format!("--{name}"))
        .collect()
}

#[test]
fn readme_flag_tables_match_help() {
    let readme = std::fs::read_to_string(format!("{REPO}/README.md")).unwrap();
    let documented: BTreeSet<String> = readme
        .lines()
        .filter(|l| l.starts_with('|'))
        .flat_map(|l| flags_in(l.split('|').nth(1).unwrap_or("")))
        .collect();
    // (mode, flag, takes a value) for every flag row of every mode's help.
    let mut rows = Vec::new();
    let mut helped = BTreeSet::new();
    for mode in MODES {
        let text = help(mode);
        helped.extend(flags_in(&text));
        for line in text.lines().filter(|l| l.starts_with("  --")) {
            let mut words = line.split_whitespace();
            let flag = words.next().unwrap().to_string();
            let takes_value = words
                .next()
                .is_some_and(|w| w.starts_with(|c: char| c.is_ascii_uppercase()));
            rows.push((mode, flag, takes_value));
        }
    }
    let undocumented: Vec<_> = helped.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "printed by --help but missing from README's flag tables: {undocumented:?}"
    );
    for flag in &documented {
        let (mode, _, takes_value) = rows
            .iter()
            .find(|(_, f, _)| f == flag)
            .unwrap_or_else(|| panic!("README documents {flag}, which no mode's --help lists"));
        // The parser accepts the flag (and its value) before `--help` stops it.
        let value: &[&str] = if *takes_value { &["1"] } else { &[] };
        let out = sim(&[*mode, &[flag.as_str()], value, &["--help"]].concat());
        assert_eq!(code(&out), 0, "{mode:?} rejects {flag}");
    }
}

#[test]
fn compare_exit_codes() {
    let dir = scratch("compare");
    let base = baseline();
    let text = std::fs::read_to_string(&base).unwrap();
    let regressed = dir.join("regressed.json");
    std::fs::write(
        &regressed,
        text.replacen("\"correct\": true", "\"correct\": false", 1),
    )
    .unwrap();
    let malformed = dir.join("malformed.json");
    std::fs::write(&malformed, "{").unwrap();

    let out = sim(&["compare", &base, &base]);
    assert_eq!(code(&out), 0);
    assert!(stdout(&out).starts_with("compare: "), "{}", stdout(&out));
    assert!(stdout(&out).contains("within the 5% gate"));
    assert_eq!(code(&sim(&["compare", &base, path_str(&regressed)])), 1);
    assert_eq!(code(&sim(&["compare", path_str(&malformed), &base])), 2);
    assert_eq!(code(&sim(&["compare", &base])), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_json_is_malformed_input_not_an_abort() {
    let dir = scratch("deep-json");
    let deep = dir.join("deep.json");
    std::fs::write(
        &deep,
        format!("{}{}", "[".repeat(200_000), "]".repeat(200_000)),
    )
    .unwrap();
    let deep = path_str(&deep);
    let base = baseline();
    for args in [
        vec!["--validate-report", deep],
        vec!["compare", deep, &base],
        vec!["compare", &base, deep],
    ] {
        let out = sim(&args);
        assert_eq!(code(&out), 2, "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("nesting deeper than 128 levels"),
            "{args:?}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `args`, expects exit 0, and returns the first stdout line that
/// starts with `headline`.
fn headline(args: &[&str], headline: &str) -> String {
    let out = sim(args);
    let text = stdout(&out);
    assert_eq!(
        code(&out),
        0,
        "{args:?}: {text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    text.lines()
        .find(|l| l.starts_with(headline))
        .unwrap_or_else(|| panic!("{args:?}: no `{headline}` line in\n{text}"))
        .to_string()
}

#[test]
fn one_small_run_per_mode() {
    let line = headline(&["--app", "dma"], "summary: ");
    assert!(line.contains("failures"), "{line}");
    let line = headline(
        &["sweep", "--app", "dma", "--sample", "5"],
        "sweep result: ",
    );
    assert_eq!(line, "sweep result: 0 violation(s) in 5 injection(s)");
    // A sweep's per-app time is its workers' summed busy time, which
    // time-slicing inflates past the wall time: it is labelled as such.
    let line = headline(&["sweep", "--app", "dma", "--sample", "5"], "sweep: ");
    assert!(
        line.contains(" ms busy (") && !line.contains("wall"),
        "{line}"
    );
    let line = headline(
        &[
            "grid",
            "--app",
            "dma",
            "--kernels",
            "easeio",
            "--distances",
            "61",
        ],
        "grid: ",
    );
    assert!(line.starts_with("grid: dma — 1 cells × 1 run(s)"), "{line}");
    let line = headline(&["fleet", "--devices", "4"], "fleet: ");
    assert!(
        line.starts_with("fleet: 4 × flaky-radio under EaseIO"),
        "{line}"
    );
    let line = headline(&["fleet", "--rollout", "--devices", "4"], "rollout: ");
    assert!(
        line.starts_with("rollout: 4 devices to image seq 2"),
        "{line}"
    );
    let line = headline(
        &["metrics", "--apps", "dma", "--kernels", "easeio"],
        "EaseIO ",
    );
    assert!(line.contains(" dma "), "{line}");
    let base = baseline();
    headline(&["compare", &base, &base], "compare: ");
}

/// The `--runs N` aggregate's whole stdout, pinned: a clean EaseIO run, a
/// faulted Naive run where most runs abort and the rest are incorrect, and
/// a faulted EaseIO run.
#[test]
fn runs_aggregate_output_is_pinned() {
    for (args, expected) in [
        (
            &["--app", "fir", "--runs", "20", "--seed", "3"][..],
            "20 × fir under EaseIO: 20/20 completed, 20/20 correct, mean 18.04 ms, 1.10 failures/run\n\
             summary: 22 failures, 120 commits, io 84 executed / 0 skipped, wasted work 10.3%\n",
        ),
        (
            &[
                "--app",
                "flaky-radio",
                "--kernel",
                "naive",
                "--runs",
                "16",
                "--seed",
                "5",
                "--fault-rate",
                "320",
                "--max-retries",
                "2",
            ],
            "16 × flaky-radio under Naive: 3/16 completed, 0/3 correct, mean 30.24 ms, 2.33 failures/run\n\
             summary: 7 failures, 75 commits, io 49 executed / 0 skipped, wasted work 28.2%\n",
        ),
        (
            &[
                "--app",
                "flaky-radio",
                "--runs",
                "12",
                "--seed",
                "5",
                "--fault-rate",
                "80",
            ],
            "12 × flaky-radio under EaseIO: 12/12 completed, 12/12 correct, mean 24.99 ms, 1.67 failures/run\n\
             summary: 20 failures, 300 commits, io 196 executed / 0 skipped, wasted work 12.0%\n",
        ),
    ] {
        let out = sim(args);
        assert_eq!(code(&out), 0, "{args:?}");
        assert_eq!(stdout(&out), expected, "{args:?}");
    }
}

/// The value of `"key":N` in one JSONL record.
fn json_u64(line: &str, key: &str) -> u64 {
    let tail = &line[line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
    let end = tail.find([',', '}']).unwrap();
    tail[..end].parse().unwrap()
}

/// Replica `k` of an RF run sees the fading wave phase-shifted by `k`
/// steps, so the runs of `--runs N` and the devices of a fleet do not all
/// repeat replica 0's harvesting trajectory.
#[test]
fn rf_replicas_follow_distinct_trajectories() {
    let rf = ["--app", "dma", "--supply", "rf", "--distance", "64"];
    // `--runs 2` averages replicas 0 and 1; replica 0 alone is the single
    // run. Equal means would say replica 1 repeated replica 0.
    let single = stdout(&sim(&rf));
    let value = |label: &str| {
        let rest = single.lines().find_map(|l| l.trim().strip_prefix(label));
        rest.and_then(|r| r.split_whitespace().next())
            .unwrap()
            .to_string()
    };
    let (on_ms, failures) = (value("time:"), value("power failures:"));
    let aggregate = stdout(&sim(&[&rf[..], &["--runs", "2"]].concat()));
    let same = format!("mean {on_ms} ms, {failures}.00 failures/run");
    assert!(!aggregate.contains(&same), "{aggregate} repeats {same}");

    let dir = scratch("rf-fleet");
    let stream = dir.join("fleet.jsonl");
    let out = sim(&[
        &["fleet"][..],
        &rf,
        &["--devices", "2", "--stream-out", path_str(&stream)],
    ]
    .concat());
    assert_eq!(code(&out), 0);
    let lines = std::fs::read_to_string(&stream).unwrap();
    let runs: Vec<(u64, u64)> = lines
        .lines()
        .map(|l| (json_u64(l, "wall_us"), json_u64(l, "power_failures")))
        .collect();
    assert_eq!(runs.len(), 2);
    assert_ne!(runs[0], runs[1], "device 1 repeated device 0's run");
}

#[test]
fn written_reports_validate() {
    let dir = scratch("reports");
    let run = dir.join("run.json");
    let sweep = dir.join("sweep.json");
    let fleet = dir.join("fleet.json");
    let metrics = dir.join("metrics.json");
    let boundary = dir.join("boundary.json");
    let forensics = dir.join("forensics.json");
    let rollout = dir.join("rollout.json");
    for args in [
        &["--app", "temp", "--report-out", path_str(&run)][..],
        &[
            "sweep",
            "--app",
            "dma",
            "--sample",
            "5",
            "--report-out",
            path_str(&sweep),
        ],
        &["fleet", "--devices", "4", "--report-out", path_str(&fleet)],
        &[
            "metrics",
            "--apps",
            "dma",
            "--kernels",
            "easeio",
            "--metrics-out",
            path_str(&metrics),
        ],
        &[
            "sweep",
            "--app",
            "dma",
            "--boundary",
            "3",
            "--report-out",
            path_str(&boundary),
        ],
        &[
            "sweep",
            "--app",
            "ota-update",
            "--kernel",
            "naive",
            "--seed",
            "7",
            "--boundary",
            "27",
            "--strict-memory",
            "--expect-violations",
            "--forensics-out",
            path_str(&forensics),
        ],
        &[
            "fleet",
            "--rollout",
            "--devices",
            "4",
            "--report-out",
            path_str(&rollout),
        ],
    ] {
        assert_eq!(code(&sim(args)), 0, "{args:?}");
    }
    for doc in [
        &run, &sweep, &fleet, &metrics, &boundary, &forensics, &rollout,
    ] {
        let out = sim(&["--validate-report", path_str(doc)]);
        assert_eq!(code(&out), 0, "{}", doc.display());
        assert!(stdout(&out).contains(": valid "), "{}", stdout(&out));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
