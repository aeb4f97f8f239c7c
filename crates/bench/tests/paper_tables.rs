//! The paper's evaluation, pinned: every table of
//! `easeio_bench::experiments::evaluate()` at the paper's 1000 seeded runs
//! per cell, against `tests/golden/paper_tables.json` (one compact JSON
//! object per table), plus the paper's shape claims asserted on the typed
//! results. EXPERIMENTS.md quotes each measured table (Table 3 through the
//! ablations) between `<!-- paper-table ID -->` and `<!-- /paper-table -->`
//! markers, and each block must be the golden's markdown rendering.
//!
//! The evaluation runs once per test binary. Regenerate the golden and the
//! EXPERIMENTS.md blocks after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test -p easeio-bench --test paper_tables`

use easeio_bench::experiments::{evaluate, Evaluation, FIG13_DISTANCES, FIG13_KERNELS, PAPER_RUNS};
use easeio_bench::format::Table;
use easeio_trace::{parse_json, Value};
use std::path::PathBuf;
use std::sync::OnceLock;

const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Tables 1 and 2 are static; EXPERIMENTS.md quotes every other one.
const UNMEASURED: [&str; 2] = ["table1", "table2"];

fn eval() -> &'static Evaluation {
    static EVAL: OnceLock<Evaluation> = OnceLock::new();
    EVAL.get_or_init(evaluate)
}

fn golden_row(t: &Table) -> Value {
    let strs = |v: &[String]| Value::Arr(v.iter().map(Value::str).collect());
    Value::Obj(vec![
        ("id".into(), Value::str(t.id)),
        ("caption".into(), strs(&t.caption)),
        ("title".into(), Value::str(&t.title)),
        ("headers".into(), strs(&t.headers)),
        (
            "rows".into(),
            Value::Arr(t.rows.iter().map(|r| strs(r)).collect()),
        ),
        ("notes".into(), strs(&t.notes)),
    ])
}

/// A golden table as EXPERIMENTS.md quotes it: the caption as a paragraph,
/// the bold title, a pipe table, and the notes in a text block.
fn markdown(t: &Value) -> String {
    let strs = |v: &Value| -> Vec<String> {
        let arr = v.as_arr().expect("array of strings");
        arr.iter()
            .map(|s| s.as_str().expect("string").to_string())
            .collect()
    };
    let field = |key: &str| strs(t.get(key).expect(key));
    // A pipe-table row; a `|` inside a cell is escaped.
    let row = |cells: Vec<String>| {
        let cells: Vec<String> = cells.iter().map(|c| c.replace('|', "\\|")).collect();
        format!("| {} |\n", cells.join(" | "))
    };
    let mut md = String::new();
    let caption = field("caption");
    if !caption.is_empty() {
        let words: Vec<&str> = caption.iter().map(|l| l.trim()).collect();
        md.push_str(&format!("{}\n\n", words.join(" ")));
    }
    let title = t.get("title").and_then(Value::as_str).expect("title");
    md.push_str(&format!("**{title}**\n\n"));
    let headers = field("headers");
    let rule = "---|".repeat(headers.len());
    md.push_str(&format!("{}|{rule}\n", row(headers)));
    for cells in t.get("rows").and_then(Value::as_arr).expect("rows") {
        md.push_str(&row(strs(cells)));
    }
    let notes = field("notes").join("\n");
    let notes = notes.trim_matches('\n');
    if !notes.is_empty() {
        md.push_str(&format!("\n```text\n{notes}\n```\n"));
    }
    md
}

fn golden_path() -> PathBuf {
    PathBuf::from(REPO).join("tests/golden/paper_tables.json")
}

fn experiments_md_path() -> PathBuf {
    PathBuf::from(REPO).join("EXPERIMENTS.md")
}

/// The `(start, end)` byte range of the block quoting table `id`.
fn block(doc: &str, id: &str) -> (usize, usize) {
    let open = format!("<!-- paper-table {id} -->\n");
    let start = doc
        .find(&open)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{}` marker", open.trim()))
        + open.len();
    let end = start
        + doc[start..]
            .find("<!-- /paper-table -->")
            .unwrap_or_else(|| panic!("EXPERIMENTS.md: block {id} is not closed"));
    (start, end)
}

#[test]
fn tables_match_golden_and_experiments_md() {
    let tables = eval().tables();
    let lines: Vec<String> = tables.iter().map(|t| golden_row(t).to_compact()).collect();
    let actual = format!("[\n{}\n]\n", lines.join(",\n"));
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let golden = if update {
        std::fs::write(golden_path(), &actual).unwrap();
        actual
    } else {
        let expected = std::fs::read_to_string(golden_path()).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\nrun `UPDATE_GOLDEN=1 cargo test -p easeio-bench --test paper_tables`",
                golden_path().display()
            )
        });
        // One table per line: name every table that moved.
        let pairs = actual.lines().zip(expected.lines()).skip(1);
        let drifted: Vec<&str> = (tables.iter().zip(pairs))
            .filter(|(_, (a, e))| a != e)
            .map(|(t, _)| t.id)
            .collect();
        assert!(
            drifted.is_empty(),
            "tables {drifted:?} drifted from paper_tables.json; \
             if intentional, regenerate with UPDATE_GOLDEN=1"
        );
        assert_eq!(actual, expected, "paper_tables.json drifted");
        expected
    };
    let golden = parse_json(&golden).expect("golden parses");
    let mut doc = std::fs::read_to_string(experiments_md_path()).unwrap();
    let mut quoted = 0;
    for t in golden.as_arr().expect("array of tables") {
        let id = t.get("id").and_then(Value::as_str).expect("id");
        if UNMEASURED.contains(&id) {
            continue;
        }
        quoted += 1;
        let (start, end) = block(&doc, id);
        let md = markdown(t);
        if update {
            doc.replace_range(start..end, &md);
        } else {
            assert_eq!(
                doc[start..end],
                md,
                "EXPERIMENTS.md table {id} is not the golden's rendering; \
                 regenerate with UPDATE_GOLDEN=1"
            );
        }
    }
    assert_eq!(
        doc.matches("<!-- paper-table ").count(),
        quoted,
        "EXPERIMENTS.md quotes a table the golden does not hold"
    );
    if update {
        std::fs::write(experiments_md_path(), doc).unwrap();
    }
}

/// Every uni-task run completes correctly; on `Single` EaseIO never
/// repeats a completed DMA (Table 4) and re-executes far less than Alpaca;
/// on `Always` no runtime skips an I/O.
#[test]
fn uni_task_shapes() {
    let uni = &eval().uni;
    for (app, sums) in uni {
        assert_eq!(sums.len(), 3);
        for s in sums {
            assert_eq!(s.completed, PAPER_RUNS, "{} under {}", app, s.runtime);
            assert_eq!(s.incorrect, 0, "{} under {}", app, s.runtime);
        }
    }
    let (app, dma) = &uni[0];
    assert_eq!(*app, "Single (DMA)");
    assert_eq!(dma[2].runtime, "EaseIO");
    assert_eq!(
        dma[2].reexecutions(),
        0,
        "Table 4: EaseIO DMA re-executions"
    );
    assert!(dma[2].reexecutions() * 2 < dma[0].reexecutions());
    let (app, lea) = &uni[2];
    assert_eq!(*app, "Always (LEA)");
    assert_eq!(lea[0].io_skipped, 0);
    assert_eq!(lea[2].io_skipped, 0);
}

/// Figure 12: DMA-oblivious privatization corrupts the shared-buffer FIR;
/// EaseIO and EaseIO/Op never do.
#[test]
fn fig12_only_easeio_keeps_fir_correct() {
    for s in &eval().fir {
        assert_eq!(s.completed, PAPER_RUNS, "{}", s.runtime);
        if s.runtime.starts_with("EaseIO") {
            assert_eq!(s.incorrect, 0, "{}", s.runtime);
        } else {
            assert!(s.incorrect > 0, "{}", s.runtime);
        }
    }
}

/// Table 5: double-buffered, every runtime is correct; single-buffered,
/// only EaseIO is.
#[test]
fn table5_single_buffer_is_correct_only_under_easeio() {
    for r in &eval().table5 {
        assert_eq!(
            r.runs.completed, PAPER_RUNS,
            "{} {}",
            r.runtime, r.buffering
        );
        let correct = r.runs.correct == r.runs.completed;
        let expected = r.buffering == "double" || r.runtime == "EaseIO";
        assert_eq!(correct, expected, "{} {}", r.runtime, r.buffering);
    }
}

/// Table 6: Alpaca has the smallest `.text`, and EaseIO's FRAM is never
/// below Alpaca's.
#[test]
fn table6_orderings() {
    for chunk in eval().table6.chunks(3) {
        let (a, i, e) = (&chunk[0], &chunk[1], &chunk[2]);
        assert_eq!(
            [a.runtime, i.runtime, e.runtime],
            ["Alpaca", "InK", "EaseIO"]
        );
        assert!(a.footprint.text < i.footprint.text, "{}", a.app);
        assert!(a.footprint.text < e.footprint.text, "{}", a.app);
        assert!(a.footprint.fram <= e.footprint.fram, "{}", a.app);
    }
}

/// Figure 13: every run finishes; nothing fails at the closest distance,
/// failures appear at the farthest, and Alpaca's lag behind EaseIO never
/// shrinks as the distance grows.
#[test]
fn fig13_intermittency_grows_with_distance() {
    let cells = &eval().fig13;
    let n = FIG13_DISTANCES.len();
    assert_eq!(cells.len(), FIG13_KERNELS.len() * n);
    for c in cells {
        assert_eq!(c.completed, 8, "{} at {}", c.kernel, c.supply);
    }
    let failures = |d: usize| -> u64 { (0..3).map(|k| cells[k * n + d].mean_failures).sum() };
    assert_eq!(failures(0), 0, "no failures at the closest distance");
    assert!(failures(n - 1) > 0, "failures at the farthest distance");
    assert_eq!(FIG13_KERNELS[0].name(), "EaseIO");
    assert_eq!(FIG13_KERNELS[2].name(), "Alpaca");
    let lag: Vec<i64> = (0..n)
        .map(|d| cells[2 * n + d].mean_wall_us as i64 - cells[d].mean_wall_us as i64)
        .collect();
    assert!(lag.windows(2).all(|w| w[0] <= w[1]), "{lag:?}");
}
