//! The paper's evaluation (§5): every table and figure, each experiment run
//! once and printed in paper order. `tests/paper_tables.rs` pins the same
//! tables in `tests/golden/paper_tables.json`.

use easeio_bench::experiments::{evaluate, ABLATION_RUNS, PAPER_RUNS};

fn main() {
    println!("{PAPER_RUNS} seeded runs per cell ({ABLATION_RUNS} per ablation), resets U[5,20] ms");
    for table in evaluate().tables() {
        print!("{}", table.text());
    }
}
