//! Experiment harness regenerating every table and figure of the paper.
//!
//! [`experiments::evaluate`] runs the evaluation once at the paper's 1000
//! seeded runs per cell; its [`experiments::Evaluation::tables`] are what
//! `cargo bench --bench paper` prints. `tests/paper_tables.rs` pins them in
//! `tests/golden/paper_tables.json`, asserts the paper's shape claims on the
//! typed results, and checks that EXPERIMENTS.md quotes each table as the
//! golden renders it; regenerate both after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p easeio-bench --test paper_tables`.

pub mod experiments;
pub mod format;
