//! The rendered form of the paper's tables and the unit formatting of their
//! cells.

use std::fmt::Display;

/// One rendered table of the evaluation: what `cargo bench --bench paper`
/// prints, what `tests/golden/paper_tables.json` pins, and what
/// EXPERIMENTS.md quotes.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Stable id (`fig7-dma`, `table4`, …; DESIGN.md §6 maps each to its
    /// paper artifact).
    pub id: &'static str,
    /// Lines printed before the table (Figure 13's workload).
    pub caption: Vec<String>,
    /// Title line.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Cells, one row per line.
    pub rows: Vec<Vec<String>>,
    /// Lines printed after the table: computed ratios and the paper's
    /// shape claim; an empty line is a blank line.
    pub notes: Vec<String>,
}

impl Table {
    /// A table with no caption and no notes; `headers` are separated by
    /// ` | `.
    pub fn new(id: &'static str, title: &str, headers: &str, rows: Vec<Vec<String>>) -> Table {
        let headers = headers.split(" | ").map(String::from).collect();
        let (title, caption, notes) = (title.to_string(), vec![], vec![]);
        Table {
            id,
            caption,
            title,
            headers,
            rows,
            notes,
        }
    }

    /// Sets the caption, one line per line of `text`.
    pub fn with_caption(mut self, text: &str) -> Table {
        self.caption = lines(text);
        self
    }

    /// Sets the notes, one line per line of `text`; a leading newline is a
    /// blank first line.
    pub fn with_notes(mut self, text: &str) -> Table {
        self.notes = lines(text);
        self
    }

    /// The table as plain text: caption, a titled and column-aligned
    /// table, then the notes, every line newline-terminated.
    pub fn text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let mut text: String = self.caption.iter().map(|l| format!("{l}\n")).collect();
        text += &format!("\n== {} ==\n", self.title);
        for cells in [&self.headers, &rule].into_iter().chain(&self.rows) {
            let width = |i: usize| widths.get(i).copied().unwrap_or(8);
            let padded = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<w$}  ", w = width(i)));
            text += &format!("  {}\n", padded.collect::<String>().trim_end());
        }
        text.extend(self.notes.iter().map(|l| format!("{l}\n")));
        text
    }
}

fn lines(s: &str) -> Vec<String> {
    s.lines().map(String::from).collect()
}

/// One table row, each cell formatted with `Display`.
pub fn row(cells: &[&dyn Display]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

/// Microseconds → milliseconds with two decimals.
pub fn ms(us: u64) -> String {
    format!("{:.2}", us as f64 / 1000.0)
}

/// Nanojoules → microjoules with two decimals.
pub fn uj(nj: u64) -> String {
    format!("{:.2}", nj as f64 / 1000.0)
}

/// A percentage with one decimal.
pub fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        return "-".into();
    }
    format!("{:.1}%", 100.0 * num as f64 / den as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(ms(1500), "1.50");
        assert_eq!(uj(2500), "2.50");
        assert_eq!(pct(1, 4), "25.0%");
        assert_eq!(pct(1, 0), "-");
    }
}
