//! Minimal aligned-column table printing for experiment output.

use std::fmt::Display;

use crate::summary::Row;

/// A column-aligned text table with a title, rendered to stdout by
/// [`Table::print`].
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringifying each cell).
    pub fn row<D: Display>(&mut self, cells: &[D]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Appends `row`'s cells for `keys`, one per column.
    pub fn row_of(&mut self, row: &Row, keys: &[&str]) -> &mut Self {
        self.row_strings(keys.iter().map(|key| row.cell(key)).collect())
    }

    /// Appends one pre-stringified row.
    pub fn row_strings(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a bit count with a thousands separator for readability.
pub fn fmt_bits(bits: u64) -> String {
    let s = bits.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(&[1, 2]).row(&[333, 4]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("333"));
    }

    #[test]
    fn bits_formatting() {
        assert_eq!(fmt_bits(1), "1");
        assert_eq!(fmt_bits(1234), "1_234");
        assert_eq!(fmt_bits(1234567), "1_234_567");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new("x", &["a"]).row(&[1, 2]);
    }
}
