//! Aligned text tables for experiment reports.
//!
//! The benchmark harness prints the paper's tables and figure series as
//! monospace tables; this keeps that rendering logic in one place (and out
//! of a dozen `println!` pyramids in the bins).

use std::fmt;
use std::io::{self, Write};

/// A simple column-aligned table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }

    /// Render to any writer.
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        write!(w, "{self}")
    }

    /// Render as CSV (no alignment, comma-separated, minimal quoting).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .zip(&widths)
                .map(|(cell, w)| format!(" {cell:w$} "))
                .collect::<Vec<_>>()
                .join("|")
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        writeln!(f, "{sep}")?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["pool", "size"]);
        t.row(["HTTP", "40"]);
        t.row(["Download", "40"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], " pool     | size ");
        assert_eq!(lines[2], " HTTP     | 40   ");
        assert_eq!(lines[3], " Download | 40   ");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new(["name", "note"]);
        t.row(["a", "plain"]);
        t.row(["b", "has,comma"]);
        t.row(["c", "has\"quote"]);
        let csv = t.to_csv();
        assert_eq!(
            csv,
            "name,note\na,plain\nb,\"has,comma\"\nc,\"has\"\"quote\"\n"
        );
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(["x"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
    }
}
