//! Human-readable table rendering for terminals and docs.

use crate::table::Table;
use std::fmt;

impl Table {
    /// Renders up to `max_rows` rows as an aligned ASCII table, with an
    /// ellipsis row when truncated — the `nde.pretty_print` of the paper.
    pub fn pretty(&self, max_rows: usize) -> String {
        let names = self.schema().names();
        let shown = self.num_rows().min(max_rows);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown + 1);
        cells.push(names.iter().map(|s| s.to_string()).collect());
        for i in 0..shown {
            cells.push(
                self.columns()
                    .map(|c| truncate_cell(&c.get(i).to_string(), 40))
                    .collect(),
            );
        }
        let mut widths = vec![0usize; names.len()];
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        for (ri, row) in cells.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, &w)| format!("{cell:<w$}"))
                .collect();
            out.push_str(line.join(" | ").trim_end());
            out.push('\n');
            if ri == 0 {
                let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
                out.push_str(&sep.join("-+-"));
                out.push('\n');
            }
        }
        if shown < self.num_rows() {
            out.push_str(&format!("… ({} more rows)\n", self.num_rows() - shown));
        }
        out
    }
}

fn truncate_cell(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_owned()
    } else {
        let prefix: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{prefix}…")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty(20))
    }
}

#[cfg(test)]
mod tests {
    use crate::table::Table;

    #[test]
    fn pretty_renders_header_and_rows() {
        let t = Table::builder()
            .int("id", [1, 22])
            .str("name", ["ana", "bo"])
            .build()
            .unwrap();
        let s = t.pretty(10);
        assert!(s.contains("id | name"));
        assert!(s.contains("22 | bo"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn pretty_truncates_rows() {
        let t = Table::builder().int("x", 0..100).build().unwrap();
        let s = t.pretty(3);
        assert!(s.contains("97 more rows"));
    }

    #[test]
    fn pretty_truncates_long_cells() {
        let long = "x".repeat(100);
        let t = Table::builder().str("s", [long]).build().unwrap();
        let s = t.pretty(1);
        assert!(s.contains('…'));
    }

    #[test]
    fn display_uses_pretty() {
        let t = Table::builder().int("x", [1]).build().unwrap();
        assert!(format!("{t}").contains('x'));
    }
}
