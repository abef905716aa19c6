//! One-hot encoding of categorical (string) columns.

use nde_tabular::{Column, Table};

use crate::{LearnError, Result};

/// One-hot encoder for a single string column. Categories are learned in
/// sorted order; unseen categories (and nulls) encode to the all-zero
/// vector, which keeps downstream models total on dirty data.
#[derive(Debug, Clone, Default)]
pub struct OneHotEncoder {
    categories: Vec<String>,
}

impl OneHotEncoder {
    /// Learns the category vocabulary from `column` of `table`.
    pub fn fit(table: &Table, column: &str) -> Result<Self> {
        let col = table.column(column).map_err(|e| LearnError::Encoding {
            detail: e.to_string(),
        })?;
        let cells = col.as_str().ok_or_else(|| LearnError::Encoding {
            detail: format!("one-hot column {column:?} must be a string column"),
        })?;
        let mut categories: Vec<&str> = cells.iter().flatten().map(|s| &**s).collect();
        categories.sort_unstable();
        categories.dedup();
        let categories = categories.into_iter().map(str::to_owned).collect();
        Ok(OneHotEncoder { categories })
    }

    /// The learned categories, in encoding order.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Width of the encoded vector.
    pub fn width(&self) -> usize {
        self.categories.len()
    }

    /// The position of `cell`'s category, or `None` for unseen categories
    /// and nulls (which encode to the all-zero vector).
    pub fn index_of(&self, cell: Option<&str>) -> Option<usize> {
        cell.and_then(|value| {
            self.categories
                .binary_search_by(|c| c.as_str().cmp(value))
                .ok()
        })
    }

    /// Encodes `column` of `table` into a row-major buffer: row `i`'s
    /// one-hot vector overwrites `out[i * stride + offset..][..width]`, and
    /// every other cell of `out` is left as it is.
    ///
    /// # Panics
    ///
    /// If `out.len() != rows * stride`, or if `offset + width > stride`.
    pub fn transform_into(
        &self,
        table: &Table,
        column: &str,
        out: &mut [f64],
        stride: usize,
        offset: usize,
    ) -> Result<()> {
        let col = table.column(column).map_err(|e| LearnError::Encoding {
            detail: e.to_string(),
        })?;
        let Column::Str(cells) = col else {
            return Err(LearnError::Encoding {
                detail: format!("one-hot column {column:?} must be a string column"),
            });
        };
        let width = self.width();
        assert!(
            offset + width <= stride,
            "a {width}-wide one-hot block at offset {offset} does not fit in rows of {stride}"
        );
        assert_eq!(
            out.len(),
            cells.len() * stride,
            "{} rows of {stride} values expected",
            cells.len()
        );
        for (i, cell) in cells.iter().enumerate() {
            let block = &mut out[i * stride + offset..][..width];
            block.fill(0.0);
            if let Some(pos) = self.index_of(cell.as_deref()) {
                block[pos] = 1.0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        Table::builder()
            .str_opt(
                "degree",
                vec![
                    Some("msc".into()),
                    Some("bsc".into()),
                    None,
                    Some("phd".into()),
                    Some("bsc".into()),
                ],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn learns_sorted_unique_categories() {
        let enc = OneHotEncoder::fit(&demo(), "degree").unwrap();
        assert_eq!(enc.categories(), &["bsc", "msc", "phd"]);
        assert_eq!(enc.width(), 3);
    }

    #[test]
    fn encodes_known_unknown_and_null() {
        let enc = OneHotEncoder::fit(&demo(), "degree").unwrap();
        assert_eq!(enc.index_of(Some("msc")), Some(1));
        assert_eq!(enc.index_of(Some("unseen")), None);
        assert_eq!(enc.index_of(None), None);
    }

    #[test]
    fn transform_encodes_each_row() {
        let enc = OneHotEncoder::fit(&demo(), "degree").unwrap();
        // Rows of 5 with the 3-wide block at offset 1; the cells around it
        // keep their 9.0.
        let mut out = vec![9.0; 5 * 5];
        enc.transform_into(&demo(), "degree", &mut out, 5, 1)
            .unwrap();
        assert_eq!(&out[..5], &[9.0, 0.0, 1.0, 0.0, 9.0]);
        assert_eq!(&out[10..15], &[9.0, 0.0, 0.0, 0.0, 9.0]);
        assert_eq!(&out[20..], &[9.0, 1.0, 0.0, 0.0, 9.0]);
        let t = Table::builder().int("degree", [1]).build().unwrap();
        assert!(enc
            .transform_into(&t, "degree", &mut [0.0; 5], 5, 1)
            .is_err());
    }

    #[test]
    fn non_string_column_rejected() {
        let t = Table::builder().int("x", [1]).build().unwrap();
        assert!(OneHotEncoder::fit(&t, "x").is_err());
    }
}
