//! Row filtering.

use crate::row::RowRef;
use crate::table::Table;
use crate::Result;

impl Table {
    /// Keeps the rows for which `pred` returns `true`.
    pub fn filter<F>(&self, pred: F) -> Result<Table>
    where
        F: FnMut(RowRef<'_>) -> bool,
    {
        Ok(self.filter_traced(pred)?.0)
    }

    /// Like [`Table::filter`], also returning the input index of every
    /// surviving row (in output order).
    pub fn filter_traced<F>(&self, mut pred: F) -> Result<(Table, Vec<usize>)>
    where
        F: FnMut(RowRef<'_>) -> bool,
    {
        let kept: Vec<usize> = self
            .rows()
            .filter(|r| pred(*r))
            .map(|r| r.index())
            .collect();
        Ok((self.take(&kept)?, kept))
    }

    /// Drops rows that contain a null in *any* of the named columns
    /// (all columns when `names` is empty) — the classic `dropna`.
    pub fn drop_nulls(&self, names: &[&str]) -> Result<Table> {
        Ok(self.drop_nulls_traced(names)?.0)
    }

    /// Traced variant of [`Table::drop_nulls`].
    pub fn drop_nulls_traced(&self, names: &[&str]) -> Result<(Table, Vec<usize>)> {
        let cols: Vec<&crate::column::Column> = if names.is_empty() {
            self.columns().collect()
        } else {
            names
                .iter()
                .map(|n| self.column(n))
                .collect::<Result<Vec<_>>>()?
        };
        let kept: Vec<usize> = (0..self.num_rows())
            .filter(|&i| cols.iter().all(|c| !c.is_null(i)))
            .collect();
        Ok((self.take(&kept)?, kept))
    }
}

#[cfg(test)]
mod tests {
    use crate::table::Table;

    fn demo() -> Table {
        Table::builder()
            .int("id", [1, 2, 3, 4])
            .str("sector", ["healthcare", "finance", "healthcare", "retail"])
            .float("rating", [Some(1.0), None, Some(3.0), Some(4.0)])
            .build()
            .unwrap()
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let t = demo();
        let f = t.filter(|r| r.str("sector") == Some("healthcare")).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.get(1, "id").unwrap().as_int(), Some(3));
    }

    #[test]
    fn filter_traced_reports_input_indices() {
        let t = demo();
        let (_, trace) = t
            .filter_traced(|r| r.int("id").unwrap_or(0) % 2 == 1)
            .unwrap();
        assert_eq!(trace, vec![0, 2]);
    }

    #[test]
    fn filter_on_empty_result() {
        let t = demo();
        let f = t.filter(|_| false).unwrap();
        assert_eq!(f.num_rows(), 0);
        assert_eq!(f.num_columns(), 3);
    }

    #[test]
    fn drop_nulls_named_column() {
        let t = demo();
        let (d, trace) = t.drop_nulls_traced(&["rating"]).unwrap();
        assert_eq!(d.num_rows(), 3);
        assert_eq!(trace, vec![0, 2, 3]);
    }

    #[test]
    fn drop_nulls_all_columns_by_default() {
        let t = Table::builder()
            .int("a", [Some(1), None])
            .int("b", [None, Some(2)])
            .build()
            .unwrap();
        assert_eq!(t.drop_nulls(&[]).unwrap().num_rows(), 0);
    }

    #[test]
    fn drop_nulls_unknown_column_errors() {
        assert!(demo().drop_nulls(&["nope"]).is_err());
    }
}
