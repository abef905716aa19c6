//! Vertical (union) and horizontal (zip) concatenation.

use crate::column::Column;
use crate::table::Table;
use crate::{Result, TableError};

impl Table {
    /// Appends the rows of `other`; schemas must match exactly (names,
    /// order and types).
    pub fn concat(&self, other: &Table) -> Result<Table> {
        if self.schema() != other.schema() {
            return Err(TableError::SchemaMismatch {
                detail: format!("{} vs {}", self.schema(), other.schema()),
            });
        }
        let columns = self
            .columns()
            .zip(other.columns())
            .map(|(top, bottom)| {
                let mut col = Column::empty(top.dtype());
                col.reserve(top.len() + bottom.len());
                col.extend_from(top)?;
                col.extend_from(bottom)?;
                Ok(col)
            })
            .collect::<Result<Vec<_>>>()?;
        let num_rows = self.num_rows() + other.num_rows();
        Ok(Table::from_parts(self.schema().clone(), columns, num_rows))
    }

    /// Adds the columns of `other` side-by-side, sharing both sides'
    /// buffers; row counts must match and column names must not collide.
    pub fn hstack(&self, other: &Table) -> Result<Table> {
        if self.num_rows() != other.num_rows() {
            return Err(TableError::LengthMismatch {
                expected: self.num_rows(),
                found: other.num_rows(),
            });
        }
        let mut out = self.clone();
        for (idx, field) in other.schema().fields().iter().enumerate() {
            out.add_shared_column(field.name.clone(), other, idx)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::table::Table;
    use crate::value::Value;

    #[test]
    fn concat_appends_rows() {
        let a = Table::builder().int("x", [1, 2]).build().unwrap();
        let b = Table::builder().int("x", [3]).build().unwrap();
        let c = a.concat(&b).unwrap();
        assert_eq!(c.num_rows(), 3);
        assert_eq!(c.get(2, "x").unwrap(), Value::Int(3));
    }

    #[test]
    fn concat_rejects_schema_mismatch() {
        let a = Table::builder().int("x", [1]).build().unwrap();
        let b = Table::builder().float("x", [1.0]).build().unwrap();
        assert!(a.concat(&b).is_err());
        let c = Table::builder().int("y", [1]).build().unwrap();
        assert!(a.concat(&c).is_err());
    }

    #[test]
    fn hstack_zips_columns() {
        let a = Table::builder().int("x", [1, 2]).build().unwrap();
        let b = Table::builder().str("y", ["p", "q"]).build().unwrap();
        let c = a.hstack(&b).unwrap();
        assert_eq!(c.schema().names(), vec!["x", "y"]);
    }

    #[test]
    fn hstack_rejects_mismatched_rows_and_duplicate_names() {
        let a = Table::builder().int("x", [1, 2]).build().unwrap();
        let b = Table::builder().int("y", [1]).build().unwrap();
        assert!(a.hstack(&b).is_err());
        let c = Table::builder().int("x", [5, 6]).build().unwrap();
        assert!(a.hstack(&c).is_err());
    }
}
