//! Row-wise user-defined-function columns (the pipeline's `Project` with
//! UDFs, e.g. `train_df["has_twitter"] = train_df.twitter.notnull()`).

use crate::column::Column;
use crate::row::RowRef;
use crate::table::Table;
use crate::value::Value;
use crate::Result;

impl Table {
    /// Adds (or replaces) a column computed row-wise by `f`.
    ///
    /// The new column is always the last one: a replaced column moves to
    /// the end of the schema, unlike [`Table::map_column`], which keeps its
    /// position. Plan outputs' column order depends on this.
    ///
    /// The column's type is inferred from the first non-null value that `f`
    /// returns; mixed-type outputs are a [`crate::TableError::TypeMismatch`].
    pub fn with_column<F>(&self, name: &str, f: F) -> Result<Table>
    where
        F: FnMut(RowRef<'_>) -> Value,
    {
        let values: Vec<Value> = self.rows().map(f).collect();
        let column = Column::from_values(&values)?;
        // Every other column is shared; a replaced column moves to the end.
        let others: Vec<&str> = self
            .schema()
            .names()
            .into_iter()
            .filter(|&n| n != name)
            .collect();
        let mut out = self.select(&others)?;
        out.add_column(name, column)?;
        Ok(out)
    }

    /// Rewrites an existing column cell-by-cell with `f` (a "transform").
    pub fn map_column<F>(&self, name: &str, f: F) -> Result<Table>
    where
        F: FnMut(Value) -> Value,
    {
        let mut f = f;
        let values: Vec<Value> = self.column(name)?.iter().map(&mut f).collect();
        let column = Column::from_values(&values)?;
        let idx = self
            .schema()
            .index_of(name)
            .expect("column existence checked above");
        // Replace in place to preserve column order.
        let mut out = self.clone();
        out.replace_column_at(idx, column);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn demo() -> Table {
        Table::builder()
            .int("id", [1, 2])
            .str_opt("twitter", vec![Some("@ana".into()), None])
            .build()
            .unwrap()
    }

    #[test]
    fn with_column_adds_udf_column() {
        let t = demo()
            .with_column("has_twitter", |r| Value::Bool(!r.is_null("twitter")))
            .unwrap();
        assert_eq!(t.get(0, "has_twitter").unwrap(), Value::Bool(true));
        assert_eq!(t.get(1, "has_twitter").unwrap(), Value::Bool(false));
    }

    #[test]
    fn with_column_replaces_existing() {
        let t = demo()
            .with_column("id", |r| Value::Int(r.int("id").unwrap() * 10))
            .unwrap();
        assert_eq!(t.get(1, "id").unwrap(), Value::Int(20));
        assert_eq!(t.num_columns(), 2);
        // The replaced column moves to the end of the schema.
        assert_eq!(t.schema().names(), vec!["twitter", "id"]);
    }

    #[test]
    fn with_column_mixed_types_error() {
        let r = demo().with_column("bad", |r| {
            if r.index() == 0 {
                Value::Int(1)
            } else {
                Value::from("two")
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn map_column_rewrites_cells() {
        let t = demo()
            .map_column("twitter", |v| match v {
                Value::Null => Value::from("<none>"),
                other => other,
            })
            .unwrap();
        assert_eq!(t.get(1, "twitter").unwrap(), Value::from("<none>"));
        // Column order is preserved.
        assert_eq!(t.schema().names(), vec!["id", "twitter"]);
    }

    #[test]
    fn map_column_keeps_a_leading_column_in_place() {
        let t = demo()
            .map_column("id", |v| Value::Float(v.as_float().unwrap() / 2.0))
            .unwrap();
        assert_eq!(t.schema().names(), vec!["id", "twitter"]);
        assert_eq!(t.schema().field("id").unwrap().dtype, DataType::Float);
        assert_eq!(t.column_at(0).dtype(), DataType::Float);
        assert_eq!(t.get(1, "id").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn map_column_can_change_type() {
        let t = demo()
            .map_column("id", |v| Value::Float(v.as_float().unwrap()))
            .unwrap();
        assert_eq!(t.schema().field("id").unwrap().dtype, DataType::Float);
    }
}
