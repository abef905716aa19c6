//! The [`Table`]: an ordered collection of equally long columns.

use crate::column::Column;
use crate::error::TableError;
use crate::ops::join::KeyIndex;
use crate::row::RowRef;
use crate::schema::{Field, Schema};
use crate::value::Value;
use crate::Result;
use nde_quality::ColumnSketch;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A columnar table with a schema.
///
/// Each column is a shared, copy-on-write buffer: `clone`, `select`,
/// `with_column`, `map_column`, `hstack` and `concat` share every column
/// they pass through, so copying a table costs O(columns), not O(cells).
/// Writes (`set`, `column_mut`, `push_row`) copy a column only while
/// another table still shares it.
///
/// A column buffer also carries what is derived from it: the key index a
/// join builds over it and the column's quality sketch. Every table
/// sharing the buffer joins against the index without a rebuild (see
/// [`Table::inner_join`]) and profiles the column without re-sketching it
/// (see [`Table::quality_profile`]).
///
/// Rows are addressed by position. Operators that drop, duplicate or reorder
/// rows (filters, joins, sorts, sampling) have `*_traced` variants in
/// [`crate::ops`] that report the positional mapping from output rows to
/// input rows, which higher layers compose into provenance annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Arc<ColumnBuf>>,
    num_rows: usize,
}

/// A column buffer, the join key index built over it and its quality
/// sketch, each computed on first use.
///
/// Both live and die with the buffer. They are invisible to `Debug` and
/// `PartialEq`, a copy starts without them, and every write through
/// [`ColumnBuf::get_mut`] drops them.
struct ColumnBuf {
    column: Column,
    index: OnceLock<KeyIndex>,
    /// The column's sketch over `QUALITY_PROFILE_CHUNK_LEN` shards, under
    /// the name of whichever table first profiled the buffer.
    sketch: OnceLock<ColumnSketch>,
}

impl ColumnBuf {
    fn new(column: Column) -> Arc<Self> {
        Arc::new(ColumnBuf {
            column,
            index: OnceLock::new(),
            sketch: OnceLock::new(),
        })
    }

    /// The column for writing, copied first if another table shares it;
    /// its key index and sketch are dropped, since the write may change
    /// any cell.
    fn get_mut(buf: &mut Arc<Self>) -> &mut Column {
        let buf = Arc::make_mut(buf);
        buf.index.take();
        buf.sketch.take();
        &mut buf.column
    }
}

impl Clone for ColumnBuf {
    fn clone(&self) -> Self {
        ColumnBuf {
            column: self.column.clone(),
            index: OnceLock::new(),
            sketch: OnceLock::new(),
        }
    }
}

impl PartialEq for ColumnBuf {
    fn eq(&self, other: &Self) -> bool {
        self.column == other.column
    }
}

impl fmt::Debug for ColumnBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.column.fmt(f)
    }
}

impl Table {
    /// Creates an empty table with no columns and no rows.
    pub fn empty() -> Self {
        Table {
            schema: Schema::empty(),
            columns: Vec::new(),
            num_rows: 0,
        }
    }

    /// Starts a [`TableBuilder`].
    pub fn builder() -> TableBuilder {
        TableBuilder::default()
    }

    /// Creates a table from parallel `(name, column)` pairs; all columns
    /// must have equal length and unique names.
    pub fn from_columns(pairs: Vec<(String, Column)>) -> Result<Self> {
        let mut fields = Vec::with_capacity(pairs.len());
        let mut columns = Vec::with_capacity(pairs.len());
        let mut num_rows = None;
        for (name, col) in pairs {
            match num_rows {
                None => num_rows = Some(col.len()),
                Some(n) if n != col.len() => {
                    return Err(TableError::LengthMismatch {
                        expected: n,
                        found: col.len(),
                    })
                }
                _ => {}
            }
            fields.push(Field::new(name, col.dtype()));
            columns.push(ColumnBuf::new(col));
        }
        Ok(Table {
            schema: Schema::new(fields)?,
            columns,
            num_rows: num_rows.unwrap_or(0),
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Whether the table has zero rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Column lookup by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.index_of(name)?].column)
    }

    /// Mutable column lookup by name; copies the column first if another
    /// table shares it.
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        let idx = self.index_of(name)?;
        Ok(ColumnBuf::get_mut(&mut self.columns[idx]))
    }

    /// The named column and its key index, built on first use and shared
    /// by every table that holds the same column buffer.
    pub(crate) fn key_index(&self, name: &str) -> Result<(&Column, &KeyIndex)> {
        let buf = &self.columns[self.index_of(name)?];
        let index = buf.index.get_or_init(|| KeyIndex::build(&buf.column));
        Ok((&buf.column, index))
    }

    /// Each column with its sketch memo, in schema order.
    pub(crate) fn columns_with_sketch(
        &self,
    ) -> impl ExactSizeIterator<Item = (&Column, &OnceLock<ColumnSketch>)> {
        self.columns.iter().map(|c| (&c.column, &c.sketch))
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx].column
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = &Column> + Clone {
        self.columns.iter().map(|c| &c.column)
    }

    fn index_of(&self, name: &str) -> Result<usize> {
        self.schema
            .index_of(name)
            .ok_or_else(|| TableError::ColumnNotFound {
                name: name.to_owned(),
            })
    }

    /// A lightweight reference to row `idx`.
    pub fn row(&self, idx: usize) -> Result<RowRef<'_>> {
        if idx >= self.num_rows {
            return Err(TableError::RowOutOfBounds {
                idx,
                len: self.num_rows,
            });
        }
        Ok(RowRef::new(self, idx))
    }

    /// Iterates over row references.
    pub fn rows(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.num_rows).map(move |i| RowRef::new(self, i))
    }

    /// Reads the cell at (`row`, `column name`).
    pub fn get(&self, row: usize, name: &str) -> Result<Value> {
        if row >= self.num_rows {
            return Err(TableError::RowOutOfBounds {
                idx: row,
                len: self.num_rows,
            });
        }
        Ok(self.column(name)?.get(row))
    }

    /// Overwrites the cell at (`row`, `column name`).
    pub fn set(&mut self, row: usize, name: &str, value: Value) -> Result<()> {
        if row >= self.num_rows {
            return Err(TableError::RowOutOfBounds {
                idx: row,
                len: self.num_rows,
            });
        }
        self.column_mut(name)?.set(row, value)
    }

    /// Appends a column; its length must match the current row count
    /// (any length is accepted when the table has no columns yet).
    pub fn add_column(&mut self, name: impl Into<String>, column: Column) -> Result<()> {
        self.push_column(name.into(), ColumnBuf::new(column))
    }

    /// Appends column `idx` of `from`, sharing its buffer.
    pub(crate) fn add_shared_column(
        &mut self,
        name: String,
        from: &Table,
        idx: usize,
    ) -> Result<()> {
        self.push_column(name, Arc::clone(&from.columns[idx]))
    }

    fn push_column(&mut self, name: String, column: Arc<ColumnBuf>) -> Result<()> {
        let (len, dtype) = (column.column.len(), column.column.dtype());
        if !self.columns.is_empty() && len != self.num_rows {
            return Err(TableError::LengthMismatch {
                expected: self.num_rows,
                found: len,
            });
        }
        if self.columns.is_empty() {
            self.num_rows = len;
        }
        self.schema.push(Field::new(name, dtype))?;
        self.columns.push(column);
        Ok(())
    }

    /// Replaces the column at `idx` in its slot, updating its field's type.
    /// The caller guarantees the length matches.
    pub(crate) fn replace_column_at(&mut self, idx: usize, column: Column) {
        debug_assert_eq!(column.len(), self.num_rows);
        self.schema.set_dtype(idx, column.dtype());
        self.columns[idx] = ColumnBuf::new(column);
    }

    /// Removes a column by name, returning it (copied only if another
    /// table still shares it).
    pub fn drop_column(&mut self, name: &str) -> Result<Column> {
        let idx = self.index_of(name)?;
        self.schema.remove(name)?;
        Ok(Arc::unwrap_or_clone(self.columns.remove(idx)).column)
    }

    /// Renames a column.
    pub fn rename_column(&mut self, from: &str, to: impl Into<String>) -> Result<()> {
        self.schema.rename(from, to)
    }

    /// Appends a row of values in schema order.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(TableError::LengthMismatch {
                expected: self.columns.len(),
                found: values.len(),
            });
        }
        for (col, value) in self.columns.iter_mut().zip(values) {
            ColumnBuf::get_mut(col).push(value)?;
        }
        self.num_rows += 1;
        Ok(())
    }

    /// Materializes a new table containing the rows at `indices`
    /// (duplicates and arbitrary order allowed). The identity selection
    /// `0..num_rows` copies nothing: it shares every column buffer, with
    /// its key index and sketch.
    pub fn take(&self, indices: &[usize]) -> Result<Self> {
        if indices.len() == self.num_rows && indices.iter().enumerate().all(|(i, &j)| i == j) {
            return Ok(self.clone());
        }
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.num_rows) {
            return Err(TableError::RowOutOfBounds {
                idx: bad,
                len: self.num_rows,
            });
        }
        let columns = self.columns().map(|c| c.take(indices)).collect();
        Ok(Table::from_parts(
            self.schema.clone(),
            columns,
            indices.len(),
        ))
    }

    /// Assembles a table from a schema and matching columns of `num_rows`
    /// cells each; the caller guarantees the invariants.
    pub(crate) fn from_parts(schema: Schema, columns: Vec<Column>, num_rows: usize) -> Table {
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        Table {
            schema,
            columns: columns.into_iter().map(ColumnBuf::new).collect(),
            num_rows,
        }
    }

    /// The first `n` rows (fewer if the table is shorter).
    pub fn head(&self, n: usize) -> Self {
        let indices: Vec<usize> = (0..n.min(self.num_rows)).collect();
        self.take(&indices).expect("indices in bounds")
    }

    /// Projects the table to the named columns, in the given order; the
    /// projected columns are shared, not copied.
    pub fn select(&self, names: &[&str]) -> Result<Self> {
        let mut fields = Vec::with_capacity(names.len());
        let mut columns = Vec::with_capacity(names.len());
        for &name in names {
            let idx = self.index_of(name)?;
            fields.push(self.schema.fields()[idx].clone());
            columns.push(Arc::clone(&self.columns[idx]));
        }
        Ok(Table {
            schema: Schema::new(fields)?,
            // A table without columns has no rows.
            num_rows: if columns.is_empty() { 0 } else { self.num_rows },
            columns,
        })
    }

    /// Row values in schema order.
    pub fn row_values(&self, idx: usize) -> Result<Vec<Value>> {
        if idx >= self.num_rows {
            return Err(TableError::RowOutOfBounds {
                idx,
                len: self.num_rows,
            });
        }
        Ok(self.columns().map(|c| c.get(idx)).collect())
    }

    /// Total nulls across all columns.
    pub fn null_count(&self) -> usize {
        self.columns().map(Column::null_count).sum()
    }
}

/// Fluent construction of small tables (tests, examples, generators).
#[derive(Default)]
pub struct TableBuilder {
    pairs: Vec<(String, Column)>,
    error: Option<TableError>,
}

impl TableBuilder {
    /// Adds an integer column; items may be `i64` or `Option<i64>`.
    pub fn int<I, T>(mut self, name: &str, values: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Option<i64>>,
    {
        let col = Column::Int(values.into_iter().map(Into::into).collect());
        self.pairs.push((name.to_owned(), col));
        self
    }

    /// Adds a float column; items may be `f64` or `Option<f64>`.
    pub fn float<I, T>(mut self, name: &str, values: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Option<f64>>,
    {
        let col = Column::Float(values.into_iter().map(Into::into).collect());
        self.pairs.push((name.to_owned(), col));
        self
    }

    /// Adds a string column from anything stringy.
    pub fn str<I, T>(mut self, name: &str, values: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        let col = Column::Str(
            values
                .into_iter()
                .map(|v| Some(Arc::from(v.into())))
                .collect(),
        );
        self.pairs.push((name.to_owned(), col));
        self
    }

    /// Adds a string column with explicit nulls.
    pub fn str_opt<I>(mut self, name: &str, values: I) -> Self
    where
        I: IntoIterator<Item = Option<String>>,
    {
        let col = Column::Str(values.into_iter().map(|v| v.map(Arc::from)).collect());
        self.pairs.push((name.to_owned(), col));
        self
    }

    /// Adds a boolean column; items may be `bool` or `Option<bool>`.
    pub fn bool<I, T>(mut self, name: &str, values: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Option<bool>>,
    {
        let col = Column::Bool(values.into_iter().map(Into::into).collect());
        self.pairs.push((name.to_owned(), col));
        self
    }

    /// Adds a prebuilt column.
    pub fn column(mut self, name: &str, column: Column) -> Self {
        self.pairs.push((name.to_owned(), column));
        self
    }

    /// Finalizes the table, validating lengths and name uniqueness.
    pub fn build(self) -> Result<Table> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Table::from_columns(self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn demo() -> Table {
        Table::builder()
            .int("id", [1, 2, 3])
            .str("name", ["a", "b", "c"])
            .float("x", [0.1, 0.2, 0.3])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_consistent_table() {
        let t = demo();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.get(1, "name").unwrap(), Value::from("b"));
    }

    #[test]
    fn builder_rejects_ragged_columns() {
        let r = Table::builder().int("a", [1, 2]).int("b", [1]).build();
        assert!(matches!(r, Err(TableError::LengthMismatch { .. })));
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let r = Table::builder().int("a", [1]).float("a", [1.0]).build();
        assert!(matches!(r, Err(TableError::DuplicateColumn { .. })));
    }

    #[test]
    fn builder_accepts_nullable_items() {
        let t = Table::builder().int("a", [Some(1), None]).build().unwrap();
        assert_eq!(t.get(1, "a").unwrap(), Value::Null);
    }

    #[test]
    fn take_and_head() {
        let t = demo();
        let taken = t.take(&[2, 0]).unwrap();
        assert_eq!(taken.get(0, "id").unwrap(), Value::Int(3));
        assert_eq!(t.head(2).num_rows(), 2);
        assert_eq!(t.head(99).num_rows(), 3);
        assert!(t.take(&[7]).is_err());
    }

    #[test]
    fn select_projects_in_order() {
        let t = demo();
        let p = t.select(&["x", "id"]).unwrap();
        assert_eq!(p.schema().names(), vec!["x", "id"]);
        assert!(t.select(&["nope"]).is_err());
    }

    #[test]
    fn push_row_checks_arity_and_types() {
        let mut t = demo();
        t.push_row(vec![Value::Int(4), Value::from("d"), Value::Float(0.4)])
            .unwrap();
        assert_eq!(t.num_rows(), 4);
        assert!(t.push_row(vec![Value::Int(5)]).is_err());
        assert!(t
            .push_row(vec![
                Value::from("oops"),
                Value::from("d"),
                Value::Float(0.4)
            ])
            .is_err());
    }

    #[test]
    fn add_and_drop_column() {
        let mut t = demo();
        t.add_column("flag", Column::Bool(vec![Some(true); 3]))
            .unwrap();
        assert_eq!(t.num_columns(), 4);
        assert!(t.add_column("short", Column::Int(vec![Some(1)])).is_err());
        let dropped = t.drop_column("flag").unwrap();
        assert_eq!(dropped.dtype(), DataType::Bool);
        assert!(t.drop_column("flag").is_err());
    }

    #[test]
    fn add_column_to_empty_table_sets_row_count() {
        let mut t = Table::empty();
        t.add_column("a", Column::Int(vec![Some(1), Some(2)]))
            .unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn set_cell() {
        let mut t = demo();
        t.set(0, "x", Value::Float(9.0)).unwrap();
        assert_eq!(t.get(0, "x").unwrap(), Value::Float(9.0));
        assert!(t.set(9, "x", Value::Float(0.0)).is_err());
    }

    #[test]
    fn null_count_sums_columns() {
        let t = Table::builder()
            .int("a", [Some(1), None])
            .str_opt("b", vec![None, Some("x".into())])
            .build()
            .unwrap();
        assert_eq!(t.null_count(), 2);
    }

    fn shares(a: &Table, b: &Table, name: &str) -> bool {
        std::ptr::eq(a.column(name).unwrap(), b.column(name).unwrap())
    }

    #[test]
    fn clone_and_select_share_column_buffers() {
        let t = demo();
        let c = t.clone();
        for name in ["id", "name", "x"] {
            assert!(shares(&t, &c, name));
        }
        let p = t.select(&["x", "name"]).unwrap();
        assert!(shares(&t, &p, "x"));
        assert!(shares(&t, &p, "name"));
    }

    #[test]
    fn with_column_shares_untouched_columns() {
        let t = demo();
        let w = t
            .with_column("y", |r| Value::Int(r.index() as i64))
            .unwrap();
        for name in ["id", "name", "x"] {
            assert!(shares(&t, &w, name));
        }
        let m = t.map_column("x", |v| v).unwrap();
        assert!(shares(&t, &m, "id"));
        assert!(!shares(&t, &m, "x"));
    }

    #[test]
    fn hstack_shares_both_sides() {
        let t = demo();
        let other = Table::builder()
            .bool("flag", [true, false, true])
            .build()
            .unwrap();
        let h = t.hstack(&other).unwrap();
        assert!(shares(&t, &h, "name"));
        assert!(shares(&other, &h, "flag"));
    }

    #[test]
    fn set_on_a_clone_copies_only_that_column() {
        let t = demo();
        let mut c = t.clone();
        c.set(0, "name", Value::from("zed")).unwrap();
        assert_eq!(t.get(0, "name").unwrap(), Value::from("a"));
        assert_eq!(c.get(0, "name").unwrap(), Value::from("zed"));
        assert!(!shares(&t, &c, "name"));
        assert!(shares(&t, &c, "id"));
        assert!(shares(&t, &c, "x"));
    }

    #[test]
    fn writes_to_an_unshared_column_stay_in_place() {
        let mut t = demo();
        let before: *const Column = t.column("id").unwrap();
        t.set(1, "id", Value::Int(7)).unwrap();
        assert!(std::ptr::eq(before, t.column("id").unwrap()));
        let c = t.clone();
        t.push_row(vec![Value::Int(4), Value::from("d"), Value::Float(0.4)])
            .unwrap();
        assert_eq!((c.num_rows(), t.num_rows()), (3, 4));
        assert_eq!(c.get(1, "id").unwrap(), Value::Int(7));
    }

    #[test]
    fn drop_column_of_a_shared_table_leaves_the_other_intact() {
        let t = demo();
        let mut c = t.clone();
        let name = c.drop_column("name").unwrap();
        assert_eq!(name, *t.column("name").unwrap());
        assert_eq!(t.num_columns(), 3);
        assert_eq!(c.schema().names(), vec!["id", "x"]);
    }

    fn index_built(t: &Table, name: &str) -> bool {
        t.columns[t.index_of(name).unwrap()].index.get().is_some()
    }

    #[test]
    fn clones_share_the_built_key_index() {
        let t = demo();
        let before = t.clone();
        let index: *const KeyIndex = t.key_index("id").unwrap().1;
        let after = t.clone();
        for c in [&before, &after] {
            assert!(Arc::ptr_eq(&t.columns[0], &c.columns[0]));
            assert!(index_built(c, "id"));
            assert!(std::ptr::eq(index, c.key_index("id").unwrap().1));
        }
        let projected = t.select(&["name", "id"]).unwrap();
        assert!(std::ptr::eq(index, projected.key_index("id").unwrap().1));
        assert!(!index_built(&t, "name"));
    }

    #[test]
    fn every_write_drops_the_key_index() {
        let mut t = demo();
        t.key_index("id").unwrap();
        t.set(0, "id", Value::Int(9)).unwrap();
        assert!(!index_built(&t, "id"));
        t.key_index("id").unwrap();
        t.column_mut("id").unwrap();
        assert!(!index_built(&t, "id"));
        t.key_index("id").unwrap();
        t.push_row(vec![Value::Int(4), Value::from("d"), Value::Float(0.4)])
            .unwrap();
        assert!(!index_built(&t, "id"));
    }

    fn sketched(t: &Table, name: &str) -> bool {
        t.columns[t.index_of(name).unwrap()].sketch.get().is_some()
    }

    #[test]
    fn every_write_drops_the_sketch_memo() {
        let mut t = demo();
        t.quality_profile();
        assert!(["id", "name", "x"].iter().all(|n| sketched(&t, n)));
        t.set(0, "id", Value::Int(9)).unwrap();
        assert!(!sketched(&t, "id"));
        assert!(sketched(&t, "name"));
        t.quality_profile();
        t.column_mut("id").unwrap();
        assert!(!sketched(&t, "id"));
        t.quality_profile();
        t.push_row(vec![Value::Int(4), Value::from("d"), Value::Float(0.4)])
            .unwrap();
        assert!(["id", "name", "x"].iter().all(|n| !sketched(&t, n)));
        assert_eq!(
            t.quality_profile(),
            t.quality_profile_sharded(1, crate::profile::QUALITY_PROFILE_CHUNK_LEN)
        );
    }

    #[test]
    fn a_write_to_a_shared_column_leaves_the_other_sketch_intact() {
        let t = demo();
        t.quality_profile();
        let mut c = t.clone();
        assert!(sketched(&c, "id"));
        c.set(0, "id", Value::Int(9)).unwrap();
        assert!(!sketched(&c, "id"));
        assert!(sketched(&t, "id"));
        assert_eq!(
            c.quality_profile().column("id").unwrap().moments.max,
            Some(9.0)
        );
        assert_eq!(
            t.quality_profile().column("id").unwrap().moments.max,
            Some(3.0)
        );
    }

    #[test]
    fn the_sharded_profile_neither_reads_nor_writes_the_memo() {
        let t = demo();
        t.quality_profile_sharded(2, 1);
        assert!(!sketched(&t, "id"));
    }

    #[test]
    fn an_identity_take_shares_buffers_and_what_they_carry() {
        let t = demo();
        t.key_index("id").unwrap();
        t.quality_profile();
        let same = t.take(&[0, 1, 2]).unwrap();
        for (a, b) in t.columns.iter().zip(&same.columns) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert!(index_built(&same, "id") && sketched(&same, "x"));
        let reordered = t.take(&[0, 2, 1]).unwrap();
        assert!(!index_built(&reordered, "id") && !sketched(&reordered, "x"));
        assert!(!Arc::ptr_eq(
            &t.columns[0],
            &t.take(&[0, 1]).unwrap().columns[0]
        ));
        assert!(t.take(&[0, 1, 3]).is_err());
    }

    #[test]
    fn a_write_to_a_shared_column_leaves_the_other_index_intact() {
        let t = demo();
        let index: *const KeyIndex = t.key_index("id").unwrap().1;
        let mut c = t.clone();
        c.set(0, "id", Value::Int(9)).unwrap();
        assert!(!index_built(&c, "id"));
        assert!(std::ptr::eq(index, t.key_index("id").unwrap().1));
    }

    #[test]
    fn the_key_index_is_invisible_to_eq_and_debug() {
        let cold = Table::builder().int("id", [1, 2, 3]).build().unwrap();
        let warm = demo().select(&["id"]).unwrap();
        warm.key_index("id").unwrap();
        assert_eq!(warm, cold);
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    }

    #[test]
    fn the_sketch_memo_is_invisible_to_eq_and_debug() {
        let warm = demo();
        // Fresh buffers under a clone of the same schema.
        let cold = warm.concat(&warm.head(0)).unwrap();
        warm.quality_profile();
        assert!(sketched(&warm, "name") && !sketched(&cold, "name"));
        assert_eq!(warm, cold);
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    }

    #[test]
    fn key_index_of_22k_unique_keys_is_under_a_mebibyte() {
        let n = 22_000;
        let t = Table::builder().int("k", 0..n).build().unwrap();
        let bytes = t.key_index("k").unwrap().1.heap_bytes();
        assert!(bytes < 1 << 20, "{bytes} bytes");
    }

    #[test]
    fn tables_are_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Table>();
    }

    #[test]
    fn row_values_in_schema_order() {
        let t = demo();
        let row = t.row_values(0).unwrap();
        assert_eq!(
            row,
            vec![Value::Int(1), Value::from("a"), Value::Float(0.1)]
        );
    }
}
