//! Typed, nullable columnar storage.

use crate::error::TableError;
use crate::value::{DataType, Value};
use crate::Result;
use std::sync::Arc;

/// A single column: a typed vector with explicit nullability.
///
/// Cells are stored as `Option<T>` in contiguous vectors, so scans over a
/// column touch contiguous memory and the null mask is carried inline.
/// String cells are shared, immutable `Arc<str>` buffers: gathering,
/// appending or joining rows copies a pointer per cell, never the text,
/// and a `String` is converted once when it enters a column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// Float column.
    Float(Vec<Option<f64>>),
    /// String column; each cell is a shared, immutable buffer.
    Str(Vec<Option<Arc<str>>>),
    /// Boolean column.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// Creates a column of `len` nulls with the given type.
    pub fn nulls(dtype: DataType, len: usize) -> Self {
        match dtype {
            DataType::Int => Column::Int(vec![None; len]),
            DataType::Float => Column::Float(vec![None; len]),
            DataType::Str => Column::Str(vec![None; len]),
            DataType::Bool => Column::Bool(vec![None; len]),
        }
    }

    /// Builds a column from cell values, inferring the type from the first
    /// non-null value. An all-null input defaults to a string column.
    pub fn from_values(values: &[Value]) -> Result<Self> {
        let dtype = values
            .iter()
            .find_map(Value::dtype)
            .unwrap_or(DataType::Str);
        let mut col = Column::empty(dtype);
        col.reserve(values.len());
        for v in values {
            col.push(v.clone())?;
        }
        Ok(col)
    }

    /// The data type of this column.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserves capacity for `additional` more cells.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Column::Int(v) => v.reserve(additional),
            Column::Float(v) => v.reserve(additional),
            Column::Str(v) => v.reserve(additional),
            Column::Bool(v) => v.reserve(additional),
        }
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.iter().filter(|c| c.is_none()).count(),
            Column::Float(v) => v.iter().filter(|c| c.is_none()).count(),
            Column::Str(v) => v.iter().filter(|c| c.is_none()).count(),
            Column::Bool(v) => v.iter().filter(|c| c.is_none()).count(),
        }
    }

    /// Reads the cell at `idx` as a [`Value`]. Returns `Value::Null` for
    /// null cells; panics if `idx` is out of bounds (an internal invariant:
    /// all public table APIs bounds-check first).
    pub fn get(&self, idx: usize) -> Value {
        match self {
            Column::Int(v) => v[idx].map_or(Value::Null, Value::Int),
            Column::Float(v) => v[idx].map_or(Value::Null, Value::Float),
            Column::Str(v) => v[idx]
                .as_deref()
                .map_or(Value::Null, |s| Value::Str(s.to_owned())),
            Column::Bool(v) => v[idx].map_or(Value::Null, Value::Bool),
        }
    }

    /// Whether the cell at `idx` is null.
    pub fn is_null(&self, idx: usize) -> bool {
        match self {
            Column::Int(v) => v[idx].is_none(),
            Column::Float(v) => v[idx].is_none(),
            Column::Str(v) => v[idx].is_none(),
            Column::Bool(v) => v[idx].is_none(),
        }
    }

    /// Appends a value, coercing `Int` into `Float` columns. Returns a
    /// [`TableError::TypeMismatch`] for incompatible types.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(Some(x)),
            (Column::Float(v), Value::Int(x)) => v.push(Some(x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Str(x)) => v.push(Some(x.into())),
            (Column::Str(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(x)) => v.push(Some(x)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (col, value) => {
                return Err(TableError::TypeMismatch {
                    expected: col.dtype(),
                    found: value.dtype().map(|d| d.to_string()).unwrap_or_default(),
                })
            }
        }
        Ok(())
    }

    /// Overwrites the cell at `idx`. Same coercion rules as [`Column::push`].
    pub fn set(&mut self, idx: usize, value: Value) -> Result<()> {
        if idx >= self.len() {
            return Err(TableError::RowOutOfBounds {
                idx,
                len: self.len(),
            });
        }
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v[idx] = Some(x),
            (Column::Int(v), Value::Null) => v[idx] = None,
            (Column::Float(v), Value::Float(x)) => v[idx] = Some(x),
            (Column::Float(v), Value::Int(x)) => v[idx] = Some(x as f64),
            (Column::Float(v), Value::Null) => v[idx] = None,
            (Column::Str(v), Value::Str(x)) => v[idx] = Some(x.into()),
            (Column::Str(v), Value::Null) => v[idx] = None,
            (Column::Bool(v), Value::Bool(x)) => v[idx] = Some(x),
            (Column::Bool(v), Value::Null) => v[idx] = None,
            (col, value) => {
                return Err(TableError::TypeMismatch {
                    expected: col.dtype(),
                    found: value.dtype().map(|d| d.to_string()).unwrap_or_default(),
                })
            }
        }
        Ok(())
    }

    /// Materializes a new column containing the cells at `indices`
    /// (duplicates and arbitrary order allowed — this is the `take` kernel
    /// used by filters, joins and sorts). String cells are shared with
    /// `self`, not copied.
    pub fn take(&self, indices: &[usize]) -> Self {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Appends all cells of `other` (string cells shared, not copied);
    /// errors if the types differ.
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Float(a), Column::Float(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend(b.iter().cloned()),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(TableError::TypeMismatch {
                    expected: a.dtype(),
                    found: b.dtype().to_string(),
                })
            }
        }
        Ok(())
    }

    /// Iterates over the cells as [`Value`]s.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Typed view of an integer column.
    pub fn as_int(&self) -> Option<&[Option<i64>]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view of a float column.
    pub fn as_float(&self) -> Option<&[Option<f64>]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view of a string column; `cell.as_deref()` reads a cell as
    /// `Option<&str>`.
    pub fn as_str(&self) -> Option<&[Option<Arc<str>>]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view of a boolean column.
    pub fn as_bool(&self) -> Option<&[Option<bool>]> {
        match self {
            Column::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view: every non-null cell widened to `f64`, nulls as `None`.
    /// Errors for non-numeric columns.
    pub fn to_f64(&self) -> Result<Vec<Option<f64>>> {
        match self {
            Column::Float(v) => Ok(v.clone()),
            Column::Int(v) => Ok(v.iter().map(|c| c.map(|x| x as f64)).collect()),
            Column::Bool(v) => Ok(v
                .iter()
                .map(|c| c.map(|x| if x { 1.0 } else { 0.0 }))
                .collect()),
            Column::Str(_) => Err(TableError::TypeMismatch {
                expected: DataType::Float,
                found: DataType::Str.to_string(),
            }),
        }
    }

    /// Mean of the non-null numeric cells, or `None` if there are none.
    pub fn mean(&self) -> Option<f64> {
        let vals = self.to_f64().ok()?;
        let (mut sum, mut n) = (0.0, 0usize);
        for v in vals.into_iter().flatten() {
            sum += v;
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut col = Column::empty(DataType::Int);
        col.push(Value::Int(1)).unwrap();
        col.push(Value::Null).unwrap();
        assert_eq!(col.get(0), Value::Int(1));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.null_count(), 1);
    }

    #[test]
    fn push_type_mismatch() {
        let mut col = Column::empty(DataType::Int);
        assert!(col.push(Value::from("x")).is_err());
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut col = Column::empty(DataType::Float);
        col.push(Value::Int(3)).unwrap();
        assert_eq!(col.get(0), Value::Float(3.0));
    }

    #[test]
    fn take_reorders_and_duplicates() {
        let col = Column::Int(vec![Some(10), Some(20), None]);
        let taken = col.take(&[2, 0, 0]);
        assert_eq!(taken, Column::Int(vec![None, Some(10), Some(10)]));
    }

    #[test]
    fn from_values_infers_type() {
        let col = Column::from_values(&[Value::Null, Value::Float(1.5)]).unwrap();
        assert_eq!(col.dtype(), DataType::Float);
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn from_values_all_null_defaults_to_str() {
        let col = Column::from_values(&[Value::Null, Value::Null]).unwrap();
        assert_eq!(col.dtype(), DataType::Str);
    }

    #[test]
    fn to_f64_widens_ints_and_bools() {
        let col = Column::Int(vec![Some(2), None]);
        assert_eq!(col.to_f64().unwrap(), vec![Some(2.0), None]);
        let col = Column::Bool(vec![Some(true), Some(false)]);
        assert_eq!(col.to_f64().unwrap(), vec![Some(1.0), Some(0.0)]);
        assert!(Column::Str(vec![]).to_f64().is_err());
    }

    #[test]
    fn mean_ignores_nulls() {
        let col = Column::Float(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(col.mean(), Some(2.0));
        assert_eq!(Column::Float(vec![None]).mean(), None);
    }

    #[test]
    fn set_overwrites_and_bounds_checks() {
        let mut col = Column::Int(vec![Some(1)]);
        col.set(0, Value::Null).unwrap();
        assert!(col.is_null(0));
        assert!(col.set(5, Value::Int(1)).is_err());
    }

    #[test]
    fn extend_from_matches_types() {
        let mut a = Column::Int(vec![Some(1)]);
        a.extend_from(&Column::Int(vec![Some(2)])).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.extend_from(&Column::Float(vec![])).is_err());
    }
}
