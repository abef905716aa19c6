//! Table schemas: ordered, named, typed fields.

use crate::error::TableError;
use crate::value::DataType;
use crate::Result;
use std::collections::HashMap;
use std::fmt;

/// A named, typed column descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within a schema.
    pub name: String,
    /// Column data type.
    pub dtype: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.dtype)
    }
}

/// An ordered collection of uniquely named fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
    index: HashMap<String, usize>,
}

impl Schema {
    /// Creates a schema from fields; errors on duplicate names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, field) in fields.iter().enumerate() {
            if index.insert(field.name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn {
                    name: field.name.clone(),
                });
            }
        }
        Ok(Schema { fields, index })
    }

    /// Creates an empty schema.
    pub fn empty() -> Self {
        Schema::default()
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether there are no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Field lookup by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Whether a column with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Appends a field; errors on duplicate name.
    pub fn push(&mut self, field: Field) -> Result<()> {
        if self.contains(&field.name) {
            return Err(TableError::DuplicateColumn { name: field.name });
        }
        self.index.insert(field.name.clone(), self.fields.len());
        self.fields.push(field);
        Ok(())
    }

    /// Changes the type of the field at `idx`.
    pub(crate) fn set_dtype(&mut self, idx: usize, dtype: DataType) {
        self.fields[idx].dtype = dtype;
    }

    /// Removes a field by name, returning it. Rebuilds the name index.
    pub fn remove(&mut self, name: &str) -> Result<Field> {
        let idx = self
            .index_of(name)
            .ok_or_else(|| TableError::ColumnNotFound {
                name: name.to_owned(),
            })?;
        let field = self.fields.remove(idx);
        self.index.clear();
        for (i, f) in self.fields.iter().enumerate() {
            self.index.insert(f.name.clone(), i);
        }
        Ok(field)
    }

    /// Renames a field.
    pub fn rename(&mut self, from: &str, to: impl Into<String>) -> Result<()> {
        let to = to.into();
        if self.contains(&to) {
            return Err(TableError::DuplicateColumn { name: to });
        }
        let idx = self
            .index_of(from)
            .ok_or_else(|| TableError::ColumnNotFound {
                name: from.to_owned(),
            })?;
        self.index.remove(from);
        self.fields[idx].name = to.clone();
        self.index.insert(to, idx);
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicates() {
        let r = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Str),
        ]);
        assert!(matches!(r, Err(TableError::DuplicateColumn { .. })));
    }

    #[test]
    fn lookup_by_name() {
        let s = abc();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.field("c").unwrap().dtype, DataType::Float);
        assert!(!s.contains("z"));
    }

    #[test]
    fn remove_rebuilds_index() {
        let mut s = abc();
        s.remove("b").unwrap();
        assert_eq!(s.index_of("c"), Some(1));
        assert_eq!(s.len(), 2);
        assert!(s.remove("b").is_err());
    }

    #[test]
    fn rename_updates_index() {
        let mut s = abc();
        s.rename("a", "alpha").unwrap();
        assert!(s.contains("alpha"));
        assert!(!s.contains("a"));
        assert!(s.rename("b", "alpha").is_err());
        assert!(s.rename("nope", "x").is_err());
    }
}
