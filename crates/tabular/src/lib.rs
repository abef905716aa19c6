#![deny(missing_docs)]
//! # nde-tabular
//!
//! A small, self-contained columnar table engine that plays the role Pandas
//! plays in the paper's hands-on session: the substrate on which ML
//! preprocessing pipelines (joins, filters, projections, user-defined
//! columns, encoders) are expressed.
//!
//! Design goals, in order:
//!
//! 1. **Row identity & lineage.** Every operator has a `*_traced` variant
//!    that reports which input rows produced each output row. The
//!    `nde-pipeline` crate composes these traces into per-row lineage
//!    monomials, which is what makes source-level data debugging
//!    (Datascope, mlinspect, ArgusEyes) possible.
//! 2. **Columnar storage.** Each column is a typed vector with explicit
//!    nullability, so scans, filters and encoders touch contiguous memory.
//! 3. **No dependencies.** The engine is std-only.
//!
//! ## Quick tour
//!
//! ```
//! use nde_tabular::Table;
//!
//! let people = Table::builder()
//!     .int("person_id", [1, 2, 3])
//!     .str("name", ["ana", "bo", "cy"])
//!     .float("score", [0.9, 0.4, 0.7])
//!     .build()
//!     .unwrap();
//!
//! let jobs = Table::builder()
//!     .int("person_id", [1, 2, 3])
//!     .str("sector", ["healthcare", "finance", "healthcare"])
//!     .build()
//!     .unwrap();
//!
//! let joined = people.inner_join(&jobs, "person_id", "person_id").unwrap();
//! let healthcare = joined
//!     .filter(|row| row.str("sector") == Some("healthcare"))
//!     .unwrap();
//! assert_eq!(healthcare.num_rows(), 2);
//! ```

pub mod column;
pub mod csv;
pub mod display;
pub mod error;
pub mod ops;
pub mod profile;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use column::Column;
pub use error::TableError;
pub use ops::aggregate::{AggExpr, AggFn};
pub use ops::join::JoinType;
pub use ops::sample::SplitMix64;
pub use row::RowRef;
pub use schema::{Field, Schema};
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TableError>;
