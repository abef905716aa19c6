//! Relational operators over [`crate::Table`].
//!
//! Every operator that changes the row set has a `*_traced` variant that
//! additionally reports, for each output row, which input row(s) produced
//! it. These traces are the raw material from which `nde-pipeline` builds
//! per-row lineage monomials.

pub mod aggregate;
pub mod concat;
pub mod filter;
pub mod fuzzy_join;
pub mod join;
pub mod map;
pub mod sample;
pub mod sort;
