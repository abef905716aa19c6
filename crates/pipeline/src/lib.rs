#![deny(missing_docs)]
//! # nde-pipeline
//!
//! Pillar 2 of the tutorial — **Debug ML pipelines** (§2.2 of the paper).
//! ML preprocessing pipelines (joins, fuzzy joins, filters, projections,
//! UDF columns, feature encoders) are expressed as logical [`plan::Plan`]s
//! over named source tables and executed by one operator walk, either
//! plainly or with **fine-grained provenance**: every output row carries
//! the exact set of source rows that produced it (a lineage monomial, the
//! why-provenance of Green, Karvounarakis & Tannen 2007).
//!
//! On top of the traced executor, the crate provides the tools the paper
//! demonstrates:
//!
//! - [`datascope`] — KNN-Shapley importance computed over a pipeline and
//!   attributed back to *source* tuples through provenance (Karlaš et al.,
//!   ICLR 2023),
//! - [`inspect`] — mlinspect-style operator inspections: row counts, null
//!   counts, and protected-group distribution shifts per operator
//!   (Grafberger et al. 2021/2022),
//! - [`arguseyes`] — ArgusEyes-style CI screening of a pipeline run for
//!   data leakage, label errors, covariate shift, and fairness gaps
//!   (Schelter et al. 2023),
//! - [`whatif`] — provenance-backed what-if analysis: apply deletions or
//!   cell repairs to source tables and obtain the updated pipeline output
//!   without (for deletions) re-running the pipeline (Grafberger et al.
//!   2023),
//! - [`dot`] — query-plan visualisation (ASCII and Graphviz DOT), the
//!   `nde.show_query_plan` of the paper's Figure 3,
//! - [`validation`] — TFX-Data-Validation-style expectation inference and
//!   batch validation with drift detection (Polyzotis et al., MLSys 2019).

pub mod arguseyes;
pub mod datascope;
pub mod dot;
pub mod error;
pub mod exec;
pub mod inspect;
pub mod plan;
pub mod provenance;
pub mod validation;
pub mod whatif;

pub use datascope::datascope_importance;
pub use error::PipelineError;
pub use exec::{Sources, TracedTable};
pub use plan::Plan;
pub use provenance::{Monomial, ProvToken};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PipelineError>;
