#![deny(missing_docs)]
//! # nde-importance
//!
//! Pillar 1 of the tutorial — **Identify data errors** via data importance
//! (§2.1 of the paper). Implements the survey's method families:
//!
//! - [`loo`] — leave-one-out scores,
//! - [`semivalue`] — a unified semivalue framework: exact Shapley/Banzhaf by
//!   enumeration, Truncated-Monte-Carlo (TMC) permutation sampling
//!   (Ghorbani & Zou 2019), Beta Shapley (Kwon & Zou 2021), and the
//!   maximum-sample-reuse Data Banzhaf estimator (Wang & Jia 2023),
//! - [`mod@knn_shapley`] — the exact, `O(n log n)`-per-query KNN-Shapley of
//!   Jia et al. (2019), the tutorial's main workhorse,
//! - [`influence`] — gradient-based influence functions for logistic models
//!   (Koh & Liang 2017),
//! - [`confident`] — Confident Learning label-error detection
//!   (Northcutt et al. 2021),
//! - [`aum`] — Area-Under-the-Margin ranking (Pleiss et al. 2020),
//! - [`gopher`] — fairness-oriented subset explanations in the spirit of
//!   Gopher (Pradhan et al. 2022),
//! - [`group`] — group/cluster Shapley over partitions,
//! - [`amortized`] — model-based amortization of expensive attribution
//!   scores (Covert et al. 2024),
//! - [`rag`] — corpus valuation for retrieval-augmented generation
//!   (Lyu et al. 2023).
//!
//! ## Conventions
//!
//! Every method returns one `f64` per training example. **Lower scores mean
//! more harmful**: for value-based methods the score is the example's
//! (estimated) contribution to validation quality, so corrupted examples
//! tend to have *negative* values; detector-style methods (confident
//! learning, AUM) are rescaled to follow the same convention. Use
//! [`rank::rank_ascending`] to get a "most suspicious first" ordering.

pub mod amortized;
pub mod aum;
pub mod confident;
pub mod gopher;
pub mod group;
pub mod influence;
pub mod knn_shapley;
pub mod loo;
pub mod rag;
pub mod rank;
pub mod semivalue;
pub mod utility;

pub use aum::{aum_scores, AumConfig};
pub use confident::{confident_learning, ConfidentReport};
pub use influence::{influence_scores, InfluenceConfig};
pub use knn_shapley::{knn_shapley, knn_utility};
pub use loo::leave_one_out;
pub use rank::{rank_ascending, rank_descending, spearman};
pub use semivalue::{
    banzhaf_msr, beta_shapley, exact_banzhaf, exact_shapley, tmc_shapley, ImportanceError, McConfig,
};
pub use utility::{CachedUtility, ModelUtility, Utility, UtilityMetric};
