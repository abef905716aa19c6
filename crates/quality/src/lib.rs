#![deny(missing_docs)]
//! Streaming data-quality observability for the navigating-data-errors
//! workspace — the paper's "Identify" pillar as a *monitoring system*.
//!
//! Where `nde-trace` watches the **code** (spans, counters, wall times),
//! this crate watches the **data**: mergeable per-column profile sketches
//! collected at pipeline operator boundaries, and drift scores that
//! compare a run against a committed baseline. The same sketches are the
//! workspace's only column summary: data validation and pipeline
//! inspections in `nde-pipeline` read them too. Everything is std-only
//! and deterministic — the same cells, pushed or merged in the same
//! order, always produce the same bits, which is what lets shard
//! profiles from `nde-parallel` chunks combine identically for any
//! `NDE_THREADS` value.
//!
//! Four sketch primitives compose into a [`ColumnSketch`]:
//!
//! 1. [`Moments`] — count / nulls / min / max / mean / M2 (Welford
//!    updates, Chan merges).
//! 2. [`QuantileSketch`] — a KLL-style compactor whose coin flips are a
//!    deterministic parity counter; exact on small columns, mergeable,
//!    and the source of approximate p50/p95/p99 and KS statistics.
//! 3. [`HeavyHitters`] — space-saving top-k for categoricals with
//!    lexicographic tie-breaking; the source of PSI scores and, while
//!    unsaturated, of exact categorical domains.
//! 4. [`DistinctSketch`] — k-minimum-values over XOR-folded FNV hashes;
//!    merge is a set union, so it is order-independent outright.
//!
//! The **collection gate** ([`quality_mode`], `NDE_QUALITY` env var)
//! mirrors `NDE_TRACE`: `off` (default, one relaxed atomic load per
//! site), `final` (profile each plan's output), `on`/`full` (profile
//! every operator boundary). Collected profiles land in a process
//! registry ([`take_profiles`]) and — when the trace JSON sink is live —
//! as `{"type":"profile"}` records in the same trajectory file as spans.
//!
//! The **drift layer** ([`diff_profiles`]) scores a current profile
//! against a baseline: PSI for categoricals, a two-sample KS statistic
//! from the quantile sketches, and null-rate / distinct deltas, each
//! with two-tier warn/fail thresholds ([`DriftThresholds`]). The
//! `quality_report` binary in `nde-bench` turns this into a CI gate over
//! a committed `PROFILE_baseline.json`.
//!
//! Profiling is strictly observational: enabling any mode never changes
//! a computed result, only what gets reported about it (enforced by the
//! determinism suite running under `NDE_QUALITY=on`).
//!
//! # Example
//!
//! ```
//! use nde_quality::{ColumnSketch, TableProfile, diff_profiles, DriftThresholds, Severity};
//!
//! let mut base = ColumnSketch::numeric("rating");
//! let mut cur = ColumnSketch::numeric("rating");
//! for i in 0..1000 {
//!     base.push_num(Some(i as f64 / 100.0));
//!     // Current traffic: same distribution, but a fifth of it went missing.
//!     cur.push_num(if i % 5 == 0 { None } else { Some(i as f64 / 100.0) });
//! }
//! let base = TableProfile { rows: 1000, columns: vec![base] };
//! let cur = TableProfile { rows: 1000, columns: vec![cur] };
//! let report = diff_profiles(&base, &cur);
//! assert_eq!(report.severity(&DriftThresholds::default()), Severity::Fail);
//! assert!((report.columns[0].null_delta - 0.2).abs() < 1e-9);
//! ```

mod distinct;
mod drift;
mod gate;
mod heavy;
mod moments;
mod profile;
mod quantile;

pub use distinct::{hash_bytes, hash_f64, hash_str, DistinctSketch, DEFAULT_DISTINCT_CAPACITY};
pub use drift::{
    column_drift, diff_profiles, psi, ColumnDrift, DriftReport, DriftThresholds, Severity,
};
pub use gate::{
    configure_quality, parse_profile_record, profiles_pending, quality_enabled, quality_mode,
    record_profile, reset_quality, take_profiles, OpProfile, QualityMode,
};
pub use heavy::{HeavyHitters, DEFAULT_HEAVY_CAPACITY};
pub use moments::Moments;
pub use profile::{ColumnKind, ColumnSketch, TableProfile};
pub use quantile::{QuantileSketch, DEFAULT_QUANTILE_K};
