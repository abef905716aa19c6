//! Schema/statistics validation for ML data (Polyzotis, Zinkevich, Roy,
//! Breck & Whang, "Data validation for machine learning", MLSys 2019 —
//! the TFX Data Validation design the survey's §2.2 covers): infer
//! *expectations* from a reference (training) table, then validate any
//! other batch — new training data, a serving slice — against them,
//! reporting anomalies and train/serving drift.

use nde_quality::{ColumnKind, ColumnSketch};
use nde_tabular::{DataType, Table};

/// Per-column expectations inferred from a reference table.
#[derive(Debug, Clone)]
pub struct ColumnExpectation {
    /// Column name.
    pub name: String,
    /// Expected type.
    pub dtype: DataType,
    /// Maximum tolerated null fraction.
    pub max_null_fraction: f64,
    /// Tolerated numeric range (slack-widened), when numeric.
    pub range: Option<(f64, f64)>,
    /// Allowed categorical domain, when a string column with at most
    /// [`nde_quality::DEFAULT_HEAVY_CAPACITY`] distinct values.
    pub domain: Option<Vec<String>>,
    /// The reference column's sketch, when numeric with at least one
    /// non-null value: its moments drive the mean-drift check and its
    /// quantile sketch the distribution-shape (two-sample
    /// Kolmogorov–Smirnov) check.
    pub reference: Option<ColumnSketch>,
}

/// The inferred expectation set.
#[derive(Debug, Clone)]
pub struct Expectations {
    /// One expectation per reference column, in schema order.
    pub columns: Vec<ColumnExpectation>,
}

/// Inference knobs.
#[derive(Debug, Clone)]
pub struct ValidationConfig {
    /// Numeric ranges are widened by this fraction of their span.
    pub range_slack: f64,
    /// Extra tolerated null fraction on top of the observed one.
    pub null_slack: f64,
    /// Mean-drift threshold, in reference standard deviations.
    pub drift_threshold: f64,
    /// Two-sample Kolmogorov–Smirnov distance threshold for the
    /// distribution-shape check (1.0 disables it).
    pub ks_threshold: f64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            range_slack: 0.1,
            null_slack: 0.05,
            drift_threshold: 0.5,
            ks_threshold: 0.35,
        }
    }
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// A reference column is absent from the validated table.
    MissingColumn {
        /// The absent column.
        name: String,
    },
    /// The validated table has a column the reference did not.
    UnexpectedColumn {
        /// The extra column.
        name: String,
    },
    /// Column type changed.
    TypeMismatch {
        /// Column name.
        name: String,
        /// Expected type.
        expected: DataType,
        /// Found type.
        found: DataType,
    },
    /// Null fraction above tolerance.
    NullRate {
        /// Column name.
        name: String,
        /// Observed null fraction.
        observed: f64,
        /// Tolerated maximum.
        allowed: f64,
    },
    /// Numeric values outside the tolerated range.
    OutOfRange {
        /// Column name.
        name: String,
        /// Number of offending cells.
        count: usize,
        /// Tolerated range.
        range: (f64, f64),
    },
    /// String values outside the learned categorical domain.
    UnseenCategory {
        /// Column name.
        name: String,
        /// Offending values (deduplicated, capped).
        values: Vec<String>,
    },
    /// The column mean drifted from the reference (train/serving skew).
    Drift {
        /// Column name.
        name: String,
        /// Drift magnitude in reference standard deviations.
        magnitude: f64,
    },
    /// The column's *distribution shape* drifted (large two-sample
    /// Kolmogorov–Smirnov distance) even if the mean looks stable.
    DistributionShift {
        /// Column name.
        name: String,
        /// KS distance in `[0, 1]`.
        ks: f64,
    },
}

/// Infers expectations from a reference table.
///
/// ```
/// use nde_pipeline::validation::{infer_expectations, validate, Anomaly, ValidationConfig};
/// use nde_tabular::Table;
///
/// let reference = Table::builder()
///     .float("rating", [1.0, 2.0, 3.0, 4.0, 5.0])
///     .build()
///     .unwrap();
/// let cfg = ValidationConfig::default();
/// let expectations = infer_expectations(&reference, &cfg);
///
/// // A serving batch with an absurd rating trips the range check.
/// let batch = Table::builder().float("rating", [2.0, 99.0]).build().unwrap();
/// let anomalies = validate(&batch, &expectations, &cfg);
/// assert!(anomalies
///     .iter()
///     .any(|a| matches!(a, Anomaly::OutOfRange { count: 1, .. })));
/// ```
pub fn infer_expectations(reference: &Table, cfg: &ValidationConfig) -> Expectations {
    let profile = reference.quality_profile();
    let columns = reference
        .schema()
        .fields()
        .iter()
        .zip(profile.columns)
        .map(|(field, sketch)| {
            let range = match (sketch.moments.min, sketch.moments.max) {
                (Some(lo), Some(hi)) => {
                    let slack = (hi - lo).abs().max(1e-9) * cfg.range_slack;
                    Some((lo - slack, hi + slack))
                }
                _ => None,
            };
            // An unsaturated heavy-hitters sketch holds every distinct
            // value; a saturated one means the column is too high-
            // cardinality to have a domain.
            let domain = (sketch.kind == ColumnKind::Categorical && !sketch.heavy.saturated())
                .then(|| sketch.heavy.keys().map(str::to_owned).collect());
            ColumnExpectation {
                name: field.name.clone(),
                dtype: field.dtype,
                max_null_fraction: (sketch.null_rate() + cfg.null_slack).min(1.0),
                range,
                domain,
                reference: (sketch.moments.present() > 0).then_some(sketch),
            }
        })
        .collect();
    Expectations { columns }
}

/// Validates a table against expectations, returning every anomaly found
/// (empty = the batch passes).
pub fn validate(
    table: &Table,
    expectations: &Expectations,
    cfg: &ValidationConfig,
) -> Vec<Anomaly> {
    let profile = table.quality_profile();
    let mut anomalies = Vec::new();
    for exp in &expectations.columns {
        let (Ok(col), Some(sketch)) = (table.column(&exp.name), profile.column(&exp.name)) else {
            anomalies.push(Anomaly::MissingColumn {
                name: exp.name.clone(),
            });
            continue;
        };
        if col.dtype() != exp.dtype {
            anomalies.push(Anomaly::TypeMismatch {
                name: exp.name.clone(),
                expected: exp.dtype,
                found: col.dtype(),
            });
            continue;
        }
        if sketch.null_rate() > exp.max_null_fraction + 1e-12 {
            anomalies.push(Anomaly::NullRate {
                name: exp.name.clone(),
                observed: sketch.null_rate(),
                allowed: exp.max_null_fraction,
            });
        }
        if let (Some((lo, hi)), Ok(vals)) = (exp.range, col.to_f64()) {
            let out = vals.iter().flatten().filter(|&&v| v < lo || v > hi).count();
            if out > 0 {
                anomalies.push(Anomaly::OutOfRange {
                    name: exp.name.clone(),
                    count: out,
                    range: (lo, hi),
                });
            }
        }
        if let (Some(domain), Some(cells)) = (&exp.domain, col.as_str()) {
            let mut unseen: Vec<&str> = cells
                .iter()
                .flatten()
                .map(|v| &**v)
                .filter(|&v| !domain.iter().any(|d| d == v))
                .collect();
            unseen.sort_unstable();
            unseen.dedup();
            unseen.truncate(10);
            let unseen: Vec<String> = unseen.into_iter().map(str::to_owned).collect();
            if !unseen.is_empty() {
                anomalies.push(Anomaly::UnseenCategory {
                    name: exp.name.clone(),
                    values: unseen,
                });
            }
        }
        let Some(reference) = &exp.reference else {
            continue;
        };
        if let (Some(mean), Some(ref_std)) = (sketch.moments.mean_opt(), reference.moments.std()) {
            let magnitude = (mean - reference.moments.mean).abs() / ref_std.max(1e-9);
            if magnitude > cfg.drift_threshold {
                anomalies.push(Anomaly::Drift {
                    name: exp.name.clone(),
                    magnitude,
                });
            }
        }
        let ks = reference.quantiles.ks_statistic(&sketch.quantiles);
        if ks > cfg.ks_threshold {
            anomalies.push(Anomaly::DistributionShift {
                name: exp.name.clone(),
                ks,
            });
        }
    }
    for field in table.schema().fields() {
        if !expectations.columns.iter().any(|e| e.name == field.name) {
            anomalies.push(Anomaly::UnexpectedColumn {
                name: field.name.clone(),
            });
        }
    }
    anomalies
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_tabular::Value;

    fn reference() -> Table {
        Table::builder()
            .float("rating", [1.0, 2.0, 3.0, 4.0, 5.0])
            .str("degree", ["bsc", "msc", "phd", "bsc", "msc"])
            .int("age", [25, 30, 35, 40, 45])
            .build()
            .unwrap()
    }

    #[test]
    fn reference_validates_against_itself() {
        let cfg = ValidationConfig::default();
        let exp = infer_expectations(&reference(), &cfg);
        assert!(validate(&reference(), &exp, &cfg).is_empty());
    }

    #[test]
    fn missing_and_extra_columns_flagged() {
        let cfg = ValidationConfig::default();
        let exp = infer_expectations(&reference(), &cfg);
        let batch = Table::builder()
            .float("rating", [2.0])
            .str("degree", ["bsc"])
            .bool("new_flag", [true])
            .build()
            .unwrap();
        let anomalies = validate(&batch, &exp, &cfg);
        assert!(anomalies.contains(&Anomaly::MissingColumn { name: "age".into() }));
        assert!(anomalies.contains(&Anomaly::UnexpectedColumn {
            name: "new_flag".into()
        }));
    }

    #[test]
    fn type_change_flagged() {
        let cfg = ValidationConfig::default();
        let exp = infer_expectations(&reference(), &cfg);
        let batch = Table::builder()
            .str("rating", ["five"])
            .str("degree", ["bsc"])
            .int("age", [30])
            .build()
            .unwrap();
        let anomalies = validate(&batch, &exp, &cfg);
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::TypeMismatch { name, .. } if name == "rating")));
    }

    #[test]
    fn null_rate_and_range_and_domain() {
        let cfg = ValidationConfig::default();
        let exp = infer_expectations(&reference(), &cfg);
        let batch = Table::builder()
            .float("rating", [Some(99.0), None, None])
            .str("degree", ["bsc", "unknown-degree", "msc"])
            .int("age", [30, 31, 32])
            .build()
            .unwrap();
        let anomalies = validate(&batch, &exp, &cfg);
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::NullRate { name, .. } if name == "rating")));
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::OutOfRange { name, count: 1, .. } if name == "rating")));
        assert!(anomalies.iter().any(|a| matches!(
            a,
            Anomaly::UnseenCategory { name, values } if name == "degree" && values == &vec!["unknown-degree".to_owned()]
        )));
    }

    #[test]
    fn drift_detection() {
        let cfg = ValidationConfig {
            drift_threshold: 0.5,
            ..Default::default()
        };
        let exp = infer_expectations(&reference(), &cfg);
        // Shift ages by +2 std.
        let batch = reference()
            .map_column("age", |v| Value::Float(v.as_float().unwrap() + 15.0))
            .unwrap();
        // age became Float → type mismatch shadows drift; use rating instead.
        let batch = batch
            .map_column("rating", |v| Value::Float(v.as_float().unwrap() + 5.0))
            .unwrap();
        let anomalies = validate(&batch, &exp, &cfg);
        assert!(anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::Drift { name, magnitude } if name == "rating" && *magnitude > 0.5)));
    }

    #[test]
    fn variance_change_triggers_ks_but_not_mean_drift() {
        // Same mean (3.0), wildly different spread: KS fires, mean-drift
        // does not — the case the shape check exists for.
        let cfg = ValidationConfig {
            ks_threshold: 0.3,
            ..Default::default()
        };
        let reference = Table::builder()
            .float(
                "rating",
                vec![2.8, 2.9, 3.0, 3.1, 3.2, 2.85, 3.15, 2.95, 3.05, 3.0],
            )
            .str("degree", vec!["bsc"; 10])
            .int("age", (0..10i64).map(|i| 30 + i).collect::<Vec<_>>())
            .build()
            .unwrap();
        let exp = infer_expectations(&reference, &cfg);
        let wide = Table::builder()
            .float(
                "rating",
                vec![0.5, 5.5, 0.6, 5.4, 0.7, 5.3, 0.8, 5.2, 0.9, 5.1],
            )
            .str("degree", vec!["bsc"; 10])
            .int("age", (0..10i64).map(|i| 30 + i).collect::<Vec<_>>())
            .build()
            .unwrap();
        let anomalies = validate(&wide, &exp, &cfg);
        assert!(
            anomalies
                .iter()
                .any(|a| matches!(a, Anomaly::DistributionShift { name, .. } if name == "rating")),
            "{anomalies:?}"
        );
        assert!(
            !anomalies
                .iter()
                .any(|a| matches!(a, Anomaly::Drift { name, .. } if name == "rating")),
            "{anomalies:?}"
        );
    }

    #[test]
    fn slack_tolerates_small_deviations() {
        let cfg = ValidationConfig {
            range_slack: 0.5,
            null_slack: 0.5,
            drift_threshold: 10.0,
            ks_threshold: 1.0,
        };
        let exp = infer_expectations(&reference(), &cfg);
        let batch = Table::builder()
            .float("rating", [Some(0.5), None, Some(5.5)])
            .str("degree", ["bsc", "msc", "phd"])
            .int("age", [20, 50, 35])
            .build()
            .unwrap();
        assert!(validate(&batch, &exp, &cfg).is_empty());
    }

    #[test]
    fn categorical_domains_survive_shard_merges() {
        // 6 000 rows span three profile chunks. Values come in sorted
        // blocks, so no single chunk sees every value and the domain is
        // assembled by the shard merges.
        let codes = |distinct: usize| {
            let values = (0..6_000).map(|i| format!("c{:02}", i * distinct / 6_000));
            Table::builder().str("code", values).build().unwrap()
        };
        let cfg = ValidationConfig::default();
        let exp = infer_expectations(&codes(64), &cfg);
        assert_eq!(exp.columns[0].domain.as_ref().map(Vec::len), Some(64));
        assert!(validate(&codes(64), &exp, &cfg).is_empty());
        let batch = Table::builder().str("code", ["c07", "zz"]).build().unwrap();
        assert_eq!(
            validate(&batch, &exp, &cfg),
            vec![Anomaly::UnseenCategory {
                name: "code".into(),
                values: vec!["zz".into()],
            }]
        );

        // A 65th value makes the union overflow the sketch capacity: the
        // merge trims and marks it saturated, so there is no domain and
        // nothing counts as unseen. The same holds when every chunk sees
        // all 65 values and eviction happens inside each shard.
        let cyclic = Table::builder()
            .str("code", (0..6_000).map(|i| format!("c{:02}", i % 65)))
            .build()
            .unwrap();
        for reference in [codes(65), cyclic] {
            let exp = infer_expectations(&reference, &cfg);
            assert_eq!(exp.columns[0].domain, None);
            for table in [&reference, &batch] {
                let anomalies = validate(table, &exp, &cfg);
                assert!(
                    !anomalies
                        .iter()
                        .any(|a| matches!(a, Anomaly::UnseenCategory { .. })),
                    "{anomalies:?}"
                );
            }
        }
    }

    #[test]
    fn all_null_numeric_columns_have_no_reference() {
        let cfg = ValidationConfig::default();
        let reference = Table::builder()
            .float("x", vec![None::<f64>; 5_000])
            .build()
            .unwrap();
        let exp = infer_expectations(&reference, &cfg);
        assert!(exp.columns[0].reference.is_none());
        assert_eq!(exp.columns[0].range, None);
        assert_eq!(exp.columns[0].max_null_fraction, 1.0);
        let batch = Table::builder()
            .float("x", [Some(1.0), Some(1e6), None])
            .build()
            .unwrap();
        assert!(validate(&reference, &exp, &cfg).is_empty());
        assert!(validate(&batch, &exp, &cfg).is_empty());
    }
}
