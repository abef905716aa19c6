//! mlinspect-style pipeline inspection (Grafberger, Guha, Stoyanovich &
//! Schelter, SIGMOD 2021; VLDB Journal 2022): lightweight inspections run
//! alongside execution that surface, per operator, row counts, null counts
//! and — crucially — changes in the distribution of protected groups
//! introduced by filters and joins ("data distribution debugging").

use crate::exec::Sources;
use crate::plan::{Node, Plan};
use crate::Result;
use nde_quality::{ColumnSketch, TableProfile};
use nde_tabular::Table;
use std::collections::HashMap;

/// Inspection results for one operator.
#[derive(Debug, Clone)]
pub struct OperatorReport {
    /// Operator label (matches the plan display).
    pub label: String,
    /// Rows in the operator's output.
    pub rows_out: usize,
    /// Total null cells in the operator's output.
    pub nulls_out: usize,
    /// For each watched column present in the output: value → share of rows.
    pub group_shares: HashMap<String, HashMap<String, f64>>,
    /// For each watched *numeric* column present in the output:
    /// `(mean, std)` of the non-null cells.
    pub numeric_stats: HashMap<String, (f64, f64)>,
}

/// The full inspection: per-operator reports (post-order, matching
/// execution order) plus distribution-change warnings.
#[derive(Debug, Clone)]
pub struct InspectionReport {
    /// Per-operator reports in execution (post) order.
    pub operators: Vec<OperatorReport>,
    /// Human-readable warnings about group-distribution changes.
    pub warnings: Vec<String>,
}

impl InspectionReport {
    /// Whether no warnings were raised.
    pub fn clean(&self) -> bool {
        self.warnings.is_empty()
    }
}

fn numeric_summary(sketch: &ColumnSketch) -> Option<(f64, f64)> {
    Some((sketch.moments.mean_opt()?, sketch.moments.std()?))
}

fn shares(table: &Table, column: &str) -> Option<HashMap<String, f64>> {
    let col = table.column(column).ok()?;
    let cells = col.as_str()?;
    let n = table.num_rows();
    if n == 0 {
        return Some(HashMap::new());
    }
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for cell in cells {
        *counts
            .entry(cell.as_deref().unwrap_or("<null>"))
            .or_default() += 1;
    }
    Some(
        counts
            .into_iter()
            .map(|(k, c)| (k.to_owned(), c as f64 / n as f64))
            .collect(),
    )
}

/// Runs the plan over `sources` with inspections attached. `watched` names
/// (string) columns whose group distribution should be tracked; a warning
/// is emitted whenever an operator changes some group's share by more than
/// `shift_threshold` (absolute) relative to its first input.
pub fn inspect(
    plan: &Plan,
    sources: &Sources,
    watched: &[&str],
    shift_threshold: f64,
) -> Result<InspectionReport> {
    let mut reports: Vec<OperatorReport> = Vec::new();
    {
        let mut observer = |node: &Node, table: &Table| {
            let mut group_shares = HashMap::new();
            let mut numeric_stats = HashMap::new();
            // Profiled lazily: only outputs carrying a watched non-string
            // column pay for sketching, and each pays once.
            let mut profile: Option<TableProfile> = None;
            for &col in watched {
                if let Some(s) = shares(table, col) {
                    group_shares.insert(col.to_owned(), s);
                } else if table.column(col).is_ok() {
                    let profile = profile.get_or_insert_with(|| table.quality_profile());
                    if let Some(stats) = profile.column(col).and_then(numeric_summary) {
                        numeric_stats.insert(col.to_owned(), stats);
                    }
                }
            }
            reports.push(OperatorReport {
                label: node.label(),
                rows_out: table.num_rows(),
                nulls_out: table.null_count(),
                group_shares,
                numeric_stats,
            });
        };
        plan.execute(sources, false, &mut observer)?;
    }

    // Recover the parent → first-child structure by re-walking the plan in
    // the same post-order the observer fired in.
    let mut first_child_of: Vec<Option<usize>> = Vec::new();
    fn walk(node: &Node, order: &mut Vec<Option<usize>>) -> usize {
        let children: Vec<usize> = node.children().iter().map(|c| walk(c, order)).collect();
        order.push(children.first().copied());
        order.len() - 1
    }
    walk(&plan.node, &mut first_child_of);
    debug_assert_eq!(first_child_of.len(), reports.len());

    let mut warnings = Vec::new();
    for (idx, report) in reports.iter().enumerate() {
        let Some(child_idx) = first_child_of[idx] else {
            continue;
        };
        let child = &reports[child_idx];
        let mut cols: Vec<&String> = report.group_shares.keys().collect();
        cols.sort();
        for col in cols {
            let after = &report.group_shares[col];
            let Some(before) = child.group_shares.get(col) else {
                continue;
            };
            let mut values: Vec<&String> = before.keys().collect();
            values.sort();
            for value in values {
                let share_before = before[value];
                let share_after = after.get(value).copied().unwrap_or(0.0);
                let delta = (share_after - share_before).abs();
                if delta > shift_threshold {
                    warnings.push(format!(
                        "{}: share of {col}={value} changed {:.2} → {:.2}",
                        report.label, share_before, share_after
                    ));
                }
            }
        }
        // Numeric drift: mean moved by more than `shift_threshold` input
        // standard deviations.
        let mut cols: Vec<&String> = report.numeric_stats.keys().collect();
        cols.sort();
        for col in cols {
            let (mean_after, _) = report.numeric_stats[col];
            let Some(&(mean_before, std_before)) = child.numeric_stats.get(col) else {
                continue;
            };
            let drift = (mean_after - mean_before).abs() / std_before.max(1e-9);
            if drift > shift_threshold {
                warnings.push(format!(
                    "{}: mean of {col} drifted {:.2}σ ({:.2} → {:.2})",
                    report.label, drift, mean_before, mean_after
                ));
            }
        }
    }
    Ok(InspectionReport {
        operators: reports,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sources;

    fn demo_sources() -> Sources {
        let train = Table::builder()
            .int("id", [0, 1, 2, 3, 4, 5])
            .str("sex", ["f", "f", "f", "m", "m", "m"])
            .int("score", [10, 20, 30, 1, 2, 35])
            .build()
            .unwrap();
        sources(vec![("train", train)])
    }

    #[test]
    fn biased_filter_raises_warning() {
        // score >= 10 keeps all f rows but only one m row: m share drops
        // 0.5 → 0.25.
        let plan = Plan::source("train").filter("score >= 10", |r| r.int("score").unwrap() >= 10);
        let report = inspect(&plan, &demo_sources(), &["sex"], 0.1).unwrap();
        assert!(!report.clean());
        // Both groups' shares shift (f up, m down); warnings are sorted by
        // group value.
        assert!(
            report.warnings.iter().any(|w| w.contains("sex=m")),
            "{:?}",
            report.warnings
        );
        assert_eq!(report.operators.len(), 2);
        assert_eq!(report.operators[1].rows_out, 4);
    }

    #[test]
    fn neutral_filter_is_clean() {
        let plan = Plan::source("train").filter("id < 4", |r| r.int("id").unwrap() < 4);
        // Keeps 3 f and 1 m → warning at 0.1 threshold, but clean at 0.5.
        let report = inspect(&plan, &demo_sources(), &["sex"], 0.5).unwrap();
        assert!(report.clean(), "{:?}", report.warnings);
    }

    #[test]
    fn reports_track_rows_and_nulls() {
        let t = Table::builder()
            .int("a", [Some(1), None, Some(3)])
            .str("g", ["x", "y", "x"])
            .build()
            .unwrap();
        let plan = Plan::source("t").drop_nulls(&["a"]);
        let report = inspect(&plan, &sources(vec![("t", t)]), &["g"], 1.0).unwrap();
        assert_eq!(report.operators[0].rows_out, 3);
        assert_eq!(report.operators[0].nulls_out, 1);
        assert_eq!(report.operators[1].rows_out, 2);
        assert_eq!(report.operators[1].nulls_out, 0);
    }

    #[test]
    fn group_shares_are_fractions() {
        let plan = Plan::source("train");
        let report = inspect(&plan, &demo_sources(), &["sex"], 1.0).unwrap();
        let shares = &report.operators[0].group_shares["sex"];
        assert!((shares["f"] - 0.5).abs() < 1e-12);
        assert!((shares["m"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn join_shape_warning_structure() {
        // A join that duplicates f rows shifts the distribution.
        let extra = Table::builder()
            .str("sex", ["f", "f"])
            .int("w", [1, 2])
            .build()
            .unwrap();
        let plan = Plan::source("train").join(Plan::source("extra"), "sex", "sex");
        let mut srcs = demo_sources();
        srcs.insert("extra".into(), extra);
        let report = inspect(&plan, &srcs, &["sex"], 0.2).unwrap();
        // All m rows drop out (no match) → strong distribution change.
        assert!(!report.clean());
    }

    #[test]
    fn numeric_drift_is_reported() {
        // Filtering to score >= 10 raises the mean of the watched numeric
        // column far beyond its input std.
        let plan = Plan::source("train").filter("score >= 10", |r| r.int("score").unwrap() >= 10);
        let report = inspect(&plan, &demo_sources(), &["score"], 0.3).unwrap();
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("mean of score drifted")),
            "{:?}",
            report.warnings
        );
        // Stats are recorded per operator.
        assert!(report.operators[0].numeric_stats.contains_key("score"));
        assert!(report.operators[1].numeric_stats.contains_key("score"));
    }

    fn post_order_labels(node: &Node, out: &mut Vec<String>) {
        for child in node.children() {
            post_order_labels(child, out);
        }
        out.push(node.label());
    }

    #[test]
    fn operator_order_matches_plan_post_order() {
        // A branchy plan: two joins and a filter. The report's operator
        // sequence must be exactly the plan's post-order walk, which is
        // also execution order — the invariant the parent→first-child
        // warning recovery in `inspect` relies on.
        let extra = Table::builder()
            .str("sex", ["f", "m"])
            .int("w", [1, 2])
            .build()
            .unwrap();
        let bonus = Table::builder()
            .int("id", [0, 1, 2, 3, 4, 5])
            .int("bonus", [9, 9, 9, 9, 9, 9])
            .build()
            .unwrap();
        let plan = Plan::source("train")
            .join(Plan::source("extra"), "sex", "sex")
            .filter("id < 4", |r| r.int("id").unwrap() < 4)
            .join(Plan::source("bonus"), "id", "id");
        let mut srcs = demo_sources();
        srcs.insert("extra".into(), extra);
        srcs.insert("bonus".into(), bonus);
        let report = inspect(&plan, &srcs, &["sex"], 1.0).unwrap();
        let mut expected = Vec::new();
        post_order_labels(&plan.node, &mut expected);
        let got: Vec<String> = report.operators.iter().map(|o| o.label.clone()).collect();
        assert_eq!(got, expected);
        // Post-order means every operator appears after all its inputs.
        assert_eq!(report.operators.len(), 6);
        assert_eq!(got[0], Plan::source("train").node.label());
        assert_eq!(*got.last().unwrap(), plan.node.label());
    }

    #[test]
    fn join_induced_share_shift_names_the_join_operator() {
        // The right side only matches f rows and matches each twice, so
        // the inner join both drops every m row and duplicates the f rows:
        // sex=f goes 0.5 → 1.0, sex=m 0.5 → 0.0. The warning must be
        // attributed to the join operator (not the sources) and report
        // both directions of the shift.
        let extra = Table::builder()
            .str("sex", ["f", "f"])
            .int("w", [1, 2])
            .build()
            .unwrap();
        let plan = Plan::source("train").join(Plan::source("extra"), "sex", "sex");
        let join_label = plan.node.label();
        let mut srcs = demo_sources();
        srcs.insert("extra".into(), extra);
        let report = inspect(&plan, &srcs, &["sex"], 0.2).unwrap();
        assert_eq!(report.warnings.len(), 2, "{:?}", report.warnings);
        for warning in &report.warnings {
            assert!(warning.starts_with(&join_label), "{warning}");
        }
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("sex=f") && w.contains("0.50 → 1.00")),
            "{:?}",
            report.warnings
        );
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("sex=m") && w.contains("0.50 → 0.00")),
            "{:?}",
            report.warnings
        );
        // The post-join report row itself carries the shifted shares.
        let joined = report.operators.last().unwrap();
        assert!((joined.group_shares["sex"]["f"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_watched_column_is_ignored() {
        let plan = Plan::source("train");
        let report = inspect(&plan, &demo_sources(), &["nonexistent"], 0.1).unwrap();
        assert!(report.operators[0].group_shares.is_empty());
        assert!(report.clean());
    }
}
