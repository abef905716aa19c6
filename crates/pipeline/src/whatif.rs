//! Provenance-backed what-if analysis (Grafberger, Groth & Schelter 2023):
//! answer "what would the pipeline output be if these source rows were
//! deleted / repaired?" — for deletions, *without* re-running the pipeline,
//! using the monotonicity of select/project/join plans (the incremental-
//! view-maintenance connection the paper highlights).

use crate::exec::{lookup_source, Sources, TracedTable};
use crate::plan::{Node, Plan, PlanJoin};
use crate::{PipelineError, Result};
use nde_tabular::{Table, Value};
use std::collections::HashSet;

/// The effect of deleting source rows, computed from provenance alone.
#[derive(Debug, Clone)]
pub struct DeletionEffect {
    /// The updated pipeline output.
    pub table: Table,
    /// For each surviving output row, its index in the original output.
    pub kept: Vec<usize>,
}

/// Applies the deletion of `rows` of source `source` to a traced output:
/// an output row survives iff its monomial references none of the deleted
/// rows. Exact for monotone plans (source/filter/project/with-column/
/// inner join/concat); *not* valid for fuzzy joins, whose closest-match
/// semantics can re-match after a deletion, nor for deleting right-side
/// rows of a left join, whose left row a re-run keeps with null right
/// cells — re-run the pipeline for those. Row indices past the source's
/// end are ignored.
///
/// One schema-level caveat (cell values are always identical to a re-run):
/// a UDF column whose surviving cells are all null keeps its originally
/// inferred dtype here, whereas a full re-run re-infers the dtype from the
/// shrunken data — the familiar dtype-instability-under-data-change of
/// inference-based engines.
pub fn delete_source_rows(
    traced: &TracedTable,
    source: &str,
    rows: &[usize],
) -> Result<DeletionEffect> {
    let src = traced
        .source_index(source)
        .ok_or_else(|| PipelineError::UnknownSource {
            name: source.to_owned(),
        })?;
    // A dense bitmap over the source rows the lineage references: rows
    // past the largest referenced one feed no output row, so a caller's
    // index, however large, never sizes an allocation.
    let referenced = traced
        .lineage
        .iter()
        .filter_map(|m| m.rows_of_source(src).max())
        .max()
        .map_or(0, |row| row + 1);
    let mut deleted = vec![0u64; referenced.div_ceil(64)];
    for &row in rows.iter().filter(|&&row| row < referenced) {
        deleted[row / 64] |= 1 << (row % 64);
    }
    let is_deleted = |row: usize| deleted[row / 64] >> (row % 64) & 1 == 1;
    let kept: Vec<usize> = traced
        .lineage
        .iter()
        .enumerate()
        .filter(|(_, m)| !m.rows_of_source(src).any(is_deleted))
        .map(|(i, _)| i)
        .collect();
    Ok(DeletionEffect {
        table: traced.table.take(&kept)?,
        kept,
    })
}

/// Re-runs `plan` with `rows` removed from source `source` — the reference
/// implementation deletions are checked against, and the fallback for
/// non-monotone operators.
pub fn rerun_without_rows(
    plan: &Plan,
    sources: &Sources,
    source: &str,
    rows: &[usize],
) -> Result<Table> {
    let table = lookup_source(sources, source)?;
    let remove: HashSet<usize> = rows.iter().copied().collect();
    let keep: Vec<usize> = (0..table.num_rows())
        .filter(|i| !remove.contains(i))
        .collect();
    Ok(run_patched(plan, sources, source, table.take(&keep)?, false)?.table)
}

/// Re-runs `plan` with cell repairs applied to a source table. Repairs are
/// `(row, column, new value)` triples.
pub fn rerun_with_repairs(
    plan: &Plan,
    sources: &Sources,
    source: &str,
    repairs: &[(usize, String, Value)],
) -> Result<Table> {
    let mut fixed = lookup_source(sources, source)?.clone();
    for (row, column, value) in repairs {
        fixed.set(*row, column, value.clone())?;
    }
    Ok(run_patched(plan, sources, source, fixed, false)?.table)
}

/// Incremental **insertion** propagation — the other half of the
/// incremental-view-maintenance connection the paper highlights in §2.2:
/// for plans in which `source` appears exactly once, monotone operators
/// distribute over union, so the output delta is obtained by running the
/// plan with the *delta rows* substituted for the source (all other
/// sources unchanged) and appending it to the existing output.
///
/// Returns the delta as a [`TracedTable`] whose `ProvToken::row` values for
/// `source` are offset by the original source size (i.e. they index into
/// the grown source table). Errors when `source` appears more than once in
/// the plan (self-join/self-concat deltas need cross terms), and when it
/// feeds the right side of a left join or of a fuzzy join: a new right row
/// there can retract output rows (a null-extended left row that now
/// matches, a fuzzy match that a closer key displaces), which an
/// append-only delta cannot express — re-run the pipeline for those.
///
/// The output grown by the delta equals a re-run over the grown source
/// row for row when every operator on the way from `source` to the output
/// keeps appended input rows last: filters, projections, derived columns,
/// the left side of a join, the bottom of a concat. Inserts into the right
/// side of an inner join (or the top of a concat) give the same rows as a
/// re-run as a bag, not in order: a re-run lists a new right row's matches
/// next to their left rows, whereas the delta appends them last.
pub fn insert_source_rows(
    plan: &Plan,
    sources: &Sources,
    source: &str,
    new_rows: &Table,
) -> Result<TracedTable> {
    let occurrences = count_source_occurrences(&plan.node, source);
    if occurrences != 1 {
        return Err(PipelineError::Invalid {
            detail: format!(
                "incremental insertion needs {source:?} to appear exactly once in the plan, found {occurrences}"
            ),
        });
    }
    if let Some(op) = retracting_join(&plan.node, source) {
        return Err(PipelineError::Invalid {
            detail: format!(
                "incremental insertion into {source:?} on the right side of {op} can retract output rows; re-run the pipeline"
            ),
        });
    }
    let offset = lookup_source(sources, source)?.num_rows();
    let mut delta = run_patched(plan, sources, source, new_rows.clone(), true)?;
    // Re-base the delta's provenance onto the grown source table.
    if let Some(src_idx) = delta.source_index(source) {
        for m in &mut delta.lineage {
            m.shift_source(src_idx, offset);
        }
    }
    Ok(delta)
}

/// Runs `plan` with source `source` replaced by `table`. Copying the map
/// shares every table's columns, so the other sources cost no cells.
fn run_patched(
    plan: &Plan,
    sources: &Sources,
    source: &str,
    table: Table,
    traced: bool,
) -> Result<TracedTable> {
    let mut patched = sources.clone();
    patched.insert(source.to_owned(), table);
    plan.execute(&patched, traced, &mut |_, _| {})
}

fn count_source_occurrences(node: &Node, source: &str) -> usize {
    let own = usize::from(matches!(node, Node::Source { name } if name == source));
    own + node
        .children()
        .iter()
        .map(|c| count_source_occurrences(c, source))
        .sum::<usize>()
}

/// The label of the first left join or fuzzy join whose right input reads
/// `source`, if any: inserts there are not append-only.
fn retracting_join(node: &Node, source: &str) -> Option<String> {
    let reads = |n: &Node| count_source_occurrences(n, source) > 0;
    match node {
        Node::Join {
            right,
            how: PlanJoin::Left,
            ..
        }
        | Node::FuzzyJoin { right, .. }
            if reads(right) =>
        {
            Some(node.label())
        }
        _ => node
            .children()
            .into_iter()
            .find_map(|child| retracting_join(child, source)),
    }
}

/// The change in a scalar metric of the pipeline output caused by deleting
/// `rows` from `source`: `metric(after) − metric(before)`, both sides
/// computed from provenance (no re-execution).
pub fn deletion_impact(
    traced: &TracedTable,
    source: &str,
    rows: &[usize],
    metric: &dyn Fn(&Table) -> f64,
) -> Result<f64> {
    let before = metric(&traced.table);
    let effect = delete_source_rows(traced, source, rows)?;
    Ok(metric(&effect.table) - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sources;

    fn demo() -> (Plan, Sources) {
        let train = Table::builder()
            .int("person_id", [0, 1, 2, 3])
            .int("job_id", [10, 11, 10, 12])
            .float("score", [1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let jobs = Table::builder()
            .int("job_id", [10, 11, 12])
            .str("sector", ["healthcare", "finance", "healthcare"])
            .build()
            .unwrap();
        let plan = Plan::source("train")
            .join(Plan::source("jobs"), "job_id", "job_id")
            .filter("healthcare", |r| r.str("sector") == Some("healthcare"));
        (plan, sources(vec![("train", train), ("jobs", jobs)]))
    }

    #[test]
    fn provenance_deletion_matches_rerun_for_train_rows() {
        let (plan, srcs) = demo();
        let traced = plan.run_traced(&srcs).unwrap();
        for delete in [vec![0usize], vec![2, 3], vec![], vec![0, 1, 2, 3]] {
            let via_prov = delete_source_rows(&traced, "train", &delete).unwrap();
            let via_rerun = rerun_without_rows(&plan, &srcs, "train", &delete).unwrap();
            assert_eq!(via_prov.table, via_rerun, "delete {delete:?}");
        }
    }

    #[test]
    fn provenance_deletion_matches_rerun_for_side_table_rows() {
        let (plan, srcs) = demo();
        let traced = plan.run_traced(&srcs).unwrap();
        for delete in [vec![0usize], vec![2], vec![0, 2]] {
            let via_prov = delete_source_rows(&traced, "jobs", &delete).unwrap();
            let via_rerun = rerun_without_rows(&plan, &srcs, "jobs", &delete).unwrap();
            assert_eq!(via_prov.table, via_rerun, "delete {delete:?}");
        }
    }

    #[test]
    fn kept_indices_reference_original_output() {
        let (plan, srcs) = demo();
        let traced = plan.run_traced(&srcs).unwrap();
        let effect = delete_source_rows(&traced, "train", &[0]).unwrap();
        for (new_i, &old_i) in effect.kept.iter().enumerate() {
            assert_eq!(
                effect.table.row_values(new_i).unwrap(),
                traced.table.row_values(old_i).unwrap()
            );
        }
    }

    #[test]
    fn deletion_impact_on_row_count() {
        let (plan, srcs) = demo();
        let traced = plan.run_traced(&srcs).unwrap();
        let impact = deletion_impact(&traced, "jobs", &[0], &|t| t.num_rows() as f64).unwrap();
        // Job 10 feeds persons 0 and 2 → two output rows disappear.
        assert_eq!(impact, -2.0);
    }

    #[test]
    fn repairs_change_downstream_results() {
        let (plan, srcs) = demo();
        let before = plan.run(&srcs).unwrap();
        assert_eq!(before.num_rows(), 3);
        // Repair: job 11 becomes healthcare → person 1 now passes the filter.
        let after = rerun_with_repairs(
            &plan,
            &srcs,
            "jobs",
            &[(1, "sector".into(), Value::from("healthcare"))],
        )
        .unwrap();
        assert_eq!(after.num_rows(), 4);
    }

    #[test]
    fn incremental_insert_equals_rerun() {
        let (plan, srcs) = demo();
        let before = plan.run(&srcs).unwrap();
        let new_rows = Table::builder()
            .int("person_id", [100, 101])
            .int("job_id", [10, 11]) // job 10 = healthcare, job 11 = finance
            .float("score", [9.0, 9.5])
            .build()
            .unwrap();
        let delta = insert_source_rows(&plan, &srcs, "train", &new_rows).unwrap();
        // Delta contains only person 100 (healthcare).
        assert_eq!(delta.table.num_rows(), 1);
        // The combined output equals a full rerun on the grown source.
        let combined = before.concat(&delta.table).unwrap();
        let mut grown_srcs = srcs.clone();
        let grown = srcs["train"].concat(&new_rows).unwrap();
        grown_srcs.insert("train".into(), grown);
        let full = plan.run(&grown_srcs).unwrap();
        // Row sets must match (order may differ only in the appended part,
        // which for this monotone plan is identical).
        assert_eq!(combined, full);
        // Provenance is re-based onto the grown source table.
        let src = delta.source_index("train").unwrap();
        let rows: Vec<usize> = delta.lineage[0].rows_of_source(src).collect();
        assert_eq!(rows, vec![4]); // original 4 rows + inserted row 0
    }

    #[test]
    fn incremental_insert_rejects_repeated_sources() {
        let t = Table::builder().int("x", [1]).build().unwrap();
        let plan = Plan::source("t").concat(Plan::source("t"));
        let srcs = sources(vec![("t", t.clone())]);
        let delta = Table::builder().int("x", [2]).build().unwrap();
        assert!(matches!(
            insert_source_rows(&plan, &srcs, "t", &delta),
            Err(PipelineError::Invalid { .. })
        ));
    }

    #[test]
    fn unknown_source_rejected() {
        let (plan, srcs) = demo();
        let traced = plan.run_traced(&srcs).unwrap();
        assert!(delete_source_rows(&traced, "nope", &[0]).is_err());
        assert!(rerun_without_rows(&plan, &srcs, "nope", &[0]).is_err());
        assert!(rerun_with_repairs(&plan, &srcs, "nope", &[]).is_err());
    }
}
